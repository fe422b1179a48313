//! Chrome `chrome://tracing` / Perfetto exporter.
//!
//! Renders a [`ObsReport`](crate::bus::ObsReport) recorded at
//! [`ObsLevel::Full`](crate::bus::ObsLevel) as a Trace Event Format JSON
//! document: one process for the workflow with one *lane group* per
//! worker node, plus counter tracks for queue depths and per-resource
//! in-flight flows. Nodes can run several tasks at once (multi-slot
//! instances), so each node's concurrent task spans are spread over
//! greedily-assigned sublanes — within any single lane (`tid`) spans are
//! strictly nested or disjoint, which is what Chrome's viewer (and our
//! property test) expects.

use crate::bus::ObsReport;
use crate::event::Event;
use crate::fold::{Attempt, AttemptFold, Outcome, Step};
use crate::{esc, name_or};
use std::collections::BTreeMap;

/// Human-readable labels the exporter joins back onto integer ids.
#[derive(Debug, Clone, Default)]
pub struct ChromeLabels {
    /// Task names by task id (missing ids render as `t<id>`).
    pub task_names: Vec<String>,
    /// Node labels by node id (missing ids render as `w<id>`).
    pub node_names: Vec<String>,
}

fn us(t_nanos: u64) -> f64 {
    t_nanos as f64 / 1e3
}

const WF_PID: u32 = 0;
const COUNTER_PID: u32 = 1;
/// Sublane stride: lane id = node * STRIDE + sublane.
const STRIDE: u32 = 256;

fn tid(att: &Attempt) -> u32 {
    att.node * STRIDE + att.lane
}

fn push_span(spans: &mut Vec<String>, name: &str, cat: &str, tid: u32, start: u64, end: u64) {
    spans.push(format!(
        "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":{},\"tid\":{},\
         \"ts\":{:.3},\"dur\":{:.3}}}",
        esc(name),
        cat,
        WF_PID,
        tid,
        us(start),
        us(end.saturating_sub(start)),
    ));
}

/// Render the report as a Trace Event Format JSON document.
pub fn chrome_trace(report: &ObsReport, labels: &ChromeLabels) -> String {
    let mut spans: Vec<String> = Vec::new();
    let mut instants: Vec<String> = Vec::new();
    // Lane labels by tid, registered the first time a sublane is used.
    let mut lanes: BTreeMap<u32, String> = BTreeMap::new();
    let mut fold = AttemptFold::default();
    let mut render = |step: Step| match step {
        Step::Start(att) => {
            lanes.entry(tid(&att)).or_insert_with(|| {
                let node = name_or(&labels.node_names, "w", att.node);
                match att.lane {
                    0 => node,
                    lane => format!("{node}+{lane}"),
                }
            });
        }
        // The dispatch-overhead interval has no span of its own.
        Step::Interval {
            att,
            phase: Some(p),
            start,
            end,
            ..
        } => push_span(&mut spans, p.label(), "phase", tid(&att), start, end),
        Step::Interval { .. } => {}
        Step::Close { att, end, outcome } => {
            let cat = match outcome {
                Outcome::Ok | Outcome::Unfinished => "task",
                Outcome::Killed { .. } => "task-killed",
                Outcome::Failed => "task-failed",
            };
            let name = name_or(&labels.task_names, "t", att.task);
            push_span(&mut spans, &name, cat, tid(&att), att.start, end);
        }
    };

    for &(t, ev) in &report.events {
        fold.push(t, &ev, &mut render);
        match ev {
            Event::Fault { kind, node } => {
                instants.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\
                     \"pid\":{},\"tid\":{},\"ts\":{:.3}}}",
                    kind.label(),
                    WF_PID,
                    node * STRIDE,
                    us(t),
                ));
            }
            Event::NodeRecovered { node } => {
                instants.push(format!(
                    "{{\"name\":\"recovered\",\"cat\":\"fault\",\"ph\":\"i\",\"s\":\"p\",\
                     \"pid\":{},\"tid\":{},\"ts\":{:.3}}}",
                    WF_PID,
                    node * STRIDE,
                    us(t),
                ));
            }
            _ => {}
        }
    }
    // Any task still open at the end of the stream (e.g. a truncated
    // trace) closes at the last observed timestamp.
    fold.finish(render);

    let mut parts: Vec<String> = Vec::new();
    parts.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{WF_PID},\"tid\":0,\
         \"args\":{{\"name\":\"workflow\"}}}}"
    ));
    parts.push(format!(
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{COUNTER_PID},\"tid\":0,\
         \"args\":{{\"name\":\"counters\"}}}}"
    ));
    for (tid, name) in &lanes {
        parts.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{WF_PID},\"tid\":{tid},\
             \"args\":{{\"name\":\"{}\"}}}}",
            esc(name)
        ));
        parts.push(format!(
            "{{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":{WF_PID},\"tid\":{tid},\
             \"args\":{{\"sort_index\":{tid}}}}}"
        ));
    }
    parts.extend(spans);
    parts.extend(instants);

    let mut names: Vec<&str> = report.metrics.series_names().collect();
    names.sort_unstable();
    for name in names {
        let Some(pts) = report.metrics.series(name) else {
            continue;
        };
        for &(t, v) in pts {
            parts.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":{COUNTER_PID},\"tid\":0,\
                 \"ts\":{:.3},\"args\":{{\"value\":{}}}}}",
                esc(name),
                us(t),
                v,
            ));
        }
    }

    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n{}\n]}}\n",
        parts.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{ObsHandle, ObsLevel};
    use crate::event::Phase;

    fn sample_report() -> ObsReport {
        let h = ObsHandle::new(ObsLevel::Full, 3);
        h.set_now(0);
        h.emit(Event::TaskStart {
            task: 0,
            node: 0,
            attempt: 0,
        });
        // A second task on the same node while the first is running:
        // must land on a different sublane.
        h.emit(Event::TaskStart {
            task: 1,
            node: 0,
            attempt: 0,
        });
        h.set_now(1_000_000_000);
        h.emit(Event::TaskPhase {
            task: 0,
            node: 0,
            phase: Phase::Compute,
        });
        h.set_now(2_000_000_000);
        h.emit(Event::TaskEnd {
            task: 0,
            node: 0,
            attempt: 1,
        });
        h.emit(Event::TaskEnd {
            task: 1,
            node: 0,
            attempt: 1,
        });
        h.take_report().unwrap()
    }

    #[test]
    fn concurrent_tasks_get_distinct_lanes() {
        let json = chrome_trace(&sample_report(), &ChromeLabels::default());
        assert!(json.contains("\"tid\":0"), "sublane 0 missing");
        assert!(json.contains("\"tid\":1"), "sublane 1 missing");
        assert!(json.contains("\"name\":\"w0\""));
        assert!(json.contains("\"name\":\"w0+1\""));
    }

    #[test]
    fn spans_carry_microsecond_times() {
        let json = chrome_trace(&sample_report(), &ChromeLabels::default());
        // Phase span: 1s..2s -> ts 1e6 µs, dur 1e6 µs.
        assert!(
            json.contains("\"ts\":1000000.000,\"dur\":1000000.000"),
            "phase timing missing in:\n{json}"
        );
        assert!(json.contains("\"name\":\"compute\""));
    }

    #[test]
    fn labels_and_escaping_are_applied() {
        let labels = ChromeLabels {
            task_names: vec!["say \"hi\"".into()],
            node_names: vec!["node\\0".into()],
        };
        let json = chrome_trace(&sample_report(), &labels);
        assert!(json.contains("say \\\"hi\\\""));
        assert!(json.contains("node\\\\0"));
    }
}
