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
use crate::name_or;
use crate::text::{push_esc, push_f64, push_scaled, push_u64};
use std::collections::BTreeMap;

/// Human-readable labels the exporter joins back onto integer ids.
#[derive(Debug, Clone, Default)]
pub struct ChromeLabels {
    /// Task names by task id (missing ids render as `t<id>`).
    pub task_names: Vec<String>,
    /// Node labels by node id (missing ids render as `w<id>`).
    pub node_names: Vec<String>,
}

const WF_PID: u32 = 0;
const COUNTER_PID: u32 = 1;
/// Sublane stride: lane id = node * STRIDE + sublane.
const STRIDE: u32 = 256;

fn tid(att: &Attempt) -> u32 {
    att.node * STRIDE + att.lane
}

/// Append `,\n` and the head every record shares: name, optional
/// category and phase type, up to the closing quote of the phase type.
fn push_head(out: &mut String, name: &str, cat: Option<&str>, ph: &str) {
    out.push_str(",\n{\"name\":\"");
    push_esc(out, name);
    if let Some(cat) = cat {
        out.push_str("\",\"cat\":\"");
        out.push_str(cat);
    }
    out.push_str("\",\"ph\":\"");
    out.push_str(ph);
    out.push('"');
}

/// Append a record's `pid` and `tid`.
fn push_ids(out: &mut String, pid: u32, tid: u32) {
    out.push_str(",\"pid\":");
    push_u64(out, u64::from(pid));
    out.push_str(",\"tid\":");
    push_u64(out, u64::from(tid));
}

/// Append a complete (`X`) span; times are microseconds.
fn push_span(out: &mut String, name: &str, cat: &str, tid: u32, start: u64, end: u64) {
    push_head(out, name, Some(cat), "X");
    push_ids(out, WF_PID, tid);
    out.push_str(",\"ts\":");
    push_scaled(out, start, 3);
    out.push_str(",\"dur\":");
    push_scaled(out, end.saturating_sub(start), 3);
    out.push('}');
}

/// Append a process-scoped fault instant on a node's first sublane.
fn push_instant(out: &mut String, name: &str, node: u32, t: u64) {
    push_head(out, name, Some("fault"), "i");
    out.push_str(",\"s\":\"p\"");
    push_ids(out, WF_PID, node * STRIDE);
    out.push_str(",\"ts\":");
    push_scaled(out, t, 3);
    out.push('}');
}

/// Render the report as a Trace Event Format JSON document.
///
/// Every record is written straight into one buffer. The lane labels
/// head the document but are only known once the fold has assigned
/// every sublane, so a first fold pass collects them and a second one
/// writes the spans.
pub fn chrome_trace(report: &ObsReport, labels: &ChromeLabels) -> String {
    // Lane labels by tid, registered the first time a sublane is used.
    let mut lanes: BTreeMap<u32, String> = BTreeMap::new();
    let mut fold = AttemptFold::default();
    for &(t, ev) in &report.events {
        fold.push(t, &ev, |step| {
            if let Step::Start(att) = step {
                lanes.entry(tid(&att)).or_insert_with(|| {
                    let node = name_or(&labels.node_names, "w", att.node);
                    match att.lane {
                        0 => node.into_owned(),
                        lane => format!("{node}+{lane}"),
                    }
                });
            }
        });
    }

    let points: usize = report.metrics.all_series().map(|(_, p)| p.len()).sum();
    // About 100 bytes per counter point and, spread over the whole
    // stream, about 20 per event for the spans and instants.
    let mut out = String::with_capacity(100 * points + 24 * report.events.len() + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    // The first record, so every later one starts with its separator.
    out.push_str("{\"name\":\"process_name\",\"ph\":\"M\"");
    push_ids(&mut out, WF_PID, 0);
    out.push_str(",\"args\":{\"name\":\"workflow\"}}");
    push_head(&mut out, "process_name", None, "M");
    push_ids(&mut out, COUNTER_PID, 0);
    out.push_str(",\"args\":{\"name\":\"counters\"}}");
    for (&tid, name) in &lanes {
        push_head(&mut out, "thread_name", None, "M");
        push_ids(&mut out, WF_PID, tid);
        out.push_str(",\"args\":{\"name\":\"");
        push_esc(&mut out, name);
        out.push_str("\"}}");
        push_head(&mut out, "thread_sort_index", None, "M");
        push_ids(&mut out, WF_PID, tid);
        out.push_str(",\"args\":{\"sort_index\":");
        push_u64(&mut out, u64::from(tid));
        out.push_str("}}");
    }

    let mut fold = AttemptFold::default();
    let mut render = |step: Step| match step {
        // The dispatch-overhead interval has no span of its own.
        Step::Interval {
            att,
            phase: Some(p),
            start,
            end,
            ..
        } => push_span(&mut out, p.label(), "phase", tid(&att), start, end),
        Step::Close { att, end, outcome } => {
            let cat = match outcome {
                Outcome::Ok | Outcome::Unfinished => "task",
                Outcome::Killed { .. } => "task-killed",
                Outcome::Failed => "task-failed",
            };
            let name = name_or(&labels.task_names, "t", att.task);
            push_span(&mut out, &name, cat, tid(&att), att.start, end);
        }
        Step::Start(_) | Step::Interval { .. } => {}
    };
    for &(t, ev) in &report.events {
        fold.push(t, &ev, &mut render);
    }
    // Any task still open at the end of the stream (e.g. a truncated
    // trace) closes at the last observed timestamp.
    fold.finish(render);

    for &(t, ev) in &report.events {
        match ev {
            Event::Fault { kind, node } => push_instant(&mut out, kind.label(), node, t),
            Event::NodeRecovered { node } => push_instant(&mut out, "recovered", node, t),
            _ => {}
        }
    }

    for (name, pts) in report.metrics.all_series() {
        for &(t, v) in pts {
            push_head(&mut out, name, None, "C");
            push_ids(&mut out, COUNTER_PID, 0);
            out.push_str(",\"ts\":");
            push_scaled(&mut out, t, 3);
            out.push_str(",\"args\":{\"value\":");
            push_f64(&mut out, v);
            out.push_str("}}");
        }
    }

    out.push_str("\n]}\n");
    out
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
