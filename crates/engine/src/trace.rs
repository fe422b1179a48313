//! Execution tracing and post-mortem analysis: phase decomposition,
//! Pegasus-style jobstate logs, per-node Gantt charts and utilization
//! summaries over a completed run.

use crate::run::RunStats;
use std::fmt::Write as _;
use std::ops::{Index, IndexMut};
use wfdag::Workflow;
use wfobs::{AttemptFold, ObsReport, Outcome, Phase, Step};

/// Slot-seconds spent in each phase of the task lifecycle, summed over
/// all tasks — where the cluster's time actually went. Indexed by
/// `Option<Phase>` like [`TaskRecord::secs`](crate::TaskRecord::secs):
/// `None` is the dispatch overhead (DAGMan/Condor) before the first phase.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// The sums in lifecycle order: dispatch overhead, then each phase.
    pub secs: [f64; 7],
}

impl PhaseBreakdown {
    /// Every index in lifecycle order: dispatch overhead, then each phase.
    pub fn slots() -> impl Iterator<Item = Option<Phase>> {
        std::iter::once(None).chain(Phase::ALL.map(Some))
    }

    /// Total slot-seconds.
    pub fn total(&self) -> f64 {
        self.secs.iter().sum()
    }
}

/// Where `phase` sits in [`PhaseBreakdown::secs`].
fn slot(phase: Option<Phase>) -> usize {
    phase.map_or(0, |p| p as usize + 1)
}

impl Index<Option<Phase>> for PhaseBreakdown {
    type Output = f64;
    fn index(&self, phase: Option<Phase>) -> &f64 {
        &self.secs[slot(phase)]
    }
}

impl IndexMut<Option<Phase>> for PhaseBreakdown {
    fn index_mut(&mut self, phase: Option<Phase>) -> &mut f64 {
        &mut self.secs[slot(phase)]
    }
}

/// Decompose a run into phase totals. The records hold each task's
/// last execution only, so a task the rescue pass re-ran counts once.
pub fn phase_breakdown(stats: &RunStats) -> PhaseBreakdown {
    let mut p = PhaseBreakdown::default();
    for r in &stats.records {
        for phase in PhaseBreakdown::slots() {
            p[phase] += r.secs(phase);
        }
    }
    p
}

/// Render a phase breakdown as an ASCII table with bars.
pub fn render_phases(p: &PhaseBreakdown) -> String {
    let mut s = String::new();
    let total = p.total().max(1e-12);
    let _ = writeln!(s, "PHASE BREAKDOWN — slot-seconds by lifecycle phase");
    for phase in PhaseBreakdown::slots() {
        let name = match phase {
            None => "dispatch overhead",
            Some(Phase::Ops) => "op storms (NFS)",
            Some(Phase::Read) => "reads",
            Some(Phase::Write) => "writes",
            Some(other) => other.label(),
        };
        let v = p[phase];
        let pct = v / total * 100.0;
        let bar = "#".repeat((pct / 2.5).round() as usize);
        let _ = writeln!(s, "  {name:<18} {v:>10.1}s {pct:>5.1}% |{bar}");
    }
    s
}

/// Emit a Pegasus-jobstate.log-style trace: one line per lifecycle event,
/// sorted by time. Useful for feeding external workflow analysis tools.
pub fn jobstate_log(stats: &RunStats, wf: &Workflow) -> String {
    let mut events: Vec<(u64, String)> = Vec::with_capacity(stats.records.len() * 3);
    for r in stats.records.iter() {
        // Key by the record's own task id — records need not be aligned
        // with `wf.tasks()` (filtered or re-ordered record sets are fine).
        let name = &wf.task(r.task).name;
        let node = r.node.0;
        events.push((
            r.start_at.as_nanos(),
            format!("{:.3} {name} SUBMIT node_{node}", r.start_at.as_secs_f64()),
        ));
        let execute = r.start_of(Phase::Compute);
        events.push((
            execute.as_nanos(),
            format!("{:.3} {name} EXECUTE node_{node}", execute.as_secs_f64()),
        ));
        events.push((
            r.end_at.as_nanos(),
            format!(
                "{:.3} {name} JOB_TERMINATED node_{node} attempts={}",
                r.end_at.as_secs_f64(),
                r.attempts
            ),
        ));
    }
    events.sort();
    let mut s = String::with_capacity(events.len() * 48);
    for (_, line) in events {
        s.push_str(&line);
        s.push('\n');
    }
    s
}

/// A per-node occupancy Gantt chart: each node row shows how many slots
/// were busy over time (digits 0–9, `*` for ≥10), over `width` buckets.
/// A bucket's value is its busy slot-seconds over the bucket's width,
/// rounded, so it never exceeds the node's slot count.
pub fn render_gantt(stats: &RunStats, workers: u32, width: usize) -> String {
    let mut s = String::new();
    if width == 0 || workers == 0 {
        let _ = writeln!(s, "NODE OCCUPANCY — nothing to draw (0 buckets or 0 nodes)");
        return s;
    }
    let span = stats.makespan_secs.max(1e-9);
    let _ = writeln!(
        s,
        "NODE OCCUPANCY — busy slots over time ({width} buckets of {:.1}s)",
        span / width as f64
    );
    for w in 0..workers {
        let mut busy = vec![0.0f64; width];
        for r in stats.records.iter().filter(|r| r.node.0 == w) {
            // The slot interval in bucket units; each bucket it touches
            // gains its overlap. Buckets past the makespan are clamped off.
            let a = r.start_at.as_secs_f64() / span * width as f64;
            let b = r.end_at.as_secs_f64() / span * width as f64;
            let touched = (b.ceil() as usize).min(width);
            for (i, bucket) in busy.iter_mut().enumerate().take(touched).skip(a as usize) {
                *bucket += b.min(i as f64 + 1.0) - a.max(i as f64);
            }
        }
        let row: String = busy
            .iter()
            .map(|&x| match x.round() as u32 {
                0 => '.',
                n @ 1..=9 => char::from_digit(n, 10).unwrap(),
                _ => '*',
            })
            .collect();
        let _ = writeln!(s, "  node_{w:<3} |{row}|");
    }
    s
}

// ---------------------------------------------------------------------
// Bus consumer: the phase breakdown rebuilt from the wfobs event stream
// alone (no `TaskRecord` access). Running a workflow at `ObsLevel::Full`
// yields the report it consumes. `expt/tests/obs_phase_parity.rs` holds
// it to the record-derived totals to 1e-6 wherever no finished task is
// re-run, and shows it larger where the rescue pass re-ran one.
// ---------------------------------------------------------------------

/// Rebuild the phase breakdown from the observability event stream.
///
/// Every execution that ends `ok` counts; killed, failed and unfinished
/// ones are discarded. This matches [`phase_breakdown`] unless the rescue
/// pass re-ran a task that had already finished: the bus then counts both
/// `ok` executions, while the records keep only the last one.
pub fn phase_breakdown_from_bus(report: &ObsReport) -> PhaseBreakdown {
    let mut fold = AttemptFold::default();
    // Per-attempt sums by task id, added to the totals at an `ok` close.
    let mut acc: Vec<PhaseBreakdown> = Vec::new();
    let mut totals = PhaseBreakdown::default();
    for &(t, ev) in &report.events {
        fold.push(t, &ev, |step| match step {
            Step::Start(att) => {
                let ix = att.task as usize;
                if acc.len() <= ix {
                    acc.resize(ix + 1, PhaseBreakdown::default());
                }
                acc[ix] = PhaseBreakdown::default();
            }
            Step::Interval {
                att,
                phase,
                start,
                end,
                ..
            } => acc[att.task as usize][phase] += (end - start) as f64 / 1e9,
            Step::Close {
                att,
                outcome: Outcome::Ok,
                ..
            } => {
                for (t, a) in totals.secs.iter_mut().zip(acc[att.task as usize].secs) {
                    *t += a;
                }
            }
            Step::Close { .. } => {}
        });
    }
    totals
}

// ---------------------------------------------------------------------
// OTLP labels: the run metadata the exporter joins onto the event stream.
// `expt/tests/otlp_parity.rs` rebuilds the phase breakdown and the bill
// from the decoded export alone and holds both to 1e-6 of the bus/record
// paths — the proof that the exported trace carries the whole story.
// ---------------------------------------------------------------------

/// Build the label set the OTLP exporter joins onto the event stream of
/// a finished run: task names from the workflow, the storage/cluster
/// resource attributes, and one billing record per instance incarnation
/// (from `stats.faults.segments`, which is ordered per node exactly like
/// the `SegmentOpen` stream).
pub fn otlp_labels(
    stats: &RunStats,
    wf: &Workflow,
    storage_label: &str,
    workers: u32,
) -> wfobs::OtlpLabels {
    wfobs::OtlpLabels {
        service_name: "wfsim".to_string(),
        run_name: wf.name.clone(),
        storage: storage_label.to_string(),
        workers,
        task_names: wf.tasks().iter().map(|t| t.name.clone()).collect(),
        node_names: Vec::new(),
        segments: stats
            .faults
            .segments
            .iter()
            .map(|s| wfobs::SegmentLabel {
                node: s.node,
                itype: s.itype.api_name().to_string(),
                spot: s.spot,
                secs: s.secs,
            })
            .collect(),
    }
}

/// The busiest resources of a run, by mean utilization — the first place
/// to look when asking "what limited this configuration?".
pub fn hottest_resources(stats: &RunStats, top: usize) -> String {
    let mut rows: Vec<_> = stats.resources.iter().collect();
    rows.sort_by(|a, b| b.mean_utilization.total_cmp(&a.mean_utilization));
    let mut s = String::new();
    let _ = writeln!(s, "HOTTEST RESOURCES — mean utilization over the makespan");
    for r in rows.into_iter().take(top) {
        let bar = "#".repeat((r.mean_utilization * 40.0).round() as usize);
        let _ = writeln!(
            s,
            "  {:<14} {:>5.1}% busy {:>8.1}s |{bar}",
            r.name,
            r.mean_utilization * 100.0,
            r.busy_secs
        );
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_workflow, RunConfig};
    use wfdag::WorkflowBuilder;
    use wfstorage::StorageKind;

    fn run() -> (RunStats, Workflow) {
        let mut b = WorkflowBuilder::new("trace");
        let f1 = b.file("a", 50_000_000);
        let f2 = b.file("b", 20_000_000);
        b.task("t0", "gen", 3.0, 256 << 20, vec![], vec![f1]);
        b.task("t1", "use", 5.0, 256 << 20, vec![f1], vec![f2]);
        let wf = b.build().unwrap();
        let stats = run_workflow(wf.clone(), RunConfig::cell(StorageKind::S3, 2)).unwrap();
        (stats, wf)
    }

    #[test]
    fn phases_partition_the_slot_time() {
        let (stats, _) = run();
        let p = phase_breakdown(&stats);
        let slot_time: f64 = stats
            .records
            .iter()
            .map(|r| r.end_at.since(r.start_at).as_secs_f64())
            .sum();
        assert!(
            (p.total() - slot_time).abs() < 1e-6,
            "{} vs {slot_time}",
            p.total()
        );
        assert!(p[Some(Phase::Compute)] >= 8.0 - 1e-6);
        assert!(p[Some(Phase::StageIn)] > 0.0, "S3 runs must stage in");
    }

    #[test]
    fn jobstate_log_is_ordered_and_complete() {
        let (stats, wf) = run();
        let log = jobstate_log(&stats, &wf);
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 2 * 3);
        assert!(lines[0].contains("SUBMIT"));
        assert!(lines.last().unwrap().contains("JOB_TERMINATED"));
        let times: Vec<f64> = lines
            .iter()
            .map(|l| l.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn gantt_renders_one_row_per_node() {
        let (stats, _) = run();
        let g = render_gantt(&stats, 2, 40);
        assert_eq!(g.lines().count(), 3, "{g}");
        assert!(g.contains("node_0"));
        assert!(g.contains('1'), "some bucket must show one busy slot: {g}");
    }

    #[test]
    fn hottest_resources_lists_top() {
        let (stats, _) = run();
        let h = hottest_resources(&stats, 3);
        assert_eq!(h.lines().count(), 4);
    }

    #[test]
    fn render_phases_shows_percentages() {
        let (stats, _) = run();
        let out = render_phases(&phase_breakdown(&stats));
        assert!(out.contains("compute"));
        assert!(out.contains('%'));
    }
}
