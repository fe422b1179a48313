//! Workflow analysis: aggregate statistics and critical-path bounds.

use crate::ids::TaskId;
use crate::model::{FileClass, Workflow};
use serde::Serialize;

/// Aggregate statistics of a workflow, in the units the paper reports
/// (§II: task counts, input/output volume, file counts).
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WorkflowStats {
    /// Number of tasks.
    pub tasks: usize,
    /// Number of distinct files.
    pub files: usize,
    /// Bytes of workflow input (files with no producer).
    pub input_bytes: u64,
    /// Bytes of final output (files never consumed).
    pub output_bytes: u64,
    /// Bytes of intermediate (temporary) data.
    pub intermediate_bytes: u64,
    /// Total bytes read across all tasks (reuse counted every time).
    pub bytes_read: u64,
    /// Total bytes written across all tasks.
    pub bytes_written: u64,
    /// Total file accesses (each input or output reference counts once).
    pub file_accesses: usize,
    /// Sum of task compute demand, in reference-core seconds.
    pub total_cpu_secs: f64,
    /// Number of DAG levels.
    pub levels: u32,
    /// Largest number of tasks on one level (a parallelism upper bound).
    pub max_level_width: usize,
}

/// Compute [`WorkflowStats`].
pub fn stats(w: &Workflow) -> WorkflowStats {
    let mut s = WorkflowStats {
        tasks: w.task_count(),
        files: w.file_count(),
        input_bytes: 0,
        output_bytes: 0,
        intermediate_bytes: 0,
        bytes_read: 0,
        bytes_written: 0,
        file_accesses: 0,
        total_cpu_secs: 0.0,
        levels: 0,
        max_level_width: 0,
    };
    for f in w.files() {
        match f.class {
            FileClass::Input => s.input_bytes += f.size,
            FileClass::Output => s.output_bytes += f.size,
            FileClass::Intermediate => s.intermediate_bytes += f.size,
        }
    }
    for t in w.tasks() {
        s.bytes_read += t.input_bytes(w.files());
        s.bytes_written += t.output_bytes(w.files());
        s.file_accesses += t.inputs.len() + t.outputs.len();
        s.total_cpu_secs += t.cpu_secs;
    }
    let hist = level_histogram(w);
    s.levels = hist.len() as u32;
    s.max_level_width = hist.iter().copied().max().unwrap_or(0);
    s
}

/// Tasks per DAG level.
pub fn level_histogram(w: &Workflow) -> Vec<usize> {
    let mut hist = Vec::new();
    for t in w.tasks() {
        let l = t.level as usize;
        if hist.len() <= l {
            hist.resize(l + 1, 0);
        }
        hist[l] += 1;
    }
    hist
}

/// Length of the compute-only critical path in reference-core seconds: a
/// lower bound on makespan with unlimited resources and free I/O.
pub fn critical_path_secs(w: &Workflow) -> f64 {
    let n = w.task_count();
    let mut finish = vec![0.0f64; n];
    for &tid in w.topo_order() {
        let t = w.task(tid);
        let start = t
            .inputs
            .iter()
            .filter_map(|f| w.file(*f).producer)
            .map(|p: TaskId| finish[p.index()])
            .fold(0.0f64, f64::max);
        finish[tid.index()] = start + t.cpu_secs;
    }
    finish.iter().copied().fold(0.0, f64::max)
}

/// Sum of compute demand divided by the critical path: the maximum useful
/// core count (average parallelism).
pub fn average_parallelism(w: &Workflow) -> f64 {
    let cp = critical_path_secs(w);
    if cp <= 0.0 {
        return 0.0;
    }
    stats(w).total_cpu_secs / cp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::WorkflowBuilder;

    fn chain_of(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("chain");
        let mut prev = None;
        for i in 0..n {
            let out = b.file(format!("f{i}"), 10);
            let inputs = prev.map(|p| vec![p]).unwrap_or_default();
            b.task(format!("t{i}"), "step", 2.0, 0, inputs, vec![out]);
            prev = Some(out);
        }
        b.build().unwrap()
    }

    fn fan(width: usize) -> Workflow {
        let mut b = WorkflowBuilder::new("fan");
        let seed = b.file("seed", 100);
        b.task("src", "gen", 1.0, 0, vec![], vec![seed]);
        for i in 0..width {
            let out = b.file(format!("o{i}"), 10);
            b.task(format!("w{i}"), "work", 3.0, 0, vec![seed], vec![out]);
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_critical_path_is_sum() {
        let w = chain_of(5);
        assert!((critical_path_secs(&w) - 10.0).abs() < 1e-9);
        assert!((average_parallelism(&w) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn fan_critical_path_is_two_stages() {
        let w = fan(10);
        assert!((critical_path_secs(&w) - 4.0).abs() < 1e-9);
        let ap = average_parallelism(&w);
        assert!((ap - 31.0 / 4.0).abs() < 1e-9, "{ap}");
    }

    #[test]
    fn stats_classify_bytes() {
        let w = fan(4);
        let s = stats(&w);
        assert_eq!(s.tasks, 5);
        assert_eq!(s.input_bytes, 0);
        assert_eq!(s.intermediate_bytes, 100);
        assert_eq!(s.output_bytes, 40);
        // seed read 4 times.
        assert_eq!(s.bytes_read, 400);
        assert_eq!(s.bytes_written, 140);
        assert_eq!(s.levels, 2);
        assert_eq!(s.max_level_width, 4);
    }

    #[test]
    fn level_histogram_of_chain() {
        let w = chain_of(3);
        assert_eq!(level_histogram(&w), vec![1, 1, 1]);
    }

    #[test]
    fn file_access_count() {
        let w = fan(4);
        // src: 0 in + 1 out; workers: 1 in + 1 out each.
        assert_eq!(stats(&w).file_accesses, 1 + 4 * 2);
    }
}
