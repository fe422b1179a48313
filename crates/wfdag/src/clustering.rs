//! Horizontal task clustering, Pegasus-style.
//!
//! The standard mitigation for workflows with huge numbers of short tasks
//! (like Montage's 6,171 mDiffFit jobs) is to bundle same-level tasks of
//! the same transformation into *clustered jobs*: one scheduler dispatch,
//! one stage-in, shared inputs fetched once. Pegasus calls this
//! horizontal clustering; it directly attacks the per-job overheads that
//! §V shows dominating S3 and NFS for Montage.
//!
//! Clustering is safe for same-level tasks because a data dependency
//! always increases the level, so no two tasks on one level depend on
//! each other.

use crate::builder::WorkflowBuilder;
use crate::ids::{FileId, TaskId};
use crate::model::Workflow;
use std::collections::BTreeMap;

/// Bundle same-(level, transformation) tasks into clusters of at most
/// `max_cluster_size` tasks. Returns a new, revalidated workflow.
///
/// The clustered job's compute demand is the sum of its members', its
/// peak memory the members' maximum (members run sequentially inside the
/// cluster), its operation count the sum, and its input set the union —
/// with duplicates removed, which is one of clustering's real wins.
pub fn cluster_horizontal(wf: &Workflow, max_cluster_size: u32) -> Workflow {
    assert!(max_cluster_size >= 1, "cluster size must be at least 1");
    if max_cluster_size == 1 {
        return wf.clone();
    }

    // Group task ids by (level, transformation), deterministically.
    let mut groups: BTreeMap<(u32, String), Vec<TaskId>> = BTreeMap::new();
    for (i, t) in wf.tasks().iter().enumerate() {
        groups
            .entry((t.level, t.transformation.clone()))
            .or_default()
            .push(TaskId(i as u32));
    }

    let mut b = WorkflowBuilder::new(format!("{}-clustered{}", wf.name, max_cluster_size));
    // Files carry over 1:1 (ids are preserved because insertion order is
    // preserved).
    for f in wf.files() {
        b.file(f.name.clone(), f.size);
    }

    for ((level, transformation), members) in groups {
        for (ci, chunk) in members.chunks(max_cluster_size as usize).enumerate() {
            let mut inputs: Vec<FileId> = Vec::new();
            let mut outputs: Vec<FileId> = Vec::new();
            let mut cpu = 0.0;
            let mut mem = 0u64;
            let mut ops = 0u32;
            for &tid in chunk {
                let t = wf.task(tid);
                inputs.extend(&t.inputs);
                outputs.extend(&t.outputs);
                cpu += t.cpu_secs;
                mem = mem.max(t.peak_mem);
                ops = ops.saturating_add(t.io_ops);
            }
            inputs.sort_unstable();
            inputs.dedup();
            outputs.sort_unstable();
            outputs.dedup();
            let name = if chunk.len() == 1 {
                wf.task(chunk[0]).name.clone()
            } else {
                format!("cluster_{transformation}_l{level}_{ci}")
            };
            let tid = b.task(name, transformation.clone(), cpu, mem, inputs, outputs);
            b.set_io_ops(tid, ops);
        }
    }

    b.build().expect("clustering preserves acyclicity")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    fn fan(width: u32) -> Workflow {
        let mut b = WorkflowBuilder::new("fan");
        let seed = b.file("seed", 1_000_000);
        b.task("src", "gen", 1.0, 64 << 20, vec![], vec![seed]);
        let mut outs = Vec::new();
        for i in 0..width {
            let o = b.file(format!("o{i}"), 1000);
            b.task(format!("w{i}"), "work", 2.0, 128 << 20, vec![seed], vec![o]);
            outs.push(o);
        }
        let fin = b.file("final", 500);
        b.task("join", "join", 1.0, 64 << 20, outs, vec![fin]);
        b.build().unwrap()
    }

    #[test]
    fn clusters_same_level_same_transformation() {
        let wf = fan(16);
        let c = cluster_horizontal(&wf, 4);
        // 16 workers -> 4 clusters; src and join untouched.
        assert_eq!((wf.task_count(), c.task_count()), (18, 1 + 4 + 1));
    }

    #[test]
    fn cluster_aggregates_demands() {
        let wf = fan(8);
        let c = cluster_horizontal(&wf, 8);
        let cluster = c
            .tasks()
            .iter()
            .find(|t| t.name.starts_with("cluster_work"))
            .expect("one big cluster");
        assert!((cluster.cpu_secs - 16.0).abs() < 1e-9, "summed cpu");
        assert_eq!(cluster.peak_mem, 128 << 20, "max memory");
        // The shared seed input is deduplicated to one read.
        assert_eq!(cluster.inputs.len(), 1);
        assert_eq!(cluster.outputs.len(), 8);
    }

    #[test]
    fn clustering_preserves_totals_and_dependencies() {
        let wf = fan(12);
        let c = cluster_horizontal(&wf, 5);
        let (s0, s1) = (analysis::stats(&wf), analysis::stats(&c));
        assert!((s0.total_cpu_secs - s1.total_cpu_secs).abs() < 1e-9);
        assert_eq!(s0.files, s1.files);
        assert_eq!(s0.output_bytes, s1.output_bytes);
        // The join must still depend on every cluster.
        let join = c.tasks().iter().position(|t| t.name == "join").unwrap();
        assert_eq!(
            c.parent_count(crate::ids::TaskId(join as u32)),
            3,
            "12/5 -> 3 clusters"
        );
        // Level structure is intact (3 levels).
        assert_eq!(analysis::level_histogram(&c).len(), 3);
    }

    #[test]
    fn cluster_size_one_is_identity() {
        let wf = fan(4);
        let c = cluster_horizontal(&wf, 1);
        assert_eq!(c.task_count(), wf.task_count());
    }

    #[test]
    fn oversized_cluster_size_is_fine() {
        let wf = fan(4);
        let c = cluster_horizontal(&wf, 1000);
        assert_eq!(c.task_count(), 3, "src + one cluster + join");
    }
}
