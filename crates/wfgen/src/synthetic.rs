//! A parameterised synthetic-workflow generator for downstream studies.
//!
//! The paper's three applications cover three corners of the resource
//! space (Table I). This module lets a user place a workload *anywhere*
//! in that space — choose a DAG shape and per-task CPU/I-O/memory
//! profile — and sweep the storage options over it, the way
//! `examples/storage_shootout.rs` does with hand-rolled DAGs.

use crate::jitter::Jitter;
use serde::Serialize;
use wfdag::{FileId, Workflow, WorkflowBuilder};

/// The macro-structure of the generated DAG.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Shape {
    /// `width` independent pipelines of `depth` tasks (Broadband-like).
    Pipelines,
    /// Fan-out from one source to `width` tasks per level, refanned each
    /// level through a shared file (Montage-like data sharing).
    FanOutFanIn,
    /// Each level-`k` task reads `fanin` random outputs of level `k-1`
    /// (a messy, general DAG).
    RandomLayered {
        /// Inputs drawn per task from the previous level.
        fanin: u8,
    },
}

/// Parameters of a synthetic workflow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct SyntheticConfig {
    /// DAG macro-structure.
    pub shape: Shape,
    /// Parallel width (pipelines, or tasks per level).
    pub width: u32,
    /// Levels (pipeline length).
    pub depth: u32,
    /// Mean task compute demand, reference-core seconds.
    pub cpu_secs: f64,
    /// Mean file size, bytes.
    pub file_bytes: u64,
    /// Peak task memory, bytes.
    pub peak_mem: u64,
    /// POSIX operations per task (drives NFS server load).
    pub io_ops: u32,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            shape: Shape::Pipelines,
            width: 16,
            depth: 4,
            cpu_secs: 10.0,
            file_bytes: 10_000_000,
            peak_mem: 512 << 20,
            io_ops: 40,
            seed: 42,
        }
    }
}

impl SyntheticConfig {
    /// Number of tasks this configuration generates.
    pub fn task_count(&self) -> u32 {
        match self.shape {
            Shape::Pipelines | Shape::RandomLayered { .. } => self.width * self.depth,
            Shape::FanOutFanIn => self.width * self.depth + self.depth + 1, // collectors between levels + the seed task
        }
    }
}

/// Generate a synthetic workflow.
pub fn synthetic(cfg: SyntheticConfig) -> Workflow {
    assert!(
        cfg.width >= 1 && cfg.depth >= 1,
        "width and depth must be positive"
    );
    let mut b = WorkflowBuilder::new(format!(
        "synthetic-{:?}-{}x{}",
        cfg.shape, cfg.width, cfg.depth
    ));
    let mut jit = Jitter::new(cfg.seed, "synthetic");
    let mut uid = 11u32;
    let task = |b: &mut WorkflowBuilder,
                name: String,
                ins: Vec<FileId>,
                outs: Vec<FileId>,
                jit: &mut Jitter| {
        let tid = b.task(
            name,
            "synthetic",
            jit.secs(cfg.cpu_secs, 0.2),
            cfg.peak_mem,
            ins,
            outs,
        );
        b.set_io_ops(tid, cfg.io_ops);
    };

    match cfg.shape {
        Shape::Pipelines => {
            for p in 0..cfg.width {
                let mut prev: Option<FileId> = None;
                for l in 0..cfg.depth {
                    let out = b.file(format!("p{p}_f{l}"), jit.size(cfg.file_bytes, 0.15));
                    let ins = prev.map(|f| vec![f]).unwrap_or_default();
                    task(&mut b, format!("p{p}_t{l}"), ins, vec![out], &mut jit);
                    prev = Some(out);
                }
            }
        }
        Shape::FanOutFanIn => {
            let mut shared = b.file("seed", jit.size(cfg.file_bytes * 4, 0.1));
            task(&mut b, "collect_0".into(), vec![], vec![shared], &mut jit);
            for l in 0..cfg.depth {
                let mut outs = Vec::new();
                for w in 0..cfg.width {
                    let out = b.file(format!("l{l}_f{w}"), jit.size(cfg.file_bytes, 0.15));
                    task(
                        &mut b,
                        format!("l{l}_t{w}"),
                        vec![shared],
                        vec![out],
                        &mut jit,
                    );
                    outs.push(out);
                }
                let next = b.file(format!("merge_{l}"), jit.size(cfg.file_bytes * 4, 0.1));
                task(
                    &mut b,
                    format!("collect_{}", l + 1),
                    outs,
                    vec![next],
                    &mut jit,
                );
                shared = next;
            }
        }
        Shape::RandomLayered { fanin } => {
            let mut prev: Vec<FileId> = Vec::new();
            for l in 0..cfg.depth {
                let mut outs = Vec::new();
                for w in 0..cfg.width {
                    let out = b.file(format!("l{l}_f{w}"), jit.size(cfg.file_bytes, 0.15));
                    let mut ins: Vec<FileId> = (0..fanin)
                        .filter_map(|_| {
                            if prev.is_empty() {
                                None
                            } else {
                                uid = uid.wrapping_mul(1664525).wrapping_add(1013904223);
                                Some(prev[(uid as usize) % prev.len()])
                            }
                        })
                        .collect();
                    ins.sort_unstable();
                    ins.dedup();
                    task(&mut b, format!("l{l}_t{w}"), ins, vec![out], &mut jit);
                    outs.push(out);
                }
                prev = outs;
            }
        }
    }

    let wf = b.build().expect("synthetic shapes are acyclic");
    debug_assert_eq!(wf.task_count() as u32, cfg.task_count());
    wf
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdag::analysis;

    #[test]
    fn pipelines_have_no_cross_talk() {
        let wf = synthetic(SyntheticConfig {
            shape: Shape::Pipelines,
            width: 5,
            depth: 3,
            ..SyntheticConfig::default()
        });
        assert_eq!(wf.task_count(), 15);
        assert_eq!(analysis::level_histogram(&wf), vec![5, 5, 5]);
        // Each root starts its own pipeline.
        assert_eq!(wf.roots().len(), 5);
    }

    #[test]
    fn fan_out_fan_in_serialises_levels() {
        let cfg = SyntheticConfig {
            shape: Shape::FanOutFanIn,
            width: 6,
            depth: 2,
            ..SyntheticConfig::default()
        };
        let wf = synthetic(cfg);
        assert_eq!(wf.task_count() as u32, cfg.task_count());
        // collect_0 -> 6 workers -> collect_1 -> 6 workers -> collect_2.
        assert_eq!(analysis::level_histogram(&wf), vec![1, 6, 1, 6, 1]);
        assert_eq!(wf.roots().len(), 1);
    }

    #[test]
    fn random_layered_is_valid_and_connected_forward() {
        let wf = synthetic(SyntheticConfig {
            shape: Shape::RandomLayered { fanin: 2 },
            width: 8,
            depth: 4,
            ..SyntheticConfig::default()
        });
        assert_eq!(wf.task_count(), 32);
        // Levels monotonically ordered along edges (validated by build,
        // asserted again here for the generator).
        for &t in wf.topo_order() {
            for f in &wf.task(t).inputs {
                if let Some(p) = wf.file(*f).producer {
                    assert!(wf.task(p).level < wf.task(t).level);
                }
            }
        }
    }

    #[test]
    fn generator_is_deterministic() {
        let cfg = SyntheticConfig::default();
        let (a, b) = (synthetic(cfg), synthetic(cfg));
        for (x, y) in a.files().iter().zip(b.files()) {
            assert_eq!(x.size, y.size);
        }
    }

    #[test]
    fn profiles_respond_to_parameters() {
        use crate::profiler::{classify, profile, Grade};
        // Crank I/O: big files, small CPU → I/O-heavy grade.
        let io_heavy = synthetic(SyntheticConfig {
            cpu_secs: 0.5,
            file_bytes: 200_000_000,
            ..SyntheticConfig::default()
        });
        assert_eq!(classify(&profile(&io_heavy)).io, Grade::High);
        // Crank CPU: hours of compute on tiny files → CPU-heavy grade.
        let cpu_heavy = synthetic(SyntheticConfig {
            cpu_secs: 300.0,
            file_bytes: 100_000,
            ..SyntheticConfig::default()
        });
        assert_eq!(classify(&profile(&cpu_heavy)).cpu, Grade::High);
    }

    #[test]
    fn synthetic_runs_end_to_end() {
        // Quick sanity: the generated DAGs execute through the engine.
        // (Full storage sweeps live in examples/storage_shootout.rs.)
        let wf = synthetic(SyntheticConfig {
            width: 4,
            depth: 2,
            ..SyntheticConfig::default()
        });
        assert!(wf.task_count() > 0);
        assert!(analysis::critical_path_secs(&wf) > 0.0);
    }
}
