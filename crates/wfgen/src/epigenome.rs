//! The Epigenome bioinformatics workflow (§II).
//!
//! Epigenome maps short DNA reads against a reference genome with MAQ:
//! split lane files into chunks, filter/reformat/convert each chunk, map
//! each chunk, merge the maps, and compute sequence densities. The paper's
//! chromosome-21 instance: **529 tasks, 1.9 GB input, 300 MB output**,
//! CPU-bound (99 % of runtime in the CPU).
//!
//! Task budget at paper scale: 7 fastqSplit + 4 × 128 per-chunk stages
//! (filterContams, sol2sanger, fastq2bfq, map) + 8 mapMerge + 1 mapIndex
//! + 1 density = **529**.

use crate::jitter::Jitter;
use serde::Serialize;
use wfdag::{FileId, Workflow, WorkflowBuilder};

/// Megabyte, decimal.
pub const MB: u64 = 1_000_000;

/// Shape parameters of an Epigenome instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct EpigenomeConfig {
    /// Sequencing lane files.
    pub lanes: u32,
    /// Chunks the lanes are split into (must be ≥ lanes).
    pub chunks: u32,
    /// First-level merge fan-in groups.
    pub merges: u32,
    /// Experiment seed for jitter.
    pub seed: u64,
}

impl EpigenomeConfig {
    /// The paper's chr21 instance: 529 tasks.
    pub fn paper() -> Self {
        EpigenomeConfig {
            lanes: 7,
            chunks: 128,
            merges: 8,
            seed: 42,
        }
    }

    /// A small instance for tests.
    pub fn tiny() -> Self {
        EpigenomeConfig {
            lanes: 2,
            chunks: 8,
            merges: 2,
            seed: 42,
        }
    }

    /// Total task count this config will generate.
    pub fn task_count(&self) -> u32 {
        self.lanes + 4 * self.chunks + self.merges + 2
    }
}

/// Generate an Epigenome workflow.
pub fn epigenome(cfg: EpigenomeConfig) -> Workflow {
    assert!(cfg.lanes >= 1 && cfg.chunks >= cfg.lanes && cfg.merges >= 1);
    let mut b = WorkflowBuilder::new(format!("epigenome-{}ch", cfg.chunks));
    let mut jit = Jitter::new(cfg.seed, "epigenome");

    // Inputs: lane files (~1.885 GB total at paper scale) + the binary
    // chromosome-21 reference (~15 MB), totalling the paper's 1.9 GB.
    let lane_bytes = (1885.0 * MB as f64 / f64::from(cfg.lanes)) as u64;
    let lanes: Vec<FileId> = (0..cfg.lanes)
        .map(|l| b.file(format!("lane_{l}.fastq"), jit.size(lane_bytes, 0.05)))
        .collect();
    let reference = b.file("chr21.bfa", jit.size(15 * MB, 0.02));

    // fastqSplit: lane -> chunks (chunks distributed as evenly as
    // possible across lanes).
    let chunk_bytes = (1885.0 * MB as f64 / f64::from(cfg.chunks)) as u64;
    let mut chunks: Vec<FileId> = Vec::with_capacity(cfg.chunks as usize);
    for l in 0..cfg.lanes {
        let share = (cfg.chunks / cfg.lanes + u32::from(l < cfg.chunks % cfg.lanes)) as usize;
        let outs: Vec<FileId> = (0..share)
            .map(|k| {
                b.file(
                    format!("chunk_{l}_{k:03}.fastq"),
                    jit.size(chunk_bytes, 0.08),
                )
            })
            .collect();
        b.task(
            format!("fastqSplit_{l}"),
            "fastqSplit",
            jit.secs(8.0, 0.15),
            512 << 20,
            vec![lanes[l as usize]],
            outs.clone(),
        );
        chunks.extend(outs);
    }
    debug_assert_eq!(chunks.len() as u32, cfg.chunks);

    // Per-chunk pipeline: filterContams -> sol2sanger -> fastq2bfq -> map.
    let mut maps = Vec::with_capacity(cfg.chunks as usize);
    for (c, &chunk) in chunks.iter().enumerate() {
        let filtered = b.file(
            format!("filt_{c:03}.fastq"),
            jit.size(chunk_bytes * 95 / 100, 0.08),
        );
        b.task(
            format!("filterContams_{c:03}"),
            "filterContams",
            jit.secs(4.0, 0.2),
            300 << 20,
            vec![chunk],
            vec![filtered],
        );
        let sanger = b.file(
            format!("sanger_{c:03}.fastq"),
            jit.size(chunk_bytes * 95 / 100, 0.08),
        );
        b.task(
            format!("sol2sanger_{c:03}"),
            "sol2sanger",
            jit.secs(2.5, 0.2),
            300 << 20,
            vec![filtered],
            vec![sanger],
        );
        let bfq = b.file(
            format!("bfq_{c:03}.bfq"),
            jit.size(chunk_bytes * 45 / 100, 0.08),
        );
        b.task(
            format!("fastq2bfq_{c:03}"),
            "fastq2bfq",
            jit.secs(2.0, 0.2),
            300 << 20,
            vec![sanger],
            vec![bfq],
        );
        // MAQ map: the CPU furnace (99 % of runtime is CPU, §II).
        let map = b.file(format!("map_{c:03}.map"), jit.size(2_300_000, 0.15));
        let t = b.task(
            format!("map_{c:03}"),
            "maq_map",
            jit.secs(112.0, 0.15),
            800 << 20,
            vec![bfq, reference],
            vec![map],
        );
        b.set_io_ops(t, 250);
        maps.push(map);
    }

    // mapMerge tree: chunks -> merge groups -> one map.
    let mut merged = Vec::with_capacity(cfg.merges as usize);
    let group = (cfg.chunks as usize).div_ceil(cfg.merges as usize);
    for m in 0..cfg.merges {
        let lo = (m as usize * group).min(maps.len());
        let hi = ((m as usize + 1) * group).min(maps.len());
        let mut ins: Vec<FileId> = maps[lo..hi].to_vec();
        if ins.is_empty() {
            ins.push(maps[maps.len() - 1]);
        }
        let out = b.file(format!("merged_{m}.map"), jit.size(34 * MB, 0.1));
        b.task(
            format!("mapMerge_{m}"),
            "mapMerge",
            jit.secs(12.0, 0.15),
            600 << 20,
            ins,
            vec![out],
        );
        merged.push(out);
    }

    // Final merge + index.
    let final_map = b.file("chr21.final.map", jit.size(270 * MB, 0.05));
    b.task(
        "mapIndex",
        "mapIndex",
        jit.secs(40.0, 0.1),
        900 << 20,
        merged,
        vec![final_map],
    );

    // Sequence density per genome location.
    let density = b.file("chr21.density", jit.size(28 * MB, 0.1));
    b.task(
        "density",
        "mapDensity",
        jit.secs(30.0, 0.1),
        700 << 20,
        vec![final_map],
        vec![density],
    );

    let wf = b.build().expect("epigenome generator produces a valid DAG");
    debug_assert_eq!(wf.task_count() as u32, cfg.task_count());
    wf
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdag::analysis;

    #[test]
    fn paper_scale_has_529_tasks() {
        assert_eq!(EpigenomeConfig::paper().task_count(), 529);
        let wf = epigenome(EpigenomeConfig::paper());
        assert_eq!(wf.task_count(), 529);
    }

    #[test]
    fn paper_byte_totals_match_section_ii() {
        let wf = epigenome(EpigenomeConfig::paper());
        let s = analysis::stats(&wf);
        let input_gb = s.input_bytes as f64 / 1e9;
        assert!((1.8..=2.0).contains(&input_gb), "input {input_gb} GB");
        // The paper's 300 MB of output are the archived products: the
        // final merged map plus the density track.
        let products: u64 = wf
            .tasks()
            .iter()
            .filter(|t| matches!(t.transformation.as_str(), "mapIndex" | "mapDensity"))
            .map(|t| t.output_bytes(wf.files()))
            .sum();
        let out_mb = products as f64 / 1e6;
        assert!((250.0..=350.0).contains(&out_mb), "products {out_mb} MB");
    }

    #[test]
    fn epigenome_is_cpu_bound() {
        let wf = epigenome(EpigenomeConfig::paper());
        let s = analysis::stats(&wf);
        // Far fewer bytes per CPU second than Montage (Table I).
        let bytes_per_cpu = (s.bytes_read + s.bytes_written) as f64 / s.total_cpu_secs;
        assert!(bytes_per_cpu < 2e6, "bytes/cpu-s {bytes_per_cpu}");
        // maq_map dominates the compute demand.
        let map_cpu: f64 = wf
            .tasks()
            .iter()
            .filter(|t| t.transformation == "maq_map")
            .map(|t| t.cpu_secs)
            .sum();
        assert!(map_cpu / s.total_cpu_secs > 0.7);
    }

    #[test]
    fn reference_is_reused_by_every_map_task() {
        let wf = epigenome(EpigenomeConfig::paper());
        let r = wf.files().iter().find(|f| f.name == "chr21.bfa").unwrap();
        assert_eq!(r.consumers.len(), 128);
    }

    #[test]
    fn memory_is_moderate() {
        // Table I: Medium memory — no task above 1 GB, map tasks near it.
        let wf = epigenome(EpigenomeConfig::paper());
        assert!(wf.tasks().iter().all(|t| t.peak_mem < 1 << 30));
        assert!(wf.tasks().iter().any(|t| t.peak_mem >= 512 << 20));
    }

    #[test]
    fn tiny_instance_valid() {
        let wf = epigenome(EpigenomeConfig::tiny());
        assert_eq!(wf.task_count() as u32, EpigenomeConfig::tiny().task_count());
        assert!(analysis::level_histogram(&wf).len() >= 7);
    }
}
