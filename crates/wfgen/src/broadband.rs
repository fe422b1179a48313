//! The Broadband seismology workflow (§II).
//!
//! Broadband generates and compares seismograms from several high- and
//! low-frequency earthquake simulation codes. The paper's instance: **6
//! sources × 8 sites = 48 combinations, 768 tasks (16 per combination),
//! 6 GB input, 303 MB output**, memory-limited — more than 75 % of its
//! runtime is consumed by tasks requiring over 1 GB of RAM.
//!
//! Each (source, site) combination is a mini-pipeline ("several
//! executables run in sequence like a mini workflow", §V.C), which is why
//! GlusterFS NUFA — all outputs on the local disk — has such good
//! locality for it, and why the *shared* inputs (velocity model, source
//! and site files) are re-read by many combinations — which is what makes
//! the S3 client cache shine.

use crate::jitter::Jitter;
use serde::Serialize;
use wfdag::{FileId, Workflow, WorkflowBuilder};

/// Megabyte, decimal.
pub const MB: u64 = 1_000_000;
/// Gibibyte (for memory sizes).
const GIB: u64 = 1 << 30;

/// Shape parameters of a Broadband instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct BroadbandConfig {
    /// Scenario earthquakes.
    pub sources: u32,
    /// Geographic locations.
    pub sites: u32,
    /// Experiment seed for jitter.
    pub seed: u64,
}

impl BroadbandConfig {
    /// The paper's instance: 6 sources × 8 sites → 768 tasks.
    pub fn paper() -> Self {
        BroadbandConfig {
            sources: 6,
            sites: 8,
            seed: 42,
        }
    }

    /// A small instance for tests (2 × 2 → 64 tasks).
    pub fn tiny() -> Self {
        BroadbandConfig {
            sources: 2,
            sites: 2,
            seed: 42,
        }
    }

    /// 16 tasks per (source, site) combination.
    pub fn task_count(&self) -> u32 {
        self.sources * self.sites * 16
    }
}

/// Generate a Broadband workflow.
pub fn broadband(cfg: BroadbandConfig) -> Workflow {
    assert!(cfg.sources >= 1 && cfg.sites >= 1);
    let mut b = WorkflowBuilder::new(format!("broadband-{}x{}", cfg.sources, cfg.sites));
    let mut jit = Jitter::new(cfg.seed, "broadband");

    // Shared inputs, 6 GB at paper scale: a velocity mesh split into one
    // region file per site (8 × 400 MB), 6 × 150 MB source descriptions,
    // and 8 × 237 MB site models. Every one of these is re-read by
    // several combinations — the reuse that §V.C credits for S3's win.
    let velocity_regions: Vec<FileId> = (0..cfg.sites)
        .map(|s| b.file(format!("velocity_region_{s}.bin"), jit.size(400 * MB, 0.03)))
        .collect();
    let source_files: Vec<FileId> = (0..cfg.sources)
        .map(|s| b.file(format!("source_{s}.def"), jit.size(150 * MB, 0.05)))
        .collect();
    let site_files: Vec<FileId> = (0..cfg.sites)
        .map(|s| b.file(format!("site_{s}.mod"), jit.size(237 * MB, 0.05)))
        .collect();

    for src in 0..cfg.sources {
        for site in 0..cfg.sites {
            let tag = format!("s{src}_l{site}");

            // 1) Rupture generator.
            let srf = b.file(format!("srf_{tag}.bin"), jit.size(60 * MB, 0.1));
            let t = b.task(
                format!("createSRF_{tag}"),
                "ucsb_createSRF",
                jit.secs(22.0, 0.2),
                GIB + GIB / 5, // 1.2 GB
                vec![source_files[src as usize]],
                vec![srf],
            );
            b.set_io_ops(t, 900);

            // 2) Low-frequency simulation: the 4 GB memory hog. Reads the
            // velocity region for its site.
            let lf = b.file(format!("lf_{tag}.seis"), jit.size(5 * MB, 0.15));
            let t = b.task(
                format!("jbsim_lf_{tag}"),
                "jbsim_lf",
                jit.secs(112.0, 0.15),
                4 * GIB + GIB / 5, // 4.2 GB
                vec![velocity_regions[site as usize], srf],
                vec![lf],
            );
            b.set_io_ops(t, 6000);

            // 3) Four high-frequency simulations (1.6 GB each); the first
            // loads the site model, the variants reuse its srf inputs.
            // Each writes a *raw* multi-component seismogram volume
            // (~120 MB of temporary data) plus the condensed seismogram.
            let mut hf = Vec::with_capacity(4);
            let mut hf_raw = Vec::with_capacity(4);
            for k in 0..4 {
                let raw = b.file(format!("hfraw_{tag}_{k}.bin"), jit.size(120 * MB, 0.1));
                let f = b.file(format!("hf_{tag}_{k}.seis"), jit.size(8 * MB, 0.15));
                let ins = if k == 0 {
                    vec![srf, site_files[site as usize]]
                } else {
                    vec![srf]
                };
                let t = b.task(
                    format!("hfsim_{tag}_{k}"),
                    "hfsims",
                    jit.secs(68.0, 0.2),
                    GIB + 3 * GIB / 5, // 1.6 GB
                    ins,
                    vec![raw, f],
                );
                b.set_io_ops(t, 5000);
                hf.push(f);
                hf_raw.push(raw);
            }

            // 4) Site response per high-frequency seismogram: re-reads the
            // raw volume to apply the site terms (light on CPU).
            let mut adjusted = Vec::with_capacity(4);
            for k in 0..4 {
                let f = b.file(format!("adj_{tag}_{k}.seis"), jit.size(8 * MB, 0.15));
                let t = b.task(
                    format!("siteresp_{tag}_{k}"),
                    "site_response",
                    jit.secs(11.0, 0.25),
                    700 << 20,
                    vec![hf[k], hf_raw[k]],
                    vec![f],
                );
                b.set_io_ops(t, 2200);
                adjusted.push(f);
            }

            // 5) Merge broadband seismogram.
            let merged = b.file(format!("bb_{tag}.seis"), jit.size(20 * MB, 0.1));
            let mut ins = adjusted.clone();
            ins.push(lf);
            let t = b.task(
                format!("merge_{tag}"),
                "merge_seis",
                jit.secs(8.0, 0.2),
                600 << 20,
                ins,
                vec![merged],
            );
            b.set_io_ops(t, 1200);

            // 6) Four intensity measures (~1 MB products each).
            let mut metrics = Vec::with_capacity(4);
            for k in 0..4 {
                let f = b.file(format!("im_{tag}_{k}.dat"), jit.size(MB, 0.2));
                let t = b.task(
                    format!("intensity_{tag}_{k}"),
                    "intensity",
                    jit.secs(11.0, 0.25),
                    500 << 20,
                    vec![merged],
                    vec![f],
                );
                b.set_io_ops(t, 700);
                metrics.push(f);
            }

            // 7) Comparison/goodness-of-fit report.
            let report = b.file(format!("gof_{tag}.dat"), jit.size(2 * MB, 0.2));
            b.task(
                format!("compare_{tag}"),
                "compare",
                jit.secs(8.0, 0.2),
                400 << 20,
                metrics,
                vec![report],
            );
        }
    }

    let wf = b.build().expect("broadband generator produces a valid DAG");
    debug_assert_eq!(wf.task_count() as u32, cfg.task_count());
    wf
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdag::analysis;

    #[test]
    fn paper_scale_has_768_tasks() {
        let wf = broadband(BroadbandConfig::paper());
        assert_eq!(wf.task_count(), 768);
    }

    #[test]
    fn paper_byte_totals_match_section_ii() {
        let wf = broadband(BroadbandConfig::paper());
        let s = analysis::stats(&wf);
        let input_gb = s.input_bytes as f64 / 1e9;
        assert!((5.7..=6.3).contains(&input_gb), "input {input_gb} GB");
        // The paper's 303 MB of output are the archived science products:
        // the intensity measures and goodness-of-fit reports.
        let products: u64 = wf
            .tasks()
            .iter()
            .filter(|t| matches!(t.transformation.as_str(), "intensity" | "compare"))
            .map(|t| t.output_bytes(wf.files()))
            .sum();
        let out_mb = products as f64 / 1e6;
        assert!((250.0..=360.0).contains(&out_mb), "products {out_mb} MB");
    }

    #[test]
    fn broadband_is_memory_limited() {
        // §II: >75 % of runtime is in tasks needing more than 1 GB.
        let wf = broadband(BroadbandConfig::paper());
        let total: f64 = wf.tasks().iter().map(|t| t.cpu_secs).sum();
        let big: f64 = wf
            .tasks()
            .iter()
            .filter(|t| t.peak_mem > 1 << 30)
            .map(|t| t.cpu_secs)
            .sum();
        assert!(big / total > 0.75, "big-memory fraction {}", big / total);
    }

    #[test]
    fn shared_inputs_are_heavily_reused() {
        let wf = broadband(BroadbandConfig::paper());
        // Each velocity region feeds the LF simulation of every source at
        // its site (6 combinations).
        let region = wf
            .files()
            .iter()
            .find(|f| f.name == "velocity_region_0.bin")
            .unwrap();
        assert_eq!(region.consumers.len(), 6);
        // Each site model is loaded once per combination.
        let site = wf.files().iter().find(|f| f.name == "site_0.mod").unwrap();
        assert_eq!(site.consumers.len(), 6);
        // Each source description feeds one createSRF per site.
        let src = wf
            .files()
            .iter()
            .find(|f| f.name == "source_0.def")
            .unwrap();
        assert_eq!(src.consumers.len(), 8);
    }

    #[test]
    fn combos_are_mini_pipelines() {
        let wf = broadband(BroadbandConfig::tiny());
        // Depth per combo: createSRF -> hfsim -> siteresp -> merge ->
        // intensity -> compare = 6 levels.
        assert_eq!(analysis::level_histogram(&wf).len(), 6);
        assert_eq!(wf.task_count(), 64);
    }

    #[test]
    fn deterministic_generation() {
        let a = broadband(BroadbandConfig::tiny());
        let b = broadband(BroadbandConfig::tiny());
        for (x, y) in a.files().iter().zip(b.files()) {
            assert_eq!(x.size, y.size);
        }
    }
}
