//! The Montage astronomy workflow (§II).
//!
//! Montage builds science-grade image mosaics. The paper runs an 8-degree
//! square mosaic: **10,429 tasks, 4.2 GB input, 7.9 GB of (non-temporary)
//! output**, tens of thousands of accesses to relatively small (1–10 MB)
//! files, >95 % of its time in I/O — the I/O-bound application of Table I.
//!
//! Structure (standard Montage pipeline):
//!
//! ```text
//! raw FITS ──> mProjectPP ──> mDiffFit (per overlap) ──> mConcatFit ─┐
//!      (per image)   │                                              v
//!                    │                                          mBgModel
//!                    v                                              │
//!               mBackground (per image) <── corrections.tbl ────────┘
//!                    │
//!                    v
//!          mImgtbl ─> mAdd (per tile) ─> mShrink ─> mJPEG
//! ```
//!
//! The per-level counts below are synthetic but sum to exactly 10,429
//! tasks for the paper-scale instance, with byte totals matching §II.

use crate::jitter::Jitter;
use serde::Serialize;
use wfdag::{FileId, Workflow, WorkflowBuilder};

/// Megabyte, decimal (the unit the paper speaks in).
pub const MB: u64 = 1_000_000;

/// Shape parameters of a Montage instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct MontageConfig {
    /// Number of raw input images (and thus mProjectPP / mBackground
    /// tasks).
    pub images: u32,
    /// Number of overlap pairs (mDiffFit tasks).
    pub diffs: u32,
    /// Number of mosaic tiles (mAdd / mShrink tasks).
    pub tiles: u32,
    /// Experiment seed for service-time jitter.
    pub seed: u64,
}

impl MontageConfig {
    /// The paper's 8-degree mosaic: 2102 + 6171 + 2102 + 25 + 25 and four
    /// singleton tasks = **10,429 tasks**.
    pub fn paper() -> Self {
        MontageConfig {
            images: 2102,
            diffs: 6171,
            tiles: 25,
            seed: 42,
        }
    }

    /// A small instance with the same shape, for tests.
    pub fn tiny() -> Self {
        MontageConfig {
            images: 12,
            diffs: 30,
            tiles: 4,
            seed: 42,
        }
    }

    /// An instance for a `d`-degree square mosaic.
    ///
    /// Input images cover a fixed patch of sky, so their count grows with
    /// the mosaic area (d²); overlaps grow proportionally, and the tile
    /// grid with the mosaic's linear size. Calibrated so `degrees(8)`
    /// produces the paper's 2102-image instance.
    pub fn degrees(d: u32) -> Self {
        assert!(
            (1..=20).contains(&d),
            "supported mosaic sizes: 1-20 degrees"
        );
        let images = (2102 * d * d + 32) / 64; // ≈ 32.8 images per deg²
        let diffs = images * 3 - images / 3; // ≈ 2.94 diffs per image
        let tiles = (25 * d + 4) / 8; // ≈ 3.1 tiles per degree
        MontageConfig {
            images: images.max(4),
            diffs: diffs.max(4),
            tiles: tiles.max(1),
            seed: 42,
        }
    }

    /// Total task count this config will generate.
    pub fn task_count(&self) -> u32 {
        // mProjectPP + mDiffFit + mBackground + mAdd + mShrink
        //   + mConcatFit + mBgModel + mImgtbl + mJPEG.
        self.images + self.diffs + self.images + self.tiles + self.tiles + 4
    }
}

/// Generate a Montage workflow.
pub fn montage(cfg: MontageConfig) -> Workflow {
    assert!(cfg.images >= 2 && cfg.diffs >= 1 && cfg.tiles >= 1);
    let mut b = WorkflowBuilder::new(format!("montage-{}img", cfg.images));
    let mut jit = Jitter::new(cfg.seed, "montage");

    // Raw images: 4.2 GB over the image count (2.0 MB each at paper
    // scale).
    let raw_bytes = (4200.0 * MB as f64 / f64::from(cfg.images)) as u64;
    let raw: Vec<FileId> = (0..cfg.images)
        .map(|i| b.file(format!("raw_{i:05}.fits"), jit.size(raw_bytes, 0.10)))
        .collect();

    // mProjectPP: projected image + area file, ~1.65x the raw size each.
    let mem_small = 256 << 20; // Montage tasks are lightweight (Table I: Low)
    let mut proj = Vec::with_capacity(cfg.images as usize);
    let mut area = Vec::with_capacity(cfg.images as usize);
    for i in 0..cfg.images {
        let p = b.file(
            format!("proj_{i:05}.fits"),
            jit.size(raw_bytes * 110 / 100, 0.08),
        );
        let a = b.file(
            format!("area_{i:05}.fits"),
            jit.size(raw_bytes * 110 / 100, 0.08),
        );
        let t = b.task(
            format!("mProjectPP_{i:05}"),
            "mProjectPP",
            jit.secs(1.0, 0.25),
            mem_small,
            vec![raw[i as usize]],
            vec![p, a],
        );
        b.set_io_ops(t, 8);
        proj.push(p);
        area.push(a);
    }

    // mDiffFit: each overlap pair reads two projected images and writes a
    // temporary difference image (a few MB, excluded from the paper's
    // output accounting) plus a small fit file. Pairs walk the image list
    // like a strip mosaic.
    let mut fits = Vec::with_capacity(cfg.diffs as usize);
    for d in 0..cfg.diffs {
        let i = (d % (cfg.images - 1)) as usize;
        let j = i + 1 + (d / (cfg.images - 1)) as usize % (cfg.images as usize - i - 1).max(1);
        let j = j.min(cfg.images as usize - 1);
        let diff_img = b.file(
            format!("diff_{d:05}.fits"),
            jit.size(raw_bytes * 200 / 100, 0.1),
        );
        let fit = b.file(format!("fit_{d:05}.txt"), jit.size(4_000, 0.3));
        let t = b.task(
            format!("mDiffFit_{d:05}"),
            "mDiffFit",
            jit.secs(0.2, 0.3),
            mem_small,
            vec![proj[i], proj[j]],
            vec![diff_img, fit],
        );
        b.set_io_ops(t, 8);
        fits.push(fit);
    }

    // mConcatFit: all fit files -> one table.
    let fits_tbl = b.file("fits.tbl", MB);
    b.task(
        "mConcatFit",
        "mConcatFit",
        jit.secs(8.0, 0.1),
        mem_small,
        fits,
        vec![fits_tbl],
    );

    // mBgModel: fit table -> correction table.
    let corrections = b.file("corrections.tbl", MB / 2);
    b.task(
        "mBgModel",
        "mBgModel",
        jit.secs(30.0, 0.1),
        512 << 20,
        vec![fits_tbl],
        vec![corrections],
    );

    // mBackground: per image, corrected image of the projected size.
    let mut corrected = Vec::with_capacity(cfg.images as usize);
    for i in 0..cfg.images {
        let c = b.file(
            format!("corr_{i:05}.fits"),
            jit.size(raw_bytes * 160 / 100, 0.08),
        );
        let t = b.task(
            format!("mBackground_{i:05}"),
            "mBackground",
            jit.secs(0.2, 0.3),
            mem_small,
            vec![proj[i as usize], corrections],
            vec![c],
        );
        b.set_io_ops(t, 8);
        corrected.push(c);
    }

    // mImgtbl: metadata pass over the corrected set (header reads are
    // modelled as a table-only input).
    let images_tbl = b.file("images.tbl", MB);
    b.task(
        "mImgtbl",
        "mImgtbl",
        jit.secs(5.0, 0.1),
        mem_small,
        vec![corrections],
        vec![images_tbl],
    );

    // mAdd: each tile co-adds its share of corrected images. Tiles are
    // sized so the tile set matches the paper's 7.9 GB of products:
    // tiles (~7.5 GB) + shrunk versions + jpeg.
    let tile_bytes = (7500.0 * MB as f64 / f64::from(cfg.tiles)) as u64;
    let per_tile = (cfg.images as usize).div_ceil(cfg.tiles as usize);
    let mut shrunk = Vec::with_capacity(cfg.tiles as usize);
    for t in 0..cfg.tiles {
        let lo = (t as usize * per_tile).min(corrected.len());
        let hi = ((t as usize + 1) * per_tile).min(corrected.len());
        let mut ins: Vec<FileId> = corrected[lo..hi].to_vec();
        // mAdd co-adds using each image's area (coverage) file too.
        ins.extend(&area[lo..hi]);
        // Border tiles also read neighbours; keep at least one image.
        if ins.is_empty() {
            ins.push(corrected[corrected.len() - 1]);
        }
        ins.push(images_tbl);
        let tile = b.file(format!("mosaic_{t:02}.fits"), jit.size(tile_bytes, 0.05));
        let tid = b.task(
            format!("mAdd_{t:02}"),
            "mAdd",
            jit.secs(25.0, 0.15),
            768 << 20,
            ins,
            vec![tile],
        );
        b.set_io_ops(tid, 120);
        let small = b.file(
            format!("shrunk_{t:02}.fits"),
            jit.size(tile_bytes / 12, 0.05),
        );
        b.task(
            format!("mShrink_{t:02}"),
            "mShrink",
            jit.secs(4.0, 0.15),
            mem_small,
            vec![tile],
            vec![small],
        );
        shrunk.push(small);
    }

    // mJPEG: browse product from the shrunk tiles.
    let jpeg = b.file("mosaic.jpg", 55 * MB);
    b.task(
        "mJPEG",
        "mJPEG",
        jit.secs(12.0, 0.1),
        mem_small,
        shrunk,
        vec![jpeg],
    );

    let wf = b.build().expect("montage generator produces a valid DAG");
    debug_assert_eq!(wf.task_count() as u32, cfg.task_count());
    wf
}

#[cfg(test)]
mod tests {
    use super::*;
    use wfdag::{analysis, FileClass};

    #[test]
    fn paper_scale_has_exactly_10429_tasks() {
        let cfg = MontageConfig::paper();
        assert_eq!(cfg.task_count(), 10_429);
        let wf = montage(cfg);
        assert_eq!(wf.task_count(), 10_429);
    }

    #[test]
    fn paper_scale_byte_totals_match_section_ii() {
        let wf = montage(MontageConfig::paper());
        let s = analysis::stats(&wf);
        let gb = 1e9;
        let input_gb = s.input_bytes as f64 / gb;
        assert!((4.0..=4.4).contains(&input_gb), "input {input_gb} GB");
        // The paper's "7.9 GB of output" counts the mosaic products
        // (tiles + shrunk + jpeg); tiles are DAG-intermediate because
        // mShrink consumes them.
        let products: u64 = wf
            .tasks()
            .iter()
            .filter(|t| matches!(t.transformation.as_str(), "mAdd" | "mShrink" | "mJPEG"))
            .map(|t| t.output_bytes(wf.files()))
            .sum();
        let products_gb = products as f64 / gb;
        assert!(
            (7.5..=8.3).contains(&products_gb),
            "products {products_gb} GB"
        );
    }

    #[test]
    fn file_population_is_small_files() {
        let wf = montage(MontageConfig::paper());
        // §V.A: a large number (~tens of thousands) of relatively small
        // files, most 1-10 MB.
        assert!(wf.file_count() > 10_000, "{}", wf.file_count());
        let small = wf
            .files()
            .iter()
            .filter(|f| (MB..=10 * MB).contains(&f.size))
            .count();
        assert!(
            small as f64 > wf.file_count() as f64 * 0.55,
            "small files {small}/{}",
            wf.file_count()
        );
        let s = analysis::stats(&wf);
        assert!(s.file_accesses > 29_000, "accesses {}", s.file_accesses);
    }

    #[test]
    fn montage_is_io_heavy_and_low_memory() {
        let wf = montage(MontageConfig::paper());
        let s = analysis::stats(&wf);
        // Bytes per CPU second is an order of magnitude beyond the other
        // applications (Table I: I/O High, CPU Low).
        let bytes_per_cpu = (s.bytes_read + s.bytes_written) as f64 / s.total_cpu_secs;
        assert!(bytes_per_cpu > 10e6, "bytes/cpu-s {bytes_per_cpu}");
        assert!(wf.tasks().iter().all(|t| t.peak_mem <= 1 << 30));
    }

    #[test]
    fn tiny_instance_is_valid_and_same_shape() {
        let wf = montage(MontageConfig::tiny());
        assert_eq!(wf.task_count() as u32, MontageConfig::tiny().task_count());
        let outputs = wf
            .files()
            .iter()
            .filter(|f| f.class == FileClass::Output)
            .count();
        assert!(outputs >= 1);
        // Deepest chain: raw -> proj -> diff -> concat -> bgmodel ->
        // background -> (imgtbl) -> add -> shrink -> jpeg.
        let levels = analysis::level_histogram(&wf).len();
        assert!(levels >= 7, "levels {levels}");
    }

    #[test]
    fn degrees_8_matches_the_paper_instance() {
        let d8 = MontageConfig::degrees(8);
        assert_eq!(d8.images, 2102);
        assert_eq!(d8.tiles, 25);
        // Diffs land within a few percent of the paper's 6171 (the exact
        // overlap count depends on sky geometry).
        assert!((5600..=6600).contains(&d8.diffs), "{}", d8.diffs);
    }

    #[test]
    fn smaller_mosaics_scale_down_quadratically() {
        let d1 = MontageConfig::degrees(1);
        let d4 = MontageConfig::degrees(4);
        let d8 = MontageConfig::degrees(8);
        assert!(d1.images < d4.images && d4.images < d8.images);
        // Area scaling: 4 degrees has ~1/4 the images of 8 degrees.
        let ratio = f64::from(d8.images) / f64::from(d4.images);
        assert!((3.6..=4.4).contains(&ratio), "{ratio}");
        // Every size must produce a valid workflow.
        for d in [1u32, 2, 4] {
            let wf = montage(MontageConfig::degrees(d));
            assert_eq!(
                wf.task_count() as u32,
                MontageConfig::degrees(d).task_count()
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = montage(MontageConfig::tiny());
        let b = montage(MontageConfig::tiny());
        for (x, y) in a.tasks().iter().zip(b.tasks()) {
            assert_eq!(x.cpu_secs.to_bits(), y.cpu_secs.to_bits());
        }
        for (x, y) in a.files().iter().zip(b.files()) {
            assert_eq!(x.size, y.size);
        }
    }
}
