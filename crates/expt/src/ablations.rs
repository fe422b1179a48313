//! Ablations A1–A5: quantifying the design choices DESIGN.md calls out.
//!
//! * **A1** — the first-write penalty (§III.C): what zero-filling the
//!   ephemeral disks would buy (the paper argues it is uneconomical).
//! * **A2** — the S3 client cache (§IV.A): the authors' whole-file cache
//!   against a cache-less S3 client.
//! * **A3** — the data-aware scheduler the paper suggests as future work
//!   (§IV.A): placement by cached input bytes vs the locality-blind
//!   Condor matchmaker.
//! * **A4** — NFS server placement (§VI): a dedicated `m1.xlarge` vs
//!   overloading a compute node.
//! * **A5** — PVFS small-file optimizations (§IV.D): the 2.6.3 release
//!   the paper had to use vs a model of the ≥2.8 improvements.

use crate::grid::{run_configs, CellResult};
use serde::Serialize;
use wfengine::{RunConfig, SchedulerPolicy};
use wfgen::App;
use wfstorage::{NfsConfig, NfsPlacement, PvfsConfig, S3Config, StorageKind};

/// A baseline/variant pair for one ablated design choice.
#[derive(Debug, Clone, Serialize)]
pub struct AblationRow {
    /// Stable identifier (`a1.montage-local` …).
    pub id: String,
    /// What is being ablated.
    pub description: String,
    /// Baseline result (the paper's configuration).
    pub baseline: CellResult,
    /// Variant result (the ablated configuration).
    pub variant: CellResult,
}

impl AblationRow {
    /// variant / baseline makespan ratio (<1 means the variant is
    /// faster).
    pub fn speed_ratio(&self) -> f64 {
        self.variant.makespan_secs / self.baseline.makespan_secs
    }
}

/// All ablation results.
#[derive(Debug, Clone, Serialize)]
pub struct Ablations {
    /// One row per ablated choice.
    pub rows: Vec<AblationRow>,
}

/// The design choice a variant flips, relative to its stock baseline.
#[derive(Debug, Clone, Copy)]
enum Variant {
    /// Zero-fill the ephemeral disks before the run.
    InitDisks,
    /// An S3 client without the whole-file cache.
    NoS3Cache,
    /// Placement by cached input bytes.
    DataAware,
    /// The NFS server shares a worker node.
    NfsOnWorker,
    /// PVFS with the ≥2.8 small-file optimizations.
    PvfsOptimized,
}

impl Variant {
    /// Flip this choice on a stock cell configuration, whose storage
    /// tunables are all defaults.
    fn apply(self, cfg: &mut RunConfig) {
        match self {
            Variant::InitDisks => cfg.initialize_disks = true,
            Variant::NoS3Cache => {
                cfg.storage_cfgs.s3 = Some(S3Config {
                    client_cache: false,
                    ..S3Config::default()
                })
            }
            Variant::DataAware => cfg.scheduler = SchedulerPolicy::DataAware,
            Variant::NfsOnWorker => {
                cfg.storage_cfgs.nfs = Some(NfsConfig {
                    placement: NfsPlacement::OnWorker,
                    ..NfsConfig::default()
                })
            }
            Variant::PvfsOptimized => cfg.storage_cfgs.pvfs = Some(PvfsConfig::optimized()),
        }
    }
}

/// One ablation: id, description, and the baseline cell the variant
/// modifies.
struct Ablation {
    id: &'static str,
    description: &'static str,
    app: App,
    storage: StorageKind,
    workers: u32,
    variant: Variant,
}

const ABLATIONS: [Ablation; 8] = [
    // A1: first-write penalty, the single-node local case of Montage.
    Ablation {
        id: "a1.montage-local-init",
        description: "Montage Local@1: zero-filled (initialized) ephemeral disks vs stock",
        app: App::Montage,
        storage: StorageKind::Local,
        workers: 1,
        variant: Variant::InitDisks,
    },
    // A1b: the same question on a GlusterFS cluster.
    Ablation {
        id: "a1.montage-gluster-init",
        description: "Montage GlusterFS(NUFA)@4: initialized disks vs stock",
        app: App::Montage,
        storage: StorageKind::GlusterNufa,
        workers: 4,
        variant: Variant::InitDisks,
    },
    // A2: S3 client cache for the reuse-heavy application.
    Ablation {
        id: "a2.broadband-s3-cache",
        description: "Broadband S3@4: whole-file client cache vs cache-less client",
        app: App::Broadband,
        storage: StorageKind::S3,
        workers: 4,
        variant: Variant::NoS3Cache,
    },
    // A2b: the cache matters less when there is little reuse (§V.A).
    Ablation {
        id: "a2.montage-s3-cache",
        description: "Montage S3@2: client cache vs cache-less (little reuse, small effect)",
        app: App::Montage,
        storage: StorageKind::S3,
        workers: 2,
        variant: Variant::NoS3Cache,
    },
    // A3: data-aware scheduling (the paper's suggested improvement).
    Ablation {
        id: "a3.broadband-s3-dataaware",
        description: "Broadband S3@4: locality-blind Condor matchmaking vs data-aware placement",
        app: App::Broadband,
        storage: StorageKind::S3,
        workers: 4,
        variant: Variant::DataAware,
    },
    Ablation {
        id: "a3.broadband-gluster-dataaware",
        description: "Broadband GlusterFS(NUFA)@4: locality-blind vs data-aware placement",
        app: App::Broadband,
        storage: StorageKind::GlusterNufa,
        workers: 4,
        variant: Variant::DataAware,
    },
    // A4: dedicated NFS server vs overloading a worker.
    Ablation {
        id: "a4.montage-nfs-onworker",
        description: "Montage NFS@2: dedicated m1.xlarge server vs overloading a worker (§VI)",
        app: App::Montage,
        storage: StorageKind::Nfs,
        workers: 2,
        variant: Variant::NfsOnWorker,
    },
    // A5: the PVFS release the paper was stuck on.
    Ablation {
        id: "a5.montage-pvfs-28",
        description: "Montage PVFS@4: 2.6.3 (no small-file optimizations) vs a ≥2.8 model",
        app: App::Montage,
        storage: StorageKind::Pvfs,
        workers: 4,
        variant: Variant::PvfsOptimized,
    },
];

/// Run every ablation (A1–A5): the baseline and variant of each, as one
/// flat list of cells.
pub fn run(seed: u64) -> Ablations {
    let configs: Vec<(App, RunConfig)> = ABLATIONS
        .iter()
        .flat_map(|a| {
            let base = RunConfig::cell(a.storage, a.workers).with_seed(seed);
            let mut variant = base.clone();
            a.variant.apply(&mut variant);
            [(a.app, base), (a.app, variant)]
        })
        .collect();
    let results = run_configs(&configs);
    let rows = ABLATIONS
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(a, pair)| AblationRow {
            id: a.id.to_string(),
            description: a.description.to_string(),
            baseline: pair[0].clone(),
            variant: pair[1].clone(),
        })
        .collect();
    Ablations { rows }
}

/// Render the ablation table.
pub fn render(a: &Ablations) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let _ = writeln!(s, "ABLATIONS — design choices quantified");
    for r in &a.rows {
        let _ = writeln!(
            s,
            "  {:<32} baseline {:>8.0}s -> variant {:>8.0}s  ({:+.1}%)",
            r.id,
            r.baseline.makespan_secs,
            r.variant.makespan_secs,
            (r.speed_ratio() - 1.0) * 100.0
        );
        let _ = writeln!(s, "      {}", r.description);
    }
    s
}
