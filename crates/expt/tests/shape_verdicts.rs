//! Verdict pins for every shape check, on hand-made inputs (no
//! simulation).
//!
//! A baseline of synthetic figures, Table I, XtreemFS note and F2 study
//! passes all 24 checks. Each case then moves one input to a side of one
//! check's threshold — clearly past it, onto it exactly, or out of the
//! data (a missing cell) — and pins that check's verdict. Ties sit on
//! the exact floating-point expression the check evaluates (`g * 1.3`,
//! `ph + 1e-9`, …), so a rewrite that reorders the arithmetic or turns
//! `<` into `≤` fails here.

use expt::faults::{check_f2, F2_STORAGES};
use expt::figures::{RuntimeFigure, Table1, XtreemFsNote};
use expt::{shape, Cell, CellResult, FaultRow, FaultScenario, FaultStudy, ShapeCheck};
use wfgen::{App, Grade, ResourceUsage};
use wfstorage::StorageKind::{
    self, GlusterDistribute as Dist, GlusterNufa as Nufa, Local, Nfs, Pvfs, S3,
};
use App::{Broadband as Bb, Epigenome as Epi, Montage as Mon};
use FaultScenario::{NodeChurn, ServerFailure, ZeroRate};

/// The 24 check ids, in report order.
const IDS: [&str; 24] = [
    "fig2.gluster-best",
    "fig2.nfs-vs-local-1node",
    "fig2.s3-pvfs-poor",
    "fig3.insensitive",
    "fig3.local-fastest-1node",
    "fig3.s3-slightly-worse",
    "fig4.s3-best",
    "fig4.nufa-beats-distribute",
    "fig4.nfs-cliff",
    "fig4.nfs-2to4-regression",
    "fig4.m24-partial-fix",
    "fig567.per-second-cheaper",
    "fig5.montage-cheapest",
    "fig6.epigenome-cheapest",
    "fig7.broadband-cheapest",
    "fig567.cost-grows-with-nodes",
    "fig567.s3-surcharge",
    "table1.grades",
    "xtreemfs.2x",
    "f2.zero-rate-identical",
    "f2.faults-lengthen",
    "f2.nfs-worst-server-failure",
    "f2.s3-flattest-churn",
    "f2.churn-wastes-hours",
];

/// Checks that state a category, not an inequality.
const CATEGORICAL: [&str; 5] = [
    "fig5.montage-cheapest",
    "fig6.epigenome-cheapest",
    "fig7.broadband-cheapest",
    "table1.grades",
    "f2.zero-rate-identical",
];

/// Per-hour cost of a cell: grows with the node count (no exceptions to
/// `cost-grows-with-nodes`) and makes the single-node local disk the
/// cheapest configuration of every app. Per-second billing is half.
fn cost(storage: StorageKind, workers: u32) -> f64 {
    let base = match storage {
        Local | Nufa | Dist => 0.0,
        S3 | Pvfs => 0.05,
        _ => 0.2,
    };
    base + 0.1 * workers as f64
}

fn cell(app: App, storage: StorageKind, workers: u32, makespan_secs: f64) -> CellResult {
    CellResult {
        cell: Cell::new(app, storage, workers),
        makespan_secs,
        cost_per_hour_usd: cost(storage, workers),
        cost_per_second_usd: cost(storage, workers) / 2.0,
        s3_requests: (0, 0),
        cache: (0, 0),
        io_fraction: 0.5,
        events: 1,
    }
}

/// A figure from `(storage, [(workers, makespan)])` rows.
fn figure(app: App, rows: &[(StorageKind, &[(u32, f64)])]) -> RuntimeFigure {
    RuntimeFigure {
        app,
        cells: rows
            .iter()
            .flat_map(|(s, pts)| pts.iter().map(move |&(n, ms)| cell(app, *s, n, ms)))
            .collect(),
        nfs_m24: None,
    }
}

/// Every input of the 24 checks.
#[derive(Clone)]
struct Inputs {
    figs: Vec<RuntimeFigure>,
    table: Table1,
    xtreemfs: XtreemFsNote,
    study: FaultStudy,
}

impl Inputs {
    /// Paper-shaped inputs on which every check passes.
    fn baseline() -> Self {
        let montage = figure(
            App::Montage,
            &[
                (Local, &[(1, 2900.0)]),
                (S3, &[(1, 5000.0), (2, 2000.0), (4, 1200.0), (8, 800.0)]),
                (Nfs, &[(1, 3000.0), (2, 1500.0), (4, 900.0), (8, 700.0)]),
                (Nufa, &[(2, 1000.0), (4, 600.0), (8, 400.0)]),
                (Dist, &[(2, 1050.0), (4, 650.0), (8, 450.0)]),
                (Pvfs, &[(2, 2000.0), (4, 1200.0), (8, 800.0)]),
            ],
        );
        let epigenome = figure(
            App::Epigenome,
            &[
                (Local, &[(1, 1900.0)]),
                (S3, &[(1, 2000.0), (2, 1010.0), (4, 610.0), (8, 410.0)]),
                (Nfs, &[(1, 2000.0), (2, 1000.0), (4, 600.0), (8, 400.0)]),
                (Nufa, &[(2, 1000.0), (4, 600.0), (8, 400.0)]),
                (Dist, &[(2, 1000.0), (4, 600.0), (8, 400.0)]),
                (Pvfs, &[(2, 1020.0), (4, 620.0), (8, 420.0)]),
            ],
        );
        let mut broadband = figure(
            App::Broadband,
            &[
                (Local, &[(1, 3900.0)]),
                (S3, &[(1, 4000.0), (2, 2000.0), (4, 1500.0), (8, 1400.0)]),
                (Nfs, &[(1, 4000.0), (2, 3000.0), (4, 5000.0), (8, 6000.0)]),
                (Nufa, &[(2, 2100.0), (4, 1600.0), (8, 1450.0)]),
                (Dist, &[(2, 2150.0), (4, 1650.0), (8, 1500.0)]),
                (Pvfs, &[(2, 2200.0), (4, 1700.0), (8, 1500.0)]),
            ],
        );
        broadband.nfs_m24 = Some(cell(App::Broadband, Nfs, 4, 4000.0));
        // S3 request fees: Montage $0.20, Epigenome $0.01, Broadband $0.02.
        let mut figs = vec![montage, epigenome, broadband];
        for (fig, puts) in figs.iter_mut().zip([20_000u64, 1_000, 2_000]) {
            for c in fig.cells.iter_mut().filter(|c| c.cell.storage == S3) {
                c.s3_requests = (0, puts);
            }
        }

        let table = Table1 {
            rows: vec![
                (App::Montage, usage(Grade::High, Grade::Low, Grade::Low)),
                (
                    App::Broadband,
                    usage(Grade::Medium, Grade::High, Grade::Medium),
                ),
                (
                    App::Epigenome,
                    usage(Grade::Low, Grade::Medium, Grade::High),
                ),
            ],
        };
        let xtreemfs = XtreemFsNote {
            rows: vec![
                (App::Montage, 3000.0, 1000.0),
                (App::Broadband, 5000.0, 2000.0),
            ],
        };

        let mut rows = Vec::new();
        for app in [App::Broadband, App::Epigenome] {
            for storage in F2_STORAGES {
                for scenario in FaultScenario::ALL {
                    let (inflation, cost_inflation) = match (scenario, storage) {
                        (FaultScenario::ZeroRate, _) => (1.0, 1.0),
                        (FaultScenario::NodeChurn, Nfs) => (0.9, 0.8),
                        (FaultScenario::NodeChurn, S3) => (1.05, 1.0),
                        (FaultScenario::NodeChurn, Dist) => (1.2, 1.5),
                        (FaultScenario::NodeChurn, _) => (1.3, 1.5),
                        (FaultScenario::ServerFailure, Nfs) => (2.0, 2.0),
                        (FaultScenario::ServerFailure, S3) => (1.01, 1.0),
                        (FaultScenario::ServerFailure, _) => (1.3, 1.0),
                        (FaultScenario::SpotMarket, _) => (1.2, 1.1),
                    };
                    rows.push(fault_row(app, storage, scenario, inflation, cost_inflation));
                }
            }
        }
        let study = FaultStudy {
            seed: 42,
            workers: 4,
            rows,
        };
        Inputs {
            figs,
            table,
            xtreemfs,
            study,
        }
    }

    fn checks(&self) -> Vec<ShapeCheck> {
        let mut out = shape::check_all(&self.figs, &self.table, &self.xtreemfs);
        out.extend(check_f2(&self.study));
        out
    }

    fn fig(&mut self, app: App) -> &mut RuntimeFigure {
        self.figs.iter_mut().find(|f| f.app == app).unwrap()
    }

    fn cell(&mut self, app: App, storage: StorageKind, workers: u32) -> &mut CellResult {
        self.fig(app)
            .cells
            .iter_mut()
            .find(|c| c.cell.storage == storage && c.cell.workers == workers)
            .unwrap()
    }

    fn makespan(&mut self, app: App, storage: StorageKind, workers: u32) -> f64 {
        self.cell(app, storage, workers).makespan_secs
    }

    fn set(&mut self, app: App, storage: StorageKind, workers: u32, makespan_secs: f64) {
        self.cell(app, storage, workers).makespan_secs = makespan_secs;
    }

    fn remove(&mut self, app: App, storage: StorageKind, workers: u32) {
        self.fig(app)
            .cells
            .retain(|c| !(c.cell.storage == storage && c.cell.workers == workers));
    }

    fn row(&mut self, app: App, storage: StorageKind, sc: FaultScenario) -> &mut FaultRow {
        self.study
            .rows
            .iter_mut()
            .find(|r| r.app == app && r.storage == storage && r.scenario == sc)
            .unwrap()
    }

    fn remove_row(&mut self, app: App, storage: StorageKind, sc: FaultScenario) {
        self.study
            .rows
            .retain(|r| !(r.app == app && r.storage == storage && r.scenario == sc));
    }
}

fn usage(io: Grade, memory: Grade, cpu: Grade) -> ResourceUsage {
    ResourceUsage { io, memory, cpu }
}

fn fault_row(
    app: App,
    storage: StorageKind,
    scenario: FaultScenario,
    inflation: f64,
    cost_inflation: f64,
) -> FaultRow {
    FaultRow {
        app,
        storage,
        scenario,
        makespan_secs: 1000.0 * inflation,
        clean_makespan_secs: 1000.0,
        inflation,
        cost_usd: cost_inflation,
        clean_cost_usd: 1.0,
        cost_inflation,
        node_crashes: 0,
        spot_terminations: 0,
        storage_failures: 0,
        tasks_killed: 0,
        rescue_resubmits: 0,
        files_lost: 0,
        wasted_task_secs: 0.0,
        bit_identical_to_clean: true,
    }
}

fn find<'a>(checks: &'a [ShapeCheck], id: &str) -> &'a ShapeCheck {
    let hits: Vec<_> = checks.iter().filter(|c| c.id == id).collect();
    assert_eq!(hits.len(), 1, "exactly one check {id}");
    hits[0]
}

/// The next representable value above `x`.
fn above(x: f64) -> f64 {
    x.next_up()
}

/// The next representable value below `x`.
fn below(x: f64) -> f64 {
    x.next_down()
}

type Case = (&'static str, &'static str, bool, fn(&mut Inputs));

/// `(case, check id, expected verdict, edit of the baseline)`.
const CASES: &[Case] = &[
    // fig2.gluster-best: min(GlusterFS) < min(S3, NFS, PVFS) at 2, 4, 8.
    ("gluster ahead", "fig2.gluster-best", true, |_| {}),
    ("gluster behind at 4", "fig2.gluster-best", false, |i| {
        i.set(Mon, Nfs, 4, 599.0)
    }),
    ("gluster ties at 4", "fig2.gluster-best", false, |i| {
        i.set(Mon, Nfs, 4, 600.0)
    }),
    (
        "one gluster mode missing at 8",
        "fig2.gluster-best",
        true,
        |i| i.remove(Mon, Nufa, 8),
    ),
    (
        "both gluster modes missing at 8",
        "fig2.gluster-best",
        false,
        |i| {
            i.remove(Mon, Nufa, 8);
            i.remove(Mon, Dist, 8)
        },
    ),
    ("all rivals missing at 8", "fig2.gluster-best", false, |i| {
        for s in [S3, Nfs, Pvfs] {
            i.remove(Mon, s, 8)
        }
    }),
    // fig2.nfs-vs-local-1node: NFS@1 <= Local@1 * 1.10.
    ("nfs within 10%", "fig2.nfs-vs-local-1node", true, |_| {}),
    (
        "nfs on the 10% line",
        "fig2.nfs-vs-local-1node",
        true,
        |i| {
            let v = i.makespan(Mon, Local, 1) * 1.10;
            i.set(Mon, Nfs, 1, v)
        },
    ),
    ("nfs just past 10%", "fig2.nfs-vs-local-1node", false, |i| {
        let v = above(i.makespan(Mon, Local, 1) * 1.10);
        i.set(Mon, Nfs, 1, v)
    }),
    ("local@1 missing", "fig2.nfs-vs-local-1node", false, |i| {
        i.remove(Mon, Local, 1)
    }),
    // fig2.s3-pvfs-poor: S3, PVFS > gluster * 1.3 at 2, 4, 8.
    ("s3 and pvfs well behind", "fig2.s3-pvfs-poor", true, |_| {}),
    ("pvfs on the 1.3x line", "fig2.s3-pvfs-poor", false, |i| {
        i.set(Mon, Pvfs, 4, 600.0 * 1.3)
    }),
    ("s3 just past 1.3x", "fig2.s3-pvfs-poor", true, |i| {
        i.set(Mon, S3, 4, above(600.0 * 1.3))
    }),
    ("pvfs@8 missing", "fig2.s3-pvfs-poor", false, |i| {
        i.remove(Mon, Pvfs, 8)
    }),
    // fig3.insensitive: max <= min * 1.25 at 2, 4, 8.
    ("spread within 25%", "fig3.insensitive", true, |_| {}),
    ("spread on the 25% line", "fig3.insensitive", true, |i| {
        i.set(Epi, Pvfs, 8, 400.0 * 1.25)
    }),
    ("spread past 25%", "fig3.insensitive", false, |i| {
        i.set(Epi, Pvfs, 8, above(400.0 * 1.25))
    }),
    ("one cell missing at 8", "fig3.insensitive", true, |i| {
        i.remove(Epi, Pvfs, 8)
    }),
    ("all cells missing at 8", "fig3.insensitive", false, |i| {
        for s in StorageKind::EVALUATED {
            i.remove(Epi, s, 8)
        }
    }),
    // fig3.local-fastest-1node: Local@1 <= min(S3@1, NFS@1) * 1.02.
    ("local fastest", "fig3.local-fastest-1node", true, |_| {}),
    (
        "local on the 2% line",
        "fig3.local-fastest-1node",
        true,
        |i| i.set(Epi, Local, 1, 2000.0 * 1.02),
    ),
    ("local past 2%", "fig3.local-fastest-1node", false, |i| {
        i.set(Epi, Local, 1, above(2000.0 * 1.02))
    }),
    ("local@1 missing", "fig3.local-fastest-1node", false, |i| {
        i.remove(Epi, Local, 1)
    }),
    // fig3.s3-slightly-worse: S3 >= gluster * 0.98 at 2, 4.
    ("s3 behind gluster", "fig3.s3-slightly-worse", true, |_| {}),
    ("s3 on the 0.98 line", "fig3.s3-slightly-worse", true, |i| {
        i.set(Epi, S3, 4, 600.0 * 0.98)
    }),
    (
        "s3 under the 0.98 line",
        "fig3.s3-slightly-worse",
        false,
        |i| i.set(Epi, S3, 4, below(600.0 * 0.98)),
    ),
    ("s3@2 missing", "fig3.s3-slightly-worse", false, |i| {
        i.remove(Epi, S3, 2)
    }),
    // fig4.s3-best: S3 <= min(NFS, GlusterFS, PVFS) at 2, 4, 8.
    ("s3 best", "fig4.s3-best", true, |_| {}),
    ("s3 ties nufa at 8", "fig4.s3-best", true, |i| {
        i.set(Bb, S3, 8, 1450.0)
    }),
    ("s3 behind nufa at 8", "fig4.s3-best", false, |i| {
        i.set(Bb, S3, 8, above(1450.0))
    }),
    ("s3@8 missing", "fig4.s3-best", false, |i| {
        i.remove(Bb, S3, 8)
    }),
    ("a rival missing at 8", "fig4.s3-best", true, |i| {
        i.remove(Bb, Nufa, 8)
    }),
    ("all rivals missing at 8", "fig4.s3-best", false, |i| {
        for s in [Nfs, Nufa, Dist, Pvfs] {
            i.remove(Bb, s, 8)
        }
    }),
    // fig4.nufa-beats-distribute: NUFA <= distribute * 1.01.
    ("nufa ahead", "fig4.nufa-beats-distribute", true, |_| {}),
    (
        "nufa on the 1% line",
        "fig4.nufa-beats-distribute",
        true,
        |i| i.set(Bb, Nufa, 2, 2150.0 * 1.01),
    ),
    ("nufa past 1%", "fig4.nufa-beats-distribute", false, |i| {
        i.set(Bb, Nufa, 2, above(2150.0 * 1.01))
    }),
    (
        "distribute@2 missing",
        "fig4.nufa-beats-distribute",
        false,
        |i| i.remove(Bb, Dist, 2),
    ),
    // fig4.nfs-cliff: NFS@4 > min(S3@4, NUFA@4) * 1.4.
    ("nfs far behind", "fig4.nfs-cliff", true, |_| {}),
    ("nfs on the 1.4x line", "fig4.nfs-cliff", false, |i| {
        i.set(Bb, Nfs, 4, 1500.0 * 1.4)
    }),
    ("nfs just past 1.4x", "fig4.nfs-cliff", true, |i| {
        i.set(Bb, Nfs, 4, above(1500.0 * 1.4))
    }),
    ("nfs@4 missing", "fig4.nfs-cliff", false, |i| {
        i.remove(Bb, Nfs, 4)
    }),
    // fig4.nfs-2to4-regression: NFS@4 >= NFS@2.
    ("nfs slower at 4", "fig4.nfs-2to4-regression", true, |_| {}),
    (
        "nfs equal at 2 and 4",
        "fig4.nfs-2to4-regression",
        true,
        |i| i.set(Bb, Nfs, 4, 3000.0),
    ),
    ("nfs faster at 4", "fig4.nfs-2to4-regression", false, |i| {
        i.set(Bb, Nfs, 4, below(3000.0))
    }),
    ("nfs@2 missing", "fig4.nfs-2to4-regression", false, |i| {
        i.remove(Bb, Nfs, 2)
    }),
    // fig4.m24-partial-fix: m24 < NFS@4 and m24 > best@4 * 1.2.
    ("m24 between", "fig4.m24-partial-fix", true, |_| {}),
    ("m24 equals nfs@4", "fig4.m24-partial-fix", false, |i| {
        i.fig(Bb).nfs_m24.as_mut().unwrap().makespan_secs = 5000.0
    }),
    ("m24 on the 1.2x line", "fig4.m24-partial-fix", false, |i| {
        i.fig(Bb).nfs_m24.as_mut().unwrap().makespan_secs = 1500.0 * 1.2
    }),
    ("m24 just past 1.2x", "fig4.m24-partial-fix", true, |i| {
        i.fig(Bb).nfs_m24.as_mut().unwrap().makespan_secs = above(1500.0 * 1.2)
    }),
    (
        "nfs@4 missing under m24",
        "fig4.m24-partial-fix",
        false,
        |i| i.remove(Bb, Nfs, 4),
    ),
    // fig567.per-second-cheaper: per-second <= per-hour + 1e-9 in every cell.
    (
        "per-second cheaper",
        "fig567.per-second-cheaper",
        true,
        |_| {},
    ),
    (
        "per-second on the epsilon",
        "fig567.per-second-cheaper",
        true,
        |i| {
            let c = i.cell(Epi, Pvfs, 4);
            c.cost_per_second_usd = c.cost_per_hour_usd + 1e-9
        },
    ),
    (
        "per-second past the epsilon",
        "fig567.per-second-cheaper",
        false,
        |i| {
            let c = i.cell(Epi, Pvfs, 4);
            c.cost_per_second_usd = above(c.cost_per_hour_usd + 1e-9)
        },
    ),
    (
        "per-second cost NaN",
        "fig567.per-second-cheaper",
        false,
        |i| i.cell(Epi, Pvfs, 4).cost_per_second_usd = f64::NAN,
    ),
    // fig5.montage-cheapest: GlusterFS@2, or Local.
    (
        "montage local cheapest",
        "fig5.montage-cheapest",
        true,
        |_| {},
    ),
    (
        "montage gluster@2 cheapest",
        "fig5.montage-cheapest",
        true,
        |i| {
            i.cell(Mon, Local, 1).cost_per_hour_usd = 9.0;
            i.cell(Mon, S3, 1).cost_per_hour_usd = 9.0;
            i.cell(Mon, Nfs, 1).cost_per_hour_usd = 9.0
        },
    ),
    ("montage s3 cheapest", "fig5.montage-cheapest", false, |i| {
        i.cell(Mon, Local, 1).cost_per_hour_usd = 9.0
    }),
    (
        "montage local ties s3, s3 first",
        "fig5.montage-cheapest",
        false,
        |i| {
            i.cell(Mon, Local, 1).cost_per_hour_usd = i.cell(Mon, S3, 1).cost_per_hour_usd;
            i.fig(Mon).cells.rotate_left(1)
        },
    ),
    (
        "montage local ties s3, local first",
        "fig5.montage-cheapest",
        true,
        |i| i.cell(Mon, Local, 1).cost_per_hour_usd = i.cell(Mon, S3, 1).cost_per_hour_usd,
    ),
    // fig6.epigenome-cheapest: Local.
    (
        "epigenome local cheapest",
        "fig6.epigenome-cheapest",
        true,
        |_| {},
    ),
    (
        "epigenome nfs cheapest",
        "fig6.epigenome-cheapest",
        false,
        |i| i.cell(Epi, Nfs, 1).cost_per_hour_usd = 0.05,
    ),
    (
        "epigenome local missing",
        "fig6.epigenome-cheapest",
        false,
        |i| i.remove(Epi, Local, 1),
    ),
    // fig7.broadband-cheapest: never NFS.
    (
        "broadband local cheapest",
        "fig7.broadband-cheapest",
        true,
        |_| {},
    ),
    (
        "broadband nfs cheapest",
        "fig7.broadband-cheapest",
        false,
        |i| i.cell(Bb, Nfs, 1).cost_per_hour_usd = 0.05,
    ),
    (
        "broadband nfs ties local, nfs later",
        "fig7.broadband-cheapest",
        true,
        |i| i.cell(Bb, Nfs, 1).cost_per_hour_usd = 0.1,
    ),
    // fig567.cost-grows-with-nodes: at most two drops of more than 2 cents.
    ("cost grows", "fig567.cost-grows-with-nodes", true, |_| {}),
    (
        "two exceptions",
        "fig567.cost-grows-with-nodes",
        true,
        |i| {
            i.cell(Mon, Nfs, 2).cost_per_hour_usd = 0.1;
            i.cell(Bb, Nfs, 2).cost_per_hour_usd = 0.1
        },
    ),
    (
        "three exceptions",
        "fig567.cost-grows-with-nodes",
        false,
        |i| {
            i.cell(Mon, Nfs, 2).cost_per_hour_usd = 0.1;
            i.cell(Bb, Nfs, 2).cost_per_hour_usd = 0.1;
            i.cell(Epi, Nfs, 2).cost_per_hour_usd = 0.1
        },
    ),
    (
        "three drops, one of exactly 2 cents",
        "fig567.cost-grows-with-nodes",
        true,
        |i| {
            i.cell(Mon, Nfs, 2).cost_per_hour_usd = 0.1;
            i.cell(Bb, Nfs, 2).cost_per_hour_usd = 0.1;
            let prev = i.cell(Epi, Nfs, 1).cost_per_hour_usd;
            i.cell(Epi, Nfs, 2).cost_per_hour_usd = prev - 0.02
        },
    ),
    // fig567.s3-surcharge: Montage in [$0.08, $0.60], Epigenome < $0.03,
    // Broadband < $0.08, Montage above both.
    ("surcharges in range", "fig567.s3-surcharge", true, |_| {}),
    ("montage at $0.08", "fig567.s3-surcharge", true, |i| {
        for c in i.fig(Mon).cells.iter_mut().filter(|c| c.cell.storage == S3) {
            c.s3_requests = (0, 8_000);
        }
    }),
    ("montage above $0.60", "fig567.s3-surcharge", false, |i| {
        i.cell(Mon, S3, 8).s3_requests = (0, 61_000)
    }),
    ("epigenome at $0.03", "fig567.s3-surcharge", false, |i| {
        i.cell(Epi, S3, 2).s3_requests = (0, 3_000)
    }),
    (
        "broadband matches montage",
        "fig567.s3-surcharge",
        false,
        |i| i.cell(Bb, S3, 2).s3_requests = (0, 20_000),
    ),
    // table1.grades: exact match.
    ("grades match", "table1.grades", true, |_| {}),
    ("one grade off", "table1.grades", false, |i| {
        i.table.rows[1].1.cpu = Grade::High
    }),
    ("an app missing", "table1.grades", false, |i| {
        i.table.rows.pop();
    }),
    // xtreemfs.2x: XtreemFS > 2 * best.
    ("xtreemfs over 2x", "xtreemfs.2x", true, |_| {}),
    ("xtreemfs at 2x", "xtreemfs.2x", false, |i| {
        i.xtreemfs.rows[1].1 = 2.0 * 2000.0
    }),
    ("xtreemfs just over 2x", "xtreemfs.2x", true, |i| {
        i.xtreemfs.rows[1].1 = above(2.0 * 2000.0)
    }),
    ("xtreemfs NaN", "xtreemfs.2x", false, |i| {
        i.xtreemfs.rows[0].1 = f64::NAN
    }),
    // f2.zero-rate-identical: every zero-rate row bit-identical.
    (
        "zero-rate identical",
        "f2.zero-rate-identical",
        true,
        |_| {},
    ),
    ("zero-rate diverged", "f2.zero-rate-identical", false, |i| {
        i.row(Epi, Pvfs, ZeroRate).bit_identical_to_clean = false
    }),
    ("no zero-rate rows", "f2.zero-rate-identical", true, |i| {
        i.study.rows.retain(|r| r.scenario != ZeroRate)
    }),
    // f2.faults-lengthen: GlusterFS distribute and PVFS inflation >= 1 - 1e-9.
    ("faults lengthen", "f2.faults-lengthen", true, |_| {}),
    (
        "inflation on the epsilon",
        "f2.faults-lengthen",
        true,
        |i| i.row(Bb, Pvfs, ServerFailure).inflation = 1.0 - 1e-9,
    ),
    (
        "inflation under the epsilon",
        "f2.faults-lengthen",
        false,
        |i| i.row(Bb, Pvfs, ServerFailure).inflation = below(1.0 - 1e-9),
    ),
    ("nfs run shortens", "f2.faults-lengthen", true, |i| {
        i.row(Bb, Nfs, ServerFailure).inflation = 0.5
    }),
    ("zero-rate row shortens", "f2.faults-lengthen", true, |i| {
        i.row(Bb, Pvfs, ZeroRate).inflation = 0.5
    }),
    ("inflation NaN", "f2.faults-lengthen", false, |i| {
        i.row(Epi, Dist, NodeChurn).inflation = f64::NAN
    }),
    // f2.nfs-worst-server-failure: NFS > S3 and NFS > GlusterFS distribute.
    ("nfs worst", "f2.nfs-worst-server-failure", true, |_| {}),
    (
        "nfs ties gluster",
        "f2.nfs-worst-server-failure",
        false,
        |i| i.row(Epi, Dist, ServerFailure).inflation = 2.0,
    ),
    (
        "nfs just above gluster",
        "f2.nfs-worst-server-failure",
        true,
        |i| i.row(Epi, Dist, ServerFailure).inflation = below(2.0),
    ),
    (
        "s3 row missing",
        "f2.nfs-worst-server-failure",
        false,
        |i| i.remove_row(Bb, S3, ServerFailure),
    ),
    // f2.s3-flattest-churn: S3 <= GlusterFS * 1.02 and S3 <= PVFS * 1.02.
    ("s3 flattest", "f2.s3-flattest-churn", true, |_| {}),
    ("s3 on the 2% line", "f2.s3-flattest-churn", true, |i| {
        i.row(Bb, S3, NodeChurn).inflation = 1.2 * 1.02
    }),
    ("s3 past 2%", "f2.s3-flattest-churn", false, |i| {
        i.row(Bb, S3, NodeChurn).inflation = above(1.2 * 1.02)
    }),
    ("pvfs row missing", "f2.s3-flattest-churn", false, |i| {
        i.remove_row(Epi, Pvfs, NodeChurn)
    }),
    // f2.churn-wastes-hours: every non-NFS churn cost >= 1 - 1e-9, and
    // one > 1 + 1e-9.
    ("churn wastes hours", "f2.churn-wastes-hours", true, |_| {}),
    ("churn lowers a bill", "f2.churn-wastes-hours", false, |i| {
        i.row(Bb, S3, NodeChurn).cost_inflation = below(1.0 - 1e-9)
    }),
    (
        "churn bill on the lower epsilon",
        "f2.churn-wastes-hours",
        true,
        |i| i.row(Bb, S3, NodeChurn).cost_inflation = 1.0 - 1e-9,
    ),
    (
        "no bill above the upper epsilon",
        "f2.churn-wastes-hours",
        false,
        |i| {
            for r in i.study.rows.iter_mut().filter(|r| r.scenario == NodeChurn) {
                if r.storage != Nfs {
                    r.cost_inflation = 1.0 + 1e-9;
                }
            }
        },
    ),
    (
        "one bill just above the upper epsilon",
        "f2.churn-wastes-hours",
        true,
        |i| {
            for r in i.study.rows.iter_mut().filter(|r| r.scenario == NodeChurn) {
                if r.storage != Nfs {
                    r.cost_inflation = 1.0;
                }
            }
            i.row(Epi, Pvfs, NodeChurn).cost_inflation = above(1.0 + 1e-9)
        },
    ),
    ("nfs bill drops", "f2.churn-wastes-hours", true, |i| {
        i.row(Bb, Nfs, NodeChurn).cost_inflation = 0.5
    }),
    ("churn bill NaN", "f2.churn-wastes-hours", false, |i| {
        i.row(Epi, Dist, NodeChurn).cost_inflation = f64::NAN
    }),
];

/// A margin agrees with its verdict: negative only on a failed check,
/// positive only on a passed one; categorical checks have none.
fn assert_margins_agree(checks: &[ShapeCheck], case: &str) {
    for c in checks {
        let m = c.margin;
        if CATEGORICAL.contains(&c.id.as_str()) {
            assert_eq!(m, None, "{}: case `{case}`", c.id);
        }
        assert!(
            !c.passed || !m.is_some_and(|m| m < 0.0),
            "{} margin {m:?} vs passed {}: case `{case}`",
            c.id,
            c.passed
        );
        assert!(
            c.passed || !m.is_some_and(|m| m > 0.0),
            "{} margin {m:?} vs passed {}: case `{case}`",
            c.id,
            c.passed
        );
    }
}

#[test]
fn baseline_passes_all_24_checks_in_order() {
    let checks = Inputs::baseline().checks();
    let ids: Vec<&str> = checks.iter().map(|c| c.id.as_str()).collect();
    assert_eq!(ids, IDS);
    let failed: Vec<_> = checks.iter().filter(|c| !c.passed).collect();
    assert!(failed.is_empty(), "{failed:#?}");
    for c in &checks {
        let numeric = !CATEGORICAL.contains(&c.id.as_str());
        assert!(!numeric || c.margin.is_some_and(|m| m > 0.0), "{c:#?}");
    }
    assert_margins_agree(&checks, "baseline");
}

#[test]
fn every_check_has_cases_on_both_sides() {
    for id in IDS {
        let expect: Vec<bool> = CASES
            .iter()
            .filter(|(_, cid, _, _)| *cid == id)
            .map(|c| c.2)
            .collect();
        assert!(
            expect.contains(&true) && expect.contains(&false),
            "{id} needs a passing and a failing case"
        );
    }
}

#[test]
fn verdicts_are_pinned() {
    let base = Inputs::baseline();
    for (name, id, want, edit) in CASES {
        let mut inputs = base.clone();
        edit(&mut inputs);
        let checks = inputs.checks();
        let c = find(&checks, id);
        assert_eq!(c.passed, *want, "{id}: case `{name}`");
        assert_margins_agree(&checks, name);
        // A value on the threshold leaves no slack, and a failure caused
        // by a missing value has no margin at all (never a finite one).
        if !CATEGORICAL.contains(id) && (name.contains(" on the ") || name.contains(" ties ")) {
            assert_eq!(c.margin, Some(0.0), "{id}: case `{name}`");
        }
        if !want && (name.contains("missing") || name.contains("NaN")) {
            assert_eq!(c.margin, None, "{id}: case `{name}`");
        }
    }
}

#[test]
fn missing_m24_cell_drops_its_check() {
    let mut inputs = Inputs::baseline();
    inputs.fig(Bb).nfs_m24 = None;
    let checks = inputs.checks();
    assert_eq!(checks.len(), 23);
    assert!(checks.iter().all(|c| c.id != "fig4.m24-partial-fix"));
}

#[test]
fn long_detail_lines_show_what_fails() {
    let mut inputs = Inputs::baseline();
    inputs.row(Epi, Dist, NodeChurn).inflation = 0.9;
    let checks = inputs.checks();
    let c = find(&checks, "f2.faults-lengthen");
    assert_eq!(
        c.detail,
        "Epigenome/GlusterDistribute node-churn 0.900x ≥ clean 1.000x (1 of 12 comparisons)"
    );
    let m = c.margin.unwrap();
    assert!((m + 0.1).abs() < 1e-6, "{m}");
}
