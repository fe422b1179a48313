//! Qualitative shape checks: the textual claims of §V–§VI, verified
//! against the regenerated figures.
//!
//! The reproduction target is the *shape* of every figure — who wins, by
//! roughly what factor, where the crossovers fall — not the absolute
//! numbers of the authors' 2010 testbed. Each check cites the claim it
//! encodes. Two checks are deliberately lenient where our physically
//! symmetric model disagrees with the paper's hedged single-node
//! observations (see EXPERIMENTS.md, "Known deviations").
//!
//! Every check states its claim once, as a list of [`Cmp`]s; its
//! verdict, detail line and signed margin are all read off that list.

use crate::figures::{RuntimeFigure, Table1, XtreemFsNote};
use crate::{CellResult, NODE_COUNTS};
use serde::Serialize;
use std::fmt;
use wfgen::{App, Grade};
use wfstorage::StorageKind::{
    self, GlusterDistribute as Dist, GlusterNufa as Nufa, Local, Nfs, Pvfs, S3,
};

/// One verified claim.
#[derive(Debug, Clone, Serialize)]
pub struct ShapeCheck {
    /// Stable identifier, e.g. `fig2.gluster-best`.
    pub id: String,
    /// The paper claim being encoded.
    pub claim: String,
    /// Did the regenerated data satisfy it?
    pub passed: bool,
    /// Measured values backing the verdict.
    pub detail: String,
    /// The least relative slack of its comparisons (see DESIGN.md, *How a
    /// claim is checked*): positive when the claim holds with room to
    /// spare, negative when it fails. `None` for a categorical check, and
    /// when a value is missing.
    pub margin: Option<f64>,
}

/// How the values of a comparison print.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Unit {
    /// Seconds (`1478s`).
    Secs,
    /// A factor over a clean run (`1.063x`).
    Ratio,
    /// Dollars (`$0.207`).
    Usd,
    /// A plain count.
    Count,
}

/// The relation a comparison asserts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rel {
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

use Rel::{Ge, Gt, Le, Lt};
use Unit::{Count, Ratio, Secs, Usd};

/// One side of a comparison: what it is, and its value.
pub(crate) type Side = (String, f64);

/// One comparison a claim makes, or a categorical fact.
#[derive(Debug, Clone)]
pub(crate) enum Cmp {
    /// `left rel factor × right`, both values printed in the unit.
    Num(Side, Rel, Side, f64, Unit),
    /// A category, not an inequality: what was seen, and whether it
    /// satisfies the claim. It has no slack.
    Fact(String, bool),
}

impl Cmp {
    /// `left rel right`.
    pub(crate) fn new(unit: Unit, left: Side, rel: Rel, right: Side) -> Cmp {
        Cmp::Num(left, rel, right, 1.0, unit)
    }

    /// Scale the right value by `k`: `g * 1.3` is `.times(1.3)`.
    pub(crate) fn times(mut self, k: f64) -> Cmp {
        if let Cmp::Num(_, _, _, factor, _) = &mut self {
            *factor = k;
        }
        self
    }

    /// Does it hold? A comparison with a NaN never does.
    pub(crate) fn holds(&self) -> bool {
        match *self {
            Cmp::Fact(_, holds) => holds,
            Cmp::Num((_, a), Lt, (_, b), k, _) => a < b * k,
            Cmp::Num((_, a), Le, (_, b), k, _) => a <= b * k,
            Cmp::Num((_, a), Gt, (_, b), k, _) => a > b * k,
            Cmp::Num((_, a), Ge, (_, b), k, _) => a >= b * k,
        }
    }

    /// With `R = right × factor`: `(R − left)/|R|` for `<` and `≤`,
    /// `(left − R)/|R|` for `>` and `≥`. Positive when it holds with room;
    /// 0 on an exact tie (where `≤` holds and `<` fails). `None` for a
    /// fact, and when the slack is not finite (a NaN or ∞ value, `R = 0`).
    pub(crate) fn slack(&self) -> Option<f64> {
        let Cmp::Num((_, a), rel, (_, b), k, _) = *self else {
            return None;
        };
        let r = b * k;
        let s = if matches!(rel, Lt | Le) { r - a } else { a - r } / r.abs();
        Some(s).filter(|s| s.is_finite())
    }
}

impl fmt::Display for Cmp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ((left, a), rel, (right, b), k, unit) = match self {
            Cmp::Num(left, rel, right, k, unit) => (left, rel, right, k, unit),
            Cmp::Fact(label, _) => return f.write_str(label),
        };
        let show = |v: &f64| match unit {
            Secs => format!("{v:.0}s"),
            Ratio => format!("{v:.3}x"),
            Usd => format!("${v:.3}"),
            Count => format!("{v:.0}"),
        };
        let op = match rel {
            Lt => "<",
            Le => "≤",
            Gt => ">",
            Ge => "≥",
        };
        let k = if *k == 1.0 {
            String::new()
        } else {
            format!("{k} × ")
        };
        write!(f, "{left} {} {op} {k}{right} {}", show(a), show(b))
    }
}

/// A detail line lists every comparison of a check with at most this many.
const LISTED: usize = 6;

/// The one way a claim becomes a [`ShapeCheck`]: it passes when every
/// comparison holds, and its margin is the least slack — `None` as soon
/// as one comparison has none, so a missing value is never skipped over.
pub(crate) fn check(id: &str, claim: &str, cmps: impl IntoIterator<Item = Cmp>) -> ShapeCheck {
    let cmps: Vec<Cmp> = cmps.into_iter().collect();
    let margin = (cmps.iter().map(Cmp::slack))
        .try_fold(f64::INFINITY, |m, s| s.map(|s| m.min(s)))
        .filter(|m| m.is_finite());
    // A longer list shows what fails or, if nothing does, the closest.
    let room = |c: &&Cmp| c.slack().unwrap_or(f64::INFINITY);
    let closest = || cmps.iter().min_by(|a, b| room(a).total_cmp(&room(b)));
    let shown: Vec<&Cmp> = match cmps.iter().filter(|c| !c.holds()).collect::<Vec<_>>() {
        _ if cmps.len() <= LISTED => cmps.iter().collect(),
        failing if !failing.is_empty() => failing,
        _ => closest().into_iter().collect(),
    };
    let shown_text: Vec<String> = shown.iter().map(|c| c.to_string()).collect();
    let mut detail = shown_text.join("; ");
    if shown.len() < cmps.len() {
        detail += &format!(" ({} of {} comparisons)", shown.len(), cmps.len());
    }
    ShapeCheck {
        id: id.to_string(),
        claim: claim.to_string(),
        passed: cmps.iter().all(Cmp::holds),
        detail,
        margin,
    }
}

const GLUSTERS: [StorageKind; 2] = [Nufa, Dist];

/// The multi-node sizes of Figs 2–4.
const MULTI: [u32; 3] = [2, 4, 8];

/// One cell's makespan, as `S3@4`; NaN when the cell is missing, so every
/// comparison with it fails.
fn cell(fig: &RuntimeFigure, s: StorageKind, n: u32) -> Side {
    (format!("{s:?}@{n}"), fig.makespan(s, n).unwrap_or(f64::NAN))
}

/// The makespan of `kinds` at `n` nodes that `keep` keeps over the
/// others, as `label@n`; NaN when none ran, as in [`cell`].
fn extreme(
    fig: &RuntimeFigure,
    label: &str,
    kinds: &[StorageKind],
    n: u32,
    keep: fn(f64, f64) -> f64,
) -> Side {
    let v = kinds
        .iter()
        .filter_map(|s| fig.makespan(*s, n))
        .reduce(keep);
    (format!("{label}@{n}"), v.unwrap_or(f64::NAN))
}

/// The fastest of `kinds` at `n` nodes, as `label@n` (NaN when none ran).
fn fastest(fig: &RuntimeFigure, label: &str, kinds: &[StorageKind], n: u32) -> Side {
    extreme(fig, label, kinds, n, f64::min)
}

/// Checks over Fig 2 (Montage runtimes).
pub fn check_fig2(fig: &RuntimeFigure) -> Vec<ShapeCheck> {
    assert_eq!(fig.app, App::Montage);
    let gluster = |n| fastest(fig, "gluster", &GLUSTERS, n);
    let others = |n| fastest(fig, "others' best", &[S3, Nfs, Pvfs], n);
    let poor = |n| [S3, Pvfs].map(|s| Cmp::new(Secs, cell(fig, s, n), Gt, gluster(n)).times(1.3));
    vec![
        // §V.A: "GlusterFS ... both the NUFA and distribute modes
        // producing significantly better performance than the other
        // storage systems."
        check(
            "fig2.gluster-best",
            "GlusterFS (both modes) beats every other system for Montage",
            MULTI.map(|n| Cmp::new(Secs, gluster(n), Lt, others(n))),
        ),
        // §V.A: "NFS does relatively well for Montage, beating even the
        // local disk in the single node case." Our symmetric page-cache
        // model puts them within a few percent with local slightly ahead
        // — checked as a near-tie (documented deviation D1).
        check(
            "fig2.nfs-vs-local-1node",
            "NFS is competitive with the local disk on one node (paper: slightly faster; ours: near-tie, deviation D1)",
            [Cmp::new(Secs, cell(fig, Nfs, 1), Le, cell(fig, Local, 1)).times(1.10)],
        ),
        // §V.A: "The relatively poor performance of S3 and PVFS may be a
        // result of Montage accessing a large number of small files."
        check(
            "fig2.s3-pvfs-poor",
            "S3 and PVFS are clearly worse than GlusterFS for Montage (many small files)",
            MULTI.into_iter().flat_map(poor),
        ),
    ]
}

/// Checks over Fig 3 (Epigenome runtimes).
pub fn check_fig3(fig: &RuntimeFigure) -> Vec<ShapeCheck> {
    assert_eq!(fig.app, App::Epigenome);
    let all = StorageKind::EVALUATED;
    let spread = |n| {
        let slowest = extreme(fig, "slowest", &all, n, f64::max);
        Cmp::new(Secs, slowest, Le, fastest(fig, "fastest", &all, n)).times(1.25)
    };
    let gluster = |n| fastest(fig, "gluster", &GLUSTERS, n);
    let remote = fastest(fig, "best remote", &[S3, Nfs], 1);
    vec![
        // §V.B: "the performance was almost the same for all storage
        // systems."
        check(
            "fig3.insensitive",
            "Epigenome is nearly insensitive to the storage choice",
            MULTI.map(spread),
        ),
        // §V.B: "for Epigenome the local disk was significantly faster"
        // (at one node). Our model lands local within 2 % of the best
        // single-node system (deviation D2).
        check(
            "fig3.local-fastest-1node",
            "Local disk is at worst within 2% of the best system on one node (paper: clearly fastest; deviation D2)",
            [Cmp::new(Secs, cell(fig, Local, 1), Le, remote).times(1.02)],
        ),
        // §V.B: "S3 and PVFS performing slightly worse than NFS and
        // GlusterFS".
        check(
            "fig3.s3-slightly-worse",
            "S3 is no faster than GlusterFS for Epigenome",
            [2, 4].map(|n| Cmp::new(Secs, cell(fig, S3, n), Ge, gluster(n)).times(0.98)),
        ),
    ]
}

/// Checks over Fig 4 (Broadband runtimes).
pub fn check_fig4(fig: &RuntimeFigure) -> Vec<ShapeCheck> {
    assert_eq!(fig.app, App::Broadband);
    let others = |n| fastest(fig, "others' best", &[Nfs, Nufa, Dist, Pvfs], n);
    let nufa = |n| Cmp::new(Secs, cell(fig, Nufa, n), Le, cell(fig, Dist, n)).times(1.01);
    let best4 = || fastest(fig, "best of S3/NUFA", &[S3, Nufa], 4);
    let mut out = vec![
        // §V.C: "the best overall performance for Broadband was achieved
        // using Amazon S3".
        check(
            "fig4.s3-best",
            "S3 gives the best Broadband performance (input reuse + client cache)",
            MULTI.map(|n| Cmp::new(Secs, cell(fig, S3, n), Le, others(n))),
        ),
        // §V.C: "GlusterFS (NUFA) results in better performance than
        // GlusterFS (distribute)" for the mini-pipeline transformations.
        check(
            "fig4.nufa-beats-distribute",
            "NUFA beats distribute for Broadband (pipeline locality)",
            MULTI.map(nufa),
        ),
        // §V.C: NFS at 4 nodes (5363 s) is far worse than GlusterFS and
        // S3 (<3000 s), and the 2→4 node step makes NFS *worse* in
        // absolute terms.
        check(
            "fig4.nfs-cliff",
            "NFS collapses for Broadband at 4 nodes (paper: 5363s vs <3000s for GlusterFS/S3)",
            [Cmp::new(Secs, cell(fig, Nfs, 4), Gt, best4()).times(1.4)],
        ),
        check(
            "fig4.nfs-2to4-regression",
            "Adding nodes 2→4 makes NFS Broadband *slower* in absolute terms (§V.C)",
            [Cmp::new(Secs, cell(fig, Nfs, 4), Ge, cell(fig, Nfs, 2))],
        ),
    ];
    // §V.C: the m2.4xlarge server helps (paper 5363 → 4368 s) but stays
    // significantly worse than GlusterFS and S3 (<3000 s).
    if let Some(m24) = &fig.nfs_m24 {
        let v = || ("m2.4xlarge Nfs@4".to_string(), m24.makespan_secs);
        out.push(check(
            "fig4.m24-partial-fix",
            "A 64 GB m2.4xlarge NFS server improves the 4-node run but does not fix it",
            [
                Cmp::new(Secs, v(), Lt, cell(fig, Nfs, 4)),
                Cmp::new(Secs, v(), Gt, best4()).times(1.2),
            ],
        ));
    }
    out
}

/// Checks over Figs 5–7 (costs) given the three runtime figures.
pub fn check_costs(figs: &[RuntimeFigure]) -> Vec<ShapeCheck> {
    let by_app = |a: App| figs.iter().find(|f| f.app == a).expect("figure present");
    let per_second = |c: &CellResult| {
        let k = &c.cell;
        let at = format!("{} {:?}@{} per-second", k.app, k.storage, k.workers);
        let hour = ("per-hour".to_string(), c.cost_per_hour_usd + 1e-9);
        Cmp::new(Usd, (at, c.cost_per_second_usd), Le, hour)
    };
    // §VI names each app's cheapest configuration: a category, where the
    // first of equal minima in cell order wins.
    let cheapest = |id: &str, claim: &str, app: App, wanted: fn(StorageKind, u32) -> bool| {
        let c = (by_app(app).cells.iter())
            .min_by(|a, b| a.cost_per_hour_usd.total_cmp(&b.cost_per_hour_usd))
            .expect("cells");
        let (s, n) = (c.cell.storage, c.cell.workers);
        let seen = format!("cheapest: {s:?}@{n} ${:.2}", c.cost_per_hour_usd);
        check(id, claim, [Cmp::Fact(seen, wanted(s, n))])
    };
    let mut out = vec![
        // §VI: per-second charges are below per-hour charges everywhere.
        check(
            "fig567.per-second-cheaper",
            "Per-second billing never exceeds per-hour billing (§VI)",
            figs.iter().flat_map(|f| &f.cells).map(per_second),
        ),
        // "For Montage the lowest cost solution was GlusterFS on two
        // nodes." The 1-node local disk ties at one billed hour.
        cheapest(
            "fig5.montage-cheapest",
            "Montage's cheapest configuration is GlusterFS@2 (or the one-hour Local tie)",
            App::Montage,
            |s, n| (GLUSTERS.contains(&s) && n == 2) || s == Local,
        ),
        // "For Epigenome the lowest cost solution was a single node using
        // the local disk."
        cheapest(
            "fig6.epigenome-cheapest",
            "Epigenome's cheapest configuration is the single-node local disk",
            App::Epigenome,
            |s, _| s == Local,
        ),
        // "For Broadband the local disk, GlusterFS and S3 all tied for the
        // lowest cost" — NFS is never cheapest.
        cheapest(
            "fig7.broadband-cheapest",
            "Broadband's cheapest configuration is local/GlusterFS/S3, never NFS",
            App::Broadband,
            |s, _| s != Nfs,
        ),
    ];

    // §VI: "In all other cases the cost of the workflows only increased
    // when resources were added" (the paper found exactly two exceptions,
    // both NFS 1→2). Count our exceptions under per-hour billing, from
    // each cell to the next larger one that ran.
    let mut exceptions = Vec::new();
    for (f, s) in figs
        .iter()
        .flat_map(|f| StorageKind::EVALUATED.map(|s| (f, s)))
    {
        let ran = NODE_COUNTS.map(|n| f.cell(s, n).map(|c| (n, c.cost_per_hour_usd)));
        let ran: Vec<(u32, f64)> = ran.into_iter().flatten().collect();
        for w in ran.windows(2) {
            let ((pn, pc), (n, c)) = (w[0], w[1]);
            // Ignore sub-2-cent hour-rounding noise; the paper's two
            // exceptions were whole extra hours.
            if c < pc - 0.02 {
                exceptions.push(format!("{:?}/{s:?} {pn}→{n}", f.app));
            }
        }
    }
    let count = exceptions.len() as f64;
    let count = (format!("exceptions {exceptions:?}"), count);
    out.push(check(
        "fig567.cost-grows-with-nodes",
        "Adding nodes (almost) never reduces cost; the paper saw only two NFS exceptions",
        [Cmp::new(Count, count, Le, ("the paper's".into(), 2.0))],
    ));

    // §VI: S3 request surcharges ≈ $0.28 (Montage), $0.01 (Epigenome),
    // $0.02 (Broadband). Shape target: Montage ≫ Broadband ≥ Epigenome,
    // all under a dollar.
    let fee = |app: App| {
        let s3 = by_app(app).cells.iter().filter(|c| c.cell.storage == S3);
        let usd = s3.map(|c| {
            let (gets, puts) = c.s3_requests;
            wfcost::request_cents(puts, gets) / 100.0
        });
        (app.to_string(), usd.fold(0.0f64, f64::max))
    };
    let (m, e, b) = (fee(App::Montage), fee(App::Epigenome), fee(App::Broadband));
    let usd = |left: &Side, rel, right: &Side| Cmp::new(Usd, left.clone(), rel, right.clone());
    let (floor, cap) = (|v| ("floor".to_string(), v), |v| ("ceiling".to_string(), v));
    out.push(check(
        "fig567.s3-surcharge",
        "S3 request fees: Montage ≈ $0.28 ≫ Broadband, Epigenome ≈ cents (§VI)",
        [
            usd(&m, Ge, &floor(0.08)),
            usd(&m, Le, &cap(0.60)),
            usd(&e, Lt, &cap(0.03)),
            usd(&b, Lt, &cap(0.08)),
            usd(&m, Gt, &b),
            usd(&m, Gt, &e),
        ],
    ));
    out
}

/// Checks over Table I.
pub fn check_table1(t: &Table1) -> Vec<ShapeCheck> {
    let want = [
        (App::Montage, Grade::High, Grade::Low, Grade::Low),
        (App::Broadband, Grade::Medium, Grade::High, Grade::Medium),
        (App::Epigenome, Grade::Low, Grade::Medium, Grade::High),
    ];
    let fact = |(app, io, mem, cpu)| {
        let got = t.rows.iter().find(|(a, _)| *a == app).map(|(_, u)| *u);
        let holds = got.is_some_and(|u| u.io == io && u.memory == mem && u.cpu == cpu);
        Cmp::Fact(format!("{app}: {got:?}"), holds)
    };
    vec![check(
        "table1.grades",
        "Table I resource-usage grades match the paper exactly",
        want.map(fact),
    )]
}

/// Checks over the XtreemFS note.
pub fn check_xtreemfs(x: &XtreemFsNote) -> Vec<ShapeCheck> {
    let twice = |&(app, xs, best): &(App, f64, f64)| {
        let best = ("best".to_string(), best);
        Cmp::new(Secs, (format!("{app}: XtreemFS"), xs), Gt, best).times(2.0)
    };
    vec![check(
        "xtreemfs.2x",
        "XtreemFS takes more than twice as long as the reported systems (§IV)",
        x.rows.iter().map(twice),
    )]
}

/// All checks over a full set of regenerated experiments.
pub fn check_all(
    figs: &[RuntimeFigure],
    table: &Table1,
    xtreemfs: &XtreemFsNote,
) -> Vec<ShapeCheck> {
    let by_app = |a: App| figs.iter().find(|f| f.app == a).expect("figure present");
    let mut out = Vec::new();
    out.extend(check_fig2(by_app(App::Montage)));
    out.extend(check_fig3(by_app(App::Epigenome)));
    out.extend(check_fig4(by_app(App::Broadband)));
    out.extend(check_costs(figs));
    out.extend(check_table1(table));
    out.extend(check_xtreemfs(xtreemfs));
    out
}
