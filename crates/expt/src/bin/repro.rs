//! Regenerate every table and figure of *Data Sharing Options for
//! Scientific Workflows on Amazon EC2* (Juve et al., SC 2010).
//!
//! ```text
//! cargo run --release -p expt --bin repro [-- --seed N] [--skip-ablations]
//! cargo run --release -p expt --bin repro -- --bench-smoke [--update]
//! ```
//!
//! Prints Table I, the §III.C disk microbenchmark, Figs 2–7, the XtreemFS
//! note, the ablation table and the shape-check scoreboard; writes the
//! whole dataset to `reports/repro-<seed>.json`.

use expt::figures::{runtime_figure, table1, xtreemfs_note};
use expt::{ablations, analysis, future_work, microbench, render, Report};
use std::time::Instant;
use wfgen::App;

/// Path of the checked-in golden digest, relative to the repo root
/// (where `scripts/verify.sh` runs).
const GOLDEN_PATH: &str = "tests/golden_digest.txt";

/// Path of the checked-in golden OTLP trace.
const GOLDEN_OTLP_PATH: &str = "tests/golden_otlp.json";

/// The fixed golden workflow: a small diamond, run on GlusterFS/NUFA
/// with 2 workers, seed 42.
fn golden_workflow() -> wfdag::Workflow {
    let mut b = wfdag::WorkflowBuilder::new("golden");
    let fin = b.file("in.dat", 5_000_000);
    let f1 = b.file("f1.dat", 5_000_000);
    let f2 = b.file("f2.dat", 5_000_000);
    let f3 = b.file("f3.dat", 5_000_000);
    let fout = b.file("out.dat", 5_000_000);
    b.task("a", "gen", 2.0, 100 << 20, vec![fin], vec![f1, f2]);
    b.task("b", "lhs", 3.0, 100 << 20, vec![f1], vec![f3]);
    b.task("c", "rhs", 3.0, 100 << 20, vec![f2], vec![fout]);
    let f4 = b.file("out2.dat", 5_000_000);
    b.task("d", "join", 1.0, 100 << 20, vec![f3], vec![f4]);
    b.build().expect("golden workflow is well-formed")
}

/// Run the golden workflow and return its run digest. Any change to
/// event ordering, payloads or timing anywhere in the stack moves this
/// value; `verify.sh` compares it against [`GOLDEN_PATH`].
fn golden_digest_run() -> u64 {
    let cfg = wfengine::RunConfig::cell(expt::StorageKind::GlusterNufa, 2)
        .with_seed(42)
        .with_obs(wfobs::ObsLevel::Digest);
    wfengine::run_workflow(golden_workflow(), cfg)
        .expect("golden run succeeds")
        .digest
        .expect("digest present at ObsLevel::Digest")
}

/// Run the golden workflow at Full observability and render its OTLP
/// trace document. Pins the whole export pipeline — event stream, span
/// mapping, id derivation, JSON shape — byte for byte; `verify.sh`
/// compares it against [`GOLDEN_OTLP_PATH`].
fn golden_otlp_run() -> String {
    let wf = golden_workflow();
    let cfg = wfengine::RunConfig::cell(expt::StorageKind::GlusterNufa, 2)
        .with_seed(42)
        .with_obs(wfobs::ObsLevel::Full);
    let stats = wfengine::run_workflow(wf.clone(), cfg).expect("golden run succeeds");
    let report = stats.obs.as_ref().expect("report present at Full");
    let labels = wfengine::otlp_labels(&stats, &wf, expt::StorageKind::GlusterNufa.label(), 2);
    let doc = wfobs::otlp_trace(report, &labels);
    assert_eq!(
        doc,
        wfobs::otlp_trace(report, &labels),
        "OTLP export must be byte-deterministic"
    );
    doc
}

/// One engine's best wall time recorded in an existing `BENCH.json`, if
/// present and well-formed.
fn baseline_min_ms(doc: &serde_json::Value, engine: &str) -> Option<f64> {
    for e in doc.get("engines")?.as_array()? {
        if matches!(e.get("engine"), Some(serde_json::Value::Str(s)) if s == engine) {
            return match e.get("min_ms")? {
                serde_json::Value::F64(f) => Some(*f),
                serde_json::Value::I64(n) => Some(*n as f64),
                serde_json::Value::U64(n) => Some(*n as f64),
                _ => None,
            };
        }
    }
    None
}

/// The committed baseline for the disabled-bus regression gate:
/// `(incremental min_ms, naive min_ms)` from the existing `BENCH.json`.
fn bench_baseline() -> Option<(f64, f64)> {
    let text = std::fs::read_to_string("BENCH.json").ok()?;
    let doc: serde_json::Value = serde_json::from_str(&text).ok()?;
    Some((
        baseline_min_ms(&doc, "incremental")?,
        baseline_min_ms(&doc, "naive")?,
    ))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(42u64);
    let skip_ablations = args.iter().any(|a| a == "--skip-ablations");

    if args.iter().any(|a| a == "--golden-digest") {
        // Replay-verification golden check: the tiny fixed workflow must
        // reproduce the checked-in digest bit for bit.
        let hex = format!("{:016x}", golden_digest_run());
        if args.iter().any(|a| a == "--update") {
            std::fs::write(GOLDEN_PATH, format!("{hex}\n")).expect("write golden digest");
            println!("golden digest updated: {hex} -> {GOLDEN_PATH}");
            return;
        }
        let want = std::fs::read_to_string(GOLDEN_PATH)
            .unwrap_or_else(|e| panic!("read {GOLDEN_PATH} (run with --update to create): {e}"));
        if want.trim() != hex {
            eprintln!(
                "golden digest mismatch: got {hex}, expected {} — the event \
                 stream of the fixed workflow changed; if intentional, rerun \
                 with --golden-digest --update",
                want.trim()
            );
            std::process::exit(1);
        }
        println!("golden digest ok: {hex}");
        return;
    }

    if args.iter().any(|a| a == "--golden-otlp") {
        // Export-conformance golden check: the fixed workflow's OTLP
        // trace must reproduce the checked-in document byte for byte.
        let doc = golden_otlp_run();
        if args.iter().any(|a| a == "--update") {
            std::fs::write(GOLDEN_OTLP_PATH, &doc).expect("write golden OTLP");
            println!(
                "golden OTLP updated: {} bytes -> {GOLDEN_OTLP_PATH}",
                doc.len()
            );
            return;
        }
        let want = std::fs::read_to_string(GOLDEN_OTLP_PATH).unwrap_or_else(|e| {
            panic!("read {GOLDEN_OTLP_PATH} (run with --update to create): {e}")
        });
        if want != doc {
            eprintln!(
                "golden OTLP mismatch ({} bytes vs expected {}) — the exported \
                 span tree of the fixed workflow changed; if intentional, rerun \
                 with --golden-otlp --update",
                doc.len(),
                want.len()
            );
            std::process::exit(1);
        }
        println!("golden OTLP ok: {} bytes", doc.len());
        return;
    }

    if args.iter().any(|a| a == "--bench-smoke") {
        // Quick kernel perf smoke: time the incremental engine against the
        // preserved reference solver and gate it on the committed
        // BENCH.json, which only `--bench-smoke --update` rewrites.
        //
        // The kernel hot path runs with the event bus disabled; hold it to
        // within 5% of the committed baseline so instrumentation cost can
        // never creep into the default configuration unnoticed (the digest
        // bus alone costs ~15% on this path, so a real leak clears 5% by a
        // wide margin). Raw wall time shifts with machine load, so the
        // comparison is normalized by the co-measured reference solver
        // (both engines run unchanged byte-for-byte code in the same
        // process, so a sustained slowdown moves them together), and a
        // violation is re-measured up to twice before it is declared a
        // regression. The tolerance must stay above the benchmark's own
        // run-to-run jitter of min_ms on shared hosts (observed >2%).
        const TOLERANCE: f64 = 0.05;
        let update = args.iter().any(|a| a == "--update");
        let baseline = bench_baseline();
        let mut smoke = expt::perf::bench_smoke(20_000);
        print!("{}", expt::perf::render(&smoke));
        if let Some((old_inc, old_naive)) = baseline {
            let minutes = |s: &expt::perf::BenchSmoke, name: &str| {
                s.engines
                    .iter()
                    .find(|e| e.engine == name)
                    .expect("engine timing present")
                    .min_ms
            };
            for attempt in 1..=3u32 {
                let inc = minutes(&smoke, "incremental");
                let naive = minutes(&smoke, "naive");
                let scale = naive / old_naive;
                let bound = old_inc * scale * (1.0 + TOLERANCE);
                println!(
                    "  disabled-bus check: {inc:.2}ms vs baseline {old_inc:.2}ms \
                     × load {scale:.3} → bound {bound:.2}ms"
                );
                if inc <= bound {
                    break;
                }
                if attempt == 3 {
                    eprintln!(
                        "disabled-bus kernel path regressed: {inc:.2}ms vs \
                         load-normalized bound {bound:.2}ms (>{:.0}%) on 3 attempts",
                        TOLERANCE * 100.0
                    );
                    std::process::exit(1);
                }
                println!("  over bound — re-measuring ({attempt}/3)…");
                smoke = expt::perf::bench_smoke(20_000);
                print!("{}", expt::perf::render(&smoke));
            }
        }
        if !update {
            println!("BENCH.json unchanged (rerun with --bench-smoke --update to record this run)");
            return;
        }
        std::fs::write(
            "BENCH.json",
            serde_json::to_string_pretty(&smoke).expect("serialise bench smoke"),
        )
        .expect("write BENCH.json");
        println!("written to BENCH.json");
        return;
    }

    let t0 = Instant::now();
    println!("Reproducing Juve et al., SC 2010 (seed {seed})\n");

    let t1 = table1();
    print!("{}", render::table1(&t1));
    println!();

    let mb = microbench::run();
    print!("{}", render::microbench(&mb));
    println!();

    let mut figs = Vec::new();
    for (app, number) in [
        (App::Montage, 2u32),
        (App::Epigenome, 3),
        (App::Broadband, 4),
    ] {
        let t = Instant::now();
        let fig = runtime_figure(app, seed);
        print!("{}", render::runtime_figure(&fig, number));
        println!("  ({} cells in {:.1?})\n", fig.cells.len(), t.elapsed());
        figs.push(fig);
    }
    // Cost figures in the paper's numbering: 5=Montage, 6=Epigenome,
    // 7=Broadband.
    for (ix, number) in [(0usize, 5u32), (1, 6), (2, 7)] {
        let cf = expt::cost_figure(&figs[ix]);
        print!("{}", render::cost_figure(&cf, number));
        println!();
    }

    let x = xtreemfs_note(seed);
    print!("{}", render::xtreemfs(&x));
    println!();

    let abl = if skip_ablations {
        None
    } else {
        let t = Instant::now();
        let a = ablations::run(seed);
        print!("{}", ablations::render(&a));
        println!("  (ablations in {:.1?})\n", t.elapsed());
        Some(a)
    };

    let fw = if skip_ablations {
        None
    } else {
        let t = Instant::now();
        let f = future_work::run(&figs, seed);
        print!("{}", future_work::render(&f));
        println!("  (future work in {:.1?})\n", t.elapsed());
        Some(f)
    };

    let faults = if skip_ablations {
        None
    } else {
        let t = Instant::now();
        let study = expt::faults::run_f2(&App::ALL, seed);
        print!("{}", expt::faults::render(&study));
        println!("  (fault study in {:.1?})\n", t.elapsed());
        Some(study)
    };

    let clustering = if skip_ablations {
        None
    } else {
        let t = Instant::now();
        let rows = analysis::clustering_study(seed);
        print!("{}", analysis::render_clustering(&rows));
        println!("  (clustering study in {:.1?})\n", t.elapsed());
        Some(rows)
    };

    for fig in &figs {
        print!(
            "{}",
            analysis::render_speedup(fig.app, &analysis::speedup_table(fig))
        );
        println!();
    }

    {
        // E9: wrap the best measured makespans with provisioning and WAN
        // staging (the paper's excluded edges).
        let best = |ix: usize| -> f64 {
            figs[ix]
                .cells
                .iter()
                .filter(|c| c.cell.workers == 4 || c.cell.workers == 1)
                .map(|c| c.makespan_secs)
                .fold(f64::INFINITY, f64::min)
        };
        let rows = expt::staging::end_to_end(
            &[
                (wfgen::App::Montage, best(0)),
                (wfgen::App::Epigenome, best(1)),
                (wfgen::App::Broadband, best(2)),
            ],
            seed,
        );
        print!("{}", expt::staging::render(&rows));
        println!();
    }

    if !skip_ablations {
        println!("Seed robustness (Broadband @ 4 nodes, seeds 7/42/1234):");
        for r in analysis::seed_robustness(wfgen::App::Broadband, 4, &[7, 42, 1234]) {
            println!(
                "  {:<24} {:>7.0}s … {:>7.0}s (mean {:>7.0}s)",
                r.storage.label(),
                r.min_secs,
                r.max_secs,
                r.mean_secs
            );
        }
        println!();
        print!(
            "{}",
            analysis::bottleneck_report(wfgen::App::Broadband, expt::StorageKind::Nfs, 4, seed)
        );
        println!();
    }

    let report = Report::assemble(seed, t1, mb, figs, x, abl, fw, faults, clustering);
    print!("{}", render::shape_checks(&report.checks));

    let (passed, total) = report.score();
    std::fs::create_dir_all("reports").expect("create reports/");
    let path = format!("reports/repro-{seed}.json");
    std::fs::write(
        &path,
        serde_json::to_string_pretty(&report).expect("serialise report"),
    )
    .expect("write report");
    for fig in &report.runtime_figures {
        let label = fig.app.label().to_lowercase();
        std::fs::write(
            format!("reports/runtime-{label}-{seed}.csv"),
            render::runtime_csv(fig),
        )
        .expect("write runtime csv");
    }
    for cf in &report.cost_figures {
        let label = cf.app.label().to_lowercase();
        std::fs::write(
            format!("reports/cost-{label}-{seed}.csv"),
            render::cost_csv(cf),
        )
        .expect("write cost csv");
    }
    println!("\n{passed}/{total} shape checks passed; full dataset written to {path}");
    println!("total wall time {:.1?}", t0.elapsed());
}
