//! Regenerate every table and figure of *Data Sharing Options for
//! Scientific Workflows on Amazon EC2* (Juve et al., SC 2010).
//!
//! ```text
//! cargo run --release -p expt --bin repro [-- --seed N] [--skip-ablations]
//! ```
//!
//! Prints Table I, the §III.C disk microbenchmark, Figs 2–7, the XtreemFS
//! note, the ablation table and the shape-check scoreboard; writes the
//! whole dataset to `reports/repro-<seed>.json`. Any other argument is
//! rejected with exit status 2. The golden digest and OTLP fixtures are
//! checked by `cargo test -p expt --test golden_run`.

use expt::figures::{runtime_figure, table1, xtreemfs_note};
use expt::{ablations, analysis, future_work, microbench, render, Report};
use std::time::Instant;
use wfgen::App;

/// Report a bad command line and exit with status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("repro: {msg}\nusage: repro [--seed N] [--skip-ablations]");
    std::process::exit(2);
}

fn main() {
    let mut seed = 42u64;
    let mut skip_ablations = false;
    let mut rest = std::env::args().skip(1);
    while let Some(a) = rest.next() {
        if a == "--seed" {
            match rest.next().and_then(|v| v.parse().ok()) {
                Some(s) => seed = s,
                None => usage_error("--seed needs an unsigned integer"),
            }
        } else if a == "--skip-ablations" {
            skip_ablations = true;
        } else {
            usage_error(&format!("unknown argument `{a}`"));
        }
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
