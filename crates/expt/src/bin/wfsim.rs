//! `wfsim` — a command-line driver for the simulator, for users who want
//! to poke at configurations without writing Rust.
//!
//! ```text
//! wfsim run    --app montage --storage glusterfs-nufa --workers 4
//!              [--tiny] [--seed N] [--data-aware] [--cluster K]
//!              [--failures P --retries K] [--gantt] [--live]
//!              [--trace FILE] [--trace-out FILE] [--metrics-out FILE]
//!              [--otlp-out DIR] [--folded-out FILE]
//! wfsim sweep  --app broadband [--tiny] [--seed N]
//! wfsim profile --app epigenome
//! wfsim export --app montage --tiny --out montage.json
//! wfsim run    --dax montage.json --storage s3 --workers 2
//! ```
//!
//! `run` prints the makespan, the phase breakdown, the hottest resources
//! and the run digest: where one configuration's time went.
//!
//! Unknown options are rejected with a "did you mean" hint — a typo like
//! `--otpl-out` fails fast instead of silently running without export.

use std::collections::HashMap;
use wfcost::BillingGranularity;
use wfdag::{cluster_horizontal, Workflow};
use wfengine::{
    jobstate_log, phase_breakdown, run_workflow, run_workflow_with_obs, trace, FailureModel,
    FaultPlan, RunConfig, SchedulerPolicy,
};
use wfgen::{classify, profile, App};
use wfstorage::StorageKind;

fn parse_storage(s: &str) -> StorageKind {
    match s {
        "local" => StorageKind::Local,
        "nfs" => StorageKind::Nfs,
        "glusterfs-nufa" | "nufa" => StorageKind::GlusterNufa,
        "glusterfs-distribute" | "distribute" => StorageKind::GlusterDistribute,
        "pvfs" => StorageKind::Pvfs,
        "s3" => StorageKind::S3,
        "xtreemfs" => StorageKind::XtreemFs,
        "direct" | "direct-transfer" => StorageKind::DirectTransfer,
        other => die(&format!("unknown storage {other:?}")),
    }
}

fn parse_app(s: &str) -> App {
    match s {
        "montage" => App::Montage,
        "broadband" => App::Broadband,
        "epigenome" => App::Epigenome,
        other => die(&format!(
            "unknown app {other:?} (montage|broadband|epigenome)"
        )),
    }
}

fn die(msg: &str) -> ! {
    eprintln!("wfsim: {msg}");
    eprintln!("try: wfsim run --app montage --storage glusterfs-nufa --workers 4 --tiny");
    std::process::exit(2);
}

/// Exit with status 2 unless `storage` can be deployed on `workers`
/// nodes, before anything is generated or run.
fn require_deployable(storage: StorageKind, workers: u32) {
    if !storage.admits(workers) {
        die(&format!(
            "storage {} cannot run on {workers} worker(s)",
            storage.label()
        ));
    }
}

struct Args {
    flags: Vec<String>,
    opts: HashMap<String, String>,
}

// Per-subcommand vocabularies: options take a value, flags don't.
const RUN_OPTS: &[&str] = &[
    "dax",
    "app",
    "cluster",
    "storage",
    "workers",
    "seed",
    "failures",
    "retries",
    "trace",
    "trace-out",
    "metrics-out",
    "otlp-out",
    "folded-out",
];
const RUN_FLAGS: &[&str] = &["tiny", "data-aware", "init-disks", "gantt", "live"];
const SWEEP_OPTS: &[&str] = &["app", "seed"];
const SWEEP_FLAGS: &[&str] = &["tiny"];
const PROFILE_OPTS: &[&str] = &["app"];
const EXPORT_OPTS: &[&str] = &["dax", "app", "out", "cluster"];
const EXPORT_FLAGS: &[&str] = &["tiny"];

fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur.push((prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

fn closest<'a>(key: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (levenshtein(key, c), c))
        .filter(|&(d, _)| d <= 3)
        .min()
        .map(|(_, c)| c)
}

/// Parse `--key value` options and `--flag` switches against the
/// subcommand's vocabulary. Anything unrecognised is a hard error with a
/// nearest-match hint — silent typos have cost real runs their exports.
fn parse_args(cmd: &str, argv: &[String], opt_keys: &[&str], flag_keys: &[&str]) -> Args {
    let mut flags = Vec::new();
    let mut opts = HashMap::new();
    let mut i = 0;
    while i < argv.len() {
        let a = &argv[i];
        let Some(key) = a.strip_prefix("--") else {
            die(&format!("unexpected argument {a:?} for `wfsim {cmd}`"));
        };
        if opt_keys.contains(&key) {
            match argv.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) => {
                    opts.insert(key.to_string(), v.clone());
                    i += 2;
                }
                None => die(&format!("--{key} requires a value")),
            }
        } else if flag_keys.contains(&key) {
            flags.push(key.to_string());
            i += 1;
        } else {
            let mut msg = format!("unknown option --{key} for `wfsim {cmd}`");
            if let Some(s) = closest(key, opt_keys.iter().chain(flag_keys.iter()).copied()) {
                msg.push_str(&format!(" (did you mean --{s}?)"));
            }
            die(&msg);
        }
    }
    Args { flags, opts }
}

fn load_workflow(args: &Args) -> Workflow {
    if let Some(path) = args.opts.get("dax") {
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        return wfdag::from_json(&json).unwrap_or_else(|e| die(&format!("bad workflow: {e}")));
    }
    let app = parse_app(
        args.opts
            .get("app")
            .unwrap_or_else(|| die("--app or --dax required")),
    );
    let mut wf = if args.flags.iter().any(|f| f == "tiny") {
        app.tiny_workflow()
    } else {
        app.paper_workflow()
    };
    if let Some(k) = args.opts.get("cluster") {
        let k: u32 = k
            .parse()
            .unwrap_or_else(|_| die("--cluster must be a number"));
        if k == 0 {
            die("--cluster must be at least 1 (1 leaves the workflow unclustered)");
        }
        wf = cluster_horizontal(&wf, k);
    }
    wf
}

fn build_config(args: &Args) -> RunConfig {
    let storage = parse_storage(args.opts.get("storage").map_or("glusterfs-nufa", |s| s));
    let workers: u32 = args
        .opts
        .get("workers")
        .map_or(Ok(2), |w| w.parse())
        .unwrap_or_else(|_| die("--workers must be a number"));
    require_deployable(storage, workers);
    let mut cfg = RunConfig::cell(storage, workers);
    if let Some(seed) = args.opts.get("seed") {
        cfg.seed = seed
            .parse()
            .unwrap_or_else(|_| die("--seed must be a number"));
    }
    if args.flags.iter().any(|f| f == "data-aware") {
        cfg.scheduler = SchedulerPolicy::DataAware;
    }
    if args.flags.iter().any(|f| f == "init-disks") {
        cfg.initialize_disks = true;
    }
    if let Some(p) = args.opts.get("failures") {
        let prob: f64 = p
            .parse()
            .ok()
            .filter(|p: &f64| (0.0..=1.0).contains(p))
            .unwrap_or_else(|| die("--failures must be a probability in [0, 1]"));
        let max_retries: u32 = args
            .opts
            .get("retries")
            .map_or(Ok(3), |r| r.parse())
            .unwrap_or_else(|_| die("--retries must be a number"));
        cfg.faults = Some(FaultPlan::from_failure_model(FailureModel {
            prob,
            max_retries,
        }));
    }
    cfg
}

/// Node labels and billing rates for the live viewer, mirroring the
/// cluster the engine will provision: workers `w0..wn-1` first, then the
/// storage server (`srv`) when the backend uses one.
fn tui_config(wf: &Workflow, cfg: &RunConfig, backend: &str) -> wfobs::TuiConfig {
    let spec = cfg.cluster_spec();
    let rate = |t: vcluster::InstanceType| wfobs::NodeRate {
        cents_per_hour: t.price_cents_per_hour(),
        spot_cents_per_hour: t.spot_price_cents_per_hour(),
    };
    let mut node_names: Vec<String> = (0..spec.workers).map(|i| format!("w{i}")).collect();
    let mut node_rates: Vec<wfobs::NodeRate> =
        (0..spec.workers).map(|_| rate(spec.worker_type)).collect();
    if let Some(srv) = spec.storage_server {
        node_names.push("srv".to_owned());
        node_rates.push(rate(srv));
    }
    wfobs::TuiConfig {
        title: wf.name.clone(),
        backend: backend.to_owned(),
        total_tasks: wf.task_count() as u32,
        task_names: wf.tasks().iter().map(|t| t.name.clone()).collect(),
        node_names,
        node_rates,
        ..wfobs::TuiConfig::default()
    }
}

fn cmd_run(args: &Args) {
    let mut cfg = build_config(args);
    let wf = load_workflow(args);
    // Exporters need the recorded event stream; everything else runs at
    // Digest level (streaming hash + sink fan-out, bounded memory) so the
    // end-of-run summary always has a digest to report.
    cfg.obs = if args.opts.contains_key("trace-out")
        || args.opts.contains_key("metrics-out")
        || args.opts.contains_key("otlp-out")
        || args.opts.contains_key("folded-out")
    {
        wfobs::ObsLevel::Full
    } else {
        wfobs::ObsLevel::Digest
    };
    let workers = cfg.workers;
    let storage_label = cfg.storage.label();
    println!(
        "running {} ({} tasks) on {} with {} worker(s)…",
        wf.name,
        wf.task_count(),
        storage_label,
        workers
    );
    let wf_for_log = wf.clone();
    let obs = wfobs::ObsHandle::new(cfg.obs, cfg.seed);
    if args.flags.iter().any(|f| f == "live") {
        let (cols, rows) = wfobs::term_size_from_env();
        obs.set_tick_interval(wfobs::DEFAULT_TICK_NANOS);
        obs.add_sink(Box::new(wfobs::LiveSink::new(
            tui_config(&wf_for_log, &cfg, storage_label),
            wfobs::detect_live_mode(),
            cols,
            rows,
        )));
    }
    match run_workflow_with_obs(wf, cfg, obs) {
        Ok(stats) => {
            println!(
                "makespan {:.1}s  events {}  retries {}  io-fraction {:.1}%",
                stats.makespan_secs,
                stats.events,
                stats.retries,
                stats.io_fraction() * 100.0
            );
            print!("{}", trace::render_phases(&phase_breakdown(&stats)));
            print!("{}", trace::hottest_resources(&stats, 6));
            if args.flags.iter().any(|f| f == "gantt") {
                print!("{}", trace::render_gantt(&stats, workers, 72));
            }
            if let Some(path) = args.opts.get("trace") {
                std::fs::write(path, jobstate_log(&stats, &wf_for_log))
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                println!("jobstate trace written to {path}");
            }
            if let Some(path) = args.opts.get("trace-out") {
                let report = stats.obs.as_ref().expect("Full level records a report");
                let labels = wfobs::ChromeLabels {
                    task_names: wf_for_log.tasks().iter().map(|t| t.name.clone()).collect(),
                    node_names: Vec::new(),
                };
                std::fs::write(path, wfobs::chrome_trace(report, &labels))
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                println!("chrome trace written to {path} (open in chrome://tracing)");
            }
            if let Some(path) = args.opts.get("metrics-out") {
                let report = stats.obs.as_ref().expect("Full level records a report");
                std::fs::write(path, report.metrics.to_csv())
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                println!("metrics written to {path}");
            }
            if let Some(dir) = args.opts.get("otlp-out") {
                let report = stats.obs.as_ref().expect("Full level records a report");
                let labels = trace::otlp_labels(&stats, &wf_for_log, storage_label, workers);
                std::fs::create_dir_all(dir)
                    .unwrap_or_else(|e| die(&format!("cannot create {dir}: {e}")));
                let traces = format!("{dir}/traces.json");
                let metrics = format!("{dir}/metrics.json");
                std::fs::write(&traces, wfobs::otlp_trace(report, &labels))
                    .unwrap_or_else(|e| die(&format!("cannot write {traces}: {e}")));
                std::fs::write(&metrics, wfobs::otlp_metrics(report, &labels))
                    .unwrap_or_else(|e| die(&format!("cannot write {metrics}: {e}")));
                println!(
                    "OTLP trace + metrics written to {dir}/ (POST to an OTLP/HTTP \
                     collector's /v1/traces and /v1/metrics)"
                );
            }
            if let Some(path) = args.opts.get("folded-out") {
                let report = stats.obs.as_ref().expect("Full level records a report");
                let task_names: Vec<String> =
                    wf_for_log.tasks().iter().map(|t| t.name.clone()).collect();
                std::fs::write(
                    path,
                    wfobs::folded_storage_stacks(report, &task_names, storage_label),
                )
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                println!("folded stacks written to {path} (feed to flamegraph.pl)");
            }
            if let Some(d) = stats.digest {
                println!("run digest {d:016x}");
            }
            // One-line machine-greppable summary on stderr, so runs
            // without exporters aren't silent.
            let cost = stats.cost(BillingGranularity::PerHour).total_dollars();
            let f = &stats.faults.counters;
            let fault_count = f.node_crashes + f.spot_terminations + f.storage_failures;
            let digest = stats
                .digest
                .map_or_else(|| "-".to_owned(), |d| format!("{d:016x}"));
            eprintln!(
                "wfsim: makespan {:.1}s cost ${cost:.2} digest {digest} faults {fault_count}",
                stats.makespan_secs
            );
        }
        Err(e) => die(&format!("run failed: {e}")),
    }
}

fn cmd_sweep(args: &Args) {
    let app = parse_app(
        args.opts
            .get("app")
            .unwrap_or_else(|| die("--app required")),
    );
    let seed = args
        .opts
        .get("seed")
        .map_or(Ok(42), |s| s.parse())
        .unwrap_or_else(|_| die("--seed must be a number"));
    if args.flags.iter().any(|f| f == "tiny") {
        println!("{:<24} {:>6} {:>10}", "storage", "nodes", "makespan");
        for cell in expt::figure_cells(app) {
            let (storage, n) = (cell.storage, cell.workers);
            let stats = run_workflow(
                app.tiny_workflow(),
                RunConfig::cell(storage, n).with_seed(seed),
            )
            .unwrap_or_else(|e| die(&format!("{storage:?}@{n}: {e}")));
            println!(
                "{:<24} {:>6} {:>9.1}s",
                storage.label(),
                n,
                stats.makespan_secs
            );
        }
        return;
    }
    let fig = expt::runtime_figure(app, seed);
    let number = match app {
        App::Montage => 2,
        App::Epigenome => 3,
        App::Broadband => 4,
    };
    print!("{}", expt::render::runtime_figure(&fig, number));
    print!(
        "{}",
        expt::analysis::render_speedup(app, &expt::analysis::speedup_table(&fig))
    );
}

fn cmd_profile(args: &Args) {
    let app = parse_app(
        args.opts
            .get("app")
            .unwrap_or_else(|| die("--app required")),
    );
    let p = profile(&app.paper_workflow());
    let u = classify(&p);
    println!("{app}:");
    println!("  io bytes            {:>14}", p.io_bytes);
    println!("  cpu seconds         {:>14.0}", p.cpu_secs);
    println!("  bytes / cpu-second  {:>14.0}", p.io_bytes_per_cpu_sec);
    println!("  cpu-time fraction   {:>14.2}", p.cpu_time_fraction);
    println!("  cpu share >1 GiB    {:>14.2}", p.cpu_frac_over_1gib);
    println!(
        "  grades              io={} memory={} cpu={}",
        u.io, u.memory, u.cpu
    );
}

fn cmd_export(args: &Args) {
    let wf = load_workflow(args);
    let out = args
        .opts
        .get("out")
        .unwrap_or_else(|| die("--out required"));
    std::fs::write(out, wfdag::to_json(&wf))
        .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
    println!(
        "{} tasks / {} files written to {out}",
        wf.task_count(),
        wf.file_count()
    );
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        die("missing subcommand (run|sweep|profile|export)");
    };
    let rest = &argv[1..];
    match cmd.as_str() {
        "run" => cmd_run(&parse_args("run", rest, RUN_OPTS, RUN_FLAGS)),
        "sweep" => cmd_sweep(&parse_args("sweep", rest, SWEEP_OPTS, SWEEP_FLAGS)),
        "profile" => cmd_profile(&parse_args("profile", rest, PROFILE_OPTS, &[])),
        "export" => cmd_export(&parse_args("export", rest, EXPORT_OPTS, EXPORT_FLAGS)),
        other => die(&format!("unknown subcommand {other:?}")),
    }
}
