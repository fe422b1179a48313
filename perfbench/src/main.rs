//! `perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]`
//!
//! With `--trace 0` it times the workload's public entry point for at
//! least `S` seconds and prints the end-to-end metrics; with `--trace 1`
//! it makes one traced run and prints the per-layer metrics. Either way
//! it checks every simulation's answer and ends with one JSON line. See
//! README.md for the workloads and metrics.

use expt::faults::{check_f2, run_f2, FaultScenario, FaultStudy};
use perfbench::flows::replay;
use perfbench::timed::PlanKind;
use perfbench::traced::{run_decorated, TracedRun};
use std::collections::HashMap;
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;
use wfdag::Workflow;
use wfengine::{otlp_labels, run_workflow, RunConfig, RunStats};
use wfgen::App;
use wfobs::{ObsLevel, ObsReport};
use wfstorage::StorageKind;

/// Seed the pins in `pins.txt` were taken at.
const PIN_SEED: u64 = 42;
const PINS: &str = include_str!("../pins.txt");

/// Seconds of set-up samples taken before and again after the
/// measurement (one more is taken per measured call). Host speed drifts
/// over seconds, so a window, not a count, keeps `setup_s` steady.
const SETUP_EDGE_SECS: f64 = 1.0;
/// Runs per level in the traced run's obs-overhead A/B comparison.
const LEVEL_REPS: usize = 5;

/// Apps the `f2-sweep-bb-epi` workload sweeps. Montage is left out: its
/// four units alone take about a minute, too long for one measured call.
const F2_APPS: [App; 2] = [App::Broadband, App::Epigenome];

#[derive(Debug, Clone, Copy)]
struct CellSpec {
    storage: StorageKind,
    workers: u32,
    /// The workload's observability level; at `Full` every exporter is
    /// rendered after the run.
    obs: ObsLevel,
}

#[derive(Debug, Clone, Copy)]
enum Workload {
    /// One Montage paper cell through `run_workflow`.
    Cell(CellSpec),
    /// `expt::faults::run_f2` over [`F2_APPS`].
    F2,
}

const WORKLOADS: [(&str, Workload); 4] = [
    (
        "montage-pvfs-8",
        Workload::Cell(CellSpec {
            storage: StorageKind::Pvfs,
            workers: 8,
            obs: ObsLevel::Off,
        }),
    ),
    (
        "montage-nfs-4",
        Workload::Cell(CellSpec {
            storage: StorageKind::Nfs,
            workers: 4,
            obs: ObsLevel::Off,
        }),
    ),
    ("f2-sweep-bb-epi", Workload::F2),
    (
        "montage-gluster-nufa-8-full",
        Workload::Cell(CellSpec {
            storage: StorageKind::GlusterNufa,
            workers: 8,
            obs: ObsLevel::Full,
        }),
    ),
];

const END_TO_END: [(&str, &str); 3] = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

const PER_LAYER: [(&str, &str); 46] = [
    ("simcore.run_s", "s"),
    ("simcore.events", "count"),
    ("simcore.events_per_s", "1/s"),
    ("simcore.flows", "count"),
    ("simcore.flows_per_s", "1/s"),
    ("simcore.flows_cancelled", "count"),
    ("simcore.flow.replay_s", "s"),
    ("simcore.flow.share", "ratio"),
    ("simcore.flow.peak_active", "count"),
    ("simcore.flow.mean_path_len", "count"),
    ("storage.calls", "count"),
    ("storage.plan_s", "s"),
    ("storage.share", "ratio"),
    ("storage.read_calls", "count"),
    ("storage.write_calls", "count"),
    ("storage.read_s", "s"),
    ("storage.write_s", "s"),
    ("storage.stage_in_s", "s"),
    ("storage.stage_out_s", "s"),
    ("storage.task_ops_s", "s"),
    ("storage.legs", "count"),
    ("storage.cache_hit_ratio", "ratio"),
    ("storage.build_s", "s"),
    ("engine.residual_s", "s"),
    ("engine.share", "ratio"),
    ("engine.world_new_s", "s"),
    ("engine.executions", "count"),
    ("engine.useful_exec_ratio", "ratio"),
    ("vcluster.provision_s", "s"),
    ("wfgen.generate_s", "s"),
    ("wfobs.events", "count"),
    ("wfobs.digest_overhead", "ratio"),
    ("wfobs.full_overhead", "ratio"),
    ("wfobs.chrome_s", "s"),
    ("wfobs.otlp_s", "s"),
    ("wfobs.folded_s", "s"),
    ("wfobs.csv_s", "s"),
    ("wfobs.export_bytes", "bytes"),
    ("wfobs.share", "ratio"),
    ("expt.sims", "count"),
    ("expt.threads", "count"),
    ("expt.cpu_s", "s"),
    ("expt.parallel_efficiency", "ratio"),
    ("bench.trace_overhead", "ratio"),
    ("bench.replay_exact", "bool"),
    ("bench.digest_match", "bool"),
];

struct Args {
    name: &'static str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument {flag}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        opts.insert(key.to_owned(), value);
    }
    let wanted = opts.get("workload").ok_or("--workload is required")?;
    let &(name, workload) = WORKLOADS
        .iter()
        .find(|(n, _)| n == wanted)
        .ok_or_else(|| format!("unknown workload {wanted}"))?;
    let num = |key: &str, default: &str| -> Result<f64, String> {
        let v = opts.get(key).map_or(default, String::as_str);
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x >= 0.0)
            .ok_or_else(|| format!("--{key} must be a non-negative number, got {v}"))
    };
    let seed = opts.get("seed").map_or("42", String::as_str);
    Ok(Args {
        name,
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("--seed must be an integer, got {seed}"))?,
        seconds: num("seconds", "10")?,
        trace: match opts.get("trace").map_or("0", String::as_str) {
            "0" => false,
            "1" => true,
            v => return Err(format!("--trace must be 0 or 1, got {v}")),
        },
    })
}

/// Metrics, correctness tallies and the reasons for any metric not
/// measured, printed as text lines and one final JSON line.
#[derive(Default)]
struct Output {
    metrics: Vec<(&'static str, f64)>,
    missing: Vec<(&'static str, String)>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Output {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    fn missing(&mut self, names: &[&'static str], reason: &str) {
        for &n in names {
            self.missing.push((n, reason.to_owned()));
        }
    }

    /// Mark every metric of `table` not yet set or marked missing as
    /// missing for `reason`.
    fn missing_rest(&mut self, table: &[(&'static str, &str)], reason: &str) {
        for &(n, _) in table {
            let set = self.metrics.iter().any(|m| m.0 == n);
            if !set && !self.missing.iter().any(|m| m.0 == n) {
                self.missing.push((n, reason.to_owned()));
            }
        }
    }

    /// Record one simulation's verdict.
    fn verdict(&mut self, what: &str, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            self.errors.push(format!("{what}: {p}"));
        }
    }

    /// Print every metric of `table` (a missing one as 0 with its reason)
    /// and the JSON result line.
    fn print(mut self, table: &[(&'static str, &'static str)]) -> ExitCode {
        for (name, value) in &mut self.metrics {
            if !value.is_finite() {
                *value = 0.0;
                self.missing.push((name, "not finite".to_owned()));
            }
        }
        let mut json = Vec::new();
        for &(name, unit) in table {
            let measured = self.metrics.iter().find(|(n, _)| *n == name).map(|m| m.1);
            let value = match measured {
                Some(v) if !self.missing.iter().any(|(n, _)| *n == name) => v,
                _ => {
                    let reason = self
                        .missing
                        .iter()
                        .find(|(n, _)| *n == name)
                        .map_or("not measured on this workload", |m| m.1.as_str());
                    println!("missing {name}: {reason}");
                    0.0
                }
            };
            println!("metric {name} {value} {unit}");
            json.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        for e in &self.errors {
            println!("FAILED {e}");
        }
        let fail_rate = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "fail_rate {fail_rate} ratio ({} of {} simulations)",
            self.failed, self.attempted
        );
        let correct = self.failed == 0 && self.attempted > 0;
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn print_walls(walls: &[f64]) {
    let list: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    println!("runs {}: {} s", walls.len(), list.join(" "));
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Seconds of `f`'s wall time, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t = Instant::now();
    let out = f();
    (t.elapsed().as_secs_f64(), out)
}

/// The pinned value of `key` for workload `name`, if any.
fn pin(name: &str, key: &str) -> Option<u64> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .find(|f| f.len() == 3 && f[0] == name && f[1] == key)
        .map(|f| f[2].parse().expect("pins.txt values are u64"))
}

/// Compare an observed value with its pin at [`PIN_SEED`]; also print it
/// in `pins.txt` form on stderr, so the file can be regenerated.
fn check_pin(args: &Args, key: &str, value: u64) -> Option<String> {
    if args.seed != PIN_SEED {
        return None;
    }
    eprintln!("pin {} {key} {value}", args.name);
    match pin(args.name, key) {
        Some(p) if p == value => None,
        Some(p) => Some(format!("{key} = {value}, pinned {p}")),
        None => Some(format!("{key} has no pin")),
    }
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// User + system CPU seconds of this process (all threads), from
/// `/proc/self/stat` (Linux clock ticks are 1/100 s).
fn process_cpu_secs() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // fields 14 and 15 of the whole line.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| f.get(i).and_then(|v| v.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => (u + s) / 100.0,
        _ => f64::NAN,
    }
}

/// Set-up time: generating the workload's paper workflows. Samples are
/// taken before, during and after the measurement, so their median sees
/// the same host conditions the measured calls saw.
struct Setup {
    apps: &'static [App],
    walls: Vec<f64>,
}

impl Setup {
    fn new(apps: &'static [App]) -> Self {
        Setup {
            apps,
            walls: Vec::new(),
        }
    }

    /// One timed generation pass.
    fn sample(&mut self) -> Vec<Workflow> {
        let (s, wfs) = timed(|| self.apps.iter().map(|a| a.paper_workflow()).collect());
        self.walls.push(s);
        wfs
    }

    /// Samples for [`SETUP_EDGE_SECS`] (at least one); the workflows of
    /// the last.
    fn edge(&mut self) -> Vec<Workflow> {
        let start = Instant::now();
        loop {
            let wfs = self.sample();
            if start.elapsed().as_secs_f64() >= SETUP_EDGE_SECS {
                return wfs;
            }
        }
    }

    fn median(&self) -> f64 {
        median(self.walls.clone())
    }
}

fn cell_config(spec: CellSpec, seed: u64, obs: ObsLevel) -> RunConfig {
    RunConfig::cell(spec.storage, spec.workers)
        .with_seed(seed)
        .with_obs(obs)
}

/// Render every exporter to memory, labelled from `stats`: seconds per
/// exporter (Chrome, OTLP traces + metrics, folded stacks, metrics CSV)
/// and total bytes.
fn export(report: &ObsReport, stats: &RunStats, spec: CellSpec, wf: &Workflow) -> ([f64; 4], u64) {
    let task_names = || {
        wf.tasks()
            .iter()
            .map(|t| t.name.clone())
            .collect::<Vec<_>>()
    };
    let backend = spec.storage.label();
    let (chrome_s, chrome) = timed(|| {
        let labels = wfobs::ChromeLabels {
            task_names: task_names(),
            node_names: Vec::new(),
        };
        wfobs::chrome_trace(report, &labels)
    });
    let (otlp_s, otlp) = timed(|| {
        let labels = otlp_labels(stats, wf, backend, spec.workers);
        (
            wfobs::otlp_trace(report, &labels),
            wfobs::otlp_metrics(report, &labels),
        )
    });
    let (folded_s, folded) = timed(|| wfobs::folded_storage_stacks(report, &task_names(), backend));
    let (csv_s, csv) = timed(|| report.metrics.to_csv());
    let bytes = chrome.len() + otlp.0.len() + otlp.1.len() + folded.len() + csv.len();
    black_box((chrome, otlp, folded, csv));
    ([chrome_s, otlp_s, folded_s, csv_s], bytes as u64)
}

/// One call of the cell's public entry point: `run_workflow`, plus the
/// exporters for a `Full` cell. Returns its wall seconds and the stats
/// (the report, if any, consumed by the exporters).
fn entry_point(spec: CellSpec, wf: &Workflow, seed: u64) -> Result<(f64, RunStats), String> {
    let input = wf.clone();
    let cfg = cell_config(spec, seed, spec.obs);
    let t = Instant::now();
    let mut stats = run_workflow(input, cfg).map_err(|e| e.to_string())?;
    if let Some(report) = stats.obs.take() {
        black_box(export(&report, &stats, spec, wf));
    }
    Ok((t.elapsed().as_secs_f64(), stats))
}

/// A cell's answer: makespan as f64 bits, and events fired.
fn answer(stats: &RunStats) -> (u64, u64) {
    (stats.makespan_secs.to_bits(), stats.events)
}

/// At the pin seed, the cell's answer against its pins.
fn check_answer(args: &Args, (makespan, events): (u64, u64)) -> Option<String> {
    let pinned = [
        check_pin(args, "makespan_bits", makespan),
        check_pin(args, "events", events),
    ];
    pinned.into_iter().flatten().next()
}

/// Call the cell's entry point until `args.seconds` have passed (at
/// least once), checking every answer: the median wall seconds and the
/// first run's stats, or `None` once a run fails.
fn measure_cell(
    args: &Args,
    spec: CellSpec,
    wf: &Workflow,
    setup: &mut Setup,
    out: &mut Output,
) -> Option<(f64, RunStats)> {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<RunStats> = None;
    loop {
        let what = format!("{} run {}", args.name, walls.len());
        setup.sample();
        let (wall, stats) = match entry_point(spec, wf, args.seed) {
            Ok(r) => r,
            Err(e) => {
                out.verdict(&what, Some(e));
                return None;
            }
        };
        walls.push(wall);
        let problem = match &first {
            Some(f) if answer(f) != answer(&stats) => Some("differs from run 0".to_owned()),
            Some(_) => None,
            None => check_answer(args, answer(&stats)),
        };
        out.verdict(&what, problem);
        first.get_or_insert(stats);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    print_walls(&walls);
    first.map(|f| (median(walls), f))
}

fn untraced_cell(args: &Args, spec: CellSpec, out: &mut Output) {
    let mut setup = Setup::new(&[App::Montage]);
    let wfs = setup.edge();
    if let Some((wall, _)) = measure_cell(args, spec, &wfs[0], &mut setup, out) {
        out.set("wall_s", wall);
    }
    setup.edge();
    out.set("setup_s", setup.median());
    out.set("peak_rss_mb", peak_rss_mib());
}

/// Check one F2 study, one verdict per simulation: zero-rate rows must
/// be bit-identical to their clean run, every makespan must equal the
/// `reference` study's (the first of the process), and at the pin seed
/// the makespans must equal the pins and every `check_f2` shape check
/// must pass. The shape checks are research claims that hold at the pin
/// seed but not at every seed, so other seeds skip them.
fn check_study(
    args: &Args,
    study: &FaultStudy,
    reference: Option<&FaultStudy>,
    run: &str,
    out: &mut Output,
) {
    let failed_checks: Vec<String> = if args.seed == PIN_SEED {
        check_f2(study)
            .into_iter()
            .filter(|c| !c.passed)
            .map(|c| c.id)
            .collect()
    } else {
        Vec::new()
    };
    // `run_f2` returns one row per scenario, unit by unit; each unit also
    // ran a clean baseline.
    let units = study.rows.chunks(FaultScenario::ALL.len());
    for (u, rows) in units.enumerate() {
        let ref_rows = reference.map(|r| &r.rows[u * rows.len()..(u + 1) * rows.len()]);
        let unit = format!("{:?}/{:?}", rows[0].app, rows[0].storage);
        let clean = rows[0].clean_makespan_secs.to_bits();
        let mut problem = check_pin(args, &format!("{unit}/clean"), clean);
        if ref_rows.is_some_and(|r| r[0].clean_makespan_secs.to_bits() != clean) {
            problem = Some(format!("differs from {} run 0", args.name));
        }
        out.verdict(&format!("f2 {run} {unit} clean"), problem);
        for (i, r) in rows.iter().enumerate() {
            let key = format!("{unit}/{}", r.scenario.label());
            let mut problem = check_pin(args, &key, r.makespan_secs.to_bits());
            if ref_rows.is_some_and(|x| x[i].makespan_secs.to_bits() != r.makespan_secs.to_bits()) {
                problem = Some(format!("differs from {} run 0", args.name));
            }
            if r.scenario == FaultScenario::ZeroRate && !r.bit_identical_to_clean {
                problem = Some("zero-rate row differs from its clean run".to_owned());
            }
            if !failed_checks.is_empty() {
                problem = Some(format!("shape checks failed: {}", failed_checks.join(", ")));
            }
            out.verdict(&format!("f2 {run} {key}"), problem);
        }
    }
}

/// Run the sweep until `args.seconds` have passed (at least once),
/// checking every study: the median wall seconds and the first study.
fn measure_f2(args: &Args, setup: &mut Setup, out: &mut Output) -> (f64, FaultStudy) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<FaultStudy> = None;
    loop {
        setup.sample();
        let (wall, study) = timed(|| run_f2(&F2_APPS, args.seed));
        let run = format!("run {}", walls.len());
        check_study(args, &study, first.as_ref(), &run, out);
        walls.push(wall);
        first.get_or_insert(study);
        if start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    print_walls(&walls);
    (median(walls), first.expect("the loop runs at least once"))
}

fn untraced_f2(args: &Args, out: &mut Output) {
    let mut setup = Setup::new(&F2_APPS);
    setup.edge();
    let (wall, _) = measure_f2(args, &mut setup, out);
    out.set("wall_s", wall);
    setup.edge();
    out.set("setup_s", setup.median());
    out.set("peak_rss_mb", peak_rss_mib());
}

const WFOBS: [&str; 9] = [
    "wfobs.events",
    "wfobs.digest_overhead",
    "wfobs.full_overhead",
    "wfobs.chrome_s",
    "wfobs.otlp_s",
    "wfobs.folded_s",
    "wfobs.csv_s",
    "wfobs.export_bytes",
    "wfobs.share",
];

/// Median wall seconds of `run_workflow` at each of `levels` (no
/// exporters), the levels interleaved within each round so host drift
/// hits them alike.
fn level_walls<const N: usize>(
    spec: CellSpec,
    wf: &Workflow,
    seed: u64,
    levels: [ObsLevel; N],
) -> [f64; N] {
    let mut walls: [Vec<f64>; N] = std::array::from_fn(|_| Vec::new());
    for _ in 0..LEVEL_REPS {
        for (level, w) in levels.iter().zip(&mut walls) {
            let input = wf.clone();
            let cfg = cell_config(spec, seed, *level);
            w.push(timed(|| run_workflow(input, cfg).map(|s| black_box(s.events))).0);
        }
    }
    walls.map(median)
}

fn traced_cell(args: &Args, spec: CellSpec, out: &mut Output) {
    let mut setup = Setup::new(&[App::Montage]);
    let wfs = setup.edge();
    let wf = &wfs[0];

    // The untraced reference: the end-to-end measurement itself.
    let Some((untraced_wall, stats)) = measure_cell(args, spec, wf, &mut setup, out) else {
        return;
    };
    out.set("wfgen.generate_s", setup.median());
    let reference = answer(&stats);

    let cfg = cell_config(spec, args.seed, spec.obs);
    let run = match run_decorated(wf.clone(), cfg) {
        Ok(r) => r,
        Err(e) => {
            out.verdict(&format!("{} traced", args.name), Some(e.to_string()));
            return;
        }
    };
    let mut traced_wall = run.wall.as_secs_f64();
    let seen = (run.makespan_secs.to_bits(), run.events);
    let mut problem = (seen != reference)
        .then(|| format!("traced (makespan bits, events) {seen:?} != untraced {reference:?}"));
    // The digest reference: the untraced run's own digest when it has a
    // bus (the Full workload), else the pin.
    let digest_problem = match stats.digest {
        Some(d) => (d != run.digest).then(|| format!("digest {} != untraced {d}", run.digest)),
        None => check_pin(args, "digest", run.digest),
    };
    if stats.digest.is_some() || args.seed == PIN_SEED {
        out.set(
            "bench.digest_match",
            f64::from(u8::from(digest_problem.is_none())),
        );
    } else {
        out.missing(
            &["bench.digest_match"],
            "the untraced run has no bus and the digest is pinned at seed 42 only",
        );
    }
    problem = problem.or(digest_problem);
    out.verdict(&format!("{} traced", args.name), problem);

    if spec.obs == ObsLevel::Full {
        let report = run.report.as_ref().expect("a Full run records a report");
        let (secs, bytes) = export(report, &stats, spec, wf);
        let export_s: f64 = secs.iter().sum();
        traced_wall += export_s;
        for (name, s) in [
            "wfobs.chrome_s",
            "wfobs.otlp_s",
            "wfobs.folded_s",
            "wfobs.csv_s",
        ]
        .into_iter()
        .zip(secs)
        {
            out.set(name, s);
        }
        out.set("wfobs.export_bytes", bytes as f64);
        out.set("wfobs.events", run.obs_events as f64);
        let [off, digest, full] = level_walls(
            spec,
            wf,
            args.seed,
            [ObsLevel::Off, ObsLevel::Digest, ObsLevel::Full],
        );
        out.set("wfobs.digest_overhead", digest / off);
        out.set("wfobs.full_overhead", full / off);
        out.set("wfobs.share", (full - off + export_s) / (full + export_s));
    } else {
        out.missing(
            &WFOBS,
            "the workload runs with obs Off; the harness's Digest-level capture bus is not the workload's",
        );
    }
    out.set("bench.trace_overhead", traced_wall / untraced_wall);
    cell_layers(run, out);
    out.missing_rest(&PER_LAYER, "a single cell, not an expt sweep");
}

/// The simcore, storage, engine and vcluster metrics of one traced run,
/// plus the flow replay.
fn cell_layers(mut run: TracedRun, out: &mut Output) {
    let run_s = run.run.as_secs_f64();
    let plan_s = run.storage.plan_time().as_secs_f64();
    out.set("simcore.run_s", run_s);
    out.set("simcore.events", run.events as f64);
    out.set("simcore.events_per_s", run.events as f64 / run_s);
    out.set("simcore.flows", run.flows.0 as f64);
    out.set("simcore.flows_per_s", run.flows.0 as f64 / run_s);
    let cancelled = run
        .flow_log
        .iter()
        .filter(|r| matches!(r, perfbench::flows::FlowRec::Cancel { .. }))
        .count();
    out.set("simcore.flows_cancelled", cancelled as f64);

    out.set("storage.calls", run.storage.calls() as f64);
    out.set("storage.plan_s", plan_s);
    out.set("storage.share", plan_s / run_s);
    out.set(
        "storage.read_calls",
        run.storage.get(PlanKind::Read).calls as f64,
    );
    out.set(
        "storage.write_calls",
        run.storage.get(PlanKind::Write).calls as f64,
    );
    for (name, kind) in [
        ("storage.read_s", PlanKind::Read),
        ("storage.write_s", PlanKind::Write),
        ("storage.stage_in_s", PlanKind::StageIn),
        ("storage.stage_out_s", PlanKind::StageOut),
        ("storage.task_ops_s", PlanKind::TaskOps),
    ] {
        out.set(name, run.storage.get(kind).time.as_secs_f64());
    }
    out.set("storage.legs", run.storage.legs as f64);
    let (hits, misses) = (run.op_stats.cache_hits, run.op_stats.cache_misses);
    if hits + misses > 0 {
        out.set(
            "storage.cache_hit_ratio",
            hits as f64 / (hits + misses) as f64,
        );
    } else {
        out.missing(
            &["storage.cache_hit_ratio"],
            "the storage system has no cache",
        );
    }
    out.set("storage.build_s", run.build.as_secs_f64());
    out.set("engine.world_new_s", run.world_new.as_secs_f64());
    out.set("engine.executions", run.executions as f64);
    out.set(
        "engine.useful_exec_ratio",
        run.tasks as f64 / run.executions as f64,
    );
    out.set("vcluster.provision_s", run.provision.as_secs_f64());

    let caps = std::mem::take(&mut run.storage.caps);
    let checked = replay(&run.flow_log, &run.capacities, caps).and_then(|r| r.check().map(|()| r));
    match checked {
        Ok(r) => {
            let replay_s = r.time.as_secs_f64();
            println!(
                "replay {} flows, {} completions, {} cancels, ends at {} s (run: {} s)",
                r.flows,
                r.completions,
                r.cancels,
                r.last_completion.as_secs_f64(),
                r.recorded_last.as_secs_f64()
            );
            out.set("bench.replay_exact", 1.0);
            out.set("simcore.flow.replay_s", replay_s);
            out.set("simcore.flow.share", replay_s / run_s);
            out.set("simcore.flow.peak_active", r.peak_active as f64);
            out.set("simcore.flow.mean_path_len", r.mean_path_len);
            out.set("engine.residual_s", run_s - plan_s - replay_s);
            out.set("engine.share", (run_s - plan_s - replay_s) / run_s);
        }
        Err(reason) => {
            let reason = format!("flow replay is not exact: {reason}");
            out.set("bench.replay_exact", 0.0);
            out.missing(
                &[
                    "simcore.flow.replay_s",
                    "simcore.flow.share",
                    "simcore.flow.peak_active",
                    "simcore.flow.mean_path_len",
                    "engine.residual_s",
                    "engine.share",
                ],
                &reason,
            );
        }
    }
}

fn traced_f2(args: &Args, out: &mut Output) {
    let mut setup = Setup::new(&F2_APPS);
    let wfs = setup.edge();
    let (untraced_wall, reference) = measure_f2(args, &mut setup, out);
    out.set("wfgen.generate_s", setup.median());

    let cpu0 = process_cpu_secs();
    let (wall, study) = timed(|| run_f2(&F2_APPS, args.seed));
    let cpu_s = process_cpu_secs() - cpu0;
    check_study(args, &study, Some(&reference), "traced run", out);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let units = study.rows.len() / FaultScenario::ALL.len();
    let sims = units * (1 + FaultScenario::ALL.len());
    out.set("expt.sims", sims as f64);
    out.set("expt.threads", threads as f64);
    out.set("expt.cpu_s", cpu_s);
    out.set("expt.parallel_efficiency", cpu_s / (threads as f64 * wall));
    out.set("bench.trace_overhead", wall / untraced_wall);

    // Every kill is re-executed and every rescue re-runs a finished task;
    // the clean baseline of each unit executes each task once.
    let tasks_of: HashMap<App, u64> = F2_APPS
        .iter()
        .zip(&wfs)
        .map(|(a, w)| (*a, w.task_count() as u64))
        .collect();
    let (mut tasks, mut executions) = (0, 0);
    for rows in study.rows.chunks(FaultScenario::ALL.len()) {
        let n = tasks_of[&rows[0].app];
        tasks += n * (1 + rows.len() as u64);
        executions += n * (1 + rows.len() as u64)
            + rows
                .iter()
                .map(|r| r.tasks_killed + r.rescue_resubmits)
                .sum::<u64>();
    }
    out.set("engine.executions", executions as f64);
    out.set("engine.useful_exec_ratio", tasks as f64 / executions as f64);

    out.missing(&WFOBS, "the sweep runs with obs Off");
    out.missing_rest(
        &PER_LAYER,
        "the sweep is timed around expt::faults::run_f2; its simulations are not re-run decorated",
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            let names: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
            eprintln!(
                "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = Output::default();
    match (args.workload, args.trace) {
        (Workload::Cell(spec), false) => untraced_cell(&args, spec, &mut out),
        (Workload::Cell(spec), true) => traced_cell(&args, spec, &mut out),
        (Workload::F2, false) => untraced_f2(&args, &mut out),
        (Workload::F2, true) => traced_f2(&args, &mut out),
    }
    out.print(if args.trace { &PER_LAYER } else { &END_TO_END })
}
