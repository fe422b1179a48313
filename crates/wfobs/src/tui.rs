//! Dependency-free ANSI terminal viewer for in-flight runs.
//!
//! Three layers, from pure to impure:
//!
//! 1. [`TuiState`] — a bounded-memory model of "what is the run doing
//!    right now", folded incrementally from the event stream: a per-node
//!    Gantt with task-attempt sublanes, storage-throughput and
//!    ready-depth rings, a fault ticker, and cost-so-far from the
//!    billing-segment events.
//! 2. [`render_frame`] — a *headless* renderer: `(state, cols, rows) →
//!    String` of exactly `rows` lines, each exactly `cols` ASCII
//!    characters. Everything a terminal would show is golden- and
//!    property-testable without one.
//! 3. [`LiveSink`] — an [`ObsSink`](crate::sink::ObsSink) that drives a
//!    real terminal with raw escape codes (alternate screen + home
//!    cursor; no ratatui/crossterm), throttled by the bus's sim-time
//!    ticks and additionally rate-limited on wall clock so fast
//!    simulations don't melt the tty. Under a dumb/non-tty terminal it
//!    degrades to plain progress lines.
//!
//! Determinism: the state machine and renderer consume only simulated
//! time. Wall clock is used exclusively to decide whether to *physically
//! write* an already-rendered frame — it can never influence the
//! simulation, the digest, or the frame contents.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write;

use crate::event::{Event, FaultKind, Phase};
use crate::fold::{Attempt, AttemptFold, Outcome, Step};
use crate::name_or;
use crate::sink::ObsSink;

/// Most fault-ticker entries kept.
const TICKER_CAP: usize = 64;
/// Most sparkline buckets kept.
const SPARK_CAP: usize = 256;
/// Progress-bar width in the stats line.
const BAR_W: usize = 20;

/// Per-node billing rates, used for the cost-so-far readout. `wfobs` is
/// dependency-free, so the caller (which knows the instance types)
/// supplies cents-per-hour figures; segments bill per started hour,
/// matching `wfcost::segments_cents` (`expt`'s `tui_golden` test pins
/// the final frame's cost to it).
#[derive(Debug, Clone, Copy, Default)]
pub struct NodeRate {
    /// On-demand cents per hour.
    pub cents_per_hour: u32,
    /// Spot cents per hour (used when the segment is a spot incarnation).
    pub spot_cents_per_hour: u32,
}

/// Static labels and knobs for the viewer.
#[derive(Debug, Clone)]
pub struct TuiConfig {
    /// Run title (workflow name).
    pub title: String,
    /// Storage-backend label (e.g. `s3`, `nfs`).
    pub backend: String,
    /// Total task count, for the progress readout.
    pub total_tasks: u32,
    /// Task names by task id (missing ids render as `t{id}`).
    pub task_names: Vec<String>,
    /// Node labels by cluster node id (missing ids render as `n{id}`).
    pub node_names: Vec<String>,
    /// Billing rates by cluster node id (missing ids cost nothing).
    pub node_rates: Vec<NodeRate>,
    /// Width of the scrolling Gantt window, in simulated seconds.
    pub window_secs: f64,
    /// Most task-attempt sublanes rendered per node.
    pub lane_cap: usize,
}

impl Default for TuiConfig {
    fn default() -> Self {
        TuiConfig {
            title: "run".to_owned(),
            backend: "?".to_owned(),
            total_tasks: 0,
            task_names: Vec::new(),
            node_names: Vec::new(),
            node_rates: Vec::new(),
            window_secs: 120.0,
            lane_cap: 4,
        }
    }
}

/// One closed stretch of a sublane: `[start, end)` rendered as `ch`.
#[derive(Debug, Clone, Copy)]
struct Seg {
    start: u64,
    end: u64,
    ch: u8,
}

/// One task-attempt sublane of a node's Gantt row.
#[derive(Debug, Default)]
struct Lane {
    segs: VecDeque<Seg>,
    /// Task of the attempt open on this sublane; its current phase is
    /// read from the fold.
    cur: Option<u32>,
}

/// Per-node Gantt state.
#[derive(Debug, Default)]
struct NodeLanes {
    lanes: Vec<Lane>,
    /// Closed down-intervals plus the open one, pruned like segments.
    down: VecDeque<(u64, Option<u64>)>,
}

impl NodeLanes {
    fn is_down(&self) -> bool {
        self.down.back().is_some_and(|&(_, end)| end.is_none())
    }
}

/// The bounded live model the sink folds events into.
#[derive(Debug)]
pub struct TuiState {
    cfg: TuiConfig,
    now: u64,
    done: u32,
    retries: u64,
    faults: u64,
    ready_depth: u32,
    /// Started-hour cents of every closed billing segment.
    closed_cents: u64,
    /// Open billing segments: node id → (opened-at, spot).
    open_segments: BTreeMap<u32, (u64, bool)>,
    nodes: BTreeMap<u32, NodeLanes>,
    fold: AttemptFold,
    ticker: VecDeque<(u64, String)>,
    bytes_since_tick: u64,
    io_spark: VecDeque<f64>,
    ready_spark: VecDeque<f64>,
    last_tick: Option<u64>,
}

fn phase_char(p: Option<Phase>) -> u8 {
    match p {
        None => b'.',
        Some(Phase::Ops) => b':',
        Some(Phase::StageIn) => b'i',
        Some(Phase::Read) => b'r',
        Some(Phase::Compute) => b'#',
        Some(Phase::Write) => b'w',
        Some(Phase::StageOut) => b'o',
    }
}

impl TuiState {
    /// Fresh state over the given configuration.
    pub fn new(cfg: TuiConfig) -> Self {
        TuiState {
            cfg,
            now: 0,
            done: 0,
            retries: 0,
            faults: 0,
            ready_depth: 0,
            closed_cents: 0,
            open_segments: BTreeMap::new(),
            nodes: BTreeMap::new(),
            fold: AttemptFold::default(),
            ticker: VecDeque::new(),
            bytes_since_tick: 0,
            io_spark: VecDeque::new(),
            ready_spark: VecDeque::new(),
            last_tick: None,
        }
    }

    /// Current simulated time, nanoseconds.
    pub fn now_nanos(&self) -> u64 {
        self.now
    }

    /// Completed-task count.
    pub fn tasks_done(&self) -> u32 {
        self.done
    }

    /// Fault-injection count so far.
    pub fn fault_count(&self) -> u64 {
        self.faults
    }

    /// Cost so far in cents: every closed segment bills its started
    /// hours; open segments bill as if closed now.
    pub fn cost_cents(&self) -> u64 {
        let open: u64 = self
            .open_segments
            .iter()
            .map(|(&node, &(open, spot))| self.segment_cents(node, open, self.now, spot))
            .sum();
        self.closed_cents + open
    }

    fn segment_cents(&self, node: u32, open: u64, close: u64, spot: bool) -> u64 {
        let rate = self
            .cfg
            .node_rates
            .get(node as usize)
            .copied()
            .unwrap_or_default();
        let cents = if spot {
            rate.spot_cents_per_hour
        } else {
            rate.cents_per_hour
        };
        let hours = (close.saturating_sub(open))
            .div_ceil(3_600_000_000_000)
            .max(1);
        hours * u64::from(cents)
    }

    fn task_name(&self, id: u32) -> String {
        name_or(&self.cfg.task_names, "t", id).into_owned()
    }

    fn node_name(&self, id: u32) -> String {
        name_or(&self.cfg.node_names, "n", id).into_owned()
    }

    fn push_ticker(&mut self, t: u64, msg: String) {
        if self.ticker.len() == TICKER_CAP {
            self.ticker.pop_front();
        }
        self.ticker.push_back((t, msg));
    }

    /// Fold one event into the model. Pure sim-time; no I/O.
    pub fn apply(&mut self, t: u64, ev: &Event) {
        self.now = self.now.max(t);
        self.fold.push(t, ev, |step| paint(&mut self.nodes, step));
        match *ev {
            Event::TaskStart { attempt, .. } => {
                if attempt > 0 {
                    self.retries += 1;
                }
            }
            Event::TaskEnd { .. } => self.done += 1,
            Event::TaskKilled { task, node, .. } => {
                let msg = format!(
                    "task {} killed on {}",
                    self.task_name(task),
                    self.node_name(node)
                );
                self.push_ticker(t, msg);
            }
            Event::TaskFailed { task, node } => {
                let msg = format!(
                    "task {} failed on {}",
                    self.task_name(task),
                    self.node_name(node)
                );
                self.push_ticker(t, msg);
            }
            Event::ReadyDepth { depth } => self.ready_depth = depth,
            Event::StorageOp { bytes, .. } => self.bytes_since_tick += bytes,
            Event::Fault { kind, node } => {
                self.faults += 1;
                let msg = format!("{} on {}", kind.label(), self.node_name(node));
                self.push_ticker(t, msg);
                if matches!(kind, FaultKind::NodeCrash | FaultKind::SpotTermination) {
                    let nl = self.nodes.entry(node).or_default();
                    if !nl.is_down() {
                        nl.down.push_back((t, None));
                    }
                }
            }
            Event::NodeRecovered { node } => {
                let msg = format!("{} recovered", self.node_name(node));
                self.push_ticker(t, msg);
                let nl = self.nodes.entry(node).or_default();
                if let Some(last) = nl.down.back_mut() {
                    if last.1.is_none() {
                        last.1 = Some(t);
                    }
                }
            }
            Event::FilesLost { count } => {
                self.push_ticker(t, format!("{count} file(s) lost to failover"));
            }
            Event::RescueResubmit { task } => {
                let msg = format!("rescue resubmit {}", self.task_name(task));
                self.push_ticker(t, msg);
            }
            Event::SegmentOpen { node, spot } => {
                self.open_segments.insert(node, (t, spot));
            }
            Event::SegmentClose { node } => {
                if let Some((open, spot)) = self.open_segments.remove(&node) {
                    self.closed_cents += self.segment_cents(node, open, t, spot);
                }
            }
            // Phases are painted from the fold's steps above; flow- and
            // cache-level events carry no widget today.
            Event::TaskPhase { .. }
            | Event::TaskReady { .. }
            | Event::FlowStart { .. }
            | Event::FlowRes { .. }
            | Event::FlowEnd { .. }
            | Event::FlowCancel { .. }
            | Event::CacheHit { .. }
            | Event::CacheMiss { .. }
            | Event::BgEnqueue { .. }
            | Event::BgStart { .. }
            | Event::BgDone => {}
        }
    }

    /// One throttled metric tick: close the current sparkline buckets
    /// and prune everything that scrolled out of the Gantt window.
    pub fn tick(&mut self, t: u64) {
        self.now = self.now.max(t);
        let dt = t.saturating_sub(self.last_tick.unwrap_or(0)).max(1);
        let mbps = self.bytes_since_tick as f64 / (dt as f64 / 1e9) / 1e6;
        push_spark(&mut self.io_spark, mbps);
        push_spark(&mut self.ready_spark, f64::from(self.ready_depth));
        self.bytes_since_tick = 0;
        self.last_tick = Some(t);
        self.prune();
    }

    /// Drop Gantt segments, down-intervals and empty trailing lanes that
    /// ended before the visible window — the bounded-memory guarantee.
    fn prune(&mut self) {
        let horizon = self
            .now
            .saturating_sub(crate::nanos_from_secs(self.cfg.window_secs));
        for nl in self.nodes.values_mut() {
            for lane in &mut nl.lanes {
                while lane.segs.front().is_some_and(|s| s.end < horizon) {
                    lane.segs.pop_front();
                }
            }
            while nl
                .down
                .front()
                .is_some_and(|&(_, end)| end.is_some_and(|e| e < horizon))
            {
                nl.down.pop_front();
            }
            while nl
                .lanes
                .last()
                .is_some_and(|l| l.cur.is_none() && l.segs.is_empty())
                && nl.lanes.len() > 1
            {
                nl.lanes.pop();
            }
        }
    }
}

/// Paint one fold step onto the Gantt lanes: an attempt takes its
/// sublane, each closed interval becomes a segment, and a killed or
/// failed attempt repaints its last segment `x`.
fn paint(nodes: &mut BTreeMap<u32, NodeLanes>, step: Step) {
    match step {
        Step::Start(att) => {
            let lanes = &mut nodes.entry(att.node).or_default().lanes;
            let ix = att.lane as usize;
            if lanes.len() <= ix {
                lanes.resize_with(ix + 1, Lane::default);
            }
            lanes[ix].cur = Some(att.task);
        }
        Step::Interval {
            att,
            phase,
            start,
            end,
            ..
        } => {
            if let Some(lane) = lane_mut(nodes, &att) {
                lane.segs.push_back(Seg {
                    start,
                    end,
                    ch: phase_char(phase),
                });
            }
        }
        Step::Close { att, outcome, .. } => {
            if let Some(lane) = lane_mut(nodes, &att) {
                if matches!(outcome, Outcome::Killed { .. } | Outcome::Failed) {
                    if let Some(last) = lane.segs.back_mut() {
                        last.ch = b'x';
                    }
                }
                lane.cur = None;
            }
        }
    }
}

fn lane_mut<'a>(nodes: &'a mut BTreeMap<u32, NodeLanes>, att: &Attempt) -> Option<&'a mut Lane> {
    nodes.get_mut(&att.node)?.lanes.get_mut(att.lane as usize)
}

fn push_spark(ring: &mut VecDeque<f64>, v: f64) {
    if ring.len() == SPARK_CAP {
        ring.pop_front();
    }
    ring.push_back(v);
}

/// ASCII sparkline of the last `w` ring values, scaled to the window max.
fn sparkline(ring: &VecDeque<f64>, w: usize) -> String {
    const LEVELS: &[u8] = b" .:-=+*#%@";
    if w == 0 {
        return String::new();
    }
    let vals: Vec<f64> = ring.iter().rev().take(w).rev().copied().collect();
    let max = vals.iter().copied().fold(0.0f64, f64::max);
    let mut out = String::with_capacity(w);
    for _ in vals.len()..w {
        out.push(' ');
    }
    for v in vals {
        let ix = if max > 0.0 && v > 0.0 {
            (((v / max) * 9.0).ceil() as usize).clamp(1, 9)
        } else {
            0
        };
        out.push(LEVELS[ix] as char);
    }
    out
}

/// Clamp to printable ASCII, truncate to `w` chars, pad with spaces —
/// the invariant that makes every frame exactly `cols × rows`.
fn fit(s: &str, w: usize) -> String {
    let mut out = String::with_capacity(w);
    for c in s.chars().take(w) {
        out.push(if (' '..='~').contains(&c) { c } else { '?' });
    }
    while out.len() < w {
        out.push(' ');
    }
    out
}

/// Left text + right text on one line of width `w` (right wins ties).
fn lr(left: &str, right: &str, w: usize) -> String {
    let right = fit(right, right.len().min(w));
    let left_w = w.saturating_sub(right.len());
    let mut out = fit(left, left_w);
    out.push_str(&right);
    fit(&out, w)
}

fn secs(t: u64) -> f64 {
    t as f64 / 1e9
}

/// Render one frame: exactly `rows` lines joined by `\n`, each exactly
/// `cols` printable-ASCII characters. Headless — no terminal, no escape
/// codes, no wall clock — so golden tests and proptests pin it directly.
pub fn render_frame(state: &TuiState, cols: usize, rows: usize) -> String {
    let mut lines: Vec<String> = Vec::new();
    let now = state.now;
    let window = crate::nanos_from_secs(state.cfg.window_secs);
    let t0 = now.saturating_sub(window);

    // Title: run + backend left, sim clock right.
    lines.push(lr(
        &format!("{} on {}", state.cfg.title, state.cfg.backend),
        &format!("t {:>10.1}s ", secs(now)),
        cols,
    ));

    // Stats strip: progress, retries, faults, cost, bar.
    let total = state.cfg.total_tasks;
    let pct = if total > 0 {
        (u64::from(state.done) * 100 / u64::from(total)) as usize
    } else {
        0
    };
    let filled = if total > 0 {
        (u64::from(state.done) as usize * BAR_W) / total as usize
    } else {
        0
    };
    let bar: String = std::iter::repeat_n('=', filled.min(BAR_W))
        .chain(std::iter::repeat_n('.', BAR_W - filled.min(BAR_W)))
        .collect();
    let cents = state.cost_cents();
    lines.push(fit(
        &format!(
            "tasks {}/{}  retry {}  faults {}  cost ${}.{:02}  [{}] {:>3}%",
            state.done,
            total,
            state.retries,
            state.faults,
            cents / 100,
            cents % 100,
            bar,
            pct
        ),
        cols,
    ));

    // Sparklines: storage throughput + ready-queue depth.
    let io_now = state.io_spark.back().copied().unwrap_or(0.0);
    let spark_w = (cols.saturating_sub(44) / 2).clamp(4, 24);
    lines.push(fit(
        &format!(
            "io {:>8.1} MB/s [{}]  ready {:>3} [{}]",
            io_now,
            sparkline(&state.io_spark, spark_w),
            state.ready_depth,
            sparkline(&state.ready_spark, spark_w),
        ),
        cols,
    ));

    // Gantt: header + one row per (node, sublane).
    let label_w = 7usize;
    let right_w = if cols >= 48 { 20 } else { 0 };
    let band_w = cols.saturating_sub(label_w + right_w + 2);
    if band_w >= 8 {
        lines.push(fit(
            &format!(
                "{:<label_w$}|{}|",
                "node",
                fit(
                    &format!(
                        " {:.1}s .. {:.1}s (1 col = {:.1}s)",
                        secs(t0),
                        secs(now),
                        secs((now - t0) / band_w as u64)
                    ),
                    band_w
                )
            ),
            cols,
        ));
        let empty_lane = Lane::default();
        for (&node, nl) in &state.nodes {
            let name = state.node_name(node);
            // A node with no task lanes yet still gets one row, so
            // down-bands ('~') show for idle crashed nodes.
            let lanes: &[Lane] = if nl.lanes.is_empty() {
                std::slice::from_ref(&empty_lane)
            } else {
                &nl.lanes
            };
            let shown = lanes.len().min(state.cfg.lane_cap.max(1));
            for (li, lane) in lanes.iter().take(shown).enumerate() {
                let label = if lanes.len() > 1 {
                    format!("{name}.{li}")
                } else {
                    name.clone()
                };
                let cur = lane.cur.and_then(|task| state.fold.open(task));
                let band = render_band(lane, cur, nl, t0, now, band_w);
                let right = match cur {
                    Some(att) => format!(
                        " {}:{} {}",
                        state.task_name(att.task),
                        att.attempt,
                        att.phase.map_or("dispatch", Phase::label)
                    ),
                    None if nl.is_down() => " down".to_owned(),
                    None => String::new(),
                };
                lines.push(fit(
                    &format!("{:<label_w$}|{}|{}", fit(&label, label_w), band, right),
                    cols,
                ));
            }
            if lanes.len() > shown {
                lines.push(fit(
                    &format!(
                        "{:<label_w$}|{} more lane(s) not shown",
                        "",
                        lanes.len() - shown
                    ),
                    cols,
                ));
            }
        }
    }

    // Fault ticker: newest entries last, as many as fit.
    lines.push(fit("faults:", cols));
    if state.ticker.is_empty() {
        lines.push(fit("  (none)", cols));
    } else {
        let room = rows.saturating_sub(lines.len()).max(1);
        let skip = state.ticker.len().saturating_sub(room);
        for (t, msg) in state.ticker.iter().skip(skip) {
            lines.push(fit(&format!("  {:>9.1}s  {}", secs(*t), msg), cols));
        }
    }

    lines.truncate(rows);
    while lines.len() < rows {
        lines.push(fit("", cols));
    }
    lines.join("\n")
}

/// Paint one sublane band over `[t0, now]`: each column shows the phase
/// char of the segment covering its midpoint, `~` where the node was
/// down, space where idle.
fn render_band(
    lane: &Lane,
    cur: Option<&Attempt>,
    nl: &NodeLanes,
    t0: u64,
    now: u64,
    w: usize,
) -> String {
    let mut out = String::with_capacity(w);
    let span = (now - t0).max(1);
    for c in 0..w {
        // Bucket midpoint, computed in u128 to dodge overflow on long runs.
        let mid = t0 + ((span as u128 * (2 * c as u128 + 1)) / (2 * w as u128)) as u64;
        let mut ch = b' ';
        for s in &lane.segs {
            if s.start <= mid && mid < s.end {
                ch = s.ch;
                break;
            }
        }
        if ch == b' ' {
            if let Some(att) = cur.filter(|att| att.phase_start <= mid) {
                ch = phase_char(att.phase);
            }
        }
        if ch == b' '
            && nl
                .down
                .iter()
                .any(|&(s, e)| s <= mid && e.is_none_or(|e| mid < e))
        {
            ch = b'~';
        }
        out.push(ch as char);
    }
    out
}

// ---------------------------------------------------------------------
// Live terminal sink
// ---------------------------------------------------------------------

/// How [`LiveSink`] talks to the terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LiveMode {
    /// Full-screen ANSI rendering (alternate screen, home cursor).
    Ansi,
    /// Plain, escape-free progress lines (dumb terminals, pipes, CI).
    Plain,
}

/// Pick a live mode for stderr: ANSI only when stderr is a real
/// terminal and `TERM` is set to something that isn't `dumb`.
pub fn detect_live_mode() -> LiveMode {
    use std::io::IsTerminal;
    let term = std::env::var("TERM").unwrap_or_default();
    if std::io::stderr().is_terminal() && !term.is_empty() && term != "dumb" {
        LiveMode::Ansi
    } else {
        LiveMode::Plain
    }
}

/// Terminal geometry from the `COLUMNS`/`LINES` environment (no ioctl —
/// dependency-free), with a sane default.
pub fn term_size_from_env() -> (usize, usize) {
    let get = |k: &str, lo: usize, hi: usize| {
        std::env::var(k)
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .map(|v| v.clamp(lo, hi))
    };
    (
        get("COLUMNS", 40, 500).unwrap_or(100),
        get("LINES", 8, 200).unwrap_or(32),
    )
}

/// The live viewer: folds events into a [`TuiState`] and repaints the
/// terminal on throttled metric ticks.
pub struct LiveSink {
    state: TuiState,
    mode: LiveMode,
    cols: usize,
    rows: usize,
    /// Wall-clock floor between physical repaints.
    min_redraw: std::time::Duration,
    last_draw: Option<std::time::Instant>,
    screen_open: bool,
}

impl LiveSink {
    /// A sink rendering `cols × rows` frames in the given mode.
    pub fn new(cfg: TuiConfig, mode: LiveMode, cols: usize, rows: usize) -> Self {
        LiveSink {
            state: TuiState::new(cfg),
            mode,
            cols: cols.max(20),
            rows: rows.max(4),
            min_redraw: std::time::Duration::from_millis(33),
            last_draw: None,
            screen_open: false,
        }
    }

    fn plain_line(&self) -> String {
        let s = &self.state;
        let cents = s.cost_cents();
        format!(
            "live: t={:.1}s tasks {}/{} faults {} cost ${}.{:02}",
            secs(s.now_nanos()),
            s.tasks_done(),
            s.cfg.total_tasks,
            s.fault_count(),
            cents / 100,
            cents % 100,
        )
    }

    fn draw(&mut self, force: bool) {
        // Wall-clock rate limit: output-only, never feeds back into the
        // simulation or the frame contents.
        if !force
            && self
                .last_draw
                .is_some_and(|t| t.elapsed() < self.min_redraw)
        {
            return;
        }
        self.last_draw = Some(std::time::Instant::now());
        let err = std::io::stderr();
        let mut out = err.lock();
        match self.mode {
            LiveMode::Ansi => {
                let frame = render_frame(&self.state, self.cols, self.rows);
                if !self.screen_open {
                    // Alternate screen, hidden cursor.
                    let _ = out.write_all(b"\x1b[?1049h\x1b[?25l");
                    self.screen_open = true;
                }
                let mut buf = String::with_capacity(frame.len() + 64);
                buf.push_str("\x1b[H");
                for line in frame.split('\n') {
                    buf.push_str(line);
                    buf.push_str("\x1b[K\r\n");
                }
                let _ = out.write_all(buf.as_bytes());
                let _ = out.flush();
            }
            LiveMode::Plain => {
                let _ = writeln!(out, "{}", self.plain_line());
            }
        }
    }

    fn close_screen(&mut self) {
        if self.screen_open {
            let err = std::io::stderr();
            let mut out = err.lock();
            // Restore main screen + cursor.
            let _ = out.write_all(b"\x1b[?1049l\x1b[?25h");
            let _ = out.flush();
            self.screen_open = false;
        }
    }
}

impl ObsSink for LiveSink {
    fn on_event(&mut self, t_nanos: u64, ev: &Event) {
        self.state.apply(t_nanos, ev);
    }

    fn on_metric_tick(&mut self, t_nanos: u64) {
        self.state.tick(t_nanos);
        self.draw(false);
    }

    fn on_flush(&mut self, _t_nanos: u64) {
        self.draw(true);
        self.close_screen();
        if self.mode == LiveMode::Ansi {
            // Leave the last frame on the main screen for scrollback.
            let frame = render_frame(&self.state, self.cols, self.rows);
            let err = std::io::stderr();
            let mut out = err.lock();
            let _ = writeln!(out, "{frame}");
        }
    }
}

/// A headless frame capturer: renders on every tick like the live
/// viewer, but stores frames (bounded) instead of touching a terminal.
/// The golden-frame tests and the live-determinism metamorphic test run
/// on this.
pub struct FrameSink {
    state: TuiState,
    cols: usize,
    rows: usize,
    cap: usize,
    frames: std::rc::Rc<std::cell::RefCell<Vec<(u64, String)>>>,
}

impl FrameSink {
    /// Capture up to `cap` `(tick-time, frame)` pairs into `frames`.
    pub fn new(
        cfg: TuiConfig,
        cols: usize,
        rows: usize,
        cap: usize,
        frames: std::rc::Rc<std::cell::RefCell<Vec<(u64, String)>>>,
    ) -> Self {
        FrameSink {
            state: TuiState::new(cfg),
            cols,
            rows,
            cap: cap.max(1),
            frames,
        }
    }
}

impl ObsSink for FrameSink {
    fn on_event(&mut self, t_nanos: u64, ev: &Event) {
        self.state.apply(t_nanos, ev);
    }

    fn on_metric_tick(&mut self, t_nanos: u64) {
        self.state.tick(t_nanos);
        let mut frames = self.frames.borrow_mut();
        if frames.len() == self.cap {
            frames.remove(0);
        }
        frames.push((t_nanos, render_frame(&self.state, self.cols, self.rows)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_dims(frame: &str) -> (usize, Vec<usize>) {
        let lines: Vec<&str> = frame.split('\n').collect();
        let widths = lines.iter().map(|l| l.chars().count()).collect();
        (lines.len(), widths)
    }

    #[test]
    fn empty_state_renders_exact_geometry() {
        let s = TuiState::new(TuiConfig::default());
        for (c, r) in [(80, 24), (20, 5), (1, 1), (200, 50)] {
            let f = render_frame(&s, c, r);
            let (rows, widths) = frame_dims(&f);
            assert_eq!(rows, r);
            assert!(widths.iter().all(|&w| w == c), "{c}x{r}: {widths:?}");
        }
    }

    #[test]
    fn task_lifecycle_paints_lanes() {
        let mut s = TuiState::new(TuiConfig {
            total_tasks: 1,
            task_names: vec!["mAdd".into()],
            node_names: vec!["w0".into()],
            window_secs: 100.0,
            ..TuiConfig::default()
        });
        let sec = crate::nanos_from_secs;
        s.apply(
            sec(1.0),
            &Event::TaskStart {
                task: 0,
                node: 0,
                attempt: 0,
            },
        );
        s.apply(
            sec(10.0),
            &Event::TaskPhase {
                task: 0,
                node: 0,
                phase: Phase::Compute,
            },
        );
        s.tick(sec(50.0));
        let f = render_frame(&s, 100, 12);
        assert!(f.contains("mAdd:0 compute"), "{f}");
        assert!(f.contains('#'), "compute cells painted: {f}");
        s.apply(
            sec(60.0),
            &Event::TaskEnd {
                task: 0,
                node: 0,
                attempt: 1,
            },
        );
        s.tick(sec(61.0));
        let f = render_frame(&s, 100, 12);
        assert!(f.contains("tasks 1/1"), "{f}");
    }

    #[test]
    fn fault_ticker_and_down_band() {
        let mut s = TuiState::new(TuiConfig {
            node_names: vec!["w0".into()],
            window_secs: 100.0,
            ..TuiConfig::default()
        });
        let sec = crate::nanos_from_secs;
        s.apply(
            sec(5.0),
            &Event::Fault {
                kind: FaultKind::NodeCrash,
                node: 0,
            },
        );
        s.tick(sec(20.0));
        let f = render_frame(&s, 90, 14);
        assert!(f.contains("node_crash on w0"), "{f}");
        assert!(f.contains('~'), "down cells painted: {f}");
        s.apply(sec(30.0), &Event::NodeRecovered { node: 0 });
        s.tick(sec(40.0));
        let f = render_frame(&s, 90, 14);
        assert!(f.contains("w0 recovered"), "{f}");
    }

    #[test]
    fn cost_counts_open_and_closed_segments() {
        let mut s = TuiState::new(TuiConfig {
            node_rates: vec![
                NodeRate {
                    cents_per_hour: 68,
                    spot_cents_per_hour: 20,
                },
                NodeRate {
                    cents_per_hour: 68,
                    spot_cents_per_hour: 20,
                },
            ],
            ..TuiConfig::default()
        });
        let sec = crate::nanos_from_secs;
        s.apply(
            sec(0.0),
            &Event::SegmentOpen {
                node: 0,
                spot: false,
            },
        );
        s.apply(
            sec(0.0),
            &Event::SegmentOpen {
                node: 1,
                spot: true,
            },
        );
        s.apply(sec(10.0), &Event::SegmentClose { node: 1 });
        s.apply(sec(20.0), &Event::BgDone); // advances the clock
                                            // Node 0 open 20 s → 1 started hour à 68; node 1 closed → 1 spot hour à 20.
        assert_eq!(s.cost_cents(), 88);
    }

    #[test]
    fn ticker_is_bounded() {
        let mut s = TuiState::new(TuiConfig::default());
        for i in 0..(TICKER_CAP as u64 + 40) {
            s.apply(i, &Event::FilesLost { count: 1 });
        }
        assert_eq!(s.ticker.len(), TICKER_CAP);
    }

    #[test]
    fn pruning_bounds_lane_memory() {
        let mut s = TuiState::new(TuiConfig {
            window_secs: 10.0,
            ..TuiConfig::default()
        });
        let sec = crate::nanos_from_secs;
        for i in 0..200u32 {
            let t0 = f64::from(i) * 2.0;
            s.apply(
                sec(t0),
                &Event::TaskStart {
                    task: i,
                    node: 0,
                    attempt: 0,
                },
            );
            s.apply(
                sec(t0 + 1.0),
                &Event::TaskEnd {
                    task: i,
                    node: 0,
                    attempt: 1,
                },
            );
            s.tick(sec(t0 + 1.5));
        }
        let lanes = &s.nodes[&0].lanes;
        let total: usize = lanes.iter().map(|l| l.segs.len()).sum();
        assert!(total < 20, "pruned to the window, got {total}");
    }

    #[test]
    fn sparkline_scales_and_pads() {
        let mut ring = VecDeque::new();
        push_spark(&mut ring, 0.0);
        push_spark(&mut ring, 5.0);
        push_spark(&mut ring, 10.0);
        let s = sparkline(&ring, 5);
        assert_eq!(s.len(), 5);
        assert!(s.ends_with('@'), "{s:?}");
        assert_eq!(sparkline(&VecDeque::new(), 4), "    ");
    }

    #[test]
    fn fit_sanitises_non_ascii() {
        assert_eq!(fit("héllo", 6), "h?llo ");
        assert_eq!(fit("abcdef", 3), "abc");
    }
}
