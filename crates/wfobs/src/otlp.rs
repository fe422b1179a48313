//! OTLP/JSON export: OpenTelemetry `ExportTraceServiceRequest` /
//! `ExportMetricsServiceRequest` documents rendered from a Full-level
//! [`ObsReport`](crate::bus::ObsReport) — no network, no protobuf crate,
//! file-sink only, byte-deterministic.
//!
//! The mapper turns the flat event stream into a span tree:
//!
//! ```text
//! run <name>                                  (single root per run)
//! └─ node w3 #0..#k   (one span per billing incarnation; SegmentOpen/
//!    │                 SegmentClose; StorageOp/CacheHit/CacheMiss are
//!    │                 span events; billing attrs; links to the
//!    │                 previous incarnation)
//!    └─ task mProject_17 (one span per execution attempt; TaskStart →
//!       │                 TaskEnd/TaskKilled/TaskFailed; retries link
//!       │                 to the previous attempt)
//!       └─ overhead / ops / stage-in / read / compute / write /
//!          stage-out  (one span per lifecycle phase interval)
//! ```
//!
//! Fault-class events (`Fault`, `FilesLost`, `RescueResubmit`,
//! `NodeRecovered`) become span events on the root; resource attributes
//! carry the seed, workflow name, storage backend, cluster size and the
//! final run digest.
//!
//! **Id derivation.** The 128-bit trace id and every 64-bit span id are
//! FNV-1a hashes chained from `(seed, digest)` — the same digest stream
//! that pins replay fidelity — plus the span's structural identity (kind
//! tag, integer id, occurrence ordinal). Same seed + config ⇒ the same
//! digest ⇒ byte-identical OTLP files; the conformance suite asserts
//! uniqueness and reproducibility.
//!
//! **Timestamps.** `timeUnixNano` fields carry *simulated* nanoseconds
//! with epoch 0 = run start (the simulator has no wall clock). Backends
//! like Jaeger/Tempo render such traces as early-1970 sessions, which is
//! harmless; relative durations — the paper's deliverable — are exact.
//!
//! The other half of the conformance contract is the test-only
//! `otlpcheck` crate, an OTLP/JSON reader over the `serde_json` shim, so
//! well-formedness (single root, resolving parents, nested intervals,
//! unique reproducible ids) and parity (phase/cost reconstruction) are
//! checked end to end through real bytes.

use crate::bus::ObsReport;
use crate::event::{Event, OpKind, Phase};
use crate::fold::{AttemptFold, Outcome, Step};
use crate::name_or;
use crate::text::{push_esc, push_f64, push_hex16, push_i64, push_u64};
use std::borrow::Cow;
use std::collections::BTreeSet;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv_step(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// Human-readable labels and run metadata the exporter joins back onto
/// the integer-id event stream. Everything here is optional: missing
/// task/node names render as `t<id>`/`w<id>`, missing metadata renders
/// as empty attributes.
#[derive(Debug, Clone, Default)]
pub struct OtlpLabels {
    /// `service.name` resource attribute (e.g. `wfsim`).
    pub service_name: String,
    /// Workflow/run name (`wf.run.name` resource attribute, root span name).
    pub run_name: String,
    /// Storage backend label (`wf.storage.backend` resource attribute).
    pub storage: String,
    /// Cluster size (`wf.cluster.workers` resource attribute).
    pub workers: u32,
    /// Task names by task id.
    pub task_names: Vec<String>,
    /// Node labels by node id.
    pub node_names: Vec<String>,
    /// Billed lease intervals, in per-node incarnation order; attached as
    /// `wf.billing.*` attributes to the matching node-incarnation span.
    pub segments: Vec<SegmentLabel>,
}

/// One billed instance incarnation, as attached to a node span.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentLabel {
    /// Cluster node id the incarnation belonged to.
    pub node: u32,
    /// Instance-type API name (e.g. `c1.xlarge`).
    pub itype: String,
    /// Whether the incarnation ran on the spot market.
    pub spot: bool,
    /// Billed seconds from acquisition to release.
    pub secs: f64,
}

/// A typed attribute value (the subset of OTLP `AnyValue` we emit).
/// Strings borrow the labels or a static label wherever they can.
#[derive(Debug, Clone, PartialEq)]
enum Attr<'a> {
    Str(Cow<'a, str>),
    I64(i64),
    F64(f64),
    Bool(bool),
}

impl Attr<'static> {
    fn label(s: &'static str) -> Self {
        Attr::Str(Cow::Borrowed(s))
    }
}

type Attrs<'a> = Vec<(&'static str, Attr<'a>)>;

/// One span being assembled by the mapper.
#[derive(Debug)]
struct SpanBuf<'a> {
    id: u64,
    /// 0 = no parent (the root span).
    parent: u64,
    name: Cow<'a, str>,
    start: u64,
    end: u64,
    attrs: Attrs<'a>,
    /// Span events: the recorded storage, cache and fault-class events
    /// themselves, rendered with their attributes on export.
    events: Vec<(u64, Event)>,
    /// `(span id, wf.link attribute)` pairs; linked spans share the trace.
    links: Vec<(u64, &'static str)>,
    /// OTLP status code: 0 unset, 1 ok, 2 error.
    status: u8,
}

impl<'a> SpanBuf<'a> {
    /// A span with room for `attrs` attributes.
    fn new(id: u64, parent: u64, name: Cow<'a, str>, start: u64, attrs: usize) -> Self {
        SpanBuf {
            id,
            parent,
            name,
            start,
            end: start,
            attrs: Vec::with_capacity(attrs),
            events: Vec::new(),
            links: Vec::new(),
            status: 0,
        }
    }
}

/// Deterministic id generator chained from `(seed, digest)`.
struct IdGen {
    base: u64,
}

impl IdGen {
    fn new(seed: u64, digest: u64) -> Self {
        let mut base = fnv_step(FNV_OFFSET, b"wfobs.otlp");
        base = fnv_step(base, &seed.to_le_bytes());
        base = fnv_step(base, &digest.to_le_bytes());
        IdGen { base }
    }

    /// 128-bit trace id as `(hi, lo)`.
    fn trace_id(&self) -> (u64, u64) {
        (
            fnv_step(self.base, b"trace.hi"),
            fnv_step(self.base, b"trace.lo"),
        )
    }

    /// 64-bit span id from a structural identity. Never returns 0 (the
    /// OTLP "invalid span id").
    fn span_id(&self, tag: u8, a: u64, b: u64) -> u64 {
        let mut s = fnv_step(self.base, &[tag]);
        s = fnv_step(s, &a.to_le_bytes());
        s = fnv_step(s, &b.to_le_bytes());
        if s == 0 {
            1
        } else {
            s
        }
    }
}

const TAG_RUN: u8 = 0;
const TAG_NODE: u8 = 1;
const TAG_TASK: u8 = 2;
const TAG_PHASE: u8 = 3;

/// Phase label including the implicit dispatch-overhead interval.
fn phase_label(p: Option<Phase>) -> &'static str {
    match p {
        None => "overhead",
        Some(p) => p.label(),
    }
}

fn op_event_name(op: OpKind) -> &'static str {
    match op {
        OpKind::Read => "storage.read",
        OpKind::Write => "storage.write",
        OpKind::StageIn => "storage.stage_in",
        OpKind::StageOut => "storage.stage_out",
        OpKind::OpStorm => "storage.op_storm",
    }
}

/// Everything the span mapper produced.
struct SpanForest<'a> {
    trace_hi: u64,
    trace_lo: u64,
    spans: Vec<SpanBuf<'a>>,
}

/// Build the span tree from the recorded event stream.
fn build_spans<'a>(report: &ObsReport, labels: &'a OtlpLabels) -> SpanForest<'a> {
    let ids = IdGen::new(report.seed, report.digest);
    let (trace_hi, trace_lo) = ids.trace_id();
    let mut spans: Vec<SpanBuf> = Vec::new();

    // Root span (index 0) — closed at the last observed timestamp.
    let root_name = if labels.run_name.is_empty() {
        Cow::Borrowed("run")
    } else {
        Cow::Owned(format!("run {}", labels.run_name))
    };
    let root_id = ids.span_id(TAG_RUN, 0, 0);
    let mut root = SpanBuf::new(root_id, 0, root_name, 0, 3);
    root.attrs.push(("wf.seed", Attr::I64(report.seed as i64)));
    root.attrs.push(("wf.digest", digest_attr(report.digest)));
    root.attrs
        .push(("wf.events", Attr::I64(report.events.len() as i64)));
    root.status = 1;
    spans.push(root);

    // Per-node incarnation bookkeeping.
    let mut inc_open: Vec<Option<usize>> = Vec::new(); // node -> open span ix
    let mut inc_seen: Vec<u64> = Vec::new(); // node -> incarnations so far
    let mut inc_prev: Vec<u64> = Vec::new(); // node -> previous incarnation span id
                                             // Per-node billing cursor into `labels.segments` (grouped by node).
    let mut seg_cursor: Vec<usize> = Vec::new();

    // Span index of each task's open attempt, and tasks whose next
    // attempt is a rescue re-run.
    let mut task_span: Vec<usize> = Vec::new();
    let mut rescue_pending: BTreeSet<u32> = BTreeSet::new();
    let mut fold = AttemptFold::default();
    let mut task_step = |spans: &mut Vec<SpanBuf<'a>>,
                         rescue_pending: &mut BTreeSet<u32>,
                         inc_open: &[Option<usize>],
                         step: Step| match step {
        Step::Start(att) => {
            let task = att.task;
            let parent = inc_open
                .get(att.node as usize)
                .copied()
                .flatten()
                .map_or(root_id, |ix| spans[ix].id);
            let id = ids.span_id(TAG_TASK, u64::from(task), u64::from(att.ordinal));
            let name = name_or(&labels.task_names, "t", task);
            let mut s = SpanBuf::new(id, parent, name, att.start, 5);
            s.attrs.push(("wf.task.id", Attr::I64(i64::from(task))));
            s.attrs
                .push(("wf.task.attempt", Attr::I64(i64::from(att.attempt))));
            s.attrs.push(("wf.node.id", Attr::I64(i64::from(att.node))));
            if att.ordinal > 0 {
                let kind = if rescue_pending.remove(&task) {
                    "rescue_rerun_of"
                } else {
                    "retry_of"
                };
                let prev = ids.span_id(TAG_TASK, u64::from(task), u64::from(att.ordinal - 1));
                s.links.push((prev, kind));
            }
            if task_span.len() <= task as usize {
                task_span.resize(task as usize + 1, 0);
            }
            task_span[task as usize] = spans.len();
            spans.push(s);
        }
        Step::Interval {
            att,
            phase,
            start,
            end,
            seq,
        } => {
            let id = ids.span_id(
                TAG_PHASE,
                u64::from(att.task),
                (u64::from(att.ordinal) << 16) | u64::from(seq),
            );
            let parent = spans[task_span[att.task as usize]].id;
            let label = phase_label(phase);
            let mut s = SpanBuf::new(id, parent, Cow::Borrowed(label), start, 1);
            s.end = end;
            s.attrs.push(("wf.phase", Attr::label(label)));
            spans.push(s);
        }
        Step::Close { att, end, outcome } => {
            let s = &mut spans[task_span[att.task as usize]];
            s.end = end;
            let (label, status) = match outcome {
                Outcome::Ok => ("ok", 1),
                Outcome::Killed { .. } => ("killed", 2),
                Outcome::Failed => ("failed", 2),
                Outcome::Unfinished => ("unfinished", 0),
            };
            s.attrs.push(("wf.task.outcome", Attr::label(label)));
            s.status = status;
            if let Outcome::Killed { wasted_nanos } = outcome {
                s.attrs
                    .push(("wf.task.wasted_nanos", Attr::I64(wasted_nanos as i64)));
            }
        }
    };

    let mut t_end: u64 = 0;
    for &(t, ev) in &report.events {
        t_end = t_end.max(t);
        fold.push(t, &ev, |step| {
            task_step(&mut spans, &mut rescue_pending, &inc_open, step)
        });
        match ev {
            Event::SegmentOpen { node, spot } => {
                let n = node as usize;
                if inc_seen.len() <= n {
                    inc_open.resize(n + 1, None);
                    inc_seen.resize(n + 1, 0);
                    inc_prev.resize(n + 1, 0);
                    seg_cursor.resize(n + 1, 0);
                }
                let ordinal = inc_seen[n];
                inc_seen[n] += 1;
                let id = ids.span_id(TAG_NODE, u64::from(node), ordinal);
                let name = name_or(&labels.node_names, "w", node);
                let name = if ordinal == 0 {
                    name
                } else {
                    Cow::Owned(format!("{name} #{ordinal}"))
                };
                let mut s = SpanBuf::new(id, root_id, name, t, 6);
                s.attrs.push(("wf.node.id", Attr::I64(i64::from(node))));
                s.attrs
                    .push(("wf.node.incarnation", Attr::I64(ordinal as i64)));
                s.attrs.push(("wf.node.spot", Attr::Bool(spot)));
                // Pair the incarnation with its billed segment, in
                // per-node order.
                let mut skipped = seg_cursor[n];
                for (i, seg) in labels.segments.iter().enumerate().skip(skipped) {
                    if seg.node == node {
                        s.attrs
                            .push(("wf.billing.itype", Attr::Str(Cow::Borrowed(&seg.itype))));
                        s.attrs.push(("wf.billing.spot", Attr::Bool(seg.spot)));
                        s.attrs.push(("wf.billing.secs", Attr::F64(seg.secs)));
                        skipped = i + 1;
                        break;
                    }
                    skipped = i + 1;
                }
                seg_cursor[n] = skipped;
                if ordinal > 0 {
                    s.links.push((inc_prev[n], "previous_incarnation"));
                }
                s.status = 1;
                inc_prev[n] = id;
                inc_open[n] = Some(spans.len());
                spans.push(s);
            }
            Event::SegmentClose { node } => {
                if let Some(ix) = inc_open.get_mut(node as usize).and_then(Option::take) {
                    spans[ix].end = t;
                }
            }
            // Storage and cache events belong to the node incarnation
            // they ran on (the root when none is open).
            Event::StorageOp { node, .. }
            | Event::CacheHit { node }
            | Event::CacheMiss { node } => {
                let target = inc_open.get(node as usize).copied().flatten().unwrap_or(0);
                spans[target].events.push((t, ev));
            }
            Event::RescueResubmit { task } => {
                rescue_pending.insert(task);
                spans[0].events.push((t, ev));
            }
            Event::Fault { .. } | Event::FilesLost { .. } | Event::NodeRecovered { .. } => {
                spans[0].events.push((t, ev));
            }
            // Flow- and queue-level events are metrics material, not spans.
            _ => {}
        }
    }

    // Close everything still open (a run that ended mid-fault, rescue
    // pending) at the last observed timestamp so intervals stay nested.
    fold.finish(|step| task_step(&mut spans, &mut rescue_pending, &inc_open, step));
    for slot in inc_open.iter_mut() {
        if let Some(ix) = slot.take() {
            spans[ix].end = t_end;
        }
    }
    spans[0].end = t_end;

    SpanForest {
        trace_hi,
        trace_lo,
        spans,
    }
}

// ---------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------

/// The run digest as a resource or root-span attribute.
fn digest_attr(digest: u64) -> Attr<'static> {
    Attr::Str(Cow::Owned(format!("{digest:016x}")))
}

/// Append an OTLP `AnyValue`. int64 values are decimal strings, per the
/// proto3 JSON mapping OTLP/JSON uses.
fn push_value(out: &mut String, v: &Attr) {
    match v {
        Attr::Str(s) => {
            out.push_str("{\"stringValue\":\"");
            push_esc(out, s);
            out.push_str("\"}");
        }
        Attr::I64(n) => {
            out.push_str("{\"intValue\":\"");
            push_i64(out, *n);
            out.push_str("\"}");
        }
        Attr::F64(f) => {
            out.push_str("{\"doubleValue\":");
            push_f64(out, *f);
            out.push('}');
        }
        Attr::Bool(b) => {
            out.push_str(if *b {
                "{\"boolValue\":true}"
            } else {
                "{\"boolValue\":false}"
            });
        }
    }
}

/// Append a JSON array of `{key, value}` attributes.
fn push_attrs(out: &mut String, attrs: &[(&'static str, Attr)]) {
    out.push('[');
    for (i, (k, v)) in attrs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"key\":\"");
        out.push_str(k);
        out.push_str("\",\"value\":");
        push_value(out, v);
        out.push('}');
    }
    out.push(']');
}

/// Append one span event: a recorded event with its name and attributes.
fn push_span_event(out: &mut String, t: u64, ev: &Event) {
    let node = |node: u32| ("wf.node.id", Attr::I64(i64::from(node)));
    let (name, attrs): (&str, &[(&'static str, Attr)]) = match *ev {
        Event::StorageOp { op, node: n, bytes } => (
            op_event_name(op),
            &[
                ("wf.op.kind", Attr::label(op.label())),
                ("wf.op.bytes", Attr::I64(bytes as i64)),
                node(n),
            ],
        ),
        Event::CacheHit { node: n } => ("cache.hit", &[node(n)]),
        Event::CacheMiss { node: n } => ("cache.miss", &[node(n)]),
        Event::Fault { kind, node: n } => (
            "fault",
            &[("wf.fault.kind", Attr::label(kind.label())), node(n)],
        ),
        Event::FilesLost { count } => (
            "files_lost",
            &[("wf.files.count", Attr::I64(i64::from(count)))],
        ),
        Event::RescueResubmit { task } => (
            "rescue_resubmit",
            &[("wf.task.id", Attr::I64(i64::from(task)))],
        ),
        Event::NodeRecovered { node: n } => ("node_recovered", &[node(n)]),
        _ => unreachable!("the span mapper attaches no {ev:?}"),
    };
    out.push_str("{\"timeUnixNano\":\"");
    push_u64(out, t);
    out.push_str("\",\"name\":\"");
    out.push_str(name);
    out.push_str("\",\"attributes\":");
    push_attrs(out, attrs);
    out.push('}');
}

/// Append the shared resource block: service identity plus run metadata.
fn push_resource(out: &mut String, report: &ObsReport, labels: &OtlpLabels) {
    let service = if labels.service_name.is_empty() {
        "wfsim"
    } else {
        &labels.service_name
    };
    let attrs = [
        ("service.name", Attr::Str(Cow::Borrowed(service))),
        ("wf.run.name", Attr::Str(Cow::Borrowed(&labels.run_name))),
        ("wf.seed", Attr::I64(report.seed as i64)),
        (
            "wf.storage.backend",
            Attr::Str(Cow::Borrowed(&labels.storage)),
        ),
        ("wf.cluster.workers", Attr::I64(i64::from(labels.workers))),
        ("wf.digest", digest_attr(report.digest)),
    ];
    out.push_str("{\"attributes\":");
    push_attrs(out, &attrs);
    out.push('}');
}

const SCOPE_JSON: &str = "{\"name\":\"wfobs\",\"version\":\"0.1.0\"}";

/// Append one span; `trace_id` is the 32 hex digits of the trace id.
fn push_span(out: &mut String, s: &SpanBuf, trace_id: &str) {
    out.push_str("{\"traceId\":\"");
    out.push_str(trace_id);
    out.push_str("\",\"spanId\":\"");
    push_hex16(out, s.id);
    out.push_str("\",\"parentSpanId\":\"");
    if s.parent != 0 {
        push_hex16(out, s.parent);
    }
    out.push_str("\",\"name\":\"");
    push_esc(out, &s.name);
    out.push_str("\",\"kind\":1,\"startTimeUnixNano\":\"");
    push_u64(out, s.start);
    out.push_str("\",\"endTimeUnixNano\":\"");
    push_u64(out, s.end);
    out.push_str("\",\"attributes\":");
    push_attrs(out, &s.attrs);
    out.push_str(",\"events\":[");
    for (i, (t, ev)) in s.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_span_event(out, *t, ev);
    }
    out.push_str("],\"links\":[");
    for (i, (id, kind)) in s.links.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("{\"traceId\":\"");
        out.push_str(trace_id);
        out.push_str("\",\"spanId\":\"");
        push_hex16(out, *id);
        out.push_str("\",\"attributes\":[{\"key\":\"wf.link\",\"value\":{\"stringValue\":\"");
        out.push_str(kind);
        out.push_str("\"}}]}");
    }
    out.push_str("],\"status\":{\"code\":");
    push_u64(out, u64::from(s.status));
    out.push_str("}}");
}

/// Render a Full-level report as an OTLP/JSON `ExportTraceServiceRequest`.
///
/// Byte-deterministic: same report + labels ⇒ identical output. Suitable
/// for `POST /v1/traces` on any OTLP/HTTP collector.
pub fn otlp_trace(report: &ObsReport, labels: &OtlpLabels) -> String {
    let forest = build_spans(report, labels);
    let mut trace_id = String::with_capacity(32);
    push_hex16(&mut trace_id, forest.trace_hi);
    push_hex16(&mut trace_id, forest.trace_lo);
    let span_events: usize = forest.spans.iter().map(|s| s.events.len()).sum();
    let mut out = String::with_capacity(480 * forest.spans.len() + 160 * span_events + 1024);
    out.push_str("{\"resourceSpans\":[{\"resource\":");
    push_resource(&mut out, report, labels);
    out.push_str(",\"scopeSpans\":[{\"scope\":");
    out.push_str(SCOPE_JSON);
    out.push_str(",\"spans\":[\n");
    for (i, s) in forest.spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        push_span(&mut out, s, &trace_id);
    }
    out.push_str("\n]}]}]}\n");
    out
}

/// Render the metrics registry of a Full-level report as an OTLP/JSON
/// `ExportMetricsServiceRequest`: counters become cumulative monotonic
/// sums, histograms keep their explicit bounds, and event-boundary time
/// series become multi-point gauges.
pub fn otlp_metrics(report: &ObsReport, labels: &OtlpLabels) -> String {
    let t_end = report.events.last().map_or(0, |&(t, _)| t);
    let m = &report.metrics;
    let points: usize = m.all_series().map(|(_, p)| p.len()).sum();
    let mut out = String::with_capacity(
        256 * (m.counters().count() + m.histograms().count()) + 48 * points + 1024,
    );
    out.push_str("{\"resourceMetrics\":[{\"resource\":");
    push_resource(&mut out, report, labels);
    out.push_str(",\"scopeMetrics\":[{\"scope\":");
    out.push_str(SCOPE_JSON);
    out.push_str(",\"metrics\":[\n");
    // Each metric opens `{"name":"wf.<name>",`, after `,\n` but for the
    // first. Counter and histogram names are static labels; series names
    // come from resource labels, so they are escaped.
    let mut first = true;
    let mut open = |out: &mut String, name: &str, escape: bool| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str("{\"name\":\"wf.");
        if escape {
            push_esc(out, name);
        } else {
            out.push_str(name);
        }
        out.push_str("\",");
    };

    for (name, v) in m.counters() {
        open(&mut out, name, false);
        out.push_str("\"sum\":{\"dataPoints\":[{\"startTimeUnixNano\":\"0\",\"timeUnixNano\":\"");
        push_u64(&mut out, t_end);
        out.push_str("\",\"asInt\":\"");
        push_u64(&mut out, v);
        out.push_str("\"}],\"aggregationTemporality\":2,\"isMonotonic\":true}}");
    }
    for (name, h) in m.histograms() {
        open(&mut out, name, false);
        out.push_str(
            "\"histogram\":{\"dataPoints\":[{\"startTimeUnixNano\":\"0\",\"timeUnixNano\":\"",
        );
        push_u64(&mut out, t_end);
        out.push_str("\",\"count\":\"");
        push_u64(&mut out, h.n);
        out.push_str("\",\"sum\":");
        push_u64(&mut out, h.sum);
        out.push_str(",\"bucketCounts\":[");
        for (i, &c) in h.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            push_u64(&mut out, c);
            out.push('"');
        }
        out.push_str("],\"explicitBounds\":[");
        for (i, &b) in h.bounds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_u64(&mut out, b);
        }
        out.push_str("]}],\"aggregationTemporality\":2}}");
    }
    for (name, pts) in m.all_series() {
        open(&mut out, name, true);
        out.push_str("\"gauge\":{\"dataPoints\":[");
        for (i, &(t, v)) in pts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"timeUnixNano\":\"");
            push_u64(&mut out, t);
            out.push_str("\",\"asDouble\":");
            push_f64(&mut out, v);
            out.push('}');
        }
        out.push_str("]}}");
    }

    out.push_str("\n]}]}]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus::{ObsHandle, ObsLevel};
    use crate::event::FaultKind;
    use otlpcheck as decode;

    fn sample_report() -> ObsReport {
        let h = ObsHandle::new(ObsLevel::Full, 7);
        h.set_now(0);
        h.emit(Event::SegmentOpen {
            node: 0,
            spot: false,
        });
        h.emit(Event::TaskStart {
            task: 0,
            node: 0,
            attempt: 0,
        });
        h.set_now(250_000_000);
        h.emit(Event::TaskPhase {
            task: 0,
            node: 0,
            phase: Phase::Read,
        });
        h.emit(Event::StorageOp {
            op: OpKind::Read,
            node: 0,
            bytes: 1000,
        });
        h.emit(Event::CacheMiss { node: 0 });
        h.set_now(1_000_000_000);
        h.emit(Event::TaskPhase {
            task: 0,
            node: 0,
            phase: Phase::Compute,
        });
        h.set_now(2_000_000_000);
        h.emit(Event::Fault {
            kind: FaultKind::NodeCrash,
            node: 0,
        });
        h.emit(Event::TaskKilled {
            task: 0,
            node: 0,
            wasted_nanos: 2_000_000_000,
        });
        h.emit(Event::SegmentClose { node: 0 });
        h.set_now(2_100_000_000);
        h.emit(Event::SegmentOpen {
            node: 0,
            spot: false,
        });
        h.emit(Event::TaskStart {
            task: 0,
            node: 0,
            attempt: 0,
        });
        h.set_now(3_000_000_000);
        h.emit(Event::TaskEnd {
            task: 0,
            node: 0,
            attempt: 1,
        });
        h.emit(Event::SegmentClose { node: 0 });
        h.take_report().unwrap()
    }

    fn labels() -> OtlpLabels {
        OtlpLabels {
            service_name: "wfsim".into(),
            run_name: "sample".into(),
            storage: "NFS".into(),
            workers: 1,
            task_names: vec!["mAdd".into()],
            node_names: vec!["w0".into()],
            segments: vec![
                SegmentLabel {
                    node: 0,
                    itype: "c1.xlarge".into(),
                    spot: false,
                    secs: 2.0,
                },
                SegmentLabel {
                    node: 0,
                    itype: "c1.xlarge".into(),
                    spot: false,
                    secs: 0.9,
                },
            ],
        }
    }

    #[test]
    fn export_round_trips_and_is_well_formed() {
        let report = sample_report();
        let json = otlp_trace(&report, &labels());
        let t = decode::trace(&json).expect("decodes");
        decode::check_well_formed(&t).expect("well-formed");
        // run root + 2 node incarnations + 2 task attempts + phases
        // (overhead, read, compute of attempt 0; overhead of attempt 1).
        assert_eq!(t.spans.len(), 1 + 2 + 2 + 4, "{json}");
        assert_eq!(
            t.resource_attr("wf.storage.backend").unwrap().as_str(),
            Some("NFS")
        );
        let root = t
            .spans
            .iter()
            .find(|s| s.parent_span_id.is_empty())
            .unwrap();
        assert_eq!(root.name, "run sample");
        assert!(root.events.iter().any(|e| e.name == "fault"));
    }

    #[test]
    fn retry_links_to_previous_attempt_and_kill_is_error() {
        let t = decode::trace(&otlp_trace(&sample_report(), &labels())).unwrap();
        let attempts: Vec<_> = t.spans.iter().filter(|s| s.name == "mAdd").collect();
        assert_eq!(attempts.len(), 2);
        let killed = attempts
            .iter()
            .find(|s| s.attr("wf.task.outcome").unwrap().as_str() == Some("killed"))
            .expect("killed attempt present");
        assert_eq!(killed.status_code, 2);
        let retry = attempts
            .iter()
            .find(|s| s.attr("wf.task.outcome").unwrap().as_str() == Some("ok"))
            .expect("successful attempt present");
        assert_eq!(retry.links.len(), 1);
        assert_eq!(retry.links[0].span_id, killed.span_id);
        assert_eq!(
            retry.links[0].attrs[0].1.as_str(),
            Some("retry_of"),
            "link kind"
        );
    }

    #[test]
    fn billing_attributes_follow_incarnation_order() {
        let t = decode::trace(&otlp_trace(&sample_report(), &labels())).unwrap();
        let incs: Vec<_> = t
            .spans
            .iter()
            .filter(|s| s.attr("wf.billing.secs").is_some())
            .collect();
        assert_eq!(incs.len(), 2);
        assert_eq!(incs[0].attr("wf.billing.secs").unwrap().as_f64(), Some(2.0));
        assert_eq!(incs[1].attr("wf.billing.secs").unwrap().as_f64(), Some(0.9));
        assert_eq!(
            incs[1].links[0].attrs[0].1.as_str(),
            Some("previous_incarnation")
        );
    }

    #[test]
    fn export_is_byte_deterministic() {
        let report = sample_report();
        assert_eq!(
            otlp_trace(&report, &labels()),
            otlp_trace(&report, &labels())
        );
        assert_eq!(
            otlp_metrics(&report, &labels()),
            otlp_metrics(&report, &labels())
        );
    }

    #[test]
    fn ids_derive_from_seed_and_digest() {
        let report = sample_report();
        let a = decode::trace(&otlp_trace(&report, &labels())).unwrap();
        let b = decode::trace(&otlp_trace(&report, &labels())).unwrap();
        assert_eq!(a.spans[0].trace_id, b.spans[0].trace_id);
        // A different seed produces a different digest, hence new ids.
        let other = {
            let h = ObsHandle::new(ObsLevel::Full, 8);
            h.emit(Event::BgDone);
            h.take_report().unwrap()
        };
        let c = decode::trace(&otlp_trace(&other, &labels())).unwrap();
        assert_ne!(a.spans[0].trace_id, c.spans[0].trace_id);
    }

    #[test]
    fn metrics_round_trip() {
        let report = sample_report();
        let json = otlp_metrics(&report, &labels());
        let doc = decode::metrics(&json).expect("decodes");
        let sum = |name: &str| {
            doc.metrics
                .iter()
                .find_map(|m| match m {
                    decode::Metric::Sum(n, v) if n == name => Some(*v),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("{name} missing"))
        };
        assert_eq!(sum("wf.tasks_started"), 2);
        assert_eq!(sum("wf.tasks_finished"), 1);
        assert_eq!(sum("wf.tasks_killed"), 1);
        assert_eq!(sum("wf.cache_misses"), 1);
        assert_eq!(
            doc.resource,
            decode::trace(&otlp_trace(&report, &labels()))
                .unwrap()
                .resource,
            "trace and metrics share the resource block"
        );
    }

    #[test]
    fn empty_report_still_exports_single_root() {
        let h = ObsHandle::new(ObsLevel::Full, 3);
        let report = h.take_report().unwrap();
        let t = decode::trace(&otlp_trace(&report, &OtlpLabels::default())).unwrap();
        decode::check_well_formed(&t).expect("well-formed");
        assert_eq!(t.spans.len(), 1);
        assert_eq!(t.spans[0].start, t.spans[0].end);
    }
}
