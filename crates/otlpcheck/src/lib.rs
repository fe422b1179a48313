//! Minimal OTLP/JSON reader — the conformance half of the `wfobs`
//! export contract, linked only as a dev-dependency. Documents are parsed
//! by the `serde_json` shim, the workspace's one JSON parser, and mapped
//! onto plain structs that the property, edge-case and parity suites
//! inspect. Not a general OTLP client; it reads exactly the shape
//! `wfobs::otlp_trace` and `wfobs::otlp_metrics` emit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde_json::Value;

/// A decoded attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrVal {
    /// `stringValue`.
    Str(String),
    /// `intValue` (decimal string in OTLP/JSON).
    I64(i64),
    /// `doubleValue`.
    F64(f64),
    /// `boolValue`.
    Bool(bool),
}

impl AttrVal {
    /// The string payload, if this is a string attribute.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrVal::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The integer payload, if this is an int attribute.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            AttrVal::I64(n) => Some(*n),
            _ => None,
        }
    }

    /// The float payload, if this is a double attribute.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrVal::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// The bool payload, if this is a bool attribute.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrVal::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

/// A decoded span event.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Event timestamp (simulated nanoseconds).
    pub time: u64,
    /// Event name.
    pub name: String,
    /// Event attributes.
    pub attrs: Vec<(String, AttrVal)>,
}

/// A decoded span link.
#[derive(Debug, Clone, PartialEq)]
pub struct Link {
    /// Linked trace id (hex).
    pub trace_id: String,
    /// Linked span id (hex).
    pub span_id: String,
    /// Link attributes.
    pub attrs: Vec<(String, AttrVal)>,
}

/// A decoded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace id (32 hex chars).
    pub trace_id: String,
    /// Span id (16 hex chars).
    pub span_id: String,
    /// Parent span id (empty for the root).
    pub parent_span_id: String,
    /// Span name.
    pub name: String,
    /// Start timestamp (simulated nanoseconds).
    pub start: u64,
    /// End timestamp (simulated nanoseconds).
    pub end: u64,
    /// Span attributes.
    pub attrs: Vec<(String, AttrVal)>,
    /// Span events.
    pub events: Vec<SpanEvent>,
    /// Span links.
    pub links: Vec<Link>,
    /// Status code: 0 unset, 1 ok, 2 error.
    pub status_code: i64,
}

impl Span {
    /// Look up an attribute by key.
    pub fn attr(&self, key: &str) -> Option<&AttrVal> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// A decoded `ExportTraceServiceRequest`.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Resource attributes.
    pub resource: Vec<(String, AttrVal)>,
    /// All spans, in document order.
    pub spans: Vec<Span>,
}

impl Trace {
    /// Look up a resource attribute by key.
    pub fn resource_attr(&self, key: &str) -> Option<&AttrVal> {
        self.resource.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// One decoded metric (the aggregation kinds the encoder emits).
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Cumulative monotonic sum: `(name, value)`.
    Sum(String, i64),
    /// Gauge: `(name, points)`.
    Gauge(String, Vec<(u64, f64)>),
    /// Histogram: `(name, count, sum, bucket counts, bounds)`.
    Histogram(String, u64, u64, Vec<u64>, Vec<u64>),
}

/// A decoded `ExportMetricsServiceRequest`.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsDoc {
    /// Resource attributes.
    pub resource: Vec<(String, AttrVal)>,
    /// All metrics, in document order.
    pub metrics: Vec<Metric>,
}

fn parse(json: &str) -> Result<Value, String> {
    serde_json::from_str::<Value>(json).map_err(|e| e.to_string())
}

/// The elements of an array field, or none.
fn arr(v: Option<&Value>) -> &[Value] {
    v.and_then(Value::as_array).unwrap_or(&[])
}

fn string(v: Option<&Value>) -> String {
    match v {
        Some(Value::Str(s)) => s.clone(),
        _ => String::new(),
    }
}

/// A u64 encoded as a decimal string (the OTLP/JSON int64 mapping) or a
/// bare number; 0 when absent or malformed.
fn u64_of(v: Option<&Value>) -> u64 {
    match v {
        Some(Value::Str(s)) => s.parse().unwrap_or(0),
        Some(Value::U64(n)) => *n,
        Some(Value::I64(n)) => *n as u64,
        Some(Value::F64(f)) => *f as u64,
        _ => 0,
    }
}

/// [`u64_of`] for signed values.
fn i64_of(v: Option<&Value>) -> i64 {
    match v {
        Some(Value::Str(s)) => s.parse().unwrap_or(0),
        Some(Value::I64(n)) => *n,
        Some(Value::U64(n)) => *n as i64,
        Some(Value::F64(f)) => *f as i64,
        _ => 0,
    }
}

/// A JSON number as a double. The parser reads a bare integer as
/// `I64`/`U64`, and Rust prints an integral `f64` such as `3600.0` as
/// `3600`, so every number kind counts.
fn f64_of(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::I64(n) => Some(*n as f64),
        Value::U64(n) => Some(*n as f64),
        _ => None,
    }
}

fn decode_attrs(v: Option<&Value>) -> Vec<(String, AttrVal)> {
    arr(v)
        .iter()
        .filter_map(|kv| {
            let key = kv.get("key")?;
            let value = kv.get("value")?;
            let decoded = if let Some(s) = value.get("stringValue") {
                AttrVal::Str(string(Some(s)))
            } else if let Some(n) = value.get("intValue") {
                AttrVal::I64(i64_of(Some(n)))
            } else if let Some(f) = value.get("doubleValue") {
                AttrVal::F64(f64_of(f)?)
            } else if let Some(Value::Bool(b)) = value.get("boolValue") {
                AttrVal::Bool(*b)
            } else {
                return None;
            };
            Some((string(Some(key)), decoded))
        })
        .collect()
}

/// Decode an `ExportTraceServiceRequest` JSON document.
pub fn trace(json: &str) -> Result<Trace, String> {
    let doc = parse(json)?;
    let mut resource = Vec::new();
    let mut spans = Vec::new();
    let resource_spans = doc.get("resourceSpans").ok_or("resourceSpans missing")?;
    for rs in arr(Some(resource_spans)) {
        if resource.is_empty() {
            resource = decode_attrs(rs.get("resource").and_then(|r| r.get("attributes")));
        }
        for ss in arr(rs.get("scopeSpans")) {
            for sp in arr(ss.get("spans")) {
                let events = arr(sp.get("events"))
                    .iter()
                    .map(|e| SpanEvent {
                        time: u64_of(e.get("timeUnixNano")),
                        name: string(e.get("name")),
                        attrs: decode_attrs(e.get("attributes")),
                    })
                    .collect();
                let links = arr(sp.get("links"))
                    .iter()
                    .map(|l| Link {
                        trace_id: string(l.get("traceId")),
                        span_id: string(l.get("spanId")),
                        attrs: decode_attrs(l.get("attributes")),
                    })
                    .collect();
                spans.push(Span {
                    trace_id: string(sp.get("traceId")),
                    span_id: string(sp.get("spanId")),
                    parent_span_id: string(sp.get("parentSpanId")),
                    name: string(sp.get("name")),
                    start: u64_of(sp.get("startTimeUnixNano")),
                    end: u64_of(sp.get("endTimeUnixNano")),
                    attrs: decode_attrs(sp.get("attributes")),
                    events,
                    links,
                    status_code: i64_of(sp.get("status").and_then(|s| s.get("code"))),
                });
            }
        }
    }
    Ok(Trace { resource, spans })
}

/// Decode an `ExportMetricsServiceRequest` JSON document.
pub fn metrics(json: &str) -> Result<MetricsDoc, String> {
    let doc = parse(json)?;
    let mut resource = Vec::new();
    let mut metrics = Vec::new();
    let resource_metrics = doc
        .get("resourceMetrics")
        .ok_or("resourceMetrics missing")?;
    for rm in arr(Some(resource_metrics)) {
        if resource.is_empty() {
            resource = decode_attrs(rm.get("resource").and_then(|r| r.get("attributes")));
        }
        for sm in arr(rm.get("scopeMetrics")) {
            for m in arr(sm.get("metrics")) {
                let name = string(m.get("name"));
                if let Some(sum) = m.get("sum") {
                    let point = arr(sum.get("dataPoints")).first();
                    let v = i64_of(point.and_then(|p| p.get("asInt")));
                    metrics.push(Metric::Sum(name, v));
                } else if let Some(g) = m.get("gauge") {
                    let pts = arr(g.get("dataPoints"))
                        .iter()
                        .map(|p| {
                            let v = p.get("asDouble").and_then(f64_of).unwrap_or(0.0);
                            (u64_of(p.get("timeUnixNano")), v)
                        })
                        .collect();
                    metrics.push(Metric::Gauge(name, pts));
                } else if let Some(h) = m.get("histogram") {
                    let Some(p) = arr(h.get("dataPoints")).first() else {
                        continue;
                    };
                    let ints = |key| arr(p.get(key)).iter().map(|v| u64_of(Some(v))).collect();
                    metrics.push(Metric::Histogram(
                        name,
                        u64_of(p.get("count")),
                        u64_of(p.get("sum")),
                        ints("bucketCounts"),
                        ints("explicitBounds"),
                    ));
                }
            }
        }
    }
    Ok(MetricsDoc { resource, metrics })
}

/// Check the structural invariants every exported span tree must
/// satisfy: a single root, parent ids that resolve within the
/// document, one trace id shared by all spans, unique non-zero span
/// ids, and child intervals nested inside their parents'.
pub fn check_well_formed(trace: &Trace) -> Result<(), String> {
    if trace.spans.is_empty() {
        return Err("no spans in document".into());
    }
    let mut roots = 0usize;
    let mut ids = std::collections::BTreeMap::new();
    let trace_id = &trace.spans[0].trace_id;
    if trace_id.len() != 32 || trace_id.chars().all(|c| c == '0') {
        return Err(format!("bad trace id {trace_id:?}"));
    }
    for (i, s) in trace.spans.iter().enumerate() {
        if s.trace_id != *trace_id {
            return Err(format!("span {i} trace id {:?} differs", s.trace_id));
        }
        if s.span_id.len() != 16 || s.span_id.chars().all(|c| c == '0') {
            return Err(format!("span {i} has invalid id {:?}", s.span_id));
        }
        if ids.insert(s.span_id.clone(), i).is_some() {
            return Err(format!("duplicate span id {:?}", s.span_id));
        }
        if s.parent_span_id.is_empty() {
            roots += 1;
        }
        if s.end < s.start {
            return Err(format!("span {i} ends before it starts"));
        }
    }
    if roots != 1 {
        return Err(format!("expected a single root span, found {roots}"));
    }
    for (i, s) in trace.spans.iter().enumerate() {
        if s.parent_span_id.is_empty() {
            continue;
        }
        let Some(&p) = ids.get(&s.parent_span_id) else {
            return Err(format!(
                "span {i} parent {:?} does not resolve",
                s.parent_span_id
            ));
        };
        let parent = &trace.spans[p];
        if s.start < parent.start || s.end > parent.end {
            return Err(format!(
                "span {i} [{}, {}] not nested in parent [{}, {}]",
                s.start, s.end, parent.start, parent.end
            ));
        }
        for l in &s.links {
            if !ids.contains_key(&l.span_id) {
                return Err(format!("span {i} link {:?} does not resolve", l.span_id));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trace document holding one span with the given attribute list.
    fn span_with_attrs(attributes: &str) -> String {
        format!(
            r#"{{"resourceSpans":[{{"scopeSpans":[{{"spans":[{{"attributes":{attributes}}}]}}]}}]}}"#
        )
    }

    #[test]
    fn histogram_sum_above_2_pow_53_decodes_exactly() {
        let doc = metrics(
            r#"{"resourceMetrics":[{"scopeMetrics":[{"metrics":[{"name":"wf.h","histogram":
               {"dataPoints":[{"count":"2","sum":9007199254740993,"bucketCounts":["1","1"],
               "explicitBounds":[10]}]}}]}]}]}"#,
        )
        .expect("decodes");
        let exact = Metric::Histogram(
            "wf.h".into(),
            2,
            9_007_199_254_740_993,
            vec![1, 1],
            vec![10],
        );
        assert_eq!(doc.metrics, vec![exact]);
    }

    #[test]
    fn integral_doubles_stay_doubles_and_ints_are_signed() {
        let t = trace(&span_with_attrs(
            r#"[{"key":"secs","value":{"doubleValue":3600}},
                {"key":"big","value":{"doubleValue":10000000000000000000}},
                {"key":"frac","value":{"doubleValue":0.9}},
                {"key":"n","value":{"intValue":"-3"}}]"#,
        ))
        .expect("decodes");
        let span = &t.spans[0];
        assert_eq!(span.attr("secs"), Some(&AttrVal::F64(3600.0)));
        assert_eq!(span.attr("big"), Some(&AttrVal::F64(1e19)));
        assert_eq!(span.attr("frac"), Some(&AttrVal::F64(0.9)));
        assert_eq!(span.attr("n"), Some(&AttrVal::I64(-3)));

        let doc = metrics(
            r#"{"resourceMetrics":[{"scopeMetrics":[{"metrics":[{"name":"wf.q","gauge":
               {"dataPoints":[{"timeUnixNano":"5","asDouble":2},
               {"timeUnixNano":"6","asDouble":0.5}]}}]}]}]}"#,
        )
        .expect("decodes");
        let points = vec![(5, 2.0), (6, 0.5)];
        assert_eq!(doc.metrics, vec![Metric::Gauge("wf.q".into(), points)]);
    }

    #[test]
    fn nan_tokens_and_trailing_bytes_are_errors() {
        let ok = span_with_attrs("[]");
        assert!(trace(&ok).is_ok());
        let nan = span_with_attrs(r#"[{"key":"x","value":{"doubleValue":NaN}}]"#);
        assert!(trace(&nan).is_err());
        assert!(trace(&format!("{ok} 0")).is_err());
        assert!(trace(&format!("{ok}}}")).is_err());
        assert!(metrics(r#"{"resourceMetrics":[]}x"#).is_err());
    }
}
