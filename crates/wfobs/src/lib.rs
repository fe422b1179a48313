//! `wfobs` — simulation-wide observability.
//!
//! A dependency-free instrumentation layer the rest of the stack emits
//! into: a zero-overhead-when-disabled [event bus](bus::ObsHandle) of
//! typed [events](event::Event), a deterministic [metrics
//! registry](metrics::Metrics), a [task-attempt fold](fold) that every
//! attempt view is rendered from, a [Chrome-trace exporter](chrome), an
//! [OTLP/JSON exporter](otlp) (its conformance reader is the test-only
//! `otlpcheck` crate), a [folded-stack flamegraph exporter](folded), and
//! a [streaming run digest](digest::RunDigest) that turns "did this run
//! replay byte-identically?" into a single `u64` comparison.
//!
//! Design rules (see DESIGN.md § Observability):
//!
//! - **Zero overhead off.** The handle is a nullable `Rc`; with
//!   observability off every emission is one branch.
//! - **Integer ids on the hot path.** Events are `Copy` structs over
//!   `u32`/`u64` ids; names are joined back in by exporters after the run.
//! - **Simulated time only.** The simulation loop stamps the bus clock;
//!   nothing reads wall clock, so metrics and digests are deterministic.
//! - **Digest ⊂ Full.** Both levels absorb the identical event stream
//!   into the digest; `Full` additionally records events and metrics, so
//!   a digest taken while exporting traces matches one taken without.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
pub mod chrome;
pub mod digest;
pub mod event;
pub mod fold;
pub mod folded;
pub mod metrics;
pub mod otlp;
pub mod sink;
pub mod tui;

mod text;

use std::borrow::Cow;

pub use bus::{nanos_from_secs, ObsHandle, ObsLevel, ObsReport, DEFAULT_TICK_NANOS};
pub use chrome::{chrome_trace, ChromeLabels};
pub use digest::RunDigest;
pub use event::{Event, FaultKind, OpKind, Phase};
pub use fold::{Attempt, AttemptFold, Outcome, Step};
pub use folded::folded_storage_stacks;
pub use metrics::{Histogram, Metrics};
pub use otlp::{otlp_metrics, otlp_trace, OtlpLabels, SegmentLabel};
pub use sink::{ObsSink, RingBufferSink};
pub use tui::{
    detect_live_mode, render_frame, term_size_from_env, FrameSink, LiveMode, LiveSink, NodeRate,
    TuiConfig, TuiState,
};

/// `names[id]`, or `{prefix}{id}` for an id with no name: how every
/// renderer joins names back onto integer ids. Borrows a present name.
pub(crate) fn name_or<'a>(names: &'a [String], prefix: &str, id: u32) -> Cow<'a, str> {
    match names.get(id as usize) {
        Some(name) => Cow::Borrowed(name),
        None => Cow::Owned(format!("{prefix}{id}")),
    }
}
