//! # simcore — deterministic discrete-event simulation kernel
//!
//! The foundation of the `ec2-workflow-sim` reproduction of *Data Sharing
//! Options for Scientific Workflows on Amazon EC2* (Juve et al., SC 2010).
//!
//! Three pieces:
//!
//! * [`time`] — integer-nanosecond simulated time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`flow`] — a fluid-flow model of shared I/O resources with max–min
//!   fair bandwidth sharing and per-flow rate caps ([`FlowEngine`]).
//! * [`sim`] — the event-calendar driver ([`Sim`]) that fires a world's
//!   typed events ([`Model`]) and completes flows at exact instants.
//!
//! Determinism: event ties break by scheduling order, flow ties by flow id,
//! and all randomness comes from named [`DetRng`] streams under a single
//! experiment seed.
//!
//! ```
//! use simcore::{FlowSpec, Model, Sim, SimTime};
//!
//! /// Records when each transfer lands.
//! struct Done(Vec<f64>);
//!
//! /// The world's one event: a transfer landed.
//! struct Landed;
//!
//! impl Model for Done {
//!     type Ev = Landed;
//!     fn fire(sim: &mut Sim<Self>, done: &mut Self, _: Landed) {
//!         done.0.push(sim.now().as_secs_f64());
//!     }
//! }
//!
//! // Two 100-byte transfers share a 100 B/s disk fairly: both finish at
//! // t = 2 s, not one at 1 s and one at 2 s.
//! let mut sim: Sim<Done> = Sim::new();
//! let disk = sim.add_resource("disk", 100.0);
//! for _ in 0..2 {
//!     let spec = FlowSpec::new(100, vec![disk]);
//!     sim.schedule_at(SimTime::ZERO, move |s, _| {
//!         s.start_flow_ev(spec, Landed);
//!     });
//! }
//! let mut done = Done(Vec::new());
//! sim.run(&mut done);
//! assert!((done.0[0] - 2.0).abs() < 1e-9 && (done.0[1] - 2.0).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod flow;
#[cfg(any(test, feature = "oracle"))]
pub mod naive;
pub mod rng;
pub mod sim;
pub mod time;

pub use flow::{FlowEngine, FlowId, FlowSpec, ResourceId, ResourceStats};
pub use rng::DetRng;
pub use sim::{Action, EventFn, Model, Sim};
pub use time::{SimDuration, SimTime, NANOS_PER_SEC};
