//! Kernel agreement at Montage scale: 20,000 staggered transfers over 64
//! shared resources, driven to completion.
//!
//! * The incremental [`FlowEngine`] and the preserved O(F²) reference
//!   solver [`NaiveFlowEngine`] (the `oracle` feature) end at the same
//!   instant, with every started flow completed.
//! * The full [`Sim`] loop ends at the same instant with the event bus
//!   `Off` and at `Full`. With the bus on, `start_flow` reads each new
//!   flow's rate for the bus; with it off, nothing reads it until the
//!   flow's completion. Both must tell the same story.
//!
//! The property suites check the same agreements event by event on small
//! random schedules; this one checks them once on a schedule the size of
//! a real Montage run on a shared file system.

use simcore::naive::NaiveFlowEngine;
use simcore::{FlowEngine, FlowSpec, ResourceId, Sim, SimTime};
use wfobs::{ObsHandle, ObsLevel};

/// Flows in the schedule.
const FLOWS: u64 = 20_000;

/// A deterministic Montage-scale flow schedule over shared resources.
struct KernelWorkload {
    /// Resource capacities (bytes/second), index = resource id.
    caps: Vec<f64>,
    /// `(arrival ns, bytes, path as resource indices, optional rate cap)`.
    arrivals: Vec<(u64, u64, Vec<usize>, Option<f64>)>,
}

/// Build the schedule: `n_flows` staggered transfers over 64 resources
/// (31 worker nodes × disk+NIC plus a shared file-server NIC and disk).
/// Most traffic is node-local; one transfer in 32 crosses the shared
/// server, periodically stitching node components together — the access
/// pattern of a Montage run on a shared file system.
fn montage_scale_workload(n_flows: u64) -> KernelWorkload {
    const NODES: usize = 31;
    let mut caps = Vec::new();
    for _ in 0..NODES {
        caps.push(1.0e8); // node disk
        caps.push(1.0e8); // node NIC
    }
    let srv_nic = caps.len();
    caps.push(1.0e9);
    let srv_disk = caps.len();
    caps.push(5.0e8);

    let mut arrivals = Vec::with_capacity(n_flows as usize);
    for i in 0..n_flows {
        // SplitMix-style hash: deterministic, no RNG state to thread.
        let mut z = (i + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z ^= z >> 27;
        let node = (i as usize) % NODES;
        let bytes = 1_000_000 + z % 8_000_000;
        let mut path = vec![2 * node, 2 * node + 1];
        if z % 32 == 0 {
            path.push(srv_nic);
            path.push(srv_disk);
        }
        let cap = (z % 16 == 1).then_some(2.0e7);
        arrivals.push((i * 2_000_000, bytes, path, cap));
    }
    KernelWorkload { caps, arrivals }
}

/// Drive a flow engine (either implementation; they share the API)
/// through the schedule and return the final completion instant.
macro_rules! drive {
    ($fe:expr, $w:expr) => {{
        let w = $w;
        let mut fe = $fe;
        let rids: Vec<ResourceId> = w
            .caps
            .iter()
            .enumerate()
            .map(|(i, c)| fe.add_resource(format!("r{i}"), *c))
            .collect();
        let mut next = 0;
        let mut last = SimTime::ZERO;
        loop {
            let ta = w.arrivals.get(next).map(|a| SimTime::from_nanos(a.0));
            match (ta, fe.next_completion()) {
                (None, None) => break,
                (Some(t), done) if done.is_none() || t <= done.unwrap().0 => {
                    let (_, bytes, ref path, cap) = w.arrivals[next];
                    next += 1;
                    let mut spec = FlowSpec::new(bytes, path.iter().map(|&p| rids[p]).collect());
                    if let Some(c) = cap {
                        spec = spec.with_cap(c);
                    }
                    fe.start(t, spec, ());
                }
                (_, Some((t, id))) => {
                    fe.complete(t, id);
                    last = t;
                }
                (_, None) => unreachable!(),
            }
        }
        let (started, completed) = fe.flow_counters();
        assert_eq!(started, completed, "all flows must complete");
        last
    }};
}

/// Run the schedule through the full event-driven [`Sim`] loop at the
/// given observability level; returns the final instant.
fn drive_sim(w: &KernelWorkload, level: ObsLevel) -> SimTime {
    let mut sim: Sim<()> = Sim::new();
    sim.set_obs(ObsHandle::new(level, 42));
    let rids: Vec<ResourceId> = w
        .caps
        .iter()
        .enumerate()
        .map(|(i, c)| sim.add_resource(format!("r{i}"), *c))
        .collect();
    for (t_ns, bytes, path, cap) in &w.arrivals {
        let mut spec = FlowSpec::new(*bytes, path.iter().map(|&p| rids[p]).collect());
        if let Some(c) = *cap {
            spec = spec.with_cap(c);
        }
        sim.schedule_at(SimTime::from_nanos(*t_ns), move |sim, _| {
            sim.start_flow(spec, |_, _| {});
        });
    }
    sim.run(&mut ());
    let (started, completed) = sim.flow_counters();
    assert_eq!(started, completed, "all flows must complete");
    sim.now()
}

#[test]
fn incremental_and_reference_engines_end_at_the_same_instant() {
    let w = montage_scale_workload(FLOWS);
    assert_eq!(w.caps.len(), 64);
    assert_eq!(
        drive!(FlowEngine::<()>::new(), &w),
        drive!(NaiveFlowEngine::<()>::new(), &w),
        "engines disagree on the schedule's final completion"
    );
}

#[test]
fn sim_ends_at_the_same_instant_with_the_bus_off_and_full() {
    let w = montage_scale_workload(FLOWS);
    assert_eq!(
        drive_sim(&w, ObsLevel::Off),
        drive_sim(&w, ObsLevel::Full),
        "observability changed simulated time"
    );
}
