//! Reference fluid-flow solver (the pre-incremental engine), preserved as a
//! differential-testing oracle behind the `oracle` feature.
//!
//! [`NaiveFlowEngine`] recomputes the max–min fair allocation globally on
//! every event (O(F) per progressive-filling round over *all* flows),
//! advances every flow's remaining bytes stepwise at every event, and scans
//! all active flows linearly in `next_completion`. That is O(F²) over a
//! workload of F flows — unusable at Montage scale, but trivially correct.
//! The production [`crate::FlowEngine`] must agree with it on rates and
//! completion order; `tests/prop_flow_differential.rs` enforces this.

use crate::flow::{FlowId, FlowSpec, ResourceId, ResourceStats};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

#[derive(Debug)]
struct Resource {
    name: String,
    capacity: f64,
    stats: ResourceStats,
}

struct ActiveFlow<C> {
    remaining: f64,
    path: Vec<ResourceId>,
    cap: Option<f64>,
    rate: f64,
    completion: C,
}

/// The reference fluid-flow engine: global recompute, stepwise accounting,
/// linear completion scan. Semantics (and float arithmetic, flow for flow)
/// match the engine this crate shipped before the incremental rewrite.
pub struct NaiveFlowEngine<C> {
    resources: Vec<Resource>,
    flows: BTreeMap<FlowId, ActiveFlow<C>>,
    next_id: u64,
    last_advance: SimTime,
    flows_started: u64,
    flows_completed: u64,
}

impl<C> Default for NaiveFlowEngine<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> NaiveFlowEngine<C> {
    /// An engine with no resources or flows.
    pub fn new() -> Self {
        NaiveFlowEngine {
            resources: Vec::new(),
            flows: BTreeMap::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            flows_started: 0,
            flows_completed: 0,
        }
    }

    /// Register a resource with `capacity` bytes/second.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be finite and positive"
        );
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(Resource {
            name: name.into(),
            capacity,
            stats: ResourceStats::default(),
        });
        id
    }

    /// Name of a resource (for reports).
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.index()].name
    }

    /// Statistics accumulated for a resource so far.
    pub fn resource_stats(&self, id: ResourceId) -> ResourceStats {
        self.resources[id.index()].stats
    }

    /// Number of registered resources.
    pub fn resource_count(&self) -> usize {
        self.resources.len()
    }

    /// (started, completed) flow counters.
    pub fn flow_counters(&self) -> (u64, u64) {
        (self.flows_started, self.flows_completed)
    }

    /// Number of currently active flows.
    pub fn active_flows(&self) -> usize {
        self.flows.len()
    }

    /// Start a flow at time `now`; see [`crate::FlowEngine::start`].
    pub fn start(&mut self, now: SimTime, spec: FlowSpec, completion: C) -> FlowId {
        assert!(
            !spec.is_instant(),
            "instant flows must be handled by the caller"
        );
        if let Some(cap) = spec.rate_cap {
            assert!(cap.is_finite() && cap > 0.0, "rate cap must be positive");
        }
        for r in &spec.path {
            assert!(r.index() < self.resources.len(), "unknown resource in path");
        }
        self.advance_to(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows.insert(
            id,
            ActiveFlow {
                remaining: spec.bytes as f64,
                path: spec.path,
                cap: spec.rate_cap,
                rate: 0.0,
                completion,
            },
        );
        self.flows_started += 1;
        self.recompute_rates();
        id
    }

    /// Cancel an active flow, returning its completion payload if it was
    /// still active.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> Option<C> {
        self.advance_to(now);
        let flow = self.flows.remove(&id)?;
        self.recompute_rates();
        Some(flow.completion)
    }

    /// The earliest (time, flow) completion among active flows, if any.
    pub fn next_completion(&self) -> Option<(SimTime, FlowId)> {
        let mut best: Option<(SimTime, FlowId)> = None;
        for (&id, f) in &self.flows {
            debug_assert!(f.rate > 0.0, "active flow with zero rate");
            let dt = SimDuration::from_secs_f64(f.remaining / f.rate);
            // Never schedule strictly before the present accounting point.
            let t = self.last_advance + dt;
            match best {
                Some((bt, _)) if bt <= t => {}
                _ => best = Some((t, id)),
            }
        }
        best
    }

    /// Complete flow `id` at time `now` and return its completion payload.
    pub fn complete(&mut self, now: SimTime, id: FlowId) -> C {
        self.advance_to(now);
        let mut flow = self.flows.remove(&id).expect("completing unknown flow");
        // Rounding the completion instant to nanoseconds can leave a
        // vanishing residue; the flow is done by construction.
        flow.remaining = 0.0;
        self.flows_completed += 1;
        self.recompute_rates();
        flow.completion
    }

    /// Advance accounting to `now`, crediting progress to all active flows.
    fn advance_to(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "time went backwards");
        let dt = now.since(self.last_advance).as_secs_f64();
        if dt > 0.0 {
            let mut used = vec![0.0f64; self.resources.len()];
            let mut any = vec![false; self.resources.len()];
            for f in self.flows.values_mut() {
                let moved = f.rate * dt;
                f.remaining = (f.remaining - moved).max(0.0);
                for r in &f.path {
                    used[r.index()] += moved;
                    any[r.index()] = true;
                }
            }
            for (i, res) in self.resources.iter_mut().enumerate() {
                res.stats.bytes += used[i];
                if any[i] {
                    res.stats.busy_secs += dt;
                }
                res.stats.util_integral += (used[i] / dt / res.capacity).min(1.0) * dt;
            }
        }
        self.last_advance = now;
    }

    /// Progressive-filling max–min fair allocation with per-flow caps.
    fn recompute_rates(&mut self) {
        let n_res = self.resources.len();
        let mut cap_left: Vec<f64> = self.resources.iter().map(|r| r.capacity).collect();
        let mut load = vec![0u32; n_res];

        // Work on a snapshot of flow order for deterministic arithmetic.
        let ids: Vec<FlowId> = self.flows.keys().copied().collect();
        let mut fixed: Vec<bool> = vec![false; ids.len()];
        let mut rate: Vec<f64> = vec![0.0; ids.len()];

        for (i, id) in ids.iter().enumerate() {
            let f = &self.flows[id];
            if f.path.is_empty() {
                // Only a cap constrains this flow.
                rate[i] = f.cap.expect("uncapped pathless flow");
                fixed[i] = true;
            } else {
                for r in &f.path {
                    load[r.index()] += 1;
                }
            }
        }

        loop {
            // Bottleneck candidate from resources.
            let mut share = f64::INFINITY;
            for r in 0..n_res {
                if load[r] > 0 {
                    share = share.min(cap_left[r].max(0.0) / f64::from(load[r]));
                }
            }
            // Bottleneck candidate from per-flow caps.
            let mut min_cap = f64::INFINITY;
            for (i, id) in ids.iter().enumerate() {
                if !fixed[i] {
                    if let Some(c) = self.flows[id].cap {
                        min_cap = min_cap.min(c);
                    }
                }
            }
            if share.is_infinite() && min_cap.is_infinite() {
                break; // no unfixed flows left
            }

            let mut progressed = false;
            if min_cap <= share {
                // Freeze every unfixed flow whose cap equals the bottleneck.
                for (i, id) in ids.iter().enumerate() {
                    if fixed[i] {
                        continue;
                    }
                    let f = &self.flows[id];
                    if f.cap.is_some_and(|c| c <= share && c <= min_cap) {
                        rate[i] = f.cap.unwrap();
                        fixed[i] = true;
                        progressed = true;
                        for r in &f.path {
                            cap_left[r.index()] -= rate[i];
                            load[r.index()] -= 1;
                        }
                    }
                }
            } else {
                // Freeze every unfixed flow crossing a saturated resource.
                let eps = share * 1e-12;
                let saturated: Vec<bool> = (0..n_res)
                    .map(|r| {
                        load[r] > 0 && cap_left[r].max(0.0) / f64::from(load[r]) <= share + eps
                    })
                    .collect();
                for (i, id) in ids.iter().enumerate() {
                    if fixed[i] {
                        continue;
                    }
                    let f = &self.flows[id];
                    if f.path.iter().any(|r| saturated[r.index()]) {
                        rate[i] = share;
                        fixed[i] = true;
                        progressed = true;
                        for r in &f.path {
                            cap_left[r.index()] -= share;
                            load[r.index()] -= 1;
                        }
                    }
                }
            }
            debug_assert!(progressed, "progressive filling stalled");
            if !progressed {
                break;
            }
        }

        for (i, id) in ids.iter().enumerate() {
            self.flows.get_mut(id).expect("flow vanished").rate = rate[i].max(f64::MIN_POSITIVE);
        }
    }

    /// Instantaneous rate of an active flow (testing/diagnostics).
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.rate)
    }

    /// Remaining bytes of an active flow (testing/diagnostics).
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| f.remaining)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn oracle_single_flow_gets_full_capacity() {
        let mut fe: NaiveFlowEngine<()> = NaiveFlowEngine::new();
        let r = fe.add_resource("disk", 100.0);
        let id = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), ());
        assert_eq!(fe.flow_rate(id), Some(100.0));
        let (done, fid) = fe.next_completion().unwrap();
        assert_eq!(fid, id);
        assert!((done.as_secs_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn oracle_max_min_across_two_resources() {
        let mut fe: NaiveFlowEngine<()> = NaiveFlowEngine::new();
        let r1 = fe.add_resource("r1", 100.0);
        let r2 = fe.add_resource("r2", 30.0);
        let a = fe.start(t(0.0), FlowSpec::new(1000, vec![r1, r2]), ());
        let b = fe.start(t(0.0), FlowSpec::new(1000, vec![r1]), ());
        assert!((fe.flow_rate(a).unwrap() - 30.0).abs() < 1e-9);
        assert!((fe.flow_rate(b).unwrap() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn oracle_completion_frees_bandwidth() {
        let mut fe: NaiveFlowEngine<u32> = NaiveFlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(100, vec![r]), 1);
        let _b = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), 2);
        let (done, fid) = fe.next_completion().unwrap();
        assert_eq!(fid, a);
        assert_eq!(fe.complete(done, fid), 1);
        let (done_b, _) = fe.next_completion().unwrap();
        assert!((done_b.as_secs_f64() - 11.0).abs() < 1e-5, "{done_b}");
    }
}
