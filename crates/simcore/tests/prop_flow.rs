//! Property-based tests for the fluid-flow engine and the event calendar.

use proptest::prelude::*;
use simcore::{FlowEngine, FlowSpec, Model, Sim, SimDuration, SimTime};

/// A world that logs `(instant in ns, event)` for each typed event fired.
#[derive(Default)]
struct Log(Vec<(u64, usize)>);

impl Model for Log {
    type Ev = usize;

    fn fire(sim: &mut Sim<Self>, log: &mut Self, ev: usize) {
        log.0.push((sim.now().as_nanos(), ev));
    }
}

/// A randomly generated flow description over `n_res` resources.
#[derive(Debug, Clone)]
struct GenFlow {
    bytes: u64,
    path: Vec<usize>,
    cap: Option<f64>,
    start_ms: u64,
}

fn gen_flow(n_res: usize) -> impl Strategy<Value = GenFlow> {
    (
        1u64..5_000_000,
        proptest::collection::vec(0..n_res, 1..=n_res.min(4)),
        proptest::option::of(1.0f64..1e8),
        0u64..10_000,
    )
        .prop_map(|(bytes, mut path, cap, start_ms)| {
            path.sort_unstable();
            path.dedup();
            GenFlow {
                bytes,
                path,
                cap,
                start_ms,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// At any allocation instant: no resource is oversubscribed, no flow
    /// exceeds its cap, and every flow makes progress.
    #[test]
    fn rates_are_feasible_and_positive(
        caps in proptest::collection::vec(1e3f64..1e9, 1..5),
        flows in proptest::collection::vec(gen_flow(4), 1..30),
    ) {
        let mut fe: FlowEngine<usize> = FlowEngine::new();
        let rids: Vec<_> = caps.iter().enumerate()
            .map(|(i, c)| fe.add_resource(format!("r{i}"), *c))
            .collect();
        let mut ids = Vec::new();
        for (i, g) in flows.iter().enumerate() {
            let path: Vec<_> = g.path.iter().filter(|&&p| p < rids.len()).map(|&p| rids[p]).collect();
            let mut spec = FlowSpec::new(g.bytes, path);
            if let Some(c) = g.cap { spec = spec.with_cap(c); }
            if spec.is_instant() { continue; }
            ids.push((i, fe.start(SimTime::ZERO, spec, i)));
        }
        // Per-flow constraints.
        for (i, id) in &ids {
            let rate = fe.flow_rate(*id).unwrap();
            prop_assert!(rate > 0.0, "flow {i} has zero rate");
            if let Some(c) = flows[*i].cap {
                prop_assert!(rate <= c * (1.0 + 1e-9), "flow {i} exceeds cap: {rate} > {c}");
            }
        }
        // Per-resource conservation.
        for (ri, rid) in rids.iter().enumerate() {
            let mut total = 0.0;
            for (i, id) in &ids {
                let path = &flows[*i].path;
                if path.iter().any(|&p| p < rids.len() && rids[p] == *rid) {
                    total += fe.flow_rate(*id).unwrap();
                }
            }
            prop_assert!(total <= caps[ri] * (1.0 + 1e-6),
                "resource {ri} oversubscribed: {total} > {}", caps[ri]);
        }
    }

    /// Driving random flows to completion conserves bytes: each resource's
    /// accumulated byte count equals the sum of the flows that crossed it.
    #[test]
    fn bytes_are_conserved_end_to_end(
        caps in proptest::collection::vec(1e4f64..1e8, 1..4),
        flows in proptest::collection::vec(gen_flow(3), 1..20),
    ) {
        let mut sim: Sim<()> = Sim::new();
        let rids: Vec<_> = caps.iter().enumerate()
            .map(|(i, c)| sim.add_resource(format!("r{i}"), *c))
            .collect();
        let mut expected = vec![0u64; rids.len()];
        for g in &flows {
            let path: Vec<_> = g.path.iter().filter(|&&p| p < rids.len()).map(|&p| rids[p]).collect();
            for r in &path {
                expected[r.index()] += g.bytes;
            }
            let mut spec = FlowSpec::new(g.bytes, path);
            if let Some(c) = g.cap { spec = spec.with_cap(c); }
            let at = SimTime::from_nanos(g.start_ms * 1_000_000);
            sim.schedule_at(at, move |s, _| { s.start_flow(spec, |_, _| {}); });
        }
        sim.run(&mut ());
        let (started, completed) = sim.flow_counters();
        prop_assert_eq!(started, completed, "all flows must complete");
        for (i, rid) in rids.iter().enumerate() {
            let got = sim.resource_stats(*rid).bytes;
            let want = expected[i] as f64;
            prop_assert!((got - want).abs() <= want.max(1.0) * 1e-6 + 1.0,
                "resource {i}: accounted {got} vs expected {want}");
        }
    }

    /// The same schedule produces bit-identical completion sequences.
    #[test]
    fn completion_order_is_deterministic(
        caps in proptest::collection::vec(1e4f64..1e8, 1..4),
        flows in proptest::collection::vec(gen_flow(3), 1..20),
    ) {
        let run = || {
            let mut sim: Sim<Log> = Sim::new();
            let rids: Vec<_> = caps.iter().enumerate()
                .map(|(i, c)| sim.add_resource(format!("r{i}"), *c))
                .collect();
            for (fi, g) in flows.iter().enumerate() {
                let path: Vec<_> = g.path.iter().filter(|&&p| p < rids.len()).map(|&p| rids[p]).collect();
                let mut spec = FlowSpec::new(g.bytes, path);
                if let Some(c) = g.cap { spec = spec.with_cap(c); }
                let at = SimTime::from_nanos(g.start_ms * 1_000_000);
                sim.schedule_at(at, move |s, _| {
                    s.start_flow_ev(spec, fi);
                });
            }
            let mut log = Log::default();
            sim.run(&mut log);
            log.0
        };
        prop_assert_eq!(run(), run());
    }

    /// Calendar events always fire in non-decreasing time order.
    #[test]
    fn event_times_are_monotonic(times in proptest::collection::vec(0u64..1_000_000u64, 1..50)) {
        let mut sim: Sim<Log> = Sim::new();
        for (i, &t) in times.iter().enumerate() {
            sim.post_at(SimTime::from_nanos(t), i);
        }
        let mut log = Log::default();
        sim.run(&mut log);
        let log: Vec<u64> = log.0.iter().map(|&(t, _)| t).collect();
        prop_assert_eq!(log.len(), times.len());
        for w in log.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let mut sorted = times.clone();
        sorted.sort_unstable();
        prop_assert_eq!(log, sorted);
    }

    /// post_in(d) fires exactly d after the present.
    #[test]
    fn relative_scheduling_is_exact(d in 0u64..10_000_000_000u64) {
        let mut sim: Sim<Log> = Sim::new();
        sim.post_in(SimDuration::from_nanos(d), 0);
        let mut log = Log::default();
        sim.run(&mut log);
        let out = log.0.first().map(|&(t, _)| t);
        prop_assert_eq!(out, Some(d));
    }
}
