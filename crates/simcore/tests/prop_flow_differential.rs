//! Differential property tests: the incremental [`FlowEngine`] against the
//! preserved reference solver [`NaiveFlowEngine`] (the `oracle` feature).
//!
//! Both engines are driven through the *same* randomly generated schedule
//! of flow arrivals, cancellations, and completions (completions are
//! ordered by the oracle and applied to both). After every event the
//! engines must agree on:
//!
//! * the rate of every active flow, **bit for bit** — component-scoped
//!   progressive filling performs the same arithmetic as a global
//!   recompute restricted to the touched component;
//! * the next completion instant. When every flow shares a common
//!   resource the graph is one connected component and the incremental
//!   engine syncs at every event, so predictions are bit-identical; with
//!   disjoint components the lazy engine coalesces several small
//!   `remaining -= rate·dt` steps into one, which can move a prediction
//!   by a few ULPs (bounded here at relative 1e-12, ≥2 ns).
//!
//! Five schedule shapes target the solver's shortcuts and its kept
//! components:
//!
//! * **PVFS-shaped** — every operation stripes its bytes over every node
//!   in legs that start at one instant and share one cap. Resource
//!   capacities are drawn either far above the caps crossing them (every
//!   flow runs at its cap: the all-at-cap fast path) or as small
//!   multiples of the cap unit, so the sum of caps on a resource lands
//!   exactly on its capacity or above it (the full progressive filling).
//! * **Bursts** — many starts share an instant, and rates are compared
//!   only once the instant's last operation has been applied, or only
//!   after completions. The engine solves at every start, so a burst
//!   into one all-at-cap component is a run of clean re-solves at one
//!   instant, and no read is needed to settle it.
//! * **Bridges** — flows join two resource clusters and leave again, so
//!   the components the engine keeps between events merge and split.
//! * **Same instant** — PVFS-shaped stripes of equal legs on a time grid
//!   where, at their caps, they finish exactly on the grid: many flows
//!   finish at one instant, and others start or are cancelled at it. A
//!   component is then solved several times at one instant, with its
//!   rates kept (all at cap) or moved (tight capacities). A re-sync at
//!   the instant a flow was last synced, at the rate it already has, must
//!   re-derive the bits it holds, and the clean re-solve relies on that to
//!   leave such flows unvisited; these cases hold both to the reference.
//! * **Hubs** — NFS-shaped: every flow crosses one hub resource (the
//!   server's NIC) and its client's NIC, some also the server's disk, and
//!   a few are capped. Where the hub's fair share is the least and no cap
//!   is at or below it, one filling round gives every flow that share,
//!   which the engine sets without filling; debug builds fill anyway and
//!   compare.

use proptest::prelude::*;
use simcore::naive::NaiveFlowEngine;
use simcore::{FlowEngine, FlowId, FlowSpec, SimTime};
use wfobs::RunDigest;

/// A randomly generated flow description over `n_res` resources.
#[derive(Debug, Clone)]
struct GenFlow {
    bytes: u64,
    path: Vec<usize>,
    cap: Option<f64>,
    start_ms: u64,
}

fn gen_flow(n_res: usize) -> impl Strategy<Value = GenFlow> {
    gen_flow_at(n_res, 0u64..8_000)
}

/// Like [`gen_flow`], but starting at one of a few coarse instants, so
/// many flows start together.
fn gen_burst_flow(n_res: usize) -> impl Strategy<Value = GenFlow> {
    gen_flow_at(n_res, coarse_ms())
}

/// One of the few coarse instants bursts start at (in ms). Cancels drawn
/// from it land inside a burst, between its starts.
fn coarse_ms() -> impl Strategy<Value = u64> {
    (0u64..12).prop_map(|k| k * 500)
}

fn gen_flow_at(
    n_res: usize,
    start_ms: impl Strategy<Value = u64>,
) -> impl Strategy<Value = GenFlow> {
    (
        1u64..5_000_000,
        proptest::collection::vec(0..n_res, 1..=n_res.min(4)),
        proptest::option::of(10.0f64..1e8),
        start_ms,
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

/// The cap unit of the PVFS-shaped schedules (a power of two, so sums of
/// whole units are exact).
const CAP_UNIT: f64 = 65_536.0;

/// A PVFS-shaped cluster of `n` nodes (laid out as in [`stripe`]). Each
/// capacity is either far above any sum of caps (slack) or a small whole
/// number of cap units (tight: sums of caps reach it exactly, or exceed
/// it).
fn gen_pvfs_caps(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(
        prop_oneof![
            1e8f64..1e9,
            (1u32..=8).prop_map(|m| f64::from(m) * CAP_UNIT),
        ],
        3 * n,
    )
}

/// The legs of one PVFS-shaped operation over `n` nodes: node `client`
/// reads or writes a file striped over every node, one leg per node of
/// `leg_bytes(node)` bytes, all starting at `start_ms` with cap `cap`.
/// Resources `3i`, `3i+1`, `3i+2` are node `i`'s disk, outbound NIC and
/// inbound NIC.
fn stripe(
    n: usize,
    client: usize,
    write: bool,
    cap: f64,
    start_ms: u64,
    leg_bytes: impl Fn(usize) -> u64,
) -> impl Iterator<Item = GenFlow> {
    let (c_out, c_in) = (3 * client + 1, 3 * client + 2);
    (0..n).map(move |srv| {
        let (s_disk, s_out, s_in) = (3 * srv, 3 * srv + 1, 3 * srv + 2);
        let mut path = Vec::new();
        if write {
            if srv != client {
                path.extend([c_out, s_in]);
            }
            path.push(s_disk);
        } else {
            path.push(s_disk);
            if srv != client {
                path.extend([s_out, c_in]);
            }
        }
        GenFlow {
            bytes: leg_bytes(srv),
            path,
            cap: Some(cap),
            start_ms,
        }
    })
}

/// PVFS-shaped operations over `n` nodes: a client reads or writes
/// `bytes` striped over every node, one leg per node, all legs starting
/// at the same instant with the same cap (a whole number of
/// [`CAP_UNIT`]s). Every operation crosses every disk, so all flows form
/// one component.
fn gen_pvfs_ops(n: usize) -> impl Strategy<Value = Vec<GenFlow>> {
    proptest::collection::vec(
        (
            0..n,
            1_000u64..5_000_000,
            (0u8..2).prop_map(|w| w == 1),
            1u32..=4,
            coarse_ms(),
        ),
        1..14,
    )
    .prop_map(move |ops| {
        let k = n as u64;
        ops.into_iter()
            .flat_map(|(client, bytes, write, units, start_ms)| {
                let cap = f64::from(units) * CAP_UNIT;
                stripe(n, client, write, cap, start_ms, move |srv| {
                    bytes / k + u64::from((srv as u64) < bytes % k)
                })
            })
            .collect()
    })
}

/// The step of the same-instant schedules' time grid, in ms.
const GRID_MS: u64 = 125;

/// One of the instants on the same-instant schedules' grid (in ms).
fn grid_ms() -> impl Strategy<Value = u64> {
    (0u64..48).prop_map(|k| k * GRID_MS)
}

/// Same-instant schedules over `n` PVFS-shaped nodes: operations whose
/// legs share one size and one cap, starting on a [`GRID_MS`] grid. A leg
/// of `steps · units · CAP_UNIT · GRID_MS / 1000` bytes running at its cap
/// of `units · CAP_UNIT` lasts exactly `steps` grid steps, and every
/// `remaining` and prediction along the way is exact. So where the caps
/// are slack, an operation's legs finish at one instant, which is often
/// another operation's start or finish; where they are tight, the
/// filling moves rates at those instants.
fn gen_same_instant_ops(n: usize) -> impl Strategy<Value = Vec<GenFlow>> {
    proptest::collection::vec(
        (
            0..n,
            1u64..=4,
            (0u8..2).prop_map(|w| w == 1),
            1u32..=2,
            grid_ms(),
        ),
        1..14,
    )
    .prop_map(move |ops| {
        let step_bytes = (CAP_UNIT * GRID_MS as f64 / 1000.0) as u64;
        ops.into_iter()
            .flat_map(|(client, steps, write, units, start_ms)| {
                let cap = f64::from(units) * CAP_UNIT;
                let bytes = steps * u64::from(units) * step_bytes;
                stripe(n, client, write, cap, start_ms, move |_| bytes)
            })
            .collect()
    })
}

/// Resources per cluster of the bridge-shaped schedules: cluster A is
/// `0..BRIDGE_SIDE`, cluster B is `BRIDGE_SIDE..2 * BRIDGE_SIDE`.
const BRIDGE_SIDE: usize = 3;

/// A flow of a bridge-shaped schedule: inside cluster A, inside cluster
/// B, across both (joining their components), across both with a path
/// that crosses its A resource twice, or pathless with a cap. Caps are
/// whole [`CAP_UNIT`]s, for capacities from [`gen_pvfs_caps`]. Starts
/// fall on the coarse burst instants or anywhere between them.
fn gen_bridge_flow() -> impl Strategy<Value = GenFlow> {
    (
        0u8..5,
        0..BRIDGE_SIDE,
        BRIDGE_SIDE..2 * BRIDGE_SIDE,
        1_000u64..5_000_000,
        proptest::option::of((1u32..=4).prop_map(|m| f64::from(m) * CAP_UNIT)),
        prop_oneof![coarse_ms(), 0u64..6_000],
    )
        .prop_map(|(shape, a, b, bytes, cap, start_ms)| {
            let (path, cap) = match shape {
                0 => (vec![a], cap),
                1 => (vec![b], cap),
                2 => (vec![a, b], cap),
                3 => (vec![a, b, a], cap),
                _ => (vec![], Some(cap.unwrap_or(CAP_UNIT))),
            };
            GenFlow {
                bytes,
                path,
                cap,
                start_ms,
            }
        })
}

/// A hub-shaped cluster of `n` clients (laid out as in [`gen_hub_flow`]).
/// The hub's capacity is a small whole number of [`CAP_UNIT`]s, below
/// every slack capacity, so its fair share is mostly the least; the
/// server's disk and the client NICs are slack, or tight enough to take
/// that place.
fn gen_hub_caps(n: usize) -> impl Strategy<Value = Vec<f64>> {
    // One in four of the others is tight.
    let other = (0u8..4, 1e6f64..1e9, 1u32..=16).prop_map(|(k, slack, m)| {
        if k == 0 {
            f64::from(m) * CAP_UNIT
        } else {
            slack
        }
    });
    (1u32..=8, proptest::collection::vec(other, n + 1)).prop_map(|(hub, mut rest)| {
        rest.insert(0, f64::from(hub) * CAP_UNIT);
        rest
    })
}

/// A flow of a hub-shaped schedule over `n` clients. Resource 0 is the
/// hub (the server's NIC), 1 the server's disk, and `2 + k` client `k`'s
/// NIC. A flow is a read served from the server's cache (hub, NIC), a
/// read from its disk (disk, hub, NIC), a write (NIC, hub) or a write
/// through to the disk (NIC, hub, disk). Most flows are uncapped; a few
/// have a cap of whole [`CAP_UNIT`]s (which can tie a fair share
/// exactly) or any cap. Starts fall on the coarse burst instants.
fn gen_hub_flow(n: usize) -> impl Strategy<Value = GenFlow> {
    (
        0..n,
        0u8..4,
        1_000u64..5_000_000,
        (0u8..8, 1u32..=8, 10.0f64..1e8),
        coarse_ms(),
    )
        .prop_map(|(client, shape, bytes, (k, units, any), start_ms)| {
            // Six in eight uncapped.
            let cap = match k {
                0 => Some(f64::from(units) * CAP_UNIT),
                1 => Some(any),
                _ => None,
            };
            let nic = 2 + client;
            let path = match shape {
                0 => vec![0, nic],
                1 => vec![1, 0, nic],
                2 => vec![nic, 0],
                _ => vec![nic, 0, 1],
            };
            GenFlow {
                bytes,
                path,
                cap,
                start_ms,
            }
        })
}

/// One scheduled mutation of the engines.
enum Op {
    /// Start the flow at this index of the generated list.
    Start(usize),
    /// Cancel the `k`-th flow ever started (if still active).
    Cancel(usize),
    /// Cancel every active flow touching resource `r` in one burst — the
    /// flow-level shape of a node crash (the engine cancels all of a dead
    /// node's transfers inside a single event).
    Crash(usize),
}

/// When the harness compares the engines' rate vectors.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Check {
    /// After every operation and completion.
    EveryOp,
    /// Only once no further operation shares the instant (and after every
    /// completion), so a burst of same-instant starts is read only after
    /// its last start.
    InstantBoundary,
    /// Only after completions, so the rates that starts and cancels leave
    /// are read only once the next completion has re-solved their
    /// component or left it alone.
    Completions,
}

/// Any of the three ways of reading a schedule, drawn per case.
fn any_check() -> impl Strategy<Value = Check> {
    prop_oneof![
        Just(Check::EveryOp),
        Just(Check::InstantBoundary),
        Just(Check::Completions)
    ]
}

/// The two ways of reading a burst-shaped schedule, drawn per case.
fn burst_check() -> impl Strategy<Value = Check> {
    prop_oneof![Just(Check::InstantBoundary), Just(Check::Completions)]
}

/// Drive both engines through the same schedule, asserting agreement after
/// every event (or every instant, per `check`). `tol_ns(t)` bounds the
/// allowed next-completion divergence at simulated nanosecond `t`.
fn run_differential(
    caps: &[f64],
    flows: &[GenFlow],
    cancels: &[(usize, u64)],
    crashes: &[(usize, u64)],
    force_shared: bool,
    check: Check,
    tol_ns: impl Fn(u64) -> u64,
) -> Result<(), TestCaseError> {
    let mut naive: NaiveFlowEngine<usize> = NaiveFlowEngine::new();
    let mut inc: FlowEngine<usize> = FlowEngine::new();
    let rids_n: Vec<_> = caps
        .iter()
        .enumerate()
        .map(|(i, c)| naive.add_resource(format!("r{i}"), *c))
        .collect();
    let rids_i: Vec<_> = caps
        .iter()
        .enumerate()
        .map(|(i, c)| inc.add_resource(format!("r{i}"), *c))
        .collect();

    // Merge starts and cancels into one deterministic timeline.
    let mut ops: Vec<(u64, usize, Op)> = Vec::new();
    for (i, g) in flows.iter().enumerate() {
        ops.push((g.start_ms * 1_000_000, ops.len(), Op::Start(i)));
    }
    for &(k, ms) in cancels {
        ops.push((ms * 1_000_000, ops.len(), Op::Cancel(k)));
    }
    for &(r, ms) in crashes {
        ops.push((ms * 1_000_000, ops.len(), Op::Crash(r % caps.len())));
    }
    ops.sort_by_key(|&(t, seq, _)| (t, seq));

    let mut paths: Vec<(FlowId, Vec<usize>)> = Vec::new();
    let mut started: Vec<FlowId> = Vec::new();
    let mut active: Vec<FlowId> = Vec::new();
    let mut op_ix = 0;
    let mut completions = 0u32;
    let mut cancelled = 0u32;
    // One streaming digest per engine over everything each engine reports
    // (rate bits after every event, completion payloads): if the digests
    // agree at the end, the whole observed streams agreed record for
    // record — the same replay-verification contract `RunStats::digest`
    // offers at the workflow level.
    let mut dig_n = RunDigest::new(0x0b5);
    let mut dig_i = RunDigest::new(0x0b5);

    loop {
        let next_op = ops.get(op_ix).map(|&(t, _, _)| t);
        let next_done = naive.next_completion();
        let step_op = match (next_op, next_done) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            // Events beat flow completions on ties, mirroring `Sim::run`.
            (Some(q), Some((t, _))) => q <= t.as_nanos(),
        };

        if step_op {
            let (t_ns, _, ref op) = ops[op_ix];
            op_ix += 1;
            let now = SimTime::from_nanos(t_ns);
            match *op {
                Op::Start(i) => {
                    let g = &flows[i];
                    let mut path: Vec<usize> =
                        g.path.iter().copied().filter(|&p| p < caps.len()).collect();
                    if force_shared && !path.contains(&0) {
                        path.insert(0, 0);
                    }
                    let build = |rids: &[simcore::ResourceId]| {
                        let mut spec =
                            FlowSpec::new(g.bytes, path.iter().map(|&p| rids[p]).collect());
                        if let Some(c) = g.cap {
                            spec = spec.with_cap(c);
                        }
                        spec
                    };
                    let spec = build(&rids_n);
                    if spec.is_instant() {
                        continue;
                    }
                    let id_n = naive.start(now, spec, i);
                    let id_i = inc.start(now, build(&rids_i), i);
                    prop_assert_eq!(id_n, id_i, "flow ids diverged");
                    paths.push((id_n, path));
                    started.push(id_n);
                    active.push(id_n);
                }
                Op::Cancel(k) => {
                    if started.is_empty() {
                        continue;
                    }
                    let id = started[k % started.len()];
                    let got_n = naive.cancel(now, id);
                    let got_i = inc.cancel(now, id);
                    prop_assert_eq!(got_n, got_i, "cancel payloads diverged");
                    if active.contains(&id) {
                        cancelled += 1;
                    }
                    active.retain(|&a| a != id);
                }
                Op::Crash(r) => {
                    let victims: Vec<FlowId> = active
                        .iter()
                        .copied()
                        .filter(|id| {
                            paths
                                .iter()
                                .any(|(pid, path)| pid == id && path.contains(&r))
                        })
                        .collect();
                    for id in victims {
                        let got_n = naive.cancel(now, id);
                        let got_i = inc.cancel(now, id);
                        prop_assert_eq!(got_n, got_i, "crash-cancel payloads diverged");
                        active.retain(|&a| a != id);
                        cancelled += 1;
                    }
                }
            }
            let burst_goes_on = ops.get(op_ix).is_some_and(|&(t, _, _)| t == t_ns);
            if check == Check::Completions || (check == Check::InstantBoundary && burst_goes_on) {
                continue;
            }
        } else {
            let (t_n, id_n) = next_done.unwrap();
            let (t_i, id_i) = inc
                .next_completion()
                .expect("incremental engine has no completion");
            let tol = tol_ns(t_n.as_nanos());
            let dt = t_n.as_nanos().abs_diff(t_i.as_nanos());
            prop_assert!(
                dt <= tol,
                "next completion diverged: naive {t_n:?}/{id_n:?} vs incremental {t_i:?}/{id_i:?}"
            );
            if tol == 0 {
                prop_assert_eq!(id_n, id_i, "completion order diverged");
            }
            // The oracle's choice drives both engines.
            let done_n = naive.complete(t_n, id_n);
            let done_i = inc.complete(t_n, id_n);
            prop_assert_eq!(done_n, done_i, "completion payloads diverged");
            dig_n.absorb_bytes(&(done_n as u64).to_le_bytes());
            dig_i.absorb_bytes(&(done_i as u64).to_le_bytes());
            active.retain(|&a| a != id_n);
            completions += 1;
        }

        // After every event: identical rate vectors, bit for bit.
        for &id in &active {
            let rn = naive.flow_rate(id).expect("active in oracle");
            let ri = inc.flow_rate(id).expect("active in incremental");
            dig_n.absorb_bytes(&rn.to_bits().to_le_bytes());
            dig_i.absorb_bytes(&ri.to_bits().to_le_bytes());
            prop_assert_eq!(
                rn.to_bits(),
                ri.to_bits(),
                "rate diverged for {:?}: naive {} vs incremental {}",
                id,
                rn,
                ri
            );
        }
        prop_assert_eq!(naive.active_flows(), inc.active_flows());
    }

    // Every flow that reached the engines ended exactly once. A generated
    // flow whose path lies wholly past the resource list and that has no
    // cap is instant, so it never starts and is not counted here.
    prop_assert_eq!(
        (completions + cancelled) as usize,
        started.len(),
        "started flows neither completed nor cancelled"
    );
    prop_assert_eq!(naive.flow_counters(), inc.flow_counters());
    prop_assert_eq!(
        dig_n.count(),
        dig_i.count(),
        "engines reported different record counts"
    );
    prop_assert_eq!(
        dig_n.value(),
        dig_i.value(),
        "observed-stream digests diverged"
    );
    prop_assert_eq!(inc.active_flows(), 0);
    // Resource accounting agrees to rounding (the engines accumulate
    // resource statistics with differently-associated but equivalent
    // arithmetic).
    for (rn, ri) in rids_n.iter().zip(&rids_i) {
        let (sn, si) = (naive.resource_stats(*rn), inc.resource_stats(*ri));
        for (what, a, b) in [
            ("bytes", sn.bytes, si.bytes),
            ("busy_secs", sn.busy_secs, si.busy_secs),
            ("util_integral", sn.util_integral, si.util_integral),
        ] {
            prop_assert!(
                (a - b).abs() <= a.abs().max(1.0) * 1e-9,
                "resource {what} diverged: {a} vs {b}"
            );
        }
    }
    Ok(())
}

/// A flow of `bytes` over `path`, uncapped, starting at `start_ms`.
fn scripted(bytes: u64, path: Vec<usize>, start_ms: u64) -> GenFlow {
    GenFlow {
        bytes,
        path,
        cap: None,
        start_ms,
    }
}

/// `bursts_multi_component` case 146 of 3,000: the only flow's path lies
/// past the two resources, so it is instant and never starts. Nothing
/// completes or is cancelled, and the run is still correct.
#[test]
fn bursts_multi_component_lone_instant_flow() {
    let flows = [scripted(706_553, vec![2], 4_500)];
    run_differential(
        &[130_452_747.951_758_2, 388_869_563.418_856_2],
        &flows,
        &[(22, 5_000)],
        &[],
        false,
        Check::Completions,
        |t| 2 + (t as f64 * 1e-12) as u64,
    )
    .unwrap();
}

/// `multi_component_rates_exact_times_tight` case 966 of 3,000: the same
/// lone instant flow, among cancels that find nothing started.
#[test]
fn multi_component_lone_instant_flow() {
    let flows = [scripted(1_135_368, vec![2], 6_374)];
    run_differential(
        &[893_616_683.405_884_9, 909_324_914.186_467_2],
        &flows,
        &[(2, 3_308), (0, 9_204)],
        &[],
        false,
        Check::EveryOp,
        |t| 2 + (t as f64 * 1e-12) as u64,
    )
    .unwrap();
}

/// `crash_bursts_multi_component` case 2,410 of 3,000: the same lone
/// instant flow, among crashes of resources no flow crosses.
#[test]
fn crash_bursts_multi_component_lone_instant_flow() {
    let flows = [scripted(2_344_803, vec![3], 2_227)];
    run_differential(
        &[49_378_558.567_192_56, 88_832_141.117_573_48],
        &flows,
        &[(45, 3_727)],
        &[(0, 5_110), (5, 5_705)],
        false,
        Check::EveryOp,
        |t| 2 + (t as f64 * 1e-12) as u64,
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fully connected case: every flow crosses resource 0, so the graph is
    /// always a single component and the incremental engine must match the
    /// oracle **bit for bit** — rates, completion instants, and completion
    /// order.
    #[test]
    fn single_component_is_bit_identical(
        caps in proptest::collection::vec(1e3f64..1e9, 1..5),
        flows in proptest::collection::vec(gen_flow(4), 1..40),
        cancels in proptest::collection::vec((0usize..64, 0u64..10_000), 0..8),
    ) {
        run_differential(&caps, &flows, &cancels, &[], true, Check::EveryOp, |_| 0)?;
    }

    /// General case: random paths form multiple components that split and
    /// merge as flows come and go. Rates must still agree bit for bit;
    /// completion predictions may drift by the lazy-sync rounding bound.
    #[test]
    fn multi_component_rates_exact_times_tight(
        caps in proptest::collection::vec(1e3f64..1e9, 2..6),
        flows in proptest::collection::vec(gen_flow(5), 1..40),
        cancels in proptest::collection::vec((0usize..64, 0u64..10_000), 0..8),
    ) {
        // Relative 1e-12 of the completion instant, floored at 2 ns.
        run_differential(&caps, &flows, &cancels, &[], false, Check::EveryOp,
            |t| 2 + (t as f64 * 1e-12) as u64)?;
    }

    /// Crash-shaped schedules, shared-resource case: random bursts cancel
    /// every flow touching one resource inside a single event — the exact
    /// load a node crash puts on the engine (all of a dead node's
    /// transfers die at once). Bit-identical agreement is still required.
    #[test]
    fn crash_bursts_single_component_bit_identical(
        caps in proptest::collection::vec(1e3f64..1e9, 1..5),
        flows in proptest::collection::vec(gen_flow(4), 1..40),
        crashes in proptest::collection::vec((0usize..8, 0u64..10_000), 1..6),
    ) {
        run_differential(&caps, &flows, &[], &crashes, true, Check::EveryOp, |_| 0)?;
    }

    /// Crash-shaped schedules over disjoint components, mixed with plain
    /// cancels: mass-cancel bursts tear whole components down while others
    /// keep filling. Rates stay bit-exact, predictions within the
    /// lazy-sync bound.
    #[test]
    fn crash_bursts_multi_component(
        caps in proptest::collection::vec(1e3f64..1e9, 2..6),
        flows in proptest::collection::vec(gen_flow(5), 1..40),
        cancels in proptest::collection::vec((0usize..64, 0u64..10_000), 0..8),
        crashes in proptest::collection::vec((0usize..8, 0u64..10_000), 1..6),
    ) {
        run_differential(&caps, &flows, &cancels, &crashes, false, Check::EveryOp,
            |t| 2 + (t as f64 * 1e-12) as u64)?;
    }

    /// PVFS-shaped schedules, read after every operation: striped legs
    /// with one shared cap per operation, over slack and tight
    /// capacities. All flows form one component, so agreement is
    /// bit-identical.
    #[test]
    fn pvfs_stripes_bit_identical(
        n in 2usize..=4,
        caps in gen_pvfs_caps(n),
        flows in gen_pvfs_ops(n),
        cancels in proptest::collection::vec((0usize..64, 0u64..8_000), 0..6),
    ) {
        run_differential(&caps, &flows, &cancels, &[], false, Check::EveryOp, |_| 0)?;
    }

    /// PVFS-shaped schedules read only at instant boundaries or only after
    /// completions: each operation's legs (and every operation sharing
    /// its instant) start as one burst, read only after its last start.
    #[test]
    fn pvfs_stripe_bursts_bit_identical(
        n in 2usize..=4,
        caps in gen_pvfs_caps(n),
        flows in gen_pvfs_ops(n),
        cancels in proptest::collection::vec((0usize..64, coarse_ms()), 0..6),
        crashes in proptest::collection::vec((0usize..12, coarse_ms()), 0..3),
        check in burst_check(),
    ) {
        run_differential(&caps, &flows, &cancels, &crashes, false, check, |_| 0)?;
    }

    /// Bursts of same-instant starts on one shared resource, read only at
    /// instant boundaries or after completions: bit-identical.
    #[test]
    fn bursts_single_component_bit_identical(
        caps in proptest::collection::vec(1e3f64..1e9, 1..5),
        flows in proptest::collection::vec(gen_burst_flow(4), 1..40),
        cancels in proptest::collection::vec((0usize..64, coarse_ms()), 0..8),
        check in burst_check(),
    ) {
        run_differential(&caps, &flows, &cancels, &[], true, check, |_| 0)?;
    }

    /// Bridge-shaped schedules: two resource clusters, with flows that
    /// join them starting and finishing, so components keep merging and
    /// splitting, among cancels, crashes and pathless capped flows. In a
    /// debug build the engine checks every component it solves against a
    /// fresh walk of the graph. Rates stay bit-exact, predictions within
    /// the lazy-sync bound.
    #[test]
    fn bridges_merge_and_split(
        caps in gen_pvfs_caps(2),
        flows in proptest::collection::vec(gen_bridge_flow(), 1..40),
        cancels in proptest::collection::vec((0usize..64, 0u64..6_000), 0..8),
        crashes in proptest::collection::vec((0usize..2 * BRIDGE_SIDE, coarse_ms()), 0..3),
        check in any_check(),
    ) {
        run_differential(&caps, &flows, &cancels, &crashes, false, check,
            |t| 2 + (t as f64 * 1e-12) as u64)?;
    }

    /// Same-instant schedules: equal stripes that finish together, starts,
    /// cancels and crashes at those instants, over slack and tight
    /// capacities, read after every operation, at instant boundaries or
    /// after completions. Rates stay bit-exact; predictions within the
    /// lazy-sync bound, since finished legs can leave disjoint pieces.
    #[test]
    fn same_instant_resolves(
        n in 2usize..=4,
        caps in gen_pvfs_caps(n),
        flows in gen_same_instant_ops(n),
        cancels in proptest::collection::vec((0usize..64, grid_ms()), 0..6),
        crashes in proptest::collection::vec((0usize..12, grid_ms()), 0..3),
        check in any_check(),
    ) {
        run_differential(&caps, &flows, &cancels, &crashes, false, check,
            |t| 2 + (t as f64 * 1e-12) as u64)?;
    }

    /// Hub-shaped schedules: every flow crosses the hub, so all flows form
    /// one component, solved by the equal-share shortcut wherever the hub
    /// (or another resource reaching every flow) sets one share for all.
    /// Starts, cancels and crashes fall on coarse instants, read after
    /// every operation, at instant boundaries or after completions.
    /// Bit-identical.
    #[test]
    fn hub_components_bit_identical(
        n in 2usize..=6,
        caps in gen_hub_caps(n),
        flows in proptest::collection::vec(gen_hub_flow(n), 1..40),
        cancels in proptest::collection::vec((0usize..64, coarse_ms()), 0..8),
        crashes in proptest::collection::vec((0usize..8, coarse_ms()), 0..3),
        check in any_check(),
    ) {
        run_differential(&caps, &flows, &cancels, &crashes, false, check, |_| 0)?;
    }

    /// Bursts of same-instant starts over disjoint components that merge
    /// within the burst, read only at instant boundaries or after
    /// completions. Rates stay bit-exact, predictions within the
    /// lazy-sync bound.
    #[test]
    fn bursts_multi_component(
        caps in proptest::collection::vec(1e3f64..1e9, 2..6),
        flows in proptest::collection::vec(gen_burst_flow(5), 1..40),
        cancels in proptest::collection::vec((0usize..64, coarse_ms()), 0..8),
        crashes in proptest::collection::vec((0usize..8, coarse_ms()), 0..4),
        check in burst_check(),
    ) {
        run_differential(&caps, &flows, &cancels, &crashes, false, check,
            |t| 2 + (t as f64 * 1e-12) as u64)?;
    }
}
