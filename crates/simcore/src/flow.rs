//! Fluid-flow model of shared I/O resources.
//!
//! Disks, NICs and servers are *resources* with a fixed capacity in bytes
//! per second. An I/O operation is a *flow*: a number of bytes pushed across
//! a path of resources, optionally subject to a per-flow rate cap (used to
//! model e.g. the EC2 ephemeral-disk first-write penalty, or the per-stream
//! throughput limit of an S3 connection).
//!
//! Active flows receive a **max–min fair share**: the progressive-filling
//! algorithm raises every flow's rate together until a resource saturates
//! (or a flow hits its cap), freezes the affected flows, and continues with
//! the rest. Between recomputations every flow progresses linearly, so the
//! next completion time is exact.
//!
//! This is the classic flow-level network simulation used by SimGrid-style
//! simulators; it captures contention crossovers (e.g. an NFS server NIC
//! saturating as clients are added) without packet-level detail.
//!
//! ## Incremental engine
//!
//! A flow arriving, completing or being cancelled can only change the fair
//! shares inside its own **connected component** of the resource↔flow
//! bipartite graph: progressive filling decomposes exactly over components
//! (the bottleneck sequence of one component never reads another's state).
//! The engine exploits this three ways:
//!
//! * **Kept components** — each event re-solves only the affected flow's
//!   component, and the engine keeps the components between events
//!   instead of re-discovering them. A component lists its flow slots and
//!   resources, and counts its resources whose caps fail the all-at-cap
//!   test below. A resource knows its component and keeps `cap_sum`, the
//!   left fold of its flow list's caps in list order. A start merges the
//!   components its path bridges into the largest one, relabelling the
//!   others, and adds its cap at the end of each fold. A removal re-folds
//!   the lists it touched from 0.0, so the sums stay bit-equal to a walk
//!   over the lists. It then solves the whole old component jointly (what
//!   a walk from the removed flow's resources would reach), drops the
//!   resources left with no flows, and checks with a walk that stops early
//!   that the flow's remaining path resources are still connected. Only a
//!   real split re-derives the pieces. Rates elsewhere are untouched (they
//!   would re-derive to the same bits).
//! * **Hot state in component order** — a component keeps its flows'
//!   per-solve state (remaining bytes, rate, fast-path cap, sync instant,
//!   prediction) in a list parallel to its flow slots, so a solve re-syncs
//!   the component in one linear pass with no slab lookup per flow. The
//!   slab keeps what a solve rarely reads: the id and heap generation (read
//!   to push a heap entry and to check one's liveness), the path, the cap
//!   and the payload. A removal swap-removes both lists in step, a merge
//!   moves the entries, and a split reads each flow's entry at its old
//!   position.
//! * **Lazy completion heap** — instead of scanning every active flow for
//!   the earliest completion, predictions are kept in a binary min-heap
//!   keyed `(time, flow id)`. Each solve recomputes the prediction of every
//!   flow it re-rates, but pushes an entry only when the predicted instant
//!   moved; per-flow generation counters invalidate superseded entries
//!   lazily. An entry carries its flow's slot, so a liveness check reads
//!   the slab (id and generation must both match, since a freed slot may
//!   hold a newer flow) with no map lookup.
//! * **Lazy accounting** — per-flow remaining bytes and per-resource
//!   statistics are only brought forward when their component is touched
//!   (rates are constant in between, so the update is a single
//!   multiply-add per flow/resource), using reusable scratch buffers
//!   instead of per-event allocations.
//!
//! Five shortcuts skip work that cannot change the answer:
//!
//! * **All-at-cap fast path** — when every flow of a component has a cap
//!   and, on every resource, the caps crossing it sum to at most
//!   `capacity · (1 − 1e-9)`, progressive filling freezes each flow at
//!   exactly its cap in whatever order it runs (the smallest unfixed cap
//!   stays strictly below every resource's fair share in every round, with
//!   a margin far above the rounding carried in the remaining capacities).
//!   The solver then sets each rate to its cap, with no filling rounds;
//!   the kept per-resource cap sums are the new rate sums bit for bit.
//!   Debug builds still run the full filling and assert bit equality.
//! * **Equal-share shortcut** — on a component that is not all at cap, the
//!   filling's first round takes `share`, the least `capacity / flows` over
//!   its resources (a flow list holds one entry per path crossing, so its
//!   length is the initial load). If no flow's cap is at or below `share`,
//!   the round freezes every flow on a resource that passes the saturation
//!   test at `share`, and if those resources reach every flow, the filling
//!   ends there with every rate equal to `share`. The solver then sets
//!   every rate to `share` with no filling rounds, and each rate sum is
//!   `share` folded once per list entry, the fold a walk over the list
//!   would take, with no slab lookup. NFS components (clients crossing the
//!   server's NIC) mostly solve this way. Debug builds still run the full
//!   filling and assert bit equality of every rate and rate sum.
//! * **Clean re-solve** — a component marks the instant of its last solve
//!   when that solve took the all-at-cap path. Until it is solved again,
//!   every flow of that solve runs at its cap with `sync` at that instant,
//!   and every resource's rate sum is its cap sum. A later solve at the
//!   same instant that is still all at cap would re-derive the same bits
//!   for every such flow (no time passed, so `remaining` stays, and its
//!   prediction has the inputs that set it) and set every rate sum to its
//!   cap sum, which moved only where a flow list changed. So it touches
//!   only what changed: a removal sets the rate sums on the removed flow's
//!   path, and a start re-syncs only the flow it attached and sets the
//!   rate sums on its path. Statistics need no flush: the solve and each
//!   start or removal since brought them forward to that instant. A solve
//!   that is not all at cap clears the mark, and so does a merge of
//!   components marked at different instants (or one marked and one not);
//!   the pieces of a split keep it. Debug builds run the full pass after
//!   the shortcut and assert that it changes no bit of any flow, resource
//!   or the heap.
//! * **Reused re-sync** — a flow's re-sync (`remaining` brought forward, the
//!   new rate applied, the completion predicted) is a pure function of its
//!   `(remaining, old rate, sync, new rate)` bits and `now`. Flows next to
//!   each other in a component often have the same bits (the stripe legs
//!   of one operation), so a pass reuses the last result while the inputs
//!   repeat. Debug builds re-derive every reused result and assert bit
//!   equality.
//! * **Split check from the smallest list** — after a removal, the walk
//!   that checks whether the removed flow's path resources are still
//!   connected starts at the one with the fewest flows. Connectivity does
//!   not depend on where the walk starts, and the split that follows a
//!   negative answer walks the pieces anew.
//!
//! What each is worth, as the median `wall_s` ratio of `perfbench` with
//! it disabled alone to the solver as it is, on the four workloads
//! `montage-pvfs-8`, `montage-nfs-4`, `f2-sweep-bb-epi` and
//! `montage-gluster-nufa-8-full` (seed 42, `--seconds 3`, 6 alternating
//! pairs, 2-core host; in brackets, the pairs in which disabling it was
//! slower):
//!
//! | shortcut            | pvfs-8      | nfs-4      | f2-sweep    | gluster-full |
//! |---------------------|-------------|------------|-------------|--------------|
//! | all-at-cap          | 2.55 (6/6)  | 1.03 (4/6) | 1.35 (5/6)  | 0.95 (2/6)   |
//! | equal-share         | 0.97 (2/6)  | 1.16 (5/6) | 0.99 (2/6)  | 0.99 (2/6)   |
//! | clean re-solve      | 1.36 (6/6)  | 1.00 (2/6) | 1.07 (5/6)  | 1.00 (3/6)   |
//! | reused re-sync      | 1.27 (6/6)  | 1.00 (3/6) | 1.07 (6/6)  | 1.01 (3/6)   |
//! | split from smallest | 1.21 (6/6)  | 0.93 (1/6) | 1.00 (3/6)  | 1.00 (3/6)   |
//!
//! The kept heap entry of the lazy completion heap (push only when a
//! prediction moved) is worth 2.44 (6/6) on pvfs-8. A sixth shortcut, a
//! skip of each flow already synced at this instant whose rate kept its
//! bits, was deleted: with a solve per start it passed over only 6,949 of
//! 1.30M flow visits on a seed-42 NFS @ 4 run and 43,003 of 35.3M on PVFS
//! @ 8, and its `wall_s` ratios were within noise on all four workloads.
//!
//! Keeping components changes the order in which a solve visits flows and
//! resources, never a bit of its result, for four reasons. Within one
//! filling round every flow that freezes gets the same value (the round's
//! `min_cap` or its `share`), and which flows freeze is decided before any
//! does, so each remaining capacity sees the same subtractions in any
//! order of the flows. The bottleneck minimum and the saturation test do
//! not depend on order. Each rate sum folds its own resource's flow list.
//! And heap keys `(time, id, slot, gen)` are unique.
//! Debug builds check every component before solving it against a new
//! stamped breadth-first walk of the graph: the walk must reach the same
//! flows and resources, and every kept cap sum must equal its list's fold
//! bit for bit.
//!
//! The reference single-threaded solver with global recompute and a linear
//! completion scan is preserved as `NaiveFlowEngine` in the `naive` module
//! behind the `oracle` feature; a differential property suite drives both
//! engines through identical schedules and checks that rates and
//! completions agree.

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};

/// Handle to a registered resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ResourceId(pub(crate) u32);

impl ResourceId {
    /// Reconstruct a handle from a raw registration index (for iterating
    /// `0..resource_count()`).
    pub fn from_index(ix: usize) -> Self {
        ResourceId(u32::try_from(ix).expect("resource index fits u32"))
    }

    /// The raw index of this resource in the registration order.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to an active flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub(crate) u64);

/// Description of a flow to start.
#[derive(Debug, Clone)]
pub struct FlowSpec {
    /// Number of bytes to move. A zero-byte flow completes instantly.
    pub bytes: u64,
    /// Resources the flow crosses; it gets the minimum share across them.
    pub path: Vec<ResourceId>,
    /// Optional per-flow cap in bytes/second (must be > 0 when present).
    pub rate_cap: Option<f64>,
}

impl FlowSpec {
    /// A flow of `bytes` across `path` with no per-flow cap.
    pub fn new(bytes: u64, path: Vec<ResourceId>) -> Self {
        FlowSpec {
            bytes,
            path,
            rate_cap: None,
        }
    }

    /// Apply a per-flow rate cap in bytes/second.
    pub fn with_cap(mut self, cap: f64) -> Self {
        self.rate_cap = Some(cap);
        self
    }

    /// True when the flow cannot be simulated as a fluid flow (nothing
    /// constrains it) and should be treated as instantaneous.
    pub fn is_instant(&self) -> bool {
        self.bytes == 0 || (self.path.is_empty() && self.rate_cap.is_none())
    }
}

/// Accumulated per-resource statistics.
#[derive(Debug, Clone, Copy, Default)]
pub struct ResourceStats {
    /// Total bytes that crossed the resource.
    pub bytes: f64,
    /// Simulated seconds during which at least one flow used the resource.
    pub busy_secs: f64,
    /// Integral of instantaneous utilisation over time (divide by the
    /// observation window for mean utilisation).
    pub util_integral: f64,
}

#[derive(Debug)]
struct Resource {
    name: String,
    capacity: f64,
    /// Slots of the active flows crossing this resource, each with its cap
    /// as the all-at-cap sums count it (∞ when uncapped).
    flows: Vec<(u32, f64)>,
    /// Left fold of the caps in `flows`, from 0.0 in list order: the sum a
    /// walk over the list would take, bit for bit.
    cap_sum: f64,
    /// Component this resource belongs to while it has flows, and its
    /// position in that component's resource list.
    comp: u32,
    comp_pos: u32,
    /// Sum of those flows' current rates (constant between recomputes of
    /// this resource's component).
    rate_sum: f64,
    /// Statistics accumulated up to `stat_sync`.
    stats: ResourceStats,
    stat_sync: SimTime,
}

impl Resource {
    /// Bring `stats` forward to `now` under the constant-rate interval
    /// invariant. Must run *before* this resource's flow list or rates
    /// change.
    fn flush_stats(&mut self, now: SimTime) {
        self.stats = self.stats_at(now);
        self.stat_sync = now;
    }

    /// `stats` as of `now` without mutating (for `&self` getters).
    fn stats_at(&self, now: SimTime) -> ResourceStats {
        let mut s = self.stats;
        let dt = now.since(self.stat_sync).as_secs_f64();
        if dt > 0.0 {
            s.bytes += self.rate_sum * dt;
            if !self.flows.is_empty() {
                s.busy_secs += dt;
            }
            s.util_integral += (self.rate_sum / self.capacity).min(1.0) * dt;
        }
        s
    }

    /// Whether the caps crossing this resource fail the all-at-cap test:
    /// they must sum to at most `capacity · (1 − 1e-9)` (an uncapped flow
    /// counts as an infinite cap, and a sum of positive caps is never NaN).
    fn over_cap(&self) -> bool {
        self.cap_sum > self.capacity * (1.0 - 1e-9)
    }

    /// The left fold of the caps in the flow list, from 0.0.
    fn fold_caps(&self) -> f64 {
        self.flows.iter().fold(0.0, |sum, &(_, cap)| sum + cap)
    }
}

/// One active flow in the slab: the fields a solve's re-sync loop does not
/// read (the hot ones are in its component's [`Hot`] entry).
struct Slot<C> {
    /// External id (drives all deterministic orderings).
    id: u64,
    path: Vec<ResourceId>,
    /// Position of this slot inside each path resource's flow list
    /// (parallel to `path`), for O(path) removal.
    path_pos: Vec<u32>,
    cap: Option<f64>,
    /// Heap-entry generation; entries with an older generation are stale.
    gen: u64,
    /// Component this flow belongs to, and its position in that
    /// component's flow list (and in its `hot` list).
    comp: u32,
    comp_pos: u32,
    completion: Option<C>,
}

/// The per-flow state every solve of a component reads and re-syncs,
/// kept in the component's order so the re-sync loop is a linear pass.
#[derive(Clone, Copy)]
struct Hot {
    /// Remaining bytes as of `sync`.
    remaining: f64,
    rate: f64,
    /// The rate the all-at-cap fast path applies: the cap, at least
    /// `f64::MIN_POSITIVE` (NaN when uncapped).
    cap: f64,
    /// Instant `remaining` was last brought forward.
    sync: SimTime,
    /// Predicted completion instant of the live heap entry (`None` before
    /// the flow's first solve).
    pred: Option<SimTime>,
}

impl Hot {
    /// `remaining` brought forward from `sync` to `now` under `rate`.
    fn remaining_at(&self, now: SimTime) -> f64 {
        self.remaining_after(now.since(self.sync).as_secs_f64())
    }

    /// `remaining` brought forward by `dt` seconds under `rate`.
    fn remaining_after(&self, dt: f64) -> f64 {
        if dt > 0.0 {
            (self.remaining - self.rate * dt).max(0.0)
        } else {
            self.remaining
        }
    }

    /// The bits of every field, for the debug checks' comparisons.
    fn bits(&self) -> ([u64; 3], SimTime, Option<SimTime>) {
        let floats = [self.remaining, self.rate, self.cap];
        (floats.map(f64::to_bits), self.sync, self.pred)
    }
}

/// A flow's re-sync inputs, as bits: `(remaining, old rate, sync, new
/// rate)`.
type ResyncKey = (u64, u64, SimTime, u64);

/// One solve's re-sync of its flows: a flow's `remaining` brought forward
/// to `now` under its old rate, its new rate applied and its completion
/// predicted. The result is a pure function of the flow's `(remaining,
/// old rate, sync, new rate)` bits and `now`, and flows next to each other
/// in a component often share those bits (the stripe legs of one
/// operation), so the last result is reused while the inputs repeat.
/// Flows of a component mostly share their last sync instant, so `dt` is
/// computed once per distinct one.
struct Resync {
    now: SimTime,
    last_sync: SimTime,
    dt: f64,
    /// The inputs and result (`remaining`, prediction) of the last re-sync
    /// computed.
    last: Option<(ResyncKey, (f64, SimTime))>,
    /// Re-syncs that reused the last result.
    #[cfg(test)]
    reused: u64,
}

impl Resync {
    fn new(now: SimTime) -> Self {
        Resync {
            now,
            last_sync: now,
            dt: 0.0,
            last: None,
            #[cfg(test)]
            reused: 0,
        }
    }

    /// Re-sync `h` at its new `rate`. Returns the new prediction if it
    /// moved (the flow then needs a new heap entry).
    fn apply(&mut self, h: &mut Hot, rate: f64) -> Option<SimTime> {
        let key = (
            h.remaining.to_bits(),
            h.rate.to_bits(),
            h.sync,
            rate.to_bits(),
        );
        let (remaining, pred) = match self.last {
            Some((k, out)) if k == key => {
                #[cfg(test)]
                {
                    self.reused += 1;
                }
                if cfg!(debug_assertions) {
                    let (remaining, pred) = self.derive(h, rate);
                    assert_eq!(
                        (remaining.to_bits(), pred),
                        (out.0.to_bits(), out.1),
                        "reused re-sync differs from its derivation"
                    );
                }
                out
            }
            _ => {
                let out = self.derive(h, rate);
                self.last = Some((key, out));
                out
            }
        };
        h.remaining = remaining;
        h.sync = self.now;
        h.rate = rate;
        (h.pred != Some(pred)).then(|| {
            h.pred = Some(pred);
            pred
        })
    }

    /// `h`'s remaining bytes at `now` and its predicted completion at the
    /// new `rate`.
    fn derive(&mut self, h: &Hot, rate: f64) -> (f64, SimTime) {
        if h.sync != self.last_sync {
            self.last_sync = h.sync;
            self.dt = self.now.since(h.sync).as_secs_f64();
        }
        let remaining = h.remaining_after(self.dt);
        (
            remaining,
            self.now + SimDuration::from_secs_f64(remaining / rate),
        )
    }
}

/// Work the solver's shortcuts saved, counted for the unit tests that pin
/// them.
#[cfg(test)]
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Saved {
    /// Flows a re-solve of a clean component did not visit.
    skipped: u64,
    /// Re-syncs that reused the previous flow's result.
    reused: u64,
    /// Solves that set every flow to one equal share without filling.
    uniform: u64,
}

/// A connected component of the resource↔flow graph, kept between events.
/// Its resources are those with at least one flow (a removal's solve also
/// covers the path resources the removal left empty, which are dropped
/// right after). A pathless flow is a component of its own.
#[derive(Default)]
struct Component {
    slots: Vec<u32>,
    /// The flows' hot state, parallel to `slots`.
    hot: Vec<Hot>,
    res: Vec<u32>,
    /// Number of `res` that fail the all-at-cap test
    /// ([`Resource::over_cap`]); zero means the fast path applies.
    over: u32,
    /// The instant of this component's last solve, if that solve took the
    /// all-at-cap path and its result stands: every flow's rate is its cap
    /// and its `sync` is that instant, and every resource's rate sum is its
    /// cap sum, except what the start or removal in flight changed.
    clean: Option<SimTime>,
}

/// The start or removal a component's solve follows.
#[derive(Clone, Copy)]
enum Change {
    /// The flow in this slot just joined the component.
    Started(u32),
    /// The flow in this slot just left it (detached; the slot is freed
    /// after the solve).
    Removed(u32),
}

/// Reusable per-event buffers (no allocation on the hot path once warm).
#[derive(Default)]
struct Scratch {
    /// Per-resource local index into `cap_left`/`load`/`saturated`
    /// (valid for the resources of the component being filled).
    res_local: Vec<u32>,
    cap_left: Vec<f64>,
    load: Vec<u32>,
    saturated: Vec<bool>,
    /// Whether each flow is frozen, by its position in the component.
    fixed: Vec<bool>,
    /// The filling's rate of each flow, by its position in the component.
    new_rate: Vec<f64>,
    /// Visitation epoch of the walks below, and per-resource / per-slot
    /// stamps of the epoch that last reached them.
    stamp: u64,
    res_stamp: Vec<u64>,
    slot_stamp: Vec<u64>,
    /// What the current walk has reached, in order (`walk_res` doubles as
    /// its queue).
    walk_res: Vec<u32>,
    walk_slots: Vec<u32>,
    /// The distinct path resources a removal left with flows: the walk
    /// that checks for a split stops once it has reached them all.
    targets: Vec<u32>,
}

impl Scratch {
    /// Start a walk under a new stamp.
    fn begin_walk(&mut self) {
        self.stamp += 1;
        self.walk_res.clear();
        self.walk_slots.clear();
    }

    /// Add resource `r` to the current walk unless it has reached it
    /// already. Returns whether it was new.
    fn reach_res(&mut self, r: u32) -> bool {
        let new = self.res_stamp[r as usize] != self.stamp;
        if new {
            self.res_stamp[r as usize] = self.stamp;
            self.walk_res.push(r);
        }
        new
    }

    /// Add flow slot `s` to the current walk unless it has reached it
    /// already. Returns whether it was new.
    fn reach_slot(&mut self, s: u32) -> bool {
        let new = self.slot_stamp[s as usize] != self.stamp;
        if new {
            self.slot_stamp[s as usize] = self.stamp;
            self.walk_slots.push(s);
        }
        new
    }
}

/// Hasher for the engine's sequential flow ids: one multiply spreads
/// consecutive keys over the table (SipHash buys nothing against keys
/// the engine hands out itself).
#[derive(Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0.rotate_left(8) ^ u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    fn write_u64(&mut self, id: u64) {
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// A completion-heap entry `(time, id, slot, gen)`. The slot lets a
/// liveness check read the slab directly; ordering is that of
/// `(time, id, gen)`, because a flow keeps one slot for life and
/// `(time, id)` is unique among live entries.
type HeapEntry = Reverse<(SimTime, u64, u32, u64)>;

/// Where a solve's new rates come from.
#[derive(Clone, Copy, PartialEq)]
enum Rates {
    /// Every flow runs at its cap (the all-at-cap fast path).
    Caps,
    /// Every flow runs at this one share, at least `f64::MIN_POSITIVE`
    /// (the equal-share shortcut).
    Uniform(f64),
    /// Progressive filling, in `scratch.new_rate`.
    Filled,
}

/// The fluid-flow engine. `C` is an opaque completion payload returned to
/// the caller when a flow finishes (the simulation driver stores each
/// flow's completion [`Action`](crate::sim::Action) here).
pub struct FlowEngine<C> {
    resources: Vec<Resource>,
    slots: Vec<Option<Slot<C>>>,
    /// Vacant slots, each with the emptied `path_pos` of the flow that
    /// last held it, for the next flow that takes the slot.
    free: Vec<(u32, Vec<u32>)>,
    /// Slot of each active flow, for `complete`/`cancel` by id.
    by_id: HashMap<u64, u32, BuildHasherDefault<IdHasher>>,
    /// Connected components, by id; ids of dissolved ones are in
    /// `free_comps`.
    comps: Vec<Component>,
    free_comps: Vec<u32>,
    /// Lazy min-heap of predicted completions.
    heap: BinaryHeap<HeapEntry>,
    next_id: u64,
    last_advance: SimTime,
    flows_started: u64,
    flows_completed: u64,
    scratch: Scratch,
    #[cfg(test)]
    saved: Saved,
}

impl<C> Default for FlowEngine<C> {
    fn default() -> Self {
        Self::new()
    }
}

impl<C> FlowEngine<C> {
    /// An engine with no resources or flows.
    pub fn new() -> Self {
        FlowEngine {
            resources: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
            by_id: HashMap::default(),
            comps: Vec::new(),
            free_comps: Vec::new(),
            heap: BinaryHeap::new(),
            next_id: 0,
            last_advance: SimTime::ZERO,
            flows_started: 0,
            flows_completed: 0,
            scratch: Scratch::default(),
            #[cfg(test)]
            saved: Saved::default(),
        }
    }

    /// Register a resource with `capacity` bytes/second. Panics if the
    /// capacity is not finite and positive.
    pub fn add_resource(&mut self, name: impl Into<String>, capacity: f64) -> ResourceId {
        assert!(
            capacity.is_finite() && capacity > 0.0,
            "resource capacity must be finite and positive"
        );
        let id = ResourceId(u32::try_from(self.resources.len()).expect("too many resources"));
        self.resources.push(Resource {
            name: name.into(),
            capacity,
            flows: Vec::new(),
            cap_sum: 0.0,
            comp: 0,
            comp_pos: 0,
            rate_sum: 0.0,
            stats: ResourceStats::default(),
            stat_sync: self.last_advance,
        });
        self.scratch.res_stamp.push(0);
        self.scratch.res_local.push(0);
        id
    }

    /// Name of a resource (for reports).
    pub fn resource_name(&self, id: ResourceId) -> &str {
        &self.resources[id.index()].name
    }

    /// Statistics accumulated for a resource up to the engine's latest
    /// accounting instant.
    pub fn resource_stats(&self, id: ResourceId) -> ResourceStats {
        self.resources[id.index()].stats_at(self.last_advance)
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
        self.by_id.len()
    }

    /// Start a flow at time `now`. The spec must not be instantaneous
    /// (check [`FlowSpec::is_instant`] first); panics otherwise. Panics if a
    /// rate cap is present but not finite and positive, or if the path
    /// names an unregistered resource. The flow's component is solved
    /// before `start` returns.
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
        self.advance_clock(now);
        // The new flow's resources close their constant-rate interval
        // before their flow lists change.
        for r in &spec.path {
            self.resources[r.index()].flush_stats(now);
        }

        let id = FlowId(self.next_id);
        self.next_id += 1;
        self.flows_started += 1;
        let comp = self.bridge(&spec.path);
        let hot = Hot {
            remaining: spec.bytes as f64,
            rate: 0.0,
            cap: spec.rate_cap.map_or(f64::NAN, |c| c.max(f64::MIN_POSITIVE)),
            sync: now,
            pred: None,
        };
        let slot = self.alloc_slot(Slot {
            id: id.0,
            // `alloc_slot` hands over the vector the slot kept, if any.
            path_pos: Vec::new(),
            path: spec.path,
            cap: spec.rate_cap,
            gen: 0,
            comp,
            comp_pos: 0,
            completion: Some(completion),
        });
        self.attach(slot, comp, hot);
        self.by_id.insert(id.0, slot);
        self.solve_component(now, comp, Change::Started(slot));
        id
    }

    /// Cancel an active flow, returning its completion payload if it was
    /// still active. Cancelling a flow that already finished changes
    /// nothing.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> Option<C> {
        let slot = *self.by_id.get(&id.0)?;
        Some(self.remove_flow(now, id, slot))
    }

    /// Complete flow `id` at time `now` (as previously announced by
    /// [`Self::next_completion`]) and return its completion payload.
    pub fn complete(&mut self, now: SimTime, id: FlowId) -> C {
        let slot = *self.by_id.get(&id.0).expect("completing unknown flow");
        self.flows_completed += 1;
        self.remove_flow(now, id, slot)
    }

    /// The earliest (time, flow) completion among active flows, if any.
    /// Takes `&mut self` to discard stale heap entries.
    pub fn next_completion(&mut self) -> Option<(SimTime, FlowId)> {
        while let Some(&Reverse((t, id, slot, gen))) = self.heap.peek() {
            if self.is_live(id, slot, gen) {
                return Some((t, FlowId(id)));
            }
            self.heap.pop();
        }
        None
    }

    /// Instantaneous rate of an active flow (testing/diagnostics).
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.hot(id).map(|h| h.rate)
    }

    /// Remaining bytes of an active flow as of the engine's latest
    /// accounting instant (testing/diagnostics).
    pub fn flow_remaining(&self, id: FlowId) -> Option<f64> {
        self.hot(id).map(|h| h.remaining_at(self.last_advance))
    }

    // ---- internals ----------------------------------------------------

    /// The hot state of an active flow.
    fn hot(&self, id: FlowId) -> Option<&Hot> {
        let slot = *self.by_id.get(&id.0)?;
        let f = self.slots[slot as usize].as_ref()?;
        Some(&self.comps[f.comp as usize].hot[f.comp_pos as usize])
    }

    /// Whether the heap entry of flow `id` in `slot` at generation `gen`
    /// is the flow's live prediction. A freed slot may hold a newer flow,
    /// so the id must match as well as the generation.
    fn is_live(&self, id: u64, slot: u32, gen: u64) -> bool {
        self.slots[slot as usize]
            .as_ref()
            .is_some_and(|f| f.id == id && f.gen == gen)
    }

    fn advance_clock(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_advance, "time went backwards");
        self.last_advance = self.last_advance.max(now);
    }

    fn alloc_slot(&mut self, mut flow: Slot<C>) -> u32 {
        if let Some((slot, path_pos)) = self.free.pop() {
            flow.path_pos = path_pos;
            flow.path_pos.reserve(flow.path.len());
            self.slots[slot as usize] = Some(flow);
            slot
        } else {
            let slot = u32::try_from(self.slots.len()).expect("too many flows");
            flow.path_pos.reserve(flow.path.len());
            self.slots.push(Some(flow));
            self.scratch.slot_stamp.push(0);
            slot
        }
    }

    fn new_comp(&mut self) -> u32 {
        self.free_comps.pop().unwrap_or_else(|| {
            self.comps.push(Component::default());
            u32::try_from(self.comps.len() - 1).expect("too many components")
        })
    }

    /// Dissolve the empty component `c`, keeping its buffers for reuse.
    fn free_comp(&mut self, c: u32) {
        let comp = &mut self.comps[c as usize];
        debug_assert!(
            comp.slots.is_empty() && comp.hot.is_empty() && comp.res.is_empty() && comp.over == 0
        );
        comp.clean = None;
        self.free_comps.push(c);
    }

    fn comp_add_slot(&mut self, c: u32, s: u32, hot: Hot) {
        let comp = &mut self.comps[c as usize];
        let f = self.slots[s as usize].as_mut().expect("vacant slot");
        f.comp = c;
        f.comp_pos = u32::try_from(comp.slots.len()).expect("component fits u32");
        comp.slots.push(s);
        comp.hot.push(hot);
    }

    fn comp_add_res(&mut self, c: u32, r: u32) {
        let comp = &mut self.comps[c as usize];
        let res = &mut self.resources[r as usize];
        res.comp = c;
        res.comp_pos = u32::try_from(comp.res.len()).expect("component fits u32");
        comp.res.push(r);
        comp.over += u32::from(res.over_cap());
    }

    /// Drop resource `r` from its component (swap-remove, patching the
    /// moved resource's position).
    fn comp_remove_res(&mut self, r: u32) {
        let res = &self.resources[r as usize];
        let pos = res.comp_pos;
        let comp = &mut self.comps[res.comp as usize];
        comp.over -= u32::from(res.over_cap());
        comp.res.swap_remove(pos as usize);
        if let Some(&moved) = comp.res.get(pos as usize) {
            self.resources[moved as usize].comp_pos = pos;
        }
    }

    /// Move every flow and resource of component `from` into `into`.
    fn merge(&mut self, into: u32, from: u32) {
        let mut moved = std::mem::take(&mut self.comps[from as usize]);
        for (&s, &hot) in moved.slots.iter().zip(&moved.hot) {
            self.comp_add_slot(into, s, hot);
        }
        for &r in &moved.res {
            self.comp_add_res(into, r);
        }
        // The union is clean only where both sides are, at one instant.
        let joined = &mut self.comps[into as usize];
        if joined.clean != moved.clean {
            joined.clean = None;
        }
        moved.slots.clear();
        moved.hot.clear();
        moved.res.clear();
        moved.over = 0;
        self.comps[from as usize] = moved;
        self.free_comp(from);
    }

    /// The component a new flow on `path` joins: the largest of the
    /// components its path resources belong to, once the others are
    /// merged into it (relabelling the smaller side), or a new one when
    /// none of those resources has a flow.
    fn bridge(&mut self, path: &[ResourceId]) -> u32 {
        let mut joined: Option<u32> = None;
        for r in path {
            let res = &self.resources[r.index()];
            if res.flows.is_empty() {
                continue;
            }
            let c = res.comp;
            joined = Some(match joined {
                Some(j) if j != c => {
                    let size = |k: u32| {
                        let k = &self.comps[k as usize];
                        k.slots.len() + k.res.len()
                    };
                    let (big, small) = if size(j) >= size(c) { (j, c) } else { (c, j) };
                    self.merge(big, small);
                    big
                }
                _ => c,
            });
        }
        joined.unwrap_or_else(|| self.new_comp())
    }

    /// Set resource `ri`'s cap sum, keeping its component's count of
    /// resources that fail the all-at-cap test.
    fn set_cap_sum(&mut self, ri: usize, cap_sum: f64) {
        let res = &mut self.resources[ri];
        let was = res.over_cap();
        res.cap_sum = cap_sum;
        let over = &mut self.comps[res.comp as usize].over;
        *over += u32::from(res.over_cap());
        *over -= u32::from(was);
    }

    /// Insert `slot`, with its hot state, into component `c` and into its
    /// path resources' flow lists. Each cap is added at the end of its
    /// resource's cap fold, as it is appended at the end of the list.
    fn attach(&mut self, slot: u32, c: u32, hot: Hot) {
        self.comp_add_slot(c, slot, hot);
        let f = self.slots[slot as usize]
            .as_mut()
            .expect("attach to vacant slot");
        let cap = f.cap.map_or(f64::INFINITY, |c| c.max(f64::MIN_POSITIVE));
        let path = std::mem::take(&mut f.path);
        let mut path_pos = std::mem::take(&mut f.path_pos);
        for r in &path {
            let ri = r.index();
            if self.resources[ri].flows.is_empty() {
                self.comp_add_res(c, r.0);
            }
            let res = &mut self.resources[ri];
            path_pos.push(u32::try_from(res.flows.len()).expect("flow list fits u32"));
            res.flows.push((slot, cap));
            let sum = res.cap_sum + cap;
            self.set_cap_sum(ri, sum);
        }
        let f = self.slots[slot as usize].as_mut().expect("slot vanished");
        f.path = path;
        f.path_pos = path_pos;
    }

    /// Remove `slot` from its component's flow and hot lists and from its
    /// path resources' flow lists (swap-remove, patching the moved flow's
    /// back-pointer), and re-fold each touched list's cap sum from 0.0. A
    /// flow can cross the same resource more than once, so the moved
    /// flow's matching path entry is found by its recorded position, not
    /// just the resource id.
    fn detach(&mut self, slot: u32) {
        let mut f = self.slots[slot as usize]
            .take()
            .expect("detach of vacant slot");
        let comp = &mut self.comps[f.comp as usize];
        comp.slots.swap_remove(f.comp_pos as usize);
        comp.hot.swap_remove(f.comp_pos as usize);
        if let Some(&moved) = comp.slots.get(f.comp_pos as usize) {
            self.slots[moved as usize]
                .as_mut()
                .expect("moved slot vacant")
                .comp_pos = f.comp_pos;
        }
        for k in 0..f.path.len() {
            let r = f.path[k];
            let pos = f.path_pos[k];
            let res = &mut self.resources[r.index()];
            let moved = res.flows.last().expect("flow list empty on detach").0;
            res.flows.swap_remove(pos as usize);
            let old_tail = u32::try_from(res.flows.len()).expect("flow list fits u32");
            let sum = res.fold_caps();
            self.set_cap_sum(r.index(), sum);
            if pos >= old_tail {
                continue; // removed the tail itself; nothing moved
            }
            if moved == slot {
                // The tail was another crossing of this same flow.
                for j in 0..f.path.len() {
                    if f.path[j].index() == r.index() && f.path_pos[j] == old_tail {
                        f.path_pos[j] = pos;
                        break;
                    }
                }
            } else {
                let mf = self.slots[moved as usize]
                    .as_mut()
                    .expect("moved slot vacant");
                for (pr, pp) in mf.path.iter().zip(mf.path_pos.iter_mut()) {
                    if pr.index() == r.index() && *pp == old_tail {
                        *pp = pos;
                        break;
                    }
                }
            }
        }
        self.slots[slot as usize] = Some(f);
    }

    fn remove_flow(&mut self, now: SimTime, id: FlowId, slot: u32) -> C {
        self.advance_clock(now);
        // The flow's resources close their constant-rate interval before
        // their flow lists change.
        let f = self.slots[slot as usize]
            .as_ref()
            .expect("removing vacant slot");
        for r in &f.path {
            self.resources[r.index()].flush_stats(now);
        }
        let c = f.comp;
        self.detach(slot);
        // Whatever the removal splits apart is still one component here,
        // so all of its parts are solved jointly this event.
        self.solve_component(now, c, Change::Removed(slot));
        self.prune(c, slot);
        let Slot {
            mut path_pos,
            completion,
            ..
        } = self.slots[slot as usize].take().expect("slot vanished");
        self.by_id.remove(&id.0);
        path_pos.clear();
        self.free.push((slot, path_pos));
        self.maybe_shrink_heap();
        completion.expect("completion payload taken twice")
    }

    /// Bring component `c` up to date after the flow in `slot` left it and
    /// it was solved: drop the path resources left with no flows, dissolve
    /// `c` if it is empty, and split it if the removal disconnected it.
    /// Every part of `c` hangs off the removed flow's path, so `c` is still
    /// connected exactly when the path resources that kept flows are.
    fn prune(&mut self, c: u32, slot: u32) {
        let mut targets = std::mem::take(&mut self.scratch.targets);
        targets.clear();
        let f = self.slots[slot as usize]
            .as_ref()
            .expect("removed slot vacant");
        for r in &f.path {
            if !targets.contains(&r.0) {
                targets.push(r.0);
            }
        }
        targets.retain(|&r| {
            let emptied = self.resources[r as usize].flows.is_empty();
            if emptied {
                self.comp_remove_res(r);
            }
            !emptied
        });
        self.scratch.targets = targets;
        if self.comps[c as usize].slots.is_empty() {
            self.free_comp(c);
        } else if self.scratch.targets.len() > 1 && !self.targets_joined() {
            self.split(c);
        }
    }

    /// Whether the resources in `scratch.targets` (at least one) are still
    /// connected: a walk stopped once it reaches them all. The verdict
    /// does not depend on where the walk starts; it starts at the target
    /// with the shortest flow list, whose neighbourhood is the smallest to
    /// exhaust.
    fn targets_joined(&mut self) -> bool {
        let start = self
            .scratch
            .targets
            .iter()
            .copied()
            .min_by_key(|&r| self.resources[r as usize].flows.len())
            .expect("no target to walk from");
        let sc = &mut self.scratch;
        sc.begin_walk();
        sc.reach_res(start);
        self.walk(true)
    }

    /// Re-derive the pieces of component `c`, which a removal split apart.
    /// Each piece is walked from the first of `c`'s resources it holds; the
    /// first piece keeps the id `c`, the others take new ids. Each piece
    /// holds part of `c`'s solve, so it inherits `c`'s `clean` mark.
    fn split(&mut self, c: u32) {
        let old = std::mem::take(&mut self.comps[c as usize]);
        self.scratch.begin_walk();
        let mut piece = None;
        for &r in &old.res {
            let sc = &mut self.scratch;
            if sc.res_stamp[r as usize] == sc.stamp {
                continue;
            }
            sc.walk_res.clear();
            sc.walk_slots.clear();
            sc.reach_res(r);
            self.walk(false);
            let p = match piece {
                None => c,
                Some(_) => self.new_comp(),
            };
            piece = Some(p);
            self.comps[p as usize].clean = old.clean;
            let (res, slots) = (
                std::mem::take(&mut self.scratch.walk_res),
                std::mem::take(&mut self.scratch.walk_slots),
            );
            for &s in &slots {
                // Read before relabelling: `comp_pos` is still `s`'s
                // position in `old`.
                let pos = self.slots[s as usize].as_ref().expect("vacant").comp_pos;
                self.comp_add_slot(p, s, old.hot[pos as usize]);
            }
            for &r in &res {
                self.comp_add_res(p, r);
            }
            self.scratch.walk_res = res;
            self.scratch.walk_slots = slots;
        }
    }

    /// Breadth-first walk over the resource↔flow graph from the resources
    /// already in `scratch.walk_res`, adding every flow and resource it
    /// reaches under the current stamp. With `stop`, it returns `true` as
    /// soon as it has reached every resource in `scratch.targets` (leaving
    /// the walk unfinished), and `false` if it never does; without, it runs
    /// to the end of the component.
    fn walk(&mut self, stop: bool) -> bool {
        let sc = &mut self.scratch;
        let mut left = if stop {
            sc.targets
                .iter()
                .filter(|&&r| sc.res_stamp[r as usize] != sc.stamp)
                .count()
        } else {
            usize::MAX
        };
        let mut head = 0;
        while left > 0 && head < sc.walk_res.len() {
            let ri = sc.walk_res[head] as usize;
            head += 1;
            for &(s, _) in &self.resources[ri].flows {
                if !sc.reach_slot(s) {
                    continue;
                }
                let f = self.slots[s as usize].as_ref().expect("listed slot vacant");
                for r in &f.path {
                    if sc.reach_res(r.0) && stop && sc.targets.contains(&r.0) {
                        left -= 1;
                        if left == 0 {
                            return true;
                        }
                    }
                }
            }
        }
        left == 0
    }

    /// Solve component `c` at `now`, after the flow `change` names joined
    /// or left it; its all-at-cap verdict is its count of over-cap
    /// resources being zero. Debug builds first check the maintained
    /// component against a walk (see [`Self::check_component`]).
    fn solve_component(&mut self, now: SimTime, c: u32, change: Change) {
        if cfg!(debug_assertions) {
            self.check_component(c, change);
        }
        // All-at-cap fast path. If every flow has a cap and, on every
        // resource, the caps crossing it sum to at most capacity·(1 − 1e-9),
        // progressive filling freezes every flow at exactly its cap, in
        // whatever order: in each round the resource bound `share` is
        // cap_left/load on some resource, whose unfixed flows' caps sum to
        // at most cap_left − 1e-9·capacity, so their smallest cap (and with
        // it `min_cap`) is strictly below `share` and only flows whose cap
        // equals `min_cap` freeze, at that cap. The rounding error carried
        // in `cap_left` is about load·2⁻⁵²·capacity, far below the 1e-9
        // margin. Skipping the filling rounds then yields the same bits;
        // debug builds run the full filling and check that.
        let at_cap = self.comps[c as usize].over == 0;
        if at_cap && self.comps[c as usize].clean == Some(now) {
            self.resolve_clean(now, c, change);
            return;
        }
        let rates = if at_cap {
            Rates::Caps
        } else if let Some(share) = self.uniform_share(c) {
            #[cfg(test)]
            {
                self.saved.uniform += 1;
            }
            Rates::Uniform(share)
        } else {
            Rates::Filled
        };
        // Debug builds fill after either shortcut too, and `apply` asserts
        // that the filling gives every flow the rate the shortcut does.
        if cfg!(debug_assertions) || rates == Rates::Filled {
            self.fill(c);
        }
        self.apply(now, c, rates);
        self.comps[c as usize].clean = at_cap.then_some(now);
    }

    /// The equal-share shortcut for component `c`, which is not all at
    /// cap: the one share progressive filling gives every flow in a single
    /// round, if it does. The filling's first round takes `share` = the
    /// least `capacity / flows` over the resources (each flow list has one
    /// entry per path crossing, so its length is the resource's initial
    /// load). If no flow has a cap at or below `share`, the smallest cap is
    /// above it and the round freezes, at `share`, every flow on a resource
    /// whose `capacity / flows` is within `share + share · 1e-12`, the
    /// filling's saturation test in the same expression. If those resources
    /// reach every flow, the round freezes them all and the filling ends.
    /// A share below `f64::MIN_POSITIVE` (or none, with no resource) is left
    /// to the filling: above it, a flow's fast-path cap `cap.max(MIN_POSITIVE)`
    /// is at or below `share` exactly when its cap is.
    fn uniform_share(&mut self, c: u32) -> Option<f64> {
        let comp = &self.comps[c as usize];
        let fair = |res: &Resource| res.capacity / res.flows.len() as f64;
        let share = comp
            .res
            .iter()
            .map(|&r| &self.resources[r as usize])
            .filter(|res| !res.flows.is_empty())
            .map(fair)
            .fold(f64::INFINITY, f64::min);
        if !(f64::MIN_POSITIVE..f64::INFINITY).contains(&share)
            || comp.hot.iter().any(|h| h.cap <= share)
        {
            return None;
        }
        let bound = share + share * 1e-12;
        let sc = &mut self.scratch;
        sc.stamp += 1;
        let mut reached = 0;
        for &r in &comp.res {
            let res = &self.resources[r as usize];
            if res.flows.is_empty() || fair(res) > bound {
                continue;
            }
            for &(s, _) in &res.flows {
                if sc.slot_stamp[s as usize] != sc.stamp {
                    sc.slot_stamp[s as usize] = sc.stamp;
                    reached += 1;
                }
            }
            if reached == comp.slots.len() {
                return Some(share);
            }
        }
        None
    }

    /// Re-solve component `c`, solved on the all-at-cap path earlier at
    /// `now` and all-at-cap still, touching only what changed since. The
    /// full pass would re-rate every flow to its cap; a flow of that solve
    /// already runs at its cap with `sync == now`, so the full pass would
    /// re-derive the same bits for it: no time passed, so `remaining` stays,
    /// and the prediction has the inputs that set it. Only a started flow
    /// changes rate. A rate sum is the cap sum on every resource, and a cap
    /// sum changes only when a flow list does: on the path of the flow that
    /// started or left.
    /// Statistics need no flush, since every resource of `c` was brought
    /// forward to `now` by that solve or by the start or removal that
    /// changed its list since. Debug builds run the full pass after the
    /// shortcut and assert that it changes no bit.
    fn resolve_clean(&mut self, now: SimTime, c: u32, change: Change) {
        let comp = &mut self.comps[c as usize];
        let (Change::Started(s) | Change::Removed(s)) = change;
        let f = self.slots[s as usize]
            .as_mut()
            .expect("changed slot vacant");
        if let Change::Started(_) = change {
            let h = &mut comp.hot[f.comp_pos as usize];
            let cap = h.cap;
            if let Some(pred) = Resync::new(now).apply(h, cap) {
                f.gen += 1;
                self.heap.push(Reverse((pred, f.id, s, f.gen)));
            }
        }
        #[cfg(test)]
        {
            let started = matches!(change, Change::Started(_));
            self.saved.skipped += (comp.slots.len() - usize::from(started)) as u64;
        }
        for r in &f.path {
            let res = &mut self.resources[r.index()];
            res.rate_sum = res.cap_sum;
        }
        if cfg!(debug_assertions) {
            self.check_clean(now, c);
        }
    }

    /// Debug check of [`Self::resolve_clean`] on component `c`: the full
    /// all-at-cap pass must leave every flow's hot state, every resource's
    /// rate sum and statistics, and the heap as the shortcut left them.
    fn check_clean(&mut self, now: SimTime, c: u32) {
        let res_bits = |res: &Resource| {
            let s = res.stats;
            let sums = [res.rate_sum, s.bytes, s.busy_secs, s.util_integral];
            (sums.map(f64::to_bits), res.stat_sync)
        };
        let comp = &self.comps[c as usize];
        let hot: Vec<_> = comp.hot.iter().map(Hot::bits).collect();
        let res: Vec<_> = comp
            .res
            .iter()
            .map(|&r| res_bits(&self.resources[r as usize]))
            .collect();
        let heap_len = self.heap.len();
        // The check's own pass is not work the solver does, so it does not
        // count in the unit tests' pins.
        #[cfg(test)]
        let saved = self.saved;
        self.fill(c);
        self.apply(now, c, Rates::Caps);
        #[cfg(test)]
        {
            self.saved = saved;
        }
        let comp = &self.comps[c as usize];
        assert!(
            comp.hot.iter().map(Hot::bits).eq(hot),
            "clean re-solve left a flow the full pass moves"
        );
        assert!(
            comp.res
                .iter()
                .map(|&r| res_bits(&self.resources[r as usize]))
                .eq(res),
            "clean re-solve left a resource the full pass moves"
        );
        assert_eq!(
            self.heap.len(),
            heap_len,
            "clean re-solve missed a prediction"
        );
    }

    /// Debug check of component `c`: a walk from the resources on the path
    /// of the flow `change` names (and from that flow, if it started) must
    /// reach exactly its flows and resources. Each resource's cap sum must
    /// equal its list's fold bit for bit, the component's over-cap count
    /// must match, and every back-pointer must point at its entry.
    fn check_component(&mut self, c: u32, change: Change) {
        let (Change::Started(from) | Change::Removed(from)) = change;
        let sc = &mut self.scratch;
        sc.begin_walk();
        if let Change::Started(_) = change {
            sc.reach_slot(from);
        }
        let f = self.slots[from as usize]
            .as_ref()
            .expect("walk from vacant slot");
        for r in &f.path {
            sc.reach_res(r.0);
        }
        self.walk(false);
        // The walk lists each item once, so equal lengths and every
        // component item stamped by the walk make equal sets.
        let sc = &self.scratch;
        let comp = &self.comps[c as usize];
        assert!(
            sc.walk_slots.len() == comp.slots.len()
                && comp
                    .slots
                    .iter()
                    .all(|&s| sc.slot_stamp[s as usize] == sc.stamp),
            "component flows differ from the walk's"
        );
        assert!(
            sc.walk_res.len() == comp.res.len()
                && comp
                    .res
                    .iter()
                    .all(|&r| sc.res_stamp[r as usize] == sc.stamp),
            "component resources differ from the walk's"
        );
        let mut over = 0;
        for (pos, &r) in comp.res.iter().enumerate() {
            let res = &self.resources[r as usize];
            assert_eq!(
                res.cap_sum.to_bits(),
                res.fold_caps().to_bits(),
                "cap sum of {} differs from its list fold",
                res.name
            );
            assert_eq!((res.comp, res.comp_pos as usize), (c, pos));
            over += u32::from(res.over_cap());
        }
        assert_eq!(over, comp.over, "stale over-cap count");
        assert_eq!(comp.hot.len(), comp.slots.len(), "hot list out of step");
        for (pos, &s) in comp.slots.iter().enumerate() {
            let f = self.slots[s as usize].as_ref().expect("vacant");
            assert_eq!((f.comp, f.comp_pos as usize), (c, pos));
        }
    }

    /// Apply the solve of component `c` at `now`: the new `rates`, then
    /// heap and statistics bookkeeping. Debug builds have filled the
    /// component whatever `rates` says, and check a shortcut's rates and
    /// rate sums against the filling's.
    fn apply(&mut self, now: SimTime, c: u32, rates: Rates) {
        // Bring each flow of the component forward to `now` under its old
        // rate, apply its new rate and recompute its completion prediction
        // (exactly what the reference engine's linear scan would derive).
        // A prediction that moved gets a new heap entry, and the
        // superseded one goes stale via `gen`; one that did not move keeps
        // its entry, since live entries are ordered by `(time, id)` alone.
        let comp = &mut self.comps[c as usize];
        let new_rate = &self.scratch.new_rate;
        let mut resync = Resync::new(now);
        for (pos, h) in comp.hot.iter_mut().enumerate() {
            let rate = match rates {
                Rates::Caps => h.cap,
                Rates::Uniform(share) => share,
                Rates::Filled => new_rate[pos],
            };
            let rate = rate.max(f64::MIN_POSITIVE);
            if cfg!(debug_assertions) && rates != Rates::Filled {
                assert_eq!(
                    rate.to_bits(),
                    new_rate[pos].max(f64::MIN_POSITIVE).to_bits(),
                    "solver shortcut disagrees with progressive filling"
                );
            }
            if let Some(pred) = resync.apply(h, rate) {
                let slot = comp.slots[pos];
                let f = self.slots[slot as usize].as_mut().expect("vacant");
                f.gen += 1;
                self.heap.push(Reverse((pred, f.id, slot, f.gen)));
            }
        }
        #[cfg(test)]
        {
            self.saved.reused += resync.reused;
        }

        // Each resource closes its constant-rate interval and opens a
        // new one. Its rate sum folds its flow list's rates from 0.0. On
        // the fast path the rates are the caps, and the cap sum is that
        // fold; under one equal share every term is that share. Every flow
        // listed on a resource of `c` is a flow of `c`.
        let comp = &self.comps[c as usize];
        for &r in &comp.res {
            let res = &mut self.resources[r as usize];
            res.flush_stats(now);
            let fold_rates = || {
                res.flows
                    .iter()
                    .map(|&(s, _)| {
                        let f = self.slots[s as usize].as_ref().expect("vacant");
                        comp.hot[f.comp_pos as usize].rate
                    })
                    .fold(0.0, |sum, rate| sum + rate)
            };
            let rate_sum = match rates {
                Rates::Caps => res.cap_sum,
                Rates::Uniform(share) => res.flows.iter().fold(0.0, |sum, _| sum + share),
                Rates::Filled => fold_rates(),
            };
            if cfg!(debug_assertions) && rates != Rates::Filled {
                assert_eq!(
                    rate_sum.to_bits(),
                    fold_rates().to_bits(),
                    "solver shortcut's rate sum differs from its list fold"
                );
            }
            res.rate_sum = rate_sum;
        }
    }

    /// Progressive-filling max–min fair allocation over component `c` into
    /// `scratch.new_rate` (indexed by each flow's `comp_pos`). Flows are
    /// visited in component order: every flow one round freezes gets the
    /// same value (the round's `min_cap`, or its `share`), and which flows
    /// freeze depends only on what the round computed before freezing any.
    /// So each remaining capacity sees the same sequence of subtractions in
    /// any visiting order, and the result matches a global recompute
    /// restricted to this component bit for bit.
    fn fill(&mut self, c: u32) {
        let comp = &self.comps[c as usize];
        let sc = &mut self.scratch;
        let k = comp.slots.len();
        let nr = comp.res.len();

        sc.fixed.clear();
        sc.fixed.resize(k, false);
        sc.new_rate.clear();
        sc.new_rate.resize(k, 0.0);
        sc.cap_left.clear();
        sc.load.clear();
        sc.saturated.clear();
        sc.saturated.resize(nr, false);
        for (li, &r) in comp.res.iter().enumerate() {
            let res = &self.resources[r as usize];
            sc.res_local[r as usize] = u32::try_from(li).expect("component fits u32");
            sc.cap_left.push(res.capacity);
            // One list entry per path crossing.
            sc.load
                .push(u32::try_from(res.flows.len()).expect("flow list fits u32"));
        }
        if nr == 0 {
            // Only pathless flows have no resource (each is a component of
            // its own), and only a cap constrains them.
            for (i, &s) in comp.slots.iter().enumerate() {
                let f = self.slots[s as usize]
                    .as_ref()
                    .expect("solving vacant slot");
                debug_assert!(f.path.is_empty());
                sc.new_rate[i] = f.cap.expect("uncapped pathless flow");
                sc.fixed[i] = true;
            }
        }

        loop {
            // Bottleneck candidate from resources.
            let mut share = f64::INFINITY;
            for li in 0..nr {
                if sc.load[li] > 0 {
                    share = share.min(sc.cap_left[li].max(0.0) / f64::from(sc.load[li]));
                }
            }
            // Bottleneck candidate from per-flow caps.
            let mut min_cap = f64::INFINITY;
            for (i, &s) in comp.slots.iter().enumerate() {
                if !sc.fixed[i] {
                    if let Some(c) = self.slots[s as usize].as_ref().expect("vacant").cap {
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
                for (i, &s) in comp.slots.iter().enumerate() {
                    if sc.fixed[i] {
                        continue;
                    }
                    let f = self.slots[s as usize].as_ref().expect("vacant");
                    if f.cap.is_some_and(|c| c <= share && c <= min_cap) {
                        let rate = f.cap.unwrap();
                        sc.new_rate[i] = rate;
                        sc.fixed[i] = true;
                        progressed = true;
                        for r in &f.path {
                            let li = sc.res_local[r.index()] as usize;
                            sc.cap_left[li] -= rate;
                            sc.load[li] -= 1;
                        }
                    }
                }
            } else {
                // Freeze every unfixed flow crossing a saturated resource.
                let eps = share * 1e-12;
                for li in 0..nr {
                    sc.saturated[li] = sc.load[li] > 0
                        && sc.cap_left[li].max(0.0) / f64::from(sc.load[li]) <= share + eps;
                }
                for (i, &s) in comp.slots.iter().enumerate() {
                    if sc.fixed[i] {
                        continue;
                    }
                    let f = self.slots[s as usize].as_ref().expect("vacant");
                    if f.path
                        .iter()
                        .any(|r| sc.saturated[sc.res_local[r.index()] as usize])
                    {
                        sc.new_rate[i] = share;
                        sc.fixed[i] = true;
                        progressed = true;
                        for r in &f.path {
                            let li = sc.res_local[r.index()] as usize;
                            sc.cap_left[li] -= share;
                            sc.load[li] -= 1;
                        }
                    }
                }
            }
            debug_assert!(progressed, "progressive filling stalled");
            if !progressed {
                break;
            }
        }
    }

    /// Bound heap growth: when stale entries dominate, rebuild from the
    /// live predictions.
    fn maybe_shrink_heap(&mut self) {
        let live = self.by_id.len();
        if self.heap.len() > 64 && self.heap.len() > 4 * live + 16 {
            let mut entries = std::mem::take(&mut self.heap).into_vec();
            entries.retain(|&Reverse((_, id, slot, gen))| self.is_live(id, slot, gen));
            self.heap = entries.into();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> SimTime {
        SimTime::from_secs_f64(secs)
    }

    #[test]
    fn single_flow_gets_full_capacity() {
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let r = fe.add_resource("disk", 100.0);
        let id = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), ());
        assert_eq!(fe.flow_rate(id), Some(100.0));
        let (done, fid) = fe.next_completion().unwrap();
        assert_eq!(fid, id);
        assert!((done.as_secs_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn cap_limits_single_flow() {
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let r = fe.add_resource("disk", 100.0);
        let id = fe.start(t(0.0), FlowSpec::new(1000, vec![r]).with_cap(20.0), ());
        assert_eq!(fe.flow_rate(id), Some(20.0));
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut fe: FlowEngine<u32> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), 1);
        let b = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), 2);
        assert_eq!(fe.flow_rate(a), Some(50.0));
        assert_eq!(fe.flow_rate(b), Some(50.0));
    }

    #[test]
    fn capped_flow_releases_share_to_others() {
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let slow = fe.start(t(0.0), FlowSpec::new(1000, vec![r]).with_cap(10.0), ());
        let fast = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), ());
        assert_eq!(fe.flow_rate(slow), Some(10.0));
        assert_eq!(fe.flow_rate(fast), Some(90.0));
    }

    #[test]
    fn max_min_across_two_resources() {
        // Classic example: flow A crosses r1 (cap 100) and r2 (cap 30).
        // Flow B crosses r1 only. A is limited to 30 by r2; B gets 70.
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let r1 = fe.add_resource("r1", 100.0);
        let r2 = fe.add_resource("r2", 30.0);
        let a = fe.start(t(0.0), FlowSpec::new(1000, vec![r1, r2]), ());
        let b = fe.start(t(0.0), FlowSpec::new(1000, vec![r1]), ());
        let ra = fe.flow_rate(a).unwrap();
        let rb = fe.flow_rate(b).unwrap();
        assert!((ra - 30.0).abs() < 1e-9, "ra={ra}");
        assert!((rb - 70.0).abs() < 1e-9, "rb={rb}");
    }

    #[test]
    fn completion_frees_bandwidth() {
        let mut fe: FlowEngine<u32> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(100, vec![r]), 1);
        let _b = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), 2);
        // Both run at 50; A (100 bytes) completes at t=2.
        let (done, fid) = fe.next_completion().unwrap();
        assert_eq!(fid, a);
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
        let payload = fe.complete(done, fid);
        assert_eq!(payload, 1);
        // B progressed 100 bytes, 900 left at rate 100 → completes at t=11.
        let (done_b, _) = fe.next_completion().unwrap();
        assert!((done_b.as_secs_f64() - 11.0).abs() < 1e-5, "{done_b}");
    }

    #[test]
    fn arrival_mid_flight_slows_existing_flow() {
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), ());
        // At t=5, A has 500 bytes left; B arrives; both run at 50.
        let _b = fe.start(t(5.0), FlowSpec::new(1000, vec![r]), ());
        assert!((fe.flow_remaining(a).unwrap() - 500.0).abs() < 1e-6);
        assert_eq!(fe.flow_rate(a), Some(50.0));
        let (done, fid) = fe.next_completion().unwrap();
        assert_eq!(fid, a);
        assert!((done.as_secs_f64() - 15.0).abs() < 1e-5);
    }

    #[test]
    fn cancel_returns_payload_and_frees_capacity() {
        let mut fe: FlowEngine<&'static str> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), "a");
        let b = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), "b");
        assert_eq!(fe.cancel(t(1.0), a), Some("a"));
        assert_eq!(fe.cancel(t(1.0), a), None);
        assert_eq!(fe.flow_rate(b), Some(100.0));
    }

    #[test]
    fn zero_byte_flow_is_instant() {
        assert!(FlowSpec::new(0, vec![ResourceId(0)]).is_instant());
        assert!(FlowSpec::new(10, vec![]).is_instant());
        assert!(!FlowSpec::new(10, vec![]).with_cap(5.0).is_instant());
    }

    #[test]
    fn pathless_capped_flow_runs_at_cap() {
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let id = fe.start(t(0.0), FlowSpec::new(100, vec![]).with_cap(10.0), ());
        assert_eq!(fe.flow_rate(id), Some(10.0));
        let (done, _) = fe.next_completion().unwrap();
        assert!((done.as_secs_f64() - 10.0).abs() < 1e-6);
    }

    #[test]
    fn stats_accumulate_bytes_and_busy_time() {
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let r = fe.add_resource("disk", 100.0);
        let id = fe.start(t(0.0), FlowSpec::new(500, vec![r]), ());
        let (done, _) = fe.next_completion().unwrap();
        fe.complete(done, id);
        let s = fe.resource_stats(r);
        assert!((s.bytes - 500.0).abs() < 1e-6);
        assert!((s.busy_secs - 5.0).abs() < 1e-6);
        assert!((s.util_integral - 5.0).abs() < 1e-4);
    }

    #[test]
    fn many_flows_conserve_capacity() {
        let mut fe: FlowEngine<usize> = FlowEngine::new();
        let r = fe.add_resource("nic", 1000.0);
        let mut ids = Vec::new();
        for i in 0..50 {
            ids.push(fe.start(t(0.0), FlowSpec::new(10_000, vec![r]), i));
        }
        let total: f64 = ids.iter().map(|id| fe.flow_rate(*id).unwrap()).sum();
        assert!((total - 1000.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn deterministic_tie_breaking() {
        // Two identical flows: next_completion must consistently pick the
        // lower FlowId.
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(100, vec![r]), ());
        let _b = fe.start(t(0.0), FlowSpec::new(100, vec![r]), ());
        let (_, fid) = fe.next_completion().unwrap();
        assert_eq!(fid, a);
    }

    #[test]
    fn disjoint_components_do_not_disturb_each_other() {
        // A flow on disk A keeps its rate (and prediction) bit-for-bit
        // when traffic starts and stops on an unrelated disk B.
        let mut fe: FlowEngine<u8> = FlowEngine::new();
        let ra = fe.add_resource("a", 100.0);
        let rb = fe.add_resource("b", 100.0);
        let fa = fe.start(t(0.0), FlowSpec::new(1000, vec![ra]), 0);
        let before = fe.next_completion().unwrap();
        let fb = fe.start(t(1.0), FlowSpec::new(50, vec![rb]), 1);
        assert_eq!(fe.flow_rate(fa), Some(100.0));
        assert_eq!(fe.next_completion().unwrap(), (t(1.5), fb));
        fe.cancel(t(2.0), fb);
        // A's prediction is untouched by B's entire lifecycle.
        let (ta, ida) = fe.next_completion().unwrap();
        assert_eq!((ta, ida), before);
        assert_eq!(ida, fa);
    }

    #[test]
    fn slab_reuses_slots_without_confusing_ids() {
        let mut fe: FlowEngine<u32> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(100, vec![r]), 1);
        assert_eq!(fe.complete(t(1.0), a), 1);
        // The next flow reuses A's slot but must be a distinct id.
        let b = fe.start(t(1.0), FlowSpec::new(200, vec![r]), 2);
        assert_ne!(a, b);
        assert_eq!(fe.flow_rate(a), None);
        assert_eq!(fe.flow_rate(b), Some(100.0));
        let (done, fid) = fe.next_completion().unwrap();
        assert_eq!(fid, b);
        assert!((done.as_secs_f64() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn clean_component_resolves_only_what_changed() {
        // Two clients A and B each stripe one file over eight disks, every
        // leg capped at 8 B/s, so the one component they form is all at
        // cap. A's legs all finish at t=8; then client A starts a new
        // stripe C at that same instant. Every value is a small binary
        // fraction, so the expected bits are exact.
        let mut fe: FlowEngine<u32> = FlowEngine::new();
        let nic_a = fe.add_resource("nic-a", 128.0);
        let nic_b = fe.add_resource("nic-b", 128.0);
        let disks: Vec<ResourceId> = (0..8)
            .map(|k| fe.add_resource(format!("disk{k}"), 32.0))
            .collect();
        let stripe = |fe: &mut FlowEngine<u32>, at: f64, nic, bytes, tag: u32| -> Vec<FlowId> {
            (0..8)
                .map(|k| {
                    let spec = FlowSpec::new(bytes, vec![nic, disks[k]]).with_cap(8.0);
                    fe.start(t(at), spec, tag + k as u32)
                })
                .collect()
        };
        let a = stripe(&mut fe, 0.0, nic_a, 64, 0);
        let b = stripe(&mut fe, 0.0, nic_b, 256, 10);
        for &id in &a {
            assert_eq!(fe.next_completion(), Some((t(8.0), id)));
            fe.complete(t(8.0), id);
        }
        let c = stripe(&mut fe, 8.0, nic_a, 32, 20);

        for &id in b.iter().chain(&c) {
            assert_eq!(fe.flow_rate(id).map(f64::to_bits), Some(8.0f64.to_bits()));
        }
        for (ids, left) in [(&b, 192.0f64), (&c, 32.0)] {
            for &id in ids {
                assert_eq!(
                    fe.flow_remaining(id).map(f64::to_bits),
                    Some(left.to_bits())
                );
            }
        }
        assert_eq!(fe.next_completion(), Some((t(12.0), c[0])));
        let stats_bits = |fe: &FlowEngine<u32>, r| {
            let s = fe.resource_stats(r);
            [
                s.bytes.to_bits(),
                s.busy_secs.to_bits(),
                s.util_integral.to_bits(),
            ]
        };
        let bits = |v: [f64; 3]| v.map(f64::to_bits);
        assert_eq!(stats_bits(&fe, nic_a), bits([512.0, 8.0, 4.0]));
        assert_eq!(stats_bits(&fe, nic_b), bits([512.0, 8.0, 4.0]));
        for &d in &disks {
            assert_eq!(stats_bits(&fe, d), bits([128.0, 8.0, 4.0]));
        }
        // Each start after the first re-syncs only its own leg: A's pass
        // over 1, 2, ..., 7 flows, B's over 8, ..., 15 and C's (at t=8)
        // over 8, ..., 15 of B's and C's. The removals of A1..A7 re-solve
        // 14, 13, ..., 8 flows they do not visit. Only two solves are full
        // passes: A0's start (one flow, nothing to reuse) and A0's removal
        // at t=8, which re-syncs all 15 flows in the order B7, A1..A7,
        // B0..B6, every one synced at t=0 at rate 8 and re-rated to 8. B7
        // (256 bytes) and A1 (64) each derive; A2..A7 repeat A1's inputs
        // and reuse its result, 6; B0 derives and B1..B6 reuse, 6. The
        // full pass debug builds run after each clean re-solve does not
        // count, so the counts are the same in every build.
        assert_eq!(
            fe.saved,
            Saved {
                skipped: 28 + 92 + 77 + 92,
                reused: 6 + 6,
                uniform: 0
            }
        );

        for (ids, at) in [(&c, 12.0), (&b, 32.0)] {
            for &id in ids {
                assert_eq!(fe.next_completion(), Some((t(at), id)));
                fe.complete(t(at), id);
            }
        }
        assert_eq!(fe.next_completion(), None);
        assert_eq!(stats_bits(&fe, nic_a), bits([768.0, 12.0, 6.0]));
        assert_eq!(stats_bits(&fe, nic_b), bits([2048.0, 32.0, 16.0]));
        for &d in &disks {
            assert_eq!(stats_bits(&fe, d), bits([352.0, 32.0, 11.0]));
        }
    }

    /// The bits of `id`'s current rate.
    fn rate_bits<C>(fe: &FlowEngine<C>, id: FlowId) -> Option<u64> {
        fe.flow_rate(id).map(f64::to_bits)
    }

    #[test]
    fn equal_share_shortcut_fires_on_a_hub() {
        // NFS-shaped: three clients F0..F2 and a capped flow G each cross
        // their own NIC and the server's hub NIC, so the hub's fair share
        // is the least one and every flow lies on it. G's cap of 64 stays
        // above the share (24, then 32, then 48), so every solve sets all
        // rates to that share with no filling rounds, until G runs alone at
        // its cap (the all-at-cap path). Every value is exact.
        let mut fe: FlowEngine<u32> = FlowEngine::new();
        let hub = fe.add_resource("hub", 96.0);
        let nic: Vec<ResourceId> = (0..4)
            .map(|k| fe.add_resource(format!("nic{k}"), 96.0))
            .collect();
        let f: Vec<FlowId> = [24, 96, 144]
            .into_iter()
            .zip(0..)
            .map(|(bytes, k)| fe.start(t(0.0), FlowSpec::new(bytes, vec![nic[k], hub]), k as u32))
            .collect();
        let g = fe.start(
            t(0.0),
            FlowSpec::new(288, vec![nic[3], hub]).with_cap(64.0),
            3,
        );
        for &id in f.iter().chain([&g]) {
            assert_eq!(rate_bits(&fe, id), Some(24.0f64.to_bits()));
        }
        for (k, at, share) in [(0, 1.0, 32.0f64), (1, 3.25, 48.0)] {
            assert_eq!(fe.next_completion(), Some((t(at), f[k])));
            fe.complete(t(at), f[k]);
            for &id in f[k + 1..].iter().chain([&g]) {
                assert_eq!(rate_bits(&fe, id), Some(share.to_bits()));
            }
        }
        assert_eq!(
            fe.flow_remaining(f[2]).map(f64::to_bits),
            Some(48.0f64.to_bits())
        );
        assert_eq!(fe.next_completion(), Some((t(4.25), f[2])));
        fe.complete(t(4.25), f[2]);
        assert_eq!(rate_bits(&fe, g), Some(64.0f64.to_bits()));
        assert_eq!(fe.next_completion(), Some((t(6.5), g)));
        fe.complete(t(6.5), g);
        // The solves of the four starts at t=0 and the ones at 1 and 3.25
        // took the shortcut; the one at 4.25 was all at cap. Neighbouring
        // flows never shared their re-sync inputs (each had its own
        // remaining bytes).
        assert_eq!(
            fe.saved,
            Saved {
                skipped: 0,
                reused: 0,
                uniform: 6
            }
        );
        let s = fe.resource_stats(hub);
        assert_eq!(
            [s.bytes, s.busy_secs].map(f64::to_bits),
            [552.0, 6.5].map(f64::to_bits)
        );
    }

    #[test]
    fn equal_share_shortcut_skips_a_cap_at_or_below_the_share() {
        // Two hubs, two components. On hub A the capped flow's cap (16) is
        // below the hub's share of 112 / 4 = 28: the filling freezes it at
        // 16 and gives the others 96 / 3 = 32 each. On hub B the cap (32)
        // equals the share of 96 / 3: the filling freezes it at its cap in
        // one round and the others at the share in the next, the rates the
        // shortcut would give, but the shortcut must not fire.
        let mut fe: FlowEngine<u32> = FlowEngine::new();
        let hub_with = |fe: &mut FlowEngine<u32>, name: &str, capacity: f64, cap: f64, n: u32| {
            let hub = fe.add_resource(name, capacity);
            (0..n)
                .map(|k| {
                    let nic = fe.add_resource(format!("{name}-nic{k}"), 128.0);
                    let spec = FlowSpec::new(1000, vec![nic, hub]);
                    let spec = if k == 0 { spec.with_cap(cap) } else { spec };
                    fe.start(t(0.0), spec, k)
                })
                .collect::<Vec<FlowId>>()
        };
        let a = hub_with(&mut fe, "a", 112.0, 16.0, 4);
        let b = hub_with(&mut fe, "b", 96.0, 32.0, 3);
        let expect = |id: &FlowId| if *id == a[0] { 16.0f64 } else { 32.0 };
        for id in a.iter().chain(&b) {
            assert_eq!(rate_bits(&fe, *id), Some(expect(id).to_bits()));
        }
        assert_eq!(fe.saved.uniform, 0);
    }

    #[test]
    fn equal_share_shortcut_needs_every_flow_on_a_saturated_resource() {
        // F0 and F1 share the hub (64 / 2 = 32, the least fair share); F2
        // crosses only F1's NIC (256 / 2 = 128), so no saturated resource
        // reaches it. The filling takes two rounds: F0 and F1 freeze at 32,
        // then F2 takes what is left of the NIC, 256 − 32 = 224. The solves
        // of F0's and F1's starts, with every flow on the hub, may take the
        // shortcut; the one of F2's start must not.
        let mut fe: FlowEngine<u32> = FlowEngine::new();
        let hub = fe.add_resource("hub", 64.0);
        let nic0 = fe.add_resource("nic0", 256.0);
        let nic1 = fe.add_resource("nic1", 256.0);
        let f0 = fe.start(t(0.0), FlowSpec::new(1000, vec![nic0, hub]), 0);
        let f1 = fe.start(t(0.0), FlowSpec::new(1000, vec![nic1, hub]), 1);
        let before = fe.saved.uniform;
        let f2 = fe.start(t(0.0), FlowSpec::new(1000, vec![nic1]), 2);
        assert_eq!(fe.saved.uniform, before);
        for (id, rate) in [(f0, 32.0f64), (f1, 32.0), (f2, 224.0)] {
            assert_eq!(rate_bits(&fe, id), Some(rate.to_bits()));
        }
    }

    #[test]
    fn fill_in_component_order_matches_the_oracle() {
        // Cancelling flow 0 swap-removes it from its component, so flow 5
        // moves to the front and the component's order is no longer the id
        // order. The filling, which visits flows in component order, must
        // still give every rate and completion the reference engine's bits.
        // Capacities and caps are not binary fractions, so the rounding in
        // the remaining capacities is real.
        let mut fe: FlowEngine<u32> = FlowEngine::new();
        let mut oracle: crate::naive::NaiveFlowEngine<u32> = crate::naive::NaiveFlowEngine::new();
        let mut res = Vec::new();
        for (name, capacity) in [("hub", 1000.0 / 3.0), ("a", 70.3), ("b", 45.1)] {
            res.push(fe.add_resource(name, capacity));
            oracle.add_resource(name, capacity);
        }
        let (hub, a, b) = (res[0], res[1], res[2]);
        let specs = [
            FlowSpec::new(5000, vec![a, hub]),
            FlowSpec::new(3000, vec![hub]).with_cap(20.7),
            FlowSpec::new(4000, vec![b, hub]),
            FlowSpec::new(6000, vec![a, hub]).with_cap(33.3),
            FlowSpec::new(2500, vec![b, hub]),
            FlowSpec::new(7000, vec![hub]),
        ];
        let mut ids = Vec::new();
        for (k, spec) in (0..).zip(specs) {
            let id = fe.start(t(0.0), spec.clone(), k);
            assert_eq!(oracle.start(t(0.0), spec, k), id);
            ids.push(id);
        }
        assert_eq!(fe.cancel(t(1.0), ids[0]), oracle.cancel(t(1.0), ids[0]));
        let slot = fe.by_id[&ids[5].0];
        let comp = &fe.comps[fe.slots[slot as usize].as_ref().unwrap().comp as usize];
        let order: Vec<u64> = comp
            .slots
            .iter()
            .map(|&s| fe.slots[s as usize].as_ref().unwrap().id)
            .collect();
        assert_eq!(order, [5, 1, 2, 3, 4]);
        loop {
            for &id in &ids {
                assert_eq!(
                    rate_bits(&fe, id),
                    oracle.flow_rate(id).map(f64::to_bits),
                    "rate of {id:?}"
                );
            }
            let Some((at, id)) = oracle.next_completion() else {
                break;
            };
            assert_eq!(fe.next_completion(), Some((at, id)));
            assert_eq!(fe.complete(at, id), oracle.complete(at, id));
        }
        assert_eq!(fe.next_completion(), None);
    }

    #[test]
    fn stale_entry_in_a_reused_slot_is_discarded() {
        // A is predicted to finish at t=1, then cancelled: its heap entry
        // stays behind, stale. B reuses A's slot and reaches the same
        // generation, so only the id tells the entries apart.
        let mut fe: FlowEngine<char> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(100, vec![r]), 'a');
        assert_eq!(fe.next_completion(), Some((t(1.0), a)));
        assert_eq!(fe.cancel(t(0.5), a), Some('a'));
        let b = fe.start(t(0.5), FlowSpec::new(500, vec![r]), 'b');
        let stale = fe.heap.iter().find(|e| e.0 .1 == a.0).copied().unwrap();
        let live = fe.heap.iter().find(|e| e.0 .1 == b.0).copied().unwrap();
        assert_eq!(stale.0 .2, fe.by_id[&b.0], "B reuses A's slot");
        assert_eq!(stale.0 .3, live.0 .3, "B reaches A's generation");
        // The stale entry is at the top of the heap and must be skipped.
        assert_eq!(fe.heap.peek(), Some(&stale));
        assert_eq!(fe.next_completion(), Some((t(5.5), b)));
        assert_eq!(fe.heap.len(), 1, "stale entry discarded");
        assert_eq!(fe.complete(t(5.5), b), 'b');
        assert_eq!(fe.next_completion(), None);
    }

    #[test]
    fn heap_discards_stale_predictions() {
        let mut fe: FlowEngine<()> = FlowEngine::new();
        let r = fe.add_resource("nic", 100.0);
        let a = fe.start(t(0.0), FlowSpec::new(1000, vec![r]), ());
        // Repeated arrivals/cancellations re-rate A many times; every
        // superseded prediction must be ignored.
        for i in 0..100u64 {
            let tt = t(0.001 * i as f64);
            let b = fe.start(tt, FlowSpec::new(1_000_000, vec![r]), ());
            fe.cancel(tt, b);
        }
        assert_eq!(fe.flow_rate(a), Some(100.0));
        let (done, fid) = fe.next_completion().unwrap();
        assert_eq!(fid, a);
        assert!((done.as_secs_f64() - 10.0).abs() < 1e-4, "{done}");
    }
}
