//! The simulation world: cluster + storage + workflow-management state.

use crate::config::{RunConfig, SchedulerPolicy};
use crate::exec::Ops;
use simcore::{DetRng, FlowId, SimTime};
use std::collections::{HashMap, HashSet, VecDeque};
use vcluster::{Cluster, NodeId};
use wfdag::{FileClass, FileId, TaskId, Workflow};
use wfobs::{Event, ObsHandle, Phase};
use wfstorage::op::{Note, Stage};
use wfstorage::{FileRef, StorageSystem};

/// `World::lane` of a task that is not running.
const NO_LANE: u32 = u32::MAX;

/// Scheduling state of one worker node.
#[derive(Debug, Clone)]
pub struct NodeSched {
    /// Free Condor slots (one per core).
    pub free_slots: u32,
    /// Free memory in bytes.
    pub free_mem: u64,
}

/// One billed lease interval of a cluster node. Crashes and spot
/// terminations close the segment (wasting the started hour under
/// per-hour billing); re-provisioning opens a new one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSegment {
    /// When the instance came up.
    pub open: SimTime,
    /// When it went away (`None` while still running).
    pub close: Option<SimTime>,
    /// Whether this incarnation was a spot instance.
    pub spot: bool,
}

/// Counters of injected faults and recovery work, accumulated over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultCounters {
    /// Worker instances that crashed.
    pub node_crashes: u64,
    /// Spot instances revoked by the market.
    pub spot_terminations: u64,
    /// Storage service failures injected.
    pub storage_failures: u64,
    /// Executions killed mid-flight by a fault (excludes transient
    /// task failures, which abort cleanly at compute end).
    pub tasks_killed: u64,
    /// Completed tasks resubmitted by the rescue-DAG pass because an
    /// output of theirs was lost.
    pub rescue_resubmits: u64,
    /// Files reported lost by storage failover.
    pub files_lost: u64,
    /// Slot-seconds of partially-executed work thrown away by kills.
    pub wasted_task_secs: f64,
}

/// Timing record of one executed task, of its last execution: a retry or
/// a rescue re-run starts a fresh record, and earlier executions only
/// contribute to `attempts`.
///
/// The slot interval `start_at..end_at` is cut into dispatch overhead
/// (`start_at` to the first phase start) and the six [`Phase`]s, each
/// running from its own start to the next one's (the last to `end_at`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskRecord {
    /// The task this record belongs to. Carrying the id in the record
    /// lets consumers (`jobstate_log`, bus exporters) key by task rather
    /// than assume positional alignment with `Workflow::tasks()`.
    pub task: TaskId,
    /// Node the task ran on.
    pub node: NodeId,
    /// When all dependencies were satisfied.
    pub ready_at: SimTime,
    /// When the slot was acquired.
    pub start_at: SimTime,
    /// When each phase began, indexed by `Phase as usize`.
    pub phase_start: [SimTime; 6],
    /// When the task released its slot.
    pub end_at: SimTime,
    /// Number of executions (1 = no retries).
    pub attempts: u32,
}

impl TaskRecord {
    /// A record with every instant at `at` and no node.
    pub(crate) fn new(task: TaskId, at: SimTime, attempts: u32) -> Self {
        TaskRecord {
            task,
            node: NodeId(u32::MAX),
            ready_at: at,
            start_at: at,
            phase_start: [at; 6],
            end_at: at,
            attempts,
        }
    }

    /// When `phase` began.
    pub fn start_of(&self, phase: Phase) -> SimTime {
        self.phase_start[phase as usize]
    }

    /// Wall time spent in `phase`; `None` is the dispatch overhead before
    /// the first phase.
    pub fn secs(&self, phase: Option<Phase>) -> f64 {
        let (from, to) = match phase {
            None => (self.start_at, self.phase_start[0]),
            Some(p) => {
                let i = p as usize;
                let to = self.phase_start.get(i + 1).copied();
                (self.phase_start[i], to.unwrap_or(self.end_at))
            }
        };
        to.since(from).as_secs_f64()
    }

    /// Wall time spent in I/O phases (stage-in, reads, writes, stage-out,
    /// plus workflow-management overhead before the compute phase),
    /// summed in nanoseconds before the one conversion to seconds.
    pub fn io_secs(&self) -> f64 {
        (self.start_of(Phase::Compute).since(self.start_at)
            + self.end_at.since(self.start_of(Phase::Write)))
        .as_secs_f64()
    }
}

/// The world threaded through every simulation event.
pub struct World {
    /// The provisioned virtual cluster.
    pub cluster: Cluster,
    /// The data-sharing option under test.
    pub storage: Box<dyn StorageSystem>,
    /// The workflow being executed.
    pub wf: Workflow,
    /// The run configuration.
    pub cfg: RunConfig,

    /// Remaining unfinished parents per task.
    pub pending_parents: Vec<u32>,
    /// Ready-but-unscheduled tasks (FIFO with a bounded backfill window).
    pub ready: VecDeque<TaskId>,
    /// Per-worker scheduling state (indexed like `cluster.workers()`).
    pub node_sched: Vec<NodeSched>,
    /// Per-task execution records, indexed by task id (each reset when
    /// its task becomes ready).
    pub records: Vec<TaskRecord>,
    /// Completed task count.
    pub done: usize,
    /// Task re-executions after injected failures.
    pub retries: u64,
    /// Set when a task exhausted its retries; the run aborts.
    pub aborted: Option<TaskId>,
    /// Time the last task completed.
    pub finished_at: Option<SimTime>,

    /// Serialised background I/O (e.g. NFS write-back flushes — one
    /// writeback stream, like the kernel's flusher thread).
    pub bg_queue: VecDeque<(Stage, Option<Note>)>,
    /// Whether a background stage is in flight.
    pub bg_active: bool,
    /// Plans in flight: each one's stages, current stage and leg
    /// countdown.
    pub(crate) ops: Ops,

    /// Rotating cursor for locality-blind node selection.
    pub rr_cursor: usize,

    /// Per-task execution epoch. A fault kill bumps it, so continuations
    /// of the dead execution (which captured the old epoch) no-op.
    pub epoch: Vec<u32>,
    /// Tasks currently holding a slot on each worker.
    pub running: Vec<Vec<TaskId>>,
    /// Flows of each running execution's current guarded stage, one
    /// list per lane, cancelled when the execution is killed. Some may
    /// have landed already: flow ids are never reused, so cancelling one
    /// is a no-op. A stage clears its execution's list when it starts.
    inflight: Vec<Vec<FlowId>>,
    /// Lane in `inflight` of each task's running execution (indexed by
    /// task; `NO_LANE` while it is not running). Lanes are recycled, so
    /// there are only as many lists as executions ever ran at once.
    lane: Vec<u32>,
    free_lanes: Vec<u32>,
    /// Whether each worker is up.
    pub node_up: Vec<bool>,
    /// Per-worker incarnation counter; crash and recovery events carry
    /// the incarnation they were scheduled against and skip if stale.
    pub node_incarnation: Vec<u32>,
    /// Whether each worker's current incarnation is a spot instance.
    pub node_spot: Vec<bool>,
    /// Per-task completion flags (the rescue-DAG pass clears one when it
    /// resubmits a finished task whose outputs were lost).
    pub completed: Vec<bool>,
    /// Tasks resubmitted by the rescue pass and not yet re-finished.
    pub rescued: HashSet<TaskId>,
    /// Tasks deferred until a rescued producer re-finishes.
    pub rescue_waiters: HashMap<TaskId, Vec<TaskId>>,
    /// Files whose `plan_write` was issued. A retry of an execution
    /// killed mid-write skips these (re-writing would violate the
    /// storage write-once discipline); storage failover removes lost
    /// files so rescue re-runs regenerate exactly what vanished.
    pub written: HashSet<FileId>,
    /// Files already covered by a `plan_stage_out` call, so a retried
    /// execution does not stage out (and bill) the same output twice.
    pub staged_out: HashSet<FileId>,
    /// Set once any storage failover reported lost files; gates the
    /// rescue checks so fault-free runs skip them entirely.
    pub any_files_lost: bool,
    /// While `Some(t)` and `now < t`, dispatch is suspended (NFS-style
    /// whole-run stall on server failure).
    pub stall_until: Option<SimTime>,
    /// Fault/recovery counters for the run report.
    pub fault_counters: FaultCounters,
    /// Billing segments per cluster node (indexed by `NodeId::index`).
    pub node_segments: Vec<Vec<NodeSegment>>,
    /// Fault stream: transient task-failure coin flips.
    pub fault_rng_task: DetRng,
    /// Fault stream: storage failure timing and victim choice.
    pub fault_rng_storage: DetRng,
    /// Per-worker fault streams: crash timing and boot delays. Per-node
    /// streams keep draws independent of event interleaving.
    pub fault_rng_node: Vec<DetRng>,
    /// Per-worker fault streams: spot termination timing.
    pub fault_rng_spot: Vec<DetRng>,
    /// Observability bus handle (shared with the sim; disabled by
    /// default). Cloning is one `Rc` bump.
    pub obs: ObsHandle,
}

impl World {
    /// Assemble a world over a provisioned cluster and storage system.
    pub fn new(
        wf: Workflow,
        cluster: Cluster,
        storage: Box<dyn StorageSystem>,
        cfg: RunConfig,
    ) -> Self {
        let n = wf.task_count();
        let pending_parents = (0..n).map(|i| wf.parent_count(TaskId(i as u32))).collect();
        let node_sched = cluster
            .workers()
            .iter()
            .map(|&id| {
                let node = cluster.node(id);
                NodeSched {
                    free_slots: node.slots(),
                    // Reserve a slice of RAM for OS + page cache.
                    free_mem: (node.memory_bytes() as f64 * 0.9) as u64,
                }
            })
            .collect();
        let workers = cluster.workers().len();
        // A zero-rate spot spec is inert: workers stay on-demand, so a
        // FaultPlan::zero() run bills identically to a plan-free run.
        let spot_active = cfg
            .faults
            .as_ref()
            .and_then(|p| p.spot.as_ref())
            .is_some_and(|s| s.rate_per_hour > 0.0);
        let worker_set: HashSet<NodeId> = cluster.workers().iter().copied().collect();
        let node_segments = cluster
            .nodes()
            .iter()
            .enumerate()
            .map(|(i, _)| {
                vec![NodeSegment {
                    open: SimTime::ZERO,
                    close: None,
                    spot: spot_active && worker_set.contains(&NodeId(i as u32)),
                }]
            })
            .collect();
        let fault_rng_node = (0..workers)
            .map(|i| DetRng::stream(cfg.seed, &format!("engine.faults.node.{i}")))
            .collect();
        let fault_rng_spot = (0..workers)
            .map(|i| DetRng::stream(cfg.seed, &format!("engine.faults.spot.{i}")))
            .collect();
        World {
            cluster,
            storage,
            wf,
            pending_parents,
            ready: VecDeque::new(),
            node_sched,
            records: (0..n)
                .map(|i| TaskRecord::new(TaskId(i as u32), SimTime::ZERO, 0))
                .collect(),
            done: 0,
            retries: 0,
            aborted: None,
            finished_at: None,
            bg_queue: VecDeque::new(),
            bg_active: false,
            ops: Ops::default(),
            rr_cursor: 0,
            epoch: vec![0; n],
            running: vec![Vec::new(); workers],
            inflight: Vec::new(),
            lane: vec![NO_LANE; n],
            free_lanes: Vec::new(),
            node_up: vec![true; workers],
            node_incarnation: vec![0; workers],
            node_spot: vec![spot_active; workers],
            completed: vec![false; n],
            rescued: HashSet::new(),
            rescue_waiters: HashMap::new(),
            written: HashSet::new(),
            staged_out: HashSet::new(),
            any_files_lost: false,
            stall_until: None,
            fault_counters: FaultCounters::default(),
            node_segments,
            fault_rng_task: DetRng::stream(cfg.seed, "engine.faults.task"),
            fault_rng_storage: DetRng::stream(cfg.seed, "engine.faults.storage"),
            fault_rng_node,
            fault_rng_spot,
            obs: ObsHandle::disabled(),
            cfg,
        }
    }

    /// Is `epoch` still the live execution of `task`?
    pub fn live(&self, task: TaskId, epoch: u32) -> bool {
        self.epoch[task.index()] == epoch
    }

    /// Has the run reached a terminal state (all tasks done, or aborted)?
    /// Fault event handlers check this first so post-run events are pure
    /// no-ops and the simulation drains.
    pub fn run_over(&self) -> bool {
        self.done == self.wf.task_count() || self.aborted.is_some()
    }

    /// Give `task`'s new execution an empty in-flight flow list.
    pub fn open_inflight(&mut self, task: TaskId) {
        debug_assert_eq!(self.lane[task.index()], NO_LANE, "execution already open");
        let lane = self.free_lanes.pop().unwrap_or_else(|| {
            self.inflight.push(Vec::new());
            u32::try_from(self.inflight.len() - 1).expect("lane fits u32")
        });
        self.inflight[lane as usize].clear();
        self.lane[task.index()] = lane;
    }

    /// The in-flight flow list of `task`'s running execution.
    pub fn inflight(&self, task: TaskId) -> &[FlowId] {
        &self.inflight[self.lane[task.index()] as usize]
    }

    /// The in-flight flow list of `task`'s running execution, to update.
    pub fn inflight_mut(&mut self, task: TaskId) -> &mut Vec<FlowId> {
        &mut self.inflight[self.lane[task.index()] as usize]
    }

    /// Release `task`'s in-flight flow list: its execution ended.
    pub fn close_inflight(&mut self, task: TaskId) {
        let lane = std::mem::replace(&mut self.lane[task.index()], NO_LANE);
        debug_assert_ne!(lane, NO_LANE, "execution not open");
        self.free_lanes.push(lane);
    }

    /// Close the open billing segment of cluster node `node_ix`.
    pub fn close_segment(&mut self, node_ix: usize, at: SimTime) {
        if let Some(seg) = self.node_segments[node_ix].last_mut() {
            if seg.close.is_none() {
                seg.close = Some(at);
                self.obs.emit(Event::SegmentClose {
                    node: node_ix as u32,
                });
            }
        }
    }

    /// Open a fresh billing segment on cluster node `node_ix`.
    pub fn open_segment(&mut self, node_ix: usize, at: SimTime, spot: bool) {
        self.node_segments[node_ix].push(NodeSegment {
            open: at,
            close: None,
            spot,
        });
        self.obs.emit(Event::SegmentOpen {
            node: node_ix as u32,
            spot,
        });
    }

    /// Input `FileRef`s of a task.
    pub fn task_inputs(&self, t: TaskId) -> Vec<FileRef> {
        self.wf
            .task(t)
            .inputs
            .iter()
            .map(|&f| (f, self.wf.file(f).size))
            .collect()
    }

    /// The `idx`-th input of a task, or `None` past its last input.
    pub fn task_input(&self, t: TaskId, idx: usize) -> Option<FileRef> {
        let f = *self.wf.task(t).inputs.get(idx)?;
        Some((f, self.wf.file(f).size))
    }

    /// The `idx`-th output of a task, or `None` past its last output.
    pub fn task_output(&self, t: TaskId, idx: usize) -> Option<FileRef> {
        let f = *self.wf.task(t).outputs.get(idx)?;
        Some((f, self.wf.file(f).size))
    }

    /// Workflow input files (pre-staged before the run, §III.C).
    pub fn workflow_inputs(&self) -> Vec<FileRef> {
        self.wf
            .files()
            .iter()
            .enumerate()
            .filter(|(_, f)| f.class == FileClass::Input)
            .map(|(i, f)| (wfdag::FileId(i as u32), f.size))
            .collect()
    }

    /// Whether any worker has a free slot. When none has, `pick_node`
    /// answers `None` for every task and changes nothing.
    pub fn any_free_slot(&self) -> bool {
        self.node_sched.iter().any(|s| s.free_slots > 0)
    }

    /// Pick a worker for `task` under the configured policy, or `None` if
    /// nothing fits right now.
    pub fn pick_node(&mut self, task: TaskId) -> Option<usize> {
        let need_mem = self.wf.task(task).peak_mem;
        let n = self.node_sched.len();
        let fits = |s: &NodeSched| s.free_slots > 0 && s.free_mem >= need_mem;
        match self.cfg.scheduler {
            SchedulerPolicy::LocalityBlind => {
                // Rotating first-fit: spreads load without looking at data.
                for off in 0..n {
                    let i = (self.rr_cursor + off) % n;
                    if fits(&self.node_sched[i]) {
                        self.rr_cursor = (i + 1) % n;
                        return Some(i);
                    }
                }
                None
            }
            SchedulerPolicy::DataAware => {
                let inputs = self.task_inputs(task);
                let mut best: Option<(u64, usize)> = None;
                for i in 0..n {
                    if !fits(&self.node_sched[i]) {
                        continue;
                    }
                    let node_id = self.cluster.workers()[i];
                    let local = self.storage.local_bytes(&self.cluster, node_id, &inputs);
                    // Ties broken by index for determinism.
                    if best.is_none_or(|(b, _)| local > b) {
                        best = Some((local, i));
                    }
                }
                best.map(|(_, i)| i)
            }
        }
    }

    /// Reserve a slot + memory on worker index `i` for `task`.
    pub fn reserve(&mut self, i: usize, task: TaskId) {
        let need = self.wf.task(task).peak_mem;
        let s = &mut self.node_sched[i];
        debug_assert!(s.free_slots > 0 && s.free_mem >= need);
        s.free_slots -= 1;
        s.free_mem -= need;
    }

    /// Release the slot + memory held by `task` on worker index `i`.
    pub fn release(&mut self, i: usize, task: TaskId) {
        let need = self.wf.task(task).peak_mem;
        let s = &mut self.node_sched[i];
        s.free_slots += 1;
        s.free_mem += need;
    }
}
