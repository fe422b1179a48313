//! A [`StorageSystem`] decorator that times and counts every planning
//! call, and remembers the per-flow cap of every leg it sees so the flow
//! replay can rebuild each flow's [`FlowSpec`](simcore::FlowSpec).

use simcore::ResourceId;
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;
use std::time::{Duration, Instant};
use vcluster::{Cluster, NodeId};
use wfdag::FileId;
use wfstorage::{
    Constraints, FailoverResponse, FileRef, Note, OpPlan, StorageBilling, StorageOpStats,
    StorageSystem,
};

/// The planning entry points the decorator times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// `plan_task_ops`.
    TaskOps,
    /// `plan_stage_in`.
    StageIn,
    /// `plan_read`.
    Read,
    /// `plan_write`.
    Write,
    /// `plan_stage_out`.
    StageOut,
}

/// Calls made to one planning entry point and the wall time they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct CallTime {
    /// Calls.
    pub calls: u64,
    /// Wall time inside the wrapped system.
    pub time: Duration,
}

/// A flow's identity as the simulator reports it: bytes and resource path.
pub type LegKey = (u64, Vec<ResourceId>);

/// Per-flow caps of planned legs, in planning order per [`LegKey`].
pub type Caps = HashMap<LegKey, VecDeque<Option<f64>>>;

/// What the decorator saw over one run.
#[derive(Debug, Default)]
pub struct StorageTimes {
    /// Per planning entry point, indexed by `PlanKind as usize`.
    pub plans: [CallTime; 5],
    /// Legs in every returned plan (foreground and background).
    pub legs: u64,
    /// Per-flow caps of the non-instant legs.
    pub caps: Caps,
}

impl StorageTimes {
    /// Total planning calls.
    pub fn calls(&self) -> u64 {
        self.plans.iter().map(|c| c.calls).sum()
    }

    /// Total wall time spent planning.
    pub fn plan_time(&self) -> Duration {
        self.plans.iter().map(|c| c.time).sum()
    }

    /// One entry point's record.
    pub fn get(&self, kind: PlanKind) -> CallTime {
        self.plans[kind as usize]
    }

    fn record(&mut self, kind: PlanKind, time: Duration, plan: &OpPlan) {
        let c = &mut self.plans[kind as usize];
        c.calls += 1;
        c.time += time;
        let stages = plan
            .stages
            .iter()
            .chain(plan.background.iter().map(|(s, _)| s));
        for leg in stages.flat_map(|s| &s.legs) {
            self.legs += 1;
            let spec = leg.to_spec();
            if !spec.is_instant() {
                self.caps
                    .entry((spec.bytes, spec.path))
                    .or_default()
                    .push_back(spec.rate_cap);
            }
        }
    }
}

/// The decorator. Build it with [`TimedStorage::wrap`].
pub struct TimedStorage {
    inner: Box<dyn StorageSystem>,
    times: Rc<RefCell<StorageTimes>>,
}

impl TimedStorage {
    /// Wrap `inner`; the returned handle reads the counters after the run
    /// (the engine owns the boxed system).
    pub fn wrap(
        inner: Box<dyn StorageSystem>,
    ) -> (Box<dyn StorageSystem>, Rc<RefCell<StorageTimes>>) {
        let times = Rc::new(RefCell::new(StorageTimes::default()));
        let sys = TimedStorage {
            inner,
            times: Rc::clone(&times),
        };
        (Box::new(sys), times)
    }

    fn timed(
        &mut self,
        kind: PlanKind,
        plan: impl FnOnce(&mut dyn StorageSystem) -> OpPlan,
    ) -> OpPlan {
        let start = Instant::now();
        let p = plan(self.inner.as_mut());
        let elapsed = start.elapsed();
        self.times.borrow_mut().record(kind, elapsed, &p);
        p
    }
}

impl StorageSystem for TimedStorage {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn attach_obs(&mut self, obs: wfobs::ObsHandle) {
        self.inner.attach_obs(obs);
    }

    fn constraints(&self) -> Constraints {
        self.inner.constraints()
    }

    fn prestage(&mut self, cluster: &Cluster, files: &[FileRef]) {
        self.inner.prestage(cluster, files);
    }

    fn plan_task_ops(&mut self, cluster: &Cluster, node: NodeId, io_ops: u32) -> OpPlan {
        self.timed(PlanKind::TaskOps, |s| {
            s.plan_task_ops(cluster, node, io_ops)
        })
    }

    fn plan_stage_in(&mut self, cluster: &Cluster, node: NodeId, inputs: &[FileRef]) -> OpPlan {
        self.timed(PlanKind::StageIn, |s| {
            s.plan_stage_in(cluster, node, inputs)
        })
    }

    fn plan_read(&mut self, cluster: &Cluster, node: NodeId, file: FileRef) -> OpPlan {
        self.timed(PlanKind::Read, |s| s.plan_read(cluster, node, file))
    }

    fn plan_write(&mut self, cluster: &Cluster, node: NodeId, file: FileRef) -> OpPlan {
        self.timed(PlanKind::Write, |s| s.plan_write(cluster, node, file))
    }

    fn plan_stage_out(&mut self, cluster: &Cluster, node: NodeId, outputs: &[FileRef]) -> OpPlan {
        self.timed(PlanKind::StageOut, |s| {
            s.plan_stage_out(cluster, node, outputs)
        })
    }

    fn on_background_done(&mut self, note: Note) {
        self.inner.on_background_done(note);
    }

    fn on_node_failed(&mut self, cluster: &Cluster, node: NodeId) -> FailoverResponse {
        self.inner.on_node_failed(cluster, node)
    }

    fn missing_files(&self, files: &[FileRef]) -> Vec<FileId> {
        self.inner.missing_files(files)
    }

    fn local_bytes(&self, cluster: &Cluster, node: NodeId, files: &[FileRef]) -> u64 {
        self.inner.local_bytes(cluster, node, files)
    }

    fn op_stats(&self) -> StorageOpStats {
        self.inner.op_stats()
    }

    fn billing(&self) -> StorageBilling {
        self.inner.billing()
    }
}
