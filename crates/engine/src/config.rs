//! Run configuration: one cell of the paper's experiment grid.

use simcore::SimDuration;
use vcluster::{ClusterSpec, InstanceType};
use wfstorage::{cluster_spec_with, StorageConfigs, StorageKind};

/// How the matchmaker picks a node for a ready job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerPolicy {
    /// The paper's Condor setup: no data locality, no parent-child
    /// affinity (§IV.A) — eligible nodes are tried in a rotating order.
    LocalityBlind,
    /// The "more data-aware scheduler" the paper suggests could improve
    /// cache hits (§IV.A) — prefer the eligible node holding the most
    /// input bytes. Ablation A3.
    DataAware,
}

/// Transient-failure injection: each task execution fails with
/// probability `prob`; DAGMan re-queues it up to `max_retries` times
/// (Pegasus/DAGMan's standard retry behaviour).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FailureModel {
    /// Per-execution failure probability in `[0, 1)`.
    pub prob: f64,
    /// Maximum retries before the workflow aborts.
    pub max_retries: u32,
}

/// DAGMan-style exponential retry backoff: attempt `k`'s re-queue is
/// delayed by `base × factor^(k−1)`, capped at `max`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryBackoff {
    /// Delay before the first retry.
    pub base: SimDuration,
    /// Multiplier applied per further attempt.
    pub factor: f64,
    /// Upper bound on the delay.
    pub max: SimDuration,
}

impl Default for RetryBackoff {
    fn default() -> Self {
        RetryBackoff {
            base: SimDuration::from_secs(5),
            factor: 2.0,
            max: SimDuration::from_secs(300),
        }
    }
}

impl RetryBackoff {
    /// The delay before re-queuing a task that has failed `attempts`
    /// times (`attempts ≥ 1`).
    pub fn delay(&self, attempts: u32) -> SimDuration {
        let scale = self.factor.powi(attempts.saturating_sub(1).min(30) as i32);
        let secs = (self.base.as_secs_f64() * scale).min(self.max.as_secs_f64());
        SimDuration::from_secs_f64(secs)
    }
}

/// Node-crash injection: worker instances die mid-run, killing their
/// in-flight tasks and cancelling their flows.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCrashSpec {
    /// Per-node Poisson crash rate (crashes per node-hour), sampled from
    /// the per-node `engine.faults.node.<i>` stream. `0.0` samples
    /// nothing.
    pub rate_per_hour: f64,
    /// Explicit, deterministic crashes: `(worker index, at seconds)` —
    /// the unit-test and experiment-scenario interface.
    pub scheduled: Vec<(u32, f64)>,
    /// Re-provision a replacement instance after a boot delay (70–90 s,
    /// §V). Without it the node stays gone, which can deadlock the run.
    pub reprovision: bool,
}

/// Storage-server/peer failure injection, surfaced to the storage system
/// through `StorageSystem::on_node_failed`.
#[derive(Debug, Clone, PartialEq)]
pub struct StorageFailureSpec {
    /// Poisson failure rate (failures per hour) of the storage service,
    /// sampled from the `engine.faults.storage` stream.
    pub rate_per_hour: f64,
    /// Explicit failure instants in seconds (deterministic scenarios).
    pub scheduled: Vec<f64>,
    /// Service recovery time: how long an NFS-style stall lasts. Peer
    /// (brick) failures restart empty after the same delay but do not
    /// stall the run.
    pub recovery_secs: f64,
}

/// Spot-market revocation: workers run as spot instances and may be
/// terminated by price movements; terminated capacity is always replaced
/// by an on-demand instance after a boot delay (billed separately — the
/// wasted-partial-hour cost shows up in the per-segment billing).
#[derive(Debug, Clone, PartialEq)]
pub struct SpotSpec {
    /// Per-node Poisson termination rate (terminations per node-hour),
    /// sampled from the per-node `engine.faults.spot.<i>` stream.
    pub rate_per_hour: f64,
}

/// The complete multi-layer fault plan. Every stochastic choice draws
/// from dedicated named RNG streams, so (a) equal seeds give bit-identical
/// fault timelines and (b) a plan whose rates are all zero consumes no
/// randomness — such a run is bit-identical to one with no plan at all.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Transient per-execution task failures (the original
    /// [`FailureModel`], drawn from `engine.faults.task`).
    pub task_failures: Option<FailureModel>,
    /// Worker-instance crashes.
    pub node_crash: Option<NodeCrashSpec>,
    /// Storage-server/peer failures.
    pub storage_failure: Option<StorageFailureSpec>,
    /// Spot-market terminations.
    pub spot: Option<SpotSpec>,
    /// Retry backoff applied to every failure class.
    pub backoff: RetryBackoff,
    /// Retry budget for fault-killed executions (crashes, storage
    /// failures, terminations). Transient task failures keep their own
    /// [`FailureModel::max_retries`] budget.
    pub max_fault_retries: u32,
}

impl FaultPlan {
    /// A plan with every fault class disabled. Present-but-zero plans are
    /// bit-identical to no plan (the metamorphic property the test suite
    /// enforces).
    pub fn zero() -> Self {
        FaultPlan {
            task_failures: Some(FailureModel {
                prob: 0.0,
                max_retries: 0,
            }),
            node_crash: Some(NodeCrashSpec {
                rate_per_hour: 0.0,
                scheduled: Vec::new(),
                reprovision: true,
            }),
            storage_failure: Some(StorageFailureSpec {
                rate_per_hour: 0.0,
                scheduled: Vec::new(),
                recovery_secs: 0.0,
            }),
            spot: Some(SpotSpec { rate_per_hour: 0.0 }),
            backoff: RetryBackoff::default(),
            max_fault_retries: 0,
        }
    }

    /// A plan with only transient task failures, whose retry budget
    /// also bounds fault-killed executions.
    pub fn from_failure_model(fm: FailureModel) -> Self {
        FaultPlan {
            task_failures: Some(fm),
            max_fault_retries: fm.max_retries,
            ..FaultPlan::default()
        }
    }
}

/// Configuration of one workflow execution.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Experiment seed; equal seeds give bit-identical runs.
    pub seed: u64,
    /// The data-sharing option under test.
    pub storage: StorageKind,
    /// Number of worker nodes (the paper sweeps 1, 2, 4, 8).
    pub workers: u32,
    /// Override the dedicated-server instance type (NFS: default
    /// `m1.xlarge`; §V.C also tries `m2.4xlarge`).
    pub server_type: Option<InstanceType>,
    /// Zero-fill ephemeral disks first (ablation A1).
    pub initialize_disks: bool,
    /// Matchmaking policy.
    pub scheduler: SchedulerPolicy,
    /// Per-job workflow-management overhead (DAGMan release + Condor
    /// matchmaking/dispatch), paid while holding the slot.
    pub job_overhead: SimDuration,
    /// Storage-system tunables (defaults are paper-calibrated).
    pub storage_cfgs: StorageConfigs,
    /// Fault plan: transient task failures with DAGMan-style retries,
    /// node crashes, storage failover and spot termination.
    pub faults: Option<FaultPlan>,
    /// Observability level: `Off` (default, zero-overhead), `Digest`
    /// (streaming run digest only) or `Full` (events + metrics +
    /// exporters).
    pub obs: wfobs::ObsLevel,
}

impl RunConfig {
    /// A cell of the paper's main grid: `storage` × `workers`, everything
    /// else as in §III–IV.
    pub fn cell(storage: StorageKind, workers: u32) -> Self {
        RunConfig {
            seed: 42,
            storage,
            workers,
            server_type: None,
            initialize_disks: false,
            scheduler: SchedulerPolicy::LocalityBlind,
            job_overhead: SimDuration::from_nanos(250_000_000), // 0.25 s
            storage_cfgs: StorageConfigs::default(),
            faults: None,
            obs: wfobs::ObsLevel::Off,
        }
    }

    /// Builder-style seed override.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style observability level override.
    pub fn with_obs(mut self, obs: wfobs::ObsLevel) -> Self {
        self.obs = obs;
        self
    }

    /// The cluster this configuration provisions: the workers, any
    /// dedicated storage server, and zero-filled disks under ablation A1.
    pub fn cluster_spec(&self) -> ClusterSpec {
        let mut spec = cluster_spec_with(
            self.storage,
            self.workers,
            self.server_type,
            &self.storage_cfgs,
        );
        spec.initialize_disks = self.initialize_disks;
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_defaults_match_paper_setup() {
        let c = RunConfig::cell(StorageKind::Nfs, 4);
        assert_eq!(c.workers, 4);
        assert_eq!(c.scheduler, SchedulerPolicy::LocalityBlind);
        assert!(!c.initialize_disks);
        assert!(c.server_type.is_none());
    }
}
