//! Top-level entry point: execute one workflow under one configuration.

use crate::config::RunConfig;
use crate::driver::{makespan, start_run};
use crate::world::{usable_memory, FaultCounters, TaskRecord, World};
use serde::Serialize;
use simcore::{Sim, SimTime};
use vcluster::Cluster;
use wfcost::{BilledSegment, BillingGranularity, CostBreakdown};
use wfdag::Workflow;
use wfobs::Phase;
use wfstorage::{build_storage, StorageBilling, StorageKind, StorageOpStats};

/// Injected faults and the recovery work they caused, plus the billing
/// segments the instance churn produced ([`RunStats::cost`] bills them).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultSummary {
    /// Fault and recovery counters, as the world accumulated them.
    pub counters: FaultCounters,
    /// Billed lease intervals, one per instance incarnation. A fault-free
    /// run has exactly one full-makespan segment per node.
    pub segments: Vec<BilledSegment>,
}

/// What a run produced.
#[derive(Debug, Clone)]
pub struct RunStats {
    /// The makespan (§V): first submission to last task completion.
    pub makespan_secs: f64,
    /// Tasks executed.
    pub tasks: usize,
    /// Simulation events fired (diagnostic).
    pub events: u64,
    /// Storage operation counters.
    pub op_stats: StorageOpStats,
    /// Billing-relevant usage (S3 requests).
    pub billing: StorageBilling,
    /// Sum of wall time tasks spent in I/O phases.
    pub total_io_secs: f64,
    /// Sum of wall time tasks spent computing.
    pub total_cpu_secs: f64,
    /// Task re-executions after injected failures.
    pub retries: u64,
    /// Fault injections and recovery work (all zero without a plan).
    pub faults: FaultSummary,
    /// Per-task execution records, indexed by task id.
    pub records: Vec<TaskRecord>,
    /// Per-resource usage rows (disks, NICs, servers), for utilization
    /// reports.
    pub resources: Vec<ResourceRow>,
    /// Streaming run digest over the observability event stream
    /// (`None` when `RunConfig::obs` is `Off`). Equal configs and seeds
    /// produce equal digests — the replay-verification contract.
    pub digest: Option<u64>,
    /// The full observability report (events, metrics, resource labels)
    /// when `RunConfig::obs` is `Full`.
    pub obs: Option<wfobs::ObsReport>,
}

/// Usage of one simulated resource over the run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ResourceRow {
    /// Resource name (e.g. `w0.disk.fw`, `srv.nic.out`, `nfs.ops`).
    pub name: String,
    /// Total bytes (or operation units) that crossed it.
    pub bytes: f64,
    /// Seconds during which at least one flow used it.
    pub busy_secs: f64,
    /// Mean utilization over the makespan, 0..=1.
    pub mean_utilization: f64,
}

impl RunStats {
    /// The run's bill under `granularity` ([`wfcost::bill`]): every
    /// billing segment, plus the S3 requests and peak S3 bytes held for
    /// the makespan.
    pub fn cost(&self, granularity: BillingGranularity) -> CostBreakdown {
        let b = &self.billing;
        wfcost::bill(
            &self.faults.segments,
            b.s3_puts,
            b.s3_gets,
            b.s3_peak_bytes,
            self.makespan_secs,
            granularity,
        )
    }

    /// Fraction of occupied-slot time spent on I/O (and WMS overhead)
    /// rather than compute — the paper calls Montage >95% I/O by this
    /// style of measure.
    pub fn io_fraction(&self) -> f64 {
        let total = self.total_io_secs + self.total_cpu_secs;
        if total <= 0.0 {
            0.0
        } else {
            self.total_io_secs / total
        }
    }
}

/// Errors a run can surface.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The storage kind cannot be deployed on this many workers
    /// ([`StorageKind::admits`]); nothing was provisioned.
    Undeployable {
        /// The storage kind asked for.
        storage: StorageKind,
        /// The worker count asked for.
        workers: u32,
    },
    /// A task needs more memory than any worker has — it can never be
    /// scheduled.
    TaskTooLarge {
        /// Name of the offending task.
        task: String,
    },
    /// The simulation drained with unfinished tasks (a scheduling
    /// deadlock; indicates a bug or an infeasible configuration).
    Deadlock {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// A task kept failing past its retry budget (failure injection).
    RetriesExhausted {
        /// Name of the failing task.
        task: String,
    },
    /// The workflow finished at [`SimTime::MAX`]: the simulated clock
    /// saturated (files or compute too large to time in `u64`
    /// nanoseconds), so the makespan is a clamp, not an answer.
    ClockSaturated,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Undeployable { storage, workers } => write!(
                f,
                "storage {} cannot run on {workers} worker(s)",
                storage.label()
            ),
            RunError::TaskTooLarge { task } => {
                write!(f, "task {task} needs more memory than any worker provides")
            }
            RunError::Deadlock { completed, total } => {
                write!(f, "run stalled at {completed}/{total} tasks")
            }
            RunError::RetriesExhausted { task } => {
                write!(f, "task {task} exhausted its retry budget")
            }
            RunError::ClockSaturated => write!(
                f,
                "the simulated clock saturated at its maximum ({} s): the workflow is too large to time",
                SimTime::MAX.as_secs_f64()
            ),
        }
    }
}

impl std::error::Error for RunError {}

/// Execute `workflow` under `cfg` and return the statistics.
///
/// Deterministic: the same workflow, config and seed produce identical
/// results.
pub fn run_workflow(workflow: Workflow, cfg: RunConfig) -> Result<RunStats, RunError> {
    let obs = wfobs::ObsHandle::new(cfg.obs, cfg.seed);
    run_workflow_with_obs(workflow, cfg, obs)
}

/// Like [`run_workflow`], but over a caller-built observability handle —
/// the entry point for live consumption: attach
/// [`ObsSink`](wfobs::ObsSink)s (TUI viewer, frame capturers) and tune
/// the tick throttle before the run starts. Sinks are flushed exactly
/// once, after the simulation drains and before statistics are
/// extracted. Attaching sinks never changes the digest or the stats.
pub fn run_workflow_with_obs(
    workflow: Workflow,
    cfg: RunConfig,
    obs: wfobs::ObsHandle,
) -> Result<RunStats, RunError> {
    if !cfg.storage.admits(cfg.workers) {
        return Err(RunError::Undeployable {
            storage: cfg.storage,
            workers: cfg.workers,
        });
    }
    let mut sim: Sim<World> = Sim::new();
    sim.set_obs(obs);
    let cluster = Cluster::provision(&mut sim, &cfg.cluster_spec());

    // Feasibility: every task must fit in some worker's usable memory.
    let usable = usable_memory(cluster.node(cluster.workers()[0]));
    if let Some(t) = workflow.tasks().iter().find(|t| t.peak_mem > usable) {
        return Err(RunError::TaskTooLarge {
            task: t.name.clone(),
        });
    }

    let storage = build_storage(cfg.storage, &mut sim, &cluster, &cfg.storage_cfgs);
    let mut world = World::new(workflow, cluster, storage, cfg);
    world.obs = sim.obs().clone();

    sim.schedule_at(SimTime::ZERO, start_run);
    sim.run(&mut world);
    debug_assert!(world.ops.is_empty(), "a plan's slot outlived the run");
    // Final metric tick + sink flush — before the error checks, so a
    // live viewer restores the terminal even when the run fails.
    sim.obs().flush_sinks();

    let total = world.wf.task_count();
    if let Some(t) = world.aborted {
        return Err(RunError::RetriesExhausted {
            task: world.wf.task(t).name.clone(),
        });
    }
    if world.done != total {
        return Err(RunError::Deadlock {
            completed: world.done,
            total,
        });
    }
    // A zero-task workflow never sets `finished_at` (nothing completes);
    // it finishes the moment it starts.
    let finished = makespan(&world).unwrap_or(SimTime::ZERO);
    // The clock never runs backwards, so once any step of the workflow
    // saturated it, the last completion sits at the limit too. Fault
    // draws that land there after the finish do not count.
    if finished == SimTime::MAX {
        return Err(RunError::ClockSaturated);
    }
    let makespan_secs = finished.as_secs_f64();

    let mut total_io_secs = 0.0;
    let mut total_cpu_secs = 0.0;
    let records = std::mem::take(&mut world.records);
    for r in &records {
        total_io_secs += r.io_secs();
        total_cpu_secs += r.secs(Some(Phase::Compute));
    }

    let resources = (0..sim.resource_count())
        .map(|i| {
            let id = simcore::ResourceId::from_index(i);
            let s = sim.resource_stats(id);
            ResourceRow {
                name: sim.resource_name(id).to_string(),
                bytes: s.bytes,
                busy_secs: s.busy_secs,
                mean_utilization: if makespan_secs > 0.0 {
                    (s.util_integral / makespan_secs).min(1.0)
                } else {
                    0.0
                },
            }
        })
        .collect();

    // Billing segments: close every still-open lease at the moment the
    // workflow finished (events after the last completion — late fault
    // draws, drained timers — must not inflate the bill).
    let mut segments = Vec::new();
    for (i, node) in world.cluster.nodes().iter().enumerate() {
        for seg in &world.node_segments[i] {
            let close = seg.close.unwrap_or(finished);
            segments.push(BilledSegment {
                node: i as u32,
                itype: node.itype,
                secs: close.since(seg.open).as_secs_f64(),
                spot: seg.spot,
            });
        }
    }
    let faults = FaultSummary {
        counters: world.fault_counters,
        segments,
    };

    let obs_handle = sim.obs().clone();
    let digest = obs_handle.digest();
    let obs = match obs_handle.level() {
        wfobs::ObsLevel::Full => obs_handle.take_report(),
        _ => None,
    };

    Ok(RunStats {
        makespan_secs,
        tasks: total,
        events: sim.events_fired(),
        op_stats: world.storage.op_stats(),
        billing: world.storage.billing(),
        total_io_secs,
        total_cpu_secs,
        retries: world.retries,
        faults,
        records,
        resources,
        digest,
        obs,
    })
}
