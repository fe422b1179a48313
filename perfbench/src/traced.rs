//! The traced run: `run_workflow` rebuilt from its public parts, with the
//! storage system wrapped in [`TimedStorage`] and a [`FlowCapture`] sink
//! on the bus, each layer boundary timed from outside.

use crate::flows::{FlowCapture, FlowLog};
use crate::timed::{StorageTimes, TimedStorage};
use simcore::{ResourceId, Sim, SimTime};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};
use vcluster::Cluster;
use wfdag::Workflow;
use wfengine::driver::{makespan, start_run};
use wfengine::{RunConfig, RunError, World};
use wfobs::{ObsHandle, ObsLevel, ObsReport};
use wfstorage::{build_storage, cluster_spec_for, StorageOpStats};

/// Everything one decorated run measured.
pub struct TracedRun {
    /// Makespan in simulated seconds.
    pub makespan_secs: f64,
    /// Calendar events plus flow completions fired.
    pub events: u64,
    /// Run digest (the bus is at least at `Digest` level).
    pub digest: u64,
    /// Events the bus absorbed.
    pub obs_events: u64,
    /// Flows started and completed.
    pub flows: (u64, u64),
    /// Tasks in the workflow.
    pub tasks: u64,
    /// Task executions, counting retries and rescue re-runs.
    pub executions: u64,
    /// Wall time of `Cluster::provision`.
    pub provision: Duration,
    /// Wall time of `build_storage`.
    pub build: Duration,
    /// Wall time of `World::new`.
    pub world_new: Duration,
    /// Wall time of `Sim::run`.
    pub run: Duration,
    /// Wall time of the whole assembly, from `Sim::new` to the flushed bus.
    pub wall: Duration,
    /// The storage decorator's counters.
    pub storage: StorageTimes,
    /// The storage system's own operation counters.
    pub op_stats: StorageOpStats,
    /// Per-resource capacity recovered as `bytes / util_integral`; `None`
    /// for resources no flow used.
    pub capacities: Vec<Option<f64>>,
    /// The captured flow schedule.
    pub flow_log: FlowLog,
    /// The recorded report at `Full` level.
    pub report: Option<ObsReport>,
}

/// Run `wf` under `cfg` the way `run_workflow` does, instrumented. The
/// bus runs at `cfg.obs`, raised to `Digest` if it is `Off`, so the flow
/// schedule can be captured.
pub fn run_decorated(wf: Workflow, mut cfg: RunConfig) -> Result<TracedRun, RunError> {
    if cfg.obs == ObsLevel::Off {
        cfg.obs = ObsLevel::Digest;
    }
    let t0 = Instant::now();
    let obs = ObsHandle::new(cfg.obs, cfg.seed);
    let flow_log = Rc::new(RefCell::new(FlowLog::new()));
    obs.add_sink(Box::new(FlowCapture(Rc::clone(&flow_log))));
    let mut sim: Sim<World> = Sim::new();
    sim.set_obs(obs);

    let mut spec = cluster_spec_for(cfg.storage, cfg.workers, cfg.server_type);
    spec.initialize_disks = cfg.initialize_disks;
    let t = Instant::now();
    let cluster = Cluster::provision(&mut sim, &spec);
    let provision = t.elapsed();

    let usable = (cluster.node(cluster.workers()[0]).memory_bytes() as f64 * 0.9) as u64;
    if let Some(t) = wf.tasks().iter().find(|t| t.peak_mem > usable) {
        return Err(RunError::TaskTooLarge {
            task: t.name.clone(),
        });
    }

    let t = Instant::now();
    let storage = build_storage(cfg.storage, &mut sim, &cluster, &cfg.storage_cfgs);
    let build = t.elapsed();
    let (storage, times) = TimedStorage::wrap(storage);

    let t = Instant::now();
    let mut world = World::new(wf, cluster, storage, cfg);
    let world_new = t.elapsed();
    world.obs = sim.obs().clone();

    sim.schedule_at(SimTime::ZERO, start_run);
    let t = Instant::now();
    sim.run(&mut world);
    let run = t.elapsed();
    sim.obs().flush_sinks();
    let wall = t0.elapsed();

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
    let capacities = (0..sim.resource_count())
        .map(|i| {
            let s = sim.resource_stats(ResourceId::from_index(i));
            (s.util_integral > 0.0).then(|| s.bytes / s.util_integral)
        })
        .collect();
    let obs = sim.obs().clone();
    let storage = std::mem::take(&mut *times.borrow_mut());
    let flow_log = std::mem::take(&mut *flow_log.borrow_mut());
    Ok(TracedRun {
        makespan_secs: makespan(&world).unwrap_or(SimTime::ZERO).as_secs_f64(),
        events: sim.events_fired(),
        digest: obs.digest().expect("the bus is live"),
        obs_events: obs.event_count(),
        flows: sim.flow_counters(),
        tasks: total as u64,
        executions: total as u64 + world.retries + world.fault_counters.rescue_resubmits,
        provision,
        build,
        world_new,
        run,
        wall,
        storage,
        op_stats: world.storage.op_stats(),
        capacities,
        flow_log,
        report: if obs.level() == ObsLevel::Full {
            obs.take_report()
        } else {
            None
        },
    })
}
