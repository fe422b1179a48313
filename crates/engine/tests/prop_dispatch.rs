//! Property test for the matchmaker's backfill window.
//!
//! `driver::try_dispatch` examines at most the first `BACKFILL_WINDOW`
//! ready jobs in place and stops once no worker has a free slot. The
//! model below is the original cycle: drain the whole queue into a fresh
//! one, examining the first 64 jobs and re-queueing every job it did not
//! dispatch. Both must dispatch the same jobs to the same workers in the
//! same order, and leave the same queue, cursor and free capacity behind,
//! under both scheduler policies.

use proptest::prelude::*;
use simcore::Sim;
use std::collections::VecDeque;
use vcluster::Cluster;
use wfdag::{FileClass, TaskId, WorkflowBuilder};
use wfengine::driver::try_dispatch;
use wfengine::{RunConfig, SchedulerPolicy, World};
use wfobs::{Event, ObsHandle, ObsLevel};
use wfstorage::{build_storage, cluster_spec_for, StorageKind};

/// The window of the original cycle.
const BACKFILL_WINDOW: usize = 64;

/// The original drain-and-requeue cycle, with dispatch reduced to what
/// the next `pick_node` can see: the reservation and the worker picked.
fn model_dispatch(world: &mut World) -> Vec<(TaskId, usize)> {
    let mut examined = 0;
    let mut dispatched = Vec::new();
    let mut kept = VecDeque::new();
    while let Some(task) = world.ready.pop_front() {
        if examined >= BACKFILL_WINDOW {
            kept.push_back(task);
            continue;
        }
        examined += 1;
        match world.pick_node(task) {
            Some(i) => {
                world.reserve(i, task);
                dispatched.push((task, i));
            }
            None => kept.push_back(task),
        }
    }
    world.ready = kept;
    dispatched
}

/// One generated matchmaking state.
#[derive(Debug, Clone)]
struct Case {
    workers: u32,
    data_aware: bool,
    /// Per task: peak memory class and which input file it reads.
    tasks: Vec<(u8, u8)>,
    /// Ready queue, as indices into `tasks`. It starts with a run of
    /// jobs of the largest memory class, which fit only on a worker with
    /// all its memory free.
    ready: Vec<u16>,
    /// Per worker: free slots and free memory in eighths of the usable
    /// memory.
    free: Vec<(u32, u8)>,
    rr_cursor: usize,
}

/// Build the world of `case` on GlusterFS-NUFA (which reports input
/// locality, so the data-aware policy has something to rank).
fn build(case: &Case) -> (Sim<World>, World) {
    let mut cfg = RunConfig::cell(StorageKind::GlusterNufa, case.workers);
    if case.data_aware {
        cfg.scheduler = SchedulerPolicy::DataAware;
    }
    let mut sim: Sim<World> = Sim::new();
    let spec = cluster_spec_for(cfg.storage, cfg.workers, cfg.server_type);
    let cluster = Cluster::provision(&mut sim, &spec);
    let usable = (cluster.node(cluster.workers()[0]).memory_bytes() as f64 * 0.9) as u64;

    let mut b = WorkflowBuilder::new("dispatch");
    let inputs: Vec<_> = (0..6u64)
        .map(|j| b.file(format!("in{j}"), (j + 1) * 1_000_000))
        .collect();
    for (i, &(mem, input)) in case.tasks.iter().enumerate() {
        let out = b.file(format!("out{i}"), 1000);
        // Memory classes: small, a quarter, half and most of a worker.
        let peak = [128 << 20, usable / 4, usable / 2, usable * 7 / 8][mem as usize];
        b.task(
            format!("t{i}"),
            "w",
            1.0,
            peak,
            vec![inputs[input as usize]],
            vec![out],
        );
    }
    let wf = b.build().expect("independent tasks");
    let storage = build_storage(cfg.storage, &mut sim, &cluster, &cfg.storage_cfgs);
    let mut world = World::new(wf, cluster, storage, cfg);
    let staged: Vec<_> = world
        .wf
        .files()
        .iter()
        .enumerate()
        .filter(|(_, f)| f.class == FileClass::Input)
        .map(|(i, f)| (wfdag::FileId(i as u32), f.size))
        .collect();
    world.storage.prestage(&world.cluster, &staged);

    for (w, &(slots, eighths)) in world.workers.iter_mut().zip(&case.free) {
        w.free_slots = slots;
        w.free_mem = usable / 8 * u64::from(eighths);
    }
    world.rr_cursor = case.rr_cursor;
    world.ready = case.ready.iter().map(|&i| TaskId(u32::from(i))).collect();
    (sim, world)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_dispatch_matches_drain_and_requeue(
        workers in 2u32..=4,
        data_aware in 0u8..2,
        tasks in proptest::collection::vec((0u8..4, 0u8..6), 100..250),
        heavy_head in 0usize..100,
        keys in proptest::collection::vec(0u32..1_000_000, 250),
        len in 0usize..250,
        free in proptest::collection::vec((0u32..=3, 0u8..=8), 4),
        rr_cursor in 0usize..4,
    ) {
        // The first `heavy_head` tasks are heavy and queue first; the
        // queue is otherwise in random order.
        let mut tasks = tasks;
        for t in tasks.iter_mut().take(heavy_head) {
            t.0 = 3;
        }
        let mut ready: Vec<u16> = (0..tasks.len() as u16).collect();
        ready.sort_by_key(|&i| (usize::from(i) >= heavy_head, keys[usize::from(i)]));
        ready.truncate(len);
        let case = Case {
            workers,
            data_aware: data_aware == 1,
            ready,
            tasks,
            free,
            rr_cursor: rr_cursor % workers as usize,
        };
        let (mut sim, mut world) = build(&case);
        world.obs = ObsHandle::new(ObsLevel::Full, 0);
        try_dispatch(&mut sim, &mut world);
        let report = world.obs.take_report().expect("bus attached");
        let workers = world.cluster.workers().to_vec();
        let got: Vec<(TaskId, usize)> = report
            .events
            .iter()
            .filter_map(|(_, ev)| match *ev {
                Event::TaskStart { task, node, .. } => Some((
                    TaskId(task),
                    workers.iter().position(|w| w.0 == node).expect("a worker"),
                )),
                _ => None,
            })
            .collect();

        let (_, mut model) = build(&case);
        let want = model_dispatch(&mut model);

        prop_assert_eq!(&got, &want, "dispatch sequence");
        prop_assert_eq!(&world.ready, &model.ready, "queue order afterwards");
        prop_assert_eq!(world.rr_cursor, model.rr_cursor, "rr_cursor");
        for (a, b) in world.workers.iter().zip(&model.workers) {
            prop_assert_eq!((a.free_slots, a.free_mem), (b.free_slots, b.free_mem));
        }
    }
}
