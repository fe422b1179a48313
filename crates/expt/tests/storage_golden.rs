//! Golden pins of the simulated answer on every storage kind: the tiny
//! Montage, Broadband and Epigenome workflows, on every valid storage
//! kind at 2 and 4 workers (the local disk, valid only on one node, at
//! 1), seed 42. For each cell the fixture holds
//!
//! - the makespan bits and `events_fired` of a run at `ObsLevel::Off`
//!   (the level at which no observer reads flow rates mid-run);
//! - the run digest at `ObsLevel::Digest`;
//! - the bits of every resource's `util_integral`, read from the
//!   simulator after an `Off` run.
//!
//! Any change to event ordering, flow rates, completion instants or
//! resource accounting moves a line. Regenerate after an intentional
//! change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test storage_golden
//! ```
//!
//! The same cells also check that each backend's operation counters
//! agree with the observability bus's counters at `ObsLevel::Full`.

mod common;

use common::check_golden;
use simcore::{ResourceId, Sim, SimTime};
use std::fmt::Write as _;
use vcluster::Cluster;
use wfengine::driver::{makespan, start_run};
use wfengine::{run_workflow, RunConfig, World};
use wfgen::App;
use wfobs::ObsLevel;
use wfstorage::{build_storage, StorageKind};

/// `run_workflow` rebuilt from its public parts, so the simulator's
/// per-resource statistics can be read after the run. Returns the
/// makespan bits, the events fired and `(name, util_integral)` per
/// resource.
fn run_with_stats(app: App, cfg: RunConfig) -> (u64, u64, Vec<(String, f64)>) {
    let mut sim: Sim<World> = Sim::new();
    let cluster = Cluster::provision(&mut sim, &cfg.cluster_spec());
    let storage = build_storage(cfg.storage, &mut sim, &cluster, &cfg.storage_cfgs);
    let mut world = World::new(app.tiny_workflow(), cluster, storage, cfg);
    world.obs = sim.obs().clone();
    sim.schedule_at(SimTime::ZERO, start_run);
    sim.run(&mut world);
    assert_eq!(world.done, world.wf.task_count(), "every task finished");
    let util = (0..sim.resource_count())
        .map(|i| {
            let id = ResourceId::from_index(i);
            (
                sim.resource_name(id).to_string(),
                sim.resource_stats(id).util_integral,
            )
        })
        .collect();
    let span = makespan(&world).unwrap_or(SimTime::ZERO).as_secs_f64();
    (span.to_bits(), sim.events_fired(), util)
}

/// The pinned cells, in fixture order: every valid kind at 2 and 4
/// workers, and the local disk at its only size, 1.
fn cells() -> Vec<(App, StorageKind, u32)> {
    let mut cells = Vec::new();
    for app in App::ALL {
        for kind in StorageKind::ALL {
            let sizes: &[u32] = if kind == StorageKind::Local {
                &[1]
            } else {
                &[2, 4]
            };
            for &workers in sizes {
                if kind.admits(workers) {
                    cells.push((app, kind, workers));
                }
            }
        }
    }
    cells
}

fn render() -> String {
    let mut out = String::new();
    for (app, kind, workers) in cells() {
        let cfg = || RunConfig::cell(kind, workers).with_seed(42);
        let off = run_workflow(app.tiny_workflow(), cfg()).expect("off run");
        let digest = run_workflow(app.tiny_workflow(), cfg().with_obs(ObsLevel::Digest))
            .expect("digest run")
            .digest
            .expect("digest present at ObsLevel::Digest");
        let (span_bits, events, util) = run_with_stats(app, cfg());
        assert_eq!(
            (span_bits, events),
            (off.makespan_secs.to_bits(), off.events),
            "the rebuilt run must be run_workflow's run"
        );
        writeln!(
            out,
            "{} {} {workers}: makespan {span_bits:016x} events {events} digest {digest:016x}",
            app.label(),
            kind.label(),
        )
        .unwrap();
        for (name, u) in util {
            writeln!(out, "  {name} {:016x}", u.to_bits()).unwrap();
        }
    }
    out
}

/// The backend's own counters (`op_stats`) and the bus's counters see
/// the same reads, writes, cache hits and cache misses.
#[test]
fn op_stats_match_the_bus_counters() {
    for (app, kind, workers) in cells() {
        let cfg = RunConfig::cell(kind, workers)
            .with_seed(42)
            .with_obs(ObsLevel::Full);
        let stats = run_workflow(app.tiny_workflow(), cfg).expect("full run");
        let metrics = &stats
            .obs
            .as_ref()
            .expect("report at ObsLevel::Full")
            .metrics;
        let ops = stats.op_stats;
        let bus = [
            "storage_reads",
            "storage_writes",
            "cache_hits",
            "cache_misses",
        ]
        .map(|name| metrics.counter(name));
        assert_eq!(
            [ops.reads, ops.writes, ops.cache_hits, ops.cache_misses],
            bus,
            "{} {} {workers}: op_stats vs bus (reads, writes, hits, misses)",
            app.label(),
            kind.label()
        );
    }
}

#[test]
fn every_storage_kind_matches_golden() {
    check_golden("fixtures/storage_golden.txt", &render());
}
