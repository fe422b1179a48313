//! Conformance property tests for the OTLP export pipeline: for random
//! DAGs, storage kinds, cluster sizes, seeds and fault plans, the
//! exported `ExportTraceServiceRequest` must
//!
//! 1. decode with the in-repo OTLP reader and pass the well-formedness
//!    check (single root, parents resolve, child intervals nest inside
//!    parents, unique non-zero span ids, one trace id),
//! 2. re-export byte-identically (the determinism contract), with trace
//!    and span ids derived from the run digest stream — so a different
//!    seed moves every id,
//! 3. agree with the metrics document: same resource attributes, and
//!    every counter in the registry round-trips through OTLP JSON.

use otlpcheck as decode;
use proptest::prelude::*;
use wfengine::{run_workflow, FaultPlan, NodeCrashSpec, RunConfig, RunStats};
use wfobs::ObsLevel;
use wfstorage::StorageKind;

/// Generation parameters of one task (same scheme as `prop_obs`).
#[derive(Debug, Clone, Copy)]
struct GenTask {
    cpu_ds: u16,
    out_mb: u8,
    parent_mask: u32,
}

fn gen_task() -> impl Strategy<Value = GenTask> {
    (1u16..50, 1u8..20, 0u32..=u32::MAX).prop_map(|(cpu_ds, out_mb, parent_mask)| GenTask {
        cpu_ds,
        out_mb,
        parent_mask,
    })
}

fn build_workflow(tasks: &[GenTask]) -> wfdag::Workflow {
    let mut b = wfdag::WorkflowBuilder::new("prop-otlp");
    let root_in = b.file("in.dat", 2_000_000);
    let mut outs = Vec::new();
    for (i, t) in tasks.iter().enumerate() {
        let out = b.file(format!("f{i}.dat"), u64::from(t.out_mb) * 1_000_000);
        let parents: Vec<_> = (0..i)
            .filter(|j| t.parent_mask >> (j % 32) & 1 == 1)
            .map(|j| outs[j])
            .collect();
        let inputs = if parents.is_empty() {
            vec![root_in]
        } else {
            parents
        };
        b.task(
            format!("t{i}"),
            "w",
            f64::from(t.cpu_ds) / 10.0,
            128 << 20,
            inputs,
            vec![out],
        );
        outs.push(out);
    }
    b.build().expect("generated DAG is acyclic by construction")
}

const KINDS: [StorageKind; 5] = [
    StorageKind::Nfs,
    StorageKind::S3,
    StorageKind::GlusterNufa,
    StorageKind::GlusterDistribute,
    StorageKind::Pvfs,
];

fn run(
    tasks: &[GenTask],
    kind_ix: usize,
    workers: u32,
    seed: u64,
    plan: Option<FaultPlan>,
) -> RunStats {
    let mut cfg = RunConfig::cell(KINDS[kind_ix % KINDS.len()], workers)
        .with_seed(seed)
        .with_obs(ObsLevel::Full);
    cfg.faults = plan;
    run_workflow(build_workflow(tasks), cfg).expect("run succeeds")
}

/// Export a finished run both ways and return the rendered documents.
fn export(stats: &RunStats, tasks: &[GenTask], kind_ix: usize, workers: u32) -> (String, String) {
    let report = stats.obs.as_ref().expect("Full level records a report");
    let labels = wfengine::otlp_labels(
        stats,
        &build_workflow(tasks),
        KINDS[kind_ix % KINDS.len()].label(),
        workers,
    );
    (
        wfobs::otlp_trace(report, &labels),
        wfobs::otlp_metrics(report, &labels),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Fault-free runs: well-formed span tree, byte-deterministic
    /// re-export, metrics round-trip, seed moves the trace id.
    #[test]
    fn exported_traces_are_well_formed_and_deterministic(
        tasks in proptest::collection::vec(gen_task(), 1..12),
        kind_ix in 0usize..KINDS.len(),
        workers in 2u32..5,
        seed in 0u64..u64::MAX,
    ) {
        let stats = run(&tasks, kind_ix, workers, seed, None);
        let (trace_json, metrics_json) = export(&stats, &tasks, kind_ix, workers);
        let trace = decode::trace(&trace_json).expect("trace decodes");
        decode::check_well_formed(&trace).expect("well-formed span tree");

        // Every successful task contributes exactly one `ok` attempt span.
        let ok_spans = trace
            .spans
            .iter()
            .filter(|s| {
                s.attr("wf.task.outcome").and_then(|v| v.as_str()) == Some("ok")
            })
            .count();
        prop_assert_eq!(ok_spans, tasks.len(), "one ok span per task");

        // Byte-determinism: a second run + export reproduces both files.
        let again = run(&tasks, kind_ix, workers, seed, None);
        let (trace2, metrics2) = export(&again, &tasks, kind_ix, workers);
        prop_assert_eq!(&trace_json, &trace2, "trace export not byte-stable");
        prop_assert_eq!(&metrics_json, &metrics2, "metrics export not byte-stable");

        // Ids derive from the digest stream: a different seed moves them.
        let other = run(&tasks, kind_ix, workers, seed + 1, None);
        let (other_trace, _) = export(&other, &tasks, kind_ix, workers);
        let other = decode::trace(&other_trace).expect("trace decodes");
        prop_assert!(
            trace.spans[0].trace_id != other.spans[0].trace_id,
            "seed change must move the trace id"
        );

        // The metrics document shares the resource block and round-trips
        // the full counter registry.
        let metrics = decode::metrics(&metrics_json).expect("metrics decode");
        prop_assert_eq!(&metrics.resource, &trace.resource);
        let report = stats.obs.as_ref().unwrap();
        for (name, v) in report.metrics.counters() {
            let exported = metrics.metrics.iter().find_map(|m| match m {
                decode::Metric::Sum(n, val) if n == &format!("wf.{name}") => Some(*val),
                _ => None,
            });
            prop_assert_eq!(exported, Some(v as i64), "counter {} lost", name);
        }
    }

    /// Runs with injected node crashes (reprovision on) still export a
    /// single-rooted, well-formed, byte-stable trace; the fault shows up
    /// as root span events and extra node-incarnation spans.
    #[test]
    fn faulted_runs_export_well_formed_traces(
        tasks in proptest::collection::vec(gen_task(), 2..10),
        kind_ix in 0usize..KINDS.len(),
        workers in 2u32..5,
        seed in 0u64..u64::MAX,
        victim in 0u32..4,
        frac in 0.1f64..0.9,
    ) {
        // Schedule the crash mid-run, relative to the clean makespan.
        let clean = run(&tasks, kind_ix, workers, seed, None);
        let mut plan = FaultPlan::zero();
        plan.node_crash = Some(NodeCrashSpec {
            rate_per_hour: 0.0,
            scheduled: vec![(victim % workers, clean.makespan_secs * frac)],
            reprovision: true,
        });
        plan.max_fault_retries = 16;
        let stats = run(&tasks, kind_ix, workers, seed, Some(plan.clone()));
        let (trace_json, _) = export(&stats, &tasks, kind_ix, workers);
        let trace = decode::trace(&trace_json).expect("trace decodes");
        decode::check_well_formed(&trace).expect("well-formed under faults");

        if stats.faults.counters.node_crashes > 0 {
            let root = trace
                .spans
                .iter()
                .find(|s| s.parent_span_id.is_empty())
                .expect("single root exists");
            prop_assert!(
                root.events.iter().any(|e| e.name == "fault"),
                "crash must surface as a root span event"
            );
            // If the replacement booted before the run ended (the run can
            // finish on the surviving nodes during the boot delay), its
            // incarnation span links back to the terminated one.
            if root.events.iter().any(|e| e.name == "node_recovered") {
                prop_assert!(
                    trace.spans.iter().any(|s| s
                        .links
                        .iter()
                        .any(|l| l.attrs.iter().any(|(k, v)| {
                            k == "wf.link"
                                && v.as_str() == Some("previous_incarnation")
                        }))),
                    "reprovisioned node must link its previous incarnation"
                );
            }
        }

        let again = run(&tasks, kind_ix, workers, seed, Some(plan));
        let (trace2, _) = export(&again, &tasks, kind_ix, workers);
        prop_assert_eq!(trace_json, trace2, "faulted export not byte-stable");
    }
}
