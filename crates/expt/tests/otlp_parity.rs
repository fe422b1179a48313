//! The OTLP export must be a faithful third witness of the run: the
//! phase breakdown and the resource bill reconstructed purely from the
//! decoded `ExportTraceServiceRequest` have to agree with the bus
//! accounting (`phase_breakdown_from_bus`) and the engine's billed
//! segments (`wfcost::segments_cents`) to 1e-6 — on every
//! paper application and storage kind, and under node-crash and
//! spot-market churn where the billing is segment-per-incarnation.

use otlpcheck as decode;
use wfcost::{segments_cents, BilledSegment, BillingGranularity};
use wfengine::{
    phase_breakdown_from_bus, run_workflow, FaultPlan, NodeCrashSpec, PhaseBreakdown, RunConfig,
    RunStats, SpotSpec,
};
use wfgen::App;
use wfobs::{ObsLevel, Phase};
use wfstorage::StorageKind;

const KINDS: [StorageKind; 5] = [
    StorageKind::Nfs,
    StorageKind::S3,
    StorageKind::GlusterNufa,
    StorageKind::GlusterDistribute,
    StorageKind::Pvfs,
];

fn export_trace(stats: &RunStats, wf: &wfdag::Workflow, kind: StorageKind, workers: u32) -> String {
    let report = stats.obs.as_ref().expect("Full level records a report");
    let labels = wfengine::otlp_labels(stats, wf, kind.label(), workers);
    wfobs::otlp_trace(report, &labels)
}

/// Rebuild the phase breakdown from a decoded OTLP trace: sum the phase
/// spans of task attempts that finished `ok` (matching
/// `phase_breakdown_from_bus`, which drops killed/failed attempts).
fn phase_breakdown_from_otlp(trace: &decode::Trace) -> PhaseBreakdown {
    let ok_tasks: std::collections::HashSet<&str> = trace
        .spans
        .iter()
        .filter(|s| {
            s.attr("wf.task.outcome")
                .and_then(|v| v.as_str())
                .is_some_and(|o| o == "ok")
        })
        .map(|s| s.span_id.as_str())
        .collect();
    let mut p = PhaseBreakdown::default();
    for s in &trace.spans {
        let Some(label) = s.attr("wf.phase").and_then(|v| v.as_str()) else {
            continue;
        };
        if !ok_tasks.contains(s.parent_span_id.as_str()) {
            continue;
        }
        if let Some(slot) =
            PhaseBreakdown::slots().find(|ph| ph.map_or("overhead", Phase::label) == label)
        {
            p[slot] += (s.end - s.start) as f64 / 1e9;
        }
    }
    p
}

/// Rebuild the billed lease intervals from a decoded OTLP trace: every
/// node-incarnation span carries `wf.billing.*` attributes, and the
/// instance type parses back through `InstanceType::from_api_name`.
/// Feeding the result to `wfcost::segments_cents` reproduces the run's
/// resource bill.
fn segments_from_otlp(trace: &decode::Trace) -> Vec<BilledSegment> {
    let mut out = Vec::new();
    for s in &trace.spans {
        let Some(itype) = s
            .attr("wf.billing.itype")
            .and_then(|v| v.as_str())
            .and_then(vcluster::InstanceType::from_api_name)
        else {
            continue;
        };
        out.push(BilledSegment {
            node: s.attr("wf.node.id").and_then(|v| v.as_i64()).unwrap_or(0) as u32,
            itype,
            secs: s
                .attr("wf.billing.secs")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0),
            spot: s
                .attr("wf.billing.spot")
                .and_then(|v| v.as_bool())
                .unwrap_or(false),
        });
    }
    out
}

fn assert_phase_parity(ctx: &str, stats: &RunStats, trace: &decode::Trace) {
    let report = stats.obs.as_ref().expect("Full level records a report");
    let bus = phase_breakdown_from_bus(report);
    let otlp = phase_breakdown_from_otlp(trace);
    for (slot, (a, b)) in PhaseBreakdown::slots().zip(bus.secs.into_iter().zip(otlp.secs)) {
        assert!((a - b).abs() <= 1e-6, "{ctx} {slot:?}: bus {a} vs otlp {b}");
    }
    assert!(
        (bus.total() - otlp.total()).abs() <= 1e-6,
        "{ctx} totals: {} vs {}",
        bus.total(),
        otlp.total()
    );
}

fn assert_cost_parity(ctx: &str, stats: &RunStats, trace: &decode::Trace) {
    let from_otlp = segments_from_otlp(trace);
    assert_eq!(
        from_otlp.len(),
        stats.faults.segments.len(),
        "{ctx}: one billing record per incarnation span"
    );
    for g in BillingGranularity::BOTH {
        let engine = segments_cents(&stats.faults.segments, g);
        let otlp = segments_cents(&from_otlp, g);
        assert!(
            (engine - otlp).abs() <= 1e-6,
            "{ctx} {g:?}: engine {engine} vs otlp {otlp} cents"
        );
    }
}

/// Fault-free runs across every paper app × storage kind: phase totals
/// and the bill survive the OTLP round trip.
#[test]
fn otlp_phase_and_cost_parity_on_all_apps() {
    for app in [App::Montage, App::Epigenome, App::Broadband] {
        for kind in KINDS {
            let wf = app.tiny_workflow();
            let cfg = RunConfig::cell(kind, 2)
                .with_seed(42)
                .with_obs(ObsLevel::Full);
            let stats =
                run_workflow(wf.clone(), cfg).unwrap_or_else(|e| panic!("{app:?}/{kind:?}: {e}"));
            let json = export_trace(&stats, &wf, kind, 2);
            let trace = decode::trace(&json).expect("trace decodes");
            decode::check_well_formed(&trace).expect("well-formed");
            let ctx = format!("{app:?}/{kind:?}");
            assert_phase_parity(&ctx, &stats, &trace);
            assert_cost_parity(&ctx, &stats, &trace);
        }
    }
}

/// A mid-run node crash with reprovisioning splits the victim's lease
/// into multiple billed segments; the per-incarnation billing attributes
/// must still reproduce the exact fault-adjusted bill.
#[test]
fn otlp_cost_parity_under_node_churn() {
    let kind = StorageKind::GlusterNufa;
    let wf = App::Montage.tiny_workflow();
    let clean = run_workflow(
        wf.clone(),
        RunConfig::cell(kind, 3)
            .with_seed(7)
            .with_obs(ObsLevel::Full),
    )
    .expect("clean run succeeds");

    let mut plan = FaultPlan::zero();
    plan.node_crash = Some(NodeCrashSpec {
        rate_per_hour: 0.0,
        scheduled: vec![(1, clean.makespan_secs * 0.4)],
        reprovision: true,
    });
    plan.max_fault_retries = 16;
    let mut cfg = RunConfig::cell(kind, 3)
        .with_seed(7)
        .with_obs(ObsLevel::Full);
    cfg.faults = Some(plan);
    let stats = run_workflow(wf.clone(), cfg).expect("faulted run succeeds");
    assert!(
        stats.faults.counters.node_crashes > 0,
        "the scheduled crash fired"
    );
    assert!(
        stats.faults.segments.len() > 3,
        "the crash split the victim's lease into extra segments"
    );

    let json = export_trace(&stats, &wf, kind, 3);
    let trace = decode::trace(&json).expect("trace decodes");
    decode::check_well_formed(&trace).expect("well-formed under churn");
    assert_phase_parity("churn", &stats, &trace);
    assert_cost_parity("churn", &stats, &trace);
}

/// Spot-market workers bill at the spot rate; the `wf.billing.spot`
/// attribute must carry through so the discounted bill reproduces.
#[test]
fn otlp_cost_parity_on_spot_instances() {
    let kind = StorageKind::Nfs;
    let wf = App::Epigenome.tiny_workflow();
    let mut plan = FaultPlan::zero();
    plan.spot = Some(SpotSpec {
        rate_per_hour: 0.05,
    });
    plan.max_fault_retries = 16;
    let mut cfg = RunConfig::cell(kind, 2)
        .with_seed(11)
        .with_obs(ObsLevel::Full);
    cfg.faults = Some(plan);
    let stats = run_workflow(wf.clone(), cfg).expect("spot run succeeds");
    assert!(
        stats.faults.segments.iter().any(|s| s.spot),
        "workers started on the spot market"
    );

    let json = export_trace(&stats, &wf, kind, 2);
    let trace = decode::trace(&json).expect("trace decodes");
    decode::check_well_formed(&trace).expect("well-formed on spot");
    assert_cost_parity("spot", &stats, &trace);

    // Spot billing genuinely discounts: same run priced as on-demand
    // segments costs strictly more, so the attribute is load-bearing.
    let on_demand: Vec<_> = stats
        .faults
        .segments
        .iter()
        .map(|s| BilledSegment { spot: false, ..*s })
        .collect();
    assert!(
        segments_cents(&on_demand, BillingGranularity::PerHour)
            > segments_cents(&stats.faults.segments, BillingGranularity::PerHour),
        "spot attribute must change the bill"
    );
}
