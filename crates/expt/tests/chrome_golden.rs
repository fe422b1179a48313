//! Golden-file tests for the Chrome trace exporter and both metrics
//! exporters: a small Montage run on GlusterFS (NUFA) must produce
//! exactly the checked-in Trace Event JSON, metrics CSV and OTLP/JSON
//! metrics document. Regenerate after an intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test chrome_golden
//! ```

mod common;

use common::check_golden;
use wfengine::{otlp_labels, run_workflow, RunConfig, RunStats};
use wfgen::App;
use wfobs::{ChromeLabels, ObsLevel};
use wfstorage::StorageKind;

const KIND: StorageKind = StorageKind::GlusterNufa;
const WORKERS: u32 = 2;

fn montage_run() -> (RunStats, wfdag::Workflow) {
    let wf = App::Montage.tiny_workflow();
    let cfg = RunConfig::cell(KIND, WORKERS)
        .with_seed(42)
        .with_obs(ObsLevel::Full);
    let stats = run_workflow(wf.clone(), cfg).expect("montage run succeeds");
    (stats, wf)
}

#[test]
fn montage_chrome_trace_matches_golden() {
    let (stats, wf) = montage_run();
    let labels = ChromeLabels {
        task_names: wf.tasks().iter().map(|t| t.name.clone()).collect(),
        node_names: Vec::new(),
    };
    let report = stats.obs.as_ref().expect("Full level records a report");
    let json = wfobs::chrome_trace(report, &labels);

    // Shape invariant, independent of the pinned bytes.
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert!(parsed.get("traceEvents").is_some(), "traceEvents missing");

    check_golden("fixtures/montage_chrome.json", &json);
}

#[test]
fn montage_metrics_exports_match_golden() {
    let (stats, wf) = montage_run();
    let report = stats.obs.as_ref().expect("Full level records a report");
    let csv = report.metrics.to_csv();
    let otlp = wfobs::otlp_metrics(report, &otlp_labels(&stats, &wf, KIND.label(), WORKERS));

    // Every metric family is present, so the fixture pins all three
    // sections of the CSV and all three OTLP point kinds.
    for kind in ["counter,", "histogram,", "series,inflight_flows."] {
        assert!(csv.contains(kind), "no {kind} rows");
    }
    for kind in ["\"sum\":", "\"histogram\":", "\"gauge\":"] {
        assert!(otlp.contains(kind), "no {kind} metric");
    }

    check_golden("fixtures/montage_metrics.csv", &csv);
    check_golden("fixtures/montage_otlp_metrics.json", &otlp);
}
