//! Golden-file test for the Chrome trace exporter: a small Montage run
//! on GlusterFS (NUFA) must produce exactly the checked-in Trace Event
//! JSON. Regenerate after an intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test chrome_golden
//! ```

use wfengine::{run_workflow, RunConfig};
use wfgen::App;
use wfobs::{ChromeLabels, ObsLevel};
use wfstorage::StorageKind;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/fixtures/montage_chrome.json"
);

#[test]
fn montage_chrome_trace_matches_golden() {
    let wf = App::Montage.tiny_workflow();
    let labels = ChromeLabels {
        task_names: wf.tasks().iter().map(|t| t.name.clone()).collect(),
        node_names: Vec::new(),
    };
    let cfg = RunConfig::cell(StorageKind::GlusterNufa, 2)
        .with_seed(42)
        .with_obs(ObsLevel::Full);
    let stats = run_workflow(wf, cfg).expect("montage run succeeds");
    let report = stats.obs.as_ref().expect("Full level records a report");
    let json = wfobs::chrome_trace(report, &labels);

    // Shape invariant, independent of the pinned bytes.
    let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid JSON");
    assert!(parsed.get("traceEvents").is_some(), "traceEvents missing");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN, &json).expect("write golden fixture");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN)
        .expect("golden fixture missing — run with UPDATE_GOLDEN=1 to create it");
    assert!(
        json == want,
        "Chrome trace drifted from {GOLDEN}; rerun with UPDATE_GOLDEN=1 if intentional"
    );
}
