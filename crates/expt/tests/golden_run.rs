//! The replay goldens: a small fixed diamond workflow, run on GlusterFS
//! (NUFA) with 2 workers at seed 42, must reproduce
//!
//! - `fixtures/golden_digest.txt`, its run digest at `ObsLevel::Digest`.
//!   Any change to event ordering, payloads or timing anywhere in the
//!   stack moves this value;
//! - `fixtures/golden_otlp.json`, its OTLP trace document at
//!   `ObsLevel::Full`. This pins the whole export pipeline (event
//!   stream, span mapping, id derivation, JSON shape) byte for byte.
//!
//! Regenerate after an intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test golden_run
//! ```

mod common;

use common::check_golden;
use wfengine::{otlp_labels, run_workflow, RunConfig};
use wfobs::ObsLevel;
use wfstorage::StorageKind;

const KIND: StorageKind = StorageKind::GlusterNufa;
const WORKERS: u32 = 2;

/// The fixed golden workflow: a small diamond.
fn golden_workflow() -> wfdag::Workflow {
    let mut b = wfdag::WorkflowBuilder::new("golden");
    let fin = b.file("in.dat", 5_000_000);
    let f1 = b.file("f1.dat", 5_000_000);
    let f2 = b.file("f2.dat", 5_000_000);
    let f3 = b.file("f3.dat", 5_000_000);
    let fout = b.file("out.dat", 5_000_000);
    b.task("a", "gen", 2.0, 100 << 20, vec![fin], vec![f1, f2]);
    b.task("b", "lhs", 3.0, 100 << 20, vec![f1], vec![f3]);
    b.task("c", "rhs", 3.0, 100 << 20, vec![f2], vec![fout]);
    let f4 = b.file("out2.dat", 5_000_000);
    b.task("d", "join", 1.0, 100 << 20, vec![f3], vec![f4]);
    b.build().expect("golden workflow is well-formed")
}

#[test]
fn golden_digest_matches_fixture() {
    let cfg = RunConfig::cell(KIND, WORKERS)
        .with_seed(42)
        .with_obs(ObsLevel::Digest);
    let digest = run_workflow(golden_workflow(), cfg)
        .expect("golden run succeeds")
        .digest
        .expect("digest present at ObsLevel::Digest");
    check_golden("fixtures/golden_digest.txt", &format!("{digest:016x}\n"));
}

#[test]
fn golden_otlp_trace_matches_fixture() {
    let wf = golden_workflow();
    let cfg = RunConfig::cell(KIND, WORKERS)
        .with_seed(42)
        .with_obs(ObsLevel::Full);
    let stats = run_workflow(wf.clone(), cfg).expect("golden run succeeds");
    let report = stats.obs.as_ref().expect("report present at Full");
    let labels = otlp_labels(&stats, &wf, KIND.label(), WORKERS);
    let doc = wfobs::otlp_trace(report, &labels);
    assert_eq!(
        doc,
        wfobs::otlp_trace(report, &labels),
        "OTLP export must be byte-deterministic"
    );
    check_golden("fixtures/golden_otlp.json", &doc);
}
