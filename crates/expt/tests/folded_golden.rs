//! Golden-file test for the folded-stack storage flamegraph exporter: a
//! small Montage run on GlusterFS (NUFA) must produce exactly the
//! checked-in `backend;op_kind;task weight` lines. Regenerate after an
//! intentional change with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p expt --test folded_golden
//! ```

mod common;

use common::check_golden;
use wfengine::{run_workflow, RunConfig};
use wfgen::App;
use wfobs::ObsLevel;
use wfstorage::StorageKind;

#[test]
fn montage_folded_stacks_match_golden() {
    let kind = StorageKind::GlusterNufa;
    let wf = App::Montage.tiny_workflow();
    let task_names: Vec<String> = wf.tasks().iter().map(|t| t.name.clone()).collect();
    let cfg = RunConfig::cell(kind, 2)
        .with_seed(42)
        .with_obs(ObsLevel::Full);
    let stats = run_workflow(wf, cfg).expect("montage run succeeds");
    let report = stats.obs.as_ref().expect("Full level records a report");
    let folded = wfobs::folded_storage_stacks(report, &task_names, kind.label());

    // Shape invariants, independent of the pinned bytes.
    for line in folded.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("`stack weight` shape");
        let parts: Vec<_> = stack.split(';').collect();
        assert_eq!(parts.len(), 3, "backend;op_kind;task: {line}");
        assert_eq!(parts[0], kind.label());
        let w: u64 = weight.parse().expect("integer microsecond weight");
        assert!(w > 0, "zero-weight lines are omitted: {line}");
    }

    check_golden("fixtures/montage_folded.txt", &folded);
}
