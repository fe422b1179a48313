//! Shape-regression tests: the paper claims that are cheap enough to
//! verify on every `cargo test` run (Broadband and Epigenome at paper
//! scale; the full Montage figure runs under `--ignored` and in the
//! `repro` binary).

use ec2_workflow_sim::expt::faults;
use ec2_workflow_sim::expt::figures::{runtime_figure, table1, xtreemfs_note};
use ec2_workflow_sim::expt::shape;
use ec2_workflow_sim::wfgen::App;

fn assert_all_pass(checks: &[ec2_workflow_sim::expt::ShapeCheck]) {
    let failures: Vec<_> = checks.iter().filter(|c| !c.passed).collect();
    assert!(
        failures.is_empty(),
        "failed shape checks: {:#?}",
        failures
            .iter()
            .map(|c| format!("{} (margin {:?}): {}", c.id, c.margin, c.detail))
            .collect::<Vec<_>>()
    );
}

#[test]
fn fig4_broadband_shape_holds() {
    let fig = runtime_figure(App::Broadband, 42);
    assert_all_pass(&shape::check_fig4(&fig));
}

#[test]
fn fig3_epigenome_shape_holds() {
    let fig = runtime_figure(App::Epigenome, 42);
    assert_all_pass(&shape::check_fig3(&fig));
}

#[test]
fn table1_shape_holds() {
    assert_all_pass(&shape::check_table1(&table1()));
}

#[test]
fn shape_checks_are_seed_robust_for_broadband() {
    // The qualitative Broadband ordering must not depend on the engine
    // seed.
    for seed in [7u64, 1234] {
        let fig = runtime_figure(App::Broadband, seed);
        assert_all_pass(&shape::check_fig4(&fig));
    }
}

#[test]
fn f2_fault_shape_holds() {
    let study = faults::run_f2(&[App::Broadband, App::Epigenome], 42);
    assert_all_pass(&faults::check_f2(&study));
}

#[test]
fn f2_fault_checks_are_seed_robust_for_broadband() {
    // Mirrors the Broadband seed-robustness treatment above: the fault
    // degradation ordering must not depend on the engine seed.
    for seed in [7u64, 1234] {
        let study = faults::run_f2(&[App::Broadband], seed);
        assert_all_pass(&faults::check_f2(&study));
    }
}

#[test]
#[ignore = "runs the full Montage grid (~1 min); exercised by the repro binary"]
fn fig2_montage_shape_holds() {
    let fig = runtime_figure(App::Montage, 42);
    assert_all_pass(&shape::check_fig2(&fig));
}

#[test]
#[ignore = "runs everything (~2 min); exercised by the repro binary"]
fn all_19_claims_reproduce() {
    let figs: Vec<_> = App::ALL.iter().map(|a| runtime_figure(*a, 42)).collect();
    let checks = shape::check_all(&figs, &table1(), &xtreemfs_note(42));
    assert_all_pass(&checks);
}
