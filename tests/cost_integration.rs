//! Billing integration: §VI's cost structure computed from real simulated
//! runs, not synthetic usage records.

use ec2_workflow_sim::expt::{run_cell, Cell};
use ec2_workflow_sim::wfgen::App;
use ec2_workflow_sim::wfstorage::StorageKind;

#[test]
fn nfs_carries_the_dedicated_server_surcharge() {
    // §VI: the extra m1.xlarge adds $0.68 per started hour.
    let nfs = run_cell(Cell::new(App::Epigenome, StorageKind::Nfs, 2), 42).unwrap();
    let gluster = run_cell(Cell::new(App::Epigenome, StorageKind::GlusterNufa, 2), 42).unwrap();
    // Both runs fit in one billed hour: NFS = 3 × $0.68, GlusterFS = 2 × $0.68.
    assert!(nfs.makespan_secs < 3600.0 && gluster.makespan_secs < 3600.0);
    assert!(
        (nfs.cost_per_hour_usd - 2.04).abs() < 1e-9,
        "{}",
        nfs.cost_per_hour_usd
    );
    assert!(
        (gluster.cost_per_hour_usd - 1.36).abs() < 1e-9,
        "{}",
        gluster.cost_per_hour_usd
    );
}

#[test]
fn s3_request_fees_scale_with_file_count() {
    // Montage (~29k file accesses) pays far more in request fees than
    // Epigenome (§VI: $0.28 vs $0.01).
    let montage = run_cell(Cell::new(App::Montage, StorageKind::S3, 2), 42).unwrap();
    let epigenome = run_cell(Cell::new(App::Epigenome, StorageKind::S3, 2), 42).unwrap();
    let fee = |c: &ec2_workflow_sim::expt::CellResult| {
        let (gets, puts) = c.s3_requests;
        ec2_workflow_sim::wfcost::request_cents(puts, gets) / 100.0
    };
    assert!(
        fee(&montage) > 10.0 * fee(&epigenome),
        "{} vs {}",
        fee(&montage),
        fee(&epigenome)
    );
}

#[test]
fn per_second_billing_dominates_per_hour_everywhere() {
    for storage in [StorageKind::Nfs, StorageKind::S3, StorageKind::GlusterNufa] {
        for n in [2u32, 4] {
            let r = run_cell(Cell::new(App::Epigenome, storage, n), 42).unwrap();
            assert!(
                r.cost_per_second_usd <= r.cost_per_hour_usd + 1e-9,
                "{storage:?}@{n}"
            );
        }
    }
}

#[test]
fn cost_only_drops_with_superlinear_speedup() {
    // §VI's argument: doubling nodes halves the ideal runtime, so the
    // per-second cost can only drop if speedup is superlinear — which
    // loosely-coupled workflows essentially never achieve.
    for storage in [StorageKind::GlusterNufa, StorageKind::S3] {
        let two = run_cell(Cell::new(App::Broadband, storage, 2), 42).unwrap();
        let four = run_cell(Cell::new(App::Broadband, storage, 4), 42).unwrap();
        assert!(
            four.cost_per_second_usd >= two.cost_per_second_usd * 0.98,
            "{storage:?}: ${} @4 vs ${} @2",
            four.cost_per_second_usd,
            two.cost_per_second_usd
        );
    }
}

#[test]
fn m24_server_cost_reflects_its_price() {
    use ec2_workflow_sim::vcluster::InstanceType;
    use ec2_workflow_sim::wfengine::RunConfig;
    let mut cfg = RunConfig::cell(StorageKind::Nfs, 2);
    cfg.server_type = Some(InstanceType::M24Xlarge);
    let r = ec2_workflow_sim::expt::run_cell_with(App::Epigenome, cfg).unwrap();
    // Two c1.xlarge + one m2.4xlarge for one started hour.
    assert!(r.makespan_secs < 3600.0);
    assert!(
        (r.cost_per_hour_usd - (2.0 * 0.68 + 2.40)).abs() < 1e-9,
        "{}",
        r.cost_per_hour_usd
    );
}
