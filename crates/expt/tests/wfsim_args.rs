//! `wfsim` refuses a storage option that cannot be deployed on the
//! requested number of workers: it names the storage and the worker
//! count on stderr and exits with status 2, instead of panicking while
//! it builds the cluster or the storage backend. It refuses a workflow
//! document that does not load the same way, a cluster size of 0 and a
//! task-failure probability outside [0, 1]. A workflow too large to time
//! (the simulated clock saturates) fails the same way instead of
//! reporting the clock's limit as a makespan.

use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Run `wfsim` with the whitespace-separated `cmdline` and assert it
/// fails fast with status 2 and every one of `needles` on stderr. A
/// `wfsim` that accepts the arguments runs the simulation; it is killed
/// at the deadline and the test fails.
fn assert_rejected(cmdline: &str, needles: &[&str]) {
    let args: Vec<&str> = cmdline.split_whitespace().collect();
    let mut child = Command::new(env!("CARGO_BIN_EXE_wfsim"))
        .args(&args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn wfsim");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll wfsim").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill wfsim");
            panic!("wfsim {cmdline} was still running after 60 s: it accepted the arguments");
        }
        sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect wfsim output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "wfsim {cmdline}: {stderr}");
    for needle in needles {
        assert!(
            stderr.contains(needle),
            "wfsim {cmdline} must name `{needle}` on stderr, got: {stderr}"
        );
    }
}

#[test]
fn nfs_on_zero_workers_is_rejected() {
    assert_rejected(
        "run --app montage --tiny --storage nfs --workers 0",
        &["NFS", "0 worker"],
    );
}

#[test]
fn pvfs_on_one_worker_is_rejected() {
    assert_rejected(
        "run --app montage --tiny --storage pvfs --workers 1",
        &["PVFS", "1 worker"],
    );
}

#[test]
fn local_on_two_workers_is_rejected() {
    assert_rejected(
        "run --app montage --tiny --storage local --workers 2",
        &["Local", "2 worker"],
    );
}

#[test]
fn bottleneck_on_an_infeasible_cluster_is_rejected() {
    assert_rejected(
        "bottleneck --app montage --tiny --storage pvfs --workers 1",
        &["PVFS", "1 worker"],
    );
}

#[test]
fn zero_cluster_size_is_rejected() {
    assert_rejected(
        "run --app montage --tiny --storage nfs --workers 2 --cluster 0",
        &["--cluster", "at least 1"],
    );
}

#[test]
fn failure_probability_outside_the_unit_interval_is_rejected() {
    for p in ["nan", "-0.5", "1.5", "inf"] {
        assert_rejected(
            &format!("run --app montage --tiny --storage nfs --workers 2 --failures {p}"),
            &["--failures", "[0, 1]"],
        );
    }
}

#[test]
fn dax_with_negative_cpu_secs_is_rejected() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("negative_cpu_secs.json");
    let json = r#"{
        "version": 1, "name": "bad",
        "files": [{"name": "f", "size": 1}],
        "tasks": [
            {"name": "neg", "transformation": "x", "cpu_secs": -1.0, "peak_mem": 0, "io_ops": 1, "inputs": [], "outputs": [0]}
        ]
    }"#;
    std::fs::write(&path, json).expect("write DAX document");
    assert_rejected(
        &format!(
            "run --dax {} --storage nfs --workers 2",
            path.to_str().expect("UTF-8 temp path")
        ),
        &["`neg`", "cpu_secs -1"],
    );
}

#[test]
fn saturated_clock_is_an_error_not_a_makespan() {
    // A 2^60-byte intermediate takes longer to move than `u64`
    // nanoseconds can count, so the clock saturates on every storage
    // kind that shares it over a network.
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let path = dir.join("saturated_clock.json");
    let json = r#"{
        "version": 1, "name": "huge",
        "files": [{"name": "in", "size": 1000}, {"name": "huge", "size": 1152921504606846976}, {"name": "out", "size": 1000}],
        "tasks": [
            {"name": "make", "transformation": "x", "cpu_secs": 1.0, "peak_mem": 0, "io_ops": 1, "inputs": [0], "outputs": [1]},
            {"name": "use", "transformation": "x", "cpu_secs": 1.0, "peak_mem": 0, "io_ops": 1, "inputs": [1], "outputs": [2]}
        ]
    }"#;
    std::fs::write(&path, json).expect("write DAX document");
    let path = path.to_str().expect("UTF-8 temp path");
    for storage in ["nfs", "s3", "pvfs", "glusterfs-nufa", "direct"] {
        assert_rejected(
            &format!("run --dax {path} --storage {storage} --workers 2"),
            &["clock saturated"],
        );
    }
}
