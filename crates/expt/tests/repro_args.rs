//! `repro` rejects a command line it does not understand: it names the
//! offending argument on stderr and exits with status 2, instead of
//! ignoring it and starting the full reproduction.

use std::process::{Command, Stdio};
use std::thread::sleep;
use std::time::{Duration, Instant};

/// Run `repro` with `args` and assert it fails fast with status 2 and
/// `needle` on stderr. A `repro` that accepts the arguments starts the
/// whole reproduction; it is killed at the deadline and the test fails.
fn assert_rejected(args: &[&str], needle: &str) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("poll repro").is_none() {
        if Instant::now() > deadline {
            child.kill().expect("kill repro");
            panic!("repro {args:?} was still running after 60 s: it accepted the arguments");
        }
        sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("collect repro output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "repro {args:?}: {stderr}");
    assert!(
        stderr.contains(needle),
        "repro {args:?} must name `{needle}` on stderr, got: {stderr}"
    );
}

#[test]
fn removed_bench_smoke_mode_is_rejected() {
    assert_rejected(&["--bench-smoke"], "--bench-smoke");
}

#[test]
fn removed_golden_modes_are_rejected() {
    // The golden digest and OTLP checks are `cargo test -p expt --test
    // golden_run` now; `repro` no longer runs or rewrites them.
    for flag in ["--golden-digest", "--golden-otlp", "--update"] {
        assert_rejected(&[flag], flag);
    }
}

#[test]
fn misspelt_flag_is_rejected() {
    assert_rejected(&["--golden-digset"], "--golden-digset");
}

#[test]
fn seed_without_a_number_is_rejected() {
    assert_rejected(&["--seed", "many"], "--seed");
}
