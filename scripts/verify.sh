#!/usr/bin/env bash
# Repo verification: tier-1 (build + tests) plus lint gates.
#
#   scripts/verify.sh          # everything below
#   scripts/verify.sh --quick  # tier-1 only
#
# Tier-1 (ROADMAP.md): cargo build --release && cargo test -q
#                      (`cargo test -q --workspace` below also runs the
#                      golden digest and golden OTLP checks: the expt
#                      `golden_run` target pins a fixed tiny workflow's
#                      digest and OTLP trace to
#                      crates/expt/tests/fixtures/golden_{digest.txt,otlp.json})
# Oracle tests:        cargo test -q -p simcore --features oracle (the
#                      differential suite and the Montage-scale agreement
#                      test against the reference solver)
# Oracle feature gate: the production `expt` build must not enable
#                      simcore's `oracle` feature (the reference solver
#                      compiles only for tests)
# otlpcheck gate:      the production `expt` build must not link the
#                      test-only OTLP reader `otlpcheck` (dev-dependency
#                      of wfobs, wfengine and expt only)
# Lint gates:          cargo clippy --workspace --all-targets -- -D warnings
#                      cargo fmt --check
#                      no #[ignore] without a reason string
# Repro golden:        the release `repro --seed 42`, run in a temp dir,
#                      must write reports/ byte for byte as committed:
#                      repro-42.json (every figure cell, ablation row,
#                      F2 row, and all 24 shape checks with their
#                      margins) and the six runtime/cost CSVs
# Paper-scale exports: the release `wfsim run` of Montage on GlusterFS-NUFA
#                      with 8 workers at seed 42 writes the Chrome trace,
#                      metrics CSV, OTLP trace, OTLP metrics and folded
#                      stacks; their sha256 must match
#                      tests/golden_exports.sha256
# Storage goldens:     the storage_golden test target (makespan, events,
#                      digest and per-resource utilisation bits of the tiny
#                      workflows on every storage kind at 2 and 4 workers,
#                      the local disk at 1; and each backend's op_stats
#                      against the bus counters at ObsLevel::Full)
# Paper-scale pins:    one seed-42 perfbench run of each benchmark workload
#                      (a non-zero exit means an answer left
#                      perfbench/pins.txt: makespan bits, events, digest,
#                      or an F2 sweep row)
# One-worker pins:     the f2-sweep-bb-epi pin check again under
#                      `taskset -c 0`, where available_parallelism() is 1
#                      and every job runs on one thread: answers must not
#                      change with the thread count
# Checked release:     the storage goldens, the fault goldens, the fault
#                      metamorphic suite, the dispatch-window model check
#                      and three paper-scale `wfsim run`s (Montage on NFS
#                      and PVFS with 4 workers, and on S3 with 8) built
#                      with --release and debug assertions on, in
#                      target/checked
# Typed events gate:   the engine's event path holds no boxed closure:
#                      no `Box<dyn FnOnce`, `type Cont` or `Rc<Join>` in
#                      crates/engine/src outside the executor's tests
# Op ledger gate:      storage backends record operations only through
#                      the op ledger: no `Event::StorageOp`, `CacheHit` or
#                      `CacheMiss` and no `.reads`/`.writes`/`.cache_hits`/
#                      `.cache_misses +=` in crates/storage/src outside
#                      crates/storage/src/ledger.rs
# File directory gate: storage backends record which files exist and
#                      where their data lives only in the file directory:
#                      no `HashMap`/`HashSet` keyed by `FileId` or `NodeId`
#                      and no write-once or read-of-a-file-never-written
#                      panic message in crates/storage/src outside
#                      crates/storage/src/ledger.rs
# Engine state gate:   the engine's world indexes its state by dense ids:
#                      no `HashMap` or `HashSet` in crates/engine/src
#                      outside the executor's tests
# One bill gate:       experiments bill a run only through
#                      `RunStats::cost` (`wfcost::bill`: billing segments
#                      plus S3 fees): no `segments_cents(` call in
#                      crates/expt/src, src or examples
# OTLP conformance:    the otlpcheck reader's own tests, the wfengine/expt
#                      otlp test targets (well-formedness proptests, edge
#                      cases, phase/cost parity), plus wfobs standing alone
#                      without default features
# Exporter goldens:    Chrome, OTLP, folded and TUI-frame fixtures of a
#                      clean, a crash, a transient-failure and a truncated
#                      run, the metrics CSV and OTLP metrics fixtures of
#                      the clean and the crash run, plus the task-attempt fold's unit tests and
#                      proptest (every exporter renders from that fold),
#                      and the reports built from the task records (phase
#                      table, jobstate log, Gantt, I/O and CPU totals,
#                      every record's instants) of a clean and a crash run
# Live TUI:            golden-frame + live-determinism test targets, the
#                      frame-geometry proptest, and `wfsim run --live`
#                      under TERM=dumb (must fall back to plain `live:`
#                      lines with zero ANSI escape bytes on stderr)
# Benchmark compat:    perfbench/ (its own workspace, path deps on the
#                      crates) still builds and passes its tests, and
#                      doing so leaves perfbench/Cargo.lock untouched
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: build =="
cargo build --release

echo "== tier-1: tests =="
cargo test -q --workspace

echo "== oracle: simcore differential suite =="
# The root crate has no `oracle` feature, so target the crate directly.
cargo test -q -p simcore --features oracle

echo "== oracle feature gate: production expt builds without it =="
# Capture first, so a failing `cargo tree` stops the script instead of
# reading as "feature absent".
expt_features="$(cargo tree --offline --locked -e features,normal -p expt)"
if grep -F 'simcore feature "oracle"' <<<"$expt_features"; then
    echo "error: expt's normal dependencies enable simcore's \`oracle\` feature" >&2
    exit 1
fi

echo "== otlpcheck gate: production expt does not link the OTLP test reader =="
expt_deps="$(cargo tree --offline --locked -e normal -p expt)"
if grep -F 'otlpcheck' <<<"$expt_deps"; then
    echo "error: expt's normal dependencies include the test-only \`otlpcheck\` crate" >&2
    exit 1
fi

echo "== typed events gate: no boxed continuations in the engine =="
# Calendar events and flow completions are `wfengine::event::Ev` values
# and a plan's join lives in the world's op slab. Only the executor's
# tests may hand it a closure.
if git grep -nE 'Box<dyn FnOnce|type Cont|Rc<Join>' -- crates/engine/src ':!crates/engine/src/exec_tests.rs'; then
    echo "error: a boxed continuation is back on the engine's event path" >&2
    exit 1
fi

echo "== op ledger gate: one place counts and reports storage operations =="
# Every backend hands its reads, writes, stage-ins/outs, op storms and
# cache hits/misses to `OpLedger`, which bumps `StorageOpStats` and emits
# the bus event together. A backend that emits or counts by itself can
# make the two disagree. The ledger's own tests sit in the same file.
if git grep -nE 'Event::(StorageOp|CacheHit|CacheMiss)|\.(reads|writes|cache_hits|cache_misses) \+= ' \
    -- crates/storage/src ':!crates/storage/src/ledger.rs'; then
    echo "error: a storage backend counts or reports an operation outside the op ledger" >&2
    exit 1
fi

echo "== file directory gate: one place records which files exist and where =="
# Every backend keeps existence, homes and copies in `FileDirectory`, which
# also owns the write-once check and the check that a read finds its file.
# A backend with its own set or map by file or node id, or its own copy of
# either check, can drift from the others. The directory's own code sits
# in the same file as the ledger.
if git grep -nE '(HashMap|HashSet)<(FileId|NodeId)|write-once violated|read of a file never written' \
    -- crates/storage/src ':!crates/storage/src/ledger.rs'; then
    echo "error: a storage backend keeps file bookkeeping outside the file directory" >&2
    exit 1
fi

echo "== engine state gate: the world keeps its state in dense vectors =="
# Tasks, files and workers have dense ids, so the world keeps a vector
# per fact, indexed by id. A hash container keyed by one of them keeps a
# second copy of an order the ids already give.
if git grep -nE 'HashMap|HashSet' -- crates/engine/src ':!crates/engine/src/exec_tests.rs'; then
    echo "error: the engine keeps state in a hash container" >&2
    exit 1
fi

echo "== one bill gate: every run is billed by RunStats::cost =="
# `RunStats::cost` bills a run's segments and its S3 requests and storage
# together. A caller that prices the segments alone drops S3's fees, and
# its bill disagrees with the figures' for the same run.
if git grep -n 'segments_cents(' -- crates/expt/src src examples; then
    echo "error: an experiment bills instance segments outside RunStats::cost" >&2
    exit 1
fi

echo "== lint: ignored tests must say why =="
# `#[ignore]` without `= "reason"` hides a test with no paper trail.
if grep -rn --include='*.rs' -E '#\[ignore\]' crates src tests shims; then
    echo "error: found #[ignore] without a reason string (use #[ignore = \"why\"])" >&2
    exit 1
fi

if [[ "${1:-}" == "--quick" ]]; then
    echo "verify (quick): OK"
    exit 0
fi

echo "== lint: clippy =="
cargo clippy --workspace --all-targets -q -- -D warnings

echo "== lint: rustfmt =="
cargo fmt --check

echo "== repro golden: the seed-42 dataset and verdicts =="
# Every number `repro` reports at seed 42, every shape-check verdict and
# margin, byte for byte (≈12 s once built). After an intended change,
# rerun `repro --seed 42` from the repo root and commit reports/.
cargo build --release -q -p expt --bin repro
repro_bin="$PWD/target/release/repro"
repro_out="$(mktemp -d)"
(cd "$repro_out" && "$repro_bin" --seed 42 >/dev/null)
if ! diff -rq "$repro_out/reports" reports; then
    echo "error: repro --seed 42 no longer writes the committed reports/" >&2
    exit 1
fi
rm -rf "$repro_out"

echo "== paper-scale exports =="
# The tiny goldens never reach paper-scale times, counts or label sets.
# This run writes all five Full-level documents (≈1.2 s once built).
cargo build --release -q -p expt --bin wfsim
exports="$(mktemp -d)"
./target/release/wfsim run --app montage --storage glusterfs-nufa --workers 8 --seed 42 \
    --trace-out "$exports/chrome.json" --metrics-out "$exports/metrics.csv" \
    --otlp-out "$exports/otlp" --folded-out "$exports/folded.txt" >/dev/null
if ! (cd "$exports" && sha256sum --quiet -c -) <tests/golden_exports.sha256; then
    echo "error: a paper-scale export drifted from tests/golden_exports.sha256" >&2
    exit 1
fi
rm -rf "$exports"

echo "== storage goldens =="
cargo test -q -p expt --test storage_golden

echo "== paper-scale pins =="
# The goldens above cover tiny workflows; these are the paper-scale
# Montage cells on PVFS, NFS and GlusterFS-NUFA, and the Broadband +
# Epigenome F2 fault sweep, each checked against perfbench/pins.txt.
for workload in montage-pvfs-8 montage-nfs-4 f2-sweep-bb-epi montage-gluster-nufa-8-full; do
    if ! out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 42 --seconds 0 --trace 0 2>&1)"; then
        grep -v '^pin ' <<<"$out" >&2
        echo "error: perfbench --workload $workload --seed 42 failed (it checks its answers against perfbench/pins.txt)" >&2
        exit 1
    fi
done

echo "== thread-count determinism: the F2 pins on one worker =="
# Pinned to one CPU, available_parallelism() is 1, so the rayon shim maps
# every job on one thread. perfbench's header names its thread count;
# check that it really ran on 1 and still matched the pinned rows.
if ! out="$(taskset -c 0 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload f2-sweep-bb-epi --seed 42 --seconds 0 --trace 0 2>&1)"; then
    grep -v '^pin ' <<<"$out" >&2
    echo "error: perfbench --workload f2-sweep-bb-epi --seed 42 failed on one worker" >&2
    exit 1
fi
if ! grep -q '^workload f2-sweep-bb-epi .* threads 1$' <<<"$out"; then
    grep -v '^pin ' <<<"$out" >&2
    echo "error: under taskset -c 0 the F2 sweep did not run on exactly 1 thread" >&2
    exit 1
fi

echo "== debug assertions at release speed =="
# The storage goldens again, then paper-scale Montage runs on NFS, PVFS
# and S3, from a release build with debug assertions on: the LRU check
# (after each insert that evicts, a walk of the recency list must count
# as many entries as the cache holds, every link pointing back), the flow
# solver's bit-equality checks of its all-at-cap and equal-share
# shortcuts against the full filling, its check of every kept component
# against a fresh walk, and its checks that a clean component's re-solve
# and a reused re-sync match the full pass bit for bit, run under real
# load. NFS @ 4 is the run that drives the equal-share check: at seed 42,
# 165,790 of its 180,975 solves off the all-at-cap path take the
# shortcut (S3 @ 8 takes it 61,554 times). PVFS @ 4 drives the clean
# re-solve and reused re-sync checks: all its flows share one component,
# and at seed 42 240k of its 382k solves are clean re-solves (137k after
# a start, 103k after a removal), 4.0M of its 9.1M re-syncs are reused,
# and 166k removals run the split check (13 of them split). PVFS @ 8
# drives the same checks about twice as often (616k clean re-solves,
# 23.8M reused re-syncs, 12 splits) in ~26 s against ~3.4 s. S3 @ 8 is
# the other backend whose flows are all capped, but its components stay
# small: it reaches the clean re-solve 20 times in 159k solves and the
# reused re-sync 13 times. The
# fault goldens and the fault metamorphic suite drive the kill path
# (the flows of a task's plan, `cancel_flow`, the completion heap's
# liveness check, freeing a killed plan's op slot) with the same checks
# on, and every run asserts that no op slot outlives it. A separate
# target dir keeps the normal release build cached.
checked=(env CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true CARGO_TARGET_DIR=target/checked)
"${checked[@]}" cargo test --release -q -p expt --test storage_golden --test fault_golden
"${checked[@]}" cargo test --release -q -p wfengine --test prop_fault_metamorphic --test prop_dispatch
"${checked[@]}" cargo build --release -q -p expt --bin wfsim
./target/checked/release/wfsim run --app montage --storage nfs --workers 4 >/dev/null
./target/checked/release/wfsim run --app montage --storage pvfs --workers 4 >/dev/null
./target/checked/release/wfsim run --app montage --storage s3 --workers 8 >/dev/null

echo "== otlp conformance =="
cargo test -q -p otlpcheck
cargo test -q -p wfengine --test prop_otlp --test otlp_edge
cargo test -q -p expt --test otlp_parity --test folded_golden
cargo test -q -p wfobs --no-default-features

echo "== exporter goldens + task-attempt fold =="
cargo test -q -p expt --test chrome_golden --test fault_golden --test records_golden
cargo test -q -p wfobs --lib fold::
cargo test -q -p wfobs --test prop_fold

echo "== live TUI: golden frames + determinism + geometry =="
cargo test -q -p expt --test tui_golden --test live_determinism
cargo test -q -p wfobs --test prop_tui

echo "== live TUI: graceful degradation under TERM=dumb =="
cargo build --release -q -p expt
live_err="$(mktemp)"
TERM=dumb COLUMNS=100 LINES=30 ./target/release/wfsim run \
    --app montage --tiny --storage s3 --workers 2 --live \
    >/dev/null 2>"$live_err"
if grep -q $'\x1b' "$live_err"; then
    echo "error: wfsim --live leaked ANSI escapes under TERM=dumb" >&2
    exit 1
fi
if ! grep -q '^live: ' "$live_err"; then
    echo "error: wfsim --live under TERM=dumb printed no plain progress lines" >&2
    exit 1
fi
if ! grep -q '^wfsim: makespan ' "$live_err"; then
    echo "error: wfsim run printed no end-of-run summary on stderr" >&2
    exit 1
fi
rm -f "$live_err"

echo "== benchmark compat: perfbench builds and tests, lockfile unchanged =="
cargo test --offline -q --manifest-path perfbench/Cargo.toml
git diff --exit-code -- perfbench/Cargo.lock

echo "verify: OK"
