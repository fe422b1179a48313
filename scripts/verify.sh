#!/usr/bin/env bash
# Repo verification: tier-1 (build + tests) plus lint gates.
#
#   scripts/verify.sh          # everything below
#   scripts/verify.sh --quick  # tier-1 only
#
# Tier-1 (ROADMAP.md): cargo build --release && cargo test -q
# Oracle tests:        cargo test -q -p simcore --features oracle (the
#                      differential suite and the Montage-scale agreement
#                      test against the reference solver)
# Oracle feature gate: the production `expt` build must not enable
#                      simcore's `oracle` feature (the reference solver
#                      compiles only for tests)
# Lint gates:          cargo clippy --workspace --all-targets -- -D warnings
#                      cargo fmt --check
#                      no #[ignore] without a reason string
# Golden digest:       repro --golden-digest (the fixed tiny workflow must
#                      reproduce tests/golden_digest.txt bit for bit)
# Golden OTLP:         repro --golden-otlp (the fixed run must re-export
#                      tests/golden_otlp.json byte for byte)
# Storage goldens:     the storage_golden test target (makespan, events,
#                      digest and per-resource utilisation bits of the tiny
#                      workflows on every storage kind at 2 and 4 workers)
# OTLP conformance:    the wfengine/expt otlp test targets (well-formedness
#                      proptests, edge cases, phase/cost parity), plus
#                      wfobs standing alone without default features
# Exporter goldens:    Chrome, OTLP, folded and TUI-frame fixtures of a
#                      clean, a crash, a transient-failure and a truncated
#                      run, plus the task-attempt fold's unit tests and
#                      proptest (every exporter renders from that fold)
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

echo "== golden digest =="
cargo run --release -q -p expt --bin repro -- --golden-digest

echo "== golden OTLP =="
cargo run --release -q -p expt --bin repro -- --golden-otlp

echo "== storage goldens =="
cargo test -q -p expt --test storage_golden

echo "== otlp conformance =="
cargo test -q -p wfengine --test prop_otlp --test otlp_edge
cargo test -q -p expt --test otlp_parity --test folded_golden
cargo test -q -p wfobs --no-default-features

echo "== exporter goldens + task-attempt fold =="
cargo test -q -p expt --test chrome_golden --test fault_golden
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
