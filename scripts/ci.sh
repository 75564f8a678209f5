#!/usr/bin/env bash
# Tier-1 CI gate: build, test, formatting, lints, docs, fault suite, and
# benchmark gates for the whole workspace. Run from the repository root;
# fails fast on the first error, reporting which step failed and how long
# each completed step took.
#
# The last line is machine-readable so local runs and the GitHub workflow
# can be grepped uniformly:
#   CI_OK steps=N total=Ss        on success
#   CI_FAILED step=<name>         on the error path
set -euo pipefail
cd "$(dirname "$0")/.."

CURRENT_STEP="(startup)"
STEPS_RUN=0
CI_T0=$(date +%s)
trap 'echo "==> CI FAILED in step: ${CURRENT_STEP}" >&2; echo "CI_FAILED step=${CURRENT_STEP}"' ERR

step() {
  CURRENT_STEP="$1"
  shift
  echo "==> ${CURRENT_STEP}"
  local t0 t1
  t0=$(date +%s)
  "$@"
  t1=$(date +%s)
  STEPS_RUN=$((STEPS_RUN + 1))
  echo "    (${CURRENT_STEP}: $((t1 - t0))s)"
}

step "cargo build --release" cargo build --release

step "cargo test -q" cargo test -q

# perfbench builds against the workspace crates through path
# dependencies: the APIs it calls must keep compiling, and a new crate or
# dependency edge must not rewrite its lockfile.
step "perfbench check (locked, offline)" \
  cargo check --locked --offline --manifest-path perfbench/Cargo.toml

step "cargo fmt --check" cargo fmt --check

step "cargo clippy --workspace -- -D warnings" \
  cargo clippy --workspace -- -D warnings

step "cargo doc --no-deps (rustdoc warnings are errors)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

step "fault_suite (deterministic fault injection, fixed seeds)" \
  cargo test -p awesym-serve --features fault-injection -q

step "net loopback suite (socket sessions under faults)" \
  cargo test -p awesym-net --features fault-injection -q

# Lane-kernel parity in release, where LLVM vectorizes the kernel: the
# evaluator and timing suites assert it bit-identical to per-point
# evaluation (the CI simd-parity job runs the same; see docs/tape.md §7).
step "simd parity (evaluator and timing suites, release)" \
  cargo test -q -p awesym-symbolic -p awesym-timing --release

# --out keeps the smoke run's report away from the committed baseline in
# results/, which only full bench runs may regenerate.
step "tape optimizer smoke (op-count, agreement, and throughput gates)" \
  cargo run --release -p awesym-bench --bin tape_bench -- --smoke \
  --out target/bench_smoke/BENCH_tape.json

step "bench regression gate (fresh runs vs results/ baselines)" \
  scripts/bench_gate.sh

CI_T1=$(date +%s)
echo "==> CI green"
echo "CI_OK steps=${STEPS_RUN} total=$((CI_T1 - CI_T0))s"
