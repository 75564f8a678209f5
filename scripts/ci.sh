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
#
# `-E` (errtrace) lets the ERR trap fire inside `step` and the functions
# it runs; without it `-e` ends the script silently.
set -Eeuo pipefail
cd "$(dirname "$0")/.."

CURRENT_STEP="(startup)"
STEPS_RUN=0
CI_T0=$(date +%s)
# With -E the trap also runs in subshells (`( … )`, `$( … )`); only the
# main shell reports, so a failing step prints its line once.
trap 'if (( BASH_SUBSHELL == 0 )); then
  echo "==> CI FAILED in step: ${CURRENT_STEP}" >&2
  echo "CI_FAILED step=${CURRENT_STEP}"
fi' ERR

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

# Informational: the non-test line and public-item counts a simplifying
# change is scored by. This step never fails the gate.
loc_count() {
  (scripts/loc.sh 2>/dev/null || echo "unknown") | sed 's/^/    /'
}
step "non-test line and public-item counts (informational)" loc_count

step "cargo build --release" cargo build --release

# The nested moment lowering against full numeric AWE at full size (10^4
# seeded points per bundled and fleet model); the debug suite below runs
# the same test on fewer points.
step "lowering accuracy vs numeric AWE (release, full size)" \
  cargo test --release -q -p awesym-serve --test lowering_accuracy

# The printed symbolic forms are pinned: `paper eq14` and `paper eq16`
# must each print exactly their section of results/paper_output.txt,
# from the `=== eq. (N)` banner to the blank line before the next banner.
paper_forms() {
  local exp banner
  for exp in eq14 eq16; do
    banner="=== eq. (${exp#eq})"
    diff <(target/release/paper "$exp" | tail -n +2) \
      <(awk -v b="$banner" 'index($0, b) == 1 { on = 1; print; next }
                            on && /^=== / { exit }
                            on' results/paper_output.txt | sed '${/^$/d}') || return 1
  done
}
step "paper eq14/eq16 print their results/paper_output.txt sections" paper_forms

step "cargo test -q" cargo test -q

# perfbench builds against the workspace crates through path
# dependencies: the APIs it calls must keep compiling, and a new crate or
# dependency edge must not rewrite its lockfile.
step "perfbench check (locked, offline)" \
  cargo check --locked --offline --manifest-path perfbench/Cargo.toml

step "cargo fmt --check" cargo fmt --check

# --all-targets lints test, bench and example code too.
step "cargo clippy --workspace --all-targets -- -D warnings" \
  cargo clippy --workspace --all-targets -- -D warnings

step "cargo doc --no-deps (rustdoc warnings are errors)" \
  env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

step "fault_suite (deterministic fault injection, fixed seeds)" \
  cargo test -p awesym-serve --features fault-injection -q

step "net loopback suite (socket sessions under faults)" \
  cargo test -p awesym-net --features fault-injection -q

# Lane-kernel parity in release, where LLVM vectorizes the kernel: the
# evaluator and timing suites assert it bit-identical to per-point
# evaluation (the CI simd-parity job runs the same; see docs/tape.md §7).
# The sparse suite asserts the heap minimum-degree ordering makes the
# same picks as the reference scan, optimized too.
step "release parity (evaluator, timing and sparse-ordering suites)" \
  cargo test -q -p awesym-symbolic -p awesym-timing -p awesym-sparse --release

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
