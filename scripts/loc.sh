#!/usr/bin/env bash
# Prints the number of non-test lines of Rust under crates/: every file
# git tracks there outside a `tests/` directory, counted up to its first
# line that starts with `#[cfg(test)]`. A change that simplifies the code
# is scored by how far this number falls. Run from anywhere in the
# checkout; new files count once they are added to git.
set -euo pipefail
cd "$(dirname "$0")/.."
git ls-files -z -- 'crates/*.rs' | grep -zv '/tests/' \
  | xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on' | wc -l
