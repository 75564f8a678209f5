#!/usr/bin/env bash
# Prints the size of the non-test Rust under crates/: every file git
# tracks there outside a `tests/` directory, counted up to its first
# line that starts with `#[cfg(test)]`. Two numbers: the lines, and the
# public items among them (`pub` fn, struct, enum, trait, type, const,
# static and mod; `pub(crate)` items and `pub use` re-exports are not
# counted). A change that simplifies the code is scored by how far both
# fall. Run from anywhere in the checkout; new files count once they are
# added to git.
set -euo pipefail
cd "$(dirname "$0")/.."
non_test() {
  git ls-files -z -- 'crates/*.rs' | grep -zv '/tests/' \
    | xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on'
}
echo "non-test lines: $(non_test | wc -l)"
echo "public items: $(non_test | grep -cE '^\s*pub (fn|struct|enum|trait|type|const|static|mod) ')"
