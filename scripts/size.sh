#!/usr/bin/env bash
# The four size numbers every ROADMAP re-anchor quotes, computed one way:
#
#   crates_lines     lines of Rust under crates/
#   non_test_lines   the same, outside tests/ directories and
#                    outside inline `#[cfg(test)]` modules (counted from the
#                    attribute to the end of the file: by this repository's
#                    convention the test module is the last item of a file)
#   non_test_lines_code the same, outside doc comments too (`///` and `//!`
#                    lines)
#   panic_sites      unwrap / expect / panic! sites under crates/*/src, outside
#                    inline `#[cfg(test)]` modules (the same filter)
#   panic_sites_code the same, outside doc comments too (`///` and `//!`
#                    lines, whose examples run as doctests, not in a node)
#   fs_knobs         distinct FS_* environment knobs named anywhere in the
#                    sources, the benchmark and CI
#
# Informational: prints, never fails on a number.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

crates_lines="$(find crates -name '*.rs' -print0 | xargs -0 cat | wc -l)"

# Prints the lines of its input files that are outside test modules.
non_test='FNR == 1 { in_tests = 0 }
          /^#\[cfg\(test\)\]/ { in_tests = 1 }
          !in_tests'

# Prints the non-test source lines under crates/, tests/ directories aside.
non_test_src() {
    find crates -name '*.rs' -not -path '*/tests/*' -print0 | xargs -0 awk "$non_test"
}
# Drops doc-comment lines (`///` and `//!`).
code='^[[:space:]]*//[/!]'
non_test_lines="$(non_test_src | wc -l)"
non_test_lines_code="$(non_test_src | grep -Evc "$code")"

# Prints the non-test source lines under crates/*/src.
src_lines() {
    find crates/*/src -name '*.rs' -print0 | xargs -0 awk "$non_test"
}
sites='unwrap\(|expect\(|panic!'
panic_sites="$(src_lines | grep -Eo "$sites" | wc -l)"
panic_sites_code="$(src_lines | grep -Ev "$code" | grep -Eo "$sites" | wc -l)"

fs_knobs="$(grep -rhoE '\bFS_[A-Z][A-Z0-9_]*[A-Z0-9]\b' crates src tests examples benchmark/src benchmark/run.sh \
    .github/workflows 2>/dev/null | sort -u | wc -l)"

printf 'crates_lines    %s\n' "$crates_lines"
printf 'non_test_lines  %s\n' "$non_test_lines"
printf 'non_test_lines_code %s\n' "$non_test_lines_code"
printf 'panic_sites     %s\n' "$panic_sites"
printf 'panic_sites_code %s\n' "$panic_sites_code"
printf 'fs_knobs        %s\n' "$fs_knobs"
