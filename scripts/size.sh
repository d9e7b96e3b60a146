#!/usr/bin/env bash
# The four size numbers every ROADMAP re-anchor quotes, computed one way:
#
#   crates_lines     lines of Rust under crates/
#   non_test_lines   the same, outside tests/ directories and
#                    outside inline `#[cfg(test)]` modules (counted from the
#                    attribute to the end of the file: by this repository's
#                    convention the test module is the last item of a file)
#   panic_sites      unwrap / expect / panic! sites under crates/*/src, outside
#                    inline `#[cfg(test)]` modules (the same filter)
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

non_test_lines="$(find crates -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk "$non_test" | wc -l)"

panic_sites="$(find crates/*/src -name '*.rs' -print0 | xargs -0 awk "$non_test" |
    grep -Eo 'unwrap\(|expect\(|panic!' | wc -l)"

fs_knobs="$(grep -rhoE '\bFS_[A-Z][A-Z0-9_]*[A-Z0-9]\b' crates src tests examples benchmark/src benchmark/run.sh \
    .github/workflows 2>/dev/null | sort -u | wc -l)"

printf 'crates_lines    %s\n' "$crates_lines"
printf 'non_test_lines  %s\n' "$non_test_lines"
printf 'panic_sites     %s\n' "$panic_sites"
printf 'fs_knobs        %s\n' "$fs_knobs"
