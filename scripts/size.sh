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
#   panic_sites_wire the panic_sites_code sites in the files that deny the
#                    four wire lints (a `#![deny(` block naming
#                    arithmetic_side_effects, indexing_slicing, unwrap_used
#                    and expect_used), leaving out `#[expect(` attribute
#                    lines and the item each one annotates: what such a
#                    file could still panic on that no reason accounts for
#   panic_sites_other the panic_sites_code sites in every other file
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

# The files under crates/*/src whose `#![deny(` block names all four lints.
wire_files() {
    find crates/*/src -name '*.rs' -print0 | xargs -0 awk '
        FNR == 1 { in_block = 0; lints = 0 }
        /^#!\[deny\($/ { in_block = 1; next }
        in_block && /^\)\]/ { in_block = 0; if (lints == 4) print FILENAME; nextfile }
        in_block && /clippy::(arithmetic_side_effects|indexing_slicing|unwrap_used|expect_used),?$/ { lints++ }
    '
}
# Counts the sites of the files on standard input outside test modules and
# doc lines, skipping each `#[expect(` attribute and the item after it (to
# the brace that closes it, or the `;` that ends it).
count_sites() {
    xargs awk -v sites="$sites" '
        FNR == 1 { in_tests = 0; attr = 0; skip = 0; depth = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\/[\/!]/ { next }
        attr { if ($0 ~ /\)\]/) { attr = 0; skip = 1; start = depth; opened = 0 } next }
        /^[[:space:]]*#\[expect\(/ {
            if ($0 ~ /\)\]/) { skip = 1; start = depth; opened = 0 } else { attr = 1 }
            next
        }
        {
            line = $0
            if (!skip) { total += gsub(sites, "", line); line = $0 }
            opens = gsub(/\{/, "", line); line = $0
            depth += opens - gsub(/\}/, "", line)
            if (skip) {
                if (opens > 0) { opened = 1 }
                if ((opened && depth <= start) || (!opened && $0 ~ /;[[:space:]]*$/)) { skip = 0 }
            }
        }
        END { print total + 0 }
    '
}
panic_sites_wire="$(wire_files | count_sites)"
other_sites() {
    find crates/*/src -name '*.rs' | grep -vxF -f <(wire_files) | xargs awk "$non_test"
}
panic_sites_other="$(other_sites | grep -Ev "$code" | grep -Eo "$sites" | wc -l)"

fs_knobs="$(grep -rhoE '\bFS_[A-Z][A-Z0-9_]*[A-Z0-9]\b' crates src tests examples benchmark/src benchmark/run.sh \
    .github/workflows 2>/dev/null | sort -u | wc -l)"

printf 'crates_lines    %s\n' "$crates_lines"
printf 'non_test_lines  %s\n' "$non_test_lines"
printf 'non_test_lines_code %s\n' "$non_test_lines_code"
printf 'panic_sites     %s\n' "$panic_sites"
printf 'panic_sites_code %s\n' "$panic_sites_code"
printf 'panic_sites_wire %s\n' "$panic_sites_wire"
printf 'panic_sites_other %s\n' "$panic_sites_other"
printf 'fs_knobs        %s\n' "$fs_knobs"
