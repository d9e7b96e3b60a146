#!/usr/bin/env bash
# Builds the benchmark from source and runs it.
#
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--quick]
#       one workload, one process; the last line of standard output is the
#       result object {correct, attempted, failed, metrics}.
#   benchmark/run.sh [--seed N] [--seconds S] [--quick]
#       every workload, a fresh process each, untraced then traced; prints
#       every metric by name and unit and writes benchmark/results/report.json
#       (one line per run) next to the trace-<workload>.json files.
#
# Exits non-zero when the build fails or any output check is violated.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# A driver may point CARGO_TARGET_DIR elsewhere (relative to the repository
# root); by default the root workspace's target/ is shared, so tier-1 builds
# and the benchmark reuse each other's artefacts.
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml --target-dir "$target" >&2
bin="$target/release/fs-benchmark"

for arg in "$@"; do
    if [ "$arg" = "--workload" ]; then
        exec "$bin" "$@"
    fi
done

workloads="$(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)"
mkdir -p benchmark/results
report=benchmark/results/report.json
: > "$report"
status=0
for workload in $workloads; do
    for trace in 0 1; do
        out="$("$bin" --workload "$workload" --trace "$trace" "$@")" || status=1
        printf '%s\n' "$out" | sed '$d'
        printf '{"workload": "%s", "trace": %s, "result": %s}\n' \
            "$workload" "$trace" "$(printf '%s\n' "$out" | tail -n 1)" >> "$report"
    done
done
echo "wrote $report"
exit "$status"
