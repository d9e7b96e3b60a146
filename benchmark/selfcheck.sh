#!/usr/bin/env bash
# Runs every workload twice on one build with one seed and fails if any
# end-to-end metric of the second run is worse than the first by more than
# its bound, or if any simulated-clock metric differs at all (the simulator
# is deterministic: same seed, same numbers).  Prints the per-metric table.
# The two runs of a workload are back to back: this class of host drifts by
# 10-20 % over minutes, which is the host's doing, not the code's.
#
#   benchmark/selfcheck.sh [--seed N] [--seconds S] [--quick]
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
mkdir -p benchmark/results

workloads="$(sed -n 's/^ *{"name": "\([^"]*\)", "why".*/\1/p' BENCHMARK.json)"
: > benchmark/results/selfcheck-1.json
: > benchmark/results/selfcheck-2.json
for workload in $workloads; do
    for pass in 1 2; do
        echo "selfcheck: $workload, run $pass" >&2
        benchmark/run.sh --workload "$workload" --trace 0 "$@" | tail -n 1 \
            | sed "s/^/{\"workload\": \"$workload\", \"result\": /; s/\$/}/" \
            >> "benchmark/results/selfcheck-$pass.json"
    done
done

python3 - <<'PY'
import json, sys

spec = json.load(open("BENCHMARK.json"))
metrics = {m["name"]: m for m in spec["end_to_end"]}
passes = []
for n in (1, 2):
    rows = [json.loads(line) for line in open(f"benchmark/results/selfcheck-{n}.json")]
    passes.append({row["workload"]: row["result"] for row in rows})

failures = []
print(f"{'workload':<24} {'metric':<28} {'first':>16} {'second':>16} {'worse by':>9} {'bound':>6}")
for workload, first in passes[0].items():
    second = passes[1][workload]
    for run in (first, second):
        if not run["correct"] or run["failed"]:
            failures.append(f"{workload}: correct={run['correct']} failed={run['failed']}")
    for name, spec_metric in metrics.items():
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        worse = (b - a) / a if spec_metric["better"] == "lower" else (a - b) / a
        simulated = "sim_" in spec_metric["unit"]
        verdict = ""
        if simulated and a != b:
            verdict = "  NOT REPRODUCED"
            failures.append(f"{workload} {name}: simulated {a} then {b}")
        elif worse > spec_metric["bound"]:
            verdict = "  OUT OF BOUND"
            failures.append(f"{workload} {name}: worse by {worse:.1%}, bound {spec_metric['bound']:.0%}")
        print(f"{workload:<24} {name:<28} {a:>16.6g} {b:>16.6g} {worse:>+9.1%} {spec_metric['bound']:>6.0%}{verdict}")

if failures:
    print("\nselfcheck FAILED:")
    for failure in failures:
        print("  " + failure)
    sys.exit(1)
print("\nselfcheck passed: simulated metrics reproduced exactly, host metrics within bounds")
PY
