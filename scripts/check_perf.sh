#!/bin/sh
# One-command perf regression check: run the repro.perf microbenchmarks
# and compare against the committed BENCH_SIM.json, failing on any
# benchmark that drops below 0.6x its recorded throughput (the slack
# absorbs wall-clock noise on shared machines; genuine hot-path
# regressions are far larger).  A passing run rewrites the report in
# place, so an intentional perf change shows up as a BENCH_SIM.json diff
# for review; a failing run leaves it untouched, so a rerun fails too.
#
# Usage: scripts/check_perf.sh [extra `repro perf` flags]
set -e
cd "$(dirname "$0")/.."
PYTHONPATH=src python -m repro perf --json BENCH_SIM.json --fail-below 0.6 "$@"

# The ring-lookup microbenchmark must stay in the report, and its
# in-process A/B ratio (both paths timed in the same run, so immune to
# machine-to-machine throughput noise) must hold its floor: the bisect
# routing table beats the linear successor scan.
PYTHONPATH=src python - <<'EOF'
import json
import sys

with open("BENCH_SIM.json") as f:
    report = json.load(f)
by_name = {b["name"]: b for b in report["benchmarks"]}
failures = []
if "ring_lookup_10k" not in by_name:
    failures.append("ring_lookup_10k missing from BENCH_SIM.json")
else:
    ratio = by_name["ring_lookup_10k"].get("speedup_vs_linear", 0.0)
    if ratio < 1.5:
        failures.append(f"ring_lookup_10k speedup_vs_linear {ratio} < 1.5")
for line in failures:
    print(f"check_perf: {line}", file=sys.stderr)
sys.exit(1 if failures else 0)
EOF
