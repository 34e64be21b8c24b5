"""End-to-end benchmark for the Scatter reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload write_durable --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--workload`` names one workload of ``perfbench.workloads.WORKLOADS``
or ``all``.  Each run measures ``--seconds`` times the workload's
virtual-per-wall factor of simulated time (one to two times ``--seconds``
of wall time per workload on a 2-core x86 host).  It prints every end-to-end
metric by name with its unit; ``--trace 1`` adds the per-layer metrics,
taken from the untraced run's public counters plus one traced run of the
same seed.  The last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit status is 0 only if every run passed its correctness checks:
no linearizability violation over the full history, a clean
``ScatterSystem.audit()``, a consistent ring, no abort, and (with
``--trace 1``) a traced run whose virtual-time metrics and counts equal
the untraced run's exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

E2E_UNITS = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "p999_ms": "ms",
    "ok_frac": "frac",
    "host_us_per_op": "us",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _ensure_program() -> None:
    """Put the program on the path, or fail before measuring anything."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def _pct(values: list[float], p: float) -> float:
    from repro.analysis.stats import percentile

    return percentile(values, p) if values else 0.0


def _frac(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(plain, traced, tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts from ``plain``, spans and waits from ``tracer``."""
    from perfbench.tracing import LAYERS

    ops = max(1, plain.completed)
    c = plain.counts
    selfs = tracer.self_time()
    cells = {(layer, name): secs for layer, name, secs, _n in tracer.span_table()}

    def span_s(layer: str, name: str) -> float:
        return cells.get((layer, name), 0.0)

    calls, outcomes, wait_ms = tracer.counts, tracer.outcomes, tracer.wait_ms
    out = {
        "sim.events_per_op": (c["events"] / ops, "count"),
        "sim.events_per_s": (_frac(c["events"], plain.sim_s), "1/s"),
        "sim.msgs_per_op": (c["msgs"] / ops, "count"),
        "sim.send_self_s": (span_s("sim", "SimNetwork.send"), "s"),
        "net.timers_per_op": (calls["timers"] / ops, "count"),
        "net.set_timer_self_s": (span_s("net", "Node.set_timer"), "s"),
        "net.handler_self_s": (span_s("net", "Node._on_network_message"), "s"),
        "consensus.proposals_per_op": (calls["commit"] / ops, "count"),
        "consensus.commit_wait_p50_ms": (_pct(wait_ms("commit"), 50), "ms"),
        "consensus.commit_wait_p99_ms": (_pct(wait_ms("commit"), 99), "ms"),
        "consensus.propose_fail_frac": (_frac(outcomes("commit"), calls["commit"]), "frac"),
        "consensus.prepare_msgs": (calls["prepare_msgs"], "count"),
        "group.client_op_wait_p50_ms": (_pct(wait_ms("client_op"), 50), "ms"),
        "group.client_op_wait_p99_ms": (_pct(wait_ms("client_op"), 99), "ms"),
        "group.reject_frac": (_frac(outcomes("client_op"), calls["client_op"]), "frac"),
        "txn.group_ops": (calls["txn"], "count"),
        "txn.commit_frac": (_frac(outcomes("txn"), calls["txn"]), "frac"),
        "txn.op_wait_p50_ms": (_pct(wait_ms("txn"), 50), "ms"),
        "dht.hops_per_op": (c.get("hops", 0) / ops, "count"),
        "dht.attempts_per_op": (c.get("attempts", 0) / ops, "count"),
        "dht.useful_rpc_frac": (_frac(c.get("hops", 0), c.get("attempts", 0)), "frac"),
        "storage.fsyncs_per_op": (c["fsyncs"] / ops, "count"),
        "storage.fsync_wait_p50_ms": (_pct(wait_ms("fsync"), 50), "ms"),
        "storage.fsync_wait_p99_ms": (_pct(wait_ms("fsync"), 99), "ms"),
        "storage.wal_appends_per_op": (c["wal_appends"] / ops, "count"),
        "storage.mark_synced_self_s": (span_s("storage", "ReplicaStorage.mark_synced"), "s"),
        "storage.recoveries": (c["recoveries"], "count"),
        "storage.replayed_records": (c["replayed_records"], "count"),
        "store.applies_per_op": (c["applies"] / ops, "count"),
        "analysis.check_s": (plain.check_s, "s"),
        "analysis.violations": (plain.violations, "count"),
        "workloads.latency_samples": (c.get("latency_samples", 0), "count"),
        "workloads.max_backlog": (c.get("max_backlog", 0), "count"),
        "workloads.queued_frac": (_frac(c.get("queued", 0), plain.attempted), "frac"),
        "gc_s": (plain.gc_s, "s"),
        "trace_overhead": (_frac(traced.sim_s, plain.sim_s), "ratio"),
        "trace_coverage": (_frac(sum(selfs.values()), traced.sim_wall_s), "ratio"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    return out


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from perfbench import workloads
    from perfbench.tracing import LayerTracer

    repeats = workloads.WORKLOADS[name].setup_repeats
    plain = workloads.run(name, seed, seconds, setup_repeats=repeats)
    metrics = {k: (v, E2E_UNITS[k]) for k, v in plain.virtual_metrics().items()}
    metrics.update({k: (v, E2E_UNITS[k]) for k, v in plain.host_metrics().items()})
    problems = plain.problems()
    layers, spans = {}, []
    if trace:
        with LayerTracer() as tracer:
            traced = workloads.run(name, seed, seconds, setup_repeats=1, tracer=tracer)
        if (traced.virtual_metrics(), traced.counts) != (plain.virtual_metrics(), plain.counts):
            problems.append("traced run differs from untraced run in virtual time")
        layers = layer_metrics(plain, traced, tracer)
        spans = tracer.span_table()
    return {
        "workload": name,
        "seed": seed,
        "window_s": plain.window_s,
        "correct": not problems,
        "problems": problems,
        "attempted": plain.attempted,
        "failed": plain.failed,
        "samples": len(plain.latencies),
        "metrics": metrics,
        "layers": layers,
        "spans": spans,
    }


def _fmt(value: float) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def print_run(result: dict, top_spans: int) -> None:
    print(f"== {result['workload']} seed={result['seed']} window={result['window_s']:g} virtual s")
    print(
        f"  attempted {result['attempted']}  failed {result['failed']}"
        f"  latency samples {result['samples']}  correct {result['correct']}"
    )
    for problem in result["problems"]:
        print(f"  PROBLEM {problem}")
    for name, (value, unit) in list(result["metrics"].items()) + list(result["layers"].items()):
        print(f"  {name:32s} {_fmt(value):>14s} {unit}")
    for layer, name, secs, calls in result["spans"][:top_spans]:
        print(f"  span {layer:9s} {secs:9.4f} s {calls:9d} calls  {name}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", type=int, default=0, help="also print the N costliest spans")
    args = parser.parse_args(argv)
    _ensure_program()
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            parser.error(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)} or all")
    results = [run_one(name, args.seed, args.seconds, bool(args.trace)) for name in names]
    for result in results:
        print_run(result, args.spans)
    # With --trace 1 the JSON carries the per-layer metrics only.
    key = "layers" if args.trace else "metrics"
    prefix = len(results) > 1
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name): {"value": value, "unit": unit}
            for r in results
            for name, (value, unit) in r[key].items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
