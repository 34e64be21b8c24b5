"""Self-tests of the benchmark: determinism, zero-perturbation tracing,
open-loop timing and abort accounting.

Run from the repository root with ``python -m pytest perfbench/tests``.
Runs are short (a few virtual seconds), so they check mechanics, not
the figures the benchmark reports.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from perfbench import run, workloads
from perfbench.tracing import LayerTracer
from repro.net.futures import Future
from repro.sim.loop import Simulator
from repro.workloads import UniformKeys


def _virtual(m: workloads.Measurement):
    return m.virtual_metrics(), m.counts, m.attempted, m.completed, m.violations


@pytest.mark.parametrize("name,seconds", [("write_durable", 0.5), ("crash_restart", 0.3)])
def test_same_seed_same_virtual_results(name, seconds):
    first = workloads.run(name, seed=3, seconds=seconds)
    second = workloads.run(name, seed=3, seconds=seconds)
    assert first.completed > 100
    assert _virtual(first) == _virtual(second)


@pytest.mark.parametrize(
    "name,seconds", [("write_durable", 0.5), ("read_ring", 0.5), ("crash_restart", 0.3)]
)
def test_tracing_does_not_change_results(name, seconds):
    plain = workloads.run(name, seed=5, seconds=seconds)
    with LayerTracer() as tracer:
        traced = workloads.run(name, seed=5, seconds=seconds, tracer=tracer)
    assert plain.aborted is None and traced.aborted is None
    assert _virtual(traced) == _virtual(plain)
    if name == "crash_restart":  # the traced run went through WAL recovery
        assert plain.counts["recoveries"] > 0
    # The spans saw the layers the workload drives.
    selfs = tracer.self_time()
    for layer in ("sim", "net", "consensus", "group", "dht", "storage", "store", "workloads"):
        assert selfs.get(layer, 0.0) > 0.0, layer
    assert tracer.wait_ms("commit") and tracer.wait_ms("fsync")


def test_tracer_restores_patched_entry_points():
    from repro.dht import client

    def entry_points():
        return (Simulator.schedule, Simulator.__init__, client.ScatterClient.get, client.spawn)

    before = entry_points()
    with LayerTracer():
        assert Simulator.schedule is not before[0] and client.spawn is not before[3]
    assert entry_points() == before


class _StallingClient:
    """A client whose ops complete only when the test releases them."""

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.node_id = name
        self.records: list = []
        self.pending: list[tuple[Future, object]] = []

    def _op(self) -> Future:
        record = workloads.OpRecord(op="get", key=0, value=None, invoke_time=self.sim.now)
        self.records.append(record)
        future = Future()
        self.pending.append((future, record))
        return future

    def get(self, key):
        return self._op()

    def put(self, key, value):
        return self._op()

    def release(self) -> None:
        from repro.store.kvstore import KvResult

        pending, self.pending = self.pending, []
        for future, record in pending:
            record.response_time = self.sim.now
            record.result = KvResult(ok=True)
            future.set_result(record.result)


def test_open_loop_times_ops_from_due_time_when_clients_stall():
    sim = Simulator(seed=1)
    clients = [_StallingClient(sim, f"c{i}") for i in range(2)]
    load = workloads.OpenLoopWorkload(sim, clients, UniformKeys(10), rate=20.0, read_fraction=0.5)
    load.start()
    sim.run_for(5.0)  # both clients stall: ~100 ops fall due
    assert len(load.issued) == 2
    assert load.max_backlog == len(load.backlog) > 50
    assert load.queued == len(load.backlog)
    for _ in range(200):  # release one op per client at a time
        for client in clients:
            client.release()
        sim.run_for(0.01)
    load.stop()
    assert not load.backlog
    # Each op's latency runs from its due time, so queued ops waited
    # longer than their time in the client; the later due, the less.
    queued = load.issued[2:]
    waits = [r.response_time - due for due, r in queued]
    in_client = [r.response_time - r.invoke_time for _due, r in queued]
    assert max(in_client) < 0.02
    assert waits[0] > 4.0
    assert all(w >= c for w, c in zip(waits, in_client))


def test_aborted_run_counts_every_due_op_as_failed(monkeypatch):
    spec = workloads.WORKLOADS["crash_restart"]
    base_build = spec.build

    def build_then_fail(params):
        deployment = base_build(params)

        def boom():
            raise RuntimeError("injected abort")

        deployment.sim.schedule(spec.ramp_s + 2.0, boom)
        return deployment

    monkeypatch.setitem(
        workloads.WORKLOADS, "crash_restart", dataclasses.replace(spec, build=build_then_fail)
    )
    m = workloads.run("crash_restart", seed=2, seconds=0.3)
    assert m.aborted == "RuntimeError: injected abort"
    assert m.problems() == ["aborted: RuntimeError: injected abort"]
    assert m.completed == 0
    # 9 virtual s at 50 ops/s fall due, whether or not the abort let them.
    assert 9 * 50 * 0.7 < m.attempted == m.failed < 9 * 50 * 1.3


def test_benchmark_json_names_every_reported_metric_with_its_unit():
    doc = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    result = run.run_one("write_durable", seed=1, seconds=0.2, trace=True)
    assert result["correct"], result["problems"]
    for key, section in (("metrics", "end_to_end"), ("layers", "per_layer")):
        declared = {m["name"]: m["unit"] for m in doc[section]}
        reported = {name: unit for name, (_value, unit) in result[key].items()}
        assert declared == reported
