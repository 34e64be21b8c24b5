"""The benchmark's three workloads, driven through the public API only.

Each workload builds a deployment with ``build_scatter_deployment``,
drives it with a load generator for a fixed stretch of *virtual* time
and returns a :class:`Measurement`: the end-to-end metrics plus the
per-layer counts read from public counters.  Nothing here touches
protocol code; tracing (``perfbench.tracing``) is layered on top by
wrapping entry points, never by a different code path.

Every workload runs with real durable storage (``StorageConfig()``:
2 ms fsync, no coalescing), the experiment Paxos profile and
``ClientConfig`` defaults, and sets no default-off protocol knob.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.stats import percentile
from repro.dht.client import OpRecord
from repro.faults import FaultTarget, build_scenario
from repro.harness.builders import (
    DeploymentParams,
    ScatterDeployment,
    build_scatter_deployment,
    experiment_scatter_config,
)
from repro.harness.experiments import CHURN_POLICY_KWARGS
from repro.harness.metrics import workload_metrics
from repro.policies import ScatterPolicy
from repro.storage.disk import StorageConfig
from repro.workloads import ClosedLoopWorkload, UniformKeys

# The measured window is ``seconds * VIRTUAL_PER_WALL[workload]`` of
# virtual time, so every virtual-time metric repeats exactly for a given
# (seed, seconds) pair.  On a 2-core x86 host running CPython 3.11 a
# window takes one to two times ``seconds`` of wall time.  write_durable
# gets the longest window because its p50 drifts slowly: at 70 virtual
# s its seed-to-seed spread was 10%.  At 20 s every workload yields well
# over 10k latency samples, so p999 has at least ten samples beyond it.
VIRTUAL_PER_WALL = {"write_durable": 6.0, "read_ring": 2.0, "crash_restart": 30.0}

# Host cost is CPU time of this process, not wall time: on a shared
# host the process is descheduled at random, which wall time would
# charge to the simulator.  For this single-threaded program the two
# agree when nothing else runs.
host_clock = time.process_time

# Sub-windows the measured window is cut into for host_us_per_op: the
# median over slices shrugs off a burst of host noise in one of them.
SLICES = 5

# Upper bound on the post-window drain: the client op timeout (8 s)
# plus slack, after which every in-window op has resolved.
DRAIN_CAP_S = 10.0


@dataclass
class Measurement:
    """One workload run: end-to-end metrics, per-layer counts, checks."""

    window_s: float
    attempted: int = 0
    completed: int = 0
    latencies: list[float] = field(default_factory=list)
    violations: int = 0
    audit: list[str] = field(default_factory=list)
    ring_consistent: bool = True
    aborted: str | None = None
    # Host CPU seconds (host_clock), except sim_wall_s.
    setup_times: list[float] = field(default_factory=list)
    chunk_us_per_op: list[float] = field(default_factory=list)
    check_s: float = 0.0
    sim_s: float = 0.0
    sim_wall_s: float = 0.0
    gc_s: float = 0.0
    # Exact per-seed counts over the window, from public counters.
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    def problems(self) -> list[str]:
        """Failed correctness checks; empty for a correct run."""
        found = [f"aborted: {self.aborted}"] if self.aborted else []
        if self.violations:
            found.append(f"{self.violations} linearizability violations")
        if not self.ring_consistent:
            found.append("ring is not consistent")
        return found + [f"audit: {p}" for p in self.audit]

    def virtual_metrics(self) -> dict[str, float]:
        """End-to-end metrics in simulated time: exact per seed."""
        lat = self.latencies
        return {
            "ops_per_s": self.completed / self.window_s,
            "p50_ms": 1000 * percentile(lat, 50) if lat else 0.0,
            "p99_ms": 1000 * percentile(lat, 99) if lat else 0.0,
            "p999_ms": 1000 * percentile(lat, 99.9) if lat else 0.0,
            "ok_frac": self.completed / self.attempted if self.attempted else 0.0,
        }

    def host_metrics(self) -> dict[str, float]:
        """End-to-end metrics of the host process: CPU time and memory."""
        per_op_check = 1e6 * self.check_s / max(1, self.completed)
        # An aborted run completes no op, so it has no cost per op.
        simulate = statistics.median(self.chunk_us_per_op) if self.chunk_us_per_op else 0.0
        return {
            "host_us_per_op": simulate + per_op_check,
            "setup_s": statistics.median(self.setup_times),
            # Peak resident set of this process; Linux reports KiB.
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


class OpenLoopWorkload:
    """Poisson arrivals handed to idle clients; latency from due time.

    Ops fall due on a fixed-rate Poisson schedule whatever the system
    does.  Each due op goes to the longest-idle client of the pool (one
    op in flight per client keeps per-client histories sequential, as
    the linearizability checker assumes); if none is idle the op waits
    in a backlog.  Latency runs from the op's *due* time, so a stall
    also charges the wait it imposes on later ops.
    """

    def __init__(self, sim, clients, keys, rate: float, read_fraction: float) -> None:
        self.sim = sim
        self.clients = clients
        self.keys = keys
        self.rate = rate
        self.read_fraction = read_fraction
        self.rng = sim.rng("openloop")
        self._idle = deque(clients)
        self._backlog: deque[float] = deque()
        self._running = False
        self._op_counter = 0
        # (due_time, record) of every issued op.
        self.issued: list[tuple[float, OpRecord]] = []
        self.max_backlog = 0
        self.queued = 0

    def start(self) -> None:
        self._running = True
        self.sim.schedule(self.rng.expovariate(self.rate), self._arrive)

    def stop(self) -> None:
        """Stop new arrivals; ops already due still run."""
        self._running = False

    def _arrive(self) -> None:
        if not self._running:
            return
        self._backlog.append(self.sim.now)
        self._dispatch()
        if self._backlog:  # FIFO: this op, at least, waits for a client
            self.queued += 1
            self.max_backlog = max(self.max_backlog, len(self._backlog))
        self.sim.schedule(self.rng.expovariate(self.rate), self._arrive)

    def _dispatch(self) -> None:
        while self._backlog and self._idle:
            due = self._backlog.popleft()
            client = self._idle.popleft()
            key = self.keys.sample(self.rng)
            if self.rng.random() < self.read_fraction:
                future = client.get(key)
            else:
                self._op_counter += 1
                future = client.put(key, f"{client.node_id}#{self._op_counter}")
            self.issued.append((due, client.records[-1]))
            future.add_callback(lambda _f, c=client: self._on_done(c))

    def _on_done(self, client) -> None:
        self._idle.append(client)
        self._dispatch()

    @property
    def backlog(self) -> list[float]:
        """Due times of ops still waiting for an idle client."""
        return list(self._backlog)

    def all_records(self) -> list:
        return [record for client in self.clients for record in client.records]


@dataclass(frozen=True)
class WorkloadSpec:
    """How to build, load and fault one workload."""

    params: Callable[[int], DeploymentParams]
    build: Callable[[DeploymentParams], ScatterDeployment]
    load: Callable[[ScatterDeployment], object]
    ramp_s: float
    # Builds per run for setup_s: a small deployment builds in ~10 ms,
    # so it is built often enough for the median to steady.
    setup_repeats: int
    open_loop: bool = False
    scenario: str | None = None


def _durable_config(**overrides):
    config = experiment_scatter_config(storage=StorageConfig())
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


# Why each workload: write_durable saturates the durable write path, so
# consensus, storage and store do most of the work while routing stays
# at one hop.  read_ring is the opposite: dht routing (the 128-entry
# client cache is smaller than the 160-group ring) and sim do the work,
# storage almost none.  crash_restart is the only one where elections,
# WAL replay, removal and rejoin, and client retries run; its open loop
# counts the ops that fall due during a failover.
WORKLOADS: dict[str, WorkloadSpec] = {
    "write_durable": WorkloadSpec(
        params=lambda seed: DeploymentParams(n_nodes=9, n_groups=3, n_clients=48, seed=seed),
        # E19's CPU model: 0.2 ms per client op, 1 ms per group message.
        build=lambda p: build_scatter_deployment(
            p, config=_durable_config(op_service_time=0.0002, msg_service_time=0.001)
        ),
        load=lambda d: ClosedLoopWorkload(
            d.sim, d.clients, UniformKeys(60), read_fraction=0.1, think_time=0.0
        ),
        ramp_s=3.0,
        setup_repeats=40,
    ),
    "read_ring": WorkloadSpec(
        params=lambda seed: DeploymentParams(n_nodes=480, n_groups=160, n_clients=16, seed=seed),
        build=lambda p: build_scatter_deployment(p, config=_durable_config()),
        load=lambda d: ClosedLoopWorkload(
            d.sim, d.clients, UniformKeys(3840), read_fraction=0.9, think_time=0.0
        ),
        # The sixteen clients' caches take ~15 virtual s to reach their
        # steady miss rate; measuring earlier would time the warm-up.
        ramp_s=16.0,
        setup_repeats=3,
    ),
    "crash_restart": WorkloadSpec(
        params=lambda seed: DeploymentParams(n_nodes=20, n_groups=4, n_clients=400, seed=seed),
        build=lambda p: build_scatter_deployment(
            p, policy=ScatterPolicy(**CHURN_POLICY_KWARGS), config=_durable_config()
        ),
        # 400 clients >= 50 ops/s x the 8 s op timeout: a due op finds
        # an idle client unless the system itself is stalled.
        load=lambda d: OpenLoopWorkload(
            d.sim, d.clients, UniformKeys(400), rate=50.0, read_fraction=0.5
        ),
        ramp_s=5.0,
        setup_repeats=20,
        open_loop=True,
        scenario="clean_crash",
    ),
}


def counter_snapshot(deployment: ScatterDeployment) -> dict[str, int]:
    """Public cumulative counters of every layer, read at one instant."""
    system = deployment.system
    nodes = system.nodes.values()
    regions = [r for node in nodes if node.disk is not None for r in node.disk.regions.values()]
    return {
        "events": deployment.sim.events_processed,
        "msgs": deployment.net.stats.sent,
        "fsyncs": sum(r.fsyncs for r in regions),
        # WAL sequence numbers are never reused: the last one counts appends.
        "wal_appends": sum(r.current_seq() for r in regions),
        "recoveries": sum(r.recoveries for r in regions),
        "replayed_records": sum(r.replayed_total for r in regions),
        "applies": sum(g.store.ops_applied for node in nodes for g in node.groups.values()),
        "txns_started": sum(sum(node.stats_txns.values()) for node in nodes),
    }


def setup(spec: WorkloadSpec, seed: int, repeats: int) -> tuple[ScatterDeployment, list[float]]:
    """Build the deployment ``repeats`` times; keep the last, time each.

    Every build is identical for one seed, so repeating it only gives
    setup_s a median instead of a single reading.
    """
    times = []
    deployment = None
    for _ in range(repeats):
        deployment = None
        gc.collect()
        start = host_clock()
        deployment = spec.build(spec.params(seed))
        times.append(host_clock() - start)
    return deployment, times




def run(name: str, seed: int, seconds: float, setup_repeats: int = 1, tracer=None) -> Measurement:
    """Run one workload for ``seconds * VIRTUAL_PER_WALL`` virtual seconds.

    ``tracer`` (a :class:`perfbench.tracing.LayerTracer`, optional) has
    already wrapped the program's entry points; here it only wraps the
    benchmark's own calls into the run loop, and is told where the
    measured window begins and ends.
    """
    spec = WORKLOADS[name]
    window = seconds * VIRTUAL_PER_WALL[name]
    m = Measurement(window_s=window)
    deployment, m.setup_times = setup(spec, seed, setup_repeats)
    sim, system = deployment.sim, deployment.system
    run_for = sim.run_for
    if tracer is not None:
        run_for = tracer.span("sim", "Simulator.run_for", run_for)
    load = spec.load(deployment)
    start = sim.now + spec.ramp_s
    end = start + window
    before = after = None
    load.start()
    try:
        run_for(spec.ramp_s)
        suite = None
        if spec.scenario is not None:
            suite = build_scenario(spec.scenario, sim, FaultTarget.for_system(system))
            suite.start()
        before = counter_snapshot(deployment)
        if tracer is not None:
            tracer.window_begin()
        times = []
        wall_start = time.perf_counter()
        with _GcClock() as gc_clock:
            for _ in range(SLICES):
                t0 = host_clock()
                run_for(window / SLICES)
                times.append(host_clock() - t0)
        m.sim_wall_s = time.perf_counter() - wall_start
        after = counter_snapshot(deployment)
        if tracer is not None:
            tracer.window_end()
        m.gc_s = gc_clock.paused
        m.sim_s = sum(times)
        m.chunk_us_per_op = _chunk_costs(load, spec, start, end, times)
        if suite is not None:
            suite.stop()
        load.stop()
        _drain(load, spec, start, end, run_for)
    except Exception as exc:  # the program aborted: report it, fail its ops
        traceback.print_exc(file=sys.stderr)
        m.aborted = f"{type(exc).__name__}: {exc}"
        if tracer is not None:
            tracer.window_end()
        after = counter_snapshot(deployment)
        before = before or after
    m.counts = {k: after[k] - before[k] for k in after}
    _collect_ops(m, load, spec, start, end, abort_time=sim.now)
    if m.aborted is None:
        t0 = host_clock()
        m.violations = workload_metrics(load.all_records())["violations"]
        m.check_s = host_clock() - t0
        m.ring_consistent = system.ring_is_consistent()
        m.audit = system.audit()
    return m


class _GcClock:
    """Wall time spent in the cyclic garbage collector, while registered."""

    def __init__(self) -> None:
        self.paused = 0.0
        self._start = 0.0

    def __call__(self, phase: str, _info: dict) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.paused += time.perf_counter() - self._start

    def __enter__(self) -> "_GcClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _chunk_costs(
    load, spec: WorkloadSpec, start: float, end: float, times: list[float]
) -> list[float]:
    """Host us per op completed, for each equal virtual slice of the window."""
    width = (end - start) / len(times)
    done = [0] * len(times)
    for _t, r in window_ops(load, spec, start, end):
        if r.completed and r.response_time < end:
            done[min(len(times) - 1, int((r.response_time - start) / width))] += 1
    return [1e6 * spent / max(1, n) for spent, n in zip(times, done)]


def window_ops(load, spec: WorkloadSpec, start: float, end: float) -> list[tuple[float, OpRecord]]:
    """(start_time, record) of every op issued in [start, end).

    Closed-loop ops start at invocation; open-loop ops at their due time.
    """
    if spec.open_loop:
        return [(due, r) for due, r in load.issued if start <= due < end]
    return [(r.invoke_time, r) for r in load.all_records() if start <= r.invoke_time < end]


def _unissued(load, spec: WorkloadSpec, start: float, end: float) -> int:
    """Open-loop ops due in the window still waiting for a client."""
    if not spec.open_loop:
        return 0
    return sum(1 for due in load.backlog if start <= due < end)


def _drain(load, spec: WorkloadSpec, start: float, end: float, run_for) -> None:
    """Run on, with no new load, until every in-window op has resolved."""
    waited = 0.0
    while waited < DRAIN_CAP_S:
        ops = window_ops(load, spec, start, end)
        if not _unissued(load, spec, start, end) and all(r.response_time >= 0 for _t, r in ops):
            return
        run_for(0.5)
        waited += 0.5


def _collect_ops(
    m: Measurement, load, spec: WorkloadSpec, start: float, end: float, abort_time: float
) -> None:
    ops = window_ops(load, spec, start, end)
    m.attempted = len(ops) + _unissued(load, spec, start, end)
    if m.aborted is not None:
        # Every op due in an aborted run counts as failed, including
        # the open-loop arrivals the abort kept from falling due (at the
        # schedule's mean rate over the rest of the window).
        if spec.open_loop and abort_time < end:
            m.attempted += round(load.rate * (end - max(start, abort_time)))
        m.completed = 0
        return
    done = [(t, r) for t, r in ops if r.completed]
    m.completed = len(done)
    m.latencies = [r.response_time - t for t, r in done]
    m.counts["latency_samples"] = len(done)
    m.counts["hops"] = sum(r.hops for _t, r in done)
    m.counts["attempts"] = sum(r.attempts for _t, r in done)
    if spec.open_loop:
        m.counts["max_backlog"] = load.max_backlog
        m.counts["queued"] = load.queued
