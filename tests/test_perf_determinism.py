"""Determinism guards for the simulator hot-path optimizations.

Fire-and-forget scheduling and the inlined run loops must be
*invisible* to seeded runs: same (configuration, seed) must produce
byte-identical rows and histories.
"""

from repro.harness.builders import DeploymentParams, build_scatter_deployment
from repro.harness.experiments import run_e06
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload


class TestE06Determinism:
    def test_e06_quick_rows_byte_identical(self):
        a = run_e06(quick=True, seed=6)
        b = run_e06(quick=True, seed=6)
        assert a.rows == b.rows
        # Wall-clock perf is reported out-of-band, never in the rows.
        assert "events_per_s_wall" in a.perf
        assert all("events_per_s_wall" not in row for row in a.rows)

    def test_e06_reports_sim_events(self):
        result = run_e06(quick=True, seed=6)
        assert result.column("sim_events")[-1] > 0


def deployment_fingerprint(seed: int):
    """(events, sends, client history) for a short fault-free run."""
    params = DeploymentParams(n_nodes=15, n_groups=5, n_clients=3, seed=seed)
    deployment = build_scatter_deployment(params)
    sim = deployment.sim
    workload = ClosedLoopWorkload(
        sim, deployment.clients, UniformKeys(40), read_fraction=0.5
    )
    workload.start()
    sim.run_for(15.0)
    workload.stop()
    sim.run_for(1.0)
    history = tuple(
        (r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9))
        for r in workload.all_records()
    )
    return sim.events_processed, deployment.net.stats.sent, history


class TestFastPathDeterminism:
    """Same seed => same run; different seed => different run."""

    def test_fingerprint_reproduces(self):
        assert deployment_fingerprint(12) == deployment_fingerprint(12)

    def test_different_seeds_differ(self):
        assert deployment_fingerprint(11) != deployment_fingerprint(13)
