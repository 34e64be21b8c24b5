"""The write-path throughput stack: WAL group commit, pipelined slots
with flow control, accept coalescing, and the batch-timer fix.

Covers four layers: the group-commit scheduler on the disk model
(single fsync covering a window of appends, crash semantics), pipeline
flow control in the leader (bounded in-flight slots + admission queue),
accept coalescing on the wire (multi-slot Accept/Accepted runs), and the
zero-perturbation guarantee that all knobs at their defaults leave
deployments byte-identical to builds that never had them.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.consensus.commands import Command
from repro.consensus.harness import build_cluster
from repro.consensus.messages import Accept, Accepted, Prepare, Promise
from repro.consensus.replica import PaxosConfig
from repro.harness.builders import (
    DeploymentParams,
    build_scatter_deployment,
    experiment_scatter_config,
)
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.sim.latency import ConstantLatency
from repro.storage.disk import NodeDisk, StorageConfig
from repro.workloads import UniformKeys
from repro.workloads.driver import ClosedLoopWorkload

FAST = dict(
    heartbeat_interval=0.1,
    election_timeout=0.5,
    lease_duration=0.35,
    retry_interval=0.3,
)


def make_cluster(config, storage=None, seed=0, n=3):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=ConstantLatency(0.005))
    net.stats.count_types = True
    hosts = build_cluster(sim, net, n=n, config=config, storage=storage)
    sim.run_for(1.0)
    return sim, net, hosts


def app_payloads(host):
    return [c.payload for _slot, c in host.applied if c.kind == "app"]


def total_fsyncs(hosts):
    return sum(
        region.fsyncs for h in hosts if h.disk for region in h.disk.regions.values()
    )


# ---------------------------------------------------------------------------
# WAL group commit
# ---------------------------------------------------------------------------
class TestGroupCommit:
    def test_one_fsync_covers_a_window_of_appends(self):
        def fsyncs_for(coalesce):
            sim, net, hosts = make_cluster(
                PaxosConfig(**FAST),
                storage=StorageConfig(fsync_coalesce=coalesce),
            )
            before = total_fsyncs(hosts)
            futures = [hosts[0].propose(Command.app(i)) for i in range(30)]
            sim.run_for(3.0)
            assert all(f.exception is None for f in futures)
            return total_fsyncs(hosts) - before

        grouped = fsyncs_for(0.005)
        per_ack = fsyncs_for(0.0)
        assert grouped < 0.5 * per_ack, (grouped, per_ack)

    def test_group_commit_queue_drops_with_power_failure(self):
        # Unit-level: acks queued behind the coalescing window must die
        # with the un-fsynced suffix when the node loses power.
        disk = NodeDisk("n0", StorageConfig(fsync_coalesce=0.005))
        region = disk.storage_for("g")
        timers = []
        fired = []
        region.append_accept(0, (1, "n0"), "a")
        disk.enqueue_fsync(
            region,
            region.current_seq(),
            lambda delay, fn: timers.append((delay, fn)),
            lambda: fired.append(0),
        )
        region.append_accept(1, (1, "n0"), "b")
        disk.enqueue_fsync(
            region,
            region.current_seq(),
            lambda delay, fn: timers.append((delay, fn)),
            lambda: fired.append(1),
        )
        assert len(timers) == 1  # one armed window, not one timer per ack
        disk.power_failure()
        # The crash-guarded timer never fires in the real system; even if
        # the completion ran, the queue is empty and nothing acks.
        timers[0][1]()
        assert fired == []
        assert region.records == []  # whole suffix was volatile
        assert region.fsyncs == 0

    def test_completed_group_fsync_fans_out_all_acks(self):
        disk = NodeDisk("n0", StorageConfig(fsync_coalesce=0.005))
        region_a = disk.storage_for("a")
        region_b = disk.storage_for("b")
        timers = []
        fired = []
        region_a.append_accept(0, (1, "n0"), "x")
        disk.enqueue_fsync(
            region_a,
            region_a.current_seq(),
            lambda d, fn: timers.append(fn),
            lambda: fired.append("a0"),
        )
        region_b.append_promise((2, "n1"))
        disk.enqueue_fsync(
            region_b,
            region_b.current_seq(),
            lambda d, fn: timers.append(fn),
            lambda: fired.append("b0"),
        )
        assert len(timers) == 1
        timers[0]()
        assert fired == ["a0", "b0"]
        # One fsync per region in the batch, each covering its whole tail.
        assert region_a.fsyncs == 1 and region_b.fsyncs == 1
        assert region_a.synced_seq == region_a.current_seq()
        assert region_b.synced_seq == region_b.current_seq()

    def test_crash_during_window_recovers_clean(self):
        # A follower crashing mid-window must come back with no reneged
        # promise/accept: every ack it sent was covered by an fsync.
        config = PaxosConfig(**FAST)
        sim, net, hosts = make_cluster(
            config, storage=StorageConfig(fsync_coalesce=0.004)
        )
        for i in range(10):
            hosts[0].propose(Command.app(i))
        sim.run_for(0.03)  # mid-burst: un-fsynced windows are open
        hosts[1].crash()
        sim.run_for(0.5)
        hosts[1].restart()
        sim.run_for(2.0)
        for region in hosts[1].disk.regions.values():
            assert region.reneged == []
            assert region.recoveries >= 1
        more = [hosts[0].propose(Command.app(f"post{i}")) for i in range(5)]
        sim.run_for(2.0)
        assert all(f.exception is None for f in more)

    def test_io_error_at_group_fsync_withholds_every_ack(self):
        disk = NodeDisk("n0", StorageConfig(fsync_coalesce=0.005))
        region = disk.storage_for("g")
        fired = []
        timers = []
        region.append_accept(0, (1, "n0"), "x")
        disk.enqueue_fsync(
            region, region.current_seq(), lambda d, fn: timers.append(fn), lambda: fired.append(0)
        )
        disk.io_error = True
        timers[0]()
        assert fired == []
        assert region.fsyncs == 0  # batch stayed volatile; leader retries


# ---------------------------------------------------------------------------
# Pipeline flow control
# ---------------------------------------------------------------------------
class TestPipeline:
    def test_depth_bounds_in_flight_slots(self):
        sim, net, hosts = make_cluster(PaxosConfig(pipeline_depth=4, **FAST))
        futures = [hosts[0].propose(Command.app(i)) for i in range(30)]
        replica = hosts[0].replica
        assert len(replica._pending) <= 4
        assert len(replica._queue) >= 30 - 4
        sim.run_for(5.0)
        assert all(f.result() == i for i, f in enumerate(futures))
        for host in hosts:
            assert app_payloads(host) == list(range(30))

    def test_window_stays_bounded_throughout_the_run(self):
        sim, net, hosts = make_cluster(PaxosConfig(pipeline_depth=2, **FAST))
        for i in range(20):
            hosts[0].propose(Command.app(i))
        high_water = [0]

        def probe():
            high_water[0] = max(high_water[0], len(hosts[0].replica._pending))
            sim.schedule(0.002, probe)

        sim.schedule(0.0, probe)
        sim.run_for(5.0)
        assert 0 < high_water[0] <= 2

    def test_depth_zero_is_unbounded(self):
        sim, net, hosts = make_cluster(PaxosConfig(pipeline_depth=0, **FAST))
        futures = [hosts[0].propose(Command.app(i)) for i in range(30)]
        assert len(hosts[0].replica._pending) == 30
        assert hosts[0].replica._queue == []
        sim.run_for(3.0)
        assert all(f.exception is None for f in futures)


# ---------------------------------------------------------------------------
# Accept coalescing
# ---------------------------------------------------------------------------
class TestAcceptCoalescing:
    def run_burst(self, coalescing, pipeline_depth=8):
        sim, net, hosts = make_cluster(
            PaxosConfig(
                accept_coalescing=coalescing, pipeline_depth=pipeline_depth, **FAST
            ),
            seed=3,
        )
        # The network wraps everything in RPC envelopes, so record run
        # lengths where the replicas actually receive the messages: one
        # entry per delivered Accept (slots carried) and per Accepted
        # (slots acked).
        accept_runs: list[int] = []
        accepted_runs: list[int] = []
        for host in hosts:
            original = host.replica.on_message

            def wrapped(src, msg, _orig=original):
                if type(msg) is Accept:
                    accept_runs.append(len(msg.commands))
                elif type(msg) is Accepted:
                    accepted_runs.append(len(msg.slots))
                return _orig(src, msg)

            host.replica.on_message = wrapped
        futures = [hosts[0].propose(Command.app(i)) for i in range(24)]
        sim.run_for(3.0)
        assert all(f.result() == i for i, f in enumerate(futures))
        for host in hosts:
            assert app_payloads(host) == list(range(24))
        return accept_runs, accepted_runs

    def test_bursts_pack_into_accept_batches(self):
        accepts, accepteds = self.run_burst(coalescing=True)
        assert max(accepts) > 1
        assert max(accepteds) > 1
        # A 24-op burst costs far fewer than 24 Accepts per peer.
        plain_accepts, _ = self.run_burst(coalescing=False)
        assert len(accepts) < 0.5 * len(plain_accepts)

    def test_coalescing_off_sends_no_batches(self):
        accepts, accepteds = self.run_burst(coalescing=False)
        assert len(accepts) >= 24 * 3
        assert set(accepts) == {1}
        assert accepteds and set(accepteds) == {1}

    def test_retry_after_partition_retransmits_batches(self):
        sim, net, hosts = make_cluster(
            PaxosConfig(accept_coalescing=True, pipeline_depth=8, **FAST)
        )
        net.block("n0", "n2")
        futures = [hosts[0].propose(Command.app(i)) for i in range(6)]
        sim.run_for(1.0)  # commits via n1; n2 misses the original sends
        net.heal()
        sim.run_for(2.0)
        assert all(f.exception is None for f in futures)
        assert app_payloads(hosts[2]) == list(range(6))


# ---------------------------------------------------------------------------
# Acceptor IO errors: a slot whose WAL append failed is never acked
# ---------------------------------------------------------------------------
def record_sends(replica):
    """Every message ``replica`` sends, in order."""
    sent = []
    send = replica.transport.send

    def recording(dst, msg):
        sent.append(msg)
        send(dst, msg)

    replica.transport.send = recording
    return sent


class TestAcceptorIoError:
    @pytest.mark.parametrize("coalescing", [False, True])
    def test_failed_accept_appends_are_never_acked(self, coalescing):
        sim, net, hosts = make_cluster(
            PaxosConfig(accept_coalescing=coalescing, **FAST), storage=StorageConfig()
        )
        follower = hosts[1]
        storage = follower.replica.storage
        # n1 is the leader's only reachable peer, so nothing is chosen
        # without its acks.
        net.block("n0", "n2")
        # The disk fails exactly while n1 handles an Accept and is healthy
        # again by the time the covering fsync completes: only the
        # append-time check stands between the failed slots and an ack.
        failing = [True]
        runs = []
        deliver = follower.replica.on_message

        def flaky(src, msg):
            if type(msg) is Accept and failing[0]:
                runs.append(len(msg.commands))
                follower.disk.io_error = True
                try:
                    deliver(src, msg)
                finally:
                    follower.disk.io_error = False
            else:
                deliver(src, msg)

        follower.replica.on_message = flaky
        sent = record_sends(follower.replica)
        futures = [hosts[0].propose(Command.app(i)) for i in range(6)]
        slots = sorted(hosts[0].replica._pending)
        assert len(slots) == 6
        sim.run_for(1.0)  # the first send plus at least one retry round
        if coalescing:
            assert max(runs) > 1
        else:
            assert len(runs) >= 6 and set(runs) == {1}
        acked = [s for m in sent if type(m) is Accepted for s in m.slots]
        assert not set(acked) & set(slots)
        assert not set(storage.acked_accepts) & set(slots)
        assert not any(f.done for f in futures)

        failing[0] = False
        sim.run_for(3.0)  # the leader's retry tick resends; n1 now acks
        assert [f.result() for f in futures] == list(range(6))
        assert all(hosts[0].replica.log.is_chosen(s) for s in slots)
        assert set(slots) <= set(storage.acked_accepts)

    def test_failed_promise_append_sends_no_promise(self):
        sim, net, hosts = make_cluster(PaxosConfig(**FAST), storage=StorageConfig())
        replica = hosts[1].replica
        sent = record_sends(replica)
        # From the current leader, so the lease guard lets it through.
        ballot = (replica.promised[0] + 1, "n0")
        hosts[1].disk.io_error = True
        replica.on_message("n0", Prepare(ballot=ballot, from_slot=0))
        hosts[1].disk.io_error = False
        sim.run_for(0.1)
        assert not any(type(m) is Promise for m in sent)
        assert replica.storage.acked_promise < ballot

        higher = (ballot[0] + 1, "n0")
        replica.on_message("n0", Prepare(ballot=higher, from_slot=0))
        sim.run_for(0.1)
        assert [m.ballot for m in sent if type(m) is Promise] == [higher]
        assert replica.storage.acked_promise == higher


# ---------------------------------------------------------------------------
# Stale batch-window timer (satellite fix)
# ---------------------------------------------------------------------------
class TestBatchTimerCancel:
    def test_early_flush_cancels_window_timer(self):
        config = PaxosConfig(batch_window=0.05, batch_max=4, **FAST)
        sim, net, hosts = make_cluster(config)
        replica = hosts[0].replica
        t0 = sim.now
        hosts[0].propose(Command.app("arm"))  # arms the window timer at t0
        sim.run_for(0.02)
        # Hitting batch_max flushes early and must cancel the t0 timer.
        for i in range(4):
            hosts[0].propose(Command.app(f"fill{i}"))
        hosts[0].propose(Command.app("late"))  # second batch, armed at t0+0.02
        assert replica._batch_buffer, "the late op waits for its own window"
        sim.run_for(0.04)  # past t0+0.05 (stale timer) but before t0+0.07
        assert sim.now - t0 > 0.05
        assert replica._batch_buffer, (
            "stale window timer from the flushed batch must not flush "
            "the next batch before its own window"
        )
        sim.run_for(1.0)
        assert app_payloads(hosts[0]) == ["arm", "fill0", "fill1", "fill2", "fill3", "late"]


# ---------------------------------------------------------------------------
# Zero perturbation: all knobs at defaults == seed behavior
# ---------------------------------------------------------------------------
def _drive(seed, *, paxos_extra=None, storage=None, msg_service_time=0.0):
    paxos = PaxosConfig(
        heartbeat_interval=0.15,
        election_timeout=0.7,
        lease_duration=0.5,
        retry_interval=0.4,
        compact_threshold=400,
        **(paxos_extra or {}),
    )
    config = experiment_scatter_config(paxos=paxos, storage=storage)
    config.msg_service_time = msg_service_time
    params = DeploymentParams(n_nodes=9, n_groups=3, n_clients=2, seed=seed)
    deployment = build_scatter_deployment(params, config=config)
    workload = ClosedLoopWorkload(
        deployment.sim, deployment.clients, UniformKeys(20), read_fraction=0.5
    )
    workload.start()
    deployment.sim.run_for(10.0)
    workload.stop()
    deployment.sim.run_for(1.0)
    return (
        deployment.sim.events_processed,
        deployment.net.stats.sent,
        deployment.net.stats.delivered,
        [
            (r.op, r.key, round(r.invoke_time, 9), round(r.response_time, 9))
            for r in workload.all_records()
        ],
    )


FULL_STACK = dict(batch_max=16, pipeline_depth=8, accept_coalescing=True)


class TestZeroPerturbation:
    def test_defaults_identical_and_unaffected_by_enabled_runs(self):
        fp_a = _drive(seed=11)
        fp_on = _drive(
            seed=11,
            paxos_extra=FULL_STACK,
            storage=StorageConfig(fsync_coalesce=0.002),
            msg_service_time=0.001,
        )
        fp_b = _drive(seed=11)
        assert fp_a == fp_b
        assert fp_on != fp_a

    def test_enabled_runs_are_deterministic(self):
        kwargs = dict(
            paxos_extra=FULL_STACK,
            storage=StorageConfig(fsync_coalesce=0.002),
            msg_service_time=0.001,
        )
        assert _drive(seed=11, **kwargs) == _drive(seed=11, **kwargs)

    def test_group_commit_alone_perturbs_only_when_on(self):
        fp_off = _drive(seed=12, storage=StorageConfig())
        fp_on = _drive(seed=12, storage=StorageConfig(fsync_coalesce=0.002))
        fp_off2 = _drive(seed=12, storage=StorageConfig())
        assert fp_off == fp_off2
        assert fp_on != fp_off


# ---------------------------------------------------------------------------
# Fuzzer integration
# ---------------------------------------------------------------------------
class TestFuzzKnobs:
    def test_sampled_plans_randomize_write_path_knobs(self):
        from repro.check import sample_plan

        plans = [sample_plan(7, i) for i in range(24)]
        assert any(p.batching for p in plans)
        assert any(p.pipeline_depth > 0 for p in plans)
        assert any(p.accept_coalescing for p in plans)
        assert any(p.fsync_coalesce > 0 for p in plans)
        # ...and the defaults still appear, so both paths stay fuzzed.
        assert any(not p.batching for p in plans)
        assert any(p.fsync_coalesce == 0 for p in plans)

    def test_plan_roundtrip_preserves_knobs(self):
        from repro.check import sample_plan
        from repro.check.plan import plan_from_dict, plan_to_dict

        plan = sample_plan(7, 3)
        assert plan_from_dict(plan_to_dict(plan)) == plan

    def test_old_repro_files_deserialize_to_historical_defaults(self):
        from repro.check import sample_plan
        from repro.check.plan import plan_from_dict, plan_to_dict

        data = plan_to_dict(sample_plan(7, 3))
        for legacy_missing in (
            "batching",
            "pipeline_depth",
            "accept_coalescing",
            "fsync_coalesce",
        ):
            data.pop(legacy_missing)
        plan = plan_from_dict(data)
        assert plan.batching is False
        assert plan.pipeline_depth == 0
        assert plan.accept_coalescing is False
        assert plan.fsync_coalesce == 0.0

    def test_knobbed_plan_runs_clean(self):
        from repro.check import run_plan, sample_plan

        plan = next(
            replace(sample_plan(7, i), batching=True, pipeline_depth=4,
                    accept_coalescing=True, fsync_coalesce=0.002)
            for i in range(20)
            if any(e.kind.startswith("disk_") for e in sample_plan(7, i).schedule)
        )
        outcome = run_plan(plan)
        assert not outcome.failed, outcome.failure
        assert outcome.ops_completed > 0

    def test_forgotten_promise_caught_with_group_commit_on(self):
        # The canary bug must stay detectable when acks ride the
        # coalesced fsync path: acceptor-durability polices the batch.
        from repro.check import run_plan, sample_plan

        found = False
        for i in range(12):
            plan = replace(
                sample_plan(42, i),
                batching=True,
                pipeline_depth=4,
                accept_coalescing=True,
                fsync_coalesce=0.002,
            )
            outcome = run_plan(plan, bug="forgotten-promise")
            if outcome.failed and outcome.failure.name == "acceptor-durability":
                found = True
                break
        assert found, "canary must fire with the write-path stack enabled"
