"""Tests for Paxos write batching."""

import pytest

from repro.consensus import Command, NotLeader, PaxosConfig
from repro.consensus.harness import build_cluster, current_leader
from repro.sim import ConstantLatency, SimNetwork, Simulator

BATCHING = PaxosConfig(
    heartbeat_interval=0.1,
    election_timeout=0.5,
    lease_duration=0.35,
    retry_interval=0.3,
    batch_window=0.005,
    batch_max=8,
)


def make_cluster(n=3, seed=0, config=BATCHING):
    sim = Simulator(seed=seed)
    net = SimNetwork(sim, latency=ConstantLatency(0.005))
    hosts = build_cluster(sim, net, n=n, config=config)
    sim.run_for(1.0)
    return sim, net, hosts


def app_payloads(host):
    out = []
    for _slot, command in host.applied:
        if command.kind == "app":
            out.append(command.payload)
    return out


class TestBatching:
    def test_burst_lands_in_fewer_slots(self):
        sim, net, hosts = make_cluster()
        slots_before = hosts[0].replica.log.max_slot
        futures = [hosts[0].propose(Command.app(i)) for i in range(24)]
        sim.run_for(3.0)
        assert all(f.result() == i for i, f in enumerate(futures))
        slots_used = hosts[0].replica.log.max_slot - slots_before
        assert slots_used <= 6, f"24 ops used {slots_used} slots (batch_max=8)"

    def test_results_map_to_right_commands(self):
        sim, net, hosts = make_cluster()
        futures = {i: hosts[0].propose(Command.app(f"v{i}")) for i in range(10)}
        sim.run_for(3.0)
        for i, f in futures.items():
            assert f.result() == f"v{i}"

    def test_order_preserved_across_batches(self):
        sim, net, hosts = make_cluster()
        for i in range(30):
            hosts[0].propose(Command.app(i))
        sim.run_for(3.0)
        for host in hosts:
            assert app_payloads(host) == list(range(30))

    def test_config_change_flushes_buffer_and_orders(self):
        sim, net, hosts = make_cluster()
        f1 = hosts[0].propose(Command.app("before"))
        fc = hosts[0].propose(Command.config("remove", "n2"))
        f2 = hosts[0].propose(Command.app("after"))
        sim.run_for(3.0)
        assert f1.result() == "before"
        assert fc.exception is None
        assert f2.result() == "after"
        assert app_payloads(hosts[0]) == ["before", "after"]
        assert hosts[0].replica.members == ["n0", "n1"]

    def test_buffered_commands_fail_on_leader_loss(self):
        sim, net, hosts = make_cluster(n=3)
        # Kill quorum so the buffered command can never commit, then
        # force step-down via timeout-driven retirement of leadership.
        hosts[1].crash()
        hosts[2].crash()
        f = hosts[0].propose(Command.app("doomed"))
        hosts[0].crash()
        hosts[0].restart()  # restart clears volatile leader state
        sim.run_for(1.0)
        assert f.done
        with pytest.raises(Exception):
            f.result()

    def test_batching_off_uses_one_slot_per_op(self):
        config = PaxosConfig(
            heartbeat_interval=0.1,
            election_timeout=0.5,
            lease_duration=0.35,
            batch_max=1,
        )
        sim, net, hosts = make_cluster(config=config)
        before = hosts[0].replica.log.max_slot
        futures = [hosts[0].propose(Command.app(i)) for i in range(10)]
        sim.run_for(3.0)
        assert all(f.exception is None for f in futures)
        assert hosts[0].replica.log.max_slot - before >= 10

    def test_batch_reduces_messages_for_bursts(self):
        def run(batch):
            config = PaxosConfig(
                heartbeat_interval=0.1, election_timeout=0.5, lease_duration=0.35,
                batch_window=0.005, batch_max=16 if batch else 1,
            )
            sim = Simulator(seed=5)
            net = SimNetwork(sim, latency=ConstantLatency(0.005))
            hosts = build_cluster(sim, net, n=3, config=config)
            sim.run_for(1.0)
            before = net.stats.sent
            futures = []
            for burst in range(5):
                futures.extend(hosts[0].propose(Command.app(f"{burst}:{i}")) for i in range(16))
                sim.run_for(0.5)
            assert all(f.exception is None for f in futures)
            return net.stats.sent - before

        assert run(True) < 0.5 * run(False)
