"""Unit tests for latency models and the simulated network."""

import random

import pytest

from repro.sim import (
    ConstantLatency,
    LogNormalLatency,
    SimNetwork,
    Simulator,
    UniformLatency,
    WanLatencyMatrix,
)


class TestLatencyModels:
    def test_constant(self):
        model = ConstantLatency(0.01)
        rng = random.Random(0)
        assert model.sample("a", "b", rng) == 0.01
        assert model.expected("a", "b") == 0.01

    def test_constant_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ConstantLatency(0.0)

    def test_uniform_bounds(self):
        model = UniformLatency(0.001, 0.01)
        rng = random.Random(1)
        samples = [model.sample("a", "b", rng) for _ in range(200)]
        assert all(0.001 <= s < 0.01 for s in samples)
        assert model.expected("a", "b") == pytest.approx(0.0055)

    def test_uniform_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            UniformLatency(0.01, 0.001)

    def test_lognormal_positive_and_tail(self):
        model = LogNormalLatency(base=0.002, sigma=0.5)
        rng = random.Random(2)
        samples = [model.sample("a", "b", rng) for _ in range(500)]
        assert all(s > 0 for s in samples)
        assert max(samples) > 2 * min(samples)  # genuine spread

    def test_wan_matrix_is_deterministic_per_name(self):
        m1 = WanLatencyMatrix(seed=7)
        m2 = WanLatencyMatrix(seed=7)
        assert m1.coord("n1") == m2.coord("n1")
        assert m1.base_latency("n1", "n2") == m2.base_latency("n1", "n2")

    def test_wan_matrix_symmetric_base(self):
        m = WanLatencyMatrix(seed=3)
        assert m.base_latency("a", "b") == pytest.approx(m.base_latency("b", "a"))

    def test_wan_matrix_self_latency_is_floor(self):
        m = WanLatencyMatrix(seed=3, floor=0.002)
        assert m.base_latency("a", "a") == 0.002

    def test_wan_matrix_heterogeneous(self):
        m = WanLatencyMatrix(seed=5)
        lats = {m.base_latency("a", other) for other in "bcdefgh"}
        assert len(lats) > 1


class TestSimNetwork:
    def _net(self, **kwargs):
        sim = Simulator(seed=1)
        net = SimNetwork(sim, **kwargs)
        return sim, net

    def test_basic_delivery(self):
        sim, net = self._net(latency=ConstantLatency(0.01))
        got = []
        net.register("b", lambda src, msg: got.append((src, msg, sim.now)))
        net.send("a", "b", "hello")
        sim.run()
        assert got == [("a", "hello", 0.01)]

    def test_message_to_unregistered_is_dropped(self):
        sim, net = self._net()
        net.send("a", "nowhere", "x")
        sim.run()
        assert net.stats.to_dead == 1

    def test_down_destination_swallows_message(self):
        sim, net = self._net()
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.set_down("b")
        net.send("a", "b", "x")
        sim.run()
        assert got == []
        assert net.stats.to_dead == 1

    def test_down_source_cannot_send(self):
        sim, net = self._net()
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.register("a", lambda s, m: None)
        net.set_down("a")
        net.send("a", "b", "x")
        sim.run()
        assert got == []

    def test_crash_in_flight_loses_message(self):
        sim, net = self._net(latency=ConstantLatency(0.01))
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.send("a", "b", "x")
        sim.schedule(0.005, net.set_down, "b")
        sim.run()
        assert got == []

    def test_recovery_allows_delivery_again(self):
        sim, net = self._net()
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.set_down("b")
        net.set_up("b")
        net.send("a", "b", "x")
        sim.run()
        assert got == ["x"]

    def test_drop_probability(self):
        sim, net = self._net(drop_prob=0.5)
        got = []
        net.register("b", lambda s, m: got.append(m))
        for _ in range(400):
            net.send("a", "b", "x")
        sim.run()
        assert 100 < len(got) < 300

    def test_drop_prob_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            SimNetwork(sim, drop_prob=1.0)

    def test_drop_prob_setter_validates(self):
        _sim, net = self._net()
        with pytest.raises(ValueError):
            net.drop_prob = 1.5
        with pytest.raises(ValueError):
            net.dup_prob = -0.1

    def test_partition_blocks_both_directions(self):
        sim, net = self._net()
        got = []
        net.register("a", lambda s, m: got.append(("a", m)))
        net.register("b", lambda s, m: got.append(("b", m)))
        net.partition({"a"}, {"b"})
        net.send("a", "b", "x")
        net.send("b", "a", "y")
        sim.run()
        assert got == []

    def test_heal_restores_traffic(self):
        sim, net = self._net()
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.block("a", "b")
        net.heal()
        net.send("a", "b", "x")
        sim.run()
        assert got == ["x"]

    def test_partition_decided_at_delivery_too(self):
        # A message in flight when the partition forms is also lost.
        sim, net = self._net(latency=ConstantLatency(0.01))
        got = []
        net.register("b", lambda s, m: got.append(m))
        net.send("a", "b", "x")
        sim.schedule(0.005, net.block, "a", "b")
        sim.run()
        assert got == []

    def test_stats_by_type_opt_in(self):
        sim, net = self._net()
        net.stats.count_types = True
        net.register("b", lambda s, m: None)
        net.send("a", "b", 123)
        net.send("a", "b", "str")
        sim.run()
        assert net.stats.by_type == {"int": 1, "str": 1}
        assert net.stats.sent == 2
        assert net.stats.delivered == 2

    def test_stats_by_type_off_by_default(self):
        # Per-type counting does string + dict work per send, so it is
        # opt-in; the plain counters still tick.
        sim, net = self._net()
        net.register("b", lambda s, m: None)
        net.send("a", "b", 123)
        sim.run()
        assert net.stats.by_type == {}
        assert net.stats.sent == 1
        assert net.stats.delivered == 1

    def test_deterministic_with_same_seed(self):
        def run(seed):
            sim = Simulator(seed=seed)
            net = SimNetwork(sim, latency=UniformLatency(0.001, 0.01))
            arrivals = []
            net.register("b", lambda s, m: arrivals.append((m, sim.now)))
            for i in range(20):
                net.send("a", "b", i)
            sim.run()
            return arrivals

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_addresses_sorted(self):
        sim, net = self._net()
        net.register("z", lambda s, m: None)
        net.register("a", lambda s, m: None)
        assert net.addresses() == ["a", "z"]


class TestInFlightFaults:
    """Faults injected between send and delivery apply at delivery time."""

    def _net(self):
        sim = Simulator(seed=3)
        net = SimNetwork(sim, latency=ConstantLatency(0.01))
        got: list = []
        net.register("dst", lambda src, msg: got.append(("orig", msg)))
        return sim, net, got

    def test_destination_crash_in_flight_counts_to_dead(self):
        sim, net, got = self._net()
        net.send("src", "dst", "m1")
        net.set_down("dst")
        sim.run()
        assert got == []
        assert net.stats.to_dead == 1
        assert net.stats.delivered == 0

    def test_unregister_in_flight_counts_to_dead(self):
        sim, net, got = self._net()
        net.send("src", "dst", "m1")
        net.unregister("dst")
        sim.run()
        assert got == []
        assert net.stats.to_dead == 1

    def test_handler_replaced_in_flight_delivers_to_new_handler(self):
        sim, net, got = self._net()
        net.send("src", "dst", "m1")
        net.register("dst", lambda src, msg: got.append(("new", msg)))
        sim.run()
        assert got == [("new", "m1")]
        assert net.stats.delivered == 1

    def test_block_in_flight_drops_at_delivery(self):
        sim, net, got = self._net()
        net.send("src", "dst", "m1")
        net.block("src", "dst")
        sim.run()
        assert got == []
        assert net.stats.dropped == 1

    def test_heal_before_delivery_still_delivers(self):
        sim, net, got = self._net()
        net.send("src", "dst", "m1")
        net.block("src", "dst")
        net.unblock("src", "dst")  # healed before delivery
        sim.run()
        assert got == [("orig", "m1")]
        assert net.stats.delivered == 1
