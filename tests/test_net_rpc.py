"""Unit tests for futures, processes, and the Node RPC layer."""

from dataclasses import dataclass

import pytest

from repro.net import Future, Node, RpcError, RpcTimeout, all_of, spawn
from repro.sim import ConstantLatency, SimNetwork, Simulator


@dataclass(frozen=True)
class Ping:
    payload: str


@dataclass(frozen=True)
class Slow:
    delay: float


class TestFuture:
    def test_set_result(self):
        f = Future()
        assert not f.done
        f.set_result(42)
        assert f.done
        assert f.result() == 42

    def test_first_writer_wins(self):
        f = Future()
        f.set_result(1)
        f.set_result(2)
        f.set_exception(RuntimeError("late"))
        assert f.result() == 1

    def test_exception(self):
        f = Future()
        f.set_exception(ValueError("boom"))
        with pytest.raises(ValueError):
            f.result()

    def test_result_before_done_raises(self):
        with pytest.raises(RuntimeError):
            Future().result()

    def test_callback_after_resolution_fires_immediately(self):
        f = Future()
        f.set_result("x")
        seen = []
        f.add_callback(lambda fut: seen.append(fut.result()))
        assert seen == ["x"]

    def test_all_of_collects_results(self):
        futures = [Future() for _ in range(3)]
        combined = all_of(futures)
        for i, f in enumerate(futures):
            f.set_result(i)
        assert combined.result() == [0, 1, 2]

    def test_all_of_empty(self):
        assert all_of([]).result() == []

    def test_all_of_propagates_first_failure(self):
        futures = [Future(), Future()]
        combined = all_of(futures)
        futures[1].set_exception(RuntimeError("bad"))
        assert combined.done
        with pytest.raises(RuntimeError):
            combined.result()


class TestSpawn:
    def test_straight_line_process(self):
        sim = Simulator()
        f = Future()

        def proc():
            value = yield f
            return value + 1

        result = spawn(sim, proc())
        sim.schedule(1.0, f.set_result, 10)
        sim.run()
        assert result.result() == 11

    def test_exception_thrown_into_process(self):
        sim = Simulator()
        f = Future()

        def proc():
            try:
                yield f
            except RpcTimeout:
                return "recovered"
            return "no exception"

        result = spawn(sim, proc())
        sim.schedule(1.0, f.set_exception, RpcTimeout("t"))
        sim.run()
        assert result.result() == "recovered"

    def test_unhandled_exception_fails_process_future(self):
        sim = Simulator()
        f = Future()

        def proc():
            yield f

        result = spawn(sim, proc())
        f.set_exception(ValueError("x"))
        sim.run()
        with pytest.raises(ValueError):
            result.result()

    def test_yielding_non_future_is_an_error(self):
        sim = Simulator()

        def proc():
            yield 42

        result = spawn(sim, proc())
        sim.run()
        with pytest.raises(TypeError):
            result.result()


class EchoNode(Node):
    def __init__(self, node_id, sim, net):
        super().__init__(node_id, sim, net)
        self.on(Ping, self._on_ping)
        self.on(Slow, self._on_slow)

    def _on_ping(self, src, msg):
        if msg.payload == "explode":
            raise RuntimeError("handler failure")
        return f"echo:{msg.payload}"

    def _on_slow(self, src, msg):
        f = Future()
        self.set_timer(msg.delay, f.set_result, "slow done")
        return f


class TestNodeRpc:
    def _cluster(self):
        sim = Simulator(seed=0)
        net = SimNetwork(sim, latency=ConstantLatency(0.01))
        a = EchoNode("a", sim, net)
        b = EchoNode("b", sim, net)
        return sim, net, a, b

    def test_request_response(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", Ping("hi"))
        sim.run()
        assert f.result() == "echo:hi"

    def test_rpc_timeout(self):
        sim, net, a, b = self._cluster()
        b.crash()
        f = a.request("b", Ping("hi"), timeout=0.5)
        sim.run()
        with pytest.raises(RpcTimeout):
            f.result()

    def test_remote_error_propagates(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", Ping("explode"))
        sim.run()
        with pytest.raises(RpcError):
            f.result()

    def test_deferred_response_via_future(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", Slow(0.3), timeout=1.0)
        sim.run()
        assert f.result() == "slow done"
        assert sim.now >= 0.3 + 0.02

    def test_deferred_response_can_still_time_out(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", Slow(5.0), timeout=0.5)
        sim.run()
        with pytest.raises(RpcTimeout):
            f.result()

    def test_one_way_message(self):
        sim, net, a, b = self._cluster()
        seen = []
        b.on(str, lambda src, m: seen.append((src, m)))
        a.send("b", "oneway")
        sim.run()
        assert seen == [("a", "oneway")]

    def test_crashed_node_ignores_messages(self):
        sim, net, a, b = self._cluster()
        seen = []
        b.on(str, lambda src, m: seen.append(m))
        b.crash()
        a.send("b", "x")
        sim.run()
        assert seen == []

    def test_crashed_node_request_fails_fast(self):
        sim, net, a, b = self._cluster()
        a.crash()
        f = a.request("b", Ping("hi"))
        assert f.done
        with pytest.raises(RpcTimeout):
            f.result()

    def test_restart_hook_called(self):
        sim = Simulator()
        net = SimNetwork(sim)
        calls = []

        class N(Node):
            def on_restart(self):
                calls.append(self.sim.now)

        n = N("n", sim, net)
        n.crash()
        n.restart()
        assert calls == [0.0]
        assert n.alive

    def test_timers_cancelled_on_crash(self):
        sim, net, a, b = self._cluster()
        fired = []
        a.set_timer(1.0, fired.append, "t")
        a.crash()
        sim.run()
        assert fired == []

    def test_restart_does_not_resurrect_old_timers(self):
        sim, net, a, b = self._cluster()
        fired = []
        a.set_timer(1.0, fired.append, "old")
        a.crash()
        a.restart()
        sim.run()
        assert fired == []

    def test_no_handler_raises_rpc_error_to_caller(self):
        sim, net, a, b = self._cluster()
        f = a.request("b", 3.14)  # no float handler registered
        sim.run()
        with pytest.raises(RpcError):
            f.result()

    def test_shutdown_unregisters(self):
        sim, net, a, b = self._cluster()
        b.shutdown()
        assert "b" not in net.addresses()

    def test_crash_fails_pending_rpc_futures(self):
        # A crashing caller must fail its in-flight RPCs immediately, not
        # leave them dangling until the timeout timer (which it cancelled).
        sim, net, a, b = self._cluster()
        f = a.request("b", Slow(5.0), timeout=30.0)
        sim.run_for(0.05)
        assert not f.done
        a.crash()
        assert f.done
        with pytest.raises(RpcTimeout):
            f.result()
        assert not a._pending_rpcs

    def test_timer_set_after_restart_fires(self):
        sim, net, a, b = self._cluster()
        fired = []
        a.set_timer(1.0, fired.append, "old")
        a.crash()
        a.restart()
        a.set_timer(0.5, fired.append, "new")
        sim.run()
        assert fired == ["new"]

    def test_timer_set_while_down_fires_only_if_up_again(self):
        sim, net, a, b = self._cluster()
        fired = []
        a.crash()
        a.set_timer(1.0, fired.append, "down")
        a.set_timer(3.0, fired.append, "restarted")
        sim.run_until(2.0)
        a.restart()
        sim.run()
        assert fired == ["restarted"]

    def test_cancelled_timer_does_not_fire(self):
        sim, net, a, b = self._cluster()
        fired = []
        handle = a.set_timer(1.0, fired.append, "cancelled")
        a.set_timer(2.0, fired.append, "kept")
        handle.cancel()
        assert handle.cancelled
        sim.run()
        assert fired == ["kept"]

    def test_node_keeps_no_per_timer_state(self):
        sim, net, a, b = self._cluster()

        def sizes():
            return {k: len(v) for k, v in vars(a).items() if hasattr(v, "__len__")}

        before = sizes()
        for i in range(10_000):
            a.set_timer(0.001 * (i % 50 + 1), lambda: None)
        assert sizes() == before
        sim.run()
        assert sizes() == before
