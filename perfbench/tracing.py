"""Per-layer wall-time split of a run, by wrapping the program's entry points.

:class:`LayerTracer` patches, for the duration of a ``with`` block,

- every callable handed to ``Simulator.schedule*`` / ``call_soon*``,
  ``SimNetwork.register``, ``Node.on`` and ``Node.set_timer``, and every
  generator handed to ``spawn``, labelled by the package of the module
  that defines it;
- the cross-layer entry points (``SimNetwork.send``,
  ``PaxosReplica.propose``/``on_message``, ``GroupReplica.client_op``,
  ``KvStore.apply``, ``ReplicaStorage.append_*``/``mark_synced``,
  ``NodeDisk.enqueue_fsync``, ``ScatterClient.get``/``put`` and the
  ``ScatterNode.start_*`` group operations).

Each wrapper times its call as a span on an in-memory stack; a span's
self time is its duration minus the time its child spans cover, summed
per (layer, name) and read out at the end.  Wrappers only observe: they
consume no randomness, schedule nothing and return what the wrapped
call returns, so a traced run takes the same code path and produces the
same virtual-time results as an untraced one (the self-tests check
this).  Waits (``*_wait_ms``) are virtual time from a call to the
resolution of the future it returns, kept for calls made inside the
measured window.  Collector pauses are timed apart, so allocation-heavy
spans are not charged for them.
"""

from __future__ import annotations

import gc
import sys
import time
from collections import Counter, deque

from repro.consensus.messages import Prepare
from repro.consensus.replica import PaxosReplica
from repro.dht.client import ScatterClient
from repro.dht.messages import GroupMsg
from repro.dht.scatter import ScatterNode
from repro.group.replica import GroupReplica
from repro.net import futures
from repro.net.node import Node
from repro.sim.loop import Simulator
from repro.sim.network import SimNetwork
from repro.storage.disk import NodeDisk, ReplicaStorage
from repro.store.kvstore import KvStore

# Layers with a self-time metric.  The tenth layer, analysis (the
# linearizability checker), runs after the window: it has analysis.check_s.
LAYERS = ("sim", "net", "consensus", "group", "txn", "dht", "storage", "store", "workloads")

# Scheduling entry points -> position of the callable (self = 0).
_SCHEDULERS = {
    "schedule": 2, "schedule_fire": 2, "schedule_at": 2, "call_soon": 1, "call_soon_fire": 1,
}
_GROUP_OPS = (
    "start_split", "start_merge", "start_migrate", "start_repair_migrate", "start_repartition",
)


def layer_of(module: str | None) -> str:
    """``repro.<package>.*`` -> package; the benchmark's own code -> workloads."""
    if module and module.startswith("repro."):
        return module.split(".")[1]
    return "workloads"


class _LabelledGen:
    """Generator proxy that times each resume of a spawned process."""

    __slots__ = ("_gen", "_send", "_throw")

    def __init__(self, gen, send, throw) -> None:
        self._gen = gen
        self._send = send
        self._throw = throw

    def send(self, value):
        return self._send(value)

    def throw(self, exc):
        return self._throw(exc)

    def close(self) -> None:
        self._gen.close()


class LayerTracer:
    """Span stack, per-(layer, name) self time, counts and virtual waits."""

    def __init__(self) -> None:
        # Child-time accumulators; the bottom entry absorbs top-level spans.
        self._stack: list[float] = [0.0]
        self._cells: dict[tuple[str, str], list] = {}
        self._labels: dict[object, list] = {}
        self._patches: list[tuple[object, str, object]] = []
        self.sim: Simulator | None = None
        self.recording = False
        # Calls per watched entry point, and (wait, outcome) per resolved
        # call, both for calls made while recording (inside the window).
        self.counts: Counter = Counter()
        self.waits: dict[str, list[tuple[float, bool]]] = {}
        # Per WAL region: (seq, append time) of in-window appends not yet
        # covered by an fsync.
        self._appends: dict[int, deque] = {}
        self.frozen: dict[tuple[str, str], tuple[float, int]] = {}
        self._gc_cell = self._cell("gc", "collector")
        self._gc_start = 0.0

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _cell(self, layer: str, name: str) -> list:
        cell = self._cells.get((layer, name))
        if cell is None:
            cell = self._cells[(layer, name)] = [0.0, 0]
        return cell

    def span(self, layer: str, name: str, fn):
        """``fn`` wrapped so each call is a span of (layer, name)."""
        return self._timed(self._cell(layer, name), fn)

    def _timed(self, cell: list, fn):
        stack = self._stack
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                d = clock() - t0
                cell[0] += d - stack.pop()
                cell[1] += 1
                stack[-1] += d

        return spanned

    def _label(self, fn) -> list:
        """Cell for a callable, keyed by its code object."""
        func = getattr(fn, "__func__", fn)
        owner = type(getattr(fn, "__self__", fn))
        key = getattr(func, "__code__", None) or owner
        cell = self._labels.get(key)
        if cell is None:
            module = getattr(func, "__module__", None) or owner.__module__
            name = getattr(func, "__qualname__", repr(func))
            cell = self._labels[key] = self._cell(layer_of(module), name)
        return cell

    def _on_gc(self, phase: str, _info: dict) -> None:
        """Charge collector pauses to "gc", not to whichever span allocated.

        A pause is counted as a child of the running span, so it leaves
        that span's self time.
        """
        if phase == "start":
            self._gc_start = time.perf_counter()
            return
        d = time.perf_counter() - self._gc_start
        self._gc_cell[0] += d
        self._gc_cell[1] += 1
        self._stack[-1] += d

    def wrap_callable(self, fn):
        return self._timed(self._label(fn), fn)

    def _wrap_gen(self, gen):
        code = gen.gi_code
        cell = self._labels.get(code)
        if cell is None:
            module = gen.gi_frame.f_globals.get("__name__") if gen.gi_frame else None
            cell = self._labels[code] = self._cell(layer_of(module), gen.__qualname__)
        return _LabelledGen(gen, self._timed(cell, gen.send), self._timed(cell, gen.throw))

    # ------------------------------------------------------------------
    # Window and results
    # ------------------------------------------------------------------
    def window_begin(self) -> None:
        for cell in self._cells.values():
            cell[0] = 0.0
            cell[1] = 0
        self.counts.clear()
        self.waits.clear()
        self.recording = True

    def window_end(self) -> None:
        self.recording = False
        self.frozen = {key: (cell[0], cell[1]) for key, cell in self._cells.items()}

    def self_time(self) -> dict[str, float]:
        """Wall self seconds per layer over the window."""
        out: dict[str, float] = {}
        for (layer, _name), (secs, _calls) in self.frozen.items():
            out[layer] = out.get(layer, 0.0) + secs
        return out

    def span_table(self) -> list[tuple[str, str, float, int]]:
        """(layer, name, self_s, calls) over the window, largest first."""
        rows = [(layer, name, s, n) for (layer, name), (s, n) in self.frozen.items() if n]
        return sorted(rows, key=lambda row: -row[2])

    def wait_ms(self, name: str) -> list[float]:
        """Virtual waits of the in-window calls that resolved, in ms."""
        return [1000 * wait for wait, _outcome in self.waits.get(name, ())]

    def outcomes(self, name: str) -> int:
        """In-window calls whose outcome test was true (failed, rejected...)."""
        return sum(1 for _wait, outcome in self.waits.get(name, ()) if outcome)

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _watch(self, name: str, future, outcome) -> None:
        """Count an in-window call; record its wait when ``future`` resolves."""
        if not self.recording:
            return
        self.counts[name] += 1
        start = self.sim.now
        waits = self.waits.setdefault(name, [])
        sim = self.sim
        future.add_callback(lambda f: waits.append((sim.now - start, outcome(f))))

    def __enter__(self) -> "LayerTracer":
        tracer = self
        counts = self.counts
        gc.callbacks.append(self._on_gc)

        orig_init = Simulator.__init__

        def sim_init(sim, *args, **kwargs):
            orig_init(sim, *args, **kwargs)
            tracer.sim = sim

        self._patch(Simulator, "__init__", sim_init)

        for attr, index in _SCHEDULERS.items():
            self._patch(Simulator, attr, self._wrap_fn_arg(getattr(Simulator, attr), index))
        self._patch(SimNetwork, "register", self._wrap_fn_arg(SimNetwork.register, 2))
        self._patch(Node, "on", self._wrap_fn_arg(Node.on, 2))

        orig_send = SimNetwork.send

        def send(net, src, dst, msg):
            body = getattr(msg, "body", None)
            if isinstance(body, GroupMsg) and isinstance(body.inner, Prepare) and tracer.recording:
                counts["prepare_msgs"] += 1
            return orig_send(net, src, dst, msg)

        self._entry(SimNetwork, "send", "sim", send)

        orig_set_timer = Node.set_timer

        def set_timer(node, delay, fn, *args):
            if tracer.recording:
                counts["timers"] += 1
            return orig_set_timer(node, delay, tracer.wrap_callable(fn), *args)

        self._entry(Node, "set_timer", "net", set_timer)

        orig_spawn = futures.spawn

        def spawn(sim, gen):
            return orig_spawn(sim, tracer._wrap_gen(gen))

        for module in list(sys.modules.values()):
            in_program = getattr(module, "__name__", "").startswith("repro.")
            if in_program and getattr(module, "spawn", None) is orig_spawn:
                self._patch(module, "spawn", spawn)

        def failed(f) -> bool:
            return f.exception is not None

        def rejected(f) -> bool:
            return f.exception is not None or getattr(f.result(), "error", None) == "busy"

        def committed(f) -> bool:
            return f.exception is None and str(f.result()).startswith("committed")

        self._entry(PaxosReplica, "propose", "consensus", watch=("commit", failed))
        self._entry(PaxosReplica, "on_message", "consensus")
        self._entry(GroupReplica, "client_op", "group", watch=("client_op", rejected))
        for attr in _GROUP_OPS:
            self._entry(ScatterNode, attr, "txn", watch=("txn", committed))
        self._entry(KvStore, "apply", "store")
        for attr in ("append_promise", "append_accept"):
            journalled = self._journalled(getattr(ReplicaStorage, attr))
            self._entry(ReplicaStorage, attr, "storage", journalled)
        self._entry(ReplicaStorage, "append_chosen", "storage")

        orig_mark = ReplicaStorage.mark_synced

        def mark_synced(region, seq):
            pending = tracer._appends.get(id(region))
            if pending:
                now = tracer.sim.now
                waits = tracer.waits.setdefault("fsync", [])
                while pending and pending[0][0] <= seq:
                    _seq, t = pending.popleft()
                    waits.append((now - t, False))
            return orig_mark(region, seq)

        self._entry(ReplicaStorage, "mark_synced", "storage", mark_synced)

        orig_power = ReplicaStorage.power_failure

        def power_failure(region):
            tracer._appends.pop(id(region), None)  # the unsynced suffix is gone
            return orig_power(region)

        self._patch(ReplicaStorage, "power_failure", power_failure)
        self._entry(NodeDisk, "enqueue_fsync", "storage")
        for attr in ("get", "put"):
            self._entry(ScatterClient, attr, "dht")
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._on_gc)
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap_fn_arg(self, method, index: int):
        """``method`` with its callable argument at ``index`` (self = 0) wrapped."""
        tracer = self

        def patched(*args, **kwargs):
            args = list(args)
            args[index] = tracer.wrap_callable(args[index])
            return method(*args, **kwargs)

        return patched

    def _journalled(self, append):
        """A ReplicaStorage append that notes (seq, time) for fsync waits."""
        tracer = self

        def journalled(region, *args):
            ok = append(region, *args)
            if ok and tracer.recording:
                pending = tracer._appends.setdefault(id(region), deque())
                pending.append((region.current_seq(), tracer.sim.now))
            return ok

        return journalled

    def _entry(self, cls: type, attr: str, layer: str, impl=None, watch=None) -> None:
        """Make ``cls.attr`` a span named after it.

        ``impl`` replaces the body; ``watch`` = (name, outcome) records
        the wait and outcome of the future the call returns.
        """
        body = impl or getattr(cls, attr)
        if watch is not None:
            body = self._watched(*watch, body)
        self._patch(cls, attr, self.span(layer, f"{cls.__name__}.{attr}", body))

    def _watched(self, name: str, outcome, call):
        """``call``, with the future it returns watched under ``name``."""
        tracer = self

        def watched(obj, *args, **kwargs):
            future = call(obj, *args, **kwargs)
            tracer._watch(name, future, outcome)
            return future

        return watched
