"""Simulated message network.

Endpoints register a handler under a string address.  ``send`` schedules
delivery after a latency sampled from the installed :class:`LatencyModel`.
The network models the failure modes the paper's protocols must tolerate:

- **Crash/churn**: a departed endpoint silently swallows messages (both
  inbound and, via :meth:`set_down`, outbound sends are suppressed).
- **Loss**: each message is independently dropped with ``drop_prob``.
- **Partitions**: arbitrary blocked endpoint pairs — symmetric via
  :meth:`block` or *one-way* via :meth:`block_one_way` (a node that can
  send but not receive, the asymmetric case naive fault tests miss).
- **Gray failure**: per-link latency multipliers (:meth:`set_link_slowdown`)
  model links that are degraded rather than dead — the hardest case for
  timeout-based failure detectors.
- **Duplication**: with ``dup_prob`` a delivered message is also delivered
  a second time after an independently sampled latency, modelling
  at-least-once transports and retransmission races.

All randomness comes from named simulator streams, so every fault
behaviour is deterministic in (seed, configuration).

Messages are delivered in timestamp order but *not* FIFO per link when the
latency model is non-constant — exactly the asynchrony Paxos must handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.sim.latency import ConstantLatency, LatencyModel
from repro.sim.loop import Simulator

Handler = Callable[[str, Any], None]


@dataclass
class NetworkStats:
    """Counters for traffic accounting (used by the scalability bench).

    Per-message-type counting (``by_type``) costs a ``type(msg).__name__``
    plus dict churn on *every* send, so it is opt-in: benches that read
    the breakdown set ``count_types=True``; everyone else pays only the
    integer increments.
    """

    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    to_dead: int = 0
    duplicated: int = 0
    count_types: bool = False
    by_type: dict[str, int] = field(default_factory=dict)


class SimNetwork:
    """Best-effort asynchronous message network over a :class:`Simulator`."""

    def __init__(
        self,
        sim: Simulator,
        latency: LatencyModel | None = None,
        drop_prob: float = 0.0,
        dup_prob: float = 0.0,
    ) -> None:
        self.drop_prob = drop_prob
        self.dup_prob = dup_prob
        self.sim = sim
        self.latency = latency or ConstantLatency()
        self.stats = NetworkStats()
        self._handlers: dict[str, Handler] = {}
        self._down: set[str] = set()
        self._blocked_pairs: set[tuple[str, str]] = set()
        self._slowdowns: dict[tuple[str, str], float] = {}
        self._rng = sim.rng("net")
        # Cached from the simulator at construction (see repro.obs): None
        # when tracing is off, so every accounting site below costs one
        # attribute load plus a falsy branch.
        self._tracer = sim.tracer

    @property
    def drop_prob(self) -> float:
        return self._drop_prob

    @drop_prob.setter
    def drop_prob(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("drop_prob must be in [0, 1)")
        self._drop_prob = value

    @property
    def dup_prob(self) -> float:
        return self._dup_prob

    @dup_prob.setter
    def dup_prob(self, value: float) -> None:
        if not 0.0 <= value < 1.0:
            raise ValueError("dup_prob must be in [0, 1)")
        self._dup_prob = value

    # ------------------------------------------------------------------
    # Endpoint lifecycle
    # ------------------------------------------------------------------
    def register(self, address: str, handler: Handler) -> None:
        """Attach ``handler`` to ``address`` and mark it up."""
        self._handlers[address] = handler
        self._down.discard(address)

    def unregister(self, address: str) -> None:
        self._handlers.pop(address, None)
        self._down.discard(address)

    def set_down(self, address: str) -> None:
        """Crash an endpoint: it neither sends nor receives until set_up."""
        self._down.add(address)

    def set_up(self, address: str) -> None:
        self._down.discard(address)

    def is_up(self, address: str) -> bool:
        return address in self._handlers and address not in self._down

    def addresses(self) -> list[str]:
        return sorted(self._handlers)

    # ------------------------------------------------------------------
    # Partitions
    # ------------------------------------------------------------------
    def block(self, a: str, b: str) -> None:
        """Drop all traffic between ``a`` and ``b`` (both directions)."""
        self._blocked_pairs.add((a, b))
        self._blocked_pairs.add((b, a))

    def unblock(self, a: str, b: str) -> None:
        self._blocked_pairs.discard((a, b))
        self._blocked_pairs.discard((b, a))

    def block_one_way(self, src: str, dst: str) -> None:
        """Drop traffic from ``src`` to ``dst`` only (asymmetric partition).

        The reverse direction is untouched, so ``src`` can still *send* if
        blocked only as a receiver elsewhere — use two calls for the
        "can send but not receive" leader scenario.
        """
        self._blocked_pairs.add((src, dst))

    def unblock_one_way(self, src: str, dst: str) -> None:
        self._blocked_pairs.discard((src, dst))

    def isolate_inbound(self, victim: str, peers: list[str] | None = None) -> None:
        """Block all traffic *to* ``victim``: it can send but not receive."""
        for peer in peers if peers is not None else self.addresses():
            if peer != victim:
                self.block_one_way(peer, victim)

    def isolate_outbound(self, victim: str, peers: list[str] | None = None) -> None:
        """Block all traffic *from* ``victim``: it can receive but not send."""
        for peer in peers if peers is not None else self.addresses():
            if peer != victim:
                self.block_one_way(victim, peer)

    def partition(self, side_a: set[str], side_b: set[str]) -> None:
        """Block every cross pair between the two sides."""
        for a in side_a:
            for b in side_b:
                self.block(a, b)

    def heal(self) -> None:
        """Remove all partitions (one-way blocks included)."""
        self._blocked_pairs.clear()

    def is_blocked(self, src: str, dst: str) -> bool:
        return (src, dst) in self._blocked_pairs

    # ------------------------------------------------------------------
    # Gray failure: per-link latency degradation
    # ------------------------------------------------------------------
    def set_link_slowdown(self, src: str, dst: str, factor: float) -> None:
        """Multiply sampled latency on the directed link ``src -> dst``.

        A factor of 1.0 clears the entry.  Slow links stay *connected* —
        messages arrive late rather than never, which defeats failure
        detectors that equate silence with death.
        """
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        if factor == 1.0:
            self._slowdowns.pop((src, dst), None)
        else:
            self._slowdowns[(src, dst)] = factor

    def set_node_slowdown(self, victim: str, factor: float, peers: list[str] | None = None) -> None:
        """Degrade every link touching ``victim`` (both directions)."""
        for peer in peers if peers is not None else self.addresses():
            if peer != victim:
                self.set_link_slowdown(victim, peer, factor)
                self.set_link_slowdown(peer, victim, factor)

    def clear_slowdowns(self) -> None:
        self._slowdowns.clear()

    def link_slowdown(self, src: str, dst: str) -> float:
        return self._slowdowns.get((src, dst), 1.0)

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, msg: Any) -> None:
        """Send ``msg`` from ``src`` to ``dst`` with simulated latency.

        Loss, source death, and partitions are decided at send time;
        destination death is decided at delivery time (so a message can be
        lost when the destination crashes in flight — the realistic case).
        Random draws for loss and duplication happen only when their
        probability is non-zero, so a fault-free run consumes exactly one
        latency sample per message.
        """
        stats = self.stats
        stats.sent += 1
        if stats.count_types:
            name = type(msg).__name__
            stats.by_type[name] = stats.by_type.get(name, 0) + 1
        tracer = self._tracer
        if tracer is not None:
            tracer.note_send(msg)
        if (
            src in self._down
            or (src, dst) in self._blocked_pairs
            or (self._drop_prob > 0 and self._rng.random() < self._drop_prob)
        ):
            stats.dropped += 1
            if tracer is not None:
                tracer.metrics.inc("net.dropped")
            return
        self._schedule_delivery(src, dst, msg)
        if self._dup_prob > 0 and self._rng.random() < self._dup_prob:
            # A duplicate travels independently: its own latency sample,
            # so it may arrive before *or* after the original.
            stats.duplicated += 1
            if tracer is not None:
                tracer.metrics.inc("net.duplicated")
            self._schedule_delivery(src, dst, msg)

    def _schedule_delivery(self, src: str, dst: str, msg: Any) -> None:
        delay = self.latency.sample(src, dst, self._rng)
        factor = self._slowdowns.get((src, dst))
        if factor is not None:
            delay *= factor
        self.sim.schedule_fire(delay, self._deliver, src, dst, msg)

    def _deliver(self, src: str, dst: str, msg: Any) -> None:
        handler = self._handlers.get(dst)
        tracer = self._tracer
        if handler is None or dst in self._down:
            self.stats.to_dead += 1
            if tracer is not None:
                tracer.metrics.inc("net.to_dead")
            return
        if (src, dst) in self._blocked_pairs:
            self.stats.dropped += 1
            if tracer is not None:
                tracer.metrics.inc("net.dropped")
            return
        self.stats.delivered += 1
        if tracer is not None:
            tracer.metrics.inc("net.delivered")
        handler(src, msg)
