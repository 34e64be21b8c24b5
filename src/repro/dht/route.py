"""Precomputed ring routing tables for large deployments.

The historical lookup paths are linear: a client scans its whole cache
for a group whose arc contains the key, and a node sorts every known
group by ring distance before redirecting.  At the paper's scale
(dozens of groups) that is invisible; at the 2,000–10,000-node rings
the scale experiments run (E21), the per-operation scan *is* the hot
path — O(groups) ``KeyRange.contains`` calls per op.

:class:`RingTable` precomputes the successor structure once: group
infos sorted by arc start, with lookups via ``bisect`` — O(log n) per
key instead of O(n).  Tables are immutable snapshots; holders rebuild
on knowledge changes (see :class:`RouteCache`, which rebuilds lazily on
a dirty flag so bursts of updates cost one rebuild).

Semantics: for a *consistent* view (arcs tile the ring, no overlaps —
the steady state of a healthy deployment, and always true without
churn) ``lookup`` returns exactly the group whose arc contains the key,
i.e. the same group the linear scan finds.  With overlapping stale
views the linear scan returns whichever containing entry was cached
first while the table returns the containing entry whose arc starts
closest behind the key; either is a correct routing target (routing
treats every hint as a starting point, not truth), but the choice can
differ — which is why the table is opt-in (``ClientConfig.route_table``)
and the default path stays byte-identical to the historical one.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable

from repro.dht.ring import KEY_SPACE
from repro.group.info import GroupInfo


class RingTable:
    """Immutable bisect-ready snapshot of a set of group infos.

    Entries are sorted by ``range.lo`` (ties keep first-seen order, so
    rebuilding from the same iterable is stable).  ``lookup`` finds the
    group whose arc starts closest at-or-behind the key — for a
    consistent tiling, the unique containing group.
    """

    __slots__ = ("_los", "_infos")

    def __init__(self, infos: Iterable[GroupInfo]) -> None:
        ordered = sorted(enumerate(infos), key=lambda p: (p[1].range.lo, p[0]))
        self._infos: list[GroupInfo] = [info for _, info in ordered]
        self._los: list[int] = [info.range.lo for info in self._infos]

    def __len__(self) -> int:
        return len(self._infos)

    def __iter__(self):
        return iter(self._infos)

    def lookup(self, key: int) -> GroupInfo | None:
        """The group whose arc starts closest at-or-behind ``key``.

        Wraps: a key below every arc start belongs to the last arc (the
        one wrapping through zero).  Returns None for an empty table.
        ``lookup(k).range.contains(k)`` holds whenever the entries tile
        the ring.  Across a gap the pick is the arc starting closest
        behind the key, which need not contain it; no containment check
        follows (``ScatterClient._best_info`` routes to the pick as is,
        and the contacted node redirects).
        """
        if not self._los:
            return None
        return self._infos[bisect_right(self._los, key % KEY_SPACE) - 1]

    def successor_of(self, info: GroupInfo) -> GroupInfo | None:
        """The group whose arc starts at-or-after ``info``'s end (cyclic)."""
        if not self._los:
            return None
        idx = bisect_right(self._los, info.range.hi % KEY_SPACE)
        if idx > 0 and self._los[idx - 1] == info.range.hi % KEY_SPACE:
            idx -= 1
        return self._infos[idx % len(self._infos)]

    def ordered_from(self, key: int, limit: int | None = None) -> list[GroupInfo]:
        """Groups ordered clockwise by how close their start precedes ``key``.

        Equivalent to ``sorted(infos, key=lambda g: ring_distance(
        g.range.lo, key))`` reversed start-side: the first entry is the
        one starting closest behind the key, then onward around the
        ring — the redirect preference order.  ``limit`` truncates.
        """
        if not self._los:
            return []
        pivot = bisect_right(self._los, key % KEY_SPACE)
        # Slices wrap naturally: pivot == 0 makes the first slice the
        # whole list reversed (all starts lie clockwise of the key) and
        # the second slice empty.
        out = self._infos[pivot - 1 :: -1] + self._infos[: pivot - 1 : -1]
        return out[:limit] if limit is not None else out


class RouteCache:
    """A bounded gid-keyed info cache with a lazily rebuilt :class:`RingTable`.

    Drop-in for the dict caches in ``ScatterClient`` and
    ``ScatterNode``: mutations go through :meth:`learn` / :meth:`evict`
    (marking the table dirty); :meth:`table` rebuilds at most once per
    burst of mutations.  Iteration order of :meth:`infos` is insertion
    order, matching the dicts it replaces.
    """

    __slots__ = ("_by_gid", "_table", "capacity")

    def __init__(self, capacity: int) -> None:
        self._by_gid: dict[str, GroupInfo] = {}
        self._table: RingTable | None = None
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self._by_gid)

    def __contains__(self, gid: str) -> bool:
        return gid in self._by_gid

    def get(self, gid: str) -> GroupInfo | None:
        return self._by_gid.get(gid)

    def infos(self) -> list[GroupInfo]:
        return list(self._by_gid.values())

    def learn(self, info: GroupInfo) -> bool:
        """Absorb ``info`` (freshness-gated, capacity-bounded).

        Returns True when the cache changed.  Mirrors the historical
        eviction rule: a brand-new gid at capacity evicts the oldest
        entry; a fresher epoch for a known gid replaces in place.
        """
        cached = self._by_gid.get(info.gid)
        if cached is not None and cached.epoch > info.epoch:
            return False
        if cached is None and len(self._by_gid) >= self.capacity:
            self._by_gid.pop(next(iter(self._by_gid)))
        self._by_gid[info.gid] = info
        self._table = None
        return True

    def evict(self, gid: str) -> None:
        if self._by_gid.pop(gid, None) is not None:
            self._table = None

    def table(self) -> RingTable:
        if self._table is None:
            self._table = RingTable(self._by_gid.values())
        return self._table


def ordered_by_distance(infos: list[GroupInfo], key: int) -> list[GroupInfo]:
    """Reference linear implementation of :meth:`RingTable.ordered_from`.

    Kept for cross-validation in tests and for the ``ring_lookup_10k``
    microbenchmark's baseline side.
    """
    from repro.dht.ring import ring_distance

    return sorted(infos, key=lambda g: ring_distance(g.range.lo, key))
