"""A bounded keyed counter summary for one-dimensional frequent-item estimation.

`MgSummary` keeps at most ``capacity`` (key, count) pairs over opaque byte
string keys. When an insert pushes the table past capacity, every count is
decremented by one and keys whose count reaches zero are dropped, so at least
the newest key disappears and the table shrinks back within budget. The
estimate for a key is therefore never above its true frequency, and never
more than ``items_seen / (capacity + 1)`` below it: each shed round removes
one unit from ``capacity + 1`` counters at once, and the total shed mass
cannot exceed the total inserted mass.

The shed round is eager: it touches every stored entry, so an update costs
O(capacity) when it sheds and O(1) otherwise. The nested two-dimensional
sketch also needs the single-entry decrement `decrement_least_key`: it pays
the inner units a primary owes for the outer rounds run since its last read,
one call per unit and all in a row, just before that read. The summary keeps
its keys in a heap, built in O(capacity) on the first decrement after a new
key enters and popped in O(log capacity) when a key leaves, so a run of k
decrements costs O(capacity + k log capacity) at most. The heap holds at most
``capacity`` key references and is dropped when a new key enters.
"""

from __future__ import annotations

from heapq import heapify, heappop

from .errors import check_positive_int


class MgSummary:
    """Eager-decrement frequent-items summary.

    Attributes:
        capacity: maximum number of retained (key, count) entries.
        items_seen: number of update() calls applied.
        sweeps: number of shed rounds run (diagnostic; at most
            items_seen // (capacity + 1)).
    """

    __slots__ = ("capacity", "items_seen", "sweeps", "_entries", "_heap")

    def __init__(self, capacity: int):
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self.items_seen = 0
        self.sweeps = 0
        self._entries: dict[bytes, int] = {}
        # None, or a heap of exactly the retained keys.
        self._heap: list[bytes] | None = None

    @classmethod
    def restore(cls, capacity: int, items_seen: int, counts: dict[bytes, int]) -> MgSummary:
        """The summary of ``counts`` (kept, not copied) after ``items_seen`` updates."""
        summary = cls(capacity)
        summary.items_seen, summary._entries = items_seen, counts
        return summary

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MgSummary):
            return NotImplemented
        return (
            self.capacity == other.capacity
            and self.items_seen == other.items_seen
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return (
            f"MgSummary(capacity={self.capacity}, items_seen={self.items_seen}, "
            f"entries={dict(sorted(self._entries.items()))!r})"
        )

    def update(self, key: bytes) -> None:
        """Count one occurrence of ``key``, shedding mass on overflow."""
        self.items_seen += 1
        entries = self._entries
        count = entries.get(key)
        if count is not None:
            entries[key] = count + 1
            return
        entries[key] = 1
        self._heap = None
        if len(entries) > self.capacity:
            self._shed()

    def _shed(self) -> None:
        # Every count drops by one; zero counts leave immediately.
        entries = self._entries
        dead = []
        for key, count in entries.items():
            if count == 1:
                dead.append(key)
            else:
                entries[key] = count - 1
        for key in dead:
            del entries[key]
        self.sweeps += 1

    def estimate(self, key: bytes) -> int:
        """Stored count for ``key``, or 0 if it is not retained."""
        return self._entries.get(key, 0)

    def entries(self) -> list[tuple[bytes, int]]:
        """Current (key, count) pairs, sorted by key for reproducible output."""
        return sorted(self._entries.items())

    def total(self) -> int:
        """Sum of all stored counts, computed on each call in O(len(self))."""
        return sum(self._entries.values())

    def decrement_least_key(self) -> None:
        """Remove one unit of mass from the smallest retained key.

        Drops the key when its count reaches zero. Used by the nested sketch,
        which must shed one inner unit per outer unit; picking the smallest
        key makes runs reproducible where any retained key would be correct.
        Does not count as an observed item. Raises ``ValueError`` on an empty
        summary.

        The heap of the keys is built in O(len(self)) when a new key has
        entered since the last call, and popped in O(log len(self)) when the
        key leaves; otherwise a call costs O(1).
        """
        entries = self._entries
        if not entries:
            raise ValueError("decrement_least_key() on an empty summary")
        heap = self._heap
        if heap is None:
            heap = self._heap = list(entries)
            heapify(heap)
        key = heap[0]
        count = entries[key]
        if count == 1:
            del entries[key]
            heappop(heap)
        else:
            entries[key] = count - 1
