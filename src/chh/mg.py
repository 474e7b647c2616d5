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
sketch also needs `decrement_least`, which takes units off the smallest
keys: in one call before a read, it pays the inner units a primary owes for
the outer rounds run since its last read. Each such call heapifies the keys
in O(capacity) and pops O(log capacity) per key that leaves, whatever the
number of units; the heap lives only for that call, so the summary holds
nothing but its counts.
"""

from __future__ import annotations

from heapq import heapify, heappop

from .errors import check_positive_int


class MgSummary:
    """Eager-decrement frequent-items summary.

    Attributes:
        capacity: maximum number of retained (key, count) entries.
        items_seen: number of update() calls applied.
        sweeps: number of shed rounds run (at most items_seen // (capacity + 1));
            read only by ``perfbench``'s ``MgProbe``, for ``mg.inner_sweeps``.
    """

    __slots__ = ("capacity", "items_seen", "sweeps", "_entries")

    def __init__(self, capacity: int):
        check_positive_int(capacity, "capacity")
        self.capacity = capacity
        self.items_seen = 0
        self.sweeps = 0
        self._entries: dict[bytes, int] = {}

    @classmethod
    def restore(cls, capacity: int, items_seen: int, counts: dict[bytes, int]) -> MgSummary:
        """The summary of ``counts`` (kept, not copied) after ``items_seen`` updates."""
        summary = cls(capacity)
        summary.items_seen, summary._entries = items_seen, counts
        return summary

    def __len__(self) -> int:
        return len(self._entries)

    def update(self, key: bytes) -> None:
        """Count one occurrence of ``key``, shedding mass on overflow."""
        self.items_seen += 1
        entries = self._entries
        count = entries.get(key)
        if count is not None:
            entries[key] = count + 1
            return
        entries[key] = 1
        if len(entries) > self.capacity:
            self._shed()

    def _shed(self) -> None:
        # Every count drops by one; zero counts leave immediately.
        self._entries = {key: count - 1 for key, count in self._entries.items() if count > 1}
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
        """`decrement_least(1)`, ``ValueError`` if empty; kept for ``perfbench``'s ``MgProbe``."""
        if not self._entries:
            raise ValueError("decrement_least_key() on an empty summary")
        self.decrement_least(1)

    def decrement_least(self, units: int) -> None:
        """Remove ``units`` of mass from the smallest retained keys.

        Takes all it can from the least key, then from the next, dropping keys
        at zero; units beyond the total empty the summary. The least key stays
        least until it leaves, so this is ``units`` one-unit decrements of the
        least key: the nested sketch sheds one inner unit per outer unit, and
        the smallest key keeps runs reproducible where any key would be
        correct. Not an observed item. A local key heap is built in
        O(len(self)) and popped in O(log len(self)) per key that leaves. Zero
        units cost O(1): a save settles every entry, and most owe nothing.
        """
        entries = self._entries
        if not units or not entries:
            return
        heap = list(entries)
        heapify(heap)
        while units and heap:
            key = heap[0]
            count = entries[key]
            if count > units:
                entries[key] = count - units
                return
            del entries[key]
            heappop(heap)
            units -= count
