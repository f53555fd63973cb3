"""A cancellable priority event queue for the discrete-event simulation."""

from __future__ import annotations

import heapq
import itertools
from typing import Any


class _Entry:
    """One scheduled event; also the token that cancels it."""

    __slots__ = ("time", "kind", "payload", "cancelled")

    def __init__(self, time: float, kind: str, payload: Any):
        self.time = time
        self.kind = kind
        self.payload = payload
        self.cancelled = False


class EventQueue:
    """Binary-heap event queue with O(1) cancellation tokens.

    Heap items are ``(time, seq, entry)`` tuples. ``seq`` is unique, so
    tuple comparison never reaches the entry, and ties at equal time
    break by insertion order, which keeps the simulation deterministic
    for a fixed seed.
    """

    def __init__(self):
        self._heap: list[tuple[float, int, _Entry]] = []
        self._seq = itertools.count()
        self._live = 0

    def push(self, time: float, kind: str, payload: Any = None) -> _Entry:
        """Schedule an event; the returned token can cancel it."""
        entry = _Entry(float(time), kind, payload)
        heapq.heappush(self._heap, (entry.time, next(self._seq), entry))
        self._live += 1
        return entry

    def cancel(self, token: _Entry) -> None:
        """Cancel a scheduled event (idempotent)."""
        if not token.cancelled:
            token.cancelled = True
            self._live -= 1

    def pop(self) -> _Entry | None:
        """The next live event, or None when the queue is drained."""
        while self._heap:
            entry = heapq.heappop(self._heap)[2]
            if not entry.cancelled:
                self._live -= 1
                return entry
        return None

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0
