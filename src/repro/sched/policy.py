"""Partition allocation policy (§V-B's observed placement behaviour).

The paper's co-analysis attributes Figure 4's midplane skew to
"inconsistent scheduling policies for different midplanes":

* midplanes 1–2 host many short, small jobs;
* the scheduler prefers to put small jobs on midplanes 65–80, keeping
  the other 64 midplanes free for larger jobs;
* midplanes 33–64 end up carrying the wide-job workload.

This policy reproduces that behaviour with three preference regions
(machine indices, 0-based): small jobs → [64, 80) then [0, 4); medium
jobs → [4, 32); wide jobs → [32, 64). Resubmitted jobs return to their
previous partition with probability ``affinity`` when it is free — the
57.4% same-location rate of Observation 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.machine.partition import (
    ALLOWED_PARTITION_SIZES,
    Partition,
    PartitionPool,
)

#: preference regions by job size in midplanes
SMALL_MAX = 2
MEDIUM_MAX = 16
SMALL_REGIONS = ((64, 80), (0, 4))
MEDIUM_REGIONS = ((4, 32), (64, 80))
WIDE_REGIONS = ((32, 64),)


@dataclass(frozen=True)
class _FitTable:
    """The candidates of one fit size, best region score first.

    ``parts`` is sorted by region score, keeping the pool's start order
    within a score; ``starts`` and ``ends`` bound each candidate for the
    prefix-sum freeness test, and ``level_end[k]`` is the position just
    past the last candidate sharing candidate ``k``'s score.
    """

    parts: list[Partition]
    starts: np.ndarray
    ends: np.ndarray
    level_end: np.ndarray

    @classmethod
    def build(cls, candidates: Sequence[Partition], fit: int) -> "_FitTable":
        def score(p: Partition) -> int:
            return IntrepidPolicy._region_score(p, fit)

        # a stable sort keeps start order within a score, the order
        # ``choose`` draws tied candidates in
        parts = sorted(candidates, key=score)
        scores = [score(p) for p in parts]
        starts = np.array([p.start for p in parts], dtype=np.intp)
        return cls(
            parts=parts,
            starts=starts,
            ends=starts + fit,
            level_end=np.searchsorted(scores, scores, side="right"),
        )


@dataclass
class IntrepidPolicy:
    """Chooses a free partition for a job request."""

    pool: PartitionPool = field(default_factory=PartitionPool)
    affinity: float = 0.75

    def __post_init__(self):
        #: fit size -> its candidate table; depends only on the pool
        self._tables = {
            fit: _FitTable.build(self.pool.candidates(fit), fit)
            for fit in ALLOWED_PARTITION_SIZES
        }

    def choose(
        self,
        size_midplanes: int,
        free: np.ndarray,
        rng: np.random.Generator,
        preferred: Partition | None = None,
        now: float = 0.0,
    ) -> Partition | None:
        """A free partition for a job of *size_midplanes*, or None.

        *free* is the boolean availability vector over the 80 midplanes.
        *preferred* (the partition of the job's previous run) wins with
        probability ``affinity`` whenever it is entirely free. Otherwise
        the pick is uniform over the free candidates with the best
        region score. *now* is accepted for interface compatibility with
        time-aware policies
        (:class:`repro.sched.failure_aware.FailureAwarePolicy`).

        A ``None`` result draws no random numbers: a free *preferred*
        is itself a candidate, so the candidate list cannot be empty.
        """
        fit = self.pool.fit_size(size_midplanes)
        # busy[j] counts the busy midplanes below j, so [a, b) is free
        # exactly when busy[b] == busy[a]
        busy = np.zeros(len(free) + 1, dtype=np.intp)
        (~free).cumsum(out=busy[1:])
        if (
            preferred is not None
            and preferred.size == fit
            and busy[preferred.start + fit] == busy[preferred.start]
            and rng.random() < self.affinity
        ):
            return preferred
        table = self._tables[fit]
        ok = (busy[table.ends] == busy[table.starts]).nonzero()[0]
        if not len(ok):
            return None
        # the free candidates of the best score lead ``ok``, in start order
        n_best = int(ok.searchsorted(table.level_end[ok[0]]))
        return table.parts[ok[int(rng.integers(0, n_best))]]

    @staticmethod
    def _region_score(partition: Partition, size: int) -> int:
        """Lower is better: 0/1 for the preferred regions, 2 otherwise."""
        if size <= SMALL_MAX:
            regions = SMALL_REGIONS
        elif size <= MEDIUM_MAX:
            regions = MEDIUM_REGIONS
        else:
            regions = WIDE_REGIONS
        span = range(partition.start, partition.start + partition.size)
        for rank, (lo, hi) in enumerate(regions):
            if all(lo <= i < hi for i in span):
                return rank
        # Wide partitions rarely fit inside one region; prefer overlap.
        lo, hi = regions[0]
        if any(lo <= i < hi for i in span):
            return len(regions)
        return len(regions) + 1
