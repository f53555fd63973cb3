"""The record-level filter chain with per-stage accounting."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.events import FatalEventTable
from repro.core.filtering.causal import CausalityFilter
from repro.core.filtering.spatial import SpatialFilter
from repro.core.filtering.temporal import TemporalFilter
from repro.obs.metrics import get_metrics
from repro.perf import StageTimer, StageTiming


@dataclass(frozen=True)
class FilterStats:
    """Record counts through the chain (the §IV compression numbers)."""

    raw: int
    after_temporal: int
    after_spatial: int
    after_causal: int

    @property
    def compression_ratio(self) -> float:
        """Fraction of raw FATAL records removed (paper: 98.35%)."""
        if self.raw == 0:
            return 0.0
        return 1.0 - self.after_causal / self.raw


@dataclass
class FilterChain:
    """temporal → spatial → causality, as in Figure 1."""

    temporal: TemporalFilter = field(default_factory=TemporalFilter)
    spatial: SpatialFilter = field(default_factory=SpatialFilter)
    causal: CausalityFilter = field(default_factory=CausalityFilter)
    stats: FilterStats | None = None
    #: the post-temporal record table, kept for the matcher's
    #: cross-location attribution (shared-file-system propagation)
    temporal_table: FatalEventTable | None = None
    #: per-stage wall/row counters of the last ``apply`` (``filter.*``
    #: sub-stages; they nest under the pipeline's ``filter`` stage)
    timings: tuple[StageTiming, ...] = ()

    def apply(self, events: FatalEventTable) -> FatalEventTable:
        raw = len(events)
        timer = StageTimer()
        with timer.stage("filter.temporal") as st:
            t = self.temporal.apply(events)
            st.rows = len(t)
        with timer.stage("filter.spatial") as st:
            s = self.spatial.apply(t)
            st.rows = len(s)
        with timer.stage("filter.causal") as st:
            c = self.causal.apply(s)
            st.rows = len(c)
        self.stats = FilterStats(
            raw=raw,
            after_temporal=len(t),
            after_spatial=len(s),
            after_causal=len(c),
        )
        registry = get_metrics()
        registry.counter("kernel.filter.candidates").inc(raw)
        registry.counter("kernel.filter.emitted").inc(len(c))
        for stage, kept in (
            ("temporal", len(t)),
            ("spatial", len(s)),
            ("causal", len(c)),
        ):
            registry.counter("kernel.filter.kept", stage=stage).inc(kept)
        self.temporal_table = t
        self.timings = timer.timings
        return c
