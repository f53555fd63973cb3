"""Hierarchical tracing for the co-analysis pipeline.

A :class:`Tracer` collects a tree of :class:`Span` records — name, wall
and CPU seconds, row count, free-form attributes, parent linkage — for
one run. Spans are the codebase's only timing primitive: every pipeline
stage (``extract``, ``filter.temporal``, ``match.join``,
``studies.<name>`` ...) is a :func:`maybe_span` block, and ``--timings``
prints the same tree the ``--telemetry-out`` manifest records. The
tracer is **ambient**: :meth:`Tracer.activate` installs it in a
:mod:`contextvars` context, and every instrumentation point asks
:func:`current_tracer` whether anyone is listening. With no active
tracer the probe is a single ``ContextVar.get`` returning ``None``, so
disabled telemetry costs effectively nothing.

Propagation rules:

* **same thread** — nesting follows the ``with tracer.span(...)`` stack
  via a ContextVar, so ``filter.temporal`` opened inside ``filter``
  becomes its child without either site knowing about the other;
* **thread pools** — ContextVars do not flow into pool threads by
  themselves; submitters capture ``contextvars.copy_context()`` per
  task (see ``CoAnalysis._run_studies``) and the copied context carries
  both the active tracer and the current parent span;
* **fork workers** — a ``multiprocessing`` worker cannot append to the
  parent's span list; workers measure themselves (wall, CPU, rows,
  bytes) and ship the numbers back in their result payload, which the
  parent re-attaches under the current span via :meth:`Tracer.attach`.

With ``sample_resources=True`` every closing span also records the
process peak RSS (``ru_maxrss``) and, when :mod:`tracemalloc` is
already tracing (the tracer never starts it — that would blow the
overhead budget), the current/peak traced heap.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "Span",
    "Tracer",
    "current_tracer",
    "current_span_id",
    "maybe_span",
]

_ACTIVE: contextvars.ContextVar["Tracer | None"] = contextvars.ContextVar(
    "repro_obs_active_tracer", default=None
)
#: distinguishes "parent not given" from an explicit ``parent_id=None``
_UNSET = object()
_CURRENT: contextvars.ContextVar["int | None"] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


@dataclass
class Span:
    """One timed region of the run, linked into the span tree."""

    span_id: int
    parent_id: int | None
    name: str
    #: seconds since the tracer's epoch when the span opened (gives the
    #: renderer a stable sibling order even across threads)
    start_s: float
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rows: int = -1
    note: str = ""
    #: "ok" | "error" — error means the body raised through the span;
    #: the exception type lands in ``attrs["error.type"]``
    status: str = "ok"
    attrs: dict = field(default_factory=dict)

    def as_record(self) -> dict:
        """The manifest line for this span (JSON-safe)."""
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start_s": round(self.start_s, 6),
            "wall_s": round(self.wall_s, 6),
            "cpu_s": round(self.cpu_s, 6),
            "rows": self.rows,
            "note": self.note,
            "status": self.status,
            "attrs": _json_safe(self.attrs),
        }


def _json_safe(attrs: dict) -> dict:
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[str(key)] = value
        else:
            out[str(key)] = str(value)
    return out


class Tracer:
    """Collects the span tree for one run (thread-safe)."""

    def __init__(self, sample_resources: bool = False):
        self._spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._epoch = time.perf_counter()
        self.sample_resources = sample_resources

    @property
    def spans(self) -> tuple[Span, ...]:
        """Completed spans, ordered by start time then id."""
        with self._lock:
            spans = list(self._spans)
        return tuple(sorted(spans, key=lambda s: (s.start_s, s.span_id)))

    def span_names(self) -> set[str]:
        with self._lock:
            return {s.name for s in self._spans}

    # ------------------------------------------------------------------

    @contextmanager
    def activate(self, root: str | None = "run") -> Iterator["Tracer"]:
        """Install this tracer as the ambient one for the body.

        *root* opens an enclosing span of that name so every span in
        the run hangs off a single tree root; pass ``None`` to activate
        without one.
        """
        token = _ACTIVE.set(self)
        try:
            if root is None:
                yield self
            else:
                with self.span(root):
                    yield self
        finally:
            _ACTIVE.reset(token)

    @contextmanager
    def span(self, name: str, note: str = "", **attrs) -> Iterator[Span]:
        """Open a child of the current span for the body's duration."""
        sp = Span(
            span_id=next(self._ids),
            parent_id=_CURRENT.get(),
            name=name,
            start_s=time.perf_counter() - self._epoch,
            note=note,
            attrs=dict(attrs),
        )
        token = _CURRENT.set(sp.span_id)
        t0 = time.perf_counter()
        c0 = time.thread_time()
        try:
            yield sp
        except BaseException as exc:
            # the stage failed through this span: record it, then let
            # the error boundary (or the caller) decide what to do
            sp.status = "error"
            sp.attrs.setdefault("error.type", type(exc).__name__)
            raise
        finally:
            sp.wall_s = time.perf_counter() - t0
            sp.cpu_s = time.thread_time() - c0
            _CURRENT.reset(token)
            if self.sample_resources:
                _sample_resources(sp)
            with self._lock:
                self._spans.append(sp)

    def attach(
        self,
        name: str,
        wall_s: float,
        cpu_s: float = 0.0,
        rows: int = -1,
        note: str = "",
        parent_id: "int | None" = _UNSET,  # type: ignore[assignment]
        status: str = "ok",
        **attrs,
    ) -> Span:
        """Record a span measured elsewhere (e.g. in a fork worker).

        The span becomes a child of the current span unless *parent_id*
        is given explicitly. ``start_s`` is back-dated by *wall_s* from
        the attach instant — the worker's own clock does not translate
        across processes.
        """
        sp = Span(
            span_id=next(self._ids),
            parent_id=_CURRENT.get() if parent_id is _UNSET else parent_id,
            name=name,
            start_s=max(0.0, time.perf_counter() - self._epoch - wall_s),
            wall_s=wall_s,
            cpu_s=cpu_s,
            rows=rows,
            note=note,
            status=status,
            attrs=dict(attrs),
        )
        with self._lock:
            self._spans.append(sp)
        return sp


def _sample_resources(span: Span) -> None:
    """Peak-RSS / traced-heap snapshot onto a closing span (best effort)."""
    try:
        import resource

        span.attrs["max_rss_kb"] = int(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        )
    except Exception:  # noqa: BLE001 - absent on some platforms
        pass
    import tracemalloc

    if tracemalloc.is_tracing():
        current, peak = tracemalloc.get_traced_memory()
        span.attrs["traced_kb"] = current // 1024
        span.attrs["traced_peak_kb"] = peak // 1024


def current_tracer() -> Tracer | None:
    """The ambient tracer, or ``None`` when telemetry is off."""
    return _ACTIVE.get()


def current_span_id() -> int | None:
    """The id of the innermost open span in this context, if any."""
    return _CURRENT.get()


@contextmanager
def maybe_span(name: str, note: str = "", **attrs) -> Iterator[Span]:
    """A span of the active tracer, or a detached one when none is.

    Callers set ``sp.rows`` / ``sp.note`` / ``sp.attrs`` unconditionally;
    a detached span is never timed or recorded anywhere, so with
    telemetry off the cost is one ContextVar read and one small object.
    """
    tracer = _ACTIVE.get()
    if tracer is None:
        yield Span(0, None, name, 0.0, note=note, attrs=attrs)
    else:
        with tracer.span(name, note=note, **attrs) as sp:
            yield sp
