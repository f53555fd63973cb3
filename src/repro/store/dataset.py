"""The sharded dataset: partition, index, scan with pruning.

A :class:`ShardedDataset` is a directory of shards keyed by
``(machine, table, time_window)`` plus one JSON manifest
(:mod:`repro.store.manifest`). Writing partitions a machine's RAS/job
logs into ``windows`` equal time slices; scanning reassembles them —
**bit-identically**, the same equivalence discipline ``repro.parallel``
holds for chunked ingest. That works because both logs are kept sorted
by their partition time (RAS by ``(event_time, recid)``, jobs by
``(start_time, job_id)``), so consecutive windows select consecutive
row runs and concatenating the shards in window order restores the
original arrays exactly.

Scans prune: a shard whose ``[time_min, time_max]`` envelope misses the
query range is never opened — no column file read, no mmap — and the
``store.scan.shards`` counter records it as ``pruned`` rather than
``opened``, which is how the tests *prove* pruning (spy on
``store.shard.column_loads``) instead of trusting it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.frame.frame import Frame, concat
from repro.logs.job import JOB_COLUMNS, JobLog
from repro.logs.ras import RAS_COLUMNS, RasLog
from repro.obs.metrics import get_metrics
from repro.obs.trace import maybe_span
from repro.store.codec import decode_columns, encode_frame, shard_content_hash
from repro.store.manifest import (
    ShardInfo,
    StoreError,
    StoreManifest,
    read_store_manifest,
    validate_store_manifest,
    write_store_manifest,
)

__all__ = ["ShardedDataset", "partition_edges", "TIME_COLUMN"]

#: the column each table is partitioned (and time-pruned) on
TIME_COLUMN = {"ras": "event_time", "job": "start_time"}


def partition_edges(t0: float, t1: float, windows: int) -> np.ndarray:
    """``windows + 1`` equal-width edges spanning ``[t0, t1]``."""
    if windows < 1:
        raise ValueError(f"need at least one window, got {windows}")
    if not t1 >= t0:
        raise ValueError(f"invalid span [{t0}, {t1}]")
    return np.linspace(t0, t1, windows + 1)


def _window_mask(t: np.ndarray, edges: np.ndarray, i: int) -> np.ndarray:
    """Rows of window *i*: uniformly half-open ``[edges[i], edges[i+1])``.

    Every window — the last included — follows the repo-wide half-open
    convention, so no row can land in two windows however the edges are
    chosen. The partitioner covers the span's maximum by bumping the
    final edge one ulp past it (:func:`repro.stream.windows.coverage_edges`
    does the same for streaming increments) instead of closing the last
    window on the right.
    """
    return (t >= edges[i]) & (t < edges[i + 1])


class ShardedDataset:
    """A partitioned on-disk columnar dataset of fleet RAS/job logs."""

    def __init__(self, root: str | Path, manifest: StoreManifest):
        self.root = Path(root)
        self.manifest = manifest

    # -- lifecycle ------------------------------------------------------

    @classmethod
    def create(cls, root: str | Path) -> "ShardedDataset":
        """Initialise an empty store at *root* (manifest written now)."""
        ds = cls(root, StoreManifest())
        write_store_manifest(ds.root, ds.manifest)
        return ds

    @classmethod
    def open(cls, root: str | Path) -> "ShardedDataset":
        """Open an existing store; raises ``StoreError`` when absent or
        schema-drifted."""
        return cls(root, read_store_manifest(root))

    def validate(self, verify_hashes: bool = False) -> list[str]:
        """Structural problems found on disk (empty list = healthy)."""
        return validate_store_manifest(
            self.root, self.manifest, verify_hashes=verify_hashes
        )

    # -- write path -----------------------------------------------------

    def add_machine_trace(
        self,
        machine: str,
        ras_log: RasLog,
        job_log: JobLog,
        windows: int = 1,
    ) -> list[ShardInfo]:
        """Partition one machine's logs into *windows* time shards.

        Both tables share one edge grid spanning the union of their time
        ranges, so a given wall-clock window means the same thing for
        RAS events and job starts. All column files are written before
        the manifest (json-last): a crash mid-write leaves the previous
        manifest authoritative.
        """
        if any(s.machine == machine for s in self.manifest.shards):
            raise StoreError(f"machine {machine!r} already in store")
        spans = []
        if len(ras_log):
            spans.append(ras_log.frame["event_time"])
        if len(job_log):
            spans.append(job_log.frame["start_time"])
        if spans:
            t0 = min(float(t.min()) for t in spans)
            t1 = max(float(t.max()) for t in spans)
        else:
            t0 = t1 = 0.0
        edges = partition_edges(t0, t1, windows)
        # half-open windows everywhere: cover the span maximum by
        # nudging the last edge just past it
        edges[-1] = np.nextafter(edges[-1], np.inf)

        new_shards: list[ShardInfo] = []
        with maybe_span(
            "store.write", machine=machine, windows=windows
        ) as sp:
            for table, frame in (
                ("ras", ras_log.frame),
                ("job", job_log.frame),
            ):
                t = frame[TIME_COLUMN[table]]
                for i in range(windows):
                    part = frame.filter(_window_mask(t, edges, i))
                    new_shards.append(
                        self._write_shard(machine, table, i, part)
                    )
            sp.rows = sum(s.rows for s in new_shards)
        self.manifest.shards.extend(new_shards)
        write_store_manifest(self.root, self.manifest)
        get_metrics().gauge("store.shards.total").set(
            len(self.manifest.shards)
        )
        return new_shards

    def append_machine_window(
        self,
        machine: str,
        ras_log: RasLog,
        job_log: JobLog,
    ) -> list[ShardInfo]:
        """Append one new time window to an existing machine.

        The incremental counterpart of :meth:`add_machine_trace`: the
        chunk becomes the machine's next window ordinal (one new shard
        per table), existing shard files are never rewritten, and the
        manifest is extended json-last — a crash mid-append leaves the
        previous manifest authoritative and the old shards untouched.

        Appends are half-open in time like every window: each table's
        chunk must start at or after that table's current envelope
        maximum (``event_time`` for ras, ``start_time`` for jobs), so
        window order remains time order and :meth:`scan` keeps
        reassembling the full trace bit-identically.
        """
        existing = self.manifest.select(machine=machine)
        if not existing:
            raise StoreError(
                f"machine {machine!r} not in store; use add_machine_trace"
            )
        window = max(s.window for s in existing) + 1
        new_shards: list[ShardInfo] = []
        with maybe_span(
            "store.append", machine=machine, window=window
        ) as sp:
            for table, frame in (
                ("ras", ras_log.frame),
                ("job", job_log.frame),
            ):
                t = frame[TIME_COLUMN[table]]
                prior = [
                    s.time_max
                    for s in existing
                    if s.table == table and s.rows
                ]
                if len(t) and prior and float(t.min()) < max(prior):
                    raise StoreError(
                        f"append to {machine!r}/{table} out of order: chunk "
                        f"starts at {float(t.min())} before the stored "
                        f"envelope maximum {max(prior)}"
                    )
                new_shards.append(
                    self._write_shard(machine, table, window, frame)
                )
            sp.rows = sum(s.rows for s in new_shards)
        self.manifest.shards.extend(new_shards)
        write_store_manifest(self.root, self.manifest)
        get_metrics().gauge("store.shards.total").set(
            len(self.manifest.shards)
        )
        return new_shards

    def _write_shard(
        self, machine: str, table: str, window: int, frame: Frame
    ) -> ShardInfo:
        rel = Path(machine) / table / f"w{window:03d}"
        shard_dir = self.root / rel
        columns = encode_frame(frame, shard_dir)
        t = frame[TIME_COLUMN[table]]
        metrics = get_metrics()
        metrics.counter("store.shards.written", table=table).inc()
        metrics.counter("store.append.rows", table=table).inc(frame.num_rows)
        return ShardInfo(
            machine=machine,
            table=table,
            window=window,
            path=str(rel),
            rows=frame.num_rows,
            time_min=float(t.min()) if len(t) else float("nan"),
            time_max=float(t.max()) if len(t) else float("nan"),
            columns=columns,
            content_hash=shard_content_hash(shard_dir, columns),
        )

    # -- read path ------------------------------------------------------

    def machines(self) -> list[str]:
        return self.manifest.machines()

    def scan(
        self,
        machine: str,
        table: str,
        time_range: tuple[float, float] | None = None,
        mmap: bool = True,
    ) -> Frame:
        """Reassemble one machine's *table*, pruned to *time_range*.

        Without a range this is the exact inverse of
        :meth:`add_machine_trace` — the returned frame is bit-identical
        to the one that was partitioned. With a range ``(q0, q1)``,
        shards whose time envelope misses ``[q0, q1)`` are skipped
        unopened, and surviving shards are row-filtered on the partition
        time column, so the result equals the batch frame filtered the
        same way.
        """
        if table not in TIME_COLUMN:
            raise ValueError(f"unknown table {table!r}")
        shards = self.manifest.select(machine=machine, table=table)
        if not shards:
            raise StoreError(f"no {table!r} shards for machine {machine!r}")
        metrics = get_metrics()
        time_col = TIME_COLUMN[table]
        parts: list[Frame] = []
        opened = pruned = 0
        with maybe_span("store.scan", machine=machine, table=table) as sp:
            for shard in shards:
                if time_range is not None and not shard.overlaps(*time_range):
                    pruned += 1
                    metrics.counter(
                        "store.scan.shards", table=table, status="pruned"
                    ).inc()
                    continue
                opened += 1
                metrics.counter(
                    "store.scan.shards", table=table, status="opened"
                ).inc()
                with maybe_span(
                    "store.scan.shard", shard=shard.path
                ) as shard_sp:
                    data = decode_columns(
                        self.root / shard.path, shard.columns, mmap=mmap
                    )
                    part = Frame(data)
                    if time_range is not None:
                        t = part[time_col]
                        part = part.filter(
                            (t >= time_range[0]) & (t < time_range[1])
                        )
                    shard_sp.rows = part.num_rows
                parts.append(part)
            if not parts:
                # everything pruned: synthesize a typed empty frame from
                # the manifest column spec, still without touching disk
                out = Frame(
                    {
                        name: np.array([], dtype=np.dtype(dtype))
                        for name, _enc, dtype in shards[0].columns
                    }
                )
            else:
                out = concat(parts)
            sp.rows = out.num_rows
            sp.attrs["opened"] = opened
            sp.attrs["pruned"] = pruned
        return out

    def load_ras(
        self,
        machine: str,
        time_range: tuple[float, float] | None = None,
        mmap: bool = True,
    ) -> RasLog:
        """The machine's RAS log, reassembled (and pruned) from shards."""
        frame = self.scan(machine, "ras", time_range=time_range, mmap=mmap)
        missing = [c for c in RAS_COLUMNS if c not in frame]
        if missing:
            raise StoreError(f"ras shards missing columns {missing}")
        return RasLog(frame)

    def load_job(
        self,
        machine: str,
        time_range: tuple[float, float] | None = None,
        mmap: bool = True,
    ) -> JobLog:
        """The machine's job log, reassembled (and pruned) from shards."""
        frame = self.scan(machine, "job", time_range=time_range, mmap=mmap)
        missing = [c for c in JOB_COLUMNS if c not in frame]
        if missing:
            raise StoreError(f"job shards missing columns {missing}")
        return JobLog(frame)
