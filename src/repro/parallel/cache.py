"""Content-addressed on-disk cache of parsed log frames.

A cache entry is keyed by a blake2b digest over the *file content* plus
everything that can change the parse result: the cache schema version,
the reader kind (``ras`` / ``delim``), the cell separator and the full
ingest-policy fingerprint. Any edit to the log, bump of the layout, or
change of policy therefore misses cleanly — there is no mtime heuristic
to go stale.

Entries hold only **successful** parses (a strict raise or an ingest
abort stores nothing), as two files committed json-last:

* ``<key>.npz`` — the columns. Numeric columns are stored raw; object
  (string) columns are dictionary-encoded as pickled unique values plus
  ``int32`` codes, which loads an order of magnitude faster than
  pickling the full column and round-trips bit-identically (fixed-width
  ``U`` storage would strip trailing NULs and bloat on long messages).
* ``<key>.json`` — column order + per-column encoding, and the
  quarantine-report state (counts, bounded samples, total rows) so a
  cache hit can replay the report exactly as the parse produced it.

``load`` treats *any* defect — missing file, truncated npz, schema
drift — as a miss and returns ``None``; the caller re-parses and
re-stores. Writes go through a temp file + ``os.replace`` so a crashed
writer never leaves a readable half-entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.frame.frame import Frame
from repro.logs.quarantine import DefectClass, IngestPolicy, QuarantineReport
from repro.obs.metrics import get_metrics

__all__ = ["PARSE_SCHEMA_VERSION", "ParseCache", "apply_report_state"]

#: bump whenever the npz/sidecar layout or parse semantics change
PARSE_SCHEMA_VERSION = 1

#: block size for content hashing
_HASH_BLOCK = 1 << 20


def _policy_fingerprint(policy: IngestPolicy) -> str:
    return (
        f"{policy.mode}:{policy.max_bad_records}"
        f":{policy.max_bad_fraction!r}:{policy.max_samples_per_class}"
    )


def _report_state(report: QuarantineReport) -> dict:
    return {
        "total_rows": report.total_rows,
        "counts": {d.value: n for d, n in report.counts.items()},
        "samples": {
            d.value: [[rec.line_no, rec.text] for rec in recs]
            for d, recs in report.samples.items()
        },
    }


def apply_report_state(report: QuarantineReport, state: dict) -> None:
    """Replay cached quarantine state into *report* (accumulating)."""
    report.total_rows += int(state["total_rows"])
    for value, n in state["counts"].items():
        defect = DefectClass(value)
        report.counts[defect] = report.counts.get(defect, 0) + int(n)
        # a cache hit re-observes the same defects the original parse
        # diverted, so the run's counters match a cacheless run
        get_metrics().counter(
            "ingest.quarantine.defects", defect=defect.value
        ).inc(int(n))
    for value, recs in state["samples"].items():
        defect = DefectClass(value)
        kept = report.samples.setdefault(defect, [])
        for line_no, text in recs:
            if len(kept) < report.max_samples_per_class:
                from repro.logs.quarantine import BadRecord

                kept.append(BadRecord(int(line_no), defect, text))


class ParseCache:
    """Directory-backed cache of parsed frames, keyed by content."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        #: how the most recent :meth:`load` resolved
        #: (``hit``/``miss``/``stale``/``corrupt``, ``None`` before any)
        self.last_status: str | None = None

    # -- keying ---------------------------------------------------------

    @staticmethod
    def content_hash(path: str | Path) -> str:
        """blake2b digest of the file's bytes."""
        digest = hashlib.blake2b(digest_size=20)
        with open(path, "rb") as fh:
            while True:
                block = fh.read(_HASH_BLOCK)
                if not block:
                    break
                digest.update(block)
        return digest.hexdigest()

    def key_for(
        self,
        path: str | Path,
        kind: str,
        policy: IngestPolicy,
        sep: str = "|",
    ) -> str:
        """Cache key for parsing *path* as *kind* under *policy*."""
        meta = (
            f"v{PARSE_SCHEMA_VERSION}|{kind}|{sep!r}"
            f"|{_policy_fingerprint(policy)}|{self.content_hash(path)}"
        )
        return hashlib.blake2b(
            meta.encode("utf-8"), digest_size=20
        ).hexdigest()

    # -- round trip -----------------------------------------------------

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.directory / f"{key}.npz", self.directory / f"{key}.json"

    def store(
        self, key: str, frame: Frame, report: QuarantineReport | None
    ) -> None:
        """Persist one successful parse; failures here never propagate."""
        npz_path, json_path = self._paths(key)
        arrays: dict[str, np.ndarray] = {}
        columns: list[list[str]] = []
        for j, name in enumerate(frame.columns):
            col = frame[name]
            if col.dtype == object:
                values, codes = np.unique(col, return_inverse=True)
                arrays[f"{j}.values"] = values
                arrays[f"{j}.codes"] = codes.astype(np.int32)
                columns.append([name, "dict"])
            else:
                arrays[f"{j}.raw"] = col
                columns.append([name, "raw"])
        sidecar = {
            "version": PARSE_SCHEMA_VERSION,
            "columns": columns,
            "report": None if report is None else _report_state(report),
        }
        try:
            self._write_atomic(npz_path, arrays, binary=True)
            self._write_atomic(json_path, sidecar, binary=False)
        except OSError:
            return  # a full or read-only cache dir degrades to no cache

    def _write_atomic(self, dest: Path, payload, binary: bool) -> None:
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=dest.stem, suffix=".tmp"
        )
        try:
            if binary:
                with os.fdopen(fd, "wb") as fh:
                    np.savez(fh, **payload)
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as fh:
                    json.dump(payload, fh)
            os.replace(tmp, dest)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load(self, key: str) -> tuple[Frame, dict | None] | None:
        """The cached ``(frame, report_state)`` for *key*, or ``None``.

        Every failure mode — absent entry, corrupt npz, sidecar/version
        drift — is a miss, never an exception. ``last_status`` (and the
        ``ingest.cache.*`` counters) distinguish how the lookup went:
        ``hit``, ``miss`` (no entry), ``stale`` (schema-version drift)
        or ``corrupt`` (entry present but unreadable).
        """
        value, status = self._load_classified(key)
        self.last_status = status
        get_metrics().counter("ingest.cache.lookups", status=status).inc()
        return value

    def _load_classified(
        self, key: str
    ) -> tuple[tuple[Frame, dict | None] | None, str]:
        npz_path, json_path = self._paths(key)
        if not json_path.exists():
            return None, "miss"
        # Stage 1: the sidecar. Unparseable JSON is a corrupt entry;
        # parseable JSON of a different layout generation is stale.
        try:
            with open(json_path, "r", encoding="utf-8") as fh:
                sidecar = json.load(fh)
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None, "corrupt"
        if not isinstance(sidecar, dict):
            return None, "corrupt"
        if sidecar.get("version") != PARSE_SCHEMA_VERSION:
            return None, "stale"
        # Stage 2: the columns. A truncated npz (partial atomic-write
        # survivor, disk-full artifact) can fail anywhere — zip central
        # directory gone, a member cut short, pickled values garbled —
        # and np.load surfaces that zoo as zipfile/OS/value/pickle
        # errors, sometimes only when the member is actually read. All
        # of it is one condition: the entry is corrupt, fall through to
        # a re-parse. The structural checks behind the decode catch the
        # nastier survivors that *do* unpickle: short columns and codes
        # pointing past their dictionary.
        try:
            data = {}
            n_rows = None
            with np.load(npz_path, allow_pickle=True) as npz:
                for j, (name, encoding) in enumerate(sidecar["columns"]):
                    if encoding == "dict":
                        values = npz[f"{j}.values"]
                        codes = npz[f"{j}.codes"]
                        if len(codes) and (
                            codes.min() < 0 or codes.max() >= len(values)
                        ):
                            return None, "corrupt"
                        column = values[codes]
                    else:
                        column = npz[f"{j}.raw"]
                    if column.ndim != 1:
                        return None, "corrupt"
                    if n_rows is None:
                        n_rows = len(column)
                    elif len(column) != n_rows:
                        return None, "corrupt"
                    data[name] = column
            return (Frame(data), sidecar["report"]), "hit"
        except Exception:
            return None, "corrupt"
