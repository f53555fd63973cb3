"""Output digests and schema checks for the benchmark's ops."""

from __future__ import annotations

import hashlib
import struct

import numpy as np

from repro.logs.job import JOB_COLUMNS
from repro.logs.ras import RAS_COLUMNS

#: dtypes of the non-string columns; every other column holds str objects
_RAS_DTYPES = {"recid": "int64", "event_time": "float64"}
_JOB_DTYPES = {
    "job_id": "int64",
    "queued_time": "float64",
    "start_time": "float64",
    "end_time": "float64",
    "size_midplanes": "int64",
}


def _columns(frame):
    """(header, payload) bytes per column: numeric raw, strings UTF-8."""
    for name in frame.columns:
        col = frame[name]
        header = f"{name}:{col.dtype.str}:{len(col)};".encode()
        if col.dtype == object:
            data = "\x1f".join(map(str, col)).encode("utf-8", "surrogatepass")
        else:
            data = np.ascontiguousarray(col).tobytes()
        yield header, data


def frame_bytes(frame) -> int:
    """Payload size of a frame: numeric bytes plus UTF-8 string bytes."""
    return sum(len(data) for _header, data in _columns(frame))


def _feed(frame, digest) -> None:
    for header, data in _columns(frame):
        digest.update(header)
        digest.update(data)


def frame_digest(*frames) -> str:
    """blake2b over column names, dtypes and every value of *frames*."""
    digest = hashlib.blake2b(digest_size=16)
    for frame in frames:
        _feed(frame, digest)
    return digest.hexdigest()


def trace_digest(ras_log, job_log) -> str:
    return frame_digest(ras_log.frame, job_log.frame)


def _scalar(value) -> str:
    if isinstance(value, (float, np.floating)):
        return struct.pack("<d", float(value)).hex()
    return repr(value)


def result_digest(result) -> str:
    """Digest of the co-analysis products that ``diff_results`` compares."""
    digest = hashlib.blake2b(digest_size=16)
    for frame in (
        result.events_filtered.frame,
        result.events_final.frame,
        result.match.pairs,
        result.match.interruptions,
        result.match.type_cases,
        result.interruptions,
    ):
        _feed(frame, digest)
    digest.update(repr(result.filter_stats).encode())
    digest.update(_scalar(result.t_start).encode())
    digest.update(_scalar(result.duration).encode())
    for obs in result.observations:
        measured = sorted((k, _scalar(v)) for k, v in obs.measured.items())
        digest.update(
            repr((obs.number, obs.holds, obs.available, measured)).encode()
        )
    return digest.hexdigest()


def _schema_problems(label, frame, columns, dtypes) -> list[str]:
    problems = []
    if tuple(frame.columns) != tuple(columns):
        problems.append(f"{label} columns {frame.columns} != {columns}")
        return problems
    for name in columns:
        want = dtypes.get(name, "object")
        if str(frame[name].dtype) != want:
            problems.append(f"{label}.{name} dtype {frame[name].dtype}")
    if not frame.num_rows:
        problems.append(f"{label} is empty")
    return problems


def trace_problems(trace) -> list[str]:
    """Schema violations of a simulated (RAS log, job log) pair."""
    ras = trace.ras_log.frame
    problems = _schema_problems("ras", ras, RAS_COLUMNS, _RAS_DTYPES)
    problems += _schema_problems(
        "job", trace.job_log.frame, JOB_COLUMNS, _JOB_DTYPES
    )
    if not problems and np.any(np.diff(ras["event_time"]) < 0):
        problems.append("ras rows are not in event-time order")
    return problems
