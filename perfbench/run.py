"""End-to-end benchmark of the co-analysis pipeline.

Run from the repository root::

    python3 perfbench/run.py --workload simulate --seed 2011 --seconds 10 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median), runs its op until ``--seconds`` have passed, checks every
output, and reports the end-to-end metrics, whose timings are CPU
time scaled to a reference host speed (see ``speed.py``). ``--trace 1``
alternates untraced and traced ops and reports the per-layer metrics
instead; the spans are written to ``.perfbench_out/`` when the run
ends. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: an untraced run sets up at least this many times; ``setup_s`` is
#: the median of its set-ups
SETUP_REPEATS = 3
#: ... and keeps setting up, to at most SETUP_MAX_REPEATS times, until
#: the set-ups add up to SETUP_BUDGET_S, so a cheap set-up gets a median
#: over enough samples
SETUP_BUDGET_S = 3.0
SETUP_MAX_REPEATS = 15
#: fresh interpreters per run; ``import_s`` is their median
IMPORT_REPEATS = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "records_per_s": "records/s",
    "peak_rss_mb": "MiB",
    "import_s": "s",
}

_IMPORT_PROBE = (
    "import time; t0 = time.process_time(); import repro.cli; "
    "print(time.process_time() - t0)"
)


_CLEAR_REFS = Path("/proc/self/clear_refs")
_STATUS = Path("/proc/self/status")


def reset_peak_rss() -> bool:
    """Reset the process's resident high-water mark to its current RSS.

    Writing ``5`` to ``/proc/self/clear_refs`` resets ``VmHWM`` (Linux
    4.0 and later). Returns False where that is not possible.
    """
    try:
        _CLEAR_REFS.write_text("5", encoding="ascii")
    except OSError:
        return False
    return True


def peak_rss_kib() -> int:
    """``VmHWM`` (resident high-water mark) of this process, in KiB."""
    for line in _STATUS.read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


@dataclass
class Measurement:
    #: each untraced op's CPU time, in reference seconds
    times: list[float] = field(default_factory=list)
    #: ... and in CPU seconds as measured
    cpus: list[float] = field(default_factory=list)
    walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    #: highest resident high-water mark over the untraced ops, in KiB
    peak_kib: int = 0
    #: whether that mark was reset before every op (else it covers the
    #: whole process, set-up included)
    peak_per_op: bool = True
    records: int = 0
    attempted: int = 0
    failed: int = 0
    digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    #: the workload's description, taken from the first checked output
    info: dict | None = None


def run_op(workload, m: Measurement, rec=None, speed=None) -> None:
    """One op: time it, check it, count it as failed if anything is off.

    With a running :class:`~perfbench.speed.Speedometer` *speed*, the
    op's CPU time is scaled to reference seconds; without one it is
    kept as measured.
    """
    from perfbench.speed import cpu_seconds
    from perfbench.tracing import instrument

    m.attempted += 1
    if rec is None:
        m.peak_per_op &= reset_peak_rss()
    mark = speed.mark() if speed is not None else 0
    with instrument(rec) if rec is not None else nullcontext():
        c0 = cpu_seconds(speed)
        t0 = perf_counter()
        try:
            with rec.op() if rec is not None else nullcontext():
                out = workload.op()
        except Exception as exc:  # noqa: BLE001 - a raising op is a failure
            m.failed += 1
            m.problems.append(f"op {m.attempted} raised {exc!r}")
            return
        wall = perf_counter() - t0
        cpu = cpu_seconds(speed) - c0
    if rec is None:
        m.times.append(speed.scale(cpu, mark) if speed is not None else cpu)
        m.cpus.append(cpu)
        m.walls.append(wall)
        m.peak_kib = max(m.peak_kib, peak_rss_kib())
    else:
        m.traced_walls.append(wall)
    try:
        problems, digest = workload.check(out)
    except Exception as exc:  # noqa: BLE001 - output the check cannot read
        m.failed += 1
        m.problems.append(f"op {m.attempted}: check raised {exc!r}")
        return
    if m.digests and digest != m.digests[0]:
        problems.append(f"output digest {digest} != first op's {m.digests[0]}")
    m.digests.append(digest)
    m.records += workload.records(out)
    if m.info is None:
        m.info = workload.describe(out)
    workload.cleanup(out)
    if problems:
        m.failed += 1
        m.problems += [f"op {m.attempted}: {p}" for p in problems]


def measure(workload, seconds: float, rec=None, speed=None) -> Measurement:
    """Run ops for *seconds*; with *rec*, every other op is traced.

    At least one op runs (one of each kind when tracing), however long
    it takes.
    """
    m = Measurement()
    t_end = perf_counter() + seconds
    while True:
        traced = rec is not None and m.attempted % 2 == 1
        run_op(workload, m, rec if traced else None, speed)
        enough = m.walls and (rec is None or m.traced_walls)
        if (enough or m.attempted >= 4) and perf_counter() >= t_end:
            return m


def import_seconds(speed) -> float:
    """Median time of ``import repro.cli`` in fresh interpreters.

    Each child times its own CPU; *speed* scales that to reference
    seconds.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    times = []
    for _ in range(IMPORT_REPEATS):
        mark = speed.mark()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True,
            check=True, timeout=120,
        )
        cpu = float(proc.stdout.strip().splitlines()[-1])
        times.append(speed.scale(cpu, mark))
    return statistics.median(times)


def set_up(cls, seed: int, workdir: Path, repeats: int,
           budget_s: float = 0.0, max_repeats: int = 1, speed=None):
    """Fresh set-ups; returns the last workload and their times.

    Sets up *repeats* times, then again while the set-ups add up to less
    than *budget_s*, to at most *max_repeats* times. Times are CPU
    seconds, scaled to reference seconds by *speed* if given.
    """
    from perfbench.speed import cpu_seconds

    times = []
    i = 0
    while True:
        workload = None  # release the previous inputs first
        slot = workdir / f"setup{i}"
        workload = cls(seed, slot)
        mark = speed.mark() if speed is not None else 0
        c0 = cpu_seconds(speed)
        workload.setup()
        cpu = cpu_seconds(speed) - c0
        times.append(speed.scale(cpu, mark) if speed is not None else cpu)
        i += 1
        if i >= max(repeats, max_repeats) or (
            i >= repeats and sum(times) >= budget_s
        ):
            break
        shutil.rmtree(slot, ignore_errors=True)
    workload.prepare()
    return workload, times


def environment() -> dict:
    import numpy
    import platform

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # One BLAS thread, set before numpy loads. Otherwise OpenBLAS starts
    # a thread per CPU, off the CPU the run pins itself to, and a call
    # that fans out to them (stream_replay reaches one on some seeds)
    # adds their spin-waits to the op's CPU time: 0.34 s of CPU for a
    # 0.22 s op, with no gain in wall time.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.speed import Speedometer
    from perfbench.tracing import LAYER_UNITS, Recorder, layer_metrics
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        with Speedometer() as speed:
            if args.trace:
                workload, setup_times = set_up(cls, args.seed, workdir, 1,
                                               speed=speed)
            else:
                workload, setup_times = set_up(
                    cls, args.seed, workdir, SETUP_REPEATS,
                    SETUP_BUDGET_S, SETUP_MAX_REPEATS, speed,
                )
            rec = Recorder() if args.trace else None
            m = measure(workload, args.seconds, rec, speed)
            import_s = None if args.trace else import_seconds(speed)
            kernel_runs = speed.mark()
        info = m.info or {"workload": args.workload, "seed": args.seed}
        info.update(
            ops=len(m.walls) + len(m.traced_walls),
            setups=len(setup_times),
            kernel_runs=kernel_runs,
            op_cpu_p50_s=statistics.median(m.cpus) if m.cpus else None,
            op_wall_p50_s=statistics.median(m.walls) if m.walls else None,
            peak_rss="per op" if m.peak_per_op else "whole process",
            digest=m.digests[0] if m.digests else None,
            **environment(),
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        if m.walls and m.traced_walls:
            metrics = layer_metrics(rec, m.traced_walls, m.walls)
        else:
            metrics = {}
        units = LAYER_UNITS
        out = ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.jsonl"
        rec.write(out)
        info["spans"] = str(out.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_s": statistics.median(m.times) if m.times else 0.0,
            "records_per_s": m.records / sum(m.times) if m.times else 0.0,
            "peak_rss_mb": m.peak_kib / 1024,
            "import_s": import_s,
        }
        units = END_TO_END_UNITS

    print("info " + json.dumps(info))
    for problem in m.problems[:20]:
        print(f"FAILED {problem}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": m.failed == 0 and bool(metrics),
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
