"""Steadiness report: run the benchmark over several seeds per workload.

From the repository root::

    python3 perfbench/steadiness.py --seeds 2011-2020 --out perfbench/results/seeds-1.json

For every end-to-end metric on every workload it prints the median and
quartiles across runs, the spread (interquartile range over median) and
the metric's bound from ``BENCHMARK.json``; a spread above a third of
the bound is flagged. It also checks that ``analyze_cold`` and
``analyze_warm`` produced the same result digest for each seed. With
``--against`` it also compares every median with an earlier report's.
A seed may repeat (``--seeds 2011,2011,2011``) to take the spread of
repeated runs on the same inputs. Runs are sequential, one process at a
time. The exit code is 1 if a run failed a check, a spread is flagged,
the digests differ or a median got worse by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _seeds(text: str) -> list[int]:
    """``2011-2020`` (a range) or ``2011,2011,2011`` (a list; a seed may
    repeat, to take the spread of repeated runs on the same inputs)."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        print(proc.stdout + proc.stderr, file=sys.stderr)
        proc.check_returncode()
    lines = proc.stdout.strip().splitlines()
    info = next(
        json.loads(line[5:]) for line in lines if line.startswith("info ")
    )
    return {"info": info, "result": json.loads(lines[-1])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, quartiles and (q3 - q1) / median of *values*."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def git_rev() -> str | None:
    proc = subprocess.run(
        ["git", "describe", "--always", "--dirty"],
        cwd=ROOT, capture_output=True, text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def compare(path: Path, rows: list[tuple], bench: dict) -> bool:
    """Print each median against *path*'s; False if one got worse by
    more than its bound."""
    earlier = json.loads(path.read_text(encoding="utf-8"))
    before = {(r["workload"], r["metric"]): r["median"]
              for r in earlier["spread"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    print(f"\nmedians against {path.name}")
    ok = True
    for workload, name, med, *_, bound, _ in rows:
        old = before[workload, name]
        worse = (med - old if better[name] == "lower" else old - med) / old
        flag = "ok" if worse <= bound else "WORSE"
        ok &= flag == "ok"
        print(f"{workload:<14} {name:<14} {old:>12.5g} -> {med:>12.5g} "
              f"{worse:>+7.3f} {bound:>6.2f} {flag}")
    return ok


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("2011-2020"))
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument(
        "--against", type=Path, default=None,
        help="an earlier report (--out) whose medians this set's must "
             "not be worse than by more than each metric's bound",
    )
    args = parser.parse_args(argv)

    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    rows = []
    steady = True
    for workload in (w["name"] for w in bench["workloads"]):
        runs[workload] = []
        for seed in args.seeds:
            run = run_once(workload, seed, seconds, trace=0)
            res = run["result"]
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in res["metrics"].items()),
                  flush=True)
            steady &= res["correct"]
            runs[workload].append(run)
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"]
                      for r in runs[workload]]
            med, q1, q3, rel = spread(values)
            flag = "ok" if rel <= bound / 3 else "WIDE"
            steady &= flag == "ok"
            rows.append((workload, name, med, q1, q3, rel, bound, flag))

    print(f"\n{'workload':<14} {'metric':<14} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>7} {'bound':>6}")
    for workload, name, med, q1, q3, rel, bound, flag in rows:
        print(f"{workload:<14} {name:<14} {med:>12.5g} {q1:>12.5g} "
              f"{q3:>12.5g} {rel:>7.3f} {bound:>6.2f} {flag}")

    if "analyze_cold" in runs and "analyze_warm" in runs:
        cold = {r["info"]["seed"]: r["info"]["digest"]
                for r in runs["analyze_cold"]}
        warm = {r["info"]["seed"]: r["info"]["digest"]
                for r in runs["analyze_warm"]}
        same = all(cold[s] == warm[s] for s in cold)
        steady &= same
        print(f"\nanalyze_cold == analyze_warm digests on every seed: {same}")

    if args.against is not None:
        steady &= compare(args.against, rows, bench)

    if args.out is not None:
        first = next(iter(runs.values()))[0]["info"]
        report = {
            "git_rev": git_rev(),
            "environment": {k: first[k] for k in ("nproc", "python", "numpy")},
            "run_seconds": seconds,
            "seeds": args.seeds,
            "workloads": {
                w: {
                    "inputs": [
                        {k: r["info"][k] for k in (
                            "seed", "scale", "increments", "input_records",
                            "input_bytes", "ops", "setups", "peak_rss",
                            "digest")}
                        for r in rs
                    ],
                    "results": [r["result"] for r in rs],
                }
                for w, rs in runs.items()
            },
            "spread": [
                {"workload": w, "metric": n, "median": med, "q1": q1,
                 "q3": q3, "spread": rel, "bound": b}
                for w, n, med, q1, q3, rel, b, _ in rows
            ],
        }
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n",
                            encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
