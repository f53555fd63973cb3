"""CPU time, and the host's speed while it is spent.

The benchmark runs on shared hosts whose other tenants change how fast
a CPU second goes: on one virtual CPU a fixed pure-Python loop was seen
to switch between about 13 ms and 25 ms of CPU time from one second to
the next, and a workload's op time followed it. So every end-to-end
timing is CPU time scaled to a reference speed:

    reference seconds = CPU seconds * REFERENCE_S / kernel CPU seconds

where the kernel is a fixed piece of Python and numpy work that a
background thread of the benchmark times over and over while the op
runs, on the same virtual CPU. A kernel run takes ``REFERENCE_S`` on the
reference host, so on that host a reference second is a CPU second.
Nothing here calls the program, so a change to the program cannot move
the kernel's time.
"""

from __future__ import annotations

import os
import resource
import statistics
import threading
from time import clock_gettime, process_time, pthread_getcpuclockid, thread_time

import numpy as np

#: nominal CPU time of one :func:`kernel` run: a reference second is a
#: CPU second on a host that runs the kernel in this time. On the 2-vCPU
#: Xeon VM (Python 3.11, numpy 2.4) the benchmark was tuned on, it took
#: 0.36-0.85 ms, as the load of the VM's neighbours changed
REFERENCE_S = 0.0005
#: the background thread sleeps this long between kernel runs, so it
#: takes about a tenth of the CPU
PERIOD_S = 0.02
#: an op that spans fewer kernel runs than this is scaled by the last
#: this many runs before its end
MIN_SAMPLES = 5

_KEYS = np.random.default_rng(0).random(4096)


def kernel() -> float:
    """A fixed mix of interpreter work and small numpy calls.

    Its inputs stay in the CPU's caches, so it measures how fast the
    CPU runs, not how much memory bandwidth the host leaves.
    """
    counts: dict[int, int] = {}
    total = 0
    for i in range(1500):
        k = (i * 7919) % 211
        counts[k] = counts.get(k, 0) + 1
        total += len(str(i))
    order = sorted(counts.items(), key=lambda kv: kv[1])
    a = np.sort(_KEYS)
    b = np.cumsum(a[a > 0.5])
    return total + order[0][1] + float(b[-1]) + float(np.searchsorted(a, 0.25))


def cpu_seconds(speed: Speedometer | None = None) -> float:
    """CPU time used by this process and the children it has waited for,
    less what the running speedometer *speed* used.

    With paravirtual steal accounting the kernel leaves out the time the
    host gives the virtual CPU to someone else.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    own = speed.cpu() if speed is not None else 0.0
    return process_time() - own + children.ru_utime + children.ru_stime


class Speedometer:
    """Times :func:`kernel` in a background thread until stopped.

    Pins the process to one CPU while it runs, so the thread and the op
    share it, and every timed kernel run measures the CPU the op runs on.
    Use as a context manager; :meth:`mark` and :meth:`scale` turn the
    CPU time of what ran between two marks into reference seconds.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._cpus = os.sched_getaffinity(0)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="speedometer", daemon=True
        )

    def __enter__(self) -> Speedometer:
        os.sched_setaffinity(0, {min(self._cpus)})
        self._thread.start()
        self._clock = pthread_getcpuclockid(self._thread.ident)
        while not self.samples:  # the first sample is there before any op
            self._stop.wait(PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        os.sched_setaffinity(0, self._cpus)

    def _run(self) -> None:
        while True:
            t0 = thread_time()
            kernel()
            self.samples.append(thread_time() - t0)
            if self._stop.wait(PERIOD_S):
                return

    def cpu(self) -> float:
        """CPU time the background thread has used so far."""
        return clock_gettime(self._clock)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int) -> float:
        """Reference seconds per CPU second since *since* (a mark).

        The mean of the speeds, not of the kernel times: an op's CPU
        time adds up the time its work took at each speed.
        """
        end = len(self.samples)
        window = self.samples[min(since, max(0, end - MIN_SAMPLES)):end]
        return statistics.fmean(REFERENCE_S / k for k in window)

    def scale(self, cpu: float, since: int) -> float:
        """*cpu* seconds spent since the mark *since*, in reference seconds."""
        return cpu * self.factor(since)
