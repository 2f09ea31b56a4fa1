"""Host speed, measured by a fixed reference kernel interleaved with the work.

The benchmark runs on shared hosts whose speed for a fixed Python loop
changes by up to 2x for seconds to minutes at a time, as other tenants come
and go.  A wall time alone then measures the neighbours as much as the
program.  So every timed run also times a small kernel of the benchmark's
own, which never calls the program, at short intervals between operations.
``factor`` is the median kernel time over a stretch of the run divided by
REFERENCE_S, its time on a quiet host; a wall time divided by the factor of
the stretch it ran in is that wall time at quiet-host speed.  A change to the
program moves the wall time and leaves the kernel alone, so it shows in full.

The kernel does what the program's hot loops do: it walks assignments of
variables, looks values up in small operation tables and folds words and
sums, in plain Python.

The CPUs of such a host differ in speed at any moment, so a process that
the scheduler moves between them changes speed too, more often than the
kernel is sampled.  ``pin`` therefore keeps a run, and the processes it
starts, on one CPU, where the kernel samples the speed its work gets.
Parallel work runs inside ``all_cpus`` and is scaled by samples taken on
every CPU.
"""

from __future__ import annotations

import itertools
import os
import statistics
import time
from contextlib import contextmanager

_N = 4
_ADD = tuple(tuple(max(i, j) for j in range(_N)) for i in range(_N))
_MUL = tuple(tuple((i * j + i) % _N for j in range(_N)) for i in range(_N))
_VARIABLES = "vwxyz"
_TERM = (("x", "y", "z"), ("y", "x"), ("z", "w", "x", "v"), ("w",), ("v", "v"))

# Kernel time on a quiet host (2 vCPU Intel Xeon, Python 3.11): the fastest
# twentieth of the samples of a loaded stretch fell between 1.8 and 2.0 ms.
REFERENCE_S = 0.0019
INTERVAL_S = 0.05  # least program time between two ticked samples

ALL_CPUS = frozenset(os.sched_getaffinity(0))  # as the process started
HOME_CPU = max(ALL_CPUS)


def pin() -> None:
    """Keep this process on HOME_CPU."""
    os.sched_setaffinity(0, {HOME_CPU})


@contextmanager
def all_cpus():
    """Let this process, and the processes it starts, use every CPU."""
    home = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ALL_CPUS)
    try:
        yield
    finally:
        os.sched_setaffinity(0, home)


def kernel() -> int:
    acc = 0
    for values in itertools.product(range(_N), repeat=len(_VARIABLES)):
        env = dict(zip(_VARIABLES, values))
        total = -1
        for word in _TERM:
            v = env[word[0]]
            for x in word[1:]:
                v = _MUL[v][env[x]]
            total = v if total < 0 else _ADD[total][v]
        acc += total
    return acc


class HostSpeed:
    """Kernel timings taken between the operations of one run."""

    def __init__(self, warmup: int = 3):
        self.samples: list[float] = []
        for _ in range(warmup):
            kernel()
        self._last = time.perf_counter()

    def sample(self, repeats: int = 1) -> None:
        perf = time.perf_counter
        for _ in range(repeats):
            t0 = perf()
            kernel()
            self.samples.append(perf() - t0)
        self._last = perf()

    def sample_every_cpu(self, repeats: int = 1) -> None:
        """Sample ``repeats`` times on each CPU, for work that uses them all."""
        home = os.sched_getaffinity(0)
        try:
            for cpu in sorted(ALL_CPUS):
                os.sched_setaffinity(0, {cpu})
                self.sample(repeats)
        finally:
            os.sched_setaffinity(0, home)

    def tick(self) -> None:
        """Sample if INTERVAL_S has passed since the last sample."""
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.sample()

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, since: int = 0) -> float:
        """Slowness of the host over the samples from ``since`` on (1 = quiet);
        the whole run's when that stretch has none."""
        stretch = self.samples[since:] or self.samples
        return statistics.median(stretch) / REFERENCE_S
