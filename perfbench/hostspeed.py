"""How fast the host runs right now, from a fixed calibration probe.

On a shared machine the same CPU-bound work can take half as long again
for minutes at a time while other tenants load the host; every request and
the set-up slow down together.  Timings from runs a few minutes apart then
differ by that factor, whatever the program does.  The closed-loop
workloads time a fixed probe on the thread that runs the engine, next to
the work they measure and outside the timed calls, and report each timing
at the reference speed:

    reported = measured / slowness,   slowness = probe seconds / reference

``service_mixed`` cannot block its generator for a probe, and a few probe
bursts between its phases tracked the server badly (over five seeds they
widened its latency spread).  It runs a ``Sampler`` instead: a side
process, at the lowest priority, that probes four times a second for the
whole run, and takes the median over the window being reported.

The probe is the benchmark's own code on fixed inputs: a pure-Python part
(dict and tuple churn, like the engine's interpreter-bound paths) and a
NumPy part (sort, cumulative sum, unique, like its array kernels).  Nothing
the program does changes its work, and garbage collection is off while it
runs, so a program's heap does not leak into it.  The reference constants
are the probe's median times on the 2-vCPU host the bounds were tuned on;
a slowness of 1.0 means that host in its usual state.  Runs print the raw
timings and the slowness next to the reported figures.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys
from statistics import median
from time import perf_counter, sleep
from typing import List, Tuple

#: Median seconds of each probe part on the reference host.
REFERENCE_PYTHON_S = 0.0139
REFERENCE_NUMPY_S = 0.0150

try:
    import numpy

    _ARRAY = numpy.random.RandomState(0).random_sample(200_000)
except ImportError:  # the engine runs without NumPy; so does the probe
    numpy = None


def _python_part() -> None:
    table, kept = {}, []
    for index in range(40_000):
        key = (index * 7919) % 4099
        table[key] = (index, key)
        if index % 3 == 0:
            kept.append(table.get(key - 1))


def _numpy_part() -> None:
    ordered = numpy.sort(_ARRAY)
    running = numpy.cumsum(ordered * 1.5)
    numpy.unique((running * 100).astype(numpy.int64) % 5000)


def probe() -> float:
    """Slowness of the host now: probe time over the reference time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _python_part()
        ratios = [(perf_counter() - started) / REFERENCE_PYTHON_S]
        if numpy is not None:
            started = perf_counter()
            _numpy_part()
            ratios.append((perf_counter() - started) / REFERENCE_NUMPY_S)
    finally:
        if enabled:
            gc.enable()
    return sum(ratios) / len(ratios)


class Probes:
    """Every probe of one run, for the run's median slowness."""

    def __init__(self) -> None:
        self.values = []

    def probe(self) -> float:
        value = probe()
        self.values.append(value)
        return value

    def burst(self, count: int = 9) -> float:
        """Median slowness over ``count`` probes in a row (about 30 ms each)."""
        return median(self.probe() for _ in range(count))

    def median(self) -> float:
        return median(self.values)


class Sampler:
    """Probes in a side process every ``interval`` seconds until stopped.

    The side process prints ``<perf_counter> <slowness>`` lines;
    ``perf_counter`` is the system-wide monotonic clock on Linux, so its
    times compare with this process's.
    """

    def __init__(self, interval: float = 0.25) -> None:
        self._process = subprocess.Popen(
            [sys.executable, __file__, str(interval)], stdout=subprocess.PIPE, text=True
        )
        self.samples: List[Tuple[float, float]] = []

    def stop(self) -> None:
        """End the side process, wait for it, and keep its samples."""
        self._process.terminate()
        try:
            output, _ = self._process.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            output, _ = self._process.communicate()
        self.samples = [
            (float(at), float(value))
            for at, value in (line.split() for line in output.splitlines())
        ]

    def median_between(self, start: float, end: float) -> float:
        """Median slowness of the samples taken from ``start`` to ``end``."""
        inside = [value for at, value in self.samples if start <= at <= end]
        if not inside:
            raise RuntimeError(f"no host-speed sample between {start:.3f} and {end:.3f}")
        return median(inside)


def _sample_forever(interval: float) -> None:
    os.nice(19)
    while True:
        value = probe()
        sys.stdout.write(f"{perf_counter():.6f} {value:.6f}\n")
        sys.stdout.flush()
        sleep(interval)


if __name__ == "__main__":
    _sample_forever(float(sys.argv[1]))
