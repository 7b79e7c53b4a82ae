"""Machine-speed calibration: a fixed kernel timed between ops.

The sandbox this benchmark runs on is a shared 2-vCPU microVM whose speed
drifts: the same fixed computation takes 3.0 ms at best, 3.7-5.0 ms within
one quiet minute, and several times that when the host takes the vCPUs
away (``steal`` in ``/proc/stat``).  A run does not outlast the drift, so
raw wall-clock values of ten runs spread (quartile distance over median)
by up to 0.29 on a quiet day and 0.35 on a busy one, more than the largest
bound ``BENCHMARK.json`` may set.  ``noise_study.json`` next to this file
holds the runs behind these numbers, raw and scaled side by side.

So every run also times a fixed kernel that runs no code of the program
(interpreter loop, zlib inflate, numpy copy; about 3 ms) after every
~75 ms of op time, about 4 % of the run, on two clocks: wall and process
CPU time.  From the samples taken around an op come

* the **speed factor**: mean kernel wall time over ``REFERENCE_MS``;
* the **stretch**: kernel wall time over kernel CPU time, above 1 when the
  host kept the process from running while it wanted to.

Each op is timed on the same two clocks (CPU time of all threads: pool
workers and the in-process server compute on the op's behalf) and reported
**at reference speed**: the part of its latency the process spent
computing, or kept from computing, is divided by the speed factor; the
part it spent waiting (socket timers, fsync, sleeping) stays as measured —
see :func:`at_reference_speed`.  The run's factor is reported too
(``bench.speed_factor``), and the printed output shows the value as
measured beside each scaled one.  A change to the program cannot move the
kernel's time, so it moves a scaled metric the way it moves the raw one.
"""

from __future__ import annotations

import time
import zlib
from typing import Optional

import numpy as np

#: Kernel time in the fastest state seen on the reference box (2 vCPUs,
#: Python 3.11, numpy 2.4): the "reference speed" metrics are scaled to.
REFERENCE_MS = 3.0

#: Op-busy seconds between two kernel samples.
SAMPLE_EVERY_S = 0.075

#: Samples either side of an op its speed is taken from (~0.3 s of the
#: run): drift comes in bursts, so one factor per run misplaces the tail.
NEARBY = 2

_CELLS = ((np.arange(1_000_000, dtype=np.uint32) * 2654435761) >> 7) % 97
_COMPRESSED = zlib.compress(_CELLS[:60_000].tobytes())


def kernel() -> None:
    """Fixed CPU work in the resource mix of the program's read path."""
    x = 0
    for i in range(30_000):
        x ^= (i * 7) >> 3
    for _ in range(4):
        zlib.decompress(_COMPRESSED)
    _CELLS.copy()


def at_reference_speed(
    wall: float, cpu: float, speed: tuple[float, float]
) -> float:
    """A duration measured at ``speed`` = (factor, stretch), at reference
    speed.

    ``cpu`` is the process CPU time spent inside the duration, so
    ``cpu * stretch`` is the wall time the process computed or was kept
    from computing (whether or not the guest charges stolen time to the
    process: the kernel is timed on the same two clocks).  That part is
    divided by the factor; the rest, waiting, stays as measured.  With two
    threads computing at once ``cpu`` can exceed ``wall``: capped.
    """
    factor, stretch = speed
    busy = min(cpu * stretch, wall)
    return wall - busy * (1.0 - 1.0 / factor)


class SpeedMeter:
    """Collects kernel timings on both clocks, wall and process CPU."""

    def __init__(self) -> None:
        #: ``(wall seconds, cpu seconds)`` of every kernel run.
        self.samples: list[tuple[float, float]] = []
        self._busy = SAMPLE_EVERY_S  # sample right after the first op

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            cpu = time.process_time()
            started = time.perf_counter()
            kernel()
            wall = time.perf_counter() - started
            self.samples.append((wall, time.process_time() - cpu))

    def after_op(self, seconds: float) -> None:
        """Account one op's latency; sample when enough has elapsed."""
        self._busy += seconds
        while self._busy >= SAMPLE_EVERY_S:
            self._busy -= SAMPLE_EVERY_S
            self.sample()
            if self._busy > 10 * SAMPLE_EVERY_S:
                self._busy = 0.0  # one long op does not buy 100 samples

    def speed(self, around: Optional[int] = None) -> tuple[float, float]:
        """``(factor, stretch)`` over every sample, or over the ``NEARBY``
        samples either side of position ``around`` in the sample list.
        A factor above 1 means a slow machine; (1, 1) without samples."""
        samples = self.samples
        if around is not None:
            samples = samples[max(0, around - NEARBY) : around + NEARBY]
        wall = sum(wall for wall, _cpu in samples)
        cpu = sum(cpu for _wall, cpu in samples)
        if not wall or not cpu:
            return 1.0, 1.0
        return wall / len(samples) * 1000.0 / REFERENCE_MS, wall / cpu
