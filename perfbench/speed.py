"""How fast the shared host runs, and timings scaled to a reference speed.

The runner is a few virtual cores of a shared machine. What its other
tenants do changes how long the same work takes, by half or more, from
one minute to the next, and every timing of a run moves together. So the
generator times a fixed kernel of interpreter and numpy work
(:func:`kernel`: a Python loop, a sort, a histogram and dense
matrix-vector products, the mix the service's own work is made of) at
every phase boundary and every ``PROBE_EVERY_S`` between requests
(:class:`HostSpeed`), and reports each timing as it would read where one
kernel takes ``REFERENCE_KERNEL_S``:

    scaled duration = measured duration * REFERENCE_KERNEL_S / kernel time
    scaled rate     = measured rate * kernel time / REFERENCE_KERNEL_S

where the kernel time is the mean of the probes just before and just
after the sample was taken. The kernel is the benchmark's own code, the
same on every commit, so a change to the program moves a scaled timing as
it moves the measured one; what is divided out is the host's state at
the time. Measured values and the kernel time are printed beside the
scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: Kernel seconds at the reference speed: about the median on a 2-vCPU
#: Intel Xeon runner (Python 3.11, numpy 2.4) in its faster state.
REFERENCE_KERNEL_S = 0.001
#: Kernel runs per probe; a probe is their median, so one preemption of
#: the generator does not move it.
PROBE_RUNS = 7
#: Within a phase, a probe is taken between two requests (or client
#: batches) once this many seconds have passed since the last one.
PROBE_EVERY_S = 0.25

_DATA = np.random.default_rng(0).random(1 << 15)
_MATRIX = np.random.default_rng(1).random((512, 512))


def kernel() -> float:
    """Seconds for one fixed mix of interpreter and numpy work."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(3000):
        total += i % 7
        table[i & 255] = total
    np.sort(_DATA)
    np.histogram(_DATA, bins=64, range=(0.0, 1.0))
    for _ in range(4):
        _MATRIX @ _DATA[:512]
    return time.perf_counter() - started


class HostSpeed:
    """The probes of one run and the scale factor they give a sample."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.kernel_s: list[float] = []

    def probe(self) -> None:
        """Time ``PROBE_RUNS`` kernels now and keep their median."""
        value = statistics.median(kernel() for _ in range(PROBE_RUNS))
        self.times.append(time.perf_counter())
        self.kernel_s.append(value)

    def due(self) -> None:
        """Probe if ``PROBE_EVERY_S`` has passed since the last probe."""
        if not self.times or time.perf_counter() - self.times[-1] >= PROBE_EVERY_S:
            self.probe()

    def factor(self, at: float) -> float:
        """``REFERENCE_KERNEL_S`` over the mean kernel time of the probes
        just before and just after ``at`` (the nearest at either end)."""
        i = bisect.bisect_right(self.times, at)
        around = self.kernel_s[max(0, i - 1):i + 1]
        return REFERENCE_KERNEL_S / statistics.fmean(around)

    def duration(self, seconds: float, at: float) -> float:
        """A duration measured at ``at``, read at the reference speed."""
        return seconds * self.factor(at)
