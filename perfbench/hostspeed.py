"""A gauge of the host's speed, for scaling times to a reference host.

On a shared VM the host's speed drifts by tens of percent over seconds.  A
probe times a fixed piece of work; a stretch of the program's work timed
between two bursts of probes is scaled by the probe's reference time over the
mean probe time of the bursts, which gives its time on the reference host.
Interpreted code and BLAS kernels do not slow down alike, so each workload is
gauged by the probe kind that resembles its work (``workloads.GAUGES``).
``Gauge`` cuts a timed region into such stretches with a timer signal, so long
calls are gauged from inside too.

Probing never moves the program's garbage collections (see ``probe``).
"""

import gc
import signal
import statistics
import time
from fractions import Fraction


def _fraction_sums() -> None:
    total = Fraction(0)
    for k in range(1, 140):
        total += Fraction(k, k * k + 1)


_MATRIX = []


def _complex_matmul() -> None:
    if not _MATRIX:
        import numpy as np

        rng = np.random.default_rng(0)
        _MATRIX.append(rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256)))
    _MATRIX[0] @ _MATRIX[0]


# kind: (fixed work, seconds it takes on the reference host, a 2-vCPU KVM
# guest on an Intel Xeon (model 207) in one of its fast phases, with one BLAS
# thread).  Scaled times are in seconds of that host.
PROBES = {
    "python": (_fraction_sums, 0.0004),
    "blas": (_complex_matmul, 0.0025),
}


def probe(kind: str) -> float:
    """Seconds taken by one run of the probe's work.

    The cyclic collector is off while it runs, and the work frees all it
    allocates, so the collector's counts are left as they were.
    """
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    PROBES[kind][0]()
    elapsed = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return elapsed


def burst(kind: str, count: int) -> float:
    """Total time of ``count`` probes, after one warm-up probe."""
    probe(kind)
    total = 0.0
    for _ in range(count):
        total += probe(kind)
    return total


def scale(kind: str, total: float, count: int) -> float:
    """Factor that takes a time measured beside ``count`` probes that took
    ``total`` seconds to the reference host."""
    return PROBES[kind][1] * count / total


class Gauge:
    """Wall and CPU time of a region, raw and scaled to the reference host.

    Every ``EVERY_S`` of wall time a timer signal interrupts the region and
    times a burst of probes lasting about ``SHARE`` of the stretch since the
    last burst (``MIN_PROBES`` to ``MAX_PROBES`` probes).  Each stretch is
    scaled by the bursts on either side of it; probe time is left out of both
    the raw and the scaled times.  With no probe kind, the region is timed in
    one piece and not scaled.
    """

    EVERY_S = 0.05
    SHARE = 0.1
    MIN_PROBES, MAX_PROBES = 4, 400

    def __init__(self, kind: str | None):
        self.kind = kind
        self.raw_wall = self.raw_cpu = self.wall = self.cpu = 0.0
        self.means = []

    def start(self) -> None:
        if self.kind:
            self.count = 4 * self.MIN_PROBES
            self.before = burst(self.kind, self.count)
            self.means.append(self.before / self.count)
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.EVERY_S)
        self._mark()

    def stop(self) -> None:
        if self.kind:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_IGN)
        self._add_stretch()

    def probe_s(self) -> float | None:
        """Median probe time over the bursts, or None unscaled."""
        return statistics.median(self.means) if self.means else None

    def _mark(self) -> None:
        self.t0, self.c0 = time.perf_counter(), time.process_time()

    def _tick(self, signum, frame) -> None:
        self._add_stretch()
        self._mark()
        # one-shot, re-armed after the burst, so a tick never interrupts a tick
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S)

    def _add_stretch(self) -> None:
        wall, cpu = time.perf_counter() - self.t0, time.process_time() - self.c0
        factor = 1.0
        if self.kind:
            ref_s = PROBES[self.kind][1]
            n = min(self.MAX_PROBES, max(self.MIN_PROBES, round(self.SHARE * wall / ref_s)))
            after = burst(self.kind, n)
            self.means.append(after / n)
            factor = scale(self.kind, self.before + after, self.count + n)
            self.before, self.count = after, n
        self.raw_wall, self.raw_cpu = self.raw_wall + wall, self.raw_cpu + cpu
        self.wall, self.cpu = self.wall + wall * factor, self.cpu + cpu * factor
