"""Host speed probe: pass times that do not move with the speed of a shared host.

On a shared 2-core virtual machine the speed at which one process computes
drifts by a quarter or more over tens of seconds, as other tenants come and
go. The process is not waiting (its CPU time follows its wall time and the
steal time stays near 0), and the machine exposes no hardware counters, so
whole runs of the same code differ by 20 to 30%. The benchmark therefore
times a fixed probe slice before each pass and every INTERVAL_S during it,
and reports the pass in reference seconds: its wall time, less the probe's,
times REFERENCE_SLICE_S over the mean slice seen during the pass.

A slice is the diluted R rho R iteration's own mix of small complex products
at the reference size (306 outcomes, r = 15), plus one Hermitian eigh of
order 64. It is written against numpy alone, so that no change to gramtomo
changes it. Each of its arrays stays below glibc's 128 KiB mmap threshold:
larger ones, freed, raise that threshold and move where the program's own
arrays are put.
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.25
ITERATIONS = 60
# a slice time seen on the 2-vCPU machine of bench/README.md; it only sets
# the scale, so that a reference second is near a wall second there
REFERENCE_SLICE_S = 0.0072


class Probe:
    """Times probe slices on demand and, while armed, from a SIGALRM handler.

    The handler runs between bytecodes of the main thread, so a slice never
    interrupts a numpy call of the program. The program's random streams are
    not touched.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self.vectors = rng.standard_normal((306, 15)) + 1j * rng.standard_normal((306, 15))
        self.conj = self.vectors.conj()
        self.freqs = rng.random(306)
        b = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self.hermitian = b + b.conj().T
        self.samples: list[float] = []
        # seconds spent in slices, for callers to take out of their timings
        self.spent = 0.0
        self._busy = False
        signal.signal(signal.SIGALRM, lambda signum, frame: self.slice())

    def slice(self) -> None:
        if self._busy:  # an alarm during a slow slice
            return
        self._busy = True
        start = time.perf_counter()
        sigma = np.eye(15, dtype=complex) / 15
        for _ in range(ITERATIONS):
            p = np.einsum("ij,ij->i", self.conj @ sigma, self.vectors).real
            r = (self.vectors * (self.freqs / (p + 1.0))[:, None]).T @ self.conj
            r = 0.5 * (r + r.conj().T)
            sigma = r @ sigma @ r
            sigma = sigma / np.trace(sigma).real
        np.linalg.eigh(self.hermitian @ self.hermitian)
        seconds = time.perf_counter() - start
        self.samples.append(seconds)
        self.spent += seconds
        self._busy = False

    @contextlib.contextmanager
    def armed(self):
        """Take a slice every INTERVAL_S of wall time while the block runs."""
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, first: int) -> float:
        """REFERENCE_SLICE_S over the mean slice from sample index first on."""
        return REFERENCE_SLICE_S / statistics.fmean(self.samples[first:])
