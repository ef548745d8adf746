"""Machine-speed probe, so that timings of one machine compare across minutes.

On a shared host the same single-threaded work runs up to about 1.6 times
slower while neighbours load the core, and that state changes within seconds
and drifts over minutes.  The probe measures the state while the work runs:
a SIGALRM handler times a small fixed kernel every ``INTERVAL`` seconds of
wall time.  Each probe gives the speed at that moment, ``REFERENCE_PROBE_S``
over the kernel's time.  The program's own speed goes as that speed to the
power ``EXPONENT``, and a block of work's *reference seconds* are its wall
seconds, minus the probes' own time, times the mean of that power over the
block's probes: the work done, counted as the seconds it would take at the
speed where the kernel takes ``REFERENCE_PROBE_S``.  A mean over probes,
because work is speed integrated over time and probes sample time evenly.

The kernel holds the two kinds of work xms spends its time on: Python
interpreter work (counting 3000 integer keys in a dict) and a small LAPACK
eigensolve.  Probe durations are thread CPU time, so time this process's own
other threads or processes take from the probe's core does not count as a
slow machine.

Python runs signal handlers in the main thread between bytecodes, never inside
a numpy call, so the probe reads no state of the program and leaves its
results unchanged.
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL = 0.05  # seconds of wall time between probes
REFERENCE_PROBE_S = 1e-3  # kernel CPU seconds at the reference speed
# Call time of protocol9 and gallery2k against probe speed, fitted over 72
# and 45 calls on a 2-vCPU Xeon VM: speed^-1.25 and speed^-1.38; a slow phase
# slows the program more than the 1 ms kernel.
EXPONENT = 1.3
MIN_SAMPLES = 5  # a block with fewer probes is topped up right after it ends


class SpeedProbe:
    """Start with ``start()``; ``begin()`` and ``end()`` bracket a timed block."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((48, 48))
        self._sym = m @ m.T
        self._keys = rng.integers(0, 1 << 20, 3000).tolist()
        self._samples = []
        self._t0 = None

    def _kernel(self) -> int:
        np.linalg.eigh(self._sym)
        counts = {}
        for key in self._keys:
            counts[key] = counts.get(key, 0) + 1
        return len(counts)

    def _sample(self, into: list) -> None:
        w0, c0 = time.perf_counter(), time.thread_time()
        self._kernel()
        into.append((time.perf_counter() - w0, time.thread_time() - c0))

    def _on_alarm(self, signum, frame) -> None:
        self._sample(self._samples)

    def start(self) -> None:
        for _ in range(MIN_SAMPLES):  # first-touch costs stay out of the timed blocks
            self._kernel()
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def begin(self) -> None:
        self._samples = []
        self._t0 = time.perf_counter()

    def end(self) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the block since ``begin()``."""
        wall = time.perf_counter() - self._t0
        samples, self._samples = self._samples, []
        busy = sum(w for w, _ in samples)
        while len(samples) < MIN_SAMPLES:
            self._sample(samples)
        speed = sum((REFERENCE_PROBE_S / c) ** EXPONENT for _, c in samples) / len(samples)
        return wall, (wall - busy) * speed
