"""Machine speed, sampled next to every timing.

The CPU of a shared virtual machine changes speed while it runs.  On a
2-vCPU Xeon VM the reference kernel below took anywhere from 0.93 to 2.7 ms,
in states lasting seconds, and every wall time of the program moved with it,
by up to 2x.  So the benchmark also times this fixed NumPy/Python kernel
after set-up and after every operation, outside the timed region.  For
single-threaded operations it also times the kernel every 0.25 s during the
operation, on the operation's own thread.  `corrected` then rescales each
wall time to a machine on which the kernel takes REF_NOMINAL_S.

The kernel is never run next to the program on another core: there it
measured the contention, not the speed (1.1-2.2 ms beside a CLI child,
against 0.9-1.0 ms just before and after).
"""

from __future__ import annotations

import functools
import signal
import time

REF_NOMINAL_S = 1e-3


@functools.cache
def _reference_input():
    import numpy as np
    return np.exp(1j * np.arange(256 * 256.0).reshape(256, 256) * 1e-3)


def reference_s(reps: int = 8) -> float:
    """Fastest of ``reps`` runs of a fixed kernel: an FFT, a small complex
    matrix product and an interpreted loop, independent of sts_toa."""
    import numpy as np
    a = _reference_input()
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.fft.fft(a, axis=0)
        a @ a[:, :32]
        acc = 0
        for k in range(2000):
            acc += k * k
        best = min(best, time.perf_counter() - t0)
    return best


class Sampler:
    """Times the reference kernel every PERIOD_S while an operation runs.

    For single-threaded work, whose speed can change many times between the
    samples taken before and after it.  The handler runs on the main thread
    (SIGALRM); the time it takes is reported in ``spent`` so that the caller
    can take it out of the latency.
    """

    PERIOD_S = 0.25

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        self.samples.append(reference_s(reps=3))
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False


def corrected(lat: list, refs: list, during: list) -> list:
    """Latency i at nominal speed, given the reference times just before
    (refs[i]) and after (refs[i + 1]) it and any taken during it: the wall
    time times the mean speed, with speed = REF_NOMINAL_S / reference time."""
    out = []
    for i, t in enumerate(lat):
        samples = [refs[i], *during[i], refs[i + 1]]
        out.append(t * sum(REF_NOMINAL_S / r for r in samples) / len(samples))
    return out
