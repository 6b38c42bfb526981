"""Calibrated time: wall time scaled by the machine's speed while it was measured.

On a shared host the same work takes up to 1.6 times as long while a
neighbour loads the core, and such a state lasts from seconds to minutes,
so raw wall times of identical runs spread by 11-18% between quartiles.
While an operation runs, a timer signal every INTERVAL_S runs a fixed
calibration chunk: a pure-Python loop and, once numpy is loaded, a numpy
part. Each part's speed is its reference time over its measured time. An
operation's calibrated time is its raw time, with the chunks taken out,
times the mean speed over the operation; it reads as seconds at the speed
where the chunk parts take their reference times. The chunk never calls
the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.1
# part times at this machine's usual speed (see README.md)
REF_PYTHON_S = 0.00055
REF_NUMPY_S = 0.00055

_vec = None


def _python_part() -> float:
    acc = 0.0
    table = {}
    for i in range(1, 1100):
        x = i * 0.01
        acc += math.log1p(x) * x**0.95
        table[i & 63] = acc
        acc += len(str(i))
    return acc


def _numpy_part(np) -> float:
    """Small-array overhead and one pass over 20k floats, as the package's numpy code does."""
    global _vec
    if _vec is None:
        _vec = np.linspace(0.0, 1.0, 20_000)
    acc = 0.0
    for i in range(40):
        a = np.asarray(i * 0.1, dtype=float)
        if np.any(a < 0.0):
            acc -= 1.0
        acc += float(np.power(a, 0.95))
    return acc + float(np.sum(np.log1p(_vec) * _vec))


class Clock:
    def __init__(self):
        self.speeds = []
        self.numpy = None  # set once numpy is fully imported; the chunk then adds its numpy part
        self._paused = 0.0
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)

    def sample(self) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        _python_part()
        t1 = time.perf_counter()
        speed = REF_PYTHON_S / (t1 - t0)
        if self.numpy is not None:
            _numpy_part(self.numpy)
            speed = 0.5 * (speed + REF_NUMPY_S / (time.perf_counter() - t1))
        self.speeds.append(speed)
        self._paused += time.perf_counter() - t0
        self._busy = False

    def time(self, fn):
        """Run fn(); return (its result, raw seconds, calibrated seconds)."""
        self.sample()
        first, paused, t0 = len(self.speeds) - 1, self._paused, time.perf_counter()
        out = fn()
        raw = time.perf_counter() - t0 - (self._paused - paused)
        self.sample()
        return out, raw, raw * statistics.fmean(self.speeds[first:])
