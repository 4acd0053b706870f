"""A fixed reference computation that measures how fast the machine runs.

The benchmark shares its host with other work, which can slow every
operation by half for seconds at a time.  Timing this computation right
before and after each operation, and scaling the operation's time by
``NOMINAL_S / reference time``, reports every time at one machine speed
and cancels most of that drift.  The computation uses no code of the
program, so a change to the program cannot move it; it mixes what the
program spends its time on: long and short FFTs, small matrix products,
``exp`` over a large array, normal draws and an interpreted loop.
"""

from __future__ import annotations

import time

import numpy as np

#: Roughly the time of one :meth:`Reference.seconds` call on a quiet
#: 2-vCPU x86-64 virtual machine (Python 3.11, NumPy 2.4).
NOMINAL_S = 0.020


class Reference:
    """The reference computation, with its inputs built once."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._long = rng.normal(size=(8, 24_000))
        self._short = rng.normal(size=(16, 600))
        self._weights = rng.normal(size=(64, 64))
        self._inputs = rng.normal(size=(64, 32))
        self._big = rng.normal(size=200_000)

    def seconds(self) -> float:
        """Wall time of one pass of the reference computation."""
        start = time.perf_counter()
        for _ in range(4):
            np.fft.irfft(np.fft.rfft(self._long, axis=1), n=24_000, axis=1)
            np.exp(-0.5 * self._big * self._big).sum()
            for _ in range(5):
                np.exp(self._weights @ self._inputs)
                np.fft.irfft(np.fft.rfft(self._short, axis=1), n=600, axis=1)
            np.random.default_rng(1).normal(size=50_000)
            sum(i * i for i in range(6_000))
        return time.perf_counter() - start


def at_nominal_speed(seconds: float, before: float, after: float) -> float:
    """*seconds* measured between reference passes that took *before* and
    *after*, restated at the nominal machine speed."""
    return seconds * NOMINAL_S / (0.5 * (before + after))
