"""Host-speed calibration.

On a shared host the same op can take 1.8 times as long from one few-second
stretch to the next, and the stretches are host-wide. While ops run, a
sampler process (this file run as a script) times a fixed pure-Python
kernel every 50 ms: exact ``Fraction`` arithmetic, dicts, tuples and
recursion, like the checker itself, but none of its code. Each op's wall
time is scaled by ``REFERENCE_S`` over the mean kernel time sampled during
the op: a time reads as it would on a host where the kernel takes
``REFERENCE_S``. Raw wall times are kept next to the scaled ones in the
full record.

The kernel shares no code with sccheck, so a change to the program moves
scaled times exactly as it moves raw ones.
"""

from __future__ import annotations

import bisect
import json
import select
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# the kernel's time, beside a running op, in a quiet stretch on a 2-core
# Xeon with Python 3.11
REFERENCE_S = 0.012
PERIOD_S = 0.05  # pause between two kernel runs
MIN_WINDOW_S = 1.0  # shorter ops use the samples of this window around them


def _walk(node: int, depth: int) -> Fraction:
    if depth == 0:
        return Fraction(node, 7)
    return _walk(node + 1, depth - 1) + _walk(node * 2 % 11, depth - 1) / 3


def _kernel() -> Fraction:
    acc = Fraction(0)
    table = {}
    for i in range(1, 600):
        x = Fraction(i, (i % 7) + 1)
        acc += x * Fraction(3, i) - x / 5
        table[(i % 13, i % 17)] = (acc.numerator % 1000, [x] * 3)
    for i in range(12):
        acc += _walk(i, 6)
    return acc + len(table)


def kernel_s() -> float:
    """Wall time of one kernel run."""
    started = time.perf_counter()
    _kernel()
    return time.perf_counter() - started


class HostSpeed:
    """Runs the sampler for the duration of a ``with`` block; afterwards
    ``scale(start, end)`` gives the factor for a span of ``perf_counter``
    time (the clock is system-wide, so the two processes share it)."""

    def __enter__(self) -> "HostSpeed":
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._proc.stdout.readline()  # the sampler is running
        return self

    def __exit__(self, *exc) -> None:
        try:
            out, _ = self._proc.communicate(input="", timeout=30)
        except BaseException:
            self._proc.kill()
            self._proc.wait()
            raise
        samples = json.loads(out)
        self.times = [t for t, _ in samples]
        self.kernels = [k for _, k in samples]

    def scale(self, start: float, end: float) -> float:
        mid = (start + end) / 2
        lo = bisect.bisect_left(self.times, min(start, mid - MIN_WINDOW_S / 2))
        hi = bisect.bisect_right(self.times, max(end, mid + MIN_WINDOW_S / 2))
        window = self.kernels[lo:hi] or [self.kernels[min(lo, len(self.kernels) - 1)]]
        return REFERENCE_S * len(window) / sum(window)


def _sample() -> None:
    """Sampler loop: kernel runs until standard input closes, then all
    samples as one JSON list of [start, seconds]."""
    samples = [[time.perf_counter(), kernel_s()]]
    print("ready", flush=True)
    while not select.select([sys.stdin], [], [], PERIOD_S)[0]:
        samples.append([time.perf_counter(), kernel_s()])
    print(json.dumps(samples), flush=True)


if __name__ == "__main__":
    _sample()
