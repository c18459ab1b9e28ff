"""The machine's speed, sampled while a round runs.

The machine this benchmark runs on is a share of a busy host, and its
speed changes from one moment to the next: the same fixed computation
takes 1.5 ms or 2.6 ms from one 50 ms stretch to the next, on either
CPU, and a round of the same
inputs has taken 24 s and 38 s a quarter of an hour apart, with CPU time
within 2% of wall time (the process was not descheduled, it ran on a
slower CPU).  So a worker runs ``reference`` every ``INTERVAL_S`` seconds
from a timer signal, whose handler runs between two bytecodes of whatever
the program is doing, and records when each call started and how long it
took.  run.py reports an operation's time less
the samples taken inside it, scaled by ``NOMINAL_S`` over the mean
sample inside it (or in the whole round, for operations too short to
hold INSIDE samples): the time the operation takes on this machine when
``reference`` takes ``NOMINAL_S``.

``reference`` uses only the interpreter and its integers (multiplication
and reduction of 192-bit integers, stores into a fixed list), the same
kind of work as mpmath's pure-python backend, and nothing of ``adelic``,
numpy, sympy or mpmath, so no change to the program or its dependencies
can move it.  It allocates nothing the garbage collector tracks, so it
does not move the program's collections: an earlier reference that
built 2000 tuples per sample made the program's millisecond operations
spread twice as much from one interpreter to the next.
"""

from __future__ import annotations

import signal
from time import perf_counter

NOMINAL_S = 0.002             # times are scaled to the speed where reference() takes this
INTERVAL_S = 0.05             # one sample every 50 ms, about 4% of the time
INSIDE = 10                   # samples an operation needs for a speed of its own

_M = (1 << 192) - 237


_BUF = [0] * 256


def reference() -> int:
    x = 0x9E3779B97F4A7C15F39CC0605CEDC834
    acc = 0
    buf = _BUF
    for i in range(2000):
        x = (x * x + i) % _M
        acc ^= x >> 96
        buf[i & 255] = x & 0xFFFF
    return acc


class Sampler:
    """Times ``reference`` every INTERVAL_S seconds while started."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []     # (start, seconds)

    def _tick(self, signum, frame):
        t = perf_counter()
        reference()
        self.samples.append((t, perf_counter() - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def scaled(start: float, end: float, samples: list) -> float:
    """Seconds from start to end, less the samples taken in between, at the
    nominal speed.  The speed is the mean of the samples taken in between
    if there are INSIDE of them, else of all the samples.  (On operations
    of a few milliseconds, a mean over the whole round gave medians that
    spread 0.10 over six rounds of the same inputs, a mean over the
    nearest second 0.17.)"""
    inside = [s for s in samples if start <= s[0] < end]
    near = inside if len(inside) >= INSIDE else samples
    if not near:
        raise ValueError("no speed samples")
    busy = (end - start) - sum(d for _, d in inside)
    return busy * NOMINAL_S * len(near) / sum(d for _, d in near)
