"""A fixed pure-Python workload that measures how fast the machine is now.

On a host shared with other tenants the speed of a core flips between a
fast and a slow state (about 1.7x apart) many times a second, and the share
of time spent slow drifts from one minute to the next.  Library ops and
this workload slow down by the same factor.  So a run times this workload
between its ops, and run.py reports each op latency t also at reference
speed: t * REF_S / (the mean of the timings just before and after the op).
The workload touches no library code, so a change to milnorforge moves
the scaled figures as much as the raw ones.
"""

import gc
import time
from fractions import Fraction

# scale only: close to the workload's time in the fast state on the 2-core
# Xeon this benchmark was written on
REF_S = 0.002

# how often a worker times the workload between its ops
EVERY_S = 0.1


class _Poly:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __add__(self, o):
        return _Poly([(a + b) % 7 for a, b in zip(self.c, o.c)])

    def __mul__(self, o):
        out = [0] * (len(self.c) + len(o.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(o.c):
                out[i + j] = (out[i + j] + a * b) % 7
        return _Poly(out[:8])


def _work():
    """dict and str work, Fraction arithmetic, operator methods on a class:
    the styles of Python the library runs."""
    d, acc, s = {}, [], 0
    for i in range(2500):
        k = (i * 7919) & 1023
        d[k] = d.get(k, 0) + i
        s += len(str(i)) * (i % 13)
        if i & 7 == 0:
            acc.append(s ^ k)
    f = Fraction(0)
    for i in range(1, 125):
        f = f + Fraction(i % 7 + 1, i) * Fraction(3, i % 5 + 2)
    x, y = _Poly([1, 2, 3, 4, 5, 6, 0, 1]), _Poly([3, 1, 4, 1, 5, 2, 6, 5])
    seen = {}
    for i in range(50):
        x = x * y + y
        seen[tuple(x.c)] = i
    return s, f, len(seen)


def reference_s() -> float:
    """Time one run of the workload, with the cyclic collector paused so
    the size of the caller's heap does not leak into the timing."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _work()
        return time.perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()
