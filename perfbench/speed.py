"""How fast the machine is right now, from a fixed reference loop.

On a shared host the speed of a vCPU drifts by tens of percent over minutes,
and that drift moves every time the benchmark takes.  ``reference_s`` times a
fixed loop of the work morsealg spends its time on, stdlib ``Fraction``
arithmetic on growing big integers, but runs no morsealg code, so no change
to the program can speed it up or slow it down.  On that host it follows the
drift far better than a loop of bare integer arithmetic does.  A time
taken next to it is rescaled by ``scale``: the result reads as seconds on a
machine on which the loop takes ``REF_S``.
"""

import time
from fractions import Fraction

REF_S = 0.08  # the loop's time on the 2-vCPU host the benchmark was built on
_ROUNDS = 6


def reference_s() -> float:
    """Seconds the reference loop takes now (about REF_S)."""
    start = time.perf_counter()
    p = [Fraction(1, k + 1) for k in range(40)]
    for _ in range(_ROUNDS):
        q = [Fraction(0)] * 79
        for i, a in enumerate(p):
            for j, b in enumerate(p):
                q[i + j] += a * b
        p = [x / (k + 1) for k, x in enumerate(q[:40])]
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds``, timed between two reference loops, at reference speed."""
    return seconds * REF_S / ((before + after) / 2)
