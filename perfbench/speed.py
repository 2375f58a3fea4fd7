"""Machine-speed probe used to scale the benchmark's wall times.

On a 2-vCPU virtual machine at 2.1 GHz shared with other tenants, the same
pure-Python loop took 13 ms in some seconds and 27 ms in others, so raw
pass times of identical work varied by a third.  Timing a fixed
probe between operations and scaling each operation's wall time by
PROBE_REF_S / (mean probe time around it) removed nearly all of that: five
identical deep_truncation passes read 4.6 s to 6.6 s raw and 2.37 s to
2.52 s scaled.  The probe runs no package code, so a change to
the package moves the scaled times exactly as it moves the real ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Probe duration the scaled times refer to: about the median probe time on
# the machine above, so scaled and wall times there are of similar size.
PROBE_REF_S = 0.002


def probe() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic and dict stores."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    seen = {}
    for i in range(1, 700):
        acc += Fraction(1, i % 97 + 1)
        seen[(i % 13, i % 7)] = acc
    return time.perf_counter() - t0
