"""The host's speed, read from a fixed reference computation.

The shared host this benchmark was built on switches between two speed
states about 1.7x apart, each lasting from a fraction of a second to
tens of seconds, and the switches come from other tenants, not from the
code under test. A fixed piece of work (Python float loop, small numpy
array arithmetic, string formatting: the mix the package itself runs),
timed right before and right after each measured interval, reads the
state the interval ran in. A measured time is reported scaled by
``REFERENCE_S`` over the mean of those two reference times: seconds at
the host's fast speed. Raw wall times are printed beside them.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

# best time of reference() on the baseline machine (2-vCPU Xeon, 2.1 GHz, fast state)
REFERENCE_S = 0.37e-3


def reference() -> float:
    x = 0.0
    for i in range(1500):
        x += math.sin(i * 1e-3) * 0.5
    a = np.linspace(0.0, 1.0, 256)
    for _ in range(60):
        a = np.sqrt(a * a + 1.0) - 0.5
    return x + len(",".join(f"{v:.6g}" for v in a[:128]))


def timed_reference() -> float:
    t0 = time.perf_counter()
    reference()
    return time.perf_counter() - t0


def scaled(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` at the host's fast speed."""
    return seconds * REFERENCE_S / (0.5 * (ref_before + ref_after))


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU, so that the
    reference and the measured work read the same CPU's state."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
