"""A fixed calibration kernel that measures how fast the host runs right now.

On a shared 2-core host the same run takes anywhere from 0.6 to 1.2 s as
neighbours come and go, in phases that last from seconds to minutes, so
medians over one 40 s measurement still move by 20-25% from one measurement
to the next. Each child therefore times this kernel just before and just
after its run, and the benchmark reports times scaled to a reference host
speed: `t * REFERENCE_S / kernel_s`. The kernel mimics the instruction mix
of a signopt step loop (Philox draws, small dot products, `np.where`, a
periodic matrix-vector product and `repr` formatting) but never calls
signopt, so no change to the package moves it.
"""
from __future__ import annotations

import math
import time

import numpy as np

# kernel seconds at the reference host speed; scaled times read in seconds at
# that speed (about the kernel's median on a 2-core Xeon host)
REFERENCE_S = 0.1


def measure(steps: int = 5000) -> float:
    """Wall seconds of one pass of the kernel."""
    gen = np.random.Generator(np.random.Philox(key=12345))
    a = gen.standard_normal((50, 10))
    b = gen.standard_normal((400, 50))
    x = np.zeros(10)
    y = np.zeros(50)
    t0 = time.perf_counter()
    for i in range(steps):
        j = int(gen.integers(1, 50, endpoint=True)) - 1
        u = gen.uniform(-1.0, 1.0, 10)
        g = -math.sin(a[j] @ x) * a[j]
        x = x - np.where(g + u >= 0.0, 1e-3, -1e-3)
        if i % 4 == 0:
            y = y - 1e-4 * (b.T @ np.sin(b @ y))
        f"{float(x[0])!r},{float(np.abs(g).sum())!r}"  # the CSV writer's float formatting
    return time.perf_counter() - t0
