"""Machine-speed calibration for the end-to-end timings.

The shared VM this benchmark was defined on changes speed by up to a
factor of two within seconds: the same fixed cycle of ``solve`` calls took
1.2 s in one spell and 2.4 s in the next, on both CPUs, in CPU time as well
as wall time.  A fixed kernel that does not call tzlab, run right before
and right after every timed operation, follows that drift: the ratio of
operation time to kernel time stayed within ±8% over the same cycles.

``scale()`` turns a measured time into the time it would have taken at the
reference speed, the speed at which one ``kernel()`` call takes
``REF_KERNEL_S``.  The kernel mixes the kinds of work the workloads do:
scalar float arithmetic in the interpreter (the radial RK4 loop), small
2-D real FFTs with elementwise exp (the n=64/128 solves) and one 256^2
transform (the bubble sweeps).  Its work is fixed; nothing in it depends on
tzlab, so a change to the program moves the scaled timings exactly as much
as the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# One kernel() call on the reference machine (2-vCPU x86-64 VM, Python 3.11,
# numpy 2.4) in its faster spells.  Any fixed value would do: the bounds are
# relative.  It only sets the scale on which scaled times read.
REF_KERNEL_S = 0.004

_SMALL = np.random.default_rng(0).standard_normal((64, 64))
_LARGE = np.random.default_rng(1).standard_normal((256, 256))


def kernel() -> float:
    """Run the fixed calibration work once; returns its duration in seconds."""
    t0 = time.perf_counter()
    y, v, h = 0.0, 1.0, 1e-3
    for _ in range(2000):
        k1 = v
        k2 = v - 0.5 * h * y
        y += h * (k1 + 2.0 * k2) / 3.0
        v -= h * y
    x = _SMALL
    for _ in range(12):
        x = np.fft.irfft2(np.fft.rfft2(x) * 0.5, s=x.shape)
        x = np.exp(-x * x)
    np.fft.irfft2(np.fft.rfft2(_LARGE), s=_LARGE.shape)
    return time.perf_counter() - t0


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` at reference speed, given kernel times around the measurement."""
    return seconds * REF_KERNEL_S / (0.5 * (before + after))
