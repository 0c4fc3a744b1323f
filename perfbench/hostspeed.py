"""Host-speed calibration for the benchmark's timings.

A shared host runs this benchmark's single core at a speed that drifts by
up to 1.5x over seconds to minutes, with the same code and the same inputs.
``calibrate`` times a fixed piece of work that uses nothing from the package:
an interpreter loop and a few small numpy calls.  It is run just before each
timed op, and the op's time is scaled by ``REF_S / calibration``.  A scaled
time reads as the time the op would take on the reference host at its
typical speed; a change to the package moves it as it moves the raw time,
while a slow spell of the host moves the op and its calibration together.
The raw, unscaled figures go to the ``meta`` line.
"""

from __future__ import annotations

import time

import numpy as np

# Median of calibrate() on the host the figures were first taken on (a
# 2-core x86-64 container, CPython 3.11, numpy 2.x).  Only ratios between
# runs mean anything, so the value just keeps scaled times near raw ones.
REF_S = 1.8e-3

_SMALL = np.random.default_rng(0).random(4_000)


def calibrate() -> float:
    """Seconds taken by the fixed calibration work, measured now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(10_000):
        s += i * i
    for _ in range(30):
        np.sort(_SMALL)
        _SMALL.sum()
    return time.perf_counter() - t0


def scale(seconds: float, calibration: float) -> float:
    """``seconds`` measured next to ``calibration``, at reference speed."""
    return seconds * REF_S / calibration
