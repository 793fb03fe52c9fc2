"""A fixed reference kernel that measures how fast the machine is right now.

On a shared host the same call slows by up to a third for minutes at a time,
and the process's CPU time slows with it (the other tenants contend for the
core's caches and execution units, not for scheduler time).  The benchmark
therefore times this kernel between its timed calls and reports each call
time scaled by ``REFERENCE_S / kernel time``: the call's cost at the speed at
which the kernel takes ``REFERENCE_S`` seconds.

The kernel imports nothing from ectshape, so a change to the program moves
only the call times, never the reference.  Its mix matches the program's:
half pure-Python text parsing and dict/list work, half small numpy calls
(quantiles, moments, eigen-decomposition, a tanh layer), run three times
over.
"""

from __future__ import annotations

import gc
import time

import numpy as np

# Scale of the calibrated times: about the kernel's time on a busy core of
# the 2-vCPU machine the benchmark was written on.
REFERENCE_S = 0.105

_RNG = np.random.default_rng(12345)
_POINTS = _RNG.normal(size=(256, 2))
_WEIGHTS = _RNG.normal(size=(8, 8))
_INPUTS = _RNG.normal(size=(64, 8))
_LINES = [f"{x:.6f},{y:.6f}" for x, y in _POINTS]


def _python_part() -> float:
    total = 0.0
    for _ in range(40):
        points = [tuple(float(v) for v in line.split(",")) for line in _LINES]
        points.sort()
        seen = {}
        for i, (x, y) in enumerate(points):
            seen[i] = x * y + total
            total += seen[i] * 1e-9
        total += len(",".join(f"{x:.4f}" for x, _ in points[:32]))
    return total


def _numpy_part() -> float:
    total = 0.0
    for i in range(150):
        bounds = np.quantile(_POINTS, [0.05, 0.95], axis=0)
        centred = _POINTS - _POINTS.mean(axis=0)
        values, _ = np.linalg.eigh(centred.T @ centred)
        hidden = np.tanh(_WEIGHTS @ _INPUTS[i % len(_INPUTS)])
        total += float(bounds[1, 0] + values[0] + hidden.sum())
    return total


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel.

    The garbage left by the calls before it is collected first, untimed, and
    the collector stays off while the kernel runs: a collection that the
    kernel's allocations set off would bill the calls' garbage to the
    kernel.  (Timed next to an extract call, this took the spread of the
    call/kernel ratio from 0.08 to 0.04 of its mean.)  Three passes make
    the reading less sensitive to the host's faster swings.
    """
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            _python_part()
            _numpy_part()
        return time.perf_counter() - start
    finally:
        gc.enable()
