"""Host speed probe for normalizing times on a shared host.

The benchmark runs on a few cores of a shared machine whose speed drifts
with what other tenants do: whole runs were measured 1.5 to 1.7 times
slower than runs a minute later, for the same code.  ``compute_slowdown``
times a fixed piece of work that involves no squeezelab code and returns
how much slower than on a quiet reference host it ran.  A workload probes
before each of its operations and divides its times by the median slowdown
of the run, which removes the drift: a slower program still reads slower,
a slower host does not.  The cores of such a host also differ in speed
from moment to moment, so the benchmark pins itself and its children to
one core, where probe and work slow together.

The work is of the kinds the package does: small-object Python arithmetic,
as in the scalar amplitude sums, and complex numpy arrays the size of the
README Husimi grid, as in the grid kernels.  ``COMPUTE_REFERENCE_S`` is its
median on a quiet 2-vCPU Xeon VM with Python 3.11 and numpy 2.4, so a
normalized time is what the work would take there.
"""

from __future__ import annotations

import math
import time

import numpy as np

COMPUTE_REFERENCE_S = 0.016


class _LogTerm:
    __slots__ = ("sign", "log_mag")

    def __init__(self, sign: int, log_mag: float):
        self.sign, self.log_mag = sign, log_mag

    def __add__(self, other: "_LogTerm") -> "_LogTerm":
        hi, lo = (self, other) if self.log_mag >= other.log_mag else (other, self)
        return _LogTerm(hi.sign, hi.log_mag + math.log1p(math.exp(lo.log_mag - hi.log_mag)))


_ALPHA = (np.linspace(-3.0, 3.0, 321)[None, :] + 1j * np.linspace(-5.0, 5.0, 161)[:, None])


def _python_work() -> float:
    acc = _LogTerm(1, 0.0)
    for i in range(6000):
        acc = acc + _LogTerm(1, -1e-3 * i)
    return acc.log_mag


def _numpy_work() -> float:
    log_abs = np.log(np.abs(_ALPHA) + 1e-300)
    angle = np.angle(_ALPHA)
    acc = np.zeros_like(_ALPHA)
    running = np.full(_ALPHA.shape, -np.inf)
    for e in range(6):
        term = e * log_abs
        new = np.maximum(running, term)
        with np.errstate(invalid="ignore"):
            rescale = np.exp(np.where(np.isfinite(running), running - new, -np.inf))
        acc = acc * rescale + np.exp(1j * e * angle) * np.exp(term - new)
        running = new
    return float(np.abs(acc).sum())


def compute_slowdown() -> float:
    """Time of one fixed unit of in-process work, over its reference time."""
    start = time.perf_counter()
    _python_work()
    _numpy_work()
    return (time.perf_counter() - start) / COMPUTE_REFERENCE_S

