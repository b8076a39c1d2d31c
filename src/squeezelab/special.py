"""Stable building blocks used throughout the package.

Wave functions and Husimi amplitudes of strongly squeezed states mix
factorials of a few hundred with high powers of their argument, so
intermediate magnitudes routinely leave double range (171! already
overflows a float).  Everything here therefore keeps magnitudes apart
from values: log-factorials, and one vectorized Hermite kernel whose
three-term recurrence carries a power-of-two scale beside its mantissa.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_factorial",
    "hermite",
    "hermite_reduction_check",
]


def log_factorial(n: int) -> float:
    """ln(n!) via the log-gamma function.

    Accurate to a few ulp (well inside 1e-12 relative) for all n up to 1e6
    and beyond.
    """
    if n < 0:
        raise ValueError("factorial argument must be a nonnegative integer")
    return math.lgamma(n + 1)


def hermite(n: int, x, t: float = 1.0):
    """t^{n/2} H_n(x / sqrt t) as (mantissa, log_scale), value = mantissa * exp(log_scale).

    Vectorized over a real or complex array ``x`` (arrays shaped like x
    come back; a scalar x gives Python numbers); t = 1 gives the
    physicists' H_n(x).  Runs H_{k+1} = 2 x H_k - 2 k t H_{k-1}, which
    stays polynomial in t, so t = 0 gives (2x)^n and t < 0 needs no
    complex square root.  After every step the mantissa pair is rescaled
    by an exact power of two, so no intermediate value can overflow,
    rounding is that of the plain recurrence, and exact zeros (odd n at
    x = 0) stay exact.
    """
    if n < 0:
        raise ValueError("Hermite order must be nonnegative")
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float), copy=False)
    if not (np.all(np.isfinite(x)) and math.isfinite(t)):
        raise ValueError("Hermite argument must be finite")
    if x.ndim:
        a, exponent = np.ones_like(x), np.zeros(x.shape, dtype=int)
        maximum, frexp, ldexp = np.maximum, np.frexp, np.ldexp
    else:  # the same loop on Python numbers runs about ten times faster
        x, a, exponent = x.item(), 1.0, 0
        maximum, frexp, ldexp = max, math.frexp, math.ldexp
    two_x = 2.0 * x
    b = two_x if n else a
    for k in range(1, n):
        a, b = b, two_x * b - (2.0 * k * t) * a
        e = frexp(maximum(abs(a), abs(b)))[1]
        scale = ldexp(1.0, -e)
        a, b = a * scale, b * scale
        exponent += e
    return b, exponent * math.log(2.0)


def hermite_reduction_check(m: int, x: float) -> float:
    """Residual of the half-argument Hermite expansion.

    Both sides of

        H_m(x) / m! = sum_k 2^{k/2} / (k! ((m-k)/2)!) * H_k(x / sqrt(2))

    are evaluated independently, with k running over 0,2,4,... for even m
    and 1,3,5,... for odd m.  Returns |lhs - rhs| relative to the largest
    magnitude that entered either side, so cancellation inside the sum
    cannot manufacture a spurious large residual.
    """
    if m < 0 or m > 30:
        raise ValueError("m must be in 0..30")
    mant, log_scale = hermite(m, x)
    lhs = mant * math.exp(log_scale) / math.factorial(m)
    u = x / math.sqrt(2.0)
    # all H_k(u) for k <= m in one upward pass (plain floats are safe here)
    hv = [1.0, 2.0 * u]
    for k in range(1, m):
        hv.append(2.0 * u * hv[k] - 2.0 * k * hv[k - 1])
    terms = []
    for k in range(m % 2, m + 1, 2):
        terms.append(2.0 ** (k / 2.0) / (math.factorial(k) * math.factorial((m - k) // 2)) * hv[k])
    rhs = math.fsum(terms)
    scale = max(abs(lhs), abs(rhs), max((abs(t) for t in terms), default=0.0))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale
