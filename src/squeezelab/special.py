"""Stable building blocks used throughout the package.

Wave functions and Husimi amplitudes of strongly squeezed states mix
factorials of a few hundred with high powers of their argument, so
intermediate magnitudes routinely leave double range (171! already
overflows a float).  Everything here therefore keeps magnitudes apart
from values: log-factorials, and one vectorized Hermite kernel whose
three-term recurrence carries a power-of-two scale beside its mantissa.
The kernel rescales only when a bound on the pair's growth and shrinkage
says it could leave a fixed headroom of 2^480, and once at the end, so its
output is bit for bit that of rescaling after every step at a fraction of
the cost; an argument so large that a single step could overflow raises.
An array argument runs in blocks of ``_BLOCK`` elements, small enough
that each step's passes stay in cache, all under the one schedule that
the bounds over the whole array give, so blocking changes no bit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_factorial",
    "hermite",
]


def log_factorial(n: int) -> float:
    """ln(n!) via the log-gamma function.

    Accurate to a few ulp (well inside 1e-12 relative) for all n up to 1e6
    and beyond.
    """
    if n < 0:
        raise ValueError("factorial argument must be a nonnegative integer")
    return math.lgamma(n + 1)


_TINY = 2.0 ** -1022  # the smallest normal double

_BLOCK = 2 ** 13
"""Elements per block of the array recurrence.

A step makes three passes over the pair, 2x and one temporary; at 2^13
complex elements these four arrays take 128 KiB each, 512 KiB together,
so they stay in a core's L2 cache (2 MiB on the benchmark host) where a
whole Husimi grid would spill it.  A power of two keeps every block but
the last a whole number of SIMD vectors.
"""

_HEADROOM = 2.0 ** 480
"""How far the larger member of the Hermite pair may drift between rescalings.

About half the double exponent range.  Within 2^480 of 1 the larger
member can neither overflow nor go subnormal, and one more step of
growth up to 2^480 (a larger one raises) still stays below 2^960.  A
value up to 2^542 below the larger member stays normal, which is where
the deferred schedule could part from rescaling at every step.  At the
paper's states the pair then needs rescaling only every few dozen steps.
"""


def hermite(n: int, x, t: float = 1.0):
    """t^{n/2} H_n(x / sqrt t) as (mantissa, log_scale), value = mantissa * exp(log_scale).

    Vectorized over a real or complex array ``x`` (arrays shaped like x
    come back; a scalar x gives Python numbers); t = 1 gives the
    physicists' H_n(x).  Runs H_{k+1} = 2 x H_k - 2 k t H_{k-1}, which
    stays polynomial in t, so t = 0 gives (2x)^n and t < 0 needs no
    complex square root.

    The pair (H_k, H_{k+1}) is divided, per element, by the power of two
    that puts its larger member in [0.5, 1), but only before a step that
    a scalar bound says could carry that member more than ``_HEADROOM`` =
    2^480 from where the last rescale left it, and once after the last
    step.  Step k grows the larger member by at most a factor
    max(1, 2 max|x| + 2k|t|) and shrinks it by at most
    max(1, (2 max|x| + 1) / (2k|t|)), or max(1, 1 / (2 min|x|)) over
    x != 0 at t = 0.  Power-of-two scaling is exact, so mantissa and log
    scale are bit for bit those of rescaling after every step: rounding
    is that of the plain recurrence, nothing overflows, and exact zeros
    (odd n at x = 0) stay exact.  The two schedules can part only where a
    real or imaginary part falls 2^542 below its pair's larger member,
    which needs 0 < |x| below about 1e-120.  Subnormal input stays finite
    and exact in log form: a pair whose larger member is subnormal is
    multiplied by 2^1021 (its 2^-e is no float), and at t = 0 an x with
    every entry subnormal runs multiplied by 2^1023, a power the log scale
    takes back.  If one step alone could grow the pair past the headroom
    (2 max|x| + 2(n - 1)|t| > 2^480, about 3e144), ``ValueError`` is
    raised instead.

    An array runs flattened, in blocks of ``_BLOCK`` elements that keep
    each step's passes in L2 cache.  The bounds, the overflow check and so
    the rescale schedule come from the whole array before any block runs,
    and every block follows that one schedule: each element sees the
    operations of the unblocked recurrence in the same order, so blocking
    changes no bit.  Bounds per block would rescale at other steps, which
    parts from the unblocked output where the deferred schedule itself
    can, and would raise only after earlier blocks ran.
    """
    if n < 0:
        raise ValueError("Hermite order must be nonnegative")
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float), copy=False)
    if not (np.all(np.isfinite(x)) and math.isfinite(t)):
        raise ValueError("Hermite argument must be finite")
    if x.ndim:
        maximum, frexp, ldexp = np.maximum, np.frexp, np.ldexp
        mags = np.abs(x)
        x_max = float(mags.max(initial=0.0))
        x_min = float(mags.min(where=mags > 0.0, initial=math.inf))
    else:  # the same loop on Python numbers runs about ten times faster
        x = x.item()
        maximum, frexp, ldexp = max, math.frexp, math.ldexp
        x_max = abs(x)
        x_min = x_max or math.inf
    # (2x)^n at t = 0 with every x subnormal would underflow at step 1
    lift = 1023 if t == 0.0 and 0.0 < x_max < _TINY else 0
    if lift:
        x, x_max, x_min = x * 2.0 ** lift, x_max * 2.0 ** lift, x_min * 2.0 ** lift
    two_x_max, two_t = 2.0 * x_max, 2.0 * abs(t)
    if n > 1 and two_x_max + (n - 1) * two_t > _HEADROOM:
        raise ValueError(f"Hermite order {n} at max|x| = {x_max:.6g}, t = {t:.6g} "
                         "could overflow between rescalings")

    # the schedule, from the bounds over the whole argument: every block follows it
    shrink = (two_x_max + 1.0) / two_t if t else 0.5 / x_min  # divided by k at t != 0
    room = max(1.0, two_x_max)  # bound on the larger member since the last rescale
    rescale_before = set()
    for k in range(1, n):
        drift = max(1.0, two_x_max + k * two_t) * max(1.0, shrink / k if t else shrink)
        # step 1 always starts from the exact pair (1, 2x)
        if k > 1 and room * drift > _HEADROOM:
            rescale_before.add(k)
            room = 1.0
        room *= drift

    def rescale(a, b):
        """The pair over the power of two that puts its larger member in
        [0.5, 1), or times 2^1021 where that member is subnormal (e < -1021)."""
        e = maximum(frexp(maximum(abs(a), abs(b)))[1], -1021)
        scale = ldexp(1.0, -e)
        return a * scale, b * scale, e

    minus_two_t = -2.0 * t

    def recurrence(x, a, exponent):
        """(mantissa, binary exponent) of the pair's last member, from the
        start (a, exponent) = (1, 0) at x, under the schedule above."""
        two_x = 2.0 * x
        b = 2.0 * x if n else a  # a fresh array: the steps below work in place
        for k in range(1, n):
            if k in rescale_before:
                a, b, e = rescale(a, b)
                exponent += e
            a *= k * minus_two_t  # rounds as -(2k * t): a + 2x b is 2x b - 2kt a, bit for bit
            a += two_x * b
            a, b = b, a
        if n > 1:
            a, b, e = rescale(a, b)
            exponent += e
        return b, exponent

    if isinstance(x, np.ndarray):
        flat = x.ravel()
        mant, exponent = np.empty_like(flat), np.empty(flat.shape, dtype=int)
        for start in range(0, flat.size, _BLOCK):
            block = slice(start, start + _BLOCK)
            part = flat[block]
            mant[block], exponent[block] = recurrence(part, np.ones_like(part),
                                                      np.zeros(part.shape, dtype=int))
        mant, exponent = mant.reshape(x.shape), exponent.reshape(x.shape)
    else:
        mant, exponent = recurrence(x, 1.0, 0)
    return mant, (exponent - n * lift) * math.log(2.0)
