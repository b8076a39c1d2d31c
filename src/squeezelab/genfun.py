"""Matrix elements of squeezed number states by Taylor-coefficient extraction.

Any amplitude <psi | m, r> equals sqrt(m!) times the beta^m Taylor
coefficient of e^{|beta|^2/2} <psi | beta, r>, because expanding the
squeezed coherent ket over squeezed number states is a power series in the
displacement label.  The e^{|beta|^2/2} factor cancels the e^{-|beta|^2/2}
inside every closed form of :mod:`squeezed_coherent`, leaving an entire
function of beta; all kernels here are built in that cancelled form.
Coefficients are computed by exact truncated-series arithmetic, never by
finite differences, so extraction carries no differentiation error at all.

The two-label generalization recovers operator matrix elements
<n, r| R |m, r> as sqrt(n! m!) times the conj(alpha)^n beta^m coefficient
of the doubly-cancelled kernel e^{|alpha|^2/2} e^{|beta|^2/2}
<alpha, r| R |beta, r>.
"""

from __future__ import annotations

import cmath
import math
import operator
from typing import Callable

import numpy as np

from .special import log_factorial
from .squeezed_coherent import R_EPS
from .squeezed_number import NonConvergenceError, SqueezedNumberState

__all__ = [
    "series",
    "series_mul",
    "exp_series",
    "extract_amplitude",
    "extract_element",
    "identity_kernel",
    "transformed_number_kernel",
    "photon_number_kernel",
]


def series(terms: dict, shape) -> np.ndarray:
    """Complex coefficient array of a truncated series.

    A 1-d array of length order + 1 holds a series in beta (entry j
    multiplies beta^j); a 2-d array of shape (order_a + 1, order_b + 1)
    holds one in conj(alpha) and beta (entry [i, j] multiplies
    conj(alpha)^i beta^j).  ``terms`` maps a power (an int, or an (i, j)
    pair) to its coefficient; powers past the truncation are dropped.
    """
    out = np.zeros(shape, dtype=complex)
    for power, value in terms.items():
        power = power if isinstance(power, tuple) else (power,)
        if all(p < n for p, n in zip(power, out.shape)):
            out[power] = value
    return out


def series_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Product of two truncated series of the same shape, truncated back
    to that shape; exact for every kept coefficient."""
    if a.ndim == 1:
        return np.convolve(a, b)[: len(a)]
    out = np.zeros_like(a)
    for i, row in enumerate(a):
        for k in range(len(a) - i):
            out[i + k] += np.convolve(row, b[k])[: a.shape[1]]
    return out


def exp_series(p: np.ndarray) -> np.ndarray:
    """exp of a truncated series by the derivative recurrence.

    g = exp(p) satisfies g' = p' g in the leading variable, giving
    n g_n = sum_{k>=1} k p_k g_{n-k}.  For a 1-d series the p_k are
    numbers and g_0 = e^{p_0}; for a 2-d series they are series in beta,
    multiplied by :func:`series_mul`, and g_0 = exp_series(p[0]).  The sum
    runs over the k with p_k nonzero only, in the same order: an exact
    zero added to it changes no float sum.
    """
    p = np.asarray(p, dtype=complex)
    g = np.zeros_like(p)
    if p.ndim == 1:
        g[0], mul = cmath.exp(p[0]), np.multiply
    else:
        g[0], mul = exp_series(p[0]), series_mul
    nonzero = np.flatnonzero(p.reshape(len(p), -1).any(axis=1)).tolist()
    terms = [(k, k * p[k]) for k in nonzero if k]
    for n in range(1, len(p)):
        g[n] = sum(mul(kp, g[n - k]) for k, kp in terms if k <= n) / n
    return g


def _fock_kernel(n: int, r: float, order: int) -> np.ndarray:
    """Cancelled generating kernel of <n | beta, r> as a series in beta.

    Written with integer powers of sinh and cosh,

        1/sqrt(2^n n! cosh r) * exp(tanh(r) beta^2 / 2)
          * sum_k (-1)^k n!/(k! (n-2k)!) 2^{(n-2k)/2}
                  sinh^k(r) cosh^{k-n}(r) beta^{n-2k},

    which is branch-free in r and reduces to beta^n/sqrt(n!) at r = 0.
    """
    if abs(r) < R_EPS:
        return series({n: math.exp(-0.5 * log_factorial(n))}, order + 1)
    sh, ch, th = math.sinh(r), math.cosh(r), math.tanh(r)
    poly = np.zeros(order + 1, dtype=complex)
    for k in range(n // 2 + 1):
        deg = n - 2 * k
        if deg > order:
            continue
        logmag = (log_factorial(n) - log_factorial(k) - log_factorial(deg)
                  + 0.5 * deg * math.log(2.0)
                  + k * math.log(abs(sh)) + (k - n) * math.log(ch))
        sign = (-1) ** (k % 2) * (1 if sh > 0 else -1) ** (k % 2)
        poly[deg] = sign * math.exp(logmag)
    pref = math.exp(-0.5 * (n * math.log(2.0) + log_factorial(n) + math.log(ch)))
    return pref * series_mul(poly, exp_series(series({2: 0.5 * th}, order + 1)))


def extract_amplitude(kind: str, value, state: SqueezedNumberState) -> complex:
    """Amplitude of |m, r> in one representation, via series extraction.

    kind selects the bra: 'fock' (value = photon index), 'position'
    (value = q), 'momentum' (value = p) or 'coherent' (value = alpha).
    Builds e^{|beta|^2/2} <bra | beta, r> as a series of order m and
    returns sqrt(m!) times its beta^m coefficient, or raises
    :class:`NonConvergenceError` where a 'fock' kernel overflows float64.
    """
    m, r = state.m, state.r
    size = m + 1
    if kind == "fock":
        try:
            n = operator.index(value)
        except TypeError:
            raise ValueError(f"photon index must be an integer, not {value!r}") from None
        if n < 0:
            raise ValueError("photon index must be nonnegative")
        try:
            kern = _fock_kernel(n, r, m)
        except OverflowError:
            raise NonConvergenceError(
                f"series kernel of <n={n} | m={m}, r={r}> overflows float64") from None
        pref = 1.0 + 0j
    elif kind == "position":
        q = float(value)
        kern = exp_series(series({1: math.sqrt(2.0) * math.exp(r) * q, 2: -0.5}, size))
        pref = math.pi ** -0.25 * math.exp(0.5 * r - 0.5 * math.exp(2.0 * r) * q * q)
    elif kind == "momentum":
        p = float(value)
        kern = exp_series(series({1: -1j * math.sqrt(2.0) * math.exp(-r) * p, 2: 0.5}, size))
        pref = math.pi ** -0.25 * math.exp(-0.5 * r - 0.5 * math.exp(-2.0 * r) * p * p)
    elif kind == "coherent":
        alpha = complex(value)
        t, ch = math.tanh(r), math.cosh(r)
        kern = exp_series(series({1: alpha.conjugate() / ch, 2: 0.5 * t}, size))
        pref = (cmath.exp(-0.5 * abs(alpha) ** 2 - 0.5 * t * alpha.conjugate() ** 2)
                / math.sqrt(ch))
    else:
        raise ValueError(f"unknown representation kind {kind!r}")
    return complex(math.exp(0.5 * log_factorial(m)) * kern[m] * pref)


def extract_element(n: int, m: int,
                    op_kernel: Callable[[int, int], np.ndarray]) -> complex:
    """<n, r| R |m, r> from a doubly-cancelled operator kernel, which
    carries its own r.

    op_kernel(order_a, order_b) must return the 2-d series of
    e^{|alpha|^2/2} e^{|beta|^2/2} <alpha, r| R |beta, r> in conj(alpha)
    and beta; the result is sqrt(n! m!) times its (n, m) coefficient.
    """
    if n < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    kern = op_kernel(n, m)
    return complex(math.exp(0.5 * (log_factorial(n) + log_factorial(m))) * kern[n, m])


def identity_kernel(order_a: int, order_b: int) -> np.ndarray:
    """Kernel of the identity operator: exp(conj(alpha) beta).

    The squeeze cancels between bra and ket, so this is r-independent,
    every ladder kernel multiplies it, and extraction reproduces the
    orthonormality of the squeezed number basis.
    """
    return exp_series(series({(1, 1): 1.0}, (order_a + 1, order_b + 1)))


def transformed_number_kernel(order_a: int, order_b: int) -> np.ndarray:
    """Kernel of the squeezed-basis number operator b^dag b.

    Both ladder factors act on their own eigenstate, leaving
    conj(alpha) beta exp(conj(alpha) beta).
    """
    shape = (order_a + 1, order_b + 1)
    return series_mul(series({(1, 1): 1.0}, shape), identity_kernel(order_a, order_b))


def photon_number_kernel(r: float) -> Callable[[int, int], np.ndarray]:
    """Kernel of the bare photon number operator a^dag a.

    Inverting the ladder mixing a = cosh(r) b - sinh(r) b^dag gives

        a^dag a = cosh^2 b^dag b + sinh^2 (b^dag b + 1)
                  - sinh cosh (b^2 + b^dag^2),

    and each b acts as beta on the ket, each b^dag as conj(alpha) on the
    bra, all multiplying exp(conj(alpha) beta).
    """
    sh, ch = math.sinh(r), math.cosh(r)

    def build(order_a: int, order_b: int) -> np.ndarray:
        poly = series({(1, 1): ch * ch + sh * sh, (0, 0): sh * sh,
                       (0, 2): -sh * ch, (2, 0): -sh * ch},
                      (order_a + 1, order_b + 1))
        return series_mul(poly, identity_kernel(order_a, order_b))
    return build
