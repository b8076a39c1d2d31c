"""Matrix elements of squeezed number states by Taylor-coefficient extraction.

Any amplitude <psi | m, r> equals sqrt(m!) times the beta^m Taylor
coefficient of e^{|beta|^2/2} <psi | beta, r>, because expanding the
squeezed coherent ket over squeezed number states is a power series in the
displacement label.  The e^{|beta|^2/2} factor cancels the e^{-|beta|^2/2}
inside every closed form of :mod:`squeezed_coherent`, leaving an entire
function of beta; all kernels here are built in that cancelled form.
Coefficients are computed by exact truncated-series arithmetic, never by
finite differences, so extraction carries no differentiation error at all.
The 'fock' kernel comes from a three-term recurrence in n whose values
are bounded amplitudes; its error has no stated bound and grows with m
(README).

The two-label generalization recovers operator matrix elements
<n, r| R |m, r> as sqrt(n! m!) times the conj(alpha)^n beta^m coefficient
of the doubly-cancelled kernel e^{|alpha|^2/2} e^{|beta|^2/2}
<alpha, r| R |beta, r>.
"""

from __future__ import annotations

import cmath
import math
from typing import Callable

import numpy as np

from .special import log_factorial
from .squeezed_number import SqueezedNumberState

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
    pair) to its coefficient; powers past the truncation are dropped, and
    a negative power raises ValueError.
    """
    out = np.zeros(shape, dtype=complex)
    for power, value in terms.items():
        power = power if isinstance(power, tuple) else (power,)
        if min(power) < 0:
            raise ValueError(f"series power must be nonnegative, not {power!r}")
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


def _index(value, name: str) -> int:
    """value as a nonnegative int, or ValueError naming it (a bool too)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < 0:
        raise ValueError(f"{name} must be nonnegative")
    return int(value)


def _fock_kernel(n: int, r: float, order: int) -> list:
    """Beta coefficients 0..order of f_n, the cancelled generating kernel
    of <n | beta, r> over sech^{1/2} r: sqrt(n!) times the z^n coefficient
    of exp(tanh(r) beta^2/2 + z beta/cosh r - tanh(r) z^2/2), the z side of
    the two-label kernel.  It runs the recurrence

        f_k = (beta f_{k-1} / cosh r - tanh r sqrt(k-1) f_{k-2}) / sqrt(k)

    from f_0 = exp(tanh(r) beta^2 / 2); at r = 0 it gives beta^n / sqrt(n!).
    """
    th, ch = math.tanh(r), math.cosh(r)
    prev, cur = [0.0] * (order + 1), exp_series(series({2: 0.5 * th}, order + 1)).real.tolist()
    for k in range(1, n + 1):
        a, b = 1.0 / (ch * math.sqrt(k)), th * math.sqrt((k - 1) / k)
        prev, cur = cur, [a * x - b * y for x, y in zip([0.0] + cur[:-1], prev)]
    return cur


def extract_amplitude(kind: str, value, state: SqueezedNumberState) -> complex:
    """Amplitude of |m, r> in one representation, via series extraction.

    kind selects the bra: 'fock' (value = photon index), 'position'
    (value = q), 'momentum' (value = p) or 'coherent' (value = alpha).
    Builds e^{|beta|^2/2} <bra | beta, r> as a series of order m and
    returns sqrt(m!) times its beta^m coefficient.  Raises ValueError for
    a photon index that is no nonnegative integer (a bool included) and
    for a non-finite q, p or alpha.
    """
    m, r = state.m, state.r
    size = m + 1
    if kind in ("position", "momentum", "coherent") and not cmath.isfinite(complex(value)):
        raise ValueError(f"{kind} value must be finite, not {value!r}")
    if kind == "fock":
        kern = _fock_kernel(_index(value, "photon index"), r, m)
        pref = 1.0 / math.sqrt(math.cosh(r))
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
    n, m = _index(n, "row index n"), _index(m, "column index m")
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
