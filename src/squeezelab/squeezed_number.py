"""Amplitudes and distributions of squeezed number states |m, r>.

Photon amplitudes from their Jacobi-polynomial form, by a three-term
recurrence in the state index over all rows of one parity at once;
position and momentum wave functions, the coherent-basis amplitude and
the Husimi Q function through the rescaled Hermite kernel.  Both stay
meaningful out to photon numbers in the thousands where the interesting
oscillation structure lives.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .special import hermite, log_factorial
from .squeezed_coherent import R_EPS, check_squeeze, fock_amplitude_scs
from .tables import DistributionTable, GridSpec, TableMeta

TAIL_EPS = 1e-10  # default tail mass left out of the photon distribution
HARD_CAP = 100_000  # default cap on its photon cutoff

__all__ = [
    "SqueezedNumberState",
    "NonConvergenceError",
    "fock_amplitude",
    "photon_distribution",
    "position_wf",
    "momentum_wf",
    "coherent_amplitude",
    "coherent_amplitude_grid",
    "q_function",
    "q_slice_imag",
    "q_grid",
]


class NonConvergenceError(RuntimeError):
    """Raised when an adaptive truncation fails to converge under its cap."""


@dataclass(frozen=True)
class SqueezedNumberState:
    """Label pair of a squeezed number state: photon index m and squeeze r."""

    m: int
    r: float

    def __post_init__(self):
        if not isinstance(self.m, (int, np.integer)) or self.m < 0:
            raise ValueError("photon index m must be a nonnegative integer")
        if not math.isfinite(self.r):
            raise ValueError("squeeze parameter must be finite")
        object.__setattr__(self, "m", int(self.m))
        object.__setattr__(self, "r", float(self.r))


def _scaled_cumprod(first: float, ratios: np.ndarray):
    """(mantissa, exponent) arrays of the running products first,
    first * ratios[0], first * ratios[0] * ratios[1], ...

    The product runs on mantissas in [0.5, 1) with the power of two beside
    them, and is renormalized every 512 factors, so it neither underflows
    nor overflows.  The leading values do not depend on len(ratios).
    """
    mant, expo = np.frexp(np.concatenate(([first], ratios)))
    expo = np.cumsum(expo)
    carry, shift = 1.0, 0
    for lo in range(0, len(mant), 512):
        run, extra = np.frexp(np.cumprod(np.concatenate(([carry], mant[lo:lo + 512])))[1:])
        mant[lo:lo + 512] = run
        expo[lo:lo + 512] += extra + shift
        carry, shift = run[-1], shift + int(extra[-1])
    return mant, expo


def _column(state: SqueezedNumberState, rows: int) -> np.ndarray:
    """<p + 2k | m, r> for 0 <= k < rows, p = m % 2.

    With tau = tanh r, the generating function gives for every d >= 0 and
    state index i

        <p + 2i + 2d | S(r) | p + 2i> = (-tau/2)^d sqrt((p + 2i + 2d)! / (p + 2i)!)
            / (d! cosh^{p+1/2} r) * F_i(d),
        F_i(d) = 2F1(-i, d + i + p + 1/2; d + 1; tau^2),

    and F_i(d) is the Jacobi polynomial P_i^{(d, p-1/2)}(1 - 2 tau^2) over
    its value at 1 (DLMF 15.8(i), 18.5.7).  The Jacobi three-term
    recurrence in the degree (DLMF 18.9.2) carries F_0 = 1 to F_j at every
    offset d of the column at once, in Reinsch's difference form about the
    nearer end of the interval: about x = 1 in tau^2 while tau^2 < 1/4,
    otherwise about x = -1 in sech^2 r (with the parameters swapped,
    P_i^{(a,b)}(x) = (-1)^i P_i^{(b,a)}(-x)).  Either way the small
    quantity enters every step exactly and never passes through
    1 - 2 tau^2.  The rows below m come from the same pass:
    S(r)^T = S(-r) gives <p + 2i | m, r> = (-1)^{j-i} times the step-i value
    at d = j - i.  Each offset carries its own power-of-two exponent,
    rescaled every 16 steps, so tau^d underflows nowhere, and no row depends
    on another: a row is bit for bit the same whatever ``rows`` is.
    """
    m, r = state.m, state.r
    p, j = m % 2, m // 2
    if abs(r) < R_EPS:
        col = np.zeros(rows)
        if j < rows:
            col[j] = 1.0
        return col
    tau = math.tanh(r)
    near_one = tau * tau < 0.25
    small = tau * tau if near_one else math.cosh(r) ** -2
    beta = p - 0.5
    d = np.arange(max(rows - j, j + 1), dtype=float)
    g, dg = np.ones_like(d), np.zeros_like(d)  # G_i and G_i - G_{i-1}
    expo = np.zeros(d.shape, dtype=int)
    diag, diag_expo = np.empty(j), np.empty(j, dtype=int)  # G_i at d = j - i
    # every step writes into these, with the ufuncs, operands and order of
    # the expressions in the comments, so the rounding is theirs
    q, s, s2, den, coef, tmp = (np.empty_like(d) for _ in range(6))
    for i in range(j):
        if i and i % 16 == 0:
            shift = np.frexp(np.maximum(np.abs(g), np.abs(dg)))[1]
            g, dg = np.ldexp(g, -shift), np.ldexp(dg, -shift)
            expo += shift
        diag[i], diag_expo[i] = g[j - i], expo[j - i]
        np.add(d, i + p + 0.5, out=q)  # i + a + b + 1 for (a, b) = (d, p - 1/2)
        np.add(q, i - 1.0, out=s)  # 2i + a + b
        np.add(s, 2.0, out=s2)
        if near_one:  # G_i = P_i^{(d,b)}(1 - 2 tau^2) / P_i^{(d,b)}(1)
            # den = q * (d + (i + 1)), coef = (i (i + b)) * s2 / (s * den)
            np.multiply(q, np.add(d, i + 1.0, out=den), out=den)
            np.multiply(i * (i + beta), s2, out=coef)
        else:  # G_i = P_i^{(b,d)}(1 - 2 sech^2 r) / P_i^{(b,d)}(1)
            # den = q * (b + i + 1), coef = i * (d + i) * s2 / (s * den)
            np.multiply(q, beta + i + 1.0, out=den)
            np.multiply(i, np.add(d, i, out=coef), out=coef)
            np.multiply(coef, s2, out=coef)
        np.divide(coef, np.multiply(s, den, out=tmp), out=coef)
        dg *= coef
        # dg -= (s + 1) * s2 / den * small * g
        np.multiply(np.add(s, 1.0, out=tmp), s2, out=tmp)
        np.divide(tmp, den, out=tmp)
        np.multiply(tmp, small, out=tmp)
        np.multiply(tmp, g, out=tmp)
        dg -= tmp
        g += dg
    # F_j = G_j about x = 1 and (-1)^j (b + 1)_j / (d + 1)_j G_j about x = -1;
    # the prefactor's running product over d takes that factor along
    if near_one:
        anchor, upper_den = 1.0, np.arange(1.0, d[-1] + 1.0)
    else:
        anchor = (-1) ** j * (2 * j + 1) ** p * math.comb(2 * j, j) / 4 ** j
        upper_den = np.arange(1.0, d[-1] + 1.0) + j
    anchor *= math.cosh(r) ** -(p + 0.5)
    n_up = np.arange(m + 2.0, m + 2.0 * d[-1] + 1.0, 2.0)
    f, f_expo = _scaled_cumprod(anchor, -0.5 * tau * np.sqrt(n_up * (n_up - 1.0)) / upper_den)
    top = max(rows - j, 0)  # rows at or above m
    upper = np.ldexp(f[:top] * g[:top], f_expo[:top] + expo[:top])
    # <p + 2i | m, r> = (-1)^{j-i} (the step-i value at d = j - i), built down from i = j
    i = np.arange(j - 1.0, -1.0, -1.0)
    n_low = p + 2.0 * i + 2.0
    low_den = j - i if near_one else -(beta + 1.0 + i)
    f, f_expo = _scaled_cumprod(anchor, 0.5 * tau * np.sqrt(n_low * (n_low - 1.0)) / low_den)
    lower = np.ldexp(f[:0:-1] * diag, f_expo[:0:-1] + diag_expo)
    return np.concatenate((lower[:rows], upper))


def fock_amplitude(n, state: SqueezedNumberState):
    """<n | m, r>, real; vectorized over integer n (a float index raises
    ValueError).

    One column (see :func:`_column`) from row 0 through the largest n.
    Every row is computed on its own, so a row reads the same whatever else
    is requested, and the squares are the probabilities of
    :func:`photon_distribution` bit for bit.  Mixed parity gives an exact
    0.0 and r = 0 the Kronecker delta.  Raises ValueError for |r| past
    :data:`~squeezelab.squeezed_coherent.R_MAX`.
    """
    n = np.asarray(n)
    if n.dtype.kind not in "iu":
        raise ValueError(f"photon index must be an integer, not of dtype {n.dtype}")
    if np.any(n < 0):
        raise ValueError("photon index must be nonnegative")
    check_squeeze(state.r)
    parity = state.m % 2
    col = _column(state, max(1, (int(n.max(initial=0)) - parity) // 2 + 1))
    same = (n - parity) % 2 == 0
    amps = np.where(same, col[np.where(same, n - parity, 0) // 2], 0.0)
    return amps if n.ndim else float(amps)


def photon_distribution(state: SqueezedNumberState, tail_eps: float = TAIL_EPS,
                        hard_cap: int = HARD_CAP) -> DistributionTable:
    """Photon-number probabilities P_n = |<n|m,r>|^2 up to an adaptive cutoff.

    The cutoff is the first row where the accumulated probability reaches
    1 - tail_eps AND the last ceil(10 e^{2|r|}) same-parity probabilities
    are nonincreasing, those below eps^2 taken as zero.  The second
    condition keeps the truncation from stopping inside a trough of the
    oscillating distribution.  At r = 0 the cutoff is m.  Rows of the
    opposite parity are kept as explicit zeros so the table plots with the
    true comb structure.

    The amplitudes of one parity (see :func:`_column`) are computed from
    row 0 in one block through the outer turning point
    N = (m + 1/2) e^{2|r|} - 1/2, where the oscillations end, plus the
    larger of the window (the last rise lies before N) and a tail margin
    past N.  There the three-term recurrence b^dagger b |m, r> = m |m, r>
    in the rows turns from oscillating to decaying; in the large-|r| form
    of its WKB exponent P falls as exp(-(m + 1/2)(sinh s - s)) at
    n + 1/2 = (N + 1/2) cosh^2(s/2): the Airy decay exp(-(4/3) x^{3/2})
    near N, x being the rows past N over a width of about
    N^{1/3} e^{4|r|/3} / 2, and the squeezed vacuum's tau^{2k} far out.
    The margin ends where that exponent reaches ln(1 / tail_eps), with s
    bounded from above: sinh s - s >= s^3 / 6.  Should the rule not fire
    on that block, one block through ``hard_cap`` follows; no row depends
    on the block it is in, so the cutoff is the same either way.

    ``tail_eps`` must lie in [1e-14, 1): a normalized float64 column cannot
    resolve a smaller tail.  Each amplitude keeps its relative accuracy
    however small it is: P_14 = 2.095e-99 for m = 0, r = 1e-7, the closed
    form's value.  Raises :class:`NonConvergenceError` if the cutoff would
    exceed ``hard_cap``, with the mass the rows through the cap reach, and
    ``ValueError`` unless ``hard_cap`` is a nonnegative integer.
    """
    if not 1e-14 <= tail_eps < 1.0:
        raise ValueError("tail_eps must lie in [1e-14, 1): the float64 mass "
                         "of the distribution cannot resolve less")
    try:
        cap = operator.index(hard_cap)
    except TypeError:
        cap = -1
    if cap < 0:
        raise ValueError(f"hard_cap must be a nonnegative integer, got {hard_cap!r}")
    hard_cap = cap
    m, r = state.m, state.r
    parity = m % 2
    cap_rows = (hard_cap - parity) // 2 + 1  # rows with n <= hard_cap
    # a window wider than the rows under the cap can never pass its test;
    # the clipped exponent keeps 10 e^{2|r|} from overflowing
    stretch = math.exp(min(2.0 * abs(r), math.log(max(cap_rows, 1))))
    window = math.ceil(10.0 * stretch)
    if abs(r) >= R_EPS and window > cap_rows:
        raise NonConvergenceError(
            f"photon distribution for m={m}, r={r} did not converge within the cutoff "
            f"cap {hard_cap}: the window of ceil(10 e^(2|r|)) same-parity rows is wider")
    turn = (m + 0.5) * stretch  # N + 1/2
    decay = -math.log(tail_eps) / (m + 0.5)
    s = math.asinh(decay + (6.0 * decay) ** (1.0 / 3.0))  # sinh s - s = decay, from above
    tail = turn * (math.cosh(s) - 1.0) / 4.0  # same-parity rows from N to the margin's end
    rows = (turn - 0.5 - parity) / 2.0 + 1.0 + max(window, tail)
    # the sized block, then, if the rule does not fire on it, one through the cap
    for block in sorted({math.ceil(min(rows, cap_rows)), cap_rows}):
        probs = _column(state, block) ** 2
        cum = np.cumsum(probs)
        fires = cum >= 1.0 - tail_eps
        if abs(r) >= R_EPS:  # at r = 0 the mass is exhausted at row m // 2
            # a probability below eps^2 lies below what a float64 column of
            # mass 1 resolves, so a rise between two such values says nothing
            p = np.where(probs > np.finfo(float).eps ** 2, probs, 0.0)
            i = np.arange(len(probs))
            rises = np.cumsum(np.concatenate(([0], p[1:] > p[:-1])))
            fires &= (i >= window - 1) & (rises == rises[np.maximum(i - window + 1, 0)])
        if fires.any():
            break
    else:
        raise NonConvergenceError(
            f"photon distribution for m={m}, r={r} did not converge within the cutoff "
            f"cap {hard_cap}: its mass through n = {hard_cap} is "
            f"1 - {1.0 - (cum[-1] if block else 0.0):.3g}")
    cut = int(np.argmax(fires))
    last = parity + 2 * cut
    table = np.zeros(last + 1)
    table[parity::2] = probs[:cut + 1]
    truncation = {"cutoff": last, "tail_eps": tail_eps, "cumulative": float(cum[cut]),
                  "window": window}
    return DistributionTable(np.arange(last + 1), table,
                             TableMeta(truncation=truncation, parity=parity))


def position_wf(q, state: SqueezedNumberState):
    """<q | m, r>: the Fock-state wave function of the compressed coordinate.

    pi^{-1/4} e^{r/2} e^{-e^{2r} q^2 / 2} 2^{-m/2} m!^{-1/2} H_m(e^r q);
    real valued, vectorized over q, and at r = 0 it is the ordinary
    oscillator eigenfunction.  Raises ValueError for |r| past
    :data:`~squeezelab.squeezed_coherent.R_MAX`, where e^{2|r|} overflows.
    """
    m, r = state.m, state.r
    check_squeeze(r)
    q = np.asarray(q, dtype=float)
    mant, log_scale = hermite(m, math.exp(r) * q)
    return mant * np.exp(log_scale - 0.5 * math.exp(2.0 * r) * q * q
                         - 0.25 * math.log(math.pi) + 0.5 * r
                         - 0.5 * m * math.log(2.0) - 0.5 * log_factorial(m))


def momentum_wf(p, state: SqueezedNumberState):
    """<p | m, r> = (-i)^m <q = p | m, -r>: the position profile stretched
    by e^r instead of compressed, with an (-i)^m phase; vectorized over p.
    """
    return (-1j) ** (state.m % 4) * position_wf(p, SqueezedNumberState(state.m, -state.r))


def coherent_amplitude_grid(alpha, state: SqueezedNumberState) -> np.ndarray:
    """<alpha | m, r> over an array of phase-space points.

    S(r)^dagger = S(-r) and <n|alpha> = conj(<conj(alpha)|n>) give
    <alpha|m,r> = <m|conj(alpha), -r>, the squeezed-coherent photon
    amplitude of :func:`~squeezelab.squeezed_coherent.fock_amplitude_scs`:
    one rescaled Hermite recurrence for every r, sign included.
    """
    return fock_amplitude_scs(state.m, np.conj(alpha), -state.r)


def coherent_amplitude(alpha: complex, state: SqueezedNumberState) -> complex:
    """<alpha | m, r> at a single phase-space point."""
    return complex(coherent_amplitude_grid(np.asarray(complex(alpha)), state))


def q_function(alpha: complex, state: SqueezedNumberState) -> float:
    """Husimi function Q(alpha) = |<alpha|m,r>|^2 / pi; nonnegative."""
    return abs(coherent_amplitude(alpha, state)) ** 2 / math.pi


def _folded(axis: np.ndarray):
    """(distinct |axis| values, index of each entry among them)."""
    mags, inverse = np.unique(np.abs(axis), return_inverse=True)
    return mags, inverse.reshape(axis.shape)


def q_slice_imag(y, state: SqueezedNumberState) -> np.ndarray:
    """Q along the imaginary axis, Q(i y), vectorized over y.

    Q is even in y (see :func:`q_grid`), so the kernel runs once per
    distinct |y|, and each y gets that value, bit for bit the one the
    kernel gives at y itself.
    """
    mags, inverse = _folded(np.asarray(y, dtype=float))
    amp = coherent_amplitude_grid(1j * mags, state)
    return (np.abs(amp) ** 2 / math.pi)[inverse]


def q_grid(state: SqueezedNumberState, grid: GridSpec) -> np.ndarray:
    """Husimi Q on a rectangular grid, row-major with Im alpha as the slow axis.

    out[i, j] = Q(re[j] + 1j * im[i]).  The photon amplitudes <n|m,r> are
    real and of one parity, so Q(conj alpha) = Q(-alpha) = Q(alpha) and
    Q(re + i im) = Q(|re| + i |im|).  The kernel runs once on the product
    of the distinct |re| and |im| of the axes, and every step of it (complex
    scaling, Hermite recurrence, rescaling bound, exponential, modulus) is
    symmetric under those sign flips, so each point reads its mirror's
    value bit for bit.  The axes stay ``linspace`` values, whose mirrors
    are not always exact negatives, so the distinct magnitudes are found
    by sorting rather than by halving the axis; on the README grid about
    a quarter of the |coordinates| repeat.
    """
    (re, re_inv), (im, im_inv) = map(_folded, grid.axes())
    amp = coherent_amplitude_grid(re[None, :] + 1j * im[:, None], state)
    return (np.abs(amp) ** 2 / math.pi)[np.ix_(im_inv, re_inv)]
