"""Amplitudes and distributions of squeezed number states |m, r>.

Photon amplitudes as the eigenvector of b^dagger b with eigenvalue m,
one parity block at a time; position and momentum wave functions, the
coherent-basis amplitude and the Husimi Q function through the rescaled
Hermite kernel.  Both stay meaningful out to photon numbers in the
thousands where the interesting oscillation structure lives.
"""

from __future__ import annotations

import math
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


def _column(state: SqueezedNumberState, rows: int) -> np.ndarray:
    """<p + 2k | m, r> for k < rows, p = m % 2.

    b = cosh(r) a + sinh(r) a^dagger annihilates the squeezed vacuum, so
    b^dagger b |m, r> = m |m, r>.  Within the parity p, b^dagger b is
    symmetric tridiagonal (diagonal n cosh 2r + sinh^2 r, off-diagonal
    sinh(2r)/2 sqrt((n+1)(n+2)) between n and n + 2), and the amplitudes
    are its eigenvector of index m // 2.  Truncating the block to ``rows``
    rows leaves rows well inside it exact to rounding.
    """
    from scipy.linalg import eigh_tridiagonal
    m, r = state.m, state.r
    if abs(r) < R_EPS:
        col = np.zeros(rows)
        col[m // 2] = 1.0
        return col
    n = np.arange(m % 2, m % 2 + 2 * rows, 2, dtype=float)
    diag = n * math.cosh(2.0 * r) + math.sinh(r) ** 2
    off = 0.5 * math.sinh(2.0 * r) * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
    col = eigh_tridiagonal(diag, off, select="i", select_range=(m // 2, m // 2))[1][:, 0]
    # The solver's sign is arbitrary.  The first row,
    #   <p|m,r> = sqrt(m!) (sinh r / 2)^j / (j! cosh^{(m+p+1)/2} r), j = m // 2,
    # has the sign of sinh(r)^j; the eigen-equation's forward recurrence,
    # stable while the column grows, carries it up to the first row that
    # stands clear of rounding.
    mag = np.abs(col)
    top = int(np.argmax(mag >= 1e-3 * mag.max()))
    a, b = 0.0, math.copysign(1.0, r) ** (m // 2)
    for k in range(top):
        a, b = b, ((m - diag[k]) * b - off[k - 1] * a) / off[k]
        scale = max(abs(a), abs(b))
        a, b = a / scale, b / scale
    return col if b * col[top] > 0.0 else -col


def _photon_column(state: SqueezedNumberState, tail_eps: float, hard_cap: int):
    """(column, truncation): the amplitudes of one parity block grown by
    doubling until the cutoff rule of :func:`photon_distribution` fires in
    its lower half, and the truncation record of that table."""
    if not 1e-14 <= tail_eps < 1.0:
        raise ValueError("tail_eps must lie in [1e-14, 1): the float64 mass "
                         "of the distribution cannot resolve less")
    m, r = state.m, state.r
    cap_rows = (hard_cap - m % 2) // 2 + 1  # rows with n <= hard_cap
    # a window wider than the rows under the cap fails its test in every block;
    # the clipped exponent keeps 10 e^{2|r|} from overflowing
    window = math.ceil(10.0 * math.exp(min(2.0 * abs(r), math.log(max(cap_rows, 1)))))
    if abs(r) >= R_EPS and window > cap_rows:
        raise NonConvergenceError(
            f"photon distribution for m={m}, r={r} did not converge within the cutoff "
            f"cap {hard_cap}: the window of ceil(10 e^(2|r|)) same-parity rows is wider")
    rows = 2 * (window + m // 2 + 1)
    while True:
        rows = max(min(rows, 2 * cap_rows), m // 2 + 1)
        col = _column(state, rows)
        probs = col[:min(rows // 2, cap_rows)] ** 2
        cum = np.cumsum(probs)
        fires = cum >= 1.0 - tail_eps
        if abs(r) >= R_EPS:  # at r = 0 the mass is exhausted at row m // 2
            # An amplitude carries an absolute rounding error of about eps,
            # so a probability below eps^2 is noise, and a rise between two
            # such values says nothing (at small |r| the column's tail sits
            # on a noise floor near 1e-94 that rises and falls).
            p = np.where(probs > np.finfo(float).eps ** 2, probs, 0.0)
            i = np.arange(len(probs))
            rises = np.cumsum(np.concatenate(([0], p[1:] > p[:-1])))
            fires &= (i >= window - 1) & (rises == rises[np.maximum(i - window + 1, 0)])
        if fires.any():
            cut = int(np.argmax(fires))
            return col, {"cutoff": m % 2 + 2 * cut, "tail_eps": tail_eps,
                         "cumulative": float(cum[cut]), "window": window}
        if rows >= 2 * cap_rows:
            raise NonConvergenceError(
                f"photon distribution for m={m}, r={r} did not converge "
                f"within the cutoff cap {hard_cap}")
        rows *= 2


def fock_amplitude(n, state: SqueezedNumberState):
    """<n | m, r>, real; vectorized over integer n.

    Read from the b^dagger b eigenvector of the parity block (see
    :func:`photon_distribution`), sized to the state's photon cutoff and to
    twice the largest n requested, so every row read lies in the block's
    converged lower half.  Within the block of :func:`photon_distribution`
    at its defaults the squares are its probabilities bit for bit; a larger n
    reads every row from a larger block, where they move in their last
    digits (<800|40,2> by 2.8e-14 when n runs to 5459).  Mixed parity gives
    an exact 0.0 and r = 0 the Kronecker delta.  Raises
    :class:`NonConvergenceError` where :func:`photon_distribution` does at
    its defaults.
    """
    n = np.asarray(n)
    if np.any(n < 0):
        raise ValueError("photon index must be nonnegative")
    parity = state.m % 2
    col = _photon_column(state, TAIL_EPS, HARD_CAP)[0]
    rows = 2 * ((int(n.max(initial=0)) - parity) // 2 + 1)
    if rows > len(col):
        col = _column(state, rows)
    same = (n - parity) % 2 == 0
    amps = np.where(same, col[np.where(same, n - parity, 0) // 2], 0.0)
    return amps if n.ndim else float(amps)


def photon_distribution(state: SqueezedNumberState, tail_eps: float = TAIL_EPS,
                        hard_cap: int = HARD_CAP) -> DistributionTable:
    """Photon-number probabilities P_n = |<n|m,r>|^2 up to an adaptive cutoff.

    The amplitudes of one parity are the eigenvector of b^dagger b with
    eigenvalue m, computed on a block of that parity that doubles until,
    within its lower half, the accumulated probability reaches
    1 - tail_eps AND the last ceil(10 e^{2|r|}) same-parity probabilities
    are nonincreasing, those below eps^2 taken as zero; the cutoff N is the
    first row where both hold.  The second condition keeps the truncation
    from stopping inside a trough of the oscillating distribution.  At
    r = 0 the cutoff is m.  Rows of the opposite parity are kept as
    explicit zeros so the table plots with the true comb structure.

    ``tail_eps`` must lie in [1e-14, 1): a normalized float64 column cannot
    resolve a smaller tail.  A probability below eps^2 ~ 4.9e-32 carries an
    absolute error of that size and no correct digit (3.4e-94 against the
    exact 2.1e-99 at n = 14 for m = 0, r = 1e-7).  Raises
    :class:`NonConvergenceError` if the cutoff would exceed ``hard_cap``.
    """
    parity = state.m % 2
    col, truncation = _photon_column(state, tail_eps, hard_cap)
    last = truncation["cutoff"]
    probs = np.zeros(last + 1)
    probs[parity::2] = col[:last // 2 + 1] ** 2
    meta = TableMeta(state=(state.m, state.r), representation="photon",
                     truncation=truncation, parity=parity)
    return DistributionTable(np.arange(last + 1), probs, meta)


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
