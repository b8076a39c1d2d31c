"""Closed forms for squeezed number states |m, r>.

Photon amplitudes as a finite sum evaluated in the log domain; position
and momentum wave functions, the coherent-basis amplitude and the Husimi
Q function through the rescaled Hermite kernel.  Both stay meaningful out
to photon numbers in the hundreds where the interesting oscillation
structure lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import SignedLogNumber, hermite, log_factorial
from .squeezed_coherent import R_EPS
from .tables import DistributionTable, GridSpec, TableMeta

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


def fock_amplitude(n: int, state: SqueezedNumberState) -> float:
    """<n | m, r>, a real number.

    Evaluates the finite sum

        sqrt(m! n!) / cosh^{(n+m+1)/2}(r)
            * sum_k (sinh r / 2)^{(n+m-2k)/2} (-1)^{(n-k)/2}
                    / (k! ((m-k)/2)! ((n-k)/2)!)

    with k running over the common parity of n and m up to min(n, m).
    Mixed parity is short-circuited to an exact 0.0 before the loop, and
    r = 0 returns the Kronecker delta.  The alternating sum is accumulated
    as two same-sign log-domain partial sums subtracted once at the end;
    plain float accumulation loses the small outer maxima of the photon
    distribution, which sit thirty orders of magnitude below the peak
    terms that cancel against each other.
    """
    if n < 0:
        raise ValueError("photon index must be nonnegative")
    m, r = state.m, state.r
    if abs(r) < R_EPS:
        return 1.0 if n == m else 0.0
    if (n + m) % 2 == 1:
        return 0.0
    sh = math.sinh(r)
    log_half_sh = math.log(abs(sh) / 2.0)
    sh_sign = 1 if sh > 0 else -1
    pos = SignedLogNumber.zero()
    neg = SignedLogNumber.zero()
    for k in range(n % 2, min(n, m) + 1, 2):
        e = (n + m) // 2 - k
        lmag = (e * log_half_sh
                - log_factorial(k)
                - log_factorial((m - k) // 2)
                - log_factorial((n - k) // 2))
        sign = (-1) ** (((n - k) // 2) % 2) * (sh_sign ** (e % 2))
        term = SignedLogNumber.from_log(sign, lmag)
        if sign > 0:
            pos = pos + term
        else:
            neg = neg + term
    total = pos + neg  # single subtraction between the two buckets
    log_pref = (0.5 * (log_factorial(m) + log_factorial(n))
                - 0.5 * (n + m + 1) * math.log(math.cosh(r)))
    return (total * SignedLogNumber.from_log(1, log_pref)).to_float()


def photon_distribution(state: SqueezedNumberState, tail_eps: float = 1e-10,
                        hard_cap: int = 100_000) -> DistributionTable:
    """Photon-number probabilities P_n = |<n|m,r>|^2 up to an adaptive cutoff.

    The cutoff N grows until the accumulated probability reaches
    1 - tail_eps AND the last ceil(10 e^{2|r|}) same-parity probabilities
    are nonincreasing.  The second condition keeps the truncation from
    stopping inside a trough of the oscillating distribution.  Rows of the
    opposite parity are kept as explicit zeros so the table plots with the
    true comb structure.

    Raises :class:`NonConvergenceError` if the cutoff would exceed
    ``hard_cap``, or as soon as the captured mass passes 1 + tail_eps,
    which only cancellation error in :func:`fock_amplitude` can cause.
    """
    if not 0.0 < tail_eps < 1.0:
        raise ValueError("tail_eps must lie strictly between 0 and 1")
    m, r = state.m, state.r
    parity = m % 2
    window = math.ceil(10.0 * math.exp(2.0 * abs(r)))
    realized: list[float] = []
    cum = 0.0
    n = parity
    while True:
        p = fock_amplitude(n, state) ** 2
        realized.append(p)
        cum += p
        if cum > 1.0 + tail_eps:
            raise NonConvergenceError(
                f"photon distribution for m={m}, r={r} lost precision: the "
                f"captured mass {cum!r} exceeds 1 + tail_eps")
        if cum >= 1.0 - tail_eps:
            if 1.0 - cum <= 0.0:
                break  # exactly exhausted (delta distribution at r = 0)
            tail = realized[-window:]
            if len(realized) >= window and all(b <= a for a, b in zip(tail, tail[1:])):
                break
        n += 2
        if n > hard_cap:
            raise NonConvergenceError(
                f"photon distribution for m={m}, r={r} did not converge "
                f"within the cutoff cap {hard_cap}")
    last = parity + 2 * (len(realized) - 1)
    coords = np.arange(last + 1)
    probs = np.zeros(last + 1)
    probs[parity::2] = realized
    meta = TableMeta(state=(m, r), representation="photon",
                     truncation={"cutoff": int(last), "tail_eps": tail_eps,
                                 "cumulative": cum, "window": int(window)},
                     parity=parity)
    return DistributionTable(coords, probs, meta)


def position_wf(q, state: SqueezedNumberState):
    """<q | m, r>: the Fock-state wave function of the compressed coordinate.

    pi^{-1/4} e^{r/2} e^{-e^{2r} q^2 / 2} 2^{-m/2} m!^{-1/2} H_m(e^r q);
    real valued, vectorized over q, and at r = 0 it is the ordinary
    oscillator eigenfunction.
    """
    m, r = state.m, state.r
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

    By the Hermite generating function (DLMF 18.12.15) the finite sum over
    p of 2^{-p} sinh^p(r) cosh^{p-m}(r) alpha*^{m-2p} / ((m-2p)! p!) is
    t^{m/2} H_m(x / sqrt t) / m! with x = alpha* / (2 cosh r) and
    t = -tanh(r) / 2, so

        <alpha|m,r> = t^{m/2} H_m(x / sqrt t)
                      e^{-|alpha|^2/2 - tanh(r) alpha*^2/2} / sqrt(m! cosh r),

    one rescaled three-term recurrence for every r, sign included.
    """
    m, r = state.m, state.r
    ac = np.conj(np.asarray(alpha, dtype=complex))
    ch, th = math.cosh(r), math.tanh(r)
    mant, log_scale = hermite(m, ac / (2.0 * ch), -0.5 * th)
    return mant * np.exp(log_scale - 0.5 * np.abs(ac) ** 2 - 0.5 * th * ac ** 2
                         - 0.5 * (log_factorial(m) + math.log(ch)))


def coherent_amplitude(alpha: complex, state: SqueezedNumberState) -> complex:
    """<alpha | m, r> at a single phase-space point."""
    return complex(coherent_amplitude_grid(np.asarray(complex(alpha)), state))


def q_function(alpha: complex, state: SqueezedNumberState) -> float:
    """Husimi function Q(alpha) = |<alpha|m,r>|^2 / pi; nonnegative."""
    return abs(coherent_amplitude(alpha, state)) ** 2 / math.pi


def q_slice_imag(y, state: SqueezedNumberState) -> np.ndarray:
    """Q along the imaginary axis, Q(i y), vectorized over y."""
    y = np.asarray(y, dtype=float)
    amp = coherent_amplitude_grid(1j * y, state)
    return np.abs(amp) ** 2 / math.pi


def q_grid(state: SqueezedNumberState, grid: GridSpec) -> np.ndarray:
    """Husimi Q on a rectangular grid, row-major with Im alpha as the slow axis.

    out[i, j] = Q(re[j] + 1j * im[i]).
    """
    re, im = grid.axes()
    amp = coherent_amplitude_grid(re[None, :] + 1j * im[:, None], state)
    return np.abs(amp) ** 2 / math.pi
