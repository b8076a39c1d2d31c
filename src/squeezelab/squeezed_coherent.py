"""Closed-form amplitudes of squeezed coherent states (one mode, real
squeeze parameter r).

Conventions used everywhere in this package: the squeezed coherent state
|beta, r> is the eigenstate of b = cosh(r) a + sinh(r) a^dag with
eigenvalue beta, obtained by squeezing the coherent state |beta>.  For
r > 0 the position-like quadrature q = (a + a^dag)/sqrt(2) is compressed,
Var q = e^{-2r}/2, and the momentum-like quadrature is stretched,
Var p = e^{2r}/2.  These amplitudes are the generating functions from
which every squeezed-number-state quantity in the package is extracted.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .special import hermite, log_factorial

__all__ = [
    "fock_amplitude_scs",
    "position_wf_scs",
    "momentum_wf_scs",
    "position_variance",
    "wave_packet_center",
]

R_EPS = 1e-12  # |r| below this is treated as no squeezing at all
R_MAX = 0.5 * math.log(sys.float_info.max)  # about 354.89: e^{2|r|} overflows past it


def check_squeeze(r: float) -> None:
    """Raise ValueError for |r| > R_MAX, where the Gaussian factors e^{+-2r}
    of the wave functions and the Husimi kernel leave float64."""
    if not abs(r) <= R_MAX:
        raise ValueError(f"|r| = {abs(r)} exceeds {R_MAX:.6g}, past which "
                         "e^(2|r|) overflows float64")


def _real_displacement(beta) -> float:
    if isinstance(beta, complex):
        if beta.imag != 0.0:
            raise ValueError(
                "quadrature wave functions are defined for real displacement only; "
                f"got beta = {beta!r}")
        return beta.real
    return float(beta)


def position_variance(r: float) -> float:
    """Var q of any |beta, r>: e^{-2r}/2."""
    return 0.5 * math.exp(-2.0 * r)


def wave_packet_center(beta: float, r: float) -> float:
    """Mean position of |beta, r> for real beta: sqrt(2) e^{-r} beta.

    The center scales with the same e^{-r} factor as the spread, since
    squeezing acts on the quadrature operator as a whole.
    """
    return math.sqrt(2.0) * math.exp(-r) * beta


def fock_amplitude_scs(n: int, beta, r: float):
    """<n | beta, r>: photon amplitude of a squeezed coherent state;
    vectorized over beta.

    Evaluated as

        t^{n/2} H_n(x / sqrt t) * exp(-|beta|^2/2 + tanh(r) beta^2/2)
            / sqrt(n! cosh r),   x = beta / (2 cosh r),  t = tanh(r) / 2,

    the textbook tanh^{n/2}(r) H_n(beta / sqrt(2 sinh r cosh r)) form with
    the powers of tanh moved inside the Hermite recurrence.  That keeps
    it polynomial in tanh r: r = 0 reduces to the coherent-state
    beta^n / sqrt(n!) e^{-|beta|^2/2} and r < 0 needs no complex branch.
    The rescaled recurrence keeps n in the hundreds, where H_n at small
    argument overflows a plain float, in range.  Raises ValueError for
    |r| > :data:`R_MAX`.
    """
    if n < 0:
        raise ValueError("photon index must be nonnegative")
    check_squeeze(r)
    beta = np.asarray(beta, dtype=complex)
    ch, th = math.cosh(r), math.tanh(r)
    mant, log_scale = hermite(n, beta / (2.0 * ch), 0.5 * th)
    # From 256 KiB on, numpy reuses the exponential's temporary for the
    # product and computes it with the operands swapped.  Its complex
    # multiply (with FMA) is not commutative bit for bit, so the last bit
    # of a value depends on the array's size: on a Husimi grid, about one
    # point in nine changes in its last bit if this product runs by rows.
    # Left whole, so every grid keeps the bytes it has printed so far.
    return mant * np.exp(log_scale - 0.5 * np.abs(beta) ** 2 + 0.5 * th * beta ** 2
                         - 0.5 * (log_factorial(n) + math.log(ch)))


def position_wf_scs(q, beta: float, r: float):
    """<q | beta, r> for real beta: a displaced squeezed Gaussian.

    (2 pi Var q)^{-1/4} exp(-(q - q0)^2 / (4 Var q)) with
    q0 = sqrt(2) e^{-r} beta and Var q = e^{-2r}/2; vectorized over q.
    """
    check_squeeze(r)
    b = _real_displacement(beta)
    var_q = position_variance(r)
    q0 = wave_packet_center(b, r)
    q = np.asarray(q, dtype=float)
    return (2.0 * math.pi * var_q) ** -0.25 * np.exp(-((q - q0) ** 2) / (4.0 * var_q))


def momentum_wf_scs(p, beta: float, r: float):
    """<p | beta, r> for real beta.

    (2 Var q / pi)^{1/4} exp(-p^2 Var q - i p q0); the Fourier transform
    of :func:`position_wf_scs` with kernel e^{-ipq}/sqrt(2 pi); vectorized
    over p.
    """
    check_squeeze(r)
    b = _real_displacement(beta)
    var_q = position_variance(r)
    q0 = wave_packet_center(b, r)
    p = np.asarray(p, dtype=float)
    return (2.0 * var_q / math.pi) ** 0.25 * np.exp(-p * p * var_q - 1j * p * q0)
