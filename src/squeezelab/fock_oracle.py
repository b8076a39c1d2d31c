"""Brute-force ground truth on a truncated number basis.

Amplitudes are columns S|m> of the squeeze unitary: the action of the
exponential of its quadratic generator on a unit vector.  Nothing here
shares code with the closed forms or the series engine, which is the
point: agreement between all three routes is the library's main
correctness argument.

A column whose squeezed image (reach ~ e^{2r}) meets the truncation edge
raises instead of returning silently wrong numbers.  The dense S and its
trusted block serve only the operator identities, which need every entry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FockMatrix",
    "TrustRegionError",
    "annihilation",
    "default_dim",
    "trusted_dim",
    "build_squeeze",
    "oracle_amplitude",
    "bogoliubov_residual",
]


class TrustRegionError(ValueError):
    """Requested entries lie outside the truncation-safe block."""


EDGE_TOL = 1e-10  # largest |entry| a column may keep in the top eighth of its block


def annihilation(dim: int) -> np.ndarray:
    """Ladder-down operator: a[n-1, n] = sqrt(n)."""
    a = np.zeros((dim, dim))
    ns = np.arange(1, dim)
    a[ns - 1, ns] = np.sqrt(ns)
    return a


def default_dim(m: int, r: float) -> int:
    """Basis size that holds the column S|m> well clear of the edge.

    The photon support of a squeezed number state widens like e^{2r}, so
    the basis is sized as max(64, ceil((m + 10) e^{2|r|} * 4)); validated
    by the dimension-doubling stability checks in the test suite.
    """
    return max(64, math.ceil((m + 10) * math.exp(2.0 * abs(r)) * 4.0))


def trusted_dim(dim: int, r: float) -> int:
    """Largest index (exclusive) whose dense-matrix entries survive truncation.

    Columns k with k e^{2|r|} well beyond dim are pure truncation artifact,
    and the products entering the ladder-mixing residual drag their garbage
    down to rows of order k e^{-2|r|}, so the safe block scales as
    dim e^{-2|r|}.  Halving that sits inside the measured onset of 1e-8
    contamination for both raw entries and the residual check; at small r
    the flat 80% cap applies instead.
    """
    return min(math.floor(0.8 * dim), math.floor(dim * math.exp(-2.0 * abs(r)) / 2.0))


@dataclass(frozen=True)
class FockMatrix:
    """Dense operator over the truncated basis {|0>, ..., |dim-1>}."""

    dim: int
    entries: np.ndarray
    trusted: int  # rows/columns below this index are truncation-safe


def build_squeeze(r: float, dim: int) -> FockMatrix:
    """Squeeze unitary on the truncated basis, S = expm((r/2)(a^2 - a^dag^2)).

    The generator sign is fixed by the convention b = S a S^dag
    = cosh(r) a + sinh(r) a^dag used by every closed form in the package
    (for r > 0 it compresses the position quadrature).  The generator is
    real antisymmetric, so the scipy scaling-and-squaring exponential
    returns an exactly orthogonal matrix up to roundoff.
    """
    from scipy.linalg import expm
    if dim < 2:
        raise ValueError("basis dimension must be at least 2")
    trusted = trusted_dim(dim, r)
    if trusted < 2:
        raise TrustRegionError(
            f"dim={dim} leaves no trusted block at r={r}; "
            f"need dim >= {math.ceil(5.0 * math.exp(2.0 * abs(r)))}")
    a = annihilation(dim)
    gen = 0.5 * r * (a @ a - a.T @ a.T)
    return FockMatrix(dim=dim, entries=expm(gen), trusted=trusted)


def oracle_amplitude(n, m, r: float, dim: int | None = None):
    """<n | m, r> from the column S|m>, vectorized over broadcastable
    integer n and m; mixed parity gives an exact 0.0.

    On the parity block p = m % 2 the generator (r/2)(a^2 - a^dag^2) is
    antisymmetric tridiagonal, +-(r/2) sqrt(k (k - 1)) between k - 2 and k,
    and scipy's ``expm_multiply`` (Al-Mohy and Higham, 2011) applies its
    exponential to unit columns without forming S.  dim defaults to
    :func:`default_dim` of the largest m.  Raises :class:`TrustRegionError`
    for a row n >= dim // 2, or when a column carries more than
    ``EDGE_TOL`` in the top eighth of its block.
    """
    from scipy.sparse import diags
    from scipy.sparse.linalg import expm_multiply
    n, m = np.broadcast_arrays(np.asarray(n), np.asarray(m))
    if np.any(n < 0) or np.any(m < 0):
        raise ValueError("indices must be nonnegative")
    if dim is None:
        dim = default_dim(int(m.max(initial=0)), r)
    if np.any(n >= dim // 2) or np.any(m >= dim):
        raise TrustRegionError(
            f"rows must lie below dim // 2 = {dim // 2} and columns below {dim}")
    out = np.zeros(n.shape)
    for p in np.unique(m % 2):
        cols = np.unique(m[m % 2 == p])
        k = np.arange(p, dim, 2, dtype=float)
        off = 0.5 * r * np.sqrt(k[1:] * (k[1:] - 1.0))
        gen = diags([off, -off], [1, -1], shape=(k.size, k.size), format="csr")
        unit = np.zeros((k.size, cols.size))
        unit[cols // 2, np.arange(cols.size)] = 1.0
        s = expm_multiply(gen, unit)
        edge = np.abs(s[k.size - k.size // 8:]).max(axis=0, initial=0.0)
        if np.any(edge > EDGE_TOL):
            raise TrustRegionError(
                f"columns m = {cols[edge > EDGE_TOL].tolist()} reach the edge of "
                f"the dim={dim} basis at r={r}: {edge.max():.2g} in its top eighth")
        same = (m % 2 == p) & (n % 2 == p)
        out[same] = s[n[same] // 2, np.searchsorted(cols, m[same])]
    return out if out.ndim else float(out)


def bogoliubov_residual(r: float, dim: int, block: int | None = None) -> float:
    """Operator-norm residual of S a S^dag - (cosh r a + sinh r a^dag).

    The difference is restricted to the leading block x block corner
    (default: the trusted block of the basis) before taking the largest
    singular value.  Decays with growing dim at fixed block, which is the
    convergence argument for the truncated dense operator.
    """
    from scipy.linalg import svdvals
    if dim < 8:
        raise ValueError("dim must be at least 8")
    s = build_squeeze(r, dim)
    if block is None:
        block = s.trusted
    if block < 1 or block > dim:
        raise ValueError("block must lie in 1..dim")
    a = annihilation(dim)
    target = math.cosh(r) * a + math.sinh(r) * a.T
    resid = s.entries @ a @ s.entries.T - target
    sub = resid[:block, :block]
    return float(svdvals(sub)[0])
