"""Brute-force ground truth on a truncated number basis.

Amplitudes are columns S|m> of the squeeze unitary: the action of the
exponential of its quadratic generator on a unit vector.  Nothing here
shares code with the closed forms or the series engine, which is the
point: agreement between all three routes is the library's main
correctness argument.

A column whose squeezed image (reach ~ e^{2r}) meets the truncation edge
raises instead of returning silently wrong numbers.  One generator per
parity block feeds the columns, the ladder residual and the dense S, which
serves only the whole-operator checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FockMatrix", "TrustRegionError", "default_dim", "trusted_dim",
           "build_squeeze", "oracle_amplitude", "bogoliubov_residual"]


class TrustRegionError(ValueError):
    """Requested entries lie outside the truncation-safe block."""


EDGE_TOL = 1e-10  # largest |entry| a column may keep in the top eighth of the basis


def default_dim(m: int, r: float) -> int:
    """Basis size that holds the column S|m> well clear of the edge.

    The photon support of a squeezed number state widens like e^{2r}, so
    the basis is sized as max(64, ceil((m + 10) e^{2|r|} * 4)); validated
    by the dimension-doubling stability checks in the test suite.
    """
    return max(64, math.ceil((m + 10) * math.exp(2.0 * abs(r)) * 4.0))


def trusted_dim(dim: int, r: float) -> int:
    """Largest index (exclusive) of the dense matrix's truncation-safe block,
    and the default column block of :func:`bogoliubov_residual`.

    Columns k with k e^{2|r|} well beyond dim are pure truncation artifact,
    so the safe block scales as dim e^{-2|r|}; halving that sits inside the
    measured onset of 1e-8 contamination (the flat 80% cap rules at small r).
    """
    return min(math.floor(0.8 * dim), math.floor(dim * math.exp(-2.0 * abs(r)) / 2.0))


@dataclass(frozen=True)
class FockMatrix:
    """Dense operator over the truncated basis {|0>, ..., |dim-1>}."""

    dim: int
    entries: np.ndarray
    trusted: int  # rows/columns below this index are truncation-safe


def _generator(r: float, dim: int, p: int):
    """Squeeze generator (r/2)(a^2 - a^dag^2) on the parity-p block
    {|p>, |p+2>, ...} of the dim basis: sparse antisymmetric tridiagonal,
    +-(r/2) sqrt(k (k - 1)) between k - 2 and k.  The sign is fixed by the
    convention b = S a S^dag = cosh(r) a + sinh(r) a^dag used by every closed
    form in the package (for r > 0 it compresses the position quadrature).
    """
    from scipy.sparse import diags
    k = np.arange(p, dim, 2, dtype=float)
    off = 0.5 * r * np.sqrt(k[1:] * (k[1:] - 1.0))
    return diags([off, -off], [1, -1], shape=(k.size, k.size), format="csr")


def _columns(r: float, dim: int, ms: np.ndarray) -> np.ndarray:
    """Full-height columns S|m>, m in ``ms``: scipy's ``expm_multiply``
    (Al-Mohy and Higham, 2011) applies each parity block's exponential to
    unit vectors without forming S; rows of the other parity stay 0.0.
    Its Taylor degree comes from a randomized norm estimate that draws from
    numpy's global generator, so each block runs under a fixed seed, and
    the caller's generator state is restored: columns repeat bit for bit."""
    from scipy.sparse.linalg import expm_multiply
    s = np.zeros((dim, ms.size))
    caller = np.random.get_state()
    try:
        for p in np.unique(ms % 2):
            j = np.flatnonzero(ms % 2 == p)
            gen = _generator(r, dim, p)
            unit = np.zeros((gen.shape[0], j.size))
            unit[ms[j] // 2, np.arange(j.size)] = 1.0
            np.random.seed(0)
            s[p::2, j] = expm_multiply(gen, unit)
    finally:
        np.random.set_state(caller)
    return s


def build_squeeze(r: float, dim: int) -> FockMatrix:
    """Squeeze unitary on the truncated basis, S = expm((r/2)(a^2 - a^dag^2)).

    Each parity block is the scipy scaling-and-squaring exponential of
    :func:`_generator`; the generator is real antisymmetric, so S is
    orthogonal up to roundoff.
    """
    from scipy.linalg import expm
    if dim < 2:
        raise ValueError("basis dimension must be at least 2")
    trusted = trusted_dim(dim, r)
    if trusted < 2:
        raise TrustRegionError(
            f"dim={dim} leaves no trusted block at r={r}; "
            f"need dim >= {math.ceil(5.0 * math.exp(2.0 * abs(r)))}")
    entries = np.zeros((dim, dim))
    for p in (0, 1):
        entries[p::2, p::2] = expm(_generator(r, dim, p).toarray())
    return FockMatrix(dim=dim, entries=entries, trusted=trusted)


def oracle_amplitude(n, m, r: float, dim: int | None = None):
    """<n | m, r> from the column S|m>, vectorized over broadcastable
    integer n and m; mixed parity gives an exact 0.0.

    dim defaults to :func:`default_dim` of the largest m.  Raises
    :class:`TrustRegionError` for a row n >= dim // 2, or when a column
    carries more than ``EDGE_TOL`` in the top eighth of the basis.
    """
    n, m = np.broadcast_arrays(np.asarray(n), np.asarray(m))
    if np.any(n < 0) or np.any(m < 0):
        raise ValueError("indices must be nonnegative")
    if dim is None:
        dim = default_dim(int(m.max(initial=0)), r)
    if np.any(n >= dim // 2) or np.any(m >= dim):
        raise TrustRegionError(
            f"rows must lie below dim // 2 = {dim // 2} and columns below {dim}")
    cols = np.unique(m)
    s = _columns(r, dim, cols)
    edge = np.abs(s[dim - dim // 8:]).max(axis=0, initial=0.0)
    if np.any(edge > EDGE_TOL):
        raise TrustRegionError(
            f"columns m = {cols[edge > EDGE_TOL].tolist()} reach the edge of "
            f"the dim={dim} basis at r={r}: {edge.max():.2g} in its top eighth")
    out = s[n, np.searchsorted(cols, m)]
    return out if out.ndim else float(out)


def bogoliubov_residual(r: float, dim: int, block: int | None = None) -> float:
    """Largest entry of S a - b S, b = cosh(r) a + sinh(r) a^dag, over the
    first ``block`` columns (default: :func:`trusted_dim`) and the rows
    n < dim // 2 the column oracle returns.

    The ladders act on the full-height columns S|m> as row shifts,
    (a s)[n] = sqrt(n + 1) s[n + 1] and (a^dag s)[n] = sqrt(n) s[n - 1].
    Decays with growing dim at fixed block, which is the convergence
    argument for the truncated generator.
    """
    if dim < 8:
        raise ValueError("dim must be at least 8")
    if block is None:
        block = trusted_dim(dim, r)
    if block < 1 or block > dim:
        raise ValueError("block must lie in 1..dim")
    # a zero row and column in front stand for s[n - 1] at n = 0 and S|m - 1> at m = 0
    s = np.pad(_columns(r, dim, np.arange(block)), ((1, 0), (1, 0)))
    n = np.arange(dim // 2)
    s_a = np.sqrt(np.arange(block)) * s[n + 1, :-1]
    b_s = (math.cosh(r) * np.sqrt(n + 1)[:, None] * s[n + 2, 1:]
           + math.sinh(r) * np.sqrt(n)[:, None] * s[n, 1:])
    return float(np.abs(s_a - b_s).max())
