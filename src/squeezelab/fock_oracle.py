"""Brute-force ground truth on a truncated number basis.

Amplitudes are columns S|m> of the squeeze unitary: the action of the
exponential of its quadratic generator on a unit vector, by a Chebyshev
expansion of the propagator, applied in stages of about 0.1 in r on
bases that grow with the squeeze.  Nothing here shares code with the
closed forms or the series engine, which is the point: agreement between
all three routes is the library's main correctness argument.

A column whose squeezed image (reach ~ e^{2r}) meets the edge of any
stage's basis raises instead of returning silently wrong numbers.  One
generator per parity block and one propagator feed the columns, the
ladder residual and the dense S of the whole-operator checks; numpy is
all it needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["FockMatrix", "TrustRegionError", "default_dim", "trusted_dim",
           "build_squeeze", "oracle_amplitude", "bogoliubov_residual"]


class TrustRegionError(ValueError):
    """Requested entries lie outside the truncation-safe block."""


EDGE_TOL = 1e-10  # largest |entry| a column may keep in the edge rows of the basis


def default_dim(m: int, r: float) -> int:
    """Basis size that holds the column S|m> well clear of the edge.

    The photon support of a squeezed number state widens like e^{2r}, so
    the basis is sized as max(64, ceil((m + 10) e^{2|r|} * 4)); validated
    by the dimension-doubling stability checks in the test suite.

    It is the default basis of :func:`oracle_amplitude`, whose callers may
    have no photon cutoff (the oracle must not use the closed forms), and
    sizes ``verify``'s photon-number sandwich, which reads the tail past
    the cutoff.  ``verify``'s oracle suite sizes its bases from the photon
    cutoff instead, at about two thirds of this.
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


def _generator(r: float, dim: int, p: int) -> np.ndarray:
    """Squeeze generator (r/2)(a^2 - a^dag^2) on the parity-p block
    {|p>, |p+2>, ...} of the dim basis, as its superdiagonal g: the block is
    antisymmetric tridiagonal, G[i, i+1] = g[i] = -G[i+1, i], with
    g = (r/2) sqrt(k (k - 1)) between k - 2 and k.  The sign is fixed by the
    convention b = S a S^dag = cosh(r) a + sinh(r) a^dag used by every closed
    form in the package (for r > 0 it compresses the position quadrature).
    """
    k = np.arange(p + 2, dim, 2, dtype=float)
    return 0.5 * r * np.sqrt(k * (k - 1.0))


def _bessel_j(rho: float) -> np.ndarray:
    """J_k(rho) for k = 0, 1, ..., K and rho > 0, where J_K is the last one
    above 1e-17 in magnitude.

    Miller's backward recurrence J_{k-1} = (2k/rho) J_k - J_{k+1}, started
    from (0, 1) in the decaying tail (20 rho^(1/3) + 40 past rho, where
    J_k < 1e-30), rescaled where it grows and normalized by
    J_0 + 2 (J_2 + J_4 + ...) = 1.
    """
    top = int(rho + 20.0 * rho ** (1.0 / 3.0)) + 40
    j = np.empty(top + 1)
    above, here = 0.0, 1.0
    for k in range(top, 0, -1):
        j[k] = here
        above, here = here, (2.0 * k / rho) * here - above
        if abs(here) > 1e250:
            j[k:] *= 1e-250
            above *= 1e-250
            here *= 1e-250
    j[0] = here
    j /= j[0] + 2.0 * j[2::2].sum()
    return j[:np.flatnonzero(np.abs(j) > 1e-17)[-1] + 1]


def _squeeze_columns(r: float, s: np.ndarray, parity: np.ndarray) -> None:
    """Apply S(r) of the len(s) basis in place to the full-height columns s,
    column j living on the rows of parity ``parity[j]``.

    exp(G) for the generator G of each parity block (:func:`_generator`),
    by the Chebyshev expansion of the propagator (Tal-Ezer and Kosloff,
    J. Chem. Phys. 81, 3967, 1984).  G is real antisymmetric, so its
    spectrum lies in i[-rho, rho] for the Gershgorin bound
    rho = max_i(|g[i-1]| + |g[i]|), and exp(G) v = J_0(rho) P_0 +
    2 sum_k J_k(rho) P_k over the real recurrence P_0 = v,
    P_1 = (G/rho) v, P_{k+1} = 2 (G/rho) P_k + P_{k-1}, cut where the
    Bessel coefficients fall below 1e-17.  With rho about |r| dim, that is
    about |r| dim products on the block's dim/2 rows.

    One loop serves both blocks.  Column j of the loop holds the rows
    parity[j], parity[j] + 2, ... of s[:, j] (a shorter odd block gets
    one zero row, coupled to the rest by a zero step), and carries its own
    block's step g/rho and coefficients 2 J_k(rho), zero past that
    block's last term.  Every element sees the products and sums of a
    loop over its block alone, in the same order, and the zero terms add
    nothing, so each column is the same to the bit whichever columns come
    with it.  A block with rho < 2e-17 (r = 0, one row, or a squeeze so
    small that J_0(rho) rounds to 1 and every later J_k lies below the
    cut, where Miller's recurrence would overflow) is the identity in
    floats: a zero step and the single coefficient 1.  No random numbers
    are drawn, so the columns repeat bit for bit.
    """
    dim = len(s)
    rows = (dim + 1) // 2
    steps = np.zeros((rows - 1, 2))
    coefs = [np.ones(1), np.ones(1)]
    for p in np.unique(parity):
        g = _generator(r, dim, p)
        rho = float(np.convolve(np.abs(g), [1.0, 1.0]).max()) if g.any() else 0.0
        if rho >= 2e-17:  # below, J_0 rounds to 1 and every later J_k lies below the cut
            steps[:g.size, p] = g / rho
            coefs[p] = _bessel_j(rho)
    coef = np.zeros((max(c.size for c in coefs), 2))
    for p in (0, 1):
        coef[:coefs[p].size, p] = coefs[p]
    coef[1:] *= 2.0
    # indexing the column axis gives Fortran order; in C order, like cur,
    # every operand of the loop walks memory the same way
    coef = np.ascontiguousarray(coef[:, parity])
    step = np.ascontiguousarray(steps[:, parity])
    cur = np.zeros((rows, len(parity)))
    for p in (0, 1):
        cur[:(dim - p + 1) // 2, parity == p] = s[p::2, parity == p]
    prev = np.zeros_like(cur)  # P_{-1} = -(G/rho) v, so that the loop starts at P_1
    prev[:-1] -= step * cur[1:]
    prev[1:] += step * cur[:-1]
    out = coef[0] * cur
    step *= 2.0
    tmp = np.empty_like(cur)
    lo, hi = tmp[:-1], tmp[1:]
    # the row-shifted views of both buffers, taken once: term k updates
    # P_{k-1} in place to P_{k+1}, and the two buffers trade roles each term
    views = [(b[:-1], b[1:], a[1:], a[:-1], b) for a, b in ((cur, prev), (prev, cur))]
    for k, c in enumerate(coef[1:]):
        prev_lo, prev_hi, cur_hi, cur_lo, new = views[k % 2]
        np.multiply(step, cur_hi, out=lo)
        prev_lo += lo
        np.multiply(step, cur_lo, out=hi)
        prev_hi -= hi
        np.multiply(c, new, out=tmp)
        out += tmp
    for p in (0, 1):
        s[p::2, parity == p] = out[:(dim - p + 1) // 2, parity == p]


def build_squeeze(r: float, dim: int) -> FockMatrix:
    """Squeeze unitary on the truncated basis, S = exp((r/2)(a^2 - a^dag^2)).

    The propagator of the columns applied to every unit vector at once, in
    one stage on the dim basis; the generator is real antisymmetric, so S
    is orthogonal up to roundoff.  Its trusted block (:func:`trusted_dim`)
    holds two rows from dim = ceil(4 e^{2|r|}) on.
    """
    if dim < 2:
        raise ValueError("basis dimension must be at least 2")
    trusted = trusted_dim(dim, r)
    if trusted < 2:
        raise TrustRegionError(
            f"dim={dim} leaves no trusted block at r={r}; "
            f"need dim >= {math.ceil(4.0 * math.exp(2.0 * abs(r)))}")
    entries = np.eye(dim)
    _squeeze_columns(r, entries, np.arange(dim) % 2)
    return FockMatrix(dim=dim, entries=entries, trusted=trusted)


def oracle_amplitude(n, m, r: float, dim: int | None = None):
    """<n | m, r> from the column S|m>, vectorized over broadcastable
    integer n and m; mixed parity gives an exact 0.0.

    dim defaults to :func:`default_dim` of the largest m.  Raises
    :class:`TrustRegionError` for a row n >= dim // 2, or when a column
    carries more than ``EDGE_TOL`` in the edge rows of the basis of any
    stage of the squeeze: its top eighth, and at least its top two rows,
    so that a basis of under 16 rows still has an edge of each parity.
    """
    n, m = np.broadcast_arrays(np.asarray(n), np.asarray(m))
    if n.dtype.kind not in "iu" or m.dtype.kind not in "iu":
        raise ValueError("indices must be integers")
    if np.any(n < 0) or np.any(m < 0):
        raise ValueError("indices must be nonnegative")
    if dim is None:
        dim = default_dim(int(m.max(initial=0)), r)
    if np.any(n >= dim // 2) or np.any(m >= dim):
        raise TrustRegionError(
            f"rows must lie below dim // 2 = {dim // 2} and columns below {dim}")
    cols = np.unique(m)
    s = np.zeros((dim, cols.size))
    s[cols, np.arange(cols.size)] = 1.0
    # S(r) = S(r/K)^K in stages of about 0.1.  The state after stage k is
    # |m, r k/K>, whose photon support is about e^{-2|r|(K-k)/K} times the
    # final one, so stage k runs on the dim basis shrunk by that factor,
    # with a 1.25x margin and at least 64 rows.  The bases follow from
    # (r, dim) alone, so a column is the same whichever columns come with it.
    count = max(1, math.ceil(abs(r) / 0.1))
    for k in range(1, count + 1):
        shrink = math.exp(-2.0 * abs(r) * (count - k) / count)
        basis = min(dim, max(64, math.ceil(1.25 * dim * shrink)))
        _squeeze_columns(r / count, s[:basis], cols % 2)
        edge = np.abs(s[basis - max(2, basis // 8):]).max(axis=0, initial=0.0)
        if np.any(edge > EDGE_TOL):
            where = (f"the dim={dim} basis at r={r}" if k == count else
                     f"the dim={basis} basis of stage {k} of {count} "
                     f"toward dim={dim}, r={r}")
            raise TrustRegionError(
                f"columns m = {cols[edge > EDGE_TOL].tolist()} reach the edge of "
                f"{where}: {edge.max():.2g} in its edge rows")
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
    s = np.eye(dim, block)
    _squeeze_columns(r, s, np.arange(block) % 2)  # one stage: the truncated generator itself
    s = np.pad(s, ((1, 0), (1, 0)))
    n = np.arange(dim // 2)
    s_a = np.sqrt(np.arange(block)) * s[n + 1, :-1]
    b_s = (math.cosh(r) * np.sqrt(n + 1)[:, None] * s[n + 2, 1:]
           + math.sinh(r) * np.sqrt(n)[:, None] * s[n, 1:])
    return float(np.abs(s_a - b_s).max())
