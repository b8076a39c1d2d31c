"""Quantitative structure of the distributions: maxima, counting laws,
the squeezing transition, and cross-representation correspondences."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import hermite
from .squeezed_coherent import check_squeeze, fock_amplitude_scs
from .squeezed_number import (SqueezedNumberState, momentum_wf,
                              photon_distribution, position_wf, q_slice_imag)
from .tables import DistributionTable

__all__ = [
    "MaximaReport",
    "ScanError",
    "TransitionResult",
    "CorrespondenceRow",
    "SliceRatioReport",
    "find_maxima",
    "maxima_count_law",
    "position_density_table",
    "momentum_density_table",
    "q_slice_table",
    "momentum_zeros",
    "transition_scan",
    "qmax_to_nmax",
    "support_widening",
    "slice_proportionality",
]

DEFAULT_FLOOR = 1e-6  # suppress noise-level ripples deep in the tails


@dataclass(frozen=True)
class MaximaReport:
    """Strict local maxima of a distribution table."""

    positions: np.ndarray
    values: np.ndarray
    count: int


class ScanError(RuntimeError):
    """A parameter scan failed to bracket the feature it was looking for."""

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace or []


def find_maxima(table: DistributionTable, floor: float = DEFAULT_FLOOR,
                refine: bool = False) -> MaximaReport:
    """Locate strict interior local maxima above ``floor`` of the global peak.

    Plateaus of exactly equal values count once, at their left edge.  For
    parity-gapped photon tables the comparison runs over same-parity
    neighbors only (otherwise every nonzero entry would be a "maximum"
    between two structural zeros), and a virtual zero stands on each side
    of the same-parity rows: probabilities below n = 0 vanish, and the
    table ends where the tail is negligible.  So a peak at the first or
    last occupied index counts, and one row is enough.  Other tables need
    three rows.  With ``refine`` set, positions of single-point maxima on
    uniform grids are polished by a three-point parabolic fit.  Raises
    ``ValueError`` unless ``floor`` is finite and nonnegative.
    """
    if not floor >= 0:
        raise ValueError(f"floor must be nonnegative, got {floor}")
    if not math.isfinite(floor):
        raise ValueError(f"floor must be finite, got {floor}")
    parity = table.meta.parity is not None
    need = 1 if parity else 3
    if len(table) < need:
        raise ValueError(f"need at least {need} table rows to detect maxima")
    xs, vals = table.coords, table.probs
    if parity:
        sel = np.asarray(xs).astype(int) % 2 == table.meta.parity
        xs, vals = xs[sel], np.concatenate([[0.0], vals[sel], [0.0]])
    # each run of equal values stands at its left edge; the first and last
    # runs touch the ends (or the virtual zeros), so only interior runs count
    starts = np.flatnonzero(np.concatenate([[True], vals[1:] != vals[:-1]]))
    run = vals[starts]
    peak = ((run[1:-1] > run[:-2]) & (run[1:-1] > run[2:])
            & (run[1:-1] > floor * table.probs.max()))
    i = starts[1:-1][peak]
    if not i.size:
        return MaximaReport(np.asarray([]), np.asarray([]), 0)
    k = i - 1 if parity else i  # table row of vals[i]
    positions, values = xs[k], vals[i]
    if refine:
        a, b, c = vals[i - 1], values, vals[i + 1]
        denom = a - 2.0 * b + c
        # single points only, and not the end rows beside the virtual zeros
        fit = (starts[2:][peak] == i + 1) & (k > 0) & (k < len(xs) - 1) & (denom != 0.0)
        if fit.any():
            shift = (a - c)[fit] / (2.0 * denom[fit])
            positions = positions.astype(np.result_type(positions, float))
            positions[fit] = xs[k[fit]] + shift * (xs[k[fit] + 1] - xs[k[fit]])
            values = values.copy()
            values[fit] = b[fit] - 0.25 * (a - c)[fit] * shift
    return MaximaReport(positions, values, len(i))


def maxima_count_law(m: int) -> int:
    """Stabilized number of photon-distribution maxima: m/2 + 1 for even m,
    (m+1)/2 for odd m.  Holds once r is large enough that all oscillation
    maxima have emerged; the caller owns that precondition.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    return m // 2 + 1


def _sampled_table(density, scale: float, half_width: float) -> DistributionTable:
    """``density`` on the symmetric uniform grid over [-half_width, half_width]
    with step 0.01 ``scale``."""
    step = 0.01 * scale
    n = int(math.ceil(half_width / step))
    grid = step * np.arange(-n, n + 1)
    return DistributionTable(grid, density(grid))


def position_density_table(state: SqueezedNumberState) -> DistributionTable:
    """|<q|m,r>|^2 sampled on a symmetric uniform grid (step 0.01 e^{-r});
    ValueError for |r| past :data:`~squeezelab.squeezed_coherent.R_MAX`."""
    check_squeeze(state.r)
    scale = math.exp(-state.r)
    return _sampled_table(lambda q: position_wf(q, state) ** 2, scale,
                          scale * (math.sqrt(2.0 * state.m + 1.0) + 4.0))


def momentum_density_table(state: SqueezedNumberState) -> DistributionTable:
    """|<p|m,r>|^2 sampled on a symmetric uniform grid (step 0.01 e^r);
    ValueError for |r| past :data:`~squeezelab.squeezed_coherent.R_MAX`."""
    check_squeeze(state.r)
    scale = math.exp(state.r)
    return _sampled_table(lambda p: np.abs(momentum_wf(p, state)) ** 2,
                          scale, scale * (math.sqrt(2.0 * state.m + 1.0) + 4.0))


# most folded points |y| = step * k, k = 0..n, of one Q slice: there are
# about 100 sqrt(m + 1/2) + 200 e^{-r}, passing the cap near r = -10.64 at
# m = 0, where the slice's ~140 bytes a point peak near 1.2 GB
_SLICE_POINTS = 2 ** 23


def _slice_grid(m: int, r: float) -> tuple[float, int]:
    """(step, n) of the Q slice grid step * arange(-n, n + 1): step 0.01 e^r
    out to e^r sqrt(m + 1/2) + 2.  ValueError, before anything is allocated,
    for |r| past :data:`~squeezelab.squeezed_coherent.R_MAX` and for more
    than ``_SLICE_POINTS`` folded points."""
    check_squeeze(r)
    scale = math.exp(r)
    step = 0.01 * scale
    n = int(math.ceil((scale * math.sqrt(m + 0.5) + 2.0) / step))
    if n + 1 > _SLICE_POINTS:
        raise ValueError(f"the Q slice at m={m}, r={r} needs {n + 1} folded points, "
                         f"past the cap of {_SLICE_POINTS}")
    return step, n


def q_slice_table(state: SqueezedNumberState) -> DistributionTable:
    """Husimi Q along the imaginary axis on a symmetric uniform grid (step 0.01 e^r);
    ValueError for |r| past :data:`~squeezelab.squeezed_coherent.R_MAX` and
    for a grid of more than ``_SLICE_POINTS`` = 2^23 points per half."""
    step, n = _slice_grid(state.m, state.r)
    grid = step * np.arange(-n, n + 1)
    return DistributionTable(grid, q_slice_imag(grid, state))


_PASS_POINTS = 2 ** 11
"""Most folded slice points one Husimi pass of :func:`transition_scan` holds.

A pass keeps about 200 bytes a point alive, so 2^11 points add under a
megabyte to peak memory and stay in L2 cache; the scans of ``verify``
run their 515 slices in 101 passes.  A row past it runs alone.  Passes
this small also stay below the 256 KiB from which numpy computes the closing
product of :func:`~squeezelab.squeezed_coherent.fock_amplitude_scs` with
its operands swapped, so each row reads the bits of its own call.
"""


def _slice_tables(m: int, rs):
    """:func:`q_slice_table` at (m, r) for each r in ``rs``, in order.

    Each slice is even in y, so only its folded half |y| = step * k,
    k = 0..n, is computed, as <i y | m, r> = <m | -i y, -r> (see
    :func:`~squeezelab.squeezed_number.coherent_amplitude_grid`): the rows
    of as many r as fit in ``_PASS_POINTS`` go into one
    :func:`~squeezelab.squeezed_coherent.fock_amplitude_scs` call with r
    per point (a lone row at its scalar r), and each row is then mirrored
    onto its grid.  Every value is bit for bit the :func:`q_slice_table`
    one, and memory stays that of one pass however many r there are.
    """
    passes, points = [[]], 0
    for r in rs:
        step, n = _slice_grid(m, r)
        if passes[-1] and points + n + 1 > _PASS_POINTS:
            passes.append([])
            points = 0
        passes[-1].append((r, step, n))
        points += n + 1
    for rows in passes:
        mags = np.concatenate([step * np.arange(n + 1) for _, step, n in rows])
        # a lone row runs at its scalar r: the recurrence's step by an r per
        # point costs about 40% more, which batching pays back only on short rows
        minus_r = -rows[0][0] if len(rows) == 1 else np.concatenate(
            [np.full(n + 1, -r) for r, _, n in rows])
        q = np.abs(fock_amplitude_scs(m, np.conj(1j * mags), minus_r)) ** 2 / math.pi
        start = 0
        for _, step, n in rows:
            half = q[start:start + n + 1]
            start += n + 1
            yield DistributionTable(step * np.arange(-n, n + 1),
                                    np.concatenate((half[:0:-1], half)))


def momentum_zeros(state: SqueezedNumberState, tol: float = 1e-12) -> np.ndarray:
    """Zeros of the momentum density, by sign bisection of the amplitude.

    The density vanishes exactly where H_m(e^{-r} p) does; the recurrence
    reports exact signs, so each root is bracketed on a scan grid and then
    all brackets are bisected together to ``tol`` in the Hermite argument,
    or until their ends are adjacent doubles.  Raises ``ValueError`` for a
    negative or nan ``tol`` and for |r| past
    :data:`~squeezelab.squeezed_coherent.R_MAX`.
    """
    check_squeeze(state.r)
    if not tol >= 0.0:
        raise ValueError(f"tol must be nonnegative, got {tol}")
    m, r = state.m, state.r
    if m == 0:
        return np.array([])
    lim = math.sqrt(2.0 * m + 1.0) + 1.0
    grid = np.linspace(-lim, lim, 40 * m + 41)
    signs = np.sign(hermite(m, grid)[0])
    bracket = signs[:-1] * signs[1:] < 0
    a, b, sa = grid[:-1][bracket], grid[1:][bracket], signs[:-1][bracket]
    live = b - a > tol
    while live.any():
        c = 0.5 * (a + b)
        live &= (c != a) & (c != b)  # ends are adjacent doubles: it cannot shrink
        sc = np.sign(hermite(m, c)[0])
        # a zero at the midpoint closes the bracket on it
        a = np.where(live & (sc != -sa), c, a)
        b = np.where(live & (sc != sa), c, b)
        live &= b - a > tol
    roots = grid.copy()  # a grid point where the sign is 0 is a root itself
    roots[:-1][bracket] = 0.5 * (a + b)
    return math.exp(r) * roots[(signs == 0) | np.append(bracket, False)]


@dataclass(frozen=True)
class TransitionResult:
    """Outcome of a squeezing scan for the onset of the full oscillation set."""

    r_star: float
    target: int
    trace: list = field(default_factory=list)  # (r, prominent-maxima count)


def transition_scan(m: int, r_lo: float, r_hi: float, step: float,
                    prominence: float = 0.1) -> TransitionResult:
    """Smallest scanned r at which the Q slice holds its full set of m + 1
    prominent maxima for the rest of the range.

    A maximum counts as prominent when it reaches ``prominence`` of the
    slice peak; 0.1 is the calibrated default for which the onset tracks
    the half-log law in m.  Raises :class:`ScanError` (with the count
    trace attached) when the count never stabilizes in range, or when it
    is already stable at r_lo so the transition lies below the window.
    Raises ``ValueError`` unless r_lo, r_hi, step and prominence are
    finite, and, before any slice runs, for a scanned r whose slice grid
    :func:`q_slice_table` refuses.  Each count is that of
    :func:`find_maxima` on :func:`q_slice_table` at (m, r), but the slices
    of many r are evaluated in one batched pass.
    """
    if m < 2:
        raise ValueError("transition scan needs m >= 2")
    for name, value in (("r_lo", r_lo), ("r_hi", r_hi), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (r_lo < r_hi and step > 0):
        raise ValueError("need r_lo < r_hi and a positive step")
    if not prominence >= 0:
        raise ValueError(f"prominence must be nonnegative, got {prominence}")
    if not math.isfinite(prominence):
        raise ValueError(f"prominence must be finite, got {prominence}")
    target = m + 1
    # the 1e-9 keeps r_hi on the grid when (r_hi - r_lo) / step lands just below
    # an integer, as (0.7 - 0.1) / 0.1 = 5.999999999999999 does
    rs = [r_lo + i * step for i in range(math.floor((r_hi - r_lo) / step + 1e-9) + 1)]
    counts = [find_maxima(table, floor=prominence).count for table in _slice_tables(m, rs)]
    trace = list(zip(rs, counts))
    start = None
    for i in range(len(counts)):
        if all(c == target for c in counts[i:]):
            start = i
            break
    if start is None:
        raise ScanError(
            f"prominent-maxima count never stabilizes at {target} on "
            f"[{r_lo}, {r_hi}]", trace)
    if start == 0:
        raise ScanError(
            f"count is already {target} at r_lo={r_lo}; the transition lies "
            "below the scanned range", trace)
    return TransitionResult(r_star=rs[start], target=target, trace=trace)


@dataclass(frozen=True)
class CorrespondenceRow:
    """One matched pair between a Husimi-slice maximum and a photon maximum."""

    alpha_sq: float       # |alpha_max|^2 at the Q maximum
    n_max: int            # nearest photon-distribution maximum
    mismatch: float       # |n_max - alpha_sq| / n_max


def qmax_to_nmax(state: SqueezedNumberState) -> list[CorrespondenceRow]:
    """Pair each positive-axis Q maximum with |alpha| >= 1 to the closest
    photon-distribution maximum; returns an empty list when no slice
    maximum qualifies."""
    qrep = find_maxima(q_slice_table(state), refine=True)
    ys = [float(y) for y in qrep.positions if y >= 1.0]
    if not ys:
        return []
    prep = find_maxima(photon_distribution(state))
    if prep.count == 0:
        return []
    nmaxima = np.asarray(prep.positions, dtype=float)
    rows = []
    for y in ys:
        a2 = y * y
        n = int(nmaxima[np.argmin(np.abs(nmaxima - a2))])
        rows.append(CorrespondenceRow(alpha_sq=a2, n_max=n, mismatch=abs(n - a2) / n))
    return rows


def support_widening(m: int, r_values) -> list[tuple[float, int]]:
    """Position of the last photon-distribution maximum for each r."""
    rows = []
    for r in r_values:
        rep = find_maxima(photon_distribution(SqueezedNumberState(m, r)))
        if rep.count == 0:
            raise ScanError(f"no maxima found for m={m}, r={r}")
        rows.append((float(r), int(rep.positions[-1])))
    return rows


@dataclass(frozen=True)
class SliceRatioReport:
    """Ratio statistics of the Husimi slice against the momentum density."""

    n_points: int
    ratio_min: float
    ratio_max: float
    variation: float      # (max - min) / max over the window


def slice_proportionality(state: SqueezedNumberState) -> SliceRatioReport:
    """Measure how far the Husimi slice is from a constant multiple of the
    momentum density.

    The window is where the momentum density, on the p >= 0 half of
    :func:`momentum_density_table`, exceeds 1e-3 of its peak.  The slice
    is read at alpha = i p / sqrt(2), the map the README phase-space label
    alpha = (<q> + i <p>) / sqrt(2) gives; under it the slice is exactly a
    filtered momentum density,
    Q(i p / sqrt(2)) = (2 / sqrt(pi)) |<p| e^{-q^2/2} |m, r>|^2,
    so the oscillation zeros shift only through the filter's smoothing and
    the ratio tends to a constant as the q-width e^{-r} shrinks.  The filter
    distorts the envelope by about exp(x^2 / (e^{2r} + 1)) with
    x = p e^{-r}, a relative rate of order e^{-2r}; at m = 7 the variation
    over the window is 0.84 at r = 1.4 and 0.023 at r = 3.5.
    """
    table = momentum_density_table(state)
    half = table.coords >= 0.0
    p, dens = table.coords[half], table.probs[half]
    mask = dens > 1e-3 * dens.max()
    ratio = q_slice_imag(p[mask] / math.sqrt(2.0), state) / dens[mask]
    rmin, rmax = float(ratio.min()), float(ratio.max())
    return SliceRatioReport(
        n_points=int(mask.sum()), ratio_min=rmin, ratio_max=rmax,
        variation=(rmax - rmin) / rmax if rmax > 0 else math.inf)
