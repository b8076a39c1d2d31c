"""Area-of-overlap approximation to the Husimi slice along the imaginary axis.

The phase-space band of the number state and the band of the probing
state overlap in two congruent patches whose amplitudes interfere, giving
P(y) = 4 A cos^2(phi).  In the squeezed coordinate yt = y e^{-r} the
construction is the standard WKB picture of a harmonic oscillator with
energy m + 1/2: it lives inside the classical boundary yt^2 < m + 1/2 and
diverges at the turning point, where the true slice stays finite.

The printed source this formula descends from contains an unresolved
symbol and unbalanced grouping in the phase; the reading implemented here
(phase written entirely in yt, action measured from the turning point) is
the one whose maxima line up with the exact slice, which is how it is
validated in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analysis import find_maxima
from .squeezed_number import SqueezedNumberState, q_slice_imag
from .tables import DistributionTable

__all__ = [
    "ClassicallyForbiddenError",
    "classical_boundary",
    "classical_depth",
    "area_weight",
    "interference_phase",
    "approx_p",
    "fit_scale",
    "OverlapComparison",
    "overlap_comparison",
]


class ClassicallyForbiddenError(ValueError):
    """The slice point lies outside the region where the construction exists."""


def classical_depth(m: int, r: float, y):
    """m + 1/2 - y^2 e^{-2r} at alpha = i y (one number or an array of
    them); positive inside the classical region."""
    if m < 0:
        raise ValueError("photon index must be nonnegative")
    return m + 0.5 - y * y * math.exp(-2.0 * r)


def classical_boundary(m: int, r: float) -> float:
    """Largest |y| for which the overlap construction exists: e^r sqrt(m + 1/2)."""
    return math.exp(r) * math.sqrt(m + 0.5)


def _require_valid(m: int, r: float, y):
    d = classical_depth(m, r, y)
    forbidden = d <= 0.0
    if np.any(forbidden):
        bad = float(np.asarray(y)[forbidden][0])
        raise ClassicallyForbiddenError(
            f"y={bad} is classically forbidden for m={m}, r={r}; "
            "the area-of-overlap approximation does not exist there")
    return d


def area_weight(m: int, r: float, y):
    """Single-patch overlap weight A = e^{-2 d / e^{2r}} / sqrt(2 pi d),
    with d = m + 1/2 - y^2/e^{2r}, at alpha = i y (one number or an array)."""
    d = _require_valid(m, r, y)
    return np.exp(-2.0 * d * math.exp(-2.0 * r)) / np.sqrt(2.0 * math.pi * d)


def interference_phase(m: int, r: float, y):
    """Relative phase of the two overlap patches.

    phi = (m + 1/2) arctan(sqrt(d)/|yt|) - |yt| sqrt(d) - pi/4 with
    yt = y e^{-r} and d = m + 1/2 - yt^2.  At y = 0 the arctangent limit
    gives phi = (m + 1/2) pi/2 - pi/4; at the boundary both non-constant
    terms vanish and phi -> -pi/4.
    """
    d = _require_valid(m, r, y)
    yt = np.abs(y) * math.exp(-r)
    return (m + 0.5) * np.arctan2(np.sqrt(d), yt) - yt * np.sqrt(d) - math.pi / 4.0


def approx_p(m: int, r: float, y):
    """Interfering-patches probability 4 A cos^2(phi), unnormalized.

    Shapes are meaningful, absolute scale is not; comparisons against the
    exact slice fit one global scale factor first (:func:`fit_scale`).
    """
    return 4.0 * area_weight(m, r, y) * np.cos(interference_phase(m, r, y)) ** 2


def fit_scale(approx: np.ndarray, exact: np.ndarray) -> float:
    """Least-squares factor s minimizing |s approx - exact|; NaN when
    approx is identically zero."""
    denom = float(approx @ approx)
    return float(approx @ exact) / denom if denom > 0 else math.nan


@dataclass(frozen=True)
class OverlapComparison:
    """Side-by-side of the approximation and the exact Husimi slice."""

    y: np.ndarray
    approx: np.ndarray          # raw 4 A cos^2(phi)
    exact: np.ndarray           # Q(i y)
    scale: float                # least-squares factor mapping approx onto exact
    approx_maxima: np.ndarray   # interior maxima of the approximation
    exact_maxima: np.ndarray    # exact-slice maxima on the same window
    max_offset: float           # worst |approx maximum - nearest exact maximum|
    edge_ratio: float           # scaled approx / exact at 95% of the boundary
    diverges_at_edge: bool


def overlap_comparison(m: int, r: float) -> OverlapComparison:
    """Evaluate both curves at 4000 points of (0, boundary) and compare
    their structure.

    Maxima are matched on the interior window |y| < 0.8 times the classical
    boundary, where the approximation is meaningful; the edge ratio
    documents how it blows up near the turning point.
    """
    bound = classical_boundary(m, r)
    y = np.linspace(0.0, bound, 4002)[1:-1]
    approx = approx_p(m, r, y)
    exact = q_slice_imag(y, SqueezedNumberState(m, r))
    interior = y < 0.8 * bound
    scale = fit_scale(approx[interior], exact[interior])
    am, em = (find_maxima(DistributionTable(y[interior], v[interior]),
                          refine=True).positions for v in (approx, exact))
    if len(am) and len(em):
        max_offset = max(float(np.min(np.abs(em - a))) for a in am)
    else:
        max_offset = math.inf
    i95 = int(np.searchsorted(y, 0.95 * bound))
    i95 = min(i95, len(y) - 1)
    edge_ratio = float(scale * approx[i95] / exact[i95]) if exact[i95] > 0 else math.inf
    return OverlapComparison(
        y=y, approx=approx, exact=exact, scale=scale,
        approx_maxima=am, exact_maxima=em, max_offset=max_offset,
        edge_ratio=edge_ratio, diverges_at_edge=bool(edge_ratio > 1.5))
