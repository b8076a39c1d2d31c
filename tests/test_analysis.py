"""Tests for maxima detection, counting laws, the transition scan and the
cross-representation correspondences."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import roots_hermite

from squeezelab.analysis import (ScanError, find_maxima, maxima_count_law,
                                 momentum_density_table, momentum_zeros,
                                 position_density_table, q_slice_table,
                                 qmax_to_nmax, slice_proportionality,
                                 support_widening, transition_scan)
from squeezelab.special import hermite
from squeezelab.squeezed_number import SqueezedNumberState, photon_distribution
from squeezelab.tables import DistributionTable, TableMeta

from reference import direct_map_ratio


def table(coords, probs, **meta):
    return DistributionTable(np.asarray(coords), np.asarray(probs, dtype=float),
                             TableMeta(**meta))


# ---------------------------------------------------------------- find_maxima

def test_monotone_table_has_no_maxima():
    rep = find_maxima(table(range(6), [0, 1, 2, 3, 4, 5]))
    assert rep.count == 0


def test_simple_interior_maximum():
    rep = find_maxima(table([0.0, 1.0, 2.0, 3.0], [0, 2, 1, 0]))
    assert rep.count == 1 and rep.positions[0] == 1.0


def test_plateau_counts_once_at_left_edge():
    rep = find_maxima(table(range(7), [0, 1, 5, 5, 5, 1, 0]))
    assert rep.count == 1
    assert rep.positions[0] == 2


def test_endpoints_never_count_for_continuous_tables():
    rep = find_maxima(table(range(5), [9, 1, 0, 1, 9]))
    assert rep.count == 0


def test_floor_suppresses_small_ripples():
    probs = [0, 1e-9, 0, 1.0, 0]
    assert find_maxima(table(range(5), probs), floor=1e-6).count == 1
    assert find_maxima(table(range(5), probs), floor=0.0).count == 2


def test_parity_gapped_comparison_and_left_edge_rule():
    # photon table of an odd-parity state: zeros interleave the support
    coords = range(8)
    probs = [0, 0.5, 0, 0.2, 0, 0.25, 0, 0.05]
    rep = find_maxima(table(coords, probs, parity=1))
    assert list(rep.positions) == [1, 5]  # n=1 beats the virtual zero below it


def test_parity_table_peak_at_its_last_row_counts():
    # past the last same-parity row stands a virtual zero, as below n = 0
    rep = find_maxima(table(range(4), [0, 0.1, 0, 0.9], parity=1))
    assert list(rep.positions) == [3]
    rep = find_maxima(table([0], [1.0], parity=0))  # one row is enough
    assert list(rep.positions) == [0] and rep.count == 1


@pytest.mark.parametrize("m", range(4))
def test_unsqueezed_photon_table_peaks_at_m(m):
    rep = find_maxima(photon_distribution(SqueezedNumberState(m, 0.0)))
    assert list(rep.positions) == [m] and list(rep.values) == [1.0]


@pytest.mark.parametrize("floor", [-1e-9, math.nan])
def test_floor_must_be_nonnegative(floor):
    with pytest.raises(ValueError, match="floor must be nonnegative"):
        find_maxima(table(range(5), [0, 1, 0, 1, 0]), floor=floor)


def test_transition_scan_rejects_nan_prominence():
    with pytest.raises(ValueError, match="prominence must be nonnegative"):
        transition_scan(3, 0.1, 1.0, 0.02, prominence=math.nan)


def test_refine_moves_position_off_grid():
    xs = np.linspace(0, 1, 11)
    f = -(xs - 0.43) ** 2 + 1.0
    rep = find_maxima(table(xs, f), refine=True)
    assert rep.count == 1
    assert rep.positions[0] == pytest.approx(0.43, abs=1e-12)


def test_scaling_invariance():
    probs = np.array([0, 1, 0.5, 2, 0.1, 0.4, 0])
    a = find_maxima(table(range(7), probs))
    b = find_maxima(table(range(7), probs * 7.3e5))
    assert np.array_equal(a.positions, b.positions)


def test_short_table_rejected():
    with pytest.raises(ValueError):
        find_maxima(table([0, 1], [1, 2]))


@pytest.mark.parametrize("coords, probs", [
    ([0, 1], [math.nan, 0.5]),
    ([0, 1], [0.5, math.inf]),
    ([0.0, math.inf], [0.5, 0.5]),
    ([math.nan, 1.0], [0.5, 0.5]),
])
def test_non_finite_table_rejected(coords, probs):
    # find_maxima on such a table would find no maxima and say nothing
    with pytest.raises(ValueError, match="finite"):
        DistributionTable(np.asarray(coords), np.asarray(probs))


def test_photon_maxima_m7_r14():
    rep = find_maxima(photon_distribution(SqueezedNumberState(7, 1.4), 1e-10))
    assert list(rep.positions) == [1, 11, 37, 89]
    assert rep.count == 4


def find_maxima_walker(table, floor=1e-6, refine=False):
    """Reference: the element-by-element plateau walker that ``find_maxima``
    replaced, kept to pin its output bit for bit."""
    parity = table.meta.parity
    if parity is not None:
        sel = np.flatnonzero(np.asarray(table.coords).astype(int) % 2 == parity)
        xs = table.coords[sel]
        vals = np.concatenate([[0.0], table.probs[sel], [0.0]])
        offset = 1
    else:
        xs = table.coords
        vals = table.probs
        offset = 0
    thr = floor * table.probs.max()
    positions, values = [], []
    n = len(vals)
    i = 1
    while i < n - 1:
        j = i
        while j + 1 < n and vals[j + 1] == vals[i]:
            j += 1
        if j == n - 1:
            break
        if vals[i - 1] < vals[i] and vals[i] > vals[j + 1] and vals[i] > thr:
            k = i - offset
            x = xs[k]
            v = vals[i]
            if refine and j == i and 0 < k < len(xs) - 1:
                a, b, c = vals[i - 1], vals[i], vals[j + 1]
                denom = a - 2.0 * b + c
                if denom != 0.0:
                    shift = (a - c) / (2.0 * denom)
                    step = xs[k + 1] - xs[k]
                    x = x + shift * step
                    v = b - 0.25 * (a - c) * shift
            positions.append(x)
            values.append(v)
        i = j + 1
    return np.asarray(positions), np.asarray(values), len(positions)


# a few repeated levels make plateaus; "parity" tables zero every other row
table_values = st.lists(
    st.one_of(st.sampled_from([0.0, 0.25, 1.0, 3.0]),
              st.floats(min_value=0.0, max_value=10.0)),
    min_size=3, max_size=40)


@settings(max_examples=400, deadline=None)
@given(vals=table_values, floor=st.sampled_from([0.0, 1e-6, 0.5]), refine=st.booleans(),
       grid=st.sampled_from(["int", "float", "float32", "parity0", "parity1"]),
       start=st.integers(0, 3))
def test_find_maxima_bit_identical_to_walker(vals, floor, refine, grid, start):
    probs = np.asarray(vals)
    meta = {}
    if grid.startswith("parity"):
        meta["parity"] = int(grid[-1])
        coords = start + np.arange(len(probs))
        probs = np.where(coords % 2 == meta["parity"], probs, 0.0)
    elif grid == "int":
        coords = start + np.arange(len(probs))
    else:
        coords = (0.3 * start - 1.0 + 0.37 * np.arange(len(probs))).astype(grid)
    tab = table(coords, probs, **meta)
    rep = find_maxima(tab, floor=floor, refine=refine)
    positions, values, count = find_maxima_walker(tab, floor=floor, refine=refine)
    assert rep.count == count
    for got, want in ((rep.positions, positions), (rep.values, values)):
        assert np.array_equal(got, want) and got.dtype == want.dtype


# ------------------------------------------------------------- counting laws

def test_maxima_count_law_values():
    assert maxima_count_law(0) == 1
    assert maxima_count_law(7) == 4
    assert maxima_count_law(8) == 5


@pytest.mark.parametrize("m", range(2, 10))
def test_count_law_realized_above_transition(m):
    r = 0.5 * math.log(m) + 0.7
    rep = find_maxima(photon_distribution(SqueezedNumberState(m, r), 1e-10))
    assert rep.count == maxima_count_law(m)


# ----------------------------------------------------- continuous densities

@pytest.mark.parametrize("m", range(1, 10))
@pytest.mark.parametrize("r", [0.5, 1.4])
def test_momentum_maxima_and_zero_counts(m, r):
    rep = find_maxima(momentum_density_table(SqueezedNumberState(m, r)))
    assert rep.count == m + 1
    zeros = momentum_zeros(SqueezedNumberState(m, r))
    assert len(zeros) == m


def test_momentum_zeros_match_scaled_hermite_roots():
    st = SqueezedNumberState(7, 1.4)
    got = np.sort(momentum_zeros(st))
    want = np.sort(roots_hermite(7)[0]) * math.exp(1.4)
    assert np.abs(got - want).max() < 1e-6


@functools.lru_cache(maxsize=None)
def momentum_zeros_scalar(m, tol):
    """Reference: the root-by-root scalar bisection that ``momentum_zeros``
    replaced, in the Hermite argument (``momentum_zeros`` scales by e^r)."""
    lim = math.sqrt(2.0 * m + 1.0) + 1.0
    grid = np.linspace(-lim, lim, 40 * m + 41)
    signs = np.sign(hermite(m, grid)[0])
    roots = []
    for i in range(len(grid) - 1):
        a, b = grid[i], grid[i + 1]
        sa, sb = signs[i], signs[i + 1]
        if sa == 0:
            roots.append(a)
            continue
        if sb == 0 or sa * sb > 0:
            continue
        while b - a > tol:
            c = 0.5 * (a + b)
            sc = np.sign(hermite(m, c)[0])
            if sc == 0:
                a = b = c
                break
            if sc == sa:
                a = c
            else:
                b = c
        roots.append(0.5 * (a + b))
    if signs[-1] == 0:
        roots.append(grid[-1])
    return np.asarray(roots)


@pytest.mark.parametrize("tol", [1e-12, 1e-6])
@pytest.mark.parametrize("r", [-1.0, 0.0, 0.5, 1.4, 3.0])
def test_momentum_zeros_bit_identical_to_scalar_bisection(r, tol):
    for m in range(1, 41):
        got = momentum_zeros(SqueezedNumberState(m, r), tol)
        want = math.exp(r) * momentum_zeros_scalar(m, tol)
        assert np.array_equal(got, want) and got.dtype == want.dtype


def test_momentum_zeros_tol_below_float_spacing_returns():
    # brackets close once their ends are adjacent doubles; tol is in the
    # Hermite argument, which momentum_zeros scales by e^r
    st = SqueezedNumberState(7, 1.4)
    fine = momentum_zeros(st, tol=1e-17)
    assert np.abs(fine - momentum_zeros(st)).max() * math.exp(-1.4) < 1e-12
    assert np.array_equal(momentum_zeros(st, tol=0.0), fine)
    want = np.sort(roots_hermite(7)[0])
    assert np.abs(np.sort(fine) * math.exp(-1.4) - want).max() < 1e-14


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_momentum_zeros_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol"):
        momentum_zeros(SqueezedNumberState(7, 1.4), tol=tol)


def test_position_density_table_peak_structure():
    rep = find_maxima(position_density_table(SqueezedNumberState(3, 0.9)))
    assert rep.count == 4  # oscillator eigenfunction structure survives squeezing


# ------------------------------------------------------------ transition scan

def test_transition_scan_m7():
    res = transition_scan(7, 0.1, 1.6, 0.02)
    assert abs(res.r_star - 0.5 * math.log(7)) < 0.15
    assert res.target == 8
    counts = [c for _, c in res.trace]
    assert counts[0] < 8 and counts[-1] == 8


def test_transition_scan_reaches_r_hi():
    # (0.7 - 0.1) / 0.1 is 5.999999999999999 in floating point
    res = transition_scan(3, 0.1, 0.7, 0.1)
    assert len(res.trace) == 7
    assert res.trace[-1][0] == pytest.approx(0.7, abs=1e-12)


def test_transition_scan_below_range_errors():
    with pytest.raises(ScanError) as err:
        transition_scan(2, 1.0, 1.2, 0.05)
    assert "below" in str(err.value)
    assert err.value.trace  # trace is attached for diagnosis


def test_transition_scan_never_reached_errors():
    with pytest.raises(ScanError):
        transition_scan(7, 0.05, 0.2, 0.05)


def test_transition_scan_validation():
    with pytest.raises(ValueError):
        transition_scan(1, 0.1, 1.0, 0.02)
    with pytest.raises(ValueError):
        transition_scan(5, 1.0, 0.5, 0.02)


@pytest.mark.parametrize("r_lo, r_hi, step, name", [
    (0.1, math.inf, 0.02, "r_hi"),
    (-math.inf, 1.0, 0.02, "r_lo"),
    (math.nan, 1.0, 0.02, "r_lo"),
    (0.1, 1.0, math.inf, "step"),
    (0.1, 1.0, math.nan, "step"),
])
def test_transition_scan_rejects_non_finite_range(r_lo, r_hi, step, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        transition_scan(3, r_lo, r_hi, step)


# -------------------------------------------------------- correspondences

def test_qmax_to_nmax_empty_for_vacuum():
    assert qmax_to_nmax(SqueezedNumberState(0, 1.4)) == []


def test_qmax_to_nmax_m7_r14_pairs():
    rows = qmax_to_nmax(SqueezedNumberState(7, 1.4))
    assert [row.n_max for row in rows] == [1, 11, 37, 89]
    # outer three pairs track n ~ |alpha|^2 tightly; the innermost is loose
    for row in rows[1:]:
        assert row.mismatch <= 0.16
    assert rows[0].mismatch < 0.5
    # measured |alpha|^2 values for the record
    assert rows[1].alpha_sq == pytest.approx(12.708, abs=0.05)
    assert rows[3].alpha_sq == pytest.approx(94.758, abs=0.05)


def test_qmax_filter_drops_small_alpha():
    rows = qmax_to_nmax(SqueezedNumberState(2, 1.2))
    assert all(row.alpha_sq >= 1.0 for row in rows)


def test_support_widening_m7():
    rows = support_widening(7, [1.1, 1.25, 1.4])
    lasts = [n for _, n in rows]
    assert lasts == sorted(lasts) and lasts[0] < lasts[-1]
    assert rows[-1] == (1.4, 89)


def test_support_widening_single_r():
    assert support_widening(7, [1.4]) == [(1.4, 89)]


# ------------------------------------------------------ slice proportionality

def test_slice_proportionality_report_fields():
    rep = slice_proportionality(SqueezedNumberState(7, 1.4))
    assert rep.n_points > 100
    assert 0.0 <= rep.variation <= 1.0
    assert rep.ratio_min >= 0.0


def test_slice_proportionality_rescaled_map_tracks_much_better():
    direct = direct_map_ratio(SqueezedNumberState(7, 1.4))
    rescaled = slice_proportionality(SqueezedNumberState(7, 1.4))
    # under the direct map the ratio even hits zero inside the window;
    # the rescaled map keeps it bounded away from zero
    assert direct.ratio_min < 1e-6 * direct.ratio_max
    assert rescaled.ratio_min > 0.05 * rescaled.ratio_max
    assert rescaled.variation < direct.variation
