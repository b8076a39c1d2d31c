"""Tests for the area-of-overlap approximation of the Husimi slice."""

import math

import numpy as np
import pytest

from squeezelab.semiclassical import (ClassicallyForbiddenError, approx_p,
                                      area_weight, classical_boundary,
                                      classical_depth, fit_scale,
                                      interference_phase, overlap_comparison)


def test_boundary_value():
    assert classical_boundary(7, 1.4) == pytest.approx(math.exp(1.4) * math.sqrt(7.5))


def test_area_weight_rejected_at_boundary():
    m, r = 7, 1.4
    y = classical_boundary(m, r)
    with pytest.raises(ClassicallyForbiddenError):
        area_weight(m, r, y)
    with pytest.raises(ClassicallyForbiddenError):
        area_weight(m, r, y * 1.2)


def test_area_weight_desk_value():
    # independent desk evaluation of exp(-2 * 7.5 / e^{2.8}) / sqrt(15 pi)
    want = math.exp(-15.0 * math.exp(-2.8)) / math.sqrt(15.0 * math.pi)
    got = area_weight(7, 1.4, 0.0)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(0.058510972229423884, rel=1e-12)


def test_area_weight_monotone_in_y():
    m, r = 7, 1.4
    ys = np.linspace(0.0, 0.995 * classical_boundary(m, r), 400)
    vals = [area_weight(m, r, y) for y in ys]
    assert all(b > a for a, b in zip(vals, vals[1:]))  # grows toward the caustic


def test_phase_limits():
    m, r = 7, 1.4
    # y -> 0 limit
    assert interference_phase(m, r, 0.0) == pytest.approx(
        (m + 0.5) * math.pi / 2 - math.pi / 4)
    # approaching the boundary the phase tends to -pi/4
    y = classical_boundary(m, r) * (1 - 1e-12)
    assert interference_phase(m, r, y) == pytest.approx(-math.pi / 4, abs=1e-4)


def test_phase_continuous_and_decreasing():
    m, r = 7, 1.4
    ys = np.linspace(1e-6, 0.999 * classical_boundary(m, r), 5000)
    ph = np.array([interference_phase(m, r, y) for y in ys])
    steps = np.abs(np.diff(ph))
    assert steps.max() < 0.05           # no jumps at this resolution
    assert np.all(np.diff(ph) < 0.0)    # strictly decreasing on the scan


def test_phase_has_at_least_three_interference_nodes():
    m, r = 7, 1.4
    ys = np.linspace(1e-6, 0.999 * classical_boundary(m, r), 20000)
    c = np.cos([interference_phase(m, r, y) for y in ys])
    flips = int(np.sum(np.sign(c[:-1]) * np.sign(c[1:]) < 0))
    assert flips >= 3


def test_approx_p_nonnegative_and_vanishes_at_nodes():
    m, r = 7, 1.4
    ys = np.linspace(1e-3, 0.99 * classical_boundary(m, r), 500)
    vals = [approx_p(m, r, y) for y in ys]
    assert min(vals) >= 0.0
    # where cos(phi) = 0 the approximation is exactly zero up to roundoff
    y = _first_phase_node(m, r)
    assert approx_p(m, r, y) < 1e-20


@pytest.mark.parametrize("m, r", [(7, 1.4), (0, 0.0), (12, 2.0), (3, -0.7)])
def test_approx_p_array_matches_scalar_calls(m, r):
    ys = np.linspace(0.0, 0.999 * classical_boundary(m, r), 1001)
    vec = approx_p(m, r, ys)
    one = np.array([approx_p(m, r, float(y)) for y in ys])
    assert vec.shape == ys.shape
    assert np.all(np.abs(vec - one) <= 1e-15 * np.abs(one))


def test_one_forbidden_point_in_an_array_raises():
    m, r = 7, 1.4
    ys = np.linspace(0.0, 0.9 * classical_boundary(m, r), 50)
    ys[17] = 1.01 * classical_boundary(m, r)
    for fn in (area_weight, interference_phase, approx_p):
        with pytest.raises(ClassicallyForbiddenError, match=repr(float(ys[17]))):
            fn(m, r, ys)


def test_fit_scale_least_squares_and_zero_curve():
    approx = np.array([1.0, 2.0, 0.5])
    assert fit_scale(approx, 3.0 * approx) == pytest.approx(3.0, rel=1e-15)
    assert math.isnan(fit_scale(np.zeros(3), approx))


def _first_phase_node(m, r, lo=1e-6, hi=None):
    hi = hi or 0.999 * classical_boundary(m, r)
    f = lambda y: math.cos(interference_phase(m, r, y))
    a, b = lo, hi
    ya = f(a)
    grid = np.linspace(lo, hi, 4000)
    for g1, g2 in zip(grid[:-1], grid[1:]):
        if f(g1) * f(g2) < 0:
            a, b = g1, g2
            break
    for _ in range(200):
        c = 0.5 * (a + b)
        if f(a) * f(c) <= 0:
            b = c
        else:
            a = c
    return 0.5 * (a + b)


def test_overlap_comparison_aligns_with_exact_slice():
    cmp = overlap_comparison(7, 1.4)
    assert len(cmp.approx_maxima) == len(cmp.exact_maxima) == 3
    assert cmp.max_offset < 0.1
    assert cmp.scale > 0.0


def test_overlap_comparison_diverges_at_the_caustic():
    cmp = overlap_comparison(7, 1.4)
    assert cmp.diverges_at_edge
    assert cmp.edge_ratio > 1.5


def test_params_validation():
    for fn in (classical_depth, area_weight, interference_phase, approx_p):
        with pytest.raises(ValueError, match="photon index must be nonnegative"):
            fn(-1, 0.5, 0.0)


def test_classical_depth_vanishes_at_the_boundary():
    m, r = 7, 1.4
    assert classical_depth(m, r, 0.0) == 7.5
    ys = np.array([0.5, 1.0, 1.5]) * classical_boundary(m, r)
    assert classical_depth(m, r, ys) == pytest.approx([5.625, 0.0, -9.375], abs=1e-12)
