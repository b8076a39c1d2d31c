"""Tests for coefficient-array series arithmetic and generating-function extraction."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab.fock_oracle import default_dim, oracle_amplitude
from squeezelab.genfun import (amplitude_block, element_block, exp_series,
                               extract_amplitude, extract_element, fock_block,
                               identity_kernel, photon_number_kernel, series,
                               series_mul, transformed_number_kernel)
from squeezelab.squeezed_number import (SqueezedNumberState, coherent_amplitude,
                                        fock_amplitude, momentum_wf, position_wf)

R_SET = (0.3, 0.973, 1.4)


# ------------------------------------------------------------- series algebra

def test_exp_of_zero_series():
    s = exp_series(np.zeros(6, dtype=complex))
    assert s[0] == 1.0
    assert np.all(s[1:] == 0.0)


def test_exp_of_linear_term_is_exponential():
    s = exp_series(series({1: 1.0}, 5))
    want = [1, 1, 0.5, 1 / 6, 1 / 24]
    assert np.allclose(s, want, rtol=1e-15)


def test_exp_of_quadratic_term():
    t = 0.37
    s = exp_series(series({2: t / 2}, 7))
    want = [1, 0, t / 2, 0, t * t / 8, 0, t ** 3 / 48]
    assert np.allclose(s, want, rtol=1e-15)


def test_exp_handles_constant_term():
    s = exp_series(series({0: 0.3, 1: 1.0}, 4))
    scale = math.exp(0.3)
    assert np.allclose(s, [scale, scale, scale / 2, scale / 6], rtol=1e-14)


@pytest.mark.parametrize("power, shape", [(-1, 4), ((0, -1), (3, 3)), ((-2, 1), (3, 3))])
def test_series_refuses_a_negative_power(power, shape):
    with pytest.raises(ValueError, match="power must be nonnegative"):
        series({power: 5.0}, shape)


def test_series_multiplication_truncates():
    a = series({0: 1, 1: 1}, 3)  # 1 + b
    b = series({2: 3, 3: 5}, 3)  # 3 b^2; b^3 lies past the truncation
    prod = series_mul(a, b)
    assert prod.tolist() == [0j, 0j, 3 + 0j]


complex_coeff = st.builds(complex,
                          st.floats(min_value=-2, max_value=2, allow_nan=False),
                          st.floats(min_value=-2, max_value=2, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(complex_coeff, complex_coeff, complex_coeff, complex_coeff)
def test_exp_sum_rule_random_quadratics(a1, a2, b1, b2):
    # exp(A) exp(B) = exp(A + B) as series, coefficientwise
    a = series({1: a1, 2: a2}, 13)
    b = series({1: b1, 2: b2}, 13)
    lhs = series_mul(exp_series(a), exp_series(b))
    rhs = exp_series(a + b)
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() < 1e-12 * scale


def test_biseries_exp_matches_product_structure():
    # exp(u + v) = exp(u) exp(v) for commuting monomials in both variables
    u = series({(1, 0): 0.7}, (7, 7))
    v = series({(0, 1): -0.4}, (7, 7))
    lhs = exp_series(u + v)
    rhs = series_mul(exp_series(u), exp_series(v))
    for i in range(7):
        for j in range(7):
            assert lhs[i, j] == pytest.approx(rhs[i, j], abs=1e-14)


def test_biseries_exp_of_cross_term():
    s = exp_series(series({(1, 1): 1.0}, (6, 6)))
    for i in range(6):
        for j in range(6):
            want = 1.0 / math.factorial(i) if i == j else 0.0
            assert s[i, j] == pytest.approx(want, abs=1e-15)


def exp_series_dense(p):
    """Reference: exp_series with the recurrence summing every k, the
    zero p_k included."""
    p = np.asarray(p, dtype=complex)
    g = np.zeros_like(p)
    if p.ndim == 1:
        g[0], mul = cmath.exp(p[0]), np.multiply
    else:
        g[0], mul = exp_series_dense(p[0]), series_mul
    for n in range(1, len(p)):
        g[n] = sum(mul(k * p[k], g[n - k]) for k in range(1, n + 1)) / n
    return g


# coefficients with exact zeros of both signs among them, so that whole
# powers (or whole rows in beta) vanish
gappy = st.one_of(st.just(0.0), st.just(-0.0),
                  st.floats(min_value=-3.0, max_value=3.0, allow_subnormal=False))
gappy_complex = st.builds(complex, gappy, gappy)


@settings(max_examples=150, deadline=None)
@given(st.lists(gappy_complex, min_size=1, max_size=14),
       st.lists(st.booleans(), min_size=14, max_size=14))
def test_exp_series_sparse_sum_is_the_dense_sum_1d(coeffs, drop):
    p = np.array([0.0 if gone else c for c, gone in zip(coeffs, drop)], dtype=complex)
    assert exp_series(p).tobytes() == exp_series_dense(p).tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(gappy_complex, min_size=5, max_size=5), min_size=1, max_size=7),
       st.lists(st.booleans(), min_size=7, max_size=7))
def test_exp_series_sparse_sum_is_the_dense_sum_2d(rows, drop):
    p = np.array([[0.0] * 5 if gone else row for row, gone in zip(rows, drop)], dtype=complex)
    assert exp_series(p).tobytes() == exp_series_dense(p).tobytes()


def test_exp_series_sparse_sum_on_the_kernels():
    # the one-term exponents of the Fock kernel and the identity kernel
    for p in (series({2: 0.5 * math.tanh(-1.4)}, 14), series({(1, 1): 1.0}, (9, 9)),
              series({1: 0.3 - 2.0j, 2: -0.5}, 12)):
        assert exp_series(p).tobytes() == exp_series_dense(p).tobytes()


# --------------------------------------------------------- single extraction

def test_extract_fock_r_zero_is_delta():
    for m in range(5):
        st = SqueezedNumberState(m, 0.0)
        for n in range(5):
            got = extract_amplitude("fock", n, st)
            assert got == pytest.approx(1.0 if n == m else 0.0, abs=1e-14)


@pytest.mark.parametrize("r", R_SET)
def test_extract_fock_matches_closed_form(r):
    for m in range(13):
        st = SqueezedNumberState(m, r)
        for n in range(13):
            got = extract_amplitude("fock", n, st)
            assert abs(got - fock_amplitude(n, st)) < 1e-8
            assert abs(got.imag) < 1e-14


def test_extract_fock_refuses_a_non_integer_index():
    st = SqueezedNumberState(7, 1.4)
    for n in (3.9, 3.0, "3", True):
        with pytest.raises(ValueError, match="integer"):
            extract_amplitude("fock", n, st)
    assert extract_amplitude("fock", np.int64(3), st) == extract_amplitude("fock", 3, st)


def test_extract_fock_far_rows_match_jacobi():
    # the z recurrence stays in range where a log-magnitude alternating sum
    # of the same coefficient overflows float64 (from n = 272 at (12, 1.4))
    st = SqueezedNumberState(7, 1.4)
    for n in (279, 401, 421):
        got = extract_amplitude("fock", n, st)
        assert got.real == pytest.approx(fock_amplitude(n, st), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("m, bound", [(20, 5e-14), (30, 2e-11)])
def test_extract_fock_column_past_the_tested_range(m, bound):
    # measured 4.7e-15 at (20, 1) and 1.8e-12 at (30, 1) over n < 200
    st = SqueezedNumberState(m, 1.0)
    ns = np.arange(200)
    got = np.array([extract_amplitude("fock", int(n), st).real for n in ns])
    assert np.abs(got - fock_amplitude(ns, st)).max() < bound


@pytest.mark.parametrize("r", [1e-13, -1e-13])
def test_extract_fock_tiny_squeeze_matches_oracle(r):
    # measured 1.3e-15; treating |r| < 1e-12 as r = 0 would leave 5.7e-13
    ns = np.arange(13)
    for m in ns:
        st = SqueezedNumberState(int(m), r)
        got = np.array([extract_amplitude("fock", int(n), st).real for n in ns])
        assert np.abs(got - oracle_amplitude(ns, m, r)).max() < 1e-14


@pytest.mark.parametrize("kind, value", [
    ("position", math.nan), ("position", math.inf), ("momentum", -math.inf),
    ("momentum", math.nan), ("coherent", complex(math.nan, 0.0)),
    ("coherent", complex(0.5, math.inf)), ("coherent", math.inf)])
def test_extract_refuses_a_non_finite_value(kind, value):
    with pytest.raises(ValueError, match=f"{kind} value must be finite"):
        extract_amplitude(kind, value, SqueezedNumberState(3, 0.5))


@pytest.mark.parametrize("r", R_SET)
def test_extract_position_matches_closed_form(r):
    for m in (0, 1, 7, 12):
        st = SqueezedNumberState(m, r)
        for q in (-1.5, 0.0, 0.3):
            got = extract_amplitude("position", q, st)
            assert abs(got - position_wf(q, st)) < 1e-9


def test_extract_position_spec_point():
    st = SqueezedNumberState(7, 1.4)
    got = extract_amplitude("position", 0.3, st)
    assert abs(got - position_wf(0.3, st)) < 1e-9


@pytest.mark.parametrize("r", R_SET)
def test_extract_momentum_matches_closed_form(r):
    for m in (0, 1, 6, 12):
        st = SqueezedNumberState(m, r)
        for p in (-4.0, 0.0, 1.1):
            got = extract_amplitude("momentum", p, st)
            assert abs(got - momentum_wf(p, st)) < 1e-9


@pytest.mark.parametrize("r", R_SET)
def test_extract_coherent_matches_closed_form(r):
    for m in (0, 1, 6, 12):
        st = SqueezedNumberState(m, r)
        for alpha in (0.4j, 0.7 - 0.2j, -1.0):
            got = extract_amplitude("coherent", alpha, st)
            assert abs(got - coherent_amplitude(alpha, st)) < 1e-9


def test_extract_coherent_spec_point():
    st = SqueezedNumberState(6, 1.0)
    got = extract_amplitude("coherent", 0.4j, st)
    assert abs(got - coherent_amplitude(0.4j, st)) < 1e-9


def test_extract_unknown_kind_rejected():
    with pytest.raises(ValueError):
        extract_amplitude("wigner", 0.0, SqueezedNumberState(1, 0.5))


def test_extraction_is_linear_in_the_kernel():
    # coefficient extraction over a sum of kernels is the sum of extractions
    def k1(na, nb):
        return exp_series(series({(1, 1): 1.0}, (na + 1, nb + 1)))

    def k2(na, nb):
        return series_mul(series({(1, 1): 1.0}, (na + 1, nb + 1)), k1(na, nb))

    def ksum(na, nb):
        return k1(na, nb) + k2(na, nb)

    for n, m in ((0, 0), (2, 2), (3, 1)):
        lhs = extract_element(n, m, ksum)
        rhs = extract_element(n, m, k1) + extract_element(n, m, k2)
        assert lhs == rhs  # exact: same floating operations, summed coefficients


# --------------------------------------------------------- double extraction

@pytest.mark.parametrize("n, m, message", [
    (2.0, 1, "row index n must be an integer"), (1, 2.0, "column index m must be an integer"),
    (True, 1, "row index n must be an integer"), (0, False, "column index m must be an integer"),
    ("1", 1, "row index n must be an integer"), (-1, 0, "row index n must be nonnegative"),
    (0, -1, "column index m must be nonnegative")])
def test_extract_element_refuses_a_bad_index(n, m, message):
    with pytest.raises(ValueError, match=message):
        extract_element(n, m, identity_kernel)


def test_extract_element_takes_numpy_integers():
    assert extract_element(np.int64(2), np.int32(2), identity_kernel) == \
        extract_element(2, 2, identity_kernel)


def test_extract_element_identity_is_orthonormality():
    for n in range(7):
        for m in range(7):
            got = extract_element(n, m, identity_kernel)
            assert got == pytest.approx(1.0 if n == m else 0.0, abs=1e-12)


def test_extract_element_transformed_number_operator():
    for n in range(7):
        for m in range(7):
            got = extract_element(n, m, transformed_number_kernel)
            assert got == pytest.approx(float(m) if n == m else 0.0, abs=1e-12)


def test_extract_element_photon_number_vs_oracle():
    r = 0.8
    weights = np.arange(default_dim(8, r))
    s = oracle_amplitude(weights[:, None], np.arange(9), r, 2 * len(weights))
    sandwich = s.T @ (weights[:, None] * s)
    worst = 0.0
    for n in range(9):
        for m in range(9):
            got = extract_element(n, m, photon_number_kernel(r))
            worst = max(worst, abs(got - sandwich[n, m]))
    assert worst < 1e-8


def test_extract_element_photon_number_analytic():
    # ladder algebra gives the tridiagonal-in-steps-of-two exact form
    r = 0.6
    sh, ch = math.sinh(r), math.cosh(r)
    for n in range(7):
        for m in range(7):
            got = extract_element(n, m, photon_number_kernel(r))
            if n == m:
                want = ch * ch * m + sh * sh * (m + 1)
            elif n == m + 2:
                want = -sh * ch * math.sqrt((m + 1) * (m + 2))
            elif n == m - 2:
                want = -sh * ch * math.sqrt(m * (m - 1))
            else:
                want = 0.0
            assert got == pytest.approx(want, abs=1e-12)


# ------------------------------------------------------------------- blocks

BLOCK_R_SET = (0.3, 0.973, 1.4, -0.8, 0.0)
VALUES = {"position": (-1.1, 0.0, 0.45), "momentum": (-2.0, 0.3),
          "coherent": (0.0, 0.7 - 0.4j, 1.2j)}


def _same(a, b):
    """Bit for bit, sign of zero included."""
    return np.array_equal(np.atleast_1d(a).view(np.int64), np.atleast_1d(b).view(np.int64))


@pytest.mark.parametrize("r", BLOCK_R_SET)
def test_block_entries_do_not_depend_on_the_block_size(r):
    fock = fock_block(12, r, 12)
    for n in range(13):
        for m in range(13):
            assert _same(fock_block(n, r, m), fock[:n + 1, :m + 1])
        assert _same(amplitude_block("fock", n, r, 12), fock[n].astype(complex))
    for kind, values in VALUES.items():
        for value in values:
            block = amplitude_block(kind, value, r, 12)
            for m in range(13):
                assert _same(amplitude_block(kind, value, r, m), block[:m + 1])
                assert _same(extract_amplitude(kind, value, SqueezedNumberState(m, r)), block[m])
    for kernel in (identity_kernel, transformed_number_kernel, photon_number_kernel(r)):
        block = element_block(8, 8, kernel)
        for n in range(9):
            for m in range(9):
                assert _same(element_block(n, m, kernel), block[:n + 1, :m + 1])
                assert _same(extract_element(n, m, kernel), block[n, m])


@pytest.mark.parametrize("r", BLOCK_R_SET)
def test_blocks_match_the_closed_forms_oracle_and_jacobi_column(r):
    # within the limits of the verify suites: 1e-8, 1e-10 for the r-free kernels
    ns = np.arange(13)
    fock = fock_block(12, r, 12)
    jacobi = np.column_stack([fock_amplitude(ns, SqueezedNumberState(int(m), r)) for m in ns])
    assert np.abs(fock - jacobi).max() < 1e-8
    assert np.abs(fock - oracle_amplitude(ns[:, None], ns, r)).max() < 1e-8
    for kind, closed_form in (("position", position_wf), ("momentum", momentum_wf),
                              ("coherent", coherent_amplitude)):
        for value in VALUES[kind]:
            block = amplitude_block(kind, value, r, 12)
            want = [closed_form(value, SqueezedNumberState(m, r)) for m in range(13)]
            assert np.abs(block - np.array(want)).max() < 1e-8
    eye = np.eye(9)
    assert np.abs(element_block(8, 8, identity_kernel) - eye).max() < 1e-10
    assert np.abs(element_block(8, 8, transformed_number_kernel)
                  - eye * np.arange(9)).max() < 1e-10
    num = np.arange(default_dim(8, r))
    s = oracle_amplitude(num[:, None], np.arange(9), r, 2 * len(num))
    assert np.abs(element_block(8, 8, photon_number_kernel(r))
                  - s.T @ (num[:, None] * s)).max() < 1e-8


@pytest.mark.parametrize("r", [400.0, 800.0, -800.0])
def test_series_routes_refuse_a_squeeze_past_float_range(r):
    # position raised OverflowError at 400; fock, momentum and coherent
    # returned about 1e-261 there, and momentum 0j at 800
    calls = [(fock_block, 2, r, 1), (photon_number_kernel, r)]
    for kind, value in (("fock", 1), ("position", 0.3), ("momentum", 0.3), ("coherent", 0.5j)):
        calls += [(extract_amplitude, kind, value, SqueezedNumberState(1, r)),
                  (amplitude_block, kind, value, r, 1)]
    for call, *args in calls:
        with pytest.raises(ValueError, match="exceeds 354.891"):
            call(*args)


def test_blocks_refuse_a_bad_index():
    with pytest.raises(ValueError, match="row index n must be an integer"):
        fock_block(2.0, 0.5, 3)
    with pytest.raises(ValueError, match="column index m must be nonnegative"):
        fock_block(2, 0.5, -1)
    with pytest.raises(ValueError, match="state index m must be an integer"):
        amplitude_block("position", 0.3, 0.5, True)
    with pytest.raises(ValueError, match="column index m must be an integer"):
        element_block(2, 1.0, identity_kernel)
