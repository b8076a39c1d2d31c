"""Tests for coefficient-array series arithmetic and generating-function extraction."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab.fock_oracle import default_dim, oracle_amplitude
from squeezelab.genfun import (exp_series, extract_amplitude, extract_element,
                               identity_kernel, photon_number_kernel, series,
                               series_mul, transformed_number_kernel)
from squeezelab.squeezed_number import (NonConvergenceError,
                                        SqueezedNumberState,
                                        coherent_amplitude, fock_amplitude,
                                        momentum_wf, position_wf)

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
    for n in (3.9, 3.0, "3"):
        with pytest.raises(ValueError, match="integer"):
            extract_amplitude("fock", n, st)
    assert extract_amplitude("fock", np.int64(3), st) == extract_amplitude("fock", 3, st)


def test_extract_fock_overflow_raises_package_error():
    st = SqueezedNumberState(7, 1.4)
    for n in (279, 400):
        with pytest.raises(NonConvergenceError, match=f"n={n} \\| m=7, r=1.4"):
            extract_amplitude("fock", n, st)


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
