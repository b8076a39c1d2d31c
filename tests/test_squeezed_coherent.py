"""Tests for the squeezed coherent closed forms against the matrix oracle."""

import cmath
import math

import numpy as np
import pytest
from scipy.integrate import quad

from squeezelab.fock_oracle import build_squeeze, oracle_amplitude
from squeezelab.squeezed_coherent import (fock_amplitude_scs, momentum_wf_scs,
                                          position_wf_scs, position_variance,
                                          wave_packet_center)


def coherent_vector(beta: complex, dim: int) -> np.ndarray:
    """Number-basis expansion of |beta>, log-safe."""
    out = np.zeros(dim, dtype=complex)
    if beta == 0:
        out[0] = 1.0
        return out
    for n in range(dim):
        lm = n * math.log(abs(beta)) - 0.5 * math.lgamma(n + 1) - 0.5 * abs(beta) ** 2
        out[n] = cmath.exp(complex(lm, n * cmath.phase(complex(beta))))
    return out


def overlap_coherent(alpha: complex, beta: complex, r: float) -> complex:
    """<alpha | beta, r>: coherent bra against squeezed coherent ket.

    cosh^{-1/2}(r) exp(-|alpha|^2/2 - |beta|^2/2
                       - tanh(r) alpha*^2 / 2 + tanh(r) beta^2 / 2
                       + alpha* beta / cosh(r))
    """
    alpha = complex(alpha)
    beta = complex(beta)
    t = math.tanh(r)
    ch = math.cosh(r)
    expo = (-0.5 * abs(alpha) ** 2 - 0.5 * abs(beta) ** 2
            - 0.5 * t * alpha.conjugate() ** 2 + 0.5 * t * beta ** 2
            + alpha.conjugate() * beta / ch)
    return cmath.exp(expo) / math.sqrt(ch)


def scs_vector(beta: complex, r: float, dim: int = 220) -> np.ndarray:
    """Oracle construction: squeeze the coherent expansion with the matrix
    exponential."""
    s = build_squeeze(r, dim)
    return s.entries @ coherent_vector(beta, dim)


# ------------------------------------------------------------------ overlap

def test_overlap_vacuum_with_itself():
    assert overlap_coherent(0, 0, 0.0) == pytest.approx(1.0)


def test_overlap_identical_coherent_states():
    assert overlap_coherent(1, 1, 0.0) == pytest.approx(1.0)


def test_overlap_vacuum_squeezed_vacuum():
    got = overlap_coherent(0, 0, 1.4)
    assert got == pytest.approx(1.0 / math.sqrt(math.cosh(1.4)), abs=1e-12)
    # cross-check against the matrix-exponential route
    assert got == pytest.approx(oracle_amplitude(0, 0, 1.4), abs=1e-10)


def test_overlap_matches_oracle_generic():
    alpha, beta, r = 0.7 - 0.2j, 0.4 + 0.9j, 0.8
    v = scs_vector(beta, r)
    want = np.vdot(coherent_vector(alpha, len(v)), v)
    assert overlap_coherent(alpha, beta, r) == pytest.approx(want, abs=1e-10)


# ------------------------------------------------------- photon amplitudes

def test_fock_amplitude_scs_vacuum():
    assert fock_amplitude_scs(0, 0, 1.0) == pytest.approx(1 / math.sqrt(math.cosh(1.0)))


def test_fock_amplitude_scs_odd_vanishes_for_squeezed_vacuum():
    assert fock_amplitude_scs(1, 0, 1.0) == 0.0


def test_fock_amplitude_scs_frozen_oracle_value():
    # S(0.8) applied to |beta=0.5>, third component, from the expm oracle
    got = fock_amplitude_scs(2, 0.5, 0.8)
    assert got.imag == pytest.approx(0.0, abs=1e-15)
    assert got.real == pytest.approx(-0.30737445440884803, abs=1e-12)


def test_fock_amplitude_scs_r_zero_is_coherent_expansion():
    beta = 0.6 - 0.3j
    for n in (0, 1, 4):
        want = (beta ** n / math.sqrt(math.factorial(n))
                * math.exp(-0.5 * abs(beta) ** 2))
        assert fock_amplitude_scs(n, beta, 0.0) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("beta,r", [(0.5, 0.8), (2.0, 1.5), (-1.3 + 0.9j, 1.1),
                                    (1.0j, 0.4), (0.7, -1.2)])
def test_fock_amplitude_scs_vs_oracle(beta, r):
    v = scs_vector(beta, r, dim=300)
    for n in (0, 1, 2, 5, 12, 25):
        assert fock_amplitude_scs(n, beta, r) == pytest.approx(complex(v[n]), abs=1e-10)


@pytest.mark.parametrize("beta,r", [(0.0, 1.5), (2.0, 1.5), (1.2 + 1.1j, 1.0),
                                    (2.0, -1.5)])
def test_fock_amplitude_scs_normalization(beta, r):
    # sum |<n|beta,r>|^2 = 1, truncated where the tail is < 1e-14
    total = 0.0
    tail = 0
    n = 0
    while n < 3000:
        p = abs(fock_amplitude_scs(n, beta, r)) ** 2
        total += p
        tail = tail + 1 if p < 1e-16 else 0
        if tail > 40:
            break
        n += 1
    assert total == pytest.approx(1.0, abs=1e-10)


def test_eigenrelation_of_transformed_annihilation():
    # (cosh r a + sinh r a^dag) |beta,r> = beta |beta,r> on the interior
    beta, r, dim = 0.9, 0.8, 320
    v = np.array([fock_amplitude_scs(n, beta, r) for n in range(dim)])
    ns = np.arange(1, dim)
    av = np.zeros(dim, dtype=complex)
    av[:-1] = np.sqrt(ns) * v[1:]          # a |v>
    adv = np.zeros(dim, dtype=complex)
    adv[1:] = np.sqrt(ns) * v[:-1]         # a^dag |v>
    resid = math.cosh(r) * av + math.sinh(r) * adv - beta * v
    interior = slice(0, int(0.6 * dim))
    assert np.linalg.norm(resid[interior]) < 1e-8


# ------------------------------------------------------ quadrature packets

def test_position_wf_ground_state_at_origin():
    assert position_wf_scs(0.0, 0.0, 0.0) == pytest.approx(math.pi ** -0.25, rel=1e-14)


def test_position_wf_peak_value():
    r = 0.5
    var_q = position_variance(r)
    q0 = wave_packet_center(1.0, r)
    assert position_wf_scs(q0, 1.0, r) == pytest.approx((2 * math.pi * var_q) ** -0.25)
    assert var_q == pytest.approx(math.exp(-1.0) / 2)


def test_position_wf_normalized():
    val, _ = quad(lambda q: position_wf_scs(q, 1.0, 0.5) ** 2, -20, 20, limit=300)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_momentum_wf_trivials():
    assert momentum_wf_scs(0.0, 0.0, 0.0) == pytest.approx(math.pi ** -0.25)
    got = momentum_wf_scs(0.0, 1.0, 1.0)
    var_q = position_variance(1.0)
    assert got == pytest.approx((2 * var_q / math.pi) ** 0.25)
    assert got.imag == 0.0 and got.real > 0.0


def test_momentum_wf_is_fourier_transform():
    beta, r, p = 0.3, 0.9, 0.7
    re, _ = quad(lambda q: position_wf_scs(q, beta, r) * math.cos(p * q), -30, 30, limit=400)
    im, _ = quad(lambda q: -position_wf_scs(q, beta, r) * math.sin(p * q), -30, 30, limit=400)
    ft = complex(re, im) / math.sqrt(2 * math.pi)
    assert abs(ft - momentum_wf_scs(p, beta, r)) < 1e-8


def test_quadrature_wfs_take_arrays():
    beta, r = 0.3, -0.7
    x = np.linspace(-4.0, 4.0, 17)
    assert np.array_equal(position_wf_scs(x, beta, r),
                          [position_wf_scs(float(v), beta, r) for v in x])
    assert np.array_equal(momentum_wf_scs(x, beta, r),
                          [momentum_wf_scs(float(v), beta, r) for v in x])
    assert position_wf_scs(x.reshape(1, -1), beta, r).shape == (1, 17)


@pytest.mark.parametrize("r", [0.8, -0.8])
def test_fock_amplitude_scs_takes_arrays(r):
    beta = np.array([0.0, 0.7 - 0.4j, -1.3 + 0.9j, 2.1j, 1.5, -0.05])
    for n in (0, 5, 40):
        want = [fock_amplitude_scs(n, complex(b), r) for b in beta]
        np.testing.assert_allclose(fock_amplitude_scs(n, beta, r), want, rtol=1e-14, atol=0)
    assert fock_amplitude_scs(3, beta.reshape(2, 3), r).shape == (2, 3)


def test_fock_amplitude_scs_array_r_matches_scalar_r_calls():
    # r per point, r = 0 and both signs among them: each point reads the
    # bits of a call at its own scalar r
    rng = np.random.default_rng(7)
    beta = rng.uniform(-3.0, 3.0, 600) + 1j * rng.uniform(-3.0, 3.0, 600)
    rs = [0.0, 0.3, 0.973, 1.4, -0.8, -2.0]
    r = np.resize(rs, beta.shape)
    for n in (0, 1, 5, 12, 40):
        got = fock_amplitude_scs(n, beta, r)
        for value in rs:
            assert np.array_equal(got[r == value], fock_amplitude_scs(n, beta[r == value], value))
    grid = fock_amplitude_scs(3, beta[:5, None], np.array(rs))
    assert grid.shape == (5, len(rs))
    for j, value in enumerate(rs):
        assert np.array_equal(grid[:, j], fock_amplitude_scs(3, beta[:5], value))
    with pytest.raises(ValueError, match="354.891"):
        fock_amplitude_scs(1, beta[:2], np.array([0.5, -400.0]))


def test_quadrature_wfs_reject_complex_displacement():
    with pytest.raises(ValueError):
        position_wf_scs(0.1, 0.5 + 0.2j, 0.3)
    with pytest.raises(ValueError):
        momentum_wf_scs(0.1, 1j, 0.3)


@pytest.mark.parametrize("r", [400.0, -400.0])
def test_squeezed_coherent_functions_refuse_squeeze_past_float_range(r):
    for call in (lambda: fock_amplitude_scs(1, 0.5, r), lambda: position_wf_scs(0.1, 0.5, r),
                 lambda: momentum_wf_scs(0.1, 0.5, r)):
        with pytest.raises(ValueError, match="354.891"):
            call()


def test_quadrature_variances_from_distributions():
    for r in (0.0, 0.5, 1.4):
        vq, _ = quad(lambda q: q * q * position_wf_scs(q, 0.0, r) ** 2,
                     -14 * math.exp(-r), 14 * math.exp(-r), limit=300)
        vp, _ = quad(lambda p: p * p * abs(momentum_wf_scs(p, 0.0, r)) ** 2,
                     -14 * math.exp(r), 14 * math.exp(r), limit=300)
        assert vq == pytest.approx(0.5 * math.exp(-2 * r), abs=1e-8)
        assert vp == pytest.approx(0.5 * math.exp(2 * r), abs=1e-8)
