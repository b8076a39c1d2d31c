"""Tests for the truncated-basis matrix-exponential oracle: the column
oracle behind every amplitude, and the dense matrix behind the operator
identities."""

import math

import numpy as np
import pytest

from squeezelab.fock_oracle import (TrustRegionError, bogoliubov_residual,
                                    build_squeeze, default_dim, oracle_amplitude,
                                    trusted_dim)
from squeezelab.squeezed_number import SqueezedNumberState, fock_amplitude


def test_build_squeeze_identity_at_r_zero():
    s = build_squeeze(0.0, 64)
    assert np.allclose(s.entries, np.eye(64), atol=1e-15)


def test_build_squeeze_rejects_tiny_dim():
    with pytest.raises(ValueError):
        build_squeeze(0.5, 1)
    with pytest.raises(TrustRegionError):
        build_squeeze(2.5, 64)  # e^{-2r}/3 leaves no trusted block


def test_vacuum_column_matches_squeezed_vacuum_law():
    # |<n|0,r>|^2 = n!/((n/2)!^2 2^n) tanh^n r / cosh r on every row the
    # column oracle returns
    r = 1.0
    ns = list(range(0, default_dim(0, r) // 2, 2))
    got = oracle_amplitude(ns, 0, r)
    for n, amp in zip(ns, got):
        want = (math.factorial(n) / (math.factorial(n // 2) ** 2 * 2 ** n)
                * math.tanh(r) ** n / math.cosh(r))
        assert amp ** 2 == pytest.approx(want, abs=1e-9)


def test_unitarity_on_trusted_block():
    s = build_squeeze(1.0, 256)
    gram = s.entries.T @ s.entries
    block = gram[: s.trusted, : s.trusted]
    assert np.abs(block - np.eye(s.trusted)).max() < 1e-10


@pytest.mark.parametrize("r,dim", [(0.8, 200), (1.4, 600)])
def test_dense_squeeze_matches_oracle_columns(r, dim):
    # expm and expm_multiply share the per-parity generator, so a slip in
    # how either interleaves the parity blocks shows up here; the columns
    # come from their default (larger) basis, since at dim itself the edge
    # rule refuses the upper trusted columns
    s = build_squeeze(r, dim)
    cols = oracle_amplitude(np.arange(dim // 2)[:, None], np.arange(s.trusted), r)
    assert np.abs(s.entries[:dim // 2, :s.trusted] - cols).max() < 1e-13


def test_oracle_amplitude_trivials():
    for nm in (0, 3, 7):
        assert oracle_amplitude(nm, nm, 0.0) == pytest.approx(1.0, abs=1e-12)
    assert oracle_amplitude(1, 0, 0.9) == 0.0  # parity
    # broadcasting n against m gives the same numbers as scalar calls
    grid = oracle_amplitude(np.arange(4)[:, None], [0, 3], 0.9)
    assert grid.shape == (4, 2)
    for n in range(4):
        for j, m in enumerate((0, 3)):
            assert grid[n, j] == oracle_amplitude(n, m, 0.9, dim=default_dim(3, 0.9))


def test_oracle_amplitude_independent_of_global_rng():
    # expm_multiply's norm estimate draws from numpy's legacy global generator
    n = np.arange(default_dim(7, 1.4) // 2)
    columns = []
    for seed in (0, 25):
        np.random.seed(seed)
        before = np.random.get_state()
        columns.append(oracle_amplitude(n, 7, 1.4))
        after = np.random.get_state()
        assert before[0] == after[0] and np.array_equal(before[1], after[1])
        assert before[2:] == after[2:]
    assert np.array_equal(columns[0], columns[1])


def test_oracle_amplitude_matches_closed_form_spec_point():
    got = oracle_amplitude(11, 7, 1.4)
    want = fock_amplitude(11, SqueezedNumberState(7, 1.4))
    assert got == pytest.approx(want, abs=1e-8)


def test_oracle_amplitude_outside_trusted_block_raises():
    with pytest.raises(TrustRegionError, match="dim // 2"):
        oracle_amplitude(380, 0, 1.4, dim=400)  # row in the upper half
    with pytest.raises(TrustRegionError, match=r"m = \[12\]"):
        oracle_amplitude(0, 12, 1.4, dim=300)  # column reaches the edge
    with pytest.raises(ValueError):
        oracle_amplitude(-1, 0, 0.5)


def test_trusted_block_is_dim_stable_under_doubling():
    # columns that pass the edge rule do not move when the basis doubles
    ms = np.arange(13)
    for r, dim in ((0.8, 300), (1.4, 900)):
        ns = np.arange(dim // 2)[:, None]
        s1 = oracle_amplitude(ns, ms, r, dim)
        s2 = oracle_amplitude(ns, ms, r, 2 * dim)
        assert np.abs(s1 - s2).max() < 1e-13


@pytest.mark.parametrize("m,r", [(60, 1.0), (100, 0.5)])
def test_column_oracle_matches_eigenvector_at_large_m(m, r):
    n = np.arange(default_dim(m, r) // 2)
    got = oracle_amplitude(n, m, r)
    want = fock_amplitude(n, SqueezedNumberState(m, r))
    assert np.abs(got - want).max() < 1e-12


def test_trusted_dim_scales_down_with_squeezing():
    assert trusted_dim(600, 1.4) < trusted_dim(600, 0.5) <= math.floor(0.8 * 600)
    # the default dim heuristic always keeps the requested index trusted
    for m in (0, 7, 12, 40):
        for r in (0.0, 0.8, 1.4, 2.0):
            assert trusted_dim(default_dim(m, r), r) > m


def test_bogoliubov_residual_zero_squeeze():
    assert bogoliubov_residual(0.0, 64) < 1e-12


@pytest.mark.parametrize("r,dim", [(0.8, 200), (1.4, 600)])
def test_bogoliubov_residual_on_trusted_interior(r, dim):
    assert bogoliubov_residual(r, dim) < 1e-8


def test_bogoliubov_residual_decays_with_dim():
    # convergence study: fixed block, growing basis
    block = 40
    r1 = bogoliubov_residual(0.8, 200, block=block)
    r2 = bogoliubov_residual(0.8, 400, block=block)
    assert r1 > 1e-10     # columns near 40 still feel the dim-200 edge (5e-10)
    assert r2 < 1e-8      # but not the dim-400 one (6e-15)
    assert r2 < r1


def test_bogoliubov_residual_validation():
    with pytest.raises(ValueError):
        bogoliubov_residual(0.5, 4)
    with pytest.raises(ValueError):
        bogoliubov_residual(0.5, 64, block=100)


def test_number_operator_eigenrelation_in_squeezed_basis():
    # N_b S e_m = m S e_m with N_b = S a^dag a S^dag from the same matrices
    r, dim = 0.9, 300
    s = build_squeeze(r, dim).entries
    num = np.diag(np.arange(float(dim)))
    nb = s @ num @ s.T
    interior = build_squeeze(r, dim).trusted
    for m in range(13):
        resid = nb @ s[:, m] - m * s[:, m]
        assert np.linalg.norm(resid[:interior]) < 1e-7
