"""Tests for the truncated-basis oracle: the column
oracle behind every amplitude, and the dense matrix behind the operator
identities."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import squeezelab
from squeezelab import fock_oracle as fo
from squeezelab.fock_oracle import (TrustRegionError, _bessel_j, bogoliubov_residual,
                                    build_squeeze, default_dim, oracle_amplitude,
                                    trusted_dim)
from squeezelab.squeezed_number import SqueezedNumberState, fock_amplitude


def _expm_squeeze(r, dim):
    """Dense S by scipy's scaling-and-squaring exponential of each parity
    block of the oracle's generator: a second algorithm beside the
    Chebyshev propagator that build_squeeze runs."""
    entries = np.zeros((dim, dim))
    for p in (0, 1):
        g = fo._generator(r, dim, p)
        entries[p::2, p::2] = expm(np.diag(g, 1) - np.diag(g, -1))
    return entries


def test_build_squeeze_identity_at_r_zero():
    s = build_squeeze(0.0, 64)
    assert np.allclose(s.entries, np.eye(64), atol=1e-15)


def test_build_squeeze_rejects_tiny_dim():
    with pytest.raises(ValueError):
        build_squeeze(0.5, 1)
    with pytest.raises(TrustRegionError):
        build_squeeze(2.5, 64)  # dim e^{-2|r|}/2 leaves no trusted block


@pytest.mark.parametrize("r", [0.5, 1.4, 2.5, -2.5])
def test_build_squeeze_names_least_dim(r):
    # the trusted block holds two rows once dim e^{-2|r|}/2 >= 2, so the
    # message names ceil(4 e^{2|r|}): 11, 66 and 594 here
    with pytest.raises(TrustRegionError, match="need dim >= ") as exc:
        build_squeeze(r, 4)
    least = int(str(exc.value).rsplit(">= ", 1)[1])
    assert build_squeeze(r, least).trusted == 2
    with pytest.raises(TrustRegionError):
        build_squeeze(r, least - 1)


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
    # one propagator on both sides: the dense S in one stage at dim, the
    # columns staged on their default (larger) basis, since at dim itself
    # the edge rule refuses the upper trusted columns; a slip in how
    # either builds or interleaves the parity blocks shows up here, and
    # test_dense_squeeze_matches_expm compares two algorithms
    s = build_squeeze(r, dim)
    cols = oracle_amplitude(np.arange(dim // 2)[:, None], np.arange(s.trusted), r)
    assert np.abs(s.entries[:dim // 2, :s.trusted] - cols).max() < 1e-13


# every (r, dim) at which the tests build a dense S; measured 5.2e-15 on
# the trusted block and 8.5e-13 over the whole matrix, where the
# truncation edge makes both algorithms round differently
@pytest.mark.parametrize("r,dim", [(0.0, 64), (0.8, 200), (-0.8, 200), (1.0, 256), (0.9, 300),
                                   (1.4, 600), (0.8, 220), (-0.8, 220), (1.0, 220), (1.5, 220),
                                   (0.8, 300), (1.5, 300), (1.1, 300), (0.4, 300),
                                   (-1.2, 300)])
def test_dense_squeeze_matches_expm(r, dim):
    s = build_squeeze(r, dim)
    diff = np.abs(s.entries - _expm_squeeze(r, dim))
    assert diff[:s.trusted, :s.trusted].max() < 2e-14
    assert diff.max() < 4e-12


def _terms(r, dim, p):
    """Chebyshev terms of one propagation of the parity-p block."""
    g = fo._generator(r, dim, p)
    return _bessel_j(float(np.convolve(np.abs(g), [1.0, 1.0]).max())).size


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
    # whole columns too: at the odd default dim 315 above, the odd block is
    # a row shorter; 316 is even, and at 320 the two blocks of the last
    # stage (r/9 each) need different numbers of Chebyshev terms
    assert _terms(0.1, 320, 0) != _terms(0.1, 320, 1)
    for dim in (316, 320):
        n = np.arange(dim // 2)
        grid = oracle_amplitude(n[:, None], [0, 3], 0.9, dim)
        for j, m in enumerate((0, 3)):
            assert np.all(grid[:, j] == oracle_amplitude(n, m, 0.9, dim))


@pytest.mark.parametrize("r", [1e-300, 1e-100, -1e-100, 1e-61, -1e-70])
def test_tiny_squeeze_gives_the_identity(r):
    # below rho = 2e-17 the propagator is the identity in floats; Miller's
    # recurrence for J_k(rho) would overflow there (2k/rho past 1e58)
    n = np.arange(8)
    assert np.array_equal(oracle_amplitude(n[:, None], n, r), np.eye(8))
    assert oracle_amplitude(0, 0, r) == 1.0
    assert bogoliubov_residual(r, 64) < 1e-12
    assert np.array_equal(build_squeeze(r, 64).entries, np.eye(64))


def test_oracle_amplitude_independent_of_global_rng():
    # guard: the columns must neither read nor move numpy's legacy global
    # generator (the Chebyshev propagator draws no random numbers)
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


def test_column_oracle_loads_no_scipy():
    # the columns, the ladder residual and the dense S are numpy only
    src = str(Path(squeezelab.__file__).resolve().parents[1])
    code = ("import sys; from squeezelab import fock_oracle as fo; "
            "fo.oracle_amplitude(3, 7, 1.4); fo.bogoliubov_residual(0.8, 200); "
            "fo.build_squeeze(0.8, 200); "
            "print([m for m in sys.modules if m.startswith('scipy')])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


def test_oracle_amplitude_matches_closed_form_spec_point():
    got = oracle_amplitude(11, 7, 1.4)
    want = fock_amplitude(11, SqueezedNumberState(7, 1.4))
    assert got == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("r", [1e-13, 5e-13, -5e-13])
@pytest.mark.parametrize("m", [0, 1, 5, 12])
def test_tiny_squeeze_column_matches_the_oracle(m, r):
    # the Jacobi column runs its recurrence at every r, however small:
    # the rows differ from the oracle's by at most 6.5e-24 here
    n = np.arange(30)
    got = fock_amplitude(n, SqueezedNumberState(m, r))
    assert np.abs(got - oracle_amplitude(n, m, r, dim=80)).max() < 1e-22


@pytest.mark.parametrize("r", [400.0, -400.0, math.nan, math.inf, -math.inf])
def test_oracle_refuses_a_squeeze_past_the_limit(r):
    # the one |r| limit of every route, checked before any basis is sized
    for call in (lambda: default_dim(3, r), lambda: trusted_dim(100, r),
                 lambda: build_squeeze(r, 64), lambda: oracle_amplitude(1, 3, r),
                 lambda: oracle_amplitude(1, 3, r, dim=80),
                 lambda: bogoliubov_residual(r, 64), lambda: bogoliubov_residual(r, 64, 8)):
        with pytest.raises(ValueError, match="exceeds 354.891"):
            call()


def test_oracle_amplitude_refuses_non_integer_indices():
    for n, m in ((5.0, 7), (5, 7.0), (np.array([1.0, 3.0]), 7)):
        with pytest.raises(ValueError, match="integers"):
            oracle_amplitude(n, m, 1.4)
    assert oracle_amplitude(np.int32(5), np.int64(7), 1.4) == oracle_amplitude(5, 7, 1.4)
    # an 8-bit dtype must not reach the generator's index bounds, where
    # np.arange overflowed
    value = oracle_amplitude(3, 7, 1.4)
    for dtype in (np.int8, np.uint8):
        assert oracle_amplitude(3, dtype(7), 1.4) == value
        assert oracle_amplitude(dtype(3), 7, 1.4) == value


def test_oracle_amplitude_outside_trusted_block_raises():
    with pytest.raises(TrustRegionError, match="dim // 2"):
        oracle_amplitude(380, 0, 1.4, dim=400)  # row in the upper half
    with pytest.raises(TrustRegionError, match=r"m = \[12\]"):
        oracle_amplitude(0, 12, 1.4, dim=300)  # column reaches the edge
    with pytest.raises(ValueError):
        oracle_amplitude(-1, 0, 0.5)


@pytest.mark.parametrize("n,m,r,want", [(0, 0, 2.0, 1.0 / math.sqrt(math.cosh(2.0))),
                                         (1, 1, 0.5, math.cosh(0.5) ** -1.5)],
                         ids=["m0-r2.0", "m1-r0.5"])
@pytest.mark.parametrize("dim", range(1, 17))
def test_oracle_amplitude_at_tiny_dim_raises_or_is_right(n, m, r, want, dim):
    # below 16 rows the top eighth of the basis is empty or of one parity;
    # the edge must still catch a column that reaches it
    try:
        got = oracle_amplitude(n, m, r, dim=dim)
    except (TrustRegionError, ValueError):
        return
    assert got == pytest.approx(want, abs=1e-10)


def test_trusted_block_is_dim_stable_under_doubling():
    # columns that pass the edge rule do not move when the basis doubles
    ms = np.arange(13)
    for r, dim in ((0.8, 300), (1.4, 900)):
        ns = np.arange(dim // 2)[:, None]
        s1 = oracle_amplitude(ns, ms, r, dim)
        s2 = oracle_amplitude(ns, ms, r, 2 * dim)
        assert np.abs(s1 - s2).max() < 1e-13


@pytest.mark.parametrize("rho", [30.0, 2027.2, 5000.0])
def test_bessel_coefficients_match_mpmath(rho):
    # Miller's recurrence keeps about 1e-16; scipy.special.jv is off by
    # 3.3e-14 at (k, rho) = (212, 2027.2) and 5.5e-14 at (681, 5000)
    mpmath = pytest.importorskip("mpmath")
    j = _bessel_j(rho)
    size = j.size
    assert abs(j[-1]) > 1e-17
    # every k at small rho; at large rho (a slow mpmath call each) six
    # spread over the range and the last two
    ks = np.arange(size) if rho < 100 else np.unique(
        np.r_[np.linspace(0, size - 1, 6).astype(int), size - 2])
    with mpmath.workdps(20):
        err = max(abs(float(mpmath.besselj(int(k), rho, maxprec=20000)) - j[k]) for k in ks)
        tail = max(abs(float(mpmath.besselj(k, rho, maxprec=20000)))
                   for k in (size, size + 1, size + 5))
    assert err <= 1e-15
    assert tail < 1e-17


# r < 0 makes the generator's off-diagonal negative, so the propagator's
# spectral bound must take its magnitude
@pytest.mark.parametrize("m,r", [(60, 1.0), (100, 0.5), (7, -1.4), (40, -1.0)])
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


@pytest.mark.parametrize("r,dim", [(0.8, 200), (1.4, 600), (-0.8, 200)])
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


def _one_stage_columns(r, dim, ms):
    """Full-height columns S|m> by one Chebyshev propagation at dim."""
    cols = np.zeros((dim, len(ms)))
    cols[ms, np.arange(len(ms))] = 1.0
    fo._squeeze_columns(r, cols, np.asarray(ms) % 2)
    return cols


@pytest.mark.parametrize("ms,r", [((40,), 2.0), (range(13), 1.4), (range(13), -1.4)])
def test_staged_columns_match_one_stage(ms, r):
    # S(r) = S(r/K)^K on bases that grow with the squeeze gives the column
    # of one propagation on the final basis
    ms = list(ms)
    dim = default_dim(max(ms), r)
    staged = oracle_amplitude(np.arange(dim // 2)[:, None], ms, r, dim)
    assert np.abs(staged - _one_stage_columns(r, dim, ms)[:dim // 2]).max() < 1e-14


@pytest.mark.parametrize("r", [0.05, 0.3, -0.3, 0.8, 1.4, -1.4, 2.0])
def test_staging_adds_no_raise(r):
    # at the smallest dim (on a grid of 4% steps) where the one-stage column
    # passes the edge rule, and above it, the staged oracle passes too
    def passes(m, dim):
        col = _one_stage_columns(r, dim, [m])[:, 0]
        return np.abs(col[dim - dim // 8:]).max(initial=0.0) <= fo.EDGE_TOL

    for m in (0, 1, 3, 7, 12, 20, 40):
        grid = [m + 16]
        while grid[-1] < default_dim(m, r):
            grid.append(math.ceil(1.04 * grid[-1]))
        assert passes(m, grid[-1])
        lo, hi = -1, len(grid) - 1
        while hi - lo > 1:  # bisect for the first passing grid point
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if passes(m, grid[mid]) else (mid, hi)
        for dim in (grid[hi], math.ceil(1.1 * grid[hi]), math.ceil(1.5 * grid[hi])):
            oracle_amplitude(0, m, r, dim)


def test_staged_column_does_half_the_work(monkeypatch):
    # a count, not a timing: Chebyshev terms times block rows summed over
    # the stages of the (40, 2) column, against one propagation at its dim
    bessel, generator = fo._bessel_j, fo._generator
    terms, rows = [], []

    def counted_bessel(rho):
        terms.append(bessel(rho).size)
        return bessel(rho)

    def counted_generator(r, dim, p):
        rows.append((dim - p + 1) // 2)
        return generator(r, dim, p)

    monkeypatch.setattr(fo, "_bessel_j", counted_bessel)
    monkeypatch.setattr(fo, "_generator", counted_generator)
    oracle_amplitude(0, 40, 2.0)
    staged = sum(k * n for k, n in zip(terms, rows, strict=True))
    g = generator(2.0, default_dim(40, 2.0), 0)
    one_stage = bessel(float(np.convolve(np.abs(g), [1.0, 1.0]).max())).size * (g.size + 1)
    assert len(terms) > 1 and staged <= one_stage / 2
