"""Tests for the squeezed-number-state closed forms."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import quad

from squeezelab import squeezed_number
from squeezelab.squeezed_number import (NonConvergenceError,
                                        SqueezedNumberState,
                                        coherent_amplitude,
                                        coherent_amplitude_grid, fock_amplitude,
                                        momentum_wf, photon_distribution,
                                        position_wf, q_function, q_grid,
                                        q_slice_imag)
from squeezelab.tables import GridSpec


def closed_form_p_m0(n, r):
    """|<n|0,r>|^2 for even n: n mixing term of the squeezed vacuum."""
    return (math.factorial(n) / (math.factorial(n // 2) ** 2 * 2 ** n)
            * math.tanh(r) ** n / math.cosh(r))


def closed_form_p_m1(n, r):
    """|<n|1,r>|^2 for odd n."""
    return (math.factorial(n) / (math.factorial((n - 1) // 2) ** 2 * 2 ** (n - 1))
            * math.tanh(r) ** (n - 1) / math.cosh(r) ** 3)


# ------------------------------------------------------------ fock_amplitude

def test_fock_amplitude_identity_at_r_zero():
    for m in (0, 1, 5):
        st = SqueezedNumberState(m, 0.0)
        for n in range(8):
            assert fock_amplitude(n, st) == (1.0 if n == m else 0.0)


def test_fock_amplitude_refuses_non_integer_indices():
    st = SqueezedNumberState(7, 1.4)
    for n in (5.0, 3.9, np.array([1.0, 3.0]), [1, 2.5], True):
        with pytest.raises(ValueError, match="integer"):
            fock_amplitude(n, st)
    assert fock_amplitude(np.int32(5), st) == fock_amplitude(5, st)
    assert np.array_equal(fock_amplitude(np.array([3, 5], dtype=np.uint8), st),
                          fock_amplitude([3, 5], st))


def test_fock_amplitude_parity_zero_is_structural():
    st = SqueezedNumberState(2, 0.7)
    assert fock_amplitude(3, st) == 0.0


def test_fock_amplitude_squeezed_vacuum_closed_form():
    st = SqueezedNumberState(0, 1.2)
    ns = np.array([0, 2, 6, 40, 3])
    amps = fock_amplitude(ns, st)
    assert amps.shape == ns.shape and amps[-1] == 0.0
    for n, a in zip(ns.tolist(), amps):
        assert abs(a - fock_amplitude(n, st)) <= 1e-15
        if n % 2 == 0:
            assert a ** 2 == pytest.approx(closed_form_p_m0(n, 1.2), rel=1e-12)


def test_fock_amplitude_m1_closed_form():
    st = SqueezedNumberState(1, 1.0)
    for n in (1, 3, 9, 31):
        assert fock_amplitude(n, st) ** 2 == pytest.approx(closed_form_p_m1(n, 1.0), rel=1e-12)


def test_fock_amplitude_frozen_oracle_value():
    # expm oracle at dim 400: entry (4, 2) of the squeeze matrix for r=1.1
    got = fock_amplitude(4, SqueezedNumberState(2, 1.1))
    assert got == pytest.approx(-0.21360557312970227, abs=1e-12)


def test_fock_amplitude_negative_r_transpose_relation():
    # <n|S(r)|m> = <m|S(-r)|n>
    for (n, m) in [(0, 2), (4, 2), (7, 11), (3, 1)]:
        a = fock_amplitude(n, SqueezedNumberState(m, 0.9))
        b = fock_amplitude(m, SqueezedNumberState(n, -0.9))
        assert a == pytest.approx(b, abs=1e-14)


# ------------------------------------------------------ photon_distribution

def test_photon_distribution_delta_at_r_zero():
    table = photon_distribution(SqueezedNumberState(0, 0.0), 1e-12)
    assert len(table) == 1
    assert table.coords[0] == 0 and table.probs[0] == 1.0


def test_photon_distribution_m7_r14_maxima_rows():
    table = photon_distribution(SqueezedNumberState(7, 1.4), 1e-10)
    p = table.probs
    for n in (1, 11, 37, 89):
        left = p[n - 2] if n >= 2 else 0.0
        assert p[n] > left and p[n] > p[n + 2]
    assert p.sum() == pytest.approx(1.0, abs=1e-9)
    assert np.all(p[::2] == 0.0)  # opposite parity rows are exact zeros


def test_photon_distribution_m1_matches_closed_form():
    table = photon_distribution(SqueezedNumberState(1, 1.0), 1e-10)
    for n in range(1, min(len(table), 25), 2):
        assert table.probs[n] == pytest.approx(closed_form_p_m1(n, 1.0), rel=1e-12)


def test_photon_distribution_mass_and_meta():
    st = SqueezedNumberState(3, 0.9)
    table = photon_distribution(st, 1e-11)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)
    assert table.meta.parity == 1
    assert table.meta.truncation["cutoff"] == table.coords[-1]


def test_photon_distribution_nonconvergence_error():
    with pytest.raises(NonConvergenceError):
        photon_distribution(SqueezedNumberState(7, 1.4), 1e-10, hard_cap=30)
    # a cap below the parity leaves no row at all
    with pytest.raises(NonConvergenceError, match="its mass through n = 0 is 1 - 1$"):
        photon_distribution(SqueezedNumberState(1, 0.0), hard_cap=0)


@pytest.mark.parametrize("r, cap", [(0.0, -5), (0.5, -5), (0.5, 2.5), (0.5, np.int64(-5))])
def test_photon_distribution_rejects_a_cap_that_is_no_nonnegative_integer(r, cap):
    # r = 0 and r > 0 take different paths to the cutoff; the check comes first
    with pytest.raises(ValueError, match="hard_cap must be a nonnegative integer"):
        photon_distribution(SqueezedNumberState(2, r), hard_cap=cap)


def test_photon_distribution_takes_a_numpy_integer_cap():
    want = photon_distribution(SqueezedNumberState(7, 1.4), hard_cap=10000)
    got = photon_distribution(SqueezedNumberState(7, 1.4), hard_cap=np.int32(10000))
    assert np.array_equal(got.probs, want.probs)
    assert got.meta.truncation == want.meta.truncation


@pytest.mark.parametrize("r", [5.0, -5.0, 21.0, 400.0])
def test_cutoff_window_past_the_cap_raises_before_any_solve(r, monkeypatch):
    # past |r| = 4.26 the window ceil(10 e^{2|r|}) alone is wider than the
    # default cap's 50 001 same-parity rows; at 21 and 400 it is past the
    # range of a C long and of a float
    def no_solve(*args):
        raise AssertionError("a block of the column was computed")
    monkeypatch.setattr(squeezed_number, "_column", no_solve)
    with pytest.raises(NonConvergenceError, match="did not converge within the cutoff cap"):
        photon_distribution(SqueezedNumberState(3, r))


@pytest.mark.parametrize("r", [5.0, -5.0, 21.0])
def test_fock_amplitude_past_the_table_cap(r):
    # fock_amplitude builds no table, so it answers where the table's
    # window cannot fit under the cap: <1|3,r> = (tanh r / 2) sqrt 6 cosh^{-3/2} r
    expected = 0.5 * math.tanh(r) * math.sqrt(6.0) * math.cosh(r) ** -1.5
    assert fock_amplitude(1, SqueezedNumberState(3, r)) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("r", [400.0, -400.0])
def test_phase_space_functions_refuse_squeeze_past_float_range(r):
    # e^{2|r|} overflows past R_MAX = 354.89; the photon table keeps its
    # own cutoff rule (see above), the rest raise ValueError
    st = SqueezedNumberState(1, r)
    for call in (lambda: fock_amplitude(1, st),
                 lambda: position_wf(0.5, st), lambda: momentum_wf(0.5, st),
                 lambda: q_slice_imag([0.0, 3.0], st), lambda: q_function(1j, st)):
        with pytest.raises(ValueError, match="354.891"):
            call()
    # just inside the bound every Gaussian factor is still finite
    inside = SqueezedNumberState(1, math.copysign(354.8, r))
    assert np.isfinite(position_wf([0.0, 1e-160], inside)).all()
    assert np.isfinite(q_slice_imag([0.0, 1.0], inside)).all()


def test_cutoff_window_at_the_cap_edge():
    # hard_cap 2000 leaves 1001 even rows: the window is 995 rows at r = 2.3,
    # where the rule still fires, and 1015 at r = 2.31, where it cannot
    table = photon_distribution(SqueezedNumberState(0, 2.3), hard_cap=2000)
    assert table.meta.truncation["window"] == 995
    assert table.meta.truncation["cutoff"] == 1988
    with pytest.raises(NonConvergenceError):
        photon_distribution(SqueezedNumberState(0, 2.31), hard_cap=2000)


@pytest.mark.parametrize("m,r", [(7, 1.4), (40, 2.0), (300, 1.5), (3, -0.9)])
def test_fock_amplitude_squares_are_the_photon_probabilities(m, r):
    # rows up to the cutoff come from the block photon_distribution reads
    st = SqueezedNumberState(m, r)
    table = photon_distribution(st)
    assert np.array_equal(fock_amplitude(table.coords, st) ** 2, table.probs)


@pytest.mark.parametrize("r", [1e-3, -1e-3, 1e-5, 1e-7, 1e-9, -1e-9, 1e-12, 1e-13])
@pytest.mark.parametrize("m", [0, 1, 3])
def test_fock_amplitude_small_squeeze_is_near_delta(m, r):
    # the tail falls far below eps^2 here, which must not keep the cutoff
    # rule from firing
    amps = fock_amplitude(np.arange(20), SqueezedNumberState(m, r))
    delta = np.arange(20) == m
    assert np.abs(amps - delta).max() < 2.0 * abs(r) * math.sqrt(m + 2)
    table = photon_distribution(SqueezedNumberState(m, r))
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert table.meta.truncation["cutoff"] < 40


def fock_amplitude_mp(n, m, r, mp):
    """<n|m,r> from the finite sum over k of the common parity of n and m,

        sqrt(m! n!) / cosh^{(n+m+1)/2}(r)
            * sum_k (sinh r / 2)^{(n+m-2k)/2} (-1)^{(n-k)/2}
                    / (k! ((m-k)/2)! ((n-k)/2)!),

    in mpmath at a precision 30 digits beyond the cancellation the sum
    itself shows (60 digits at least)."""
    dps = 60
    while True:
        with mp.workdps(dps):
            rr = mp.mpf(r)
            half_sh = mp.sinh(rr) / 2
            terms = [half_sh ** ((n + m - 2 * k) // 2) * (-1) ** ((n - k) // 2)
                     / (mp.factorial(k) * mp.factorial((m - k) // 2)
                        * mp.factorial((n - k) // 2))
                     for k in range(n % 2, min(n, m) + 1, 2)]
            total = mp.fsum(terms)
            lost = int(mp.ceil(mp.log10(mp.fsum(abs(t) for t in terms) / abs(total))))
            if lost + 30 <= dps:
                return float(total * mp.sqrt(mp.factorial(m) * mp.factorial(n))
                             / mp.cosh(rr) ** (mp.mpf(n + m + 1) / 2))
        dps = lost + 40


@pytest.mark.parametrize("m,r", [(20, 2.0), (40, 2.0), (60, 1.0), (100, 0.5),
                                 (300, 1.5), (40, -1.0)])
def test_photon_precision_envelope(m, r):
    # the finite sum cancels by up to ~70 digits on these states; the
    # recurrence must keep signed amplitudes to 1e-9 relative on every
    # sampled row of the table with P >= 1e-10
    mp = pytest.importorskip("mpmath")
    st = SqueezedNumberState(m, r)
    table = photon_distribution(st)
    assert table.probs.sum() == pytest.approx(1.0, abs=1e-9)
    cutoff = table.meta.truncation["cutoff"]
    ns = m % 2 + 2 * np.unique(np.linspace(0, cutoff // 2, 60).astype(int))
    ref = np.array([fock_amplitude_mp(int(n), m, r, mp) for n in ns])
    keep = ref ** 2 >= 1e-10
    assert keep.sum() >= 25
    ns, ref = ns[keep], ref[keep]
    assert np.max(np.abs(fock_amplitude(ns, st) - ref) / np.abs(ref)) <= 1e-9
    assert np.max(np.abs(table.probs[ns] - ref ** 2) / ref ** 2) <= 2e-9
    # the Jacobi recurrence measured at most 2.7e-13 here, at (300, 1.5)
    assert np.max(np.abs(fock_amplitude(ns, st) - ref) / np.abs(ref)) <= 2e-12


def fock_amplitude_hyp_mp(n, m, r, mp):
    """<n|m,r> from its terminating hypergeometric form: with tau = tanh r,
    p = m % 2, j = m // 2 and n = m + 2d >= m,

        (-tau/2)^d sqrt(n!/m!) / (d! cosh^{p+1/2} r)
            * 2F1(-j, d + j + p + 1/2; d + 1; tau^2),

    and rows n < m by <n|S(r)|m> = <m|S(-r)|n>.  mpmath's hyp2f1 raises its
    working precision through the series' cancellation by itself, and costs
    milliseconds where the finite sum of :func:`fock_amplitude_mp` takes
    seconds (m = 1000 and 2000)."""
    if n < m:
        n, m, r = m, n, -r
    p, j, d = m % 2, m // 2, (n - m) // 2
    with mp.workdps(30):
        rr = mp.mpf(r)
        tau = mp.tanh(rr)
        pref = ((-tau / 2) ** d * mp.sqrt(mp.factorial(n) / mp.factorial(m))
                / (mp.factorial(d) * mp.cosh(rr) ** (p + mp.mpf(1) / 2)))
        return float(pref * mp.hyp2f1(-j, d + j + p + mp.mpf(1) / 2, d + 1, tau * tau))


def test_hypergeometric_reference_is_the_finite_sum():
    mp = pytest.importorskip("mpmath")
    for m, r, n in ((64, 3.0, 10), (64, 3.0, 64), (64, 3.0, 900), (7, -1.4, 3), (300, 0.01, 310)):
        assert fock_amplitude_hyp_mp(n, m, r, mp) == pytest.approx(
            fock_amplitude_mp(n, m, r, mp), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("m,r,bound", [
    # worst relative errors measured on these rows: 4.6e-13, 2.4e-13, 4.9e-13
    # and 9.7e-13; bound about five times the largest
    (12, 4.0, 5e-12), (64, 3.0, 5e-12), (1000, 1.0, 5e-12), (2000, 0.5, 5e-12),
    # near r = 0 the recurrence runs in tau^2 itself: measured 6.2e-15, 5.2e-15
    (600, 1e-7, 5e-14), (300, 0.01, 5e-14),
])
def test_photon_amplitudes_beyond_the_reference_states(m, r, bound):
    # relative error of every sampled row from n = 0 to a tenth past the
    # cutoff, the rows next to n = m included; a reference below 1e-300
    # leaves float range, and the amplitude there must be as small
    mp = pytest.importorskip("mpmath")
    st = SqueezedNumberState(m, r)
    cutoff = photon_distribution(st).meta.truncation["cutoff"]
    j = m // 2
    ks = np.unique(np.concatenate([np.linspace(0, 0.55 * cutoff, 30).astype(int),
                                   [max(j - 1, 0), j, j + 1]]))
    ns = m % 2 + 2 * ks
    assert ns.max() > 1.05 * cutoff
    ref = np.array([fock_amplitude_hyp_mp(int(n), m, r, mp) for n in ns])
    got = fock_amplitude(ns, st)
    normal = np.abs(ref) >= 1e-300
    assert np.max(np.abs(got - ref)[normal] / np.abs(ref[normal])) <= bound
    assert np.all(np.abs(got[~normal]) < 1e-299)


@pytest.mark.parametrize("m,r", [(600, 1e-7), (300, 0.01), (1, 1e-9)])
def test_diagonal_amplitude_keeps_its_digits_near_r_zero(m, r):
    # <m|m,r> = 1 - O(m r^2): the difference form about tau^2 = 0 carries
    # no drift with m (measured exact at (600, 1e-7), 1.9e-15 at (300, 0.01))
    mp = pytest.importorskip("mpmath")
    ref = fock_amplitude_hyp_mp(m, m, r, mp)
    assert fock_amplitude(m, SqueezedNumberState(m, r)) == pytest.approx(ref, rel=4e-15, abs=0.0)


@pytest.mark.parametrize("m", [0, 1])
def test_small_squeeze_tail_is_the_closed_form(m):
    # the tail of the squeezed vacuum and one-photon tables at r = 1e-7
    # falls to 1e-135; every row keeps 12 digits (P_14 = 2.095e-99 at m = 0)
    r = 1e-7
    table = photon_distribution(SqueezedNumberState(m, r))
    closed = closed_form_p_m0 if m == 0 else closed_form_p_m1
    for n in range(m, len(table), 2):
        assert table.probs[n] == pytest.approx(closed(n, r), rel=1e-12, abs=0.0)
    if m == 0:
        assert table.probs[14] == pytest.approx(2.095e-99, rel=1e-3, abs=0.0)


def test_fock_amplitude_rows_do_not_depend_on_the_block():
    st = SqueezedNumberState(40, 2.0)
    single = fock_amplitude(800, st)
    many = fock_amplitude(np.arange(5460), st)[800]
    table = photon_distribution(st)
    assert single == many
    assert abs(single) == math.sqrt(table.probs[800])
    assert single ** 2 == table.probs[800]


def column_expression_form(state, rows):
    """Reference: :func:`squeezed_number._column` with every step of the
    recurrence written as array expressions, a new array per operation."""
    m, r = state.m, state.r
    p, j = m % 2, m // 2
    if abs(r) < squeezed_number.R_EPS:
        col = np.zeros(rows)
        if j < rows:
            col[j] = 1.0
        return col
    tau = math.tanh(r)
    near_one = tau * tau < 0.25
    small = tau * tau if near_one else math.cosh(r) ** -2
    beta = p - 0.5
    d = np.arange(max(rows - j, j + 1), dtype=float)
    g, dg = np.ones_like(d), np.zeros_like(d)
    expo = np.zeros(d.shape, dtype=int)
    diag, diag_expo = np.empty(j), np.empty(j, dtype=int)
    for i in range(j):
        if i and i % 16 == 0:
            shift = np.frexp(np.maximum(np.abs(g), np.abs(dg)))[1]
            g, dg = np.ldexp(g, -shift), np.ldexp(dg, -shift)
            expo += shift
        diag[i], diag_expo[i] = g[j - i], expo[j - i]
        q = d + (i + p + 0.5)
        s = q + (i - 1.0)
        s2 = s + 2.0
        if near_one:
            den = q * (d + (i + 1.0))
            coef = (i * (i + beta)) * s2 / (s * den)
        else:
            den = q * (beta + i + 1.0)
            coef = i * (d + i) * s2 / (s * den)
        dg *= coef
        dg -= (s + 1.0) * s2 / den * small * g
        g += dg
    if near_one:
        anchor, upper_den = 1.0, np.arange(1.0, d[-1] + 1.0)
    else:
        anchor = (-1) ** j * (2 * j + 1) ** p * math.comb(2 * j, j) / 4 ** j
        upper_den = np.arange(1.0, d[-1] + 1.0) + j
    anchor *= math.cosh(r) ** -(p + 0.5)
    n_up = np.arange(m + 2.0, m + 2.0 * d[-1] + 1.0, 2.0)
    f, f_expo = squeezed_number._scaled_cumprod(
        anchor, -0.5 * tau * np.sqrt(n_up * (n_up - 1.0)) / upper_den)
    top = max(rows - j, 0)
    upper = np.ldexp(f[:top] * g[:top], f_expo[:top] + expo[:top])
    i = np.arange(j - 1.0, -1.0, -1.0)
    n_low = p + 2.0 * i + 2.0
    low_den = j - i if near_one else -(beta + 1.0 + i)
    f, f_expo = squeezed_number._scaled_cumprod(
        anchor, 0.5 * tau * np.sqrt(n_low * (n_low - 1.0)) / low_den)
    lower = np.ldexp(f[:0:-1] * diag, f_expo[:0:-1] + diag_expo)
    return np.concatenate((lower[:rows], upper))


# tau^2 = 1/4 at |r| = atanh(1/2) = 0.5493: the recurrence switches ends there
column_r = hst.one_of(
    hst.sampled_from([0.5493, -0.5493, 0.5494, -0.5494, 1e-7, -1e-7, 1.4, -2.0]),
    hst.floats(min_value=0.01, max_value=3.0).flatmap(
        lambda a: hst.sampled_from([a, -a])))


@settings(max_examples=80, deadline=None)
@given(m=hst.integers(min_value=0, max_value=300), r=column_r,
       rows=hst.integers(min_value=1, max_value=400))
def test_column_bit_identical_to_the_expression_form(m, r, rows):
    st = SqueezedNumberState(m, r)
    assert np.array_equal(squeezed_number._column(st, rows),
                          column_expression_form(st, rows))


@pytest.mark.parametrize("m,r,tail_eps", [
    # the precision-envelope states at the defaults
    (7, 1.4, 1e-10), (20, 2.0, 1e-10), (40, 2.0, 1e-10), (60, 1.0, 1e-10),
    (100, 0.5, 1e-10), (300, 1.5, 1e-10),
    # the states verify's oracle suite sizes its bases from, at tail 1e-14
    (12, 0.3, 1e-14), (12, 0.973, 1e-14), (12, 1.4, 1e-14), (60, 1.0, 1e-14),
    (100, 0.5, 1e-14), (40, 2.0, 1e-14),
])
def test_photon_table_is_one_block(m, r, tail_eps, monkeypatch):
    # the first block runs through the outer turning point and the tail
    # margin past it, so the cutoff rule fires on it
    calls = []
    column = squeezed_number._column
    monkeypatch.setattr(squeezed_number, "_column",
                        lambda *args: calls.append(args[1:]) or column(*args))
    st = SqueezedNumberState(m, r)
    table = photon_distribution(st, tail_eps)
    assert len(calls) == 1
    # and the table is the squares of one block through the cutoff
    rows = table.meta.truncation["cutoff"] // 2 + 1
    block = column(st, rows)
    assert np.array_equal(table.probs[m % 2::2], block ** 2)


def test_photon_table_from_the_cap_block(monkeypatch):
    # where the rule does not fire on the sized block (here its tail is
    # zeroed), one block through the cap follows, and no row depends on
    # the block it is in: the table is the plain one
    st = SqueezedNumberState(7, 1.4)
    plain = photon_distribution(st, hard_cap=2000)
    calls = []
    column = squeezed_number._column

    def short_first_block(state, rows):
        col = column(state, rows)
        if not calls:
            col[rows // 2:] = 0.0
        calls.append(rows)
        return col
    monkeypatch.setattr(squeezed_number, "_column", short_first_block)
    table = photon_distribution(st, hard_cap=2000)
    assert calls[1] == 1000 > calls[0] and len(calls) == 2  # n <= 1999 under the cap
    assert np.array_equal(table.probs, plain.probs) and table.meta == plain.meta


def test_fock_amplitude_is_one_column_from_row_0(monkeypatch):
    calls = []
    column = squeezed_number._column
    monkeypatch.setattr(squeezed_number, "_column",
                        lambda state, rows: calls.append(rows) or column(state, rows))

    def no_table(*args, **kwargs):
        raise AssertionError("fock_amplitude built a photon table")
    monkeypatch.setattr(squeezed_number, "photon_distribution", no_table)
    st = SqueezedNumberState(7, 1.4)
    ns = np.array([0, 3, 640, 9])
    amps = fock_amplitude(ns, st)
    assert calls == [(640 - 1) // 2 + 1]
    assert amps[0] == amps[-2] == 0.0
    assert np.array_equal(amps[[1, 3]], column(st, 5)[[1, 4]])
    fock_amplitude(0, st)  # no row of the parity: one row all the same
    assert calls[1:] == [1]


@pytest.mark.parametrize("m,r", [(7, 1.4), (300, 1.5), (1000, 1.0)])
def test_column_is_an_eigenvector_of_the_number_operator(m, r):
    # b = cosh(r) a + sinh(r) a^dagger annihilates the squeezed vacuum, so
    # b^dagger b |m,r> = m |m,r>; within the parity m % 2, b^dagger b is
    # tridiagonal (diagonal n cosh 2r + sinh^2 r, off-diagonal
    # sinh(2r)/2 sqrt((n+1)(n+2))).  The residual ||(T - m) x||_inf over the
    # table's rows measured 0.1, 2.0 and 3.1 eps times the largest diagonal
    # entry; bound 10
    st = SqueezedNumberState(m, r)
    cutoff = photon_distribution(st).meta.truncation["cutoff"]
    n = np.arange(m % 2, cutoff + 3, 2)
    x = fock_amplitude(n, st)
    diag = n * math.cosh(2.0 * r) + math.sinh(r) ** 2
    off = 0.5 * math.sinh(2.0 * r) * np.sqrt((n[:-1] + 1.0) * (n[:-1] + 2.0))
    tx = (diag - m) * x
    tx[:-1] += off * x[1:]
    tx[1:] += off * x[:-1]
    assert np.abs(tx[:-1]).max() <= 10 * np.finfo(float).eps * diag.max()


def test_photon_distribution_rejects_bad_tail():
    with pytest.raises(ValueError):
        photon_distribution(SqueezedNumberState(1, 0.5), 0.0)


def test_photon_distribution_tail_eps_floor():
    # a normalized float64 column cannot resolve a tail below 1e-14
    st = SqueezedNumberState(12, 3.0)
    with pytest.raises(ValueError, match="tail_eps"):
        photon_distribution(st, 1e-15)
    table = photon_distribution(st, 1e-14)
    assert table.meta.truncation["cumulative"] >= 1.0 - 1e-14


@pytest.mark.parametrize("r", [0.5, 1.2, 2.0])
def test_photon_distribution_mass_sweep_to_m12(r):
    for m in range(13):
        table = photon_distribution(SqueezedNumberState(m, r), 1e-11)
        assert abs(table.probs.sum() - 1.0) < 1e-9


# ------------------------------------------------------------- wave functions

def test_position_wf_ground_state():
    st = SqueezedNumberState(0, 0.0)
    for q in (-1.0, 0.0, 0.8):
        assert position_wf(q, st) == pytest.approx(
            math.pi ** -0.25 * math.exp(-q * q / 2), rel=1e-13)


def test_position_wf_node_at_origin_for_m1():
    for r in (0.0, 0.7, 1.4):
        assert position_wf(0.0, SqueezedNumberState(1, r)) == 0.0


def test_position_wf_squeezing_limit_matches_fock():
    # r -> 0 reduces to the plain oscillator eigenfunction
    st_eps = SqueezedNumberState(5, 1e-8)
    st_zero = SqueezedNumberState(5, 0.0)
    for q in (-2.2, 0.4, 1.9):
        assert abs(position_wf(q, st_eps) - position_wf(q, st_zero)) < 1e-6


def test_position_wf_normalized_m7_r14():
    st = SqueezedNumberState(7, 1.4)
    val, _ = quad(lambda q: position_wf(q, st) ** 2, -5, 5, limit=400)
    assert val == pytest.approx(1.0, abs=1e-10)


def test_momentum_wf_phase_and_trivials():
    got = momentum_wf(0.0, SqueezedNumberState(0, 0.5))
    assert got == pytest.approx(math.exp(-0.25) * math.pi ** -0.25)
    assert got.imag == 0.0


def test_momentum_wf_zeros_scale_with_stretch():
    # zeros of the density sit at e^r times the Hermite roots
    from scipy.special import roots_hermite
    st = SqueezedNumberState(7, 1.4)
    roots = np.sort(roots_hermite(7)[0]) * math.exp(1.4)
    for p in roots:
        assert abs(momentum_wf(p, st)) ** 2 < 1e-22


def test_momentum_wf_maxima_count_m7():
    st = SqueezedNumberState(7, 1.4)
    p = np.arange(-20, 20, 0.01 * math.exp(1.4))
    d = np.abs(momentum_wf(p, st)) ** 2
    count = sum(1 for i in range(1, len(p) - 1)
                if d[i] > d[i - 1] and d[i] > d[i + 1] and d[i] > 1e-6 * d.max())
    assert count == 8


def test_parseval_position_momentum():
    st = SqueezedNumberState(4, 1.1)
    iq, _ = quad(lambda q: position_wf(q, st) ** 2, -4, 4, limit=400)
    ip, _ = quad(lambda p: abs(momentum_wf(p, st)) ** 2, -32, 32, limit=400)
    assert iq == pytest.approx(1.0, abs=1e-9)
    assert ip == pytest.approx(1.0, abs=1e-9)


def test_fourier_consistency_momentum_vs_position():
    st = SqueezedNumberState(6, 1.3)
    lim = math.exp(-st.r) * 14
    for p in (0.0, 2.6, 7.0):
        re, _ = quad(lambda q: position_wf(q, st) * math.cos(p * q), -lim, lim, limit=400)
        im, _ = quad(lambda q: -position_wf(q, st) * math.sin(p * q), -lim, lim, limit=400)
        ft = complex(re, im) / math.sqrt(2 * math.pi)
        assert abs(ft - momentum_wf(p, st)) < 1e-7


def test_density_arrays_match_scalars():
    # one wave function serves scalars and arrays, values and densities alike
    st = SqueezedNumberState(3, 0.8)
    qs = np.array([-1.2, 0.0, 0.3, 2.0])
    for wf in (position_wf, momentum_wf):
        amps = wf(qs, st)
        assert amps.shape == qs.shape
        np.testing.assert_allclose(amps, [wf(float(q), st) for q in qs], rtol=1e-14)
    assert isinstance(position_wf(0.3, st), float)
    assert isinstance(momentum_wf(0.3, st), complex)


# ------------------------------------------------------------ coherent / Q

def test_coherent_amplitude_odd_m_vanishes_at_origin():
    assert coherent_amplitude(0, SqueezedNumberState(7, 1.1)) == 0.0


def test_coherent_amplitude_squeezed_vacuum_at_origin():
    got = coherent_amplitude(0, SqueezedNumberState(0, 0.9))
    assert got == pytest.approx(1 / math.sqrt(math.cosh(0.9)), abs=1e-14)


def test_coherent_amplitude_frozen_sum_oracle():
    # oracle: sum_n <alpha|n><n|m,r> truncated at tail below 1e-14
    got = coherent_amplitude(0.5 + 0.5j, SqueezedNumberState(4, 0.9))
    assert got == pytest.approx(0.2181412893609072 - 0.1017203053772636j, abs=1e-12)


@pytest.mark.parametrize("alpha,m,r", [(-0.8 + 0.3j, 5, 1.2), (1.1 - 0.6j, 4, -0.8)])
def test_coherent_amplitude_vs_fock_sum_generic(alpha, m, r):
    st = SqueezedNumberState(m, r)
    total = 0j
    for n in range(600):
        lm = (n * math.log(abs(alpha)) - 0.5 * math.lgamma(n + 1)
              - 0.5 * abs(alpha) ** 2)
        bra = cmath.exp(complex(lm, -n * cmath.phase(alpha)))
        total += bra * fock_amplitude(n, st)
    assert coherent_amplitude(alpha, st) == pytest.approx(total, abs=1e-11)


def test_q_function_trivials():
    assert q_function(0, SqueezedNumberState(7, 0.9)) == 0.0
    got = q_function(0, SqueezedNumberState(0, 1.4))
    assert got == pytest.approx(1 / (math.pi * math.cosh(1.4)), rel=1e-12)
    assert q_function(0, SqueezedNumberState(0, 0.0)) == pytest.approx(1 / math.pi)


def test_q_function_nonnegative_random_points():
    rng = np.random.default_rng(7)
    st = SqueezedNumberState(6, 1.0)
    for _ in range(50):
        alpha = complex(*rng.normal(scale=3, size=2))
        assert q_function(alpha, st) >= 0.0


def test_q_grid_shape_and_row_major_layout():
    st = SqueezedNumberState(2, 0.4)
    grid = GridSpec(-1.0, 1.0, -2.0, 2.0, 5, 9)
    vals = q_grid(st, grid)
    assert vals.shape == (9, 5)
    re, im = grid.axes()
    assert vals[3, 1] == pytest.approx(q_function(re[1] + 1j * im[3], st), rel=1e-12)


@pytest.mark.parametrize("bounds, counts, message", [
    ((-1.0, math.inf, -2.0, 2.0), (5, 9), "re_max must be finite"),
    ((-math.inf, 1.0, -2.0, 2.0), (5, 9), "re_min must be finite"),
    ((-1.0, 1.0, math.nan, 2.0), (5, 9), "im_min must be finite"),
    ((-1.0, 1.0, -2.0, math.nan), (5, 9), "im_max must be finite"),
    ((-1.0, 1.0, -2.0, 2.0), (3.5, 9), "n_re must be an integer"),
    ((-1.0, 1.0, -2.0, 2.0), (5, 9.0), "n_im must be an integer"),
    ((-1.0, 1.0, -2.0, 2.0), (True, 9), "n_re must be an integer"),
])
def test_grid_spec_rejects_non_finite_bounds_and_non_integer_counts(bounds, counts, message):
    with pytest.raises(ValueError, match=message):
        GridSpec(*bounds, *counts)
    assert GridSpec(-1.0, 1.0, -2.0, 2.0, np.int64(5), 9).axes()[0].shape == (5,)


def test_q_grid_elliptical_ridge_axis_ratio():
    # the bright ring stretches along Im alpha by ~e^{2r} relative to Re
    st = SqueezedNumberState(7, 0.5)
    xs = np.linspace(0.01, 8, 1500)
    qx = np.abs(q_slice_real(xs, st))
    qy = q_slice_imag(xs, st)
    ratio = xs[qy.argmax()] / xs[qx.argmax()]
    assert ratio == pytest.approx(math.exp(2 * 0.5), rel=0.15)


def q_slice_real(x, st):
    amp = coherent_amplitude_grid(np.asarray(x, dtype=complex), st)
    return np.abs(amp) ** 2 / math.pi


def test_q_slice_eight_maxima_on_im_axis_m7_r14():
    st = SqueezedNumberState(7, 1.4)
    y = np.arange(-13, 13, 0.01 * math.exp(1.4))
    q = q_slice_imag(y, st)
    count = sum(1 for i in range(1, len(y) - 1)
                if q[i] > q[i - 1] and q[i] > q[i + 1] and q[i] > 1e-6 * q.max())
    assert count == 8


def q_grid_unfolded(state, grid):
    # q_grid before the fold: the kernel at every point of the grid
    re, im = grid.axes()
    amp = coherent_amplitude_grid(re[None, :] + 1j * im[:, None], state)
    return np.abs(amp) ** 2 / math.pi


def q_slice_imag_unfolded(y, state):
    y = np.asarray(y, dtype=float)
    amp = coherent_amplitude_grid(1j * y, state)
    return np.abs(amp) ** 2 / math.pi


class FixedAxes:
    """A grid whose axes are given arrays, for values linspace cannot make."""

    def __init__(self, re, im):
        self.re, self.im = np.array(re, dtype=float), np.array(im, dtype=float)

    def axes(self):
        return self.re, self.im


fold_states = hst.builds(
    SqueezedNumberState,
    hst.sampled_from([0, 1, 2, 3, 7, 8, 20, 59, 300]),
    hst.sampled_from([0.0, 1e-7, -1e-7, 0.3, -0.8, 1.4, -1.4, 2.0]))


@hst.composite
def fold_extents(draw):
    """(lo, hi) of a linspace axis: exact and near mirrors, ends at +-0.0,
    or free."""
    a = draw(hst.floats(0.05, 6.0))
    kind = draw(hst.sampled_from(["mirror", "near", "to -0", "from +0", "free"]))
    if kind == "mirror":
        return -a, a
    if kind == "near":
        return -a, a * (1.0 + draw(hst.sampled_from([2.2e-16, 1e-12, 1e-6])))
    if kind == "to -0":
        return -a, -0.0  # linspace ends on -0.0 exactly
    if kind == "from +0":
        return 0.0, a
    lo = draw(hst.floats(-6.0, 5.9))
    return lo, lo + draw(hst.floats(0.01, 6.0))


@hst.composite
def fold_axes(draw):
    """An arbitrary axis holding +0.0, -0.0, mirrored pairs and near mirrors."""
    base = draw(hst.lists(hst.one_of(hst.sampled_from([0.0, -0.0]), hst.floats(-6.0, 6.0)),
                         min_size=1, max_size=9))
    mirrors = [-v for v in base if draw(hst.booleans())]
    near = [-v * (1.0 + 2.2e-16) for v in base if draw(hst.booleans())]
    return draw(hst.permutations(base + mirrors + near))


@settings(max_examples=150, deadline=None)
@given(state=fold_states, re=fold_extents(), im=fold_extents(),
       n_re=hst.integers(2, 13), n_im=hst.integers(2, 13))
def test_q_grid_fold_bit_identical_on_linspace_axes(state, re, im, n_re, n_im):
    grid = GridSpec(*re, *im, n_re, n_im)
    assert np.array_equal(q_grid(state, grid), q_grid_unfolded(state, grid))
    y = grid.axes()[1]
    assert np.array_equal(q_slice_imag(y, state), q_slice_imag_unfolded(y, state))


@settings(max_examples=100, deadline=None)
@given(state=fold_states, re=fold_axes(), im=fold_axes())
def test_q_grid_fold_bit_identical_on_arbitrary_axes(state, re, im):
    grid = FixedAxes(re, im)
    assert np.array_equal(q_grid(state, grid), q_grid_unfolded(state, grid))
    assert np.array_equal(q_slice_imag(grid.im, state),
                          q_slice_imag_unfolded(grid.im, state))
    assert np.array_equal(q_slice_imag(grid.im.reshape(1, -1), state),
                          q_slice_imag_unfolded(grid.im.reshape(1, -1), state))


def test_q_grid_fold_bit_identical_on_readme_grids():
    for m, r in ((7, 1.4), (300, 1.5), (7, -1.4), (7, 0.0), (7, 1e-7)):
        state = SqueezedNumberState(m, r)
        lim_re = math.exp(-r) * math.sqrt(2 * m + 1) + 3.0
        lim_im = math.exp(r) * math.sqrt(2 * m + 1) + 3.0
        grid = GridSpec(-lim_re, lim_re, -lim_im, lim_im, 161, 321)
        assert np.array_equal(q_grid(state, grid), q_grid_unfolded(state, grid))


def test_q_normalization_by_2d_quadrature():
    st = SqueezedNumberState(7, 1.4)
    lim_re = math.exp(-st.r) * math.sqrt(15.0) + 7.0
    lim_im = math.exp(st.r) * (math.sqrt(15.0) + 7.0)
    x, w = np.polynomial.legendre.leggauss(700)
    grid = lim_re * x[None, :] + 1j * lim_im * x[:, None]
    qv = np.abs(coherent_amplitude_grid(grid, st)) ** 2 / math.pi
    mass = lim_re * lim_im * float(w @ qv @ w)
    assert mass == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("m,r", [(40, 0.8), (40, -0.8), (40, 1.4), (12, -1.4)])
def test_masses_by_gauss_hermite_at_large_m(m, r):
    # each density is a Gaussian times a polynomial of degree 2m, so m + 1
    # Gauss-Hermite nodes per axis integrate it exactly; weights carry e^{x^2}
    st = SqueezedNumberState(m, r)
    x, w = np.polynomial.hermite.hermgauss(m + 1)
    w = w * np.exp(x * x)
    s = math.exp(-r)
    assert s * (w @ position_wf(s * x, st) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert w @ np.abs(momentum_wf(x / s, st)) ** 2 / s == pytest.approx(1.0, abs=1e-12)
    th = math.tanh(r)
    alpha = x[None, :] / math.sqrt(1.0 + th) + 1j * x[:, None] / math.sqrt(1.0 - th)
    qv = np.abs(coherent_amplitude_grid(alpha, st)) ** 2 / math.pi
    assert w @ qv @ w * math.cosh(r) == pytest.approx(1.0, abs=1e-12)


def coherent_amplitude_mp(alpha, m, r, mp):
    """<alpha|m,r> from the finite sum over p,

        sqrt(m!/cosh r) e^{-|alpha|^2/2 - tanh(r) alpha*^2/2}
            * sum_p 2^{-p} sinh^p(r) cosh^{p-m}(r) alpha*^{m-2p} / ((m-2p)! p!),

    in mpmath at a precision 30 digits beyond the cancellation the sum
    itself shows (60 digits at least)."""
    dps = 60
    while True:
        with mp.workdps(dps):
            ac, rr = mp.conj(mp.mpc(alpha)), mp.mpf(r)
            sh, ch = mp.sinh(rr), mp.cosh(rr)
            terms = [sh ** p * ch ** (p - m) * ac ** (m - 2 * p)
                     / (2 ** p * mp.factorial(m - 2 * p) * mp.factorial(p))
                     for p in range(m // 2 + 1)]
            total = mp.fsum(terms)
            lost = 0 if total == 0 else int(mp.ceil(
                mp.log10(mp.fsum(abs(t) for t in terms) / abs(total))))
            if lost + 30 <= dps:
                pref = (mp.sqrt(mp.factorial(m) / ch)
                        * mp.exp(-abs(ac) ** 2 / 2 - mp.tanh(rr) * ac ** 2 / 2))
                return complex(total * pref)
        dps = lost + 40


@pytest.mark.parametrize("m,r", [(40, 2.0), (60, 1.0), (100, 0.5), (300, 1.5), (40, -1.0)])
def test_husimi_precision_envelope(m, r):
    # beyond m ~ 20 the sum over p cancels by up to ~70 digits in doubles;
    # the Hermite form must hold 1e-10 of the slice peak on and off the axis
    mp = pytest.importorskip("mpmath")
    st = SqueezedNumberState(m, r)
    ring = math.sqrt(m + 0.5)
    y = np.linspace(0.0, math.exp(r) * ring + 2.0, 41)[1:]
    angles = np.array([0.4, 1.0, 2.2, 2.9, -1.3])
    off_axis = math.exp(-r) * ring * np.cos(angles) + 1j * math.exp(r) * ring * np.sin(angles)
    alphas = np.concatenate([1j * y, off_axis])
    ref = np.array([coherent_amplitude_mp(a, m, r, mp) for a in alphas])
    q_ref = np.abs(ref[:len(y)]) ** 2 / math.pi
    peak = q_ref.max()
    assert np.abs(q_slice_imag(y, st) - q_ref).max() <= 1e-10 * peak
    amp_err = np.abs(coherent_amplitude_grid(alphas, st) - ref).max()
    assert amp_err <= 1e-10 * math.sqrt(math.pi * peak)


def test_state_validation():
    with pytest.raises(ValueError):
        SqueezedNumberState(-1, 0.5)
    with pytest.raises(ValueError):
        SqueezedNumberState(2, math.nan)
