"""Tests for the log-factorial and the Hermite kernel."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from squeezelab import special, squeezed_coherent
from squeezelab.special import hermite, log_factorial
from squeezelab.squeezed_number import SqueezedNumberState, q_grid
from squeezelab.tables import GridSpec

from reference import hermite_reduction_check


def hermite_coeffs_exact(n):
    """Integer coefficients of H_n via the recurrence, exact arithmetic."""
    rows = [[Fraction(1)], [Fraction(0), Fraction(2)]]
    for k in range(1, n):
        prev, cur = rows[k - 1], rows[k]
        nxt = [Fraction(0)] * (k + 2)
        for i, c in enumerate(cur):
            nxt[i + 1] += 2 * c
        for i, c in enumerate(prev):
            nxt[i] -= 2 * k * c
        rows.append(nxt)
    return rows[n]


def hermite_exact(n, x: Fraction) -> Fraction:
    return sum(c * x ** i for i, c in enumerate(hermite_coeffs_exact(n)))


# ---------------------------------------------------------------- factorials

def test_log_factorial_trivial():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0


def test_log_factorial_small_exact():
    # oracle: exact integer factorial, then log
    assert log_factorial(10) == pytest.approx(math.log(3628800), rel=1e-15)


@pytest.mark.parametrize("n", [25, 170, 1000, 10_000, 1_000_000])
def test_log_factorial_vs_compensated_sum(n):
    # independent oracle: compensated sum of logs
    expected = math.fsum(math.log(k) for k in range(2, n + 1))
    assert log_factorial(n) == pytest.approx(expected, rel=1e-12)


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


# ------------------------------------------------------------------- hermite

def hermite_value(n, x, t=1.0):
    mant, log_scale = hermite(n, x, t)
    return mant * np.exp(log_scale)


def test_hermite_order_zero_any_x():
    for x in (-17.0, 0.0, 0.3, 12.0):
        mant, log_scale = hermite(0, x)
        assert mant == 1.0 and log_scale == 0.0


def test_hermite_one_at_zero_is_zero():
    assert hermite(1, 0.0)[0] == 0.0


def test_hermite_odd_order_exact_zero_at_origin():
    for n in (1, 3, 7, 25, 301):
        assert hermite(n, 0.0)[0] == 0.0
        assert hermite(n, 0j, -0.3)[0] == 0.0


def test_hermite_7_at_1p3():
    # oracle: exact integer-coefficient polynomial in rational arithmetic
    exact = hermite_exact(7, Fraction(13, 10))
    assert exact == Fraction(78978367, 78125)
    assert hermite_value(7, 1.3) == pytest.approx(float(exact), rel=1e-13)


@pytest.mark.parametrize("n", range(26))
def test_hermite_vs_exact_coefficients(n):
    for x in (-20.0, -7.3, -1.0, 0.17, 2.0, 9.9, 20.0):
        exact = float(hermite_exact(n, Fraction(x).limit_denominator(10 ** 12)))
        got = hermite_value(n, x)
        if exact == 0.0:
            assert got == 0.0
        else:
            assert got == pytest.approx(exact, rel=1e-10)


def test_hermite_no_overflow_large_order():
    mant, log_scale = hermite(600, 0.5)
    assert math.isfinite(log_scale) and log_scale > 709.0
    assert 0.5 <= abs(mant) <= 1.0


def hermite_rescaled_every_step(n, x, t=1.0):
    """Reference kernel: the same recurrence, rescaled after every step."""
    x = np.asarray(x)
    x = x.astype(np.result_type(x, float), copy=False)
    if x.ndim:
        a, exponent = np.ones_like(x), np.zeros(x.shape, dtype=int)
        maximum, frexp, ldexp = np.maximum, np.frexp, np.ldexp
    else:
        x, a, exponent = x.item(), 1.0, 0
        maximum, frexp, ldexp = max, math.frexp, math.ldexp
    two_x = 2.0 * x
    b = two_x if n else a
    for k in range(1, n):
        a, b = b, two_x * b - (2.0 * k * t) * a
        e = frexp(maximum(abs(a), abs(b)))[1]
        scale = ldexp(1.0, -e)
        a, b = a * scale, b * scale
        exponent += e
    return b, exponent * math.log(2.0)


# exact zeros, and magnitudes from 1e-100 up: far below that a real or
# imaginary part can meet the subnormal range on one schedule only
hermite_real = st.one_of(
    st.just(0.0),
    st.floats(min_value=-40.0, max_value=40.0).filter(lambda v: abs(v) >= 1e-100))
hermite_complex = st.builds(complex, hermite_real, hermite_real)
hermite_arg = st.one_of(
    hermite_real, hermite_complex,
    st.lists(hermite_real, min_size=1, max_size=8).map(np.array),
    st.lists(hermite_complex, min_size=1, max_size=8).map(np.array))


HERMITE_TS = [1.0, 0.0, -math.tanh(1.4) / 2, -1e-9, 0.3, -0.49]


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from(list(range(41)) + [300, 2000]),
       x=hermite_arg,
       t=st.sampled_from(HERMITE_TS))
def test_hermite_bit_identical_to_rescaling_every_step(n, x, t):
    mant, log_scale = hermite(n, x, t)
    ref_mant, ref_log_scale = hermite_rescaled_every_step(n, x, t)
    assert np.array_equal(mant, ref_mant)
    assert np.array_equal(log_scale, ref_log_scale)
    assert type(mant) is type(ref_mant) and type(log_scale) is type(ref_log_scale)


def _blocked_argument(shape, dtype):
    # magnitudes up to 12 with an exact zero every 97th entry
    rng = np.random.default_rng(math.prod(shape))
    x = rng.uniform(-12.0, 12.0, shape)
    if dtype is complex:
        x = x + 1j * rng.uniform(-12.0, 12.0, shape)
    x.reshape(-1)[::97] = 0.0
    return x


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [
    (special._BLOCK - 1,), (special._BLOCK,), (special._BLOCK + 1,),
    (3 * special._BLOCK + 5,), (7, special._BLOCK // 3)])
def test_hermite_blocks_bit_identical_to_the_whole_array(shape, dtype):
    # each block follows the schedule of the whole argument, so every
    # element sees the operations of the unblocked recurrence
    x = _blocked_argument(shape, dtype)
    for n in (0, 1, 2, 7, 300):
        for t in HERMITE_TS:
            mant, log_scale = hermite(n, x, t)
            ref_mant, ref_log_scale = hermite_rescaled_every_step(n, x, t)
            assert mant.shape == log_scale.shape == shape
            assert mant.dtype == x.dtype
            assert np.array_equal(mant, ref_mant)
            assert np.array_equal(log_scale, ref_log_scale)


def test_hermite_overflow_in_the_last_block_raises_before_any_block(monkeypatch):
    x = np.full(3 * special._BLOCK + 5, 0.5)
    x[-1] = -1e200

    def no_block(*args, **kwargs):
        raise AssertionError("a block ran before the bound was checked")
    monkeypatch.setattr(np, "ones_like", no_block)
    with pytest.raises(ValueError, match=r"order 5 at max\|x\| = 1e\+200"):
        hermite(5, x)


def test_q_grid_bit_identical_on_the_reference_kernel(monkeypatch):
    # the (300, 1.5) grid of the precision envelope: 136 x 292 distinct
    # |coordinates|, five blocks of the recurrence
    state = SqueezedNumberState(300, 1.5)
    lim_re = math.exp(-1.5) * math.sqrt(601) + 3.0
    lim_im = math.exp(1.5) * math.sqrt(601) + 3.0
    grid = GridSpec(-lim_re, lim_re, -lim_im, lim_im, 161, 321)
    blocked = q_grid(state, grid)
    monkeypatch.setattr(squeezed_coherent, "hermite", hermite_rescaled_every_step)
    assert np.array_equal(blocked, q_grid(state, grid))


@pytest.mark.parametrize("n", [300, 2000])
def test_hermite_large_order_complex_vs_mpmath(n):
    # t^{n/2} H_n(x / sqrt t) at the Husimi kernel's t for r = 1.5, where
    # the pair is rescaled only every few dozen steps
    mp = pytest.importorskip("mpmath")
    t = -math.tanh(1.5) / 2
    xs = np.array([0.3 + 0.7j, -2.1 + 4.5j, 5.0 - 0.2j, 11.0 + 9.0j, -0.01j])
    mants, log_scales = hermite(n, xs, t)
    for x, mant, log_scale in zip(xs, mants, log_scales):
        with mp.workdps(50):
            root_t = mp.sqrt(mp.mpf(t))
            ref = complex(mp.log(root_t ** n * mp.hermite(n, mp.mpc(x) / root_t)))
        for got_mant, got_log_scale in ((mant, log_scale), hermite(n, complex(x), t)):
            diff = cmath.log(got_mant) + got_log_scale - ref
            phase = (diff.imag + math.pi) % (2.0 * math.pi) - math.pi
            assert abs(complex(diff.real, phase)) <= 1e-12 * abs(ref)


def test_hermite_raises_where_a_step_could_overflow():
    # H_3(1e200) ~ 8e600: a float cannot hold one step of it
    with pytest.raises(ValueError, match=r"order 3 at max\|x\| = 1e\+200, t = 1"):
        hermite(3, 1e200)
    with pytest.raises(ValueError, match="could overflow"):
        hermite(5, np.array([0.5, -1e200, 2.0]))
    with pytest.raises(ValueError, match="could overflow"):
        hermite(2, 0.5, 1e300)
    # one step cannot overflow at n = 1
    assert hermite(1, 1e200) == (2e200, 0.0)


def test_hermite_tiny_x_at_t_zero():
    # (2x)^n at r = 0 near alpha = 0: each step shrinks the pair by 2x, so
    # it is rescaled at every step, and step 1 starts from the exact
    # (1, 2x) even where x^2 is subnormal
    mant, log_scale = hermite(3, 5e-151, 0.0)
    assert mant == pytest.approx(6.7e-151, rel=1e-2)
    assert log_scale == pytest.approx(-690.37, abs=1e-2)
    assert math.log(mant) + log_scale == pytest.approx(3 * math.log(1e-150), rel=1e-14)
    xs = np.geomspace(1e-165, 1e-150, 60)
    for n in (2, 3, 5):
        for x in (xs, xs * (1 - 1j)):
            got, ref = hermite(n, x, 0.0), hermite_rescaled_every_step(n, x, 0.0)
            assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        assert hermite(n, 5e-151, 0.0) == hermite_rescaled_every_step(n, 5e-151, 0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("n, x, t", [(2, 1e-310, 0.0), (2, 0.0, 1e-310), (3, 1e-310, 0.0),
                                     (3, 5e-324, 0.0), (5, 1e-310, 1e-310)])
def test_hermite_subnormal_input(n, x, t):
    # the pair's larger member is subnormal here, so its 2^-e is no float
    coeffs = hermite_coeffs_exact(n)
    exact = sum(c * Fraction(x) ** j * Fraction(t) ** ((n - j) // 2)
                for j, c in enumerate(coeffs))
    log_exact = math.log(abs(exact.numerator)) - math.log(exact.denominator)
    for got_mant, got_log_scale in (hermite(n, x, t), hermite(n, np.array([x]), t)):
        got_mant, got_log_scale = float(np.squeeze(got_mant)), float(np.squeeze(got_log_scale))
        assert (got_mant > 0) == (exact > 0)
        log_got = math.log(abs(got_mant)) + got_log_scale
        assert log_got == pytest.approx(log_exact, rel=1e-12)


def test_hermite_rejects_bad_args():
    with pytest.raises(ValueError):
        hermite(-1, 0.0)
    with pytest.raises(ValueError):
        hermite(3, math.inf)
    with pytest.raises(ValueError):
        hermite(3, np.array([0.0, math.nan]))


def test_hermite_complex_matches_real_axis():
    mant, scale = hermite(9, 1.7 + 0j)
    assert mant * math.exp(scale) == pytest.approx(hermite_value(9, 1.7), rel=1e-12)


def test_hermite_complex_imaginary_argument():
    # H_2(z) = 4 z^2 - 2 at z = i y gives -4 y^2 - 2
    assert hermite_value(2, 0.8j) == pytest.approx(-4 * 0.64 - 2, rel=1e-14)


def test_hermite_array_matches_scalar():
    xs = np.linspace(-6, 6, 41)
    mant, log_scale = hermite(11, xs)
    for i, x in enumerate(xs):
        ref = hermite(11, float(x))
        assert mant[i] == ref[0] and log_scale[i] == ref[1]


def test_hermite_t_zero_is_power():
    # t^{n/2} H_n(x / sqrt t) -> (2x)^n as t -> 0
    for n in (0, 1, 5, 40):
        for x in (-1.3, 0.25, 0.7 - 0.4j):
            assert hermite_value(n, x, 0.0) == pytest.approx((2 * x) ** n, rel=1e-13)


@pytest.mark.parametrize("t", [Fraction(-1, 2), Fraction(1, 4)])
def test_hermite_scaled_vs_exact_coefficients(t):
    # t^{n/2} H_n(x / sqrt t) = sum_j c_j x^j t^{(n-j)/2}, and n - j is even
    for n in range(13):
        coeffs = hermite_coeffs_exact(n)
        for x in (Fraction(-7, 5), Fraction(3, 10), Fraction(2)):
            exact = sum(c * x ** j * t ** ((n - j) // 2) for j, c in enumerate(coeffs))
            got = hermite_value(n, float(x), float(t))
            assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-300)


# ------------------------------------------------- half-argument identity

def reduction_rhs_exact(m, x: Fraction) -> Fraction:
    """Exact rational value of the half-argument sum.

    2^{k/2} H_k(x/sqrt(2)) is rational for rational x: for even k both
    factors are rational; for odd k each contributes one sqrt(2) and the
    product of the two stray factors is again rational.
    """
    coeffs = [hermite_coeffs_exact(k) for k in range(m + 1)]
    total = Fraction(0)
    half_x2 = x * x / 2  # (x / sqrt 2)^2
    for k in range(m % 2, m + 1, 2):
        # H_k(x/sqrt2) = sum_j c_j (x/sqrt2)^j, split j into parity
        poly = coeffs[k]
        val = Fraction(0)
        for j in range(k % 2, k + 1, 2):
            # (x/sqrt2)^j = (x^2/2)^{j//2} * (x/sqrt2)^{j%2}
            val += poly[j] * half_x2 ** (j // 2)
        # pending factors: 2^{k/2} and, for odd k, one leftover x/sqrt(2)
        if k % 2 == 0:
            factor = Fraction(2) ** (k // 2)
        else:
            factor = Fraction(2) ** ((k - 1) // 2) * x  # sqrt2 * x/sqrt2 = x
        val *= factor
        val /= Fraction(math.factorial(k)) * Fraction(math.factorial((m - k) // 2))
        total += val
    return total


def test_reduction_check_m0_exact_zero():
    assert hermite_reduction_check(0, 1.7) == 0.0


def test_reduction_check_m1():
    assert hermite_reduction_check(1, 0.5) < 1e-12
    # rational oracle: both sides reduce to H_1(x)/1! = 2x
    x = Fraction(1, 2)
    lhs = hermite_exact(1, x) / math.factorial(1)
    rhs = reduction_rhs_exact(1, x)
    assert lhs == rhs == 2 * x


def test_reduction_check_m12_rational_oracle():
    x = Fraction(2)
    lhs = hermite_exact(12, x) / math.factorial(12)
    rhs = reduction_rhs_exact(12, x)
    assert lhs == rhs  # the identity holds exactly in rational arithmetic
    assert hermite_reduction_check(12, 2.0) < 1e-10


@pytest.mark.parametrize("m", range(21))
@pytest.mark.parametrize("x", [-3.0, -1.0, 0.0, 0.5, 2.0, 5.0])
def test_reduction_check_sweep(m, x):
    assert hermite_reduction_check(m, x) < 1e-10


def test_reduction_check_rejects_large_m():
    with pytest.raises(ValueError):
        hermite_reduction_check(31, 0.0)
