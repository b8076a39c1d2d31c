"""Tests for the verify suites' dependencies and reports."""

import math
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import squeezelab
from squeezelab import fock_oracle, genfun, verify
from squeezelab.squeezed_number import SqueezedNumberState, photon_distribution


def test_quadrature_suites_load_no_scipy_integrate():
    # the masses, variances and Fourier pairs use Gauss-Hermite nodes
    src = str(Path(squeezelab.__file__).resolve().parents[1])
    code = ("import sys; from squeezelab import verify; "
            "assert verify.run_suites(['normalization', 'fourier'])['passed']; "
            "print([m for m in sys.modules if m.startswith('scipy.integrate')])")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src}, check=True)
    assert done.stdout.strip() == "[]"


def test_normalization_checks_hold_at_rounding():
    checks = verify.run_suites(["normalization"])["suites"]["normalization"]["checks"]
    measured = {c["name"]: c["measured"] for c in checks}
    assert measured["Husimi functions integrate to 1"] < 2e-14
    assert measured["position densities integrate to 1"] < 1e-14
    assert measured["momentum densities integrate to 1"] < 1e-14
    assert measured["quadrature variances match e^{+-2r}/2"] < 1e-14


def test_run_suites_rejects_bad_arguments_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "parity", lambda: ran.append("parity") or [])
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suites(["parity", "nope"])
    assert ran == []


@pytest.mark.parametrize("bad", [1e-300, math.nan])
def test_parity_fails_on_any_nonzero_structural_zero(monkeypatch, bad):
    monkeypatch.setattr(verify, "fock_amplitude", lambda ns, state: np.full(len(ns), bad))
    (check,) = verify.run_suites(["parity"])["suites"]["parity"]["checks"]
    assert not check["passed"]
    assert check["measured"] == bad or math.isnan(check["measured"])


def test_oracle_suite_compares_rows_through_the_photon_cutoff(monkeypatch):
    # the bases come from the photon cutoff, not from the edge rule alone
    # (whose smallest passing basis leaves orthonormality at 4e-8), and
    # stay below default_dim
    calls = []
    oracle = fock_oracle.oracle_amplitude

    def recorded(n, m, r, dim=None):
        calls.append((int(np.max(n)), np.atleast_1d(m).tolist(), r, dim))
        return oracle(n, m, r, dim)

    monkeypatch.setattr(fock_oracle, "oracle_amplitude", recorded)
    assert all(c["passed"] for c in verify.suite_oracle())
    assert len(calls) == len(verify.ORACLE_R_SET) + 3
    for top, ms, r, dim in calls:
        for m in ms:
            table = photon_distribution(SqueezedNumberState(m, r), 1e-14)
            assert top >= table.meta.truncation["cutoff"]
        assert dim < fock_oracle.default_dim(max(ms), r)


def test_oracle_basis_grows_until_the_columns_pass(monkeypatch):
    # a cutoff too small for the edge rule: the basis grows by 1.25x until
    # every stage passes, and the columns are those of the final basis
    true_distribution = verify.photon_distribution
    monkeypatch.setattr(verify, "photon_distribution", lambda state, eps: true_distribution(
        SqueezedNumberState(state.m, state.r / 2), eps))
    raised = []
    oracle = fock_oracle.oracle_amplitude

    def recorded(n, m, r, dim=None):
        try:
            return oracle(n, m, r, dim)
        except fock_oracle.TrustRegionError:
            raised.append(dim)
            raise

    monkeypatch.setattr(fock_oracle, "oracle_amplitude", recorded)
    cols = verify._oracle_columns(np.arange(13), 0.973)
    assert raised and all(b == math.ceil(1.25 * a) for a, b in zip(raised, raised[1:]))
    dim = math.ceil(1.25 * raised[-1])
    assert cols.shape == (dim // 2, 13)
    assert np.array_equal(cols, oracle(np.arange(dim // 2)[:, None], np.arange(13), 0.973, dim))


@pytest.mark.parametrize("errors", [
    math.nan,
    [1e-16, math.nan, 2e-16],
    np.array([[0.0, 1e-16], [math.nan, 0.0]]),
    [np.zeros(3), np.array([0.0, math.nan, 0.0]), np.zeros(3)],
])
def test_check_measures_a_nan_anywhere(errors):
    check = verify._check("stub", errors, 1.0)
    assert math.isnan(check["measured"]) and check["passed"] is False


def test_check_measures_the_largest_error():
    check = verify._check("stub", [np.array([1e-16, 3e-9]), np.array([2e-9, 0.0])], 1e-8)
    assert check == {"name": "stub", "measured": 3e-9, "limit": 1e-8, "passed": True}


def _at(m, r):
    """A test on a call's arguments: true when one is the state (m, r)."""
    target = SqueezedNumberState(m, r)
    return lambda *args: any(isinstance(a, SqueezedNumberState) and a == target for a in args)


def _nan_from(route, hit):
    """``route`` with its answer made NaN on the calls where ``hit`` holds:
    all of it where hit returns True, only the entries it returns otherwise."""
    def poisoned(*args, **kwargs):
        out = route(*args, **kwargs)
        where = hit(*args)
        if where is False:
            return out
        if hasattr(out, "probs"):  # a photon table, which itself rejects NaN
            return types.SimpleNamespace(probs=out.probs * math.nan, meta=out.meta)
        if where is True:
            return out * math.nan
        out = out.copy()
        out[where] = math.nan
        return out
    return poisoned


JACOBI_ORACLE = "Jacobi recurrence vs oracle column"
SERIES_ORACLE = "series extraction vs oracle column"
JACOBI_SERIES = "Jacobi recurrence vs series extraction"
EXTRACTION = "extraction matches closed forms"
FOURIER = "momentum wf is the Fourier transform of position wf"

# (suite, module, route, the calls it answers with NaN or the entries of its
# answer it makes NaN, the checks that must fail): each NaN lands at a state or
# entry after the first of every check it reaches
NAN_ROUTES = [
    ("normalization", verify, "photon_distribution", _at(1, 1.4),
     {"photon distributions sum to 1"}),
    ("normalization", verify, "position_wf", _at(1, 1.4), {"position densities integrate to 1"}),
    ("normalization", verify, "momentum_wf", _at(1, 1.4), {"momentum densities integrate to 1"}),
    ("normalization", verify, "coherent_amplitude_grid", _at(1, 1.4),
     {"Husimi functions integrate to 1"}),
    ("normalization", verify, "position_wf_scs", lambda q, beta, r: r == 1.4,
     {"quadrature variances match e^{+-2r}/2"}),
    ("oracle", verify, "fock_amplitude", _at(5, 0.973), {JACOBI_ORACLE, JACOBI_SERIES}),
    ("oracle", verify, "fock_amplitude", _at(100, 0.5),
     {"Jacobi recurrence vs oracle column at (60, 1), (100, 0.5), (40, 2)"}),
    ("oracle", fock_oracle, "oracle_amplitude", lambda n, m, r, dim=None: r == 0.973,
     {JACOBI_ORACLE, SERIES_ORACLE, "oracle columns are orthonormal"}),
    ("oracle", verify, "_oracle_columns", lambda ms, r: list(ms) == [100],
     {"Jacobi recurrence vs oracle column at (60, 1), (100, 0.5), (40, 2)"}),
    ("oracle", genfun, "fock_block", lambda n, r, m: r == 0.973 and np.s_[:, 5],
     {SERIES_ORACLE, JACOBI_SERIES}),
    ("genfun", verify, "position_wf", _at(5, 0.973), {EXTRACTION}),
    ("genfun", verify, "momentum_wf", _at(5, 0.973), {EXTRACTION}),
    ("genfun", verify, "coherent_amplitude", _at(5, 0.973), {EXTRACTION}),
    ("genfun", genfun, "amplitude_block", lambda kind, value, r, m: r == 0.973 and 5,
     {EXTRACTION}),
    ("genfun", genfun, "element_block", lambda n, m, kernel: (3, 3),
     {"identity kernel gives Kronecker delta", "squeezed number kernel gives m delta",
      "photon number kernel vs oracle sandwich"}),
    ("fourier", verify, "position_wf", _at(3, 1.5), {FOURIER}),
    ("fourier", verify, "momentum_wf", _at(3, 1.5), {FOURIER}),
]


@pytest.mark.parametrize("suite, module, route, hit, failing", NAN_ROUTES,
                         ids=[f"{c[0]}-{c[2]}-{i}" for i, c in enumerate(NAN_ROUTES)])
def test_a_nan_at_a_later_state_fails_its_checks(monkeypatch, suite, module, route, hit,
                                                 failing):
    # a running maximum by Python's max would drop the NaN, since
    # max(1e-15, nan) is 1e-15
    monkeypatch.setattr(module, route, _nan_from(getattr(module, route), hit))
    checks = verify.run_suites([suite])["suites"][suite]["checks"]
    assert {c["name"] for c in checks if not c["passed"]} == failing
    assert all(math.isnan(c["measured"]) for c in checks if c["name"] in failing)
