"""Tests for the verify suites' dependencies and reports."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import squeezelab
from squeezelab import fock_oracle, verify
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
