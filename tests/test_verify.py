"""Tests for the verify suites' dependencies and reports."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import squeezelab
from squeezelab import verify


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


@pytest.mark.parametrize("suite,max_m,least", [
    ("transition", 2, 3),  # its scans start at m = 3
    ("transition", -1, 3),
    ("all", 2, 3),
    ("parity", -1, 0),
    ("oracle", -1, 0),
])
def test_run_suites_rejects_max_m_that_checks_nothing(suite, max_m, least):
    with pytest.raises(ValueError, match=f"needs max_m >= {least}, got {max_m}"):
        verify.run_suites([suite], max_m=max_m)


def test_transition_suite_at_its_least_max_m_runs_one_check():
    report = verify.run_suites(["transition"], max_m=3)
    assert len(report["suites"]["transition"]["checks"]) == 1
    assert report["passed"]


def test_run_suites_rejects_bad_arguments_before_running_any(monkeypatch):
    ran = []
    monkeypatch.setitem(verify.SUITES, "parity", lambda **kwargs: ran.append(kwargs) or [])
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        verify.run_suites(["parity", "nope"])
    with pytest.raises(ValueError, match="transition suite needs max_m >= 3"):
        verify.run_suites(["parity", "transition"], max_m=2)
    assert ran == []
