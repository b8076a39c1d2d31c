"""Tests for the verify suites' dependencies and reports."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
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
