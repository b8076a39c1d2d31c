"""Tests for the verify suites' dependencies and reports."""

import os
import subprocess
import sys
from pathlib import Path

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
