"""Self-verification suites behind ``squeezelab verify``.

Each suite runs the cross-route and invariant checks of one area on a
fixed set of desk-scale states and reports machine-readable results.
Everything is deterministic: the random samples here use a fixed seed and
the oracle draws no random numbers, so repeated runs produce identical
bytes.  Masses and variances use exact Gauss-Hermite quadrature, and the
Fourier pairs the same nodes.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, fock_oracle, genfun
from .squeezed_coherent import momentum_wf_scs, position_wf_scs, wave_packet_center
from .squeezed_number import (SqueezedNumberState, coherent_amplitude,
                              coherent_amplitude_grid, fock_amplitude,
                              momentum_wf, photon_distribution, position_wf)

__all__ = ["SUITES", "run_suites"]

ORACLE_R_SET = (0.3, 0.973, 1.4)
NORMALIZATION_R_SET = (0.0, 0.5, 1.4, -0.8)


def _check(name: str, measured: float, limit: float) -> dict:
    return {"name": name, "measured": float(measured), "limit": float(limit),
            "passed": bool(measured <= limit)}


def suite_parity() -> list[dict]:
    # rows n of opposite parity to m are structural zeros: in the columns
    # m <= 12 at r = 0.8 + 0.05 m and in the m = 5 photon table (even rows)
    ns = np.arange(13)
    off = [fock_amplitude(ns, SqueezedNumberState(m, 0.8 + 0.05 * m))[(ns + m) % 2 == 1]
           for m in range(13)]
    off.append(photon_distribution(SqueezedNumberState(5, 1.1)).probs[::2])
    worst = float(np.abs(np.concatenate(off)).max())  # a NaN fails the check too
    return [_check("mixed-parity amplitudes are exactly zero", worst, 0.0)]


def _gauss_hermite(n: int):
    """Nodes x and folded weights w e^{x^2} of the n-point Gauss-Hermite rule
    (Golub and Welsch, 1969): sum(w * f(x)) is the integral of f over the
    line, exact when f is e^{-x^2} times a polynomial of degree below 2n."""
    x, w = np.polynomial.hermite.hermgauss(n)
    return x, w * np.exp(x * x)


def suite_normalization() -> list[dict]:
    # Each density is a Gaussian times a polynomial of degree 2m, so the
    # Gauss-Hermite rule with m + 1 nodes per axis integrates it exactly.
    checks = []
    states = [SqueezedNumberState(m, r) for m in (0, 1, 7)
              for r in NORMALIZATION_R_SET]
    worst = max(abs(photon_distribution(st, 1e-12).probs.sum() - 1.0) for st in states)
    checks.append(_check("photon distributions sum to 1", worst, 1e-9))

    worst_q = worst_p = worst_h = 0.0
    for st in states:
        x, w = _gauss_hermite(st.m + 1)
        s = math.exp(-st.r)  # |<q|m,r>|^2 is e^{-x^2} times a polynomial at q = s x
        worst_q = max(worst_q, abs(s * (w @ position_wf(s * x, st) ** 2) - 1.0))
        worst_p = max(worst_p, abs(w @ np.abs(momentum_wf(x / s, st)) ** 2 / s - 1.0))
        # Q(x + iy) carries e^{-(1 + tanh r) x^2 - (1 - tanh r) y^2}
        th = math.tanh(st.r)
        alpha = x[None, :] / math.sqrt(1.0 + th) + 1j * x[:, None] / math.sqrt(1.0 - th)
        q = np.abs(coherent_amplitude_grid(alpha, st)) ** 2 / math.pi
        worst_h = max(worst_h, abs(w @ q @ w * math.cosh(st.r) - 1.0))
    checks.append(_check("position densities integrate to 1", worst_q, 1e-9))
    checks.append(_check("momentum densities integrate to 1", worst_p, 1e-9))
    checks.append(_check("Husimi functions integrate to 1", worst_h, 1e-6))

    worst = 0.0
    x, w = _gauss_hermite(2)
    for r in NORMALIZATION_R_SET:
        s = math.exp(-r)
        var_q = s * (w @ ((s * x) ** 2 * position_wf_scs(s * x, 0.0, r) ** 2))
        var_p = w @ ((x / s) ** 2 * np.abs(momentum_wf_scs(x / s, 0.0, r)) ** 2) / s
        worst = max(worst, abs(var_q - 0.5 * math.exp(-2.0 * r)),
                    abs(var_p - 0.5 * math.exp(2.0 * r)))
    checks.append(_check("quadrature variances match e^{+-2r}/2", worst, 1e-8))
    return checks


def suite_oracle() -> list[dict]:
    checks = []
    ns = np.arange(13)
    worst_co = worst_go = worst_cg = worst_orth = 0.0
    for r in ORACLE_R_SET:
        states = [SqueezedNumberState(m, r) for m in ns]
        rows = np.arange(fock_oracle.default_dim(12, r) // 2)
        cols = fock_oracle.oracle_amplitude(rows[:, None], ns, r)
        oracle = cols[:ns.size]
        jacobi = np.column_stack([fock_amplitude(ns, st) for st in states])
        series = np.array([[genfun.extract_amplitude("fock", n, st).real for st in states]
                           for n in ns])
        worst_co = max(worst_co, float(np.abs(jacobi - oracle).max()))
        worst_go = max(worst_go, float(np.abs(series - oracle).max()))
        worst_cg = max(worst_cg, float(np.abs(jacobi - series).max()))
        worst_orth = max(worst_orth, float(np.abs(cols.T @ cols - np.eye(ns.size)).max()))
    checks.append(_check("Jacobi recurrence vs oracle column", worst_co, 1e-8))
    checks.append(_check("series extraction vs oracle column", worst_go, 1e-8))
    checks.append(_check("Jacobi recurrence vs series extraction", worst_cg, 1e-8))
    checks.append(_check("oracle columns are orthonormal", worst_orth, 1e-10))

    worst = 0.0
    for m, r in ((60, 1.0), (100, 0.5), (40, 2.0)):
        n = np.arange(fock_oracle.default_dim(m, r) // 2)
        jacobi = fock_amplitude(n, SqueezedNumberState(m, r))
        worst = max(worst, float(np.abs(jacobi - fock_oracle.oracle_amplitude(n, m, r)).max()))
    checks.append(_check("Jacobi recurrence vs oracle column at (60, 1), (100, 0.5), (40, 2)",
                         worst, 1e-12))

    for r, dim in ((0.8, 200), (1.4, 600)):
        res = fock_oracle.bogoliubov_residual(r, dim)
        checks.append(_check(f"ladder-mixing residual r={r} dim={dim}", res, 1e-8))
    return checks


def suite_genfun() -> list[dict]:
    checks = []
    worst = 0.0
    for r in ORACLE_R_SET:
        for m in range(13):
            st = SqueezedNumberState(m, r)
            for q in (-1.1, 0.0, 0.45):
                worst = max(worst, abs(genfun.extract_amplitude("position", q, st)
                                       - position_wf(q, st)))
            for p in (-2.0, 0.3):
                worst = max(worst, abs(genfun.extract_amplitude("momentum", p, st)
                                       - momentum_wf(p, st)))
            for alpha in (0.0, 0.7 - 0.4j, 1.2j):
                worst = max(worst, abs(genfun.extract_amplitude("coherent", alpha, st)
                                       - coherent_amplitude(alpha, st)))
    checks.append(_check("extraction matches closed forms", worst, 1e-8))

    rng = np.random.default_rng(20240817)
    worst = 0.0
    for _ in range(12):
        ca = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        cb = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        a = genfun.series({1: ca[1], 2: ca[2]}, 13)
        b = genfun.series({1: cb[1], 2: cb[2]}, 13)
        lhs = genfun.series_mul(genfun.exp_series(a), genfun.exp_series(b))
        rhs = genfun.exp_series(a + b)
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    checks.append(_check("exp(A) exp(B) = exp(A+B) coefficientwise", worst, 1e-12))

    worst_id = worst_nb = 0.0
    for n in range(9):
        for m in range(9):
            elem = genfun.extract_element(n, m, genfun.identity_kernel)
            worst_id = max(worst_id, abs(elem - (1.0 if n == m else 0.0)))
            elem = genfun.extract_element(n, m, genfun.transformed_number_kernel)
            worst_nb = max(worst_nb, abs(elem - (m if n == m else 0.0)))
    checks.append(_check("identity kernel gives Kronecker delta", worst_id, 1e-10))
    checks.append(_check("squeezed number kernel gives m delta", worst_nb, 1e-10))

    r = 0.8
    num = np.arange(fock_oracle.default_dim(8, r))
    s = fock_oracle.oracle_amplitude(num[:, None], np.arange(9), r, 2 * len(num))
    elem = np.array([[genfun.extract_element(n, m, genfun.photon_number_kernel(r))
                      for m in range(9)] for n in range(9)])
    worst = float(np.abs(elem - s.T @ (num[:, None] * s)).max())
    checks.append(_check("photon number kernel vs oracle sandwich", worst, 1e-8))
    return checks


def _fourier_rule(m: int, center: float, r: float):
    """Nodes q and weights w with (w * psi(q)) @ e^{-ipq} the Fourier
    integral of psi(q) e^{-ipq} / sqrt(2 pi), for psi a Gaussian of width
    e^{-r} about ``center`` times a polynomial of degree m.  The phase is no
    polynomial, so the rule is not exact; its error falls exponentially in
    the node count, and a fixed m + 41 nodes reaches rounding here."""
    x, w = _gauss_hermite(m + 41)
    s = math.sqrt(2.0) * math.exp(-r)  # psi(q) is e^{-x^2} times a polynomial
    return center + s * x, s * w / math.sqrt(2.0 * math.pi)


def suite_fourier() -> list[dict]:
    checks = []
    worst = 0.0
    for m, r in ((0, 0.0), (1, 0.9), (3, 1.5), (8, 1.2)):
        st = SqueezedNumberState(m, r)
        p = np.array([0.0, 0.7, 1.6]) * math.exp(r)
        q, w = _fourier_rule(m, 0.0, r)
        ft = np.exp(-1j * np.outer(p, q)) @ (w * position_wf(q, st))
        worst = max(worst, float(np.abs(ft - momentum_wf(p, st)).max()))
    checks.append(_check("momentum wf is the Fourier transform of position wf",
                         worst, 1e-7))

    beta, r, p = 0.3, 0.9, 0.7
    q, w = _fourier_rule(0, wave_packet_center(beta, r), r)
    ft = np.exp(-1j * p * q) @ (w * position_wf_scs(q, beta, r))
    checks.append(_check("squeezed coherent Fourier pair",
                         abs(ft - momentum_wf_scs(p, beta, r)), 1e-8))
    return checks


def suite_transition() -> list[dict]:
    checks = []
    for m in range(3, 10):
        res = analysis.transition_scan(m, 0.1, 0.5 * math.log(m) + 0.7, 0.02)
        checks.append(_check(f"transition onset m={m} near half-log law",
                             abs(res.r_star - 0.5 * math.log(m)), 0.15))
    return checks


SUITES = {
    "parity": suite_parity,
    "normalization": suite_normalization,
    "oracle": suite_oracle,
    "genfun": suite_genfun,
    "fourier": suite_fourier,
    "transition": suite_transition,
}


def run_suites(names) -> dict:
    """Run the requested suites ("all" for every one) on their fixed states
    and assemble the v1 report.  Raises ``ValueError`` for an unknown suite
    before any suite runs."""
    if "all" in names:
        names = list(SUITES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
    report = {"schema": "v1", "suites": {}, "passed": True}
    for name in names:
        checks = SUITES[name]()
        ok = all(c["passed"] for c in checks)
        report["suites"][name] = {"checks": checks, "passed": ok}
        report["passed"] = report["passed"] and ok
    return report
