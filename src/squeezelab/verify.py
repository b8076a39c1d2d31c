"""Self-verification suites behind ``squeezelab verify``.

Each suite runs the cross-route and invariant checks of one area at desk
scale and reports machine-readable results.  Everything is deterministic:
the random samples here and the oracle's randomized norm estimates use
fixed seeds, so repeated runs produce identical bytes.
"""

from __future__ import annotations

import math

import numpy as np

from . import analysis, fock_oracle, genfun
from .squeezed_coherent import momentum_wf_scs, position_wf_scs
from .squeezed_number import (SqueezedNumberState, coherent_amplitude,
                              coherent_amplitude_grid, fock_amplitude,
                              momentum_wf, photon_distribution, position_wf)

__all__ = ["SUITES", "run_suites"]

ORACLE_R_SET = (0.3, 0.973, 1.4)


def _check(name: str, measured: float, limit: float, passed=None) -> dict:
    if passed is None:
        passed = bool(measured <= limit)
    return {"name": name, "measured": float(measured), "limit": float(limit),
            "passed": bool(passed)}


def suite_parity(max_m: int = 12) -> list[dict]:
    worst = 0.0
    exact = True
    ns = np.arange(max_m + 1)
    for m in range(max_m + 1):
        a = fock_amplitude(ns, SqueezedNumberState(m, 0.8 + 0.05 * m))[(ns + m) % 2 == 1]
        exact = exact and bool(np.all(a == 0.0))
        worst = max(worst, float(np.abs(a).max(initial=0.0)))
    table = photon_distribution(SqueezedNumberState(5, 1.1))
    off = table.probs[::2]  # m = 5 is odd, even rows are structural zeros
    exact = exact and bool(np.all(off == 0.0))
    return [_check("mixed-parity amplitudes are exactly zero", worst, 0.0, passed=exact)]


def suite_normalization(max_m: int = 7) -> list[dict]:
    from scipy.integrate import quad
    checks = []
    states = [SqueezedNumberState(m, r) for m in (0, 1, min(7, max_m))
              for r in (0.0, 0.5, 1.4)]
    worst = max(abs(photon_distribution(st, 1e-12).probs.sum() - 1.0) for st in states)
    checks.append(_check("photon distributions sum to 1", worst, 1e-9))

    worst_q = worst_p = 0.0
    for st in states:
        lim_q = math.exp(-st.r) * (math.sqrt(2.0 * st.m + 1.0) + 12.0)
        lim_p = math.exp(st.r) * (math.sqrt(2.0 * st.m + 1.0) + 12.0)
        iq = quad(lambda q: position_wf(q, st) ** 2, -lim_q, lim_q, limit=300)[0]
        ip = quad(lambda p: abs(momentum_wf(p, st)) ** 2, -lim_p, lim_p, limit=300)[0]
        worst_q = max(worst_q, abs(iq - 1.0))
        worst_p = max(worst_p, abs(ip - 1.0))
    checks.append(_check("position densities integrate to 1", worst_q, 1e-9))
    checks.append(_check("momentum densities integrate to 1", worst_p, 1e-9))

    nodes = np.polynomial.legendre.leggauss(800)
    worst = 0.0
    for st in states:
        worst = max(worst, abs(_q_total_mass(st, nodes) - 1.0))
    checks.append(_check("Husimi functions integrate to 1", worst, 1e-6))

    worst = 0.0
    for r in (0.0, 0.5, 1.4):
        lim_q = math.exp(-r) * 14.0
        lim_p = math.exp(r) * 14.0
        var_q = quad(lambda q: q * q * position_wf_scs(q, 0.0, r) ** 2,
                     -lim_q, lim_q, limit=300)[0]
        var_p = quad(lambda p: p * p * abs(momentum_wf_scs(p, 0.0, r)) ** 2,
                     -lim_p, lim_p, limit=300)[0]
        worst = max(worst, abs(var_q - 0.5 * math.exp(-2.0 * r)),
                    abs(var_p - 0.5 * math.exp(2.0 * r)))
    checks.append(_check("quadrature variances match e^{+-2r}/2", worst, 1e-8))
    return checks


def _q_total_mass(st: SqueezedNumberState, nodes) -> float:
    """Integral of Q over the plane by the Gauss-Legendre ``nodes`` on a box
    holding all but ~1e-12 of the mass (the Im pad scales with e^r because
    the vacuum smoothing of Q is stretched along that axis)."""
    lim_re = math.exp(-st.r) * math.sqrt(2.0 * st.m + 1.0) + 7.0
    lim_im = math.exp(st.r) * (math.sqrt(2.0 * st.m + 1.0) + 7.0)
    x, wx = nodes
    re = lim_re * x
    im = lim_im * x
    grid = re[None, :] + 1j * im[:, None]
    qv = np.abs(coherent_amplitude_grid(grid, st)) ** 2 / math.pi
    return float(lim_re * lim_im * wx @ qv @ wx)


def suite_oracle(max_m: int = 12) -> list[dict]:
    checks = []
    ns = np.arange(max_m + 1)
    worst_co = worst_go = worst_cg = worst_orth = 0.0
    for r in ORACLE_R_SET:
        states = [SqueezedNumberState(m, r) for m in ns]
        rows = np.arange(fock_oracle.default_dim(max_m, r) // 2)
        cols = fock_oracle.oracle_amplitude(rows[:, None], ns, r)
        oracle = cols[:ns.size]
        eigen = np.column_stack([fock_amplitude(ns, st) for st in states])
        series = np.array([[genfun.extract_amplitude("fock", n, st).real for st in states]
                           for n in ns])
        worst_co = max(worst_co, float(np.abs(eigen - oracle).max()))
        worst_go = max(worst_go, float(np.abs(series - oracle).max()))
        worst_cg = max(worst_cg, float(np.abs(eigen - series).max()))
        worst_orth = max(worst_orth, float(np.abs(cols.T @ cols - np.eye(ns.size)).max()))
    checks.append(_check("eigenvector vs matrix exponential", worst_co, 1e-8))
    checks.append(_check("series extraction vs matrix exponential", worst_go, 1e-8))
    checks.append(_check("eigenvector vs series extraction", worst_cg, 1e-8))
    checks.append(_check("oracle columns are orthonormal", worst_orth, 1e-10))

    worst = 0.0
    for m, r in ((60, 1.0), (100, 0.5), (40, 2.0)):
        n = np.arange(fock_oracle.default_dim(m, r) // 2)
        eigen = fock_amplitude(n, SqueezedNumberState(m, r))
        worst = max(worst, float(np.abs(eigen - fock_oracle.oracle_amplitude(n, m, r)).max()))
    checks.append(_check("eigenvector vs matrix exponential at (60, 1), (100, 0.5), (40, 2)",
                         worst, 1e-12))

    for r, dim in ((0.8, 200), (1.4, 600)):
        res = fock_oracle.bogoliubov_residual(r, dim)
        checks.append(_check(f"ladder-mixing residual r={r} dim={dim}", res, 1e-8))
    return checks


def suite_genfun(max_m: int = 12) -> list[dict]:
    checks = []
    worst = 0.0
    for r in ORACLE_R_SET:
        for m in range(max_m + 1):
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
            elem = genfun.extract_element(n, m, 0.8, genfun.identity_kernel())
            worst_id = max(worst_id, abs(elem - (1.0 if n == m else 0.0)))
            elem = genfun.extract_element(n, m, 0.8, genfun.transformed_number_kernel())
            worst_nb = max(worst_nb, abs(elem - (m if n == m else 0.0)))
    checks.append(_check("identity kernel gives Kronecker delta", worst_id, 1e-10))
    checks.append(_check("squeezed number kernel gives m delta", worst_nb, 1e-10))

    r = 0.8
    num = np.arange(fock_oracle.default_dim(8, r))
    s = fock_oracle.oracle_amplitude(num[:, None], np.arange(9), r, 2 * len(num))
    elem = np.array([[genfun.extract_element(n, m, r, genfun.photon_number_kernel(r))
                      for m in range(9)] for n in range(9)])
    worst = float(np.abs(elem - s.T @ (num[:, None] * s)).max())
    checks.append(_check("photon number kernel vs oracle sandwich", worst, 1e-8))
    return checks


def suite_fourier(max_m: int = 8) -> list[dict]:
    from scipy.integrate import quad
    checks = []
    worst = 0.0
    for m, r in ((0, 0.0), (1, 0.9), (3, 1.5), (min(8, max_m), 1.2)):
        st = SqueezedNumberState(m, r)
        lim = math.exp(-r) * (math.sqrt(2.0 * m + 1.0) + 12.0)
        for p in (0.0, 0.7 * math.exp(r), 1.6 * math.exp(r)):
            re = quad(lambda q: position_wf(q, st) * math.cos(p * q), -lim, lim, limit=400)[0]
            im = quad(lambda q: -position_wf(q, st) * math.sin(p * q), -lim, lim, limit=400)[0]
            ft = complex(re, im) / math.sqrt(2.0 * math.pi)
            worst = max(worst, abs(ft - momentum_wf(p, st)))
    checks.append(_check("momentum wf is the Fourier transform of position wf",
                         worst, 1e-7))

    beta, r, p = 0.3, 0.9, 0.7
    lim = 14.0
    re = quad(lambda q: position_wf_scs(q, beta, r) * math.cos(p * q), -lim, lim, limit=400)[0]
    im = quad(lambda q: -position_wf_scs(q, beta, r) * math.sin(p * q), -lim, lim, limit=400)[0]
    ft = complex(re, im) / math.sqrt(2.0 * math.pi)
    checks.append(_check("squeezed coherent Fourier pair",
                         abs(ft - momentum_wf_scs(p, beta, r)), 1e-8))
    return checks


def suite_transition(max_m: int = 9) -> list[dict]:
    checks = []
    for m in range(3, max_m + 1):
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


def run_suites(names, max_m: int | None = None) -> dict:
    """Run the requested suites and assemble the v1 report."""
    if "all" in names:
        names = list(SUITES)
    report = {"schema": "v1", "suites": {}, "passed": True}
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}")
        kwargs = {} if max_m is None else {"max_m": max_m}
        checks = SUITES[name](**kwargs)
        ok = all(c["passed"] for c in checks)
        report["suites"][name] = {"checks": checks, "passed": ok}
        report["passed"] = report["passed"] and ok
    return report
