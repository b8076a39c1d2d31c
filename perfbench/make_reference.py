"""Arbitrary-precision reference values for the precision-envelope workload.

Evaluates the photon amplitudes <n|m,r> and the Husimi function Q(alpha)
of squeezed number states with mpmath, at a working precision chosen per
value from the cancellation in its finite sum, and writes them to
``data/reference.json``.  It does not import squeezelab: the sums are
written out here from the closed forms

    <n|m,r> = sqrt(m! n!) cosh(r)^{-(n+m+1)/2}
              * sum_k (sinh(r)/2)^{(n+m)/2-k} (-1)^{(n-k)/2}
                      / (k! ((m-k)/2)! ((n-k)/2)!)

    <alpha|m,r> = sqrt(m!/cosh r) exp(-|alpha|^2/2 - tanh(r) conj(alpha)^2/2)
                  * sum_p 2^{-p} sinh(r)^p cosh(r)^{p-m} conj(alpha)^{m-2p}
                          / ((m-2p)! p!)

and each state is checked by two routes that share nothing with them:
the amplitudes must satisfy the eigen-equation b^dag b |m,r> = m |m,r>
with b = cosh(r) a + sinh(r) a^dag, and Q at a few points must equal
|sum_n <alpha|n><n|m,r>|^2 / pi built from the stored amplitudes.

Run from the repository root (takes a few minutes):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import os
import sys

import mpmath as mp
import numpy as np

from envelope import (GRID_SHAPE, GRID_STRIDE, HARD_CAP, PHOTON_FLOOR,
                      PHOTON_POINTS, STATES, qfunc_extents)

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data",
                   "reference.json")
GUARD_DIGITS = 30  # digits kept beyond those lost to cancellation
TAIL_MASS = 1e-15  # photon scan stops once this little mass is left


def _adaptive(terms_at):
    """Sum the terms produced by ``terms_at()`` at a precision that leaves
    GUARD_DIGITS after the cancellation measured in the sum itself."""
    dps = 40
    while True:
        with mp.workdps(dps):
            total, absolute = terms_at()
            if total == 0:
                lost = 0
            else:
                lost = max(0, int(mp.ceil(mp.log10(absolute / abs(total)))))
            if lost + GUARD_DIGITS <= dps:
                return +total
        dps = lost + GUARD_DIGITS + 10


def photon_amplitude(n: int, m: int, r) -> mp.mpf:
    if (n + m) % 2:
        return mp.mpf(0)

    def terms():
        x = mp.sinh(r) / 2
        k = n % 2
        t = ((-1) ** ((n - k) // 2) * x ** ((n + m) // 2 - k)
             / (mp.factorial(k) * mp.factorial((m - k) // 2)
                * mp.factorial((n - k) // 2)))
        total = absolute = mp.mpf(0)
        while k <= min(n, m):
            total += t
            absolute += abs(t)
            t = -t * ((m - k) // 2) * ((n - k) // 2) / (x * x * (k + 1) * (k + 2))
            k += 2
        pref = mp.sqrt(mp.factorial(m) * mp.factorial(n)) / mp.cosh(r) ** (mp.mpf(n + m + 1) / 2)
        return total * pref, absolute * pref

    return _adaptive(terms)


def coherent_amplitude(alpha: complex, m: int, r) -> mp.mpc:
    def terms():
        ac = mp.conj(mp.mpc(alpha))
        sh, ch = mp.sinh(r), mp.cosh(r)
        total = mp.mpc(0)
        absolute = mp.mpf(0)
        for p in range(m // 2 + 1):
            t = (sh ** p * ch ** (p - m) * ac ** (m - 2 * p)
                 / (2 ** p * mp.factorial(m - 2 * p) * mp.factorial(p)))
            total += t
            absolute += abs(t)
        pref = (mp.sqrt(mp.factorial(m) / ch)
                * mp.exp(-abs(ac) ** 2 / 2 - mp.tanh(r) * ac ** 2 / 2))
        return total * pref, absolute * abs(pref)

    return _adaptive(terms)


def photon_reference(m: int, r: float) -> dict:
    """Scan same-parity n until the captured mass is within TAIL_MASS of 1,
    then keep up to PHOTON_POINTS evenly strided rows above PHOTON_FLOOR."""
    rr = mp.mpf(r)
    ns, amps = [], []
    mass = mp.mpf(0)
    n = m % 2
    with mp.workdps(40):
        while 1 - mass > TAIL_MASS:
            a = photon_amplitude(n, m, rr)
            ns.append(n)
            amps.append(a)
            mass += a * a
            n += 2
        residual = _eigen_residual(ns, amps, m, rr)
        mass = float(mass)
    keep = [i for i, a in enumerate(amps) if float(a * a) >= PHOTON_FLOOR]
    stride = max(1, math.ceil(len(keep) / PHOTON_POINTS))
    peak = max(keep, key=lambda i: abs(amps[i]))
    picked = sorted(set(keep[::stride]) | {peak, keep[-1]})
    return {"n": [ns[i] for i in picked],
            "amp": [float(amps[i]) for i in picked],
            "scanned_to": ns[-1], "mass": mass,
            "eigen_residual": residual,
            "_all": (ns, amps)}


def _eigen_residual(ns, amps, m, r) -> float:
    """max_n |(b^dag b - m) psi|_n over the scanned rows, away from the cut."""
    ch, sh = mp.cosh(r), mp.sinh(r)
    worst = mp.mpf(0)
    for i in range(1, len(ns) - 1):
        n = ns[i]
        lhs = ((ch * ch * n + sh * sh * (n + 1) - m) * amps[i]
               + ch * sh * (mp.sqrt(n * (n - 1)) * amps[i - 1]
                            + mp.sqrt((n + 1) * (n + 2)) * amps[i + 1]))
        worst = max(worst, abs(lhs))
    return float(worst)


def husimi_reference(m: int, r: float) -> dict:
    (re_lo, re_hi), (im_lo, im_hi) = qfunc_extents(m, r)
    n_re, n_im = GRID_SHAPE
    re = np.linspace(re_lo, re_hi, n_re)
    im = np.linspace(im_lo, im_hi, n_im)
    rr = mp.mpf(r)

    def q(alpha):
        with mp.workdps(40):
            return float(abs(coherent_amplitude(alpha, m, rr)) ** 2 / mp.pi)

    slice_q = [q(complex(0.0, y)) for y in im]
    s_re, s_im = GRID_STRIDE
    rows = list(range(0, n_im, s_im))
    cols = list(range(0, n_re, s_re))
    grid_q = [[q(complex(re[j], im[i])) for j in cols] for i in rows]
    return {"re_extent": [re_lo, re_hi], "im_extent": [im_lo, im_hi],
            "shape": [n_re, n_im], "rows": rows, "cols": cols,
            "slice_y": im.tolist(), "slice_q": slice_q, "grid_q": grid_q}


def _cross_check(m: int, r: float, photon: dict) -> float:
    """Q at three points from the Fock expansion of the scanned amplitudes,
    against the closed-form coherent sum; returns the worst relative gap."""
    ns, amps = photon["_all"]
    worst = 0.0
    for alpha in (0.4 + 0.3j, 1.1j, -0.7 + 1.9j):
        with mp.workdps(60):
            a = mp.mpc(alpha)
            fock = sum(mp.exp(-abs(a) ** 2 / 2) * mp.conj(a) ** n
                       / mp.sqrt(mp.factorial(n)) * amp for n, amp in zip(ns, amps))
            closed = coherent_amplitude(alpha, m, mp.mpf(r))
            worst = max(worst, float(abs(fock - closed) / max(abs(closed), mp.mpf(1e-30))))
    return worst


def main() -> int:
    states = []
    for m, r in STATES:
        photon = photon_reference(m, r)
        gap = _cross_check(m, r, photon)
        husimi = husimi_reference(m, r)
        del photon["_all"]
        print(f"m={m} r={r}: scanned n<={photon['scanned_to']} mass={photon['mass']:.16f} "
              f"eigen residual={photon['eigen_residual']:.2e} "
              f"Fock-vs-closed Husimi gap={gap:.2e} rows kept={len(photon['n'])}",
              file=sys.stderr)
        if photon["eigen_residual"] > 1e-20 or gap > 1e-20:
            print("reference failed its own cross-check", file=sys.stderr)
            return 1
        states.append({"m": m, "r": r, "photon": photon, "husimi": husimi,
                       "checks": {"eigen_residual": photon["eigen_residual"],
                                  "fock_vs_closed_husimi": gap}})
    payload = {"generator": "perfbench/make_reference.py", "mpmath": mp.__version__,
               "guard_digits": GUARD_DIGITS, "tail_mass": TAIL_MASS,
               "hard_cap": HARD_CAP, "photon_floor": PHOTON_FLOOR,
               "states": states}
    with open(OUT, "w") as fh:
        json.dump(payload, fh, separators=(",", ":"))
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
