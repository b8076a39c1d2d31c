"""Reference checks shared by the test files; not collected as tests."""

import math

from squeezelab.analysis import SliceRatioReport, momentum_density_table
from squeezelab.special import hermite
from squeezelab.squeezed_number import q_slice_imag


def hermite_reduction_check(m: int, x: float) -> float:
    """Residual of the half-argument Hermite expansion.

    Both sides of

        H_m(x) / m! = sum_k 2^{k/2} / (k! ((m-k)/2)!) * H_k(x / sqrt(2))

    are evaluated independently, with k running over 0,2,4,... for even m
    and 1,3,5,... for odd m: the left side by :func:`squeezelab.special.hermite`,
    the right by a plain-float recurrence.  Returns |lhs - rhs| relative to
    the largest magnitude that entered either side, so cancellation inside
    the sum cannot manufacture a spurious large residual.
    """
    if m < 0 or m > 30:
        raise ValueError("m must be in 0..30")
    mant, log_scale = hermite(m, x)
    lhs = mant * math.exp(log_scale) / math.factorial(m)
    u = x / math.sqrt(2.0)
    # all H_k(u) for k <= m in one upward pass (plain floats are safe here)
    hv = [1.0, 2.0 * u]
    for k in range(1, m):
        hv.append(2.0 * u * hv[k] - 2.0 * k * hv[k - 1])
    terms = []
    for k in range(m % 2, m + 1, 2):
        terms.append(2.0 ** (k / 2.0) / (math.factorial(k) * math.factorial((m - k) // 2)) * hv[k])
    rhs = math.fsum(terms)
    scale = max(abs(lhs), abs(rhs), max((abs(t) for t in terms), default=0.0))
    if scale == 0.0:
        return 0.0
    return abs(lhs - rhs) / scale


def direct_map_ratio(state) -> SliceRatioReport:
    """The slice-to-momentum ratio under the map alpha = i sqrt(2) p, which
    contradicts the README convention alpha = i p / sqrt(2).

    Same window as :func:`squeezelab.analysis.slice_proportionality`: the
    p >= 0 rows of :func:`momentum_density_table` above 1e-3 of its peak.
    Under this map the oscillation zeros never line up, so the ratio hits
    zero inside the window and the variation is 1 at every r.
    """
    table = momentum_density_table(state)
    half = table.coords >= 0.0
    p, dens = table.coords[half], table.probs[half]
    mask = dens > 1e-3 * dens.max()
    ratio = q_slice_imag(math.sqrt(2.0) * p[mask], state) / dens[mask]
    rmin, rmax = float(ratio.min()), float(ratio.max())
    return SliceRatioReport(n_points=int(mask.sum()), ratio_min=rmin, ratio_max=rmax,
                            variation=(rmax - rmin) / rmax)
