"""Fixed inputs of the precision-envelope workload, shared by the
reference generator and the benchmark.  Nothing here imports squeezelab."""

from __future__ import annotations

import math

# (m, r) grid on which the closed forms are compared with mpmath
STATES = ((7, 1.4), (20, 2.0), (40, 2.0), (60, 1.0), (100, 0.5), (300, 1.5))
# photon_distribution cutoff cap: the reference mass reaches 1 - 1e-10 by
# n = 6782 on every state, and the states that never converge fail here
# in bounded time instead of running to the default 100 000
HARD_CAP = 10000
PHOTON_FLOOR = 1e-10  # rows with a reference probability below this are not compared
PHOTON_POINTS = 400  # at most this many reference rows are stored per state
GRID_SHAPE = (161, 321)  # (n_re, n_im) of the README qfunc command
GRID_STRIDE = (8, 16)  # every 8th Re column and 16th Im row is compared
DIGITS_MIN = 8.0  # an operation with fewer correct digits fails its check
MASS_TOL = 1e-9  # a photon table whose mass is further than this from 1 fails


def qfunc_extents(m: int, r: float):
    """Default (re, im) extents of ``squeezelab qfunc`` for state (m, r)."""
    lim_re = math.exp(-r) * math.sqrt(2 * m + 1) + 3.0
    lim_im = math.exp(r) * math.sqrt(2 * m + 1) + 3.0
    return (-lim_re, lim_re), (-lim_im, lim_im)


def state_label(m: int, r: float) -> str:
    return f"m{m}-r{r}"
