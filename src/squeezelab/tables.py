"""Small data carriers shared by the distribution and analysis layers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["TableMeta", "DistributionTable", "GridSpec"]


@dataclass(frozen=True)
class TableMeta:
    """How a distribution table was truncated, and its parity."""

    truncation: dict = field(default_factory=dict)
    parity: int | None = None  # set for photon tables whose support skips every other n


@dataclass(frozen=True)
class DistributionTable:
    """Ordered (coordinate, probability) samples of one distribution:
    finite, strictly increasing coordinates and finite, nonnegative
    probabilities, else ``ValueError``."""

    coords: np.ndarray
    probs: np.ndarray
    meta: TableMeta = field(default_factory=TableMeta)

    def __post_init__(self):
        coords = np.asarray(self.coords)
        probs = np.asarray(self.probs, dtype=float)
        if coords.shape != probs.shape or coords.ndim != 1:
            raise ValueError("coords and probs must be 1-d arrays of equal length")
        if not (np.all(np.isfinite(coords)) and np.all(np.isfinite(probs))):
            raise ValueError("coords and probs must be finite")
        if len(coords) > 1 and not np.all(np.diff(coords) > 0):
            raise ValueError("coords must be strictly increasing")
        if np.any(probs < 0.0):
            raise ValueError("probabilities must be nonnegative")
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "probs", probs)

    def __len__(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class GridSpec:
    """Rectangular grid in the complex plane (Re alpha, Im alpha).

    Raises ``ValueError`` unless the extents are finite with min < max and
    each point count is an integer (not a bool) of at least 2."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    n_re: int
    n_im: int

    def __post_init__(self):
        for name in ("re_min", "re_max", "im_min", "im_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid extents must satisfy min < max on both axes")
        for name in ("n_re", "n_im"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
        if self.n_re < 2 or self.n_im < 2:
            raise ValueError("grid needs at least 2 points per axis")

    def axes(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.linspace(self.re_min, self.re_max, self.n_re),
                np.linspace(self.im_min, self.im_max, self.n_im))
