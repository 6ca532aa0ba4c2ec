"""Average-regret rate functions of base algorithms.

A rate function rho(t) is the average regret after t rounds of a
near-stationary run, so t * rho(t) is its cumulative regret.  Each base
learner builds its own with rate(), from its own parameters.  Every rate
has the shape

    rho(t) = min(c1 * t**(p - 1) + c2 / t, c3),

with p in [1/2, 1) and c3 >= 1, which makes rho non-increasing and
t * rho(t) non-decreasing by construction.  The scheduler and the
stationarity tests additionally rely on rho(t) >= 1 / sqrt(t) over the whole
horizon, so that is checked exactly at construction time.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = ["RateFunction"]


@dataclass(frozen=True)
class RateFunction:
    """rho(t) = min(c1 * t**(p-1) + c2 / t, c3)."""

    c1: float
    c2: float
    p: float = 0.5
    c3: float = 1.0
    horizon: int = 1

    def __post_init__(self):
        # written so that nan fails each comparison
        for name in ("c1", "c2"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"rate coefficient {name}={getattr(self, name)} must be nonnegative")
        if not (0.5 <= self.p < 1.0):
            raise ValueError(f"rate exponent p={self.p} outside [1/2, 1)")
        if not self.c3 >= 1.0:
            raise ValueError(f"rate cap c3={self.c3} must be >= 1")
        if isinstance(self.horizon, bool) or not isinstance(self.horizon, numbers.Integral) or self.horizon < 1:
            raise ValueError(f"horizon={self.horizon!r} must be an integer >= 1")
        self._validate_sqrt_floor()

    def _validate_sqrt_floor(self):
        """rho(t) * sqrt(t) >= 1 on every integer t of [1, horizon], checked exactly.

        As c3 >= 1, only g(t) = c1 * t**(p - 1/2) + c2 / sqrt(t) >= 1 can fail.
        g falls and then rises, so its smallest value on the integers lies at
        1, at the horizon, or next to its stationary point
        t* = (c2 / (2 * c1 * (p - 1/2)))**(1/p).
        """
        points = {1, self.horizon}
        slope = 2.0 * self.c1 * (self.p - 0.5)
        if 0.0 < self.c2 < slope * self.horizon**self.p:  # 0 < t* < horizon
            t_star = (self.c2 / slope) ** (1.0 / self.p)
            points.update(max(1, min(self.horizon, t)) for t in (math.floor(t_star), math.ceil(t_star)))
        for t in sorted(points):
            if self.rho(t) * math.sqrt(t) < 1.0 - 1e-12:
                raise ValueError(f"rho(t) >= 1/sqrt(t) violated at t={t} (rho={self.rho(t):.6g})")

    def rho(self, t: float) -> float:
        if t < 1:
            raise ValueError(f"rho(t) needs t >= 1, got {t}")
        return min(self.c1 * t ** (self.p - 1.0) + self.c2 / t, self.c3)
