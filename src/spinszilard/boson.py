"""Low-temperature closed forms for the boson engine.

All N bosons condense onto the first level of their half of the well, so
the measurement outcome m ranges over the full [0, N] and the statistical
weights count (2s+1)-fold degenerate bosonic occupations.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import binomial
from .core import WellGeometry, WorkDecomposition
from .equilibrium import boson_eq_ratio, level_split, wall_position
from .information import (  # noqa: F401  (re-exported species-agnostic path)
    Outcome,
    measurement_distribution,
    relative_entropy_work,
    total_work,
    work_coefficients,
)


@dataclass(frozen=True)
class BosonFilling:
    """N spin-s bosons (integer s) on the ground level of each half."""

    N: int
    s: int

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")
        if self.s < 0:
            raise ValueError(f"s must be >= 0, got {self.s}")

    @property
    def support(self) -> range:
        return range(0, self.N + 1)

    def outcome(self, m: int) -> Outcome:
        """m bosons in the 2s+1 left and N-m in the 2s+1 right ground-level modes."""
        s2 = 2 * self.s
        ways = binomial(m + s2, s2) * binomial(self.N - m + s2, s2)
        return Outcome(ways, 1, boson_eq_ratio(m, self.N))


def large_spin_limits(N: int, geometry: WellGeometry) -> WorkDecomposition:
    """s -> infinity limits of (D_B, W_0B) at fixed particle number."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if N == 0:
        return WorkDecomposition(slope=0.0, absorbed=0.0)
    if N % 2 == 1:
        slope = N * math.log(2.0)
        upper = (N - 1) // 2
    else:
        slope = (1.0 - math.comb(N, N // 2) / 2**N) * N * math.log(2.0)
        upper = N // 2 - 1
    absorbed = 0.0
    for m in range(1, upper + 1):
        wall = wall_position(boson_eq_ratio(m, N), geometry)
        # exact integer division: m C(N, m) and 2^N overflow a float from N = 1021
        absorbed += m * math.comb(N, m) / 2 ** (N - 1) * level_split(1, wall, geometry)
    return WorkDecomposition(slope=slope, absorbed=absorbed)
