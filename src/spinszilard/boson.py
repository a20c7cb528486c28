"""Low-temperature closed forms for the boson engine.

All N bosons condense onto the first level of their half of the well, so
the measurement outcome m ranges over the full [0, N] and the statistical
weights count (2s+1)-fold degenerate bosonic occupations.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .combinatorics import binomial_diagonal, binomial_row
from .core import WellGeometry, WorkDecomposition
from .equilibrium import boson_eq_ratio, level_splits
from .information import (  # noqa: F401  (re-exported species-agnostic path)
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

    @property
    def level(self) -> int:
        """Every boson condenses onto the ground level of its half."""
        return 1

    def ways(self, ms: range) -> list[int]:
        """m bosons in the 2s+1 left and N-m in the 2s+1 right ground-level modes.

        C(m+2s, m) descends a diagonal as m rises, and C(N-m+2s, N-m) as m falls,
        so the right factor is that run read in reverse.
        """
        s2 = 2 * self.s
        fewest = self.N - ms.start - len(ms) + 1  # bosons on the right at the last m
        left = binomial_diagonal(ms.start + s2, ms.start, len(ms))
        right = binomial_diagonal(fewest + s2, fewest, len(ms))
        return list(map(operator.mul, left, reversed(right)))

    def ratios(self, ms: range) -> list[float]:
        """The cubic-rule wall ratio (m/(N-m))^(1/3) of each outcome m."""
        return [boson_eq_ratio(m, self.N) for m in ms]


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
    ms = range(1, upper + 1)
    splits = level_splits(1, [boson_eq_ratio(m, N) for m in ms], geometry)
    scale = 2 ** (N - 1)
    absorbed = 0.0
    for m, count, split in zip(ms, binomial_row(N, 1, upper), splits.tolist()):
        # exact integer division: m C(N, m) and 2^N overflow a float from N = 1021
        absorbed += m * count / scale * split
    return WorkDecomposition(slope=slope, absorbed=absorbed)
