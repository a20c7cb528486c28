"""Low-temperature closed forms for the boson engine.

All N bosons condense onto the first level of their half of the well, so
the measurement outcome m ranges over the full [0, N] and the statistical
weights count (2s+1)-fold degenerate bosonic occupations. A half's wall load
is its particle count. As s -> infinity the counts become C(N, m) (``LargeSpinBosons``).
"""
from __future__ import annotations

import operator
from dataclasses import dataclass

from .combinatorics import binomial_diagonal, binomial_row
from .equilibrium import eq_ratio
from .information import (  # noqa: F401  (re-exported species-agnostic path)
    LightHalf,
    measurement_distribution,
    relative_entropy_work,
    total_work,
    work_coefficients,
)


@dataclass(frozen=True)
class BosonFilling(LightHalf):
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

    @property
    def remainder(self) -> BosonFilling:
        """No closed shells: every boson N has its own counts."""
        return self

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
        """The wall ratio (m/(N-m))^(1/3) of each outcome m: the loads are the counts."""
        return [eq_ratio(m, self.N - m) for m in ms]


@dataclass(frozen=True)
class LargeSpinBosons(LightHalf):
    """The s -> infinity limit of N bosons: each one is on either side with probability 1/2.

    Only the counts change, to C(N, m); the outcomes, level and walls are ``BosonFilling``'s.
    """

    N: int

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")

    support = BosonFilling.support
    level = BosonFilling.level
    remainder = BosonFilling.remainder
    ratios = BosonFilling.ratios

    def ways(self, ms: range) -> list[int]:
        """C(N, m) of each outcome m, one run along row N."""
        return binomial_row(self.N, ms.start, len(ms))
