"""Low-temperature closed forms for the boson engine.

All N bosons condense onto the first level of their half of the well, so
the measurement outcome m ranges over the full [0, N] and the statistical
weights count (2s+1)-fold degenerate bosonic occupations:
C(m + 2s, m) C(N - m + 2s, N - m) configurations leave m on the left. A half's
wall load is its particle count. ``Bosons`` is one spin: each N's outcomes
m = 0..N on level 1, and the counts, each a product of two elements of one run
down the diagonal C(j + 2s, j). ``BosonFilling`` is one N, with its outcome
table's columns; its counts are its ``Bosons``' ``light_ways``, the same
function, over one N's outcomes where a range pass takes a chunk's. As
s -> infinity the counts become C(N, m) (``LargeSpinLimit`` for the species,
``LargeSpinBosons`` for one N), which do not factor: that species forms one
row run per N.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .combinatorics import binomial_diagonal, binomial_row
from .information import (  # noqa: F401  (re-exported species-agnostic path)
    LightHalf,
    Outcomes,
    factored_ways,
    load_ranges,
    measurement_distribution,
    relative_entropy_work,
    total_work,
    work_coefficients,
)


@dataclass(frozen=True)
class Bosons:
    """Spin-s bosons: each N's filling, and the range pass's ``Species``."""

    s: int

    def __post_init__(self) -> None:
        if self.s < 0:
            raise ValueError(f"s must be >= 0, got {self.s}")

    def filling(self, N: int) -> BosonFilling:
        return BosonFilling(N=N, s=self.s)

    def outcomes(self, N: int) -> Outcomes:
        """Every count m = 0..N on the ground level, whose loads are the counts."""
        if N < 0:
            raise ValueError(f"N must be >= 0, got {N}")
        return (range(N + 1), 1, 0, 1)

    def light_ways(self, counted: Sequence[range]) -> Iterable[list[int]]:
        """C(m + 2s, m) C(N - m + 2s, N - m) of each range m = 0..N, from one diagonal run."""
        return factored_ways(counted, functools.partial(binomial_diagonal, 2 * self.s, 0))


@dataclass(frozen=True)
class BosonFilling(LightHalf):
    """N spin-s bosons (integer s) on the ground level of each half."""

    N: int
    s: int

    #: the spin's one count formula: it reads only s
    light_ways = Bosons.light_ways

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")
        if self.s < 0:
            raise ValueError(f"s must be >= 0, got {self.s}")

    @property
    def support(self) -> range:
        return range(0, self.N + 1)

    #: every boson is counted, and an outcome is the count on the left
    counted = support

    @property
    def level(self) -> int:
        """Every boson condenses onto the ground level of its half."""
        return 1

    def loads(self, ms: range) -> tuple[range, range]:
        """The loads m and N - m of the halves at each outcome m: the loads are the counts."""
        return load_ranges(0, 1, ms.start, self.N - ms.start, len(ms))


class LargeSpinLimit:
    """The s -> infinity limit of bosons, as the range pass reads it."""

    outcomes = Bosons.outcomes

    def light_ways(self, counted: Sequence[range]) -> Iterator[list[int]]:
        """C(N, m) of the lighter half of each range m = 0..N, one run along row N each: the
        counts do not factor."""
        for ms in counted:
            yield binomial_row(len(ms) - 1, 0, (len(ms) + 1) // 2)


@dataclass(frozen=True)
class LargeSpinBosons(LightHalf):
    """The s -> infinity limit of N bosons: each one is on either side with probability 1/2.

    Only the counts change, to C(N, m); the outcomes, level and walls are ``BosonFilling``'s.
    """

    N: int

    def __post_init__(self) -> None:
        if self.N < 0:
            raise ValueError(f"N must be >= 0, got {self.N}")

    support = counted = BosonFilling.support
    level = BosonFilling.level
    loads = BosonFilling.loads
    light_ways = LargeSpinLimit.light_ways
