"""Low-temperature closed forms for the fermion engine.

With N = 4un + k particles (u = s + 1/2), the n lowest levels of each half
are completely filled and only the k remainder particles on level n+1 carry
statistical weight: C(2u, p) C(2u, k-p) configurations leave p of them on
the left. For k < 2u the paper counts these particles directly; for k >= 2u
it counts the unoccupied states (holes) instead, which gives the same counts.
A half holding p of them has the load 2u (1 + 4 + ... + n^2) + p (n+1)^2.
``Fermions`` is one spin: each N's range of remainder counts p, its level and
its two load integers, and the counts, each a product of two elements of one
run along row 2u. ``FermionFilling`` is one N, with its outcome table's
columns; its counts are its ``Fermions``' ``light_ways``, the same function,
over one N's range of p where a range pass takes a chunk's.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .combinatorics import binomial_row
from .core import HBAR, WellGeometry
from .information import (  # noqa: F401  (re-exported species-agnostic path)
    LightHalf,
    Outcomes,
    factored_ways,
    load_ranges,
    measurement_distribution,
    outcome_table,
    relative_entropy_work,
    total_work,
    work_coefficients,
)


def _counted(u: int, k: int) -> range:
    """The counts p of remainder particles the left half can hold: at most 2u on each side."""
    return range(max(0, k - 2 * u), min(k, 2 * u) + 1)


def _shell_loads(u: int, n: int) -> tuple[int, int]:
    """A half's load with no remainder particle, 2u (1 + 4 + ... + n^2), and each one's, (n+1)^2."""
    return u * n * (n + 1) * (2 * n + 1) // 3, (n + 1) ** 2


@dataclass(frozen=True)
class Fermions:
    """Spin-(u - 1/2) fermions: each N's filling, and the range pass's ``Species``."""

    u: int

    def __post_init__(self) -> None:
        if self.u < 1:
            raise ValueError(f"u must be >= 1, got {self.u}")

    def filling(self, N: int) -> FermionFilling:
        return decompose(N, self.u)

    def outcomes(self, N: int) -> Outcomes:
        """The remainder particles' counts p, level n + 1 and loads of N = 4un + k."""
        if N < 0:
            raise ValueError(f"N must be >= 0, got {N}")
        n, k = divmod(N, 4 * self.u)
        return (_counted(self.u, k), n + 1, *_shell_loads(self.u, n))

    def light_ways(self, counted: Sequence[range]) -> Iterable[list[int]]:
        """C(2u, p) C(2u, k - p) over each range of p, with k = lowest + highest, from one
        run along row 2u."""
        return factored_ways(counted, functools.partial(binomial_row, 2 * self.u, 0))


@dataclass(frozen=True)
class FermionFilling(LightHalf):
    """Decomposition N = 4 u n + k with 0 <= k < 4u."""

    N: int
    u: int
    n: int
    k: int

    #: the spin's one count formula: it reads only u
    light_ways = Fermions.light_ways

    @property
    def counted(self) -> range:
        """The counts p of remainder particles the left half can hold."""
        return _counted(self.u, self.k)

    @property
    def support(self) -> range:
        """m = 2un + p for every count p of remainder particles the left half can hold."""
        base = 2 * self.u * self.n
        counted = _counted(self.u, self.k)
        return range(base + counted.start, base + counted.stop)

    @property
    def level(self) -> int:
        """The partly filled level, n + 1."""
        return self.n + 1

    def loads(self, ms: range) -> tuple[range, range]:
        """The loads of the halves at each outcome m, which leaves p = m - 2un remainder
        particles on the left and k - p on the right."""
        p = ms.start - 2 * self.u * self.n
        return load_ranges(*_shell_loads(self.u, self.n), p, self.k - p, len(ms))


def decompose(N: int, u: int) -> FermionFilling:
    """Split a particle count into filled shells and remainder, N = 4un + k."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    n, k = divmod(N, 4 * u)
    return FermionFilling(N=N, u=u, n=n, k=k)


def filled_shell_limits(u: int, k: int, geometry: WellGeometry) -> tuple[float, float]:
    """D_F at remainder k and the filled-shell limit of W_0F / N, from one outcome table.

    Both depend on (u, k) only: D_F is the slope of the N = k filling, and the
    limit of the average absorbed work is periodic in N with period 4u and
    symmetric about k = 2u. The limit is per particle, so it has no T_c.
    """
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    if not 0 <= k < 4 * u:
        raise ValueError(f"require 0 <= k < 4u, got k={k}, u={u}")
    table = outcome_table(FermionFilling(N=k, u=u, n=0, k=k), geometry)
    probs = table.f.tolist()
    kk = len(probs) - 1  # particles, or holes for k >= 2u, on the partly filled level
    total = 0.0
    for idx in range(1, (kk - 1) // 2 + 1):
        total += idx * probs[idx] * (kk - 2 * idx)
    scale = math.pi**2 * HBAR**2 / (u * u * geometry.mass * geometry.length**2)
    return table.work_coefficients().slope, scale * total
