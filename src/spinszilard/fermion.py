"""Low-temperature closed forms for the fermion engine.

With N = 4un + k particles (u = s + 1/2), the n lowest levels of each half
are completely filled and only the k remainder particles on level n+1 carry
statistical weight: C(2u, p) C(2u, k-p) configurations leave p of them on
the left. For k < 2u the paper counts these particles directly; for k >= 2u
it counts the unoccupied states (holes) instead, which gives the same counts.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .combinatorics import binomial_row
from .core import HBAR, WellGeometry
from .equilibrium import eq_ratio
from .information import (  # noqa: F401  (re-exported species-agnostic path)
    LightHalf,
    measurement_distribution,
    outcome_table,
    relative_entropy_work,
    total_work,
    work_coefficients,
)


@dataclass(frozen=True)
class FermionFilling(LightHalf):
    """Decomposition N = 4 u n + k with 0 <= k < 4u."""

    N: int
    u: int
    n: int
    k: int

    @property
    def support(self) -> range:
        """m = 2un + p for every count p of remainder particles the left half can hold."""
        base = 2 * self.u * self.n
        return range(base + max(0, self.k - 2 * self.u), base + min(self.k, 2 * self.u) + 1)

    @property
    def level(self) -> int:
        """The partly filled level, n + 1."""
        return self.n + 1

    @property
    def remainder(self) -> FermionFilling:
        """The k remainder particles alone, N = k: the closed shells carry one configuration,
        so the counts, f and D are this filling's own."""
        return FermionFilling(N=self.k, u=self.u, n=0, k=self.k)

    def ways(self, ms: range) -> list[int]:
        """C(2u, p) C(2u, k-p) for each outcome m, which leaves p = m - 2un on the left.

        Both factors ascend row 2u as m rises, C(2u, k-p) as C(2u, 2u - k + p).
        """
        u2 = 2 * self.u
        p = ms.start - u2 * self.n
        left = binomial_row(u2, p, len(ms))
        right = binomial_row(u2, u2 - self.k + p, len(ms))
        return list(map(operator.mul, left, right))

    def ratios(self, ms: range) -> list[float]:
        """The wall ratio of each outcome m, which leaves p = m - 2un remainder particles on the left.

        A half holding p of them has load 2u (1 + 4 + ... + n^2) + p (n+1)^2, an exact integer.
        """
        shells = self.u * self.n * (self.n + 1) * (2 * self.n + 1) // 3
        top = (self.n + 1) ** 2
        base = 2 * self.u * self.n
        return [eq_ratio(shells + (m - base) * top, shells + (self.k + base - m) * top) for m in ms]


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
