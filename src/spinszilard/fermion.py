"""Low-temperature closed forms for the fermion engine.

With N = 4un + k particles (u = s + 1/2), the n lowest levels of each half
are completely filled and only the k remainder particles on level n+1 carry
statistical weight: C(2u, p) C(2u, k-p) configurations leave p of them on
the left. For k < 2u the paper counts these particles directly; for k >= 2u
it counts the unoccupied states (holes) instead, which gives the same counts.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .combinatorics import binomial
from .core import HBAR, WellGeometry
from .equilibrium import fermion_eq_ratio
from .information import (  # noqa: F401  (re-exported species-agnostic path)
    Outcome,
    measurement_distribution,
    relative_entropy_work,
    total_work,
    work_coefficients,
)


@dataclass(frozen=True)
class FermionFilling:
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

    def outcome(self, m: int) -> Outcome:
        """Outcome m leaves p = m - 2un of the remainder particles on the left."""
        u2 = 2 * self.u
        p = m - u2 * self.n
        ways = binomial(u2, p) * binomial(u2, self.k - p)
        return Outcome(ways, self.n + 1, fermion_eq_ratio(self.u, self.n, self.k, p))


def decompose(N: int, u: int) -> FermionFilling:
    """Split a particle count into filled shells and remainder, N = 4un + k."""
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    n, k = divmod(N, 4 * u)
    return FermionFilling(N=N, u=u, n=n, k=k)


def average_absorbed_work(filling: FermionFilling, geometry: WellGeometry) -> float:
    """Absorbed work per particle, W_0F / N."""
    if filling.N < 1:
        raise ValueError("average absorbed work requires N >= 1")
    return work_coefficients(filling, geometry).absorbed / filling.N


def average_absorbed_work_limit(u: int, k: int, geometry: WellGeometry) -> float:
    """Filled-shell limit of the average absorbed work; depends on (u, k) only.

    Periodic in the particle number with period 4u and symmetric about k = 2u.
    """
    if u < 1:
        raise ValueError(f"u must be >= 1, got {u}")
    if not 0 <= k < 4 * u:
        raise ValueError(f"require 0 <= k < 4u, got k={k}, u={u}")
    probs = measurement_distribution(FermionFilling(N=k, u=u, n=0, k=k)).probabilities.tolist()
    kk = len(probs) - 1  # particles, or holes for k >= 2u, on the partly filled level
    total = 0.0
    for idx in range(1, (kk - 1) // 2 + 1):
        total += idx * probs[idx] * (kk - 2 * idx)
    scale = math.pi**2 * HBAR**2 / (u * u * geometry.mass * geometry.length**2)
    return scale * total
