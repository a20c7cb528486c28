"""Wall equilibrium positions and the level-energy splittings they induce.

The low-temperature balance condition closes to a cubic in the ratio
r = l_eq / (L - l_eq): r^3 equals a rational of the occupation numbers.
Endpoint ratios 0 and inf are first-class values (wall pushed to a box
end); they are never errors here because the m=0 and m=N measurement
outcomes need them.
"""
from __future__ import annotations

import math

import numpy as np

from .core import HBAR, WellGeometry, level_energy


class WallAtBoundaryError(ValueError):
    """Raised when a level splitting is requested with the wall at a box end."""


_AT_BOUNDARY = (
    "level splitting is undefined with the wall at a box end; "
    "the measurement weight is 1 there by convention"
)


def fermion_eq_ratio(u: int, n: int, k: int, p: int) -> float:
    """Equilibrium ratio for p of k partially-filling fermions on the left.

    r^3 = [u n (2n+1) + 3 p (n+1)] / [u n (2n+1) + 3 (k-p) (n+1)].
    Returns inf when only the numerator survives, 1.0 for the symmetric load.
    """
    if u < 1 or n < 0:
        raise ValueError(f"require u >= 1 and n >= 0, got u={u}, n={n}")
    if p < 0 or p > k:
        raise ValueError(f"require 0 <= p <= k, got p={p}, k={k}")
    base = u * n * (2 * n + 1)
    num = base + 3 * p * (n + 1)
    den = base + 3 * (k - p) * (n + 1)
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return (num / den) ** (1.0 / 3.0)


def boson_eq_ratio(m: int, N: int) -> float:
    """Equilibrium ratio for m of N ground-level bosons on the left: (m/(N-m))^(1/3), 1 if N = 0."""
    if N < 0:
        raise ValueError(f"require N >= 0, got {N}")
    if m < 0 or m > N:
        raise ValueError(f"require 0 <= m <= N, got m={m}, N={N}")
    if m == N:
        return math.inf if N else 1.0
    return (m / (N - m)) ** (1.0 / 3.0)


def wall_position(ratio: float, geometry: WellGeometry) -> float:
    """Convert a ratio r = l/(L-l) to an absolute wall position l = L r/(1+r) [m]."""
    if not (ratio >= 0):
        raise ValueError(f"ratio must be >= 0 (or inf), got {ratio}")
    if math.isinf(ratio):
        return geometry.length
    return geometry.length * ratio / (1.0 + ratio)


def level_splits(
    level: int | np.ndarray, ratios: list[float], geometry: WellGeometry
) -> np.ndarray:
    """Exact |E_level(l_eq) - E_level(L - l_eq)| at each interior ratio's wall, as a numpy column.

    ``level`` is one level for every ratio, or a column holding each ratio's level.
    Each element takes a scalar evaluation's operations in its order (l = L r/(1+r),
    then |E(l) - E(L - l)|), so it carries the same bits.
    """
    column = np.array(ratios, dtype=np.float64)
    # a NaN ratio makes the minimum NaN, which fails the first test
    low, high = column.min(initial=math.inf), column.max(initial=1.0)
    if not low >= 0:
        raise ValueError(f"ratios must be >= 0 (or inf), got {ratios}")
    if low == 0.0 or high == math.inf:
        raise WallAtBoundaryError(_AT_BOUNDARY)
    left = geometry.length * column / (1.0 + column)
    # one level_energy call on both widths, row 0 left of the wall and row 1 right
    energies = level_energy(level, np.array([left, geometry.length - left]), geometry)
    return np.abs(energies[0] - energies[1])


def level_split_large_n(u: int, n: int, k: int, p: int, geometry: WellGeometry) -> float:
    """Large-n asymptotic splitting (4 pi^2 hbar^2 / M L^2) (n+1) |k/2u - p/u|."""
    if n < 1:
        raise ValueError(f"large-n form requires n >= 1, got {n}")
    if p < 0 or p > k:
        raise ValueError(f"require 0 <= p <= k, got p={p}, k={k}")
    scale = 4.0 * math.pi**2 * HBAR**2 / (geometry.mass * geometry.length**2)
    return scale * (n + 1) * abs(k / (2.0 * u) - p / u)
