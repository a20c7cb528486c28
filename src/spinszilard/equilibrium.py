"""Wall equilibrium positions and the level-energy splittings they induce.

After the measurement each wall settles where the ground-state pressures of
its two halves balance. A half's load K is the sum of n^2 over the
one-particle states its particles fill, and the balance closes to a cubic in
the ratio r = l_eq / (L - l_eq): r^3 = K_left / K_right (``eq_ratio``). Each
filling type passes its own loads. Endpoint ratios 0 and inf are first-class
values (wall pushed to a box end); they are never errors here because the
m=0 and m=N measurement outcomes need them.
"""
from __future__ import annotations

import math

import numpy as np

from .core import WellGeometry, level_energy


class WallAtBoundaryError(ValueError):
    """Raised when a level splitting is requested with the wall at a box end."""


_AT_BOUNDARY = (
    "level splitting is undefined with the wall at a box end; "
    "the measurement weight is 1 there by convention"
)


def eq_ratio(left: int, right: int) -> float:
    """Equilibrium ratio (left/right)^(1/3) of two exact-integer loads.

    Returns inf when only the left half is loaded, 1.0 when neither is. The
    loads are divided as integers, which Python rounds correctly, so any two
    load pairs of the same ratio give the same bits. A negative load, which an
    outcome m outside a filling's support forms, raises ValueError.
    """
    if left < 0 or right < 0:
        raise ValueError(f"loads must be >= 0, got {left} and {right}")
    if right == 0:
        return math.inf if left else 1.0
    return (left / right) ** (1.0 / 3.0)


def wall_position(ratio: float, geometry: WellGeometry) -> float:
    """Convert a ratio r = l/(L-l) to an absolute wall position l = L r/(1+r) [m]."""
    if not (ratio >= 0):
        raise ValueError(f"ratio must be >= 0 (or inf), got {ratio}")
    if math.isinf(ratio):
        return geometry.length
    return geometry.length * ratio / (1.0 + ratio)


def level_splits(
    level: int | np.ndarray, ratios: list[float] | tuple[float, ...], geometry: WellGeometry
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
