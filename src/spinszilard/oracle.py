"""Brute-force finite-temperature canonical ensemble for small particle numbers.

Independent of every closed form in this package: partition functions are
built by dynamic programming over well levels with degenerate occupancies,
equilibrium wall positions by direct free-energy maximization. Each box's DP
runs until a level changes nothing, and its one pass gives ln Z for every
particle count. Used to validate the low-temperature analytics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .combinatorics import binomial, bose_state_count
from .core import (
    BOLTZMANN,
    MeasurementDistribution,
    ParticleKind,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
    level_energy,
)
from .equilibrium import WallPosition

#: The most levels a box DP may add before ln Z must have stopped changing.
MAX_LEVEL_CUTOFF = 1024
#: Width, as a fraction of L, at which the golden-section wall search stops.
POSITION_TOLERANCE = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(RuntimeError):
    """A box DP added MAX_LEVEL_CUTOFF levels and ln Z was still changing."""

    def __init__(self, message: str, achieved_delta: float):
        super().__init__(f"{message} (achieved delta {achieved_delta:.3e})")
        self.achieved_delta = achieved_delta


@dataclass(frozen=True)
class BoxSpectrum:
    """Single-box spectrum: levels 1, 2, ... of one width, each g-fold degenerate."""

    width: float
    degeneracy: int
    kind: ParticleKind
    geometry: WellGeometry

    def __post_init__(self) -> None:
        if self.degeneracy < 1:
            raise ValueError(f"degeneracy must be >= 1, got {self.degeneracy}")


def box_partition(count: int, spectrum: BoxSpectrum, thermal: ThermalPoint) -> np.ndarray:
    """ln Z for 0..count identical particles in one box.

    Log-domain DP over levels; per-level occupancy a carries weight C(g,a)
    (fermions) or C(g+a-1,a) (bosons) and Boltzmann factor exp(-beta a E).
    Returns after the first level that changes nothing: levels rise in energy,
    so every later level adds less and changes nothing either. Raises
    ConvergenceError, with the largest change of the last level, if
    MAX_LEVEL_CUTOFF levels pass first.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    beta = thermal.beta
    g = spectrum.degeneracy
    if spectrum.kind is ParticleKind.FERMION:
        occ_max = min(g, count)
        occ_log_weight = [math.log(binomial(g, a)) for a in range(occ_max + 1)]
    else:
        occ_max = count
        occ_log_weight = [math.log(bose_state_count(g, a)) for a in range(occ_max + 1)]
    log_z = np.full(count + 1, -np.inf)
    log_z[0] = 0.0
    for level in range(1, MAX_LEVEL_CUTOFF + 1):
        energy = level_energy(level, spectrum.width, spectrum.geometry)
        candidates = np.full((occ_max + 1, count + 1), -np.inf)
        for a in range(occ_max + 1):
            candidates[a, a:] = log_z[: count + 1 - a] + occ_log_weight[a] - beta * a * energy
        updated = np.logaddexp.reduce(candidates, axis=0)
        if np.array_equal(updated, log_z) and log_z[count] > -np.inf:
            return updated
        previous, log_z = log_z, updated
    delta = float(np.max(log_z - previous))  # a level only adds to each Z
    raise ConvergenceError(f"ln Z not stable at level cutoff {MAX_LEVEL_CUTOFF}", delta)


def _split_ln_z(
    lo: int, hi: int, N: int, wall_pos: float,
    spin: SpinStatistics, geometry: WellGeometry, thermal: ThermalPoint,
) -> np.ndarray:
    """ln Z_m = ln Z_left(m) + ln Z_right(N - m) for m = lo..hi, one DP pass per box."""
    if not 0 < wall_pos < geometry.length:
        raise ValueError("wall_pos must lie strictly inside the well")

    def ln_z(count: int, width: float) -> np.ndarray:
        return box_partition(count, BoxSpectrum(width, spin.degeneracy, spin.kind, geometry), thermal)

    left = ln_z(hi, wall_pos)  # the left box raises first
    right = ln_z(N - lo, geometry.length - wall_pos)
    return left[lo:] + right[N - hi :][::-1]


def split_partition(
    m: int,
    N: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> float:
    """ln Z_m with the wall at ``wall_pos``: m particles in the left box, N - m in the right."""
    if not 0 <= m <= N:
        raise ValueError(f"require 0 <= m <= N, got m={m}, N={N}")
    return float(_split_ln_z(m, m, N, wall_pos, spin, geometry, thermal)[0])


def exact_distribution(
    N: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> MeasurementDistribution:
    """Exact finite-temperature f_m = Z_m / sum_n Z_n at the given wall position."""
    log_zm = _split_ln_z(0, N, N, wall_pos, spin, geometry, thermal)
    weights = np.exp(log_zm - np.max(log_zm))
    return MeasurementDistribution(
        support=np.arange(N + 1, dtype=np.int64), probabilities=weights / np.sum(weights)
    )


def exact_equilibrium(
    m: int,
    N: int,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> WallPosition:
    """Wall position maximizing ln Z_m: coarse scan then golden-section refinement."""
    if not 0 <= m <= N:
        raise ValueError(f"require 0 <= m <= N, got m={m}, N={N}")
    L = geometry.length
    if m == 0:
        return WallPosition(ratio=0.0, position=0.0)
    if m == N:
        return WallPosition(ratio=math.inf, position=L)

    def objective(pos: float) -> float:
        return split_partition(m, N, pos, spin, geometry, thermal)

    grid = np.linspace(0.0, L, 66)[1:-1]
    values = [objective(float(pos)) for pos in grid]
    best = int(np.argmax(values))
    lo = float(grid[max(best - 1, 0)])
    hi = float(grid[min(best + 1, len(grid) - 1)])

    # golden-section maximization on [lo, hi]
    a, b = lo, hi
    x1 = b - _INV_PHI * (b - a)
    x2 = a + _INV_PHI * (b - a)
    f1, f2 = objective(x1), objective(x2)
    while b - a > POSITION_TOLERANCE * L:
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_PHI * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_PHI * (b - a)
            f1 = objective(x1)
    position = 0.5 * (a + b)
    return WallPosition(ratio=position / (L - position), position=position)


@dataclass(frozen=True)
class OracleCycle:
    """Exact per-cycle quantities at one temperature and insertion position."""

    N: int
    insertion: float
    distribution: MeasurementDistribution
    equilibria: tuple[WallPosition, ...]
    post_expansion: np.ndarray
    total_work: float


def ensemble_cycle(
    N: int,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
    insertion: float | None = None,
) -> OracleCycle:
    """Run the full exact cycle: measure, move each wall to equilibrium, total work."""
    L = geometry.length
    if insertion is None:
        insertion = 0.5 * L
    if not 0 < insertion < L:
        raise ValueError("insertion must lie strictly inside the well")
    dist = exact_distribution(N, insertion, spin, geometry, thermal)
    equilibria = []
    # ln f*_m, kept in logs: at low T, f*_m underflows where ln f*_m does not
    log_fstar = np.zeros(N + 1)  # at a boundary Z_m is the only surviving term
    for m in range(N + 1):
        wall = exact_equilibrium(m, N, spin, geometry, thermal)
        equilibria.append(wall)
        if not wall.at_boundary:
            log_zn = _split_ln_z(0, N, N, wall.position, spin, geometry, thermal)
            log_fstar[m] = log_zn[m] - np.logaddexp.reduce(log_zn)
    acc = 0.0
    for m in range(N + 1):
        f = float(dist.probabilities[m])
        if f > 0:
            acc += f * (math.log(f) - log_fstar[m])
    work = -BOLTZMANN * thermal.temperature * acc
    return OracleCycle(
        N=N,
        insertion=insertion,
        distribution=dist,
        equilibria=tuple(equilibria),
        post_expansion=np.exp(log_fstar),
        total_work=work,
    )
