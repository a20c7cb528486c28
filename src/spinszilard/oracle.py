"""Brute-force finite-temperature canonical ensemble for small particle numbers.

Independent of every closed form in this package: partition functions are
built by dynamic programming over well levels with degenerate occupancies,
equilibrium wall positions by direct free-energy maximization. Each box's DP
runs until a level changes nothing, and its one pass gives ln Z for every
particle count. Only the lighter half of the outcomes is searched: m on the
left is N - m on the right, so their walls and f* mirror each other. Used to
validate the low-temperature analytics.
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


def split_partition(
    N: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> np.ndarray:
    """ln Z_m = ln Z_left(m) + ln Z_right(N - m) for m = 0..N, with the wall at ``wall_pos``.

    One DP pass of count N per box serves every m; the left box raises first.
    """
    if not 0 < wall_pos < geometry.length:
        raise ValueError("wall_pos must lie strictly inside the well")

    def ln_z(width: float) -> np.ndarray:
        return box_partition(N, BoxSpectrum(width, spin.degeneracy, spin.kind, geometry), thermal)

    return ln_z(wall_pos) + ln_z(geometry.length - wall_pos)[::-1]


def exact_distribution(
    N: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> MeasurementDistribution:
    """Exact finite-temperature f_m = Z_m / sum_n Z_n at the given wall position."""
    log_zm = split_partition(N, wall_pos, spin, geometry, thermal)
    weights = np.exp(log_zm - np.max(log_zm))
    return MeasurementDistribution(
        support=np.arange(N + 1, dtype=np.int64), probabilities=weights / np.sum(weights)
    )


def exact_equilibria(
    N: int, spin: SpinStatistics, geometry: WellGeometry, thermal: ThermalPoint
) -> tuple[WallPosition, ...]:
    """Wall positions maximizing ln Z_m for m = 0..N.

    Each lighter-half outcome 0 < m < N/2 gets one golden-section maximization
    on (0, L/2), where its one maximum lies. The rest mirror them: m on the left
    is N - m on the right, so l_{N-m} = L - l_m, and an even N's central wall
    sits at L/2.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    L = geometry.length

    def ln_z(pos: float, m: int) -> float:
        return split_partition(N, pos, spin, geometry, thermal)[m]

    lighter = [0.0]
    for m in range(1, (N + 1) // 2):
        a, b = 0.0, 0.5 * L
        x1 = b - _INV_PHI * (b - a)
        x2 = a + _INV_PHI * (b - a)
        f1, f2 = ln_z(x1, m), ln_z(x2, m)
        while b - a > POSITION_TOLERANCE * L:
            if f1 < f2:
                a, x1, f1 = x1, x2, f2
                x2 = a + _INV_PHI * (b - a)
                f2 = ln_z(x2, m)
            else:
                b, x2, f2 = x2, x1, f1
                x1 = b - _INV_PHI * (b - a)
                f1 = ln_z(x1, m)
        lighter.append(0.5 * (a + b))
    central = [0.5 * L] if N % 2 == 0 else []
    heavier = [L - pos for pos in reversed(lighter)]
    # an empty well has only its wall at 0
    positions = lighter + central + heavier if N else lighter
    return tuple(
        WallPosition(ratio=pos / (L - pos) if pos < L else math.inf, position=pos)
        for pos in positions
    )


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
    equilibria = exact_equilibria(N, spin, geometry, thermal)
    # ln f*_m, kept in logs: at low T, f*_m underflows where ln f*_m does not
    log_fstar = np.zeros(N + 1)  # at a boundary Z_m is the only surviving term
    for m in range(1, N // 2 + 1):
        # the mirrored wall of N - m sees this ln Z vector reversed: f*_{N-m} = f*_m
        log_zn = split_partition(N, equilibria[m].position, spin, geometry, thermal)
        log_fstar[m] = log_fstar[N - m] = log_zn[m] - np.logaddexp.reduce(log_zn)
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
        equilibria=equilibria,
        post_expansion=np.exp(log_fstar),
        total_work=work,
    )
