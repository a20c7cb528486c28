"""Brute-force finite-temperature canonical ensemble for small particle numbers.

Independent of every closed form in this package: partition functions are
built by dynamic programming over well levels with degenerate occupancies,
equilibrium wall positions by direct free-energy maximization. One DP pass per
box gives ln Z for every particle count and every doubled level cutoff. Used
to validate the low-temperature analytics.
"""
from __future__ import annotations

import itertools
import math
from collections.abc import Iterator
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

#: Default level cutoff and the hard ceiling reached by automatic doubling.
DEFAULT_LEVEL_CUTOFF = 64
MAX_LEVEL_CUTOFF = 1024
#: Convergence tolerance on ln Z under cutoff doubling.
LN_Z_TOLERANCE = 1e-9
#: Width, as a fraction of L, at which the golden-section wall search stops.
POSITION_TOLERANCE = 1e-10

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(RuntimeError):
    """Level-cutoff doubling hit the ceiling without stabilizing ln Z."""

    def __init__(self, message: str, achieved_delta: float):
        super().__init__(f"{message} (achieved delta {achieved_delta:.3e})")
        self.achieved_delta = achieved_delta


@dataclass(frozen=True)
class BoxSpectrum:
    """Truncated single-box spectrum: levels 1..level_cutoff, g-fold degenerate."""

    width: float
    level_cutoff: int
    degeneracy: int
    kind: ParticleKind
    geometry: WellGeometry

    def __post_init__(self) -> None:
        if self.level_cutoff < 1:
            raise ValueError(f"level_cutoff must be >= 1, got {self.level_cutoff}")
        if self.degeneracy < 1:
            raise ValueError(f"degeneracy must be >= 1, got {self.degeneracy}")


def _ln_z_by_level(count: int, spectrum: BoxSpectrum, thermal: ThermalPoint) -> Iterator[np.ndarray]:
    """ln Z for 0..count identical particles in one box after each of levels 1..cutoff.

    Log-domain DP over levels; per-level occupancy a carries weight C(g,a)
    (fermions) or C(g+a-1,a) (bosons) and Boltzmann factor exp(-beta a E).
    Stops after the first level that changes nothing: every later level adds
    less, so it changes nothing either.
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
    for level in range(1, spectrum.level_cutoff + 1):
        energy = level_energy(level, spectrum.width, spectrum.geometry)
        candidates = np.full((occ_max + 1, count + 1), -np.inf)
        for a in range(occ_max + 1):
            candidates[a, a:] = log_z[: count + 1 - a] + occ_log_weight[a] - beta * a * energy
        updated = np.logaddexp.reduce(candidates, axis=0)
        yield updated
        if np.array_equal(updated, log_z) and log_z[count] > -np.inf:
            return
        log_z = updated


def box_partition(count: int, spectrum: BoxSpectrum, thermal: ThermalPoint) -> np.ndarray:
    """ln Z for 0..count identical particles in one box, levels up to the cutoff."""
    for log_z in _ln_z_by_level(count, spectrum, thermal):
        pass
    return log_z


def _stable_box_ln_z(
    count: int, width: float,
    spin: SpinStatistics, geometry: WellGeometry, thermal: ThermalPoint, n_max: int,
) -> tuple[np.ndarray, np.ndarray, int]:
    """ln Z for 0..count under cutoff doubling, all from one DP pass.

    The pass is read at cutoffs n_max, 2 n_max, ...; each entry is taken at
    the first cutoff where it moved by less than LN_Z_TOLERANCE. Returns
    (ln Z, delta, cutoff): each entry's last change (inf before any doubling)
    and the last cutoff read. Starting cutoffs at or above the default get
    headroom up to MAX_LEVEL_CUTOFF; smaller ones are treated as deliberate
    caps and are allowed a single doubling only.
    """
    ceiling = MAX_LEVEL_CUTOFF if n_max >= DEFAULT_LEVEL_CUTOFF else 2 * n_max
    spectrum = BoxSpectrum(width, ceiling, spin.degeneracy, spin.kind, geometry)
    levels = _ln_z_by_level(count, spectrum, thermal)
    for ln_z in itertools.islice(levels, n_max):
        pass
    value = ln_z
    delta = np.full(count + 1, np.inf)
    delta[0] = 0.0  # an empty box has ln Z = 0 at every cutoff
    cutoff = n_max
    while 2 * cutoff <= ceiling and not (delta < LN_Z_TOLERANCE).all():
        previous = ln_z
        for ln_z in itertools.islice(levels, cutoff):
            pass
        cutoff *= 2
        moving = ~(delta < LN_Z_TOLERANCE)
        delta = np.where(moving, np.abs(ln_z - previous), delta)
        value = np.where(moving, ln_z, value)
    return value, delta, cutoff


def _split_ln_z(
    lo: int, hi: int, N: int, wall_pos: float,
    spin: SpinStatistics, geometry: WellGeometry, thermal: ThermalPoint, n_max: int,
) -> np.ndarray:
    """ln Z_m = ln Z_left(m) + ln Z_right(N - m) for m = lo..hi, one DP pass per box."""
    if not 0 < wall_pos < geometry.length:
        raise ValueError("wall_pos must lie strictly inside the well")
    left, left_delta, left_cutoff = _stable_box_ln_z(hi, wall_pos, spin, geometry, thermal, n_max)
    right, right_delta, right_cutoff = _stable_box_ln_z(
        N - lo, geometry.length - wall_pos, spin, geometry, thermal, n_max
    )
    # the first unstable entry in single-m order: m ascending, left box first
    deltas = np.column_stack((left_delta[lo:], right_delta[N - hi :][::-1])).ravel()
    failed = np.flatnonzero(~(deltas < LN_Z_TOLERANCE))
    if failed.size:
        # an unstable box read every cutoff; the other may have stopped early
        cutoff = max(left_cutoff, right_cutoff)
        raise ConvergenceError(f"ln Z not stable at level cutoff {cutoff}", float(deltas[failed[0]]))
    return left[lo:] + right[N - hi :][::-1]


def split_partition(
    m: int,
    N: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
    n_max: int = DEFAULT_LEVEL_CUTOFF,
) -> float:
    """ln Z_m with the wall at ``wall_pos``: m particles in the left box, N - m in the right."""
    if not 0 <= m <= N:
        raise ValueError(f"require 0 <= m <= N, got m={m}, N={N}")
    return float(_split_ln_z(m, m, N, wall_pos, spin, geometry, thermal, n_max)[0])


def exact_distribution(
    N: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
    n_max: int = DEFAULT_LEVEL_CUTOFF,
) -> MeasurementDistribution:
    """Exact finite-temperature f_m = Z_m / sum_n Z_n at the given wall position."""
    log_zm = _split_ln_z(0, N, N, wall_pos, spin, geometry, thermal, n_max)
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
    n_max: int = DEFAULT_LEVEL_CUTOFF,
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
        return split_partition(m, N, pos, spin, geometry, thermal, n_max)

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
    n_max: int = DEFAULT_LEVEL_CUTOFF,
) -> OracleCycle:
    """Run the full exact cycle: measure, move each wall to equilibrium, total work."""
    L = geometry.length
    if insertion is None:
        insertion = 0.5 * L
    if not 0 < insertion < L:
        raise ValueError("insertion must lie strictly inside the well")
    dist = exact_distribution(N, insertion, spin, geometry, thermal, n_max)
    equilibria = []
    fstar = np.empty(N + 1)
    for m in range(N + 1):
        wall = exact_equilibrium(m, N, spin, geometry, thermal, n_max)
        equilibria.append(wall)
        if wall.at_boundary:
            # every particle sits in one box: Z_m is the only surviving term
            fstar[m] = 1.0
        else:
            log_zn = _split_ln_z(0, N, N, wall.position, spin, geometry, thermal, n_max)
            shifted = log_zn - np.max(log_zn)
            fstar[m] = math.exp(shifted[m]) / float(np.sum(np.exp(shifted)))
    acc = 0.0
    for m in range(N + 1):
        f = float(dist.probabilities[m])
        if f > 0:
            acc += f * math.log(f / fstar[m])
    work = -BOLTZMANN * thermal.temperature * acc
    return OracleCycle(
        N=N,
        insertion=insertion,
        distribution=dist,
        equilibria=tuple(equilibria),
        post_expansion=fstar,
        total_work=work,
    )
