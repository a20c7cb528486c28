"""Brute-force finite-temperature canonical ensemble for small particle numbers.

Independent of every closed form in this package: partition functions are
built by dynamic programming over well levels with degenerate occupancies.
Each box's DP runs until a level changes nothing, and its one pass gives ln Z,
<E> and Var E for every particle count. An equilibrium wall is where ln Z_m
stops changing with the wall position: a safeguarded Newton search on that
slope, whose slope and curvature come from the box moments, starting from the
oracle's own ground-state pressure balance. Only the lighter half of the
outcomes is searched: m on the left is N - m on the right, so their walls and
f* mirror each other. Used to validate the low-temperature analytics.
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
#: Step, as a fraction of L, at which the Newton wall search stops.
POSITION_TOLERANCE = 1e-10


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


@dataclass(frozen=True)
class BoxEnsemble:
    """One box's canonical ensemble for 0..count particles: ln Z, <E> and Var E."""

    log_z: np.ndarray
    mean_energy: np.ndarray
    energy_variance: np.ndarray


def box_ensemble(count: int, spectrum: BoxSpectrum, thermal: ThermalPoint) -> BoxEnsemble:
    """ln Z, <E> and Var E for 0..count identical particles in one box.

    Log-domain DP over levels; per-level occupancy a carries weight C(g,a)
    (fermions) or C(g+a-1,a) (bosons) and Boltzmann factor exp(-beta a E).
    Occupancy a of a new level puts the c - a particles below it at a*E more
    energy, with probability exp(candidate - ln Z'), so the new <E> is the
    weighted mean of those shifted means and the new Var E the weighted
    variances plus the spread of the means. Returns after the first level that
    changes no ln Z: levels rise in energy, so every later level adds less and
    changes nothing either. Raises ConvergenceError, with the largest change of
    the last level, if MAX_LEVEL_CUTOFF levels pass first.
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
    mean = np.zeros(count + 1)
    var = np.zeros(count + 1)
    occupancy = np.arange(occ_max + 1)[:, None]
    # [a, c]: the c - a particles below a level holding a; clipped where a > c,
    # whose candidate is -inf and so weighs nothing
    below = np.maximum(np.arange(count + 1) - occupancy, 0)
    for level in range(1, MAX_LEVEL_CUTOFF + 1):
        energy = level_energy(level, spectrum.width, spectrum.geometry)
        candidates = np.full((occ_max + 1, count + 1), -np.inf)
        for a in range(occ_max + 1):
            candidates[a, a:] = log_z[: count + 1 - a] + occ_log_weight[a] - beta * a * energy
        updated = np.logaddexp.reduce(candidates, axis=0)
        # a count no level has reached yet has only -inf candidates: all weights 0
        weight = np.exp(candidates - np.where(updated > -np.inf, updated, 0.0))
        shifted = mean[below] + occupancy * energy
        mean = (weight * shifted).sum(axis=0)
        var = (weight * (var[below] + (shifted - mean) ** 2)).sum(axis=0)
        if np.array_equal(updated, log_z) and log_z[count] > -np.inf:
            return BoxEnsemble(log_z=updated, mean_energy=mean, energy_variance=var)
        previous, log_z = log_z, updated
    delta = float(np.max(log_z - previous))  # a level only adds to each Z
    raise ConvergenceError(f"ln Z not stable at level cutoff {MAX_LEVEL_CUTOFF}", delta)


def box_partition(count: int, spectrum: BoxSpectrum, thermal: ThermalPoint) -> np.ndarray:
    """ln Z for 0..count identical particles in one box (the DP's ln Z vector)."""
    return box_ensemble(count, spectrum, thermal).log_z


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


def ln_z_derivatives(
    N: int,
    m: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> tuple[float, float]:
    """Slope and curvature of ln Z_m in the wall position, m of N particles on the left.

    Box energies scale as 1/w^2, so d ln Z/dw = 2 beta <E>/w and
    d^2 ln Z/dw^2 = (4 beta^2 Var E - 6 beta <E>)/w^2; the right box's width
    shrinks as the wall moves right, which flips the sign of its slope only.
    One DP pass of count m for the left box and of count N - m for the right.
    """
    if not 0 < wall_pos < geometry.length:
        raise ValueError("wall_pos must lie strictly inside the well")
    beta = thermal.beta
    slope = curvature = 0.0
    for count, width, sign in ((m, wall_pos, 1.0), (N - m, geometry.length - wall_pos, -1.0)):
        spectrum = BoxSpectrum(width, spin.degeneracy, spin.kind, geometry)
        box = box_ensemble(count, spectrum, thermal)
        beta_mean = beta * box.mean_energy[count]
        slope += sign * 2.0 * beta_mean / width
        beta_var = beta * box.energy_variance[count]  # beta^2 alone overflows at ~1e-154 K
        curvature += (4.0 * beta * beta_var - 6.0 * beta_mean) / width**2
    return slope, curvature


def exact_equilibria(
    N: int, spin: SpinStatistics, geometry: WellGeometry, thermal: ThermalPoint
) -> tuple[WallPosition, ...]:
    """Wall positions maximizing ln Z_m for m = 0..N.

    Each lighter-half outcome 0 < m < N/2 gets one safeguarded Newton search
    for the zero of ln Z_m's slope on (0, L/2), where its one maximum lies. It
    starts from the ground-state pressure balance l/(L - l) = (K(m)/K(N - m))^(1/3),
    K(c) the sum of n^2 over the c lowest one-particle states, and keeps a
    bracket by the sign of the slope: a Newton step where the curvature is
    negative and the step stays inside the bracket, a bisection otherwise,
    until a step is at most POSITION_TOLERANCE * L. The rest mirror them: m on
    the left is N - m on the right, so l_{N-m} = L - l_m, and an even N's
    central wall sits at L/2.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0, got {N}")
    L = geometry.length

    def ground_k(count: int) -> int:
        if spin.kind is ParticleKind.BOSON:
            return count  # all in level 1
        g = spin.degeneracy
        full, rest = divmod(count, g)
        return g * sum(n * n for n in range(1, full + 1)) + rest * (full + 1) ** 2

    lighter = [0.0]
    for m in range(1, (N + 1) // 2):
        lo, hi = 0.0, 0.5 * L
        ratio = (ground_k(m) / ground_k(N - m)) ** (1.0 / 3.0)
        pos = L * ratio / (1.0 + ratio)
        while True:
            slope, curvature = ln_z_derivatives(N, m, pos, spin, geometry, thermal)
            if slope > 0:
                lo = pos
            elif slope < 0:
                hi = pos
            step = -slope / curvature if curvature < 0 else math.inf
            # against the bracket's offsets, so a step below pos's last bit still counts
            if not lo - pos < step < hi - pos:
                step = 0.5 * (lo + hi) - pos
            pos += step
            if abs(step) <= POSITION_TOLERANCE * L:
                break
        lighter.append(pos)
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
    """Exact per-cycle quantities at one temperature, the wall inserted at L/2."""

    N: int
    distribution: MeasurementDistribution
    equilibria: tuple[WallPosition, ...]
    post_expansion: np.ndarray
    total_work: float


def ensemble_cycle(
    N: int,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> OracleCycle:
    """Run the full exact cycle: measure, move each wall to equilibrium, total work.

    The wall goes in at L/2, where the closed forms insert it.
    """
    dist = exact_distribution(N, 0.5 * geometry.length, spin, geometry, thermal)
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
        distribution=dist,
        equilibria=equilibria,
        post_expansion=np.exp(log_fstar),
        total_work=work,
    )
