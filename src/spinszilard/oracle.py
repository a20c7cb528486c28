"""Brute-force finite-temperature canonical ensemble for small particle numbers.

Independent of every closed form in this package: partition functions are
built by dynamic programming over well levels with degenerate occupancies, one
array step per level until a level changes nothing; one pass gives ln Z for
every particle count, and the wall search's passes carry <E> and Var E. An
equilibrium wall is where ln Z_m stops changing with the wall position: a
safeguarded Newton search on that slope, from the oracle's own ground-state
pressure balance. Only the lighter half of the outcomes is searched: m on the
left is N - m on the right, so their walls and f* mirror each other.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BOLTZMANN,
    MeasurementDistribution,
    ParticleKind,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
    level_energy,
)
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


def _level_steps(count: int, spectrum: BoxSpectrum, thermal: ThermalPoint):
    """Yield (occupancy column, below, E, candidates, ln Z') for each level of one box.

    Occupancy a of a level carries weight w_a = C(g,a) (fermions) or C(g+a-1,a)
    (bosons) and Boltzmann factor exp(-beta a E). One array step per level:
    candidates[a, c] = ln Z(below[a, c]) + ln w_a - (beta a) E, -inf where a > c,
    below[a, c] = c - a clipped at 0, and ln Z' is their logaddexp over a. Stops
    after the first level that changes no ln Z: levels rise in energy, so no
    later one could. Raises ValueError where beta times the largest occupancy
    overflows, and ConvergenceError, with the largest change of the last level,
    if MAX_LEVEL_CUTOFF levels pass first.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    g = spectrum.degeneracy
    fermion = spectrum.kind is ParticleKind.FERMION
    occ_max = min(g, count) if fermion else count
    beta = thermal.beta
    if math.isinf(beta * occ_max):
        raise ValueError(f"beta * {occ_max} overflows at T = {thermal.temperature!r} K")
    occupancy = np.arange(occ_max + 1)[:, None]
    beta_occupancy = beta * occupancy
    log_weight = np.array([
        math.log(math.comb(g, a) if fermion else math.comb(g + a - 1, a))
        for a in range(occ_max + 1)
    ])[:, None]
    below = np.arange(count + 1) - occupancy
    held = below >= 0
    below = np.maximum(below, 0)
    log_z = np.full(count + 1, -np.inf)
    log_z[0] = 0.0
    for level in range(1, MAX_LEVEL_CUTOFF + 1):
        energy = level_energy(level, spectrum.width, spectrum.geometry)
        candidates = np.where(held, log_z[below] + log_weight - beta_occupancy * energy, -np.inf)
        updated = np.logaddexp.reduce(candidates, axis=0)
        yield occupancy, below, energy, candidates, updated
        if (updated == log_z).all() and log_z[count] > -np.inf:
            return
        previous, log_z = log_z, updated
    delta = float(np.max(log_z - previous))  # a level only adds to each Z
    raise ConvergenceError(f"ln Z not stable at level cutoff {MAX_LEVEL_CUTOFF}", delta)


def box_partition(count: int, spectrum: BoxSpectrum, thermal: ThermalPoint) -> np.ndarray:
    """ln Z for 0..count identical particles in one box: the DP's levels, no moments."""
    for *_, log_z in _level_steps(count, spectrum, thermal):
        pass
    return log_z


def box_ensemble(count: int, spectrum: BoxSpectrum, thermal: ThermalPoint) -> BoxEnsemble:
    """ln Z, <E> and Var E for 0..count identical particles in one box.

    ``box_partition``'s levels and ln Z, with the moments carried along: occupancy
    a of a new level puts the c - a particles below it at a*E more energy, with
    probability exp(candidate - ln Z'), so the new <E> is the weighted mean of
    those shifted means and the new Var E the weighted variances plus the
    spread of the means.
    """
    mean = var = np.zeros(count + 1)  # rebound each level, never written in place
    for occupancy, below, energy, candidates, log_z in _level_steps(count, spectrum, thermal):
        # a count no level has reached yet has only -inf candidates: all weights 0
        weight = np.exp(candidates - np.where(log_z > -np.inf, log_z, 0.0))
        shifted = mean[below] + occupancy * energy
        mean = (weight * shifted).sum(axis=0)
        var = (weight * (var[below] + (shifted - mean) ** 2)).sum(axis=0)
    return BoxEnsemble(log_z=log_z, mean_energy=mean, energy_variance=var)


def split_partition(
    N: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> np.ndarray:
    """ln Z_m = ln Z_left(m) + ln Z_right(N - m) for m = 0..N, with the wall at ``wall_pos``.

    One DP pass of count N per box serves every m, the left box's first; boxes
    of the same width, as at L/2, share one pass.
    """
    if not 0 < wall_pos < geometry.length:
        raise ValueError("wall_pos must lie strictly inside the well")

    def ln_z(width: float) -> np.ndarray:
        return box_partition(N, BoxSpectrum(width, spin.degeneracy, spin.kind, geometry), thermal)

    left = ln_z(wall_pos)
    right_width = geometry.length - wall_pos
    right = left if right_width == wall_pos else ln_z(right_width)
    return left + right[::-1]


def _normalized(log_zm: np.ndarray) -> MeasurementDistribution:
    """f_m = Z_m / sum_n Z_n from ln Z_m, m = 0..N."""
    weights = np.exp(log_zm - np.max(log_zm))
    return MeasurementDistribution(
        support=np.arange(len(log_zm), dtype=np.int64), probabilities=weights / np.sum(weights)
    )


def exact_distribution(
    N: int,
    wall_pos: float,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> MeasurementDistribution:
    """Exact finite-temperature f_m = Z_m / sum_n Z_n at the given wall position."""
    return _normalized(split_partition(N, wall_pos, spin, geometry, thermal))


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
) -> tuple[float, ...]:
    """Wall positions [m] maximizing ln Z_m for m = 0..N.

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
    return tuple(lighter + central + heavier if N else lighter)


@dataclass(frozen=True)
class OracleCycle:
    """Exact per-cycle quantities at one temperature, the wall inserted at L/2.

    ``equilibria`` holds each outcome m's equilibrium wall position [m], m = 0..N.
    """

    distribution: MeasurementDistribution
    equilibria: tuple[float, ...]
    post_expansion: np.ndarray
    total_work: float


def ensemble_cycle(
    N: int,
    spin: SpinStatistics,
    geometry: WellGeometry,
    thermal: ThermalPoint,
) -> OracleCycle:
    """Run the full exact cycle: measure, move each wall to equilibrium, total work.

    The wall goes in at L/2, where the closed forms insert it. Its one ln Z vector
    gives f_m and, for an even N, f* of the central outcome, whose wall is L/2.
    """
    log_z_half = split_partition(N, 0.5 * geometry.length, spin, geometry, thermal)
    dist = _normalized(log_z_half)
    equilibria = exact_equilibria(N, spin, geometry, thermal)
    # ln f*_m, kept in logs: at low T, f*_m underflows where ln f*_m does not
    log_fstar = np.zeros(N + 1)  # at a boundary Z_m is the only surviving term
    for m in range(1, N // 2 + 1):
        # the mirrored wall of N - m sees this ln Z vector reversed: f*_{N-m} = f*_m
        if 2 * m == N:
            log_zn = log_z_half
        else:
            log_zn = split_partition(N, equilibria[m], spin, geometry, thermal)
        log_fstar[m] = log_fstar[N - m] = log_zn[m] - np.logaddexp.reduce(log_zn)
    acc = 0.0
    for m in range(N + 1):
        f = float(dist.probabilities[m])
        if f > 0:
            acc += f * (math.log(f) - log_fstar[m])
    work = -BOLTZMANN * thermal.temperature * acc
    return OracleCycle(
        distribution=dist,
        equilibria=equilibria,
        post_expansion=np.exp(log_fstar),
        total_work=work,
    )
