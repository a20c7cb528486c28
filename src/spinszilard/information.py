"""The closed-form observables, one path for both species.

A species' filling type only counts the configurations of its remainder:
over all outcomes (``total_ways``), with all of it on one side
(``edge_ways``) and, through its row builder ``outcome(m)``, for outcome m.
This module turns the counts into one table row per outcome, f_m, ln f_m and
ln f_m* = lw_m - beta c_m with lw_m = ln(ways/edge_ways) and c_m = mu_m dE_m
(mu_m remainder particles on the lighter side, dE_m the level splitting at
the wall), and reduces the table to every observable for both species.

Entropies are kept in nats throughout (one bit = ln 2 nats); the erasure
cost k_B T H(f) is identical either way and nats avoid conversion factors
in the W_net = W_tot - W_eras identity.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Protocol

import numpy as np

from .core import (
    BOLTZMANN,
    MeasurementDistribution,
    ThermalPoint,
    WellGeometry,
    WorkDecomposition,
)
from .equilibrium import level_split, wall_position


class Outcome(NamedTuple):
    """One measurement outcome m, as a species' row builder returns it."""

    ways: int  # configurations of the remainder that give outcome m
    level: int  # the partly filled level, whose splitting sets f_m*
    ratio: float  # analytic equilibrium wall ratio l/(L - l)


class Filling(Protocol):
    """A species' filling type: its outcomes, ascending, their counts and its row builder."""

    @property
    def support(self) -> range: ...

    @property
    def total_ways(self) -> int: ...

    @property
    def edge_ways(self) -> int: ...

    def outcome(self, m: int) -> Outcome: ...


class OutcomeRow(NamedTuple):
    """Outcome m's f_m, ln f_m, and ln f_m* = log_prefactor - beta * energy."""

    f: float
    log_f: float
    log_prefactor: float
    energy: float  # c_m [J]


class UndefinedEfficiencyError(ValueError):
    """Measurement outcome is deterministic: zero erasure work, no efficiency."""


def _prefactor_energy(
    out: Outcome, mu: int, central: bool, log_norm: float, geometry: WellGeometry
) -> tuple[float, float]:
    """lw_m = ln(ways) - log_norm and c_m of an outcome leaving mu particles on its lighter side.

    log_norm is ln total_ways for the central outcome, whose symmetric load keeps
    the wall at L/2 so that f* = f, and ln edge_ways for every other outcome.
    """
    log_prefactor = math.log(out.ways) - log_norm
    if central or not mu:
        return log_prefactor, 0.0
    wall = wall_position(out.ratio, geometry)
    return log_prefactor, mu * level_split(out.level, wall, geometry)


def _log_fstar(log_prefactor: float, energy: float, beta: float) -> float:
    # an outcome whose wall does not move carries no Boltzmann factor
    return log_prefactor - beta * energy if energy else log_prefactor


def outcome_table(filling: Filling, geometry: WellGeometry) -> list[OutcomeRow]:
    """Rows for every m of the support, ascending.

    Only the lighter half is built; the other half mirrors it (m <-> lo + hi - m),
    so f is bitwise symmetric and each mirror pair costs one level splitting.
    """
    support = filling.support
    size = len(support)
    total = filling.total_ways
    log_total, log_edge = math.log(total), math.log(filling.edge_ways)
    light = []
    for mu, m in enumerate(support[: (size + 1) // 2]):
        out = filling.outcome(m)
        central = 2 * mu == size - 1
        lw_c = _prefactor_energy(out, mu, central, log_total if central else log_edge, geometry)
        light.append(OutcomeRow(out.ways / total, math.log(out.ways) - log_total, *lw_c))
    return light + light[: size // 2][::-1]


def measurement_distribution(filling: Filling) -> MeasurementDistribution:
    """Probabilities f_m over the ground-state support; symmetric under the mirror."""
    support = filling.support
    total = filling.total_ways
    light = [filling.outcome(m).ways / total for m in support[: (len(support) + 1) // 2]]
    return MeasurementDistribution(
        support=np.array(support, dtype=np.int64),
        probabilities=np.array(light + light[: len(support) // 2][::-1]),
    )


def log_post_expansion_weight(
    filling: Filling, m: int, geometry: WellGeometry, thermal: ThermalPoint
) -> float:
    """ln f_m*; log-domain so deep low-T exponents do not underflow.

    Evaluates outcome m alone, in O(1) of the support size.
    """
    beta = thermal.beta
    support = filling.support
    if m not in support:
        raise ValueError(f"m={m} is outside the ground-state support {support}")
    left, right = m - support[0], support[-1] - m
    central = left == right
    log_norm = math.log(filling.total_ways if central else filling.edge_ways)
    lw_c = _prefactor_energy(filling.outcome(m), min(left, right), central, log_norm, geometry)
    return _log_fstar(*lw_c, beta)


def work_coefficients(filling: Filling, geometry: WellGeometry) -> WorkDecomposition:
    """Slope D and zero-temperature absorbed work W_0 = sum f_m c_m of the affine work law."""
    rows = outcome_table(filling, geometry)
    central = rows[len(rows) // 2].f if len(rows) % 2 else 0.0
    # every non-central outcome has lw - ln f = ln(total_ways / edge_ways), so
    # D = sum f (lw - ln f) closes to (1 - f_central) ln(total_ways / edge_ways),
    # which the edge row holds exactly (its lw is 0)
    edge = rows[0]
    slope = (1.0 - central) * (edge.log_prefactor - edge.log_f)
    absorbed = sum(row.f * row.energy for row in rows)
    return WorkDecomposition(slope=slope, absorbed=absorbed)


def total_work(filling: Filling, geometry: WellGeometry, thermal: ThermalPoint) -> float:
    """Total cycle work D k_B T - W_0 (affine in T, valid at T = 0)."""
    return work_coefficients(filling, geometry).total_work(thermal)


def relative_entropy_work(
    filling: Filling, geometry: WellGeometry, thermal: ThermalPoint
) -> float:
    """Direct -k_B T sum f_m ln(f_m / f_m*) evaluation, for cross-checking."""
    beta = thermal.beta
    acc = sum(
        row.f * (row.log_f - _log_fstar(row.log_prefactor, row.energy, beta))
        for row in outcome_table(filling, geometry)
        if row.f > 0
    )
    return -BOLTZMANN * thermal.temperature * acc


def erasure_work(distribution: MeasurementDistribution, thermal: ThermalPoint) -> float:
    """Landauer cost of resetting the measurement record: k_B T H(f) in joules."""
    total = distribution.total()
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"distribution is not normalized: sum = {total!r}")
    if thermal.temperature <= 0:
        raise ValueError("erasure work requires T > 0")
    return BOLTZMANN * thermal.temperature * distribution.entropy()


def net_work(filling: Filling, geometry: WellGeometry, thermal: ThermalPoint) -> float:
    """Net cycle work after paying erasure: k_B T sum f_m ln f_m* (always <= 0)."""
    beta = thermal.beta
    acc = sum(
        row.f * _log_fstar(row.log_prefactor, row.energy, beta)
        for row in outcome_table(filling, geometry)
        if row.f > 0
    )
    return BOLTZMANN * thermal.temperature * acc


def info_work_efficiency(
    filling: Filling, geometry: WellGeometry, thermal: ThermalPoint
) -> float:
    """Ratio of extracted work to erasure cost, in (-inf, 1]."""
    w_eras = erasure_work(measurement_distribution(filling), thermal)
    if w_eras == 0.0:
        raise UndefinedEfficiencyError(
            "deterministic measurement outcome: erasure work is zero"
        )
    return total_work(filling, geometry, thermal) / w_eras


def second_highest_efficiency(alpha: float) -> float:
    """Efficiency of the runner-up configurations, as a function of one weight.

    alpha = (2u-1)/(4u-1) covers the fermion k = 2 and 4u-2 engines;
    alpha = (2s+2)/(4s+3) covers the boson N = 2 engine.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return 1.0 / (1.0 + (1.0 - alpha) * math.log(1.0 - alpha) / (alpha * math.log(alpha / 2.0)))
