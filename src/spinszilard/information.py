"""The closed-form observables, one path for both species.

A species' filling type is its support and its row builder ``outcome(m)``,
which counts the configurations of the remainder that give outcome m.
``outcome_table`` builds the lighter half of the support and mirrors it
(m <-> lo + hi - m): the total count is twice the lighter half's less the
central outcome, and the edge count (all of the remainder on one side) is the
first row's. It turns the counts into one ``OutcomeTable`` of numpy columns
over the support: f_m, ln f_m, and lw_m and c_m of ln f_m* = lw_m - beta c_m,
with lw_m = ln(ways/edge ways) and c_m = mu_m dE_m (mu_m remainder particles
on the lighter side, dE_m the level splitting at the wall). Every observable
is a reduction over that table, for both species.

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
    """A species' filling type: its outcomes, ascending, and its row builder."""

    @property
    def support(self) -> range: ...

    def outcome(self, m: int) -> Outcome: ...


class OutcomeTable(NamedTuple):
    """Every outcome m of a filling's support, ascending, as numpy columns."""

    support: np.ndarray
    f: np.ndarray
    log_f: np.ndarray
    lw: np.ndarray
    c: np.ndarray  # [J]

    @property
    def distribution(self) -> MeasurementDistribution:
        """The measurement distribution: a view of ``support`` and ``f``."""
        return MeasurementDistribution(support=self.support, probabilities=self.f)

    def log_fstar(self, thermal: ThermalPoint) -> np.ndarray:
        """ln f_m* = lw_m - beta c_m; log-domain so deep low-T exponents do not underflow."""
        beta = thermal.beta
        log_fstar = self.lw.copy()
        # an outcome whose wall does not move carries no Boltzmann factor
        moved = self.c != 0
        log_fstar[moved] -= beta * self.c[moved]
        return log_fstar

    def work_coefficients(self) -> WorkDecomposition:
        """Slope D and zero-temperature absorbed work W_0 = sum f_m c_m of the affine work law."""
        central = self.f[len(self.f) // 2] if len(self.f) % 2 else 0.0
        # every non-central outcome has lw - ln f = ln(total ways / edge ways), so
        # D = sum f (lw - ln f) closes to (1 - f_central) ln(total ways / edge ways),
        # which the edge outcome holds exactly (its lw is 0)
        slope = (1.0 - central) * (self.lw[0] - self.log_f[0])
        return WorkDecomposition(slope=float(slope), absorbed=float(self.f @ self.c))

    def relative_entropy_work(self, thermal: ThermalPoint) -> float:
        """Direct -k_B T sum f_m ln(f_m / f_m*) evaluation, for cross-checking."""
        seen = self.f > 0
        gap = self.log_f[seen] - self.log_fstar(thermal)[seen]
        return -BOLTZMANN * thermal.temperature * float(self.f[seen] @ gap)

    def net_work(self, thermal: ThermalPoint) -> float:
        """Net cycle work after paying erasure: k_B T sum f_m ln f_m* (always <= 0)."""
        seen = self.f > 0
        log_fstar = self.log_fstar(thermal)[seen]
        return BOLTZMANN * thermal.temperature * float(self.f[seen] @ log_fstar)


class UndefinedEfficiencyError(ValueError):
    """Measurement outcome is deterministic: zero erasure work, no efficiency."""


def _light_half(filling: Filling) -> tuple[list[Outcome], int]:
    """Outcomes of the lighter half of the support, ascending, and the ways of all outcomes.

    The counts are mirror-symmetric, so the total is twice the lighter half's,
    less the central outcome's once (Vandermonde's identity, as an exact integer).
    """
    support = filling.support
    outcomes = [filling.outcome(m) for m in support[: (len(support) + 1) // 2]]
    total = 2 * sum(out.ways for out in outcomes)
    if len(support) % 2:
        total -= outcomes[-1].ways
    return outcomes, total


def _mirror(light: list[float], size: int) -> np.ndarray:
    """A lighter-half column extended to all ``size`` outcomes by m <-> lo + hi - m."""
    return np.array(light + light[: size // 2][::-1])


def outcome_table(filling: Filling, geometry: WellGeometry) -> OutcomeTable:
    """The table of every m of the support, ascending.

    Only the lighter half is built; the other half mirrors it, so every column is
    bitwise symmetric and each mirror pair costs one level splitting.
    """
    size = len(filling.support)
    outcomes, total = _light_half(filling)
    log_total, log_edge = math.log(total), math.log(outcomes[0].ways)
    f, log_f, lw, c = [], [], [], []
    for mu, out in enumerate(outcomes):
        f.append(out.ways / total)
        log_ways = math.log(out.ways)
        log_f.append(log_ways - log_total)
        # the central outcome's symmetric load keeps the wall at L/2, so f* = f
        # there; every other outcome is normalized by the edge outcome
        central = 2 * mu == size - 1
        lw.append(log_ways - (log_total if central else log_edge))
        if mu and not central:
            wall = wall_position(out.ratio, geometry)
            c.append(mu * level_split(out.level, wall, geometry))
        else:
            c.append(0.0)
    columns = (_mirror(column, size) for column in (f, log_f, lw, c))
    return OutcomeTable(np.array(filling.support, dtype=np.int64), *columns)


def measurement_distribution(filling: Filling) -> MeasurementDistribution:
    """Probabilities f_m over the ground-state support; symmetric under the mirror."""
    support = filling.support
    outcomes, total = _light_half(filling)
    return MeasurementDistribution(
        support=np.array(support, dtype=np.int64),
        probabilities=_mirror([out.ways / total for out in outcomes], len(support)),
    )


def work_coefficients(filling: Filling, geometry: WellGeometry) -> WorkDecomposition:
    """Slope D and zero-temperature absorbed work W_0 of the affine work law."""
    return outcome_table(filling, geometry).work_coefficients()


def total_work(filling: Filling, geometry: WellGeometry, thermal: ThermalPoint) -> float:
    """Total cycle work D k_B T - W_0 (affine in T, valid at T = 0)."""
    return work_coefficients(filling, geometry).total_work(thermal)


def relative_entropy_work(
    filling: Filling, geometry: WellGeometry, thermal: ThermalPoint
) -> float:
    """Direct -k_B T sum f_m ln(f_m / f_m*) evaluation, for cross-checking."""
    return outcome_table(filling, geometry).relative_entropy_work(thermal)


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
    return outcome_table(filling, geometry).net_work(thermal)


def info_work_efficiency(
    filling: Filling, geometry: WellGeometry, thermal: ThermalPoint
) -> float:
    """Ratio of extracted work to erasure cost, in (-inf, 1]."""
    table = outcome_table(filling, geometry)
    w_eras = erasure_work(table.distribution, thermal)
    if w_eras == 0.0:
        raise UndefinedEfficiencyError(
            "deterministic measurement outcome: erasure work is zero"
        )
    return table.work_coefficients().total_work(thermal) / w_eras


def second_highest_efficiency(alpha: float) -> float:
    """Efficiency of the runner-up configurations, as a function of one weight.

    alpha = (2u-1)/(4u-1) covers the fermion k = 2 and 4u-2 engines;
    alpha = (2s+2)/(4s+3) covers the boson N = 2 engine.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return 1.0 / (1.0 + (1.0 - alpha) * math.log(1.0 - alpha) / (alpha * math.log(alpha / 2.0)))
