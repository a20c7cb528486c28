"""Critical temperatures, work over temperature and extremal configurations.

A configuration with positive slope D has a single sign change of the
total work at T_c = W_0 / (D k_B). Configurations with D = 0 (fermion
k = 0, boson N = 0) have no transition; they are carried as explicit
``None`` markers, never NaN, so file consumers can tell "no transition"
from numeric failure.

``phase_curve`` keeps each N's work coefficients D and W_0 as a ``PhasePoint``;
they come from one chunked pass over the whole N range
(``information.work_coefficients_each``), with no outcome table, and carry the
bits of ``information.work_coefficients``. A point's T_c and its work at given
temperatures (one row of the (N, T) work grid) reduce those two numbers.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .boson import BosonFilling
from .core import (
    BOLTZMANN,
    ParticleKind,
    SpinStatistics,
    WellGeometry,
    WorkDecomposition,
)
from .fermion import FermionFilling, decompose
from .information import work_coefficients_each


class UndefinedQuantityError(ValueError):
    """A requested quantity has no definition for this configuration."""


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """One particle number's work coefficients, and the transition they imply."""

    N: int
    coefficients: WorkDecomposition

    @property
    def defined(self) -> bool:
        """Whether the work changes sign: a zero slope D has no transition."""
        return self.coefficients.slope > 0.0

    @property
    def critical_temperature(self) -> float | None:
        """T_c = W_0 / (D k_B), or None where D = 0."""
        return critical_temperature(self.coefficients) if self.defined else None

    def work(self, temperatures: np.ndarray) -> np.ndarray:
        """Total work D k_B T - W_0 [J] at each temperature, as ``total_work`` forms it."""
        # min carries a NaN through, so NaN fails as in ThermalPoint
        if not temperatures.min(initial=0.0) >= 0:
            raise ValueError("temperatures must be >= 0")
        return self.coefficients.slope * BOLTZMANN * temperatures - self.coefficients.absorbed


def filling(spin: SpinStatistics, N: int) -> FermionFilling | BosonFilling:
    """The filling of N particles of this species: the one place a species is picked."""
    if spin.kind is ParticleKind.FERMION:
        return decompose(N, spin.u)
    return BosonFilling(N=N, s=spin.s)


def critical_temperature(coeffs: WorkDecomposition) -> float:
    """Temperature where the affine work law changes sign, W_0 / (D k_B)."""
    if coeffs.slope == 0.0:
        raise UndefinedQuantityError("no transition: the work slope D is zero")
    return coeffs.absorbed / (coeffs.slope * BOLTZMANN)


def phase_curve(
    spin: SpinStatistics, geometry: WellGeometry, n_values: Iterable[int]
) -> list[PhasePoint]:
    """One PhasePoint per particle number, in the given order; no outcome table is built."""
    n_values = list(n_values)
    if not n_values:
        raise ValueError("n_values must be non-empty")
    fillings = (filling(spin, N) for N in n_values)
    return [
        PhasePoint(N=N, coefficients=coefficients)
        for N, coefficients in zip(n_values, work_coefficients_each(fillings, geometry))
    ]


@dataclass(frozen=True)
class ExtremalReport:
    """Zero-absorption sets and the extremal-work/efficiency configurations."""

    species: ParticleKind
    zero_absorption: tuple[int, ...]
    max_work_configs: tuple[int, ...]
    max_work_per_kbt: float
    unit_efficiency_configs: tuple[int, ...]
    boson_beats_fermion_max_work: bool = True


def extremal_report(spin: SpinStatistics, geometry: WellGeometry) -> ExtremalReport:
    """Summarize where the engine extracts most, absorbs nothing, or runs reversibly.

    Fermion entries index the remainder k in [0, 4u); boson entries index N.
    The boson-over-fermion maximum-work comparison is evaluated, not assumed.
    """
    ln2 = math.log(2.0)
    if spin.kind is ParticleKind.FERMION:
        u = spin.u
        candidates = range(4 * u)
        max_cfg = tuple(sorted({1, 4 * u - 1}))
        unit_cfg = max_cfg
        # weakest boson competitor in the scan: the spinless N=2 engine
        best = ln2
        boson_best = (2.0 / 3.0) * math.log(3.0)
    else:
        s = spin.s
        candidates = range(3)
        max_cfg = (2,)
        unit_cfg = (1,)
        best = (2.0 * s + 2.0) / (4.0 * s + 3.0) * math.log((4.0 * s + 3.0) / (s + 1.0))
        boson_best = best
    zero = tuple(
        point.N
        for point in phase_curve(spin, geometry, candidates)
        if point.coefficients.absorbed == 0.0
    )
    return ExtremalReport(
        species=spin.kind,
        zero_absorption=zero,
        max_work_configs=max_cfg,
        max_work_per_kbt=best,
        unit_efficiency_configs=unit_cfg,
        boson_beats_fermion_max_work=boson_best > ln2,
    )
