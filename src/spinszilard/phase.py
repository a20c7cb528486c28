"""Critical temperatures, (N, T) work grids and extremal configurations.

A configuration with positive slope D has a single sign change of the
total work at T_c = W_0 / (D k_B). Configurations with D = 0 (fermion
k = 0, boson N = 0) have no transition; they are carried as explicit
``None`` markers, never NaN, so file consumers can tell "no transition"
from numeric failure.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

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
from .information import work_coefficients


class UndefinedQuantityError(ValueError):
    """A requested quantity has no definition for this configuration."""


@dataclass(frozen=True)
class PhasePoint:
    N: int
    critical_temperature: float | None

    @property
    def defined(self) -> bool:
        return self.critical_temperature is not None


@dataclass(frozen=True)
class WorkGrid:
    """Total work on an (N, T) lattice; cell [i, j] belongs to (N[i], T[j])."""

    n_values: np.ndarray
    temperatures: np.ndarray
    work: np.ndarray


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
    """One PhasePoint per particle number, in the given order."""
    n_list = list(n_values)
    if not n_list:
        raise ValueError("n_values must be non-empty")
    points = []
    for N in n_list:
        coeffs = work_coefficients(filling(spin, N), geometry)
        if coeffs.slope == 0.0:
            points.append(PhasePoint(N=N, critical_temperature=None))
        else:
            points.append(PhasePoint(N=N, critical_temperature=critical_temperature(coeffs)))
    return points


def work_grid(
    spin: SpinStatistics,
    geometry: WellGeometry,
    n_values: Sequence[int],
    temperatures: Sequence[float],
) -> WorkGrid:
    """Total work over the (N, T) lattice, cell-independent and deterministic."""
    if len(n_values) == 0 or len(temperatures) == 0:
        raise ValueError("n_values and temperatures must be non-empty")
    if any(t < 0 for t in temperatures):
        raise ValueError("temperatures must be >= 0")
    n_arr = np.asarray(n_values, dtype=np.int64)
    t_arr = np.asarray(temperatures, dtype=np.float64)
    work = np.empty((n_arr.size, t_arr.size))
    for i, N in enumerate(n_arr):
        coeffs = work_coefficients(filling(spin, int(N)), geometry)
        work[i, :] = coeffs.slope * BOLTZMANN * t_arr - coeffs.absorbed
    return WorkGrid(n_values=n_arr, temperatures=t_arr, work=work)


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
        x for x in candidates if work_coefficients(filling(spin, x), geometry).absorbed == 0.0
    )
    return ExtremalReport(
        species=spin.kind,
        zero_absorption=zero,
        max_work_configs=max_cfg,
        max_work_per_kbt=best,
        unit_efficiency_configs=unit_cfg,
        boson_beats_fermion_max_work=boson_best > ln2,
    )
