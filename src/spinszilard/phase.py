"""Phase curves, work over temperature and extremal configurations.

A configuration with positive slope D has a single sign change of the
total work at T_c = W_0 / (D k_B), its coefficients'
``critical_temperature``. Configurations with D = 0 (fermion k = 0,
boson N = 0) have no transition; their T_c is ``None``, never NaN, so file
consumers can tell "no transition" from numeric failure.

``phase_curve`` keeps each N's work coefficients D and W_0 as a ``PhasePoint``;
they come from one chunked pass over the whole N range
(``information.work_coefficients_each``), with no outcome table, and carry the
bits of ``information.work_coefficients``. f and D depend only on a filling's
remainder, so along a fermion range the pass counts each remainder
k = N mod 4u once per chunk and forms only the wall ratios per N.
``work_rows`` reduces those two numbers to the work of a block of points at
given temperatures, one point per row, in one array expression: that block is
what the CLI formats into a block of (N, T) grid rows. ``extremal_report``
reads every field from one curve.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boson import BosonFilling
from .core import BOLTZMANN, ParticleKind, SpinStatistics, WellGeometry, WorkDecomposition
from .fermion import FermionFilling, decompose
from .information import work_coefficients_each


@dataclass(frozen=True, slots=True)
class PhasePoint:
    """One particle number's work coefficients; their ``critical_temperature`` is its T_c."""

    N: int
    coefficients: WorkDecomposition

    def work(self, temperatures: np.ndarray) -> np.ndarray:
        """Total work D k_B T - W_0 [J] at each temperature, as ``total_work`` forms it."""
        return work_rows([self], temperatures)[0]


def work_rows(points: Sequence[PhasePoint], temperatures: np.ndarray) -> np.ndarray:
    """Total work [J] of each point (a row) at each temperature (a column).

    One array expression forms every cell, with ``PhasePoint.work``'s order of
    operations: (D k_B) T - W_0, so each cell carries ``total_work``'s bits.
    """
    # min carries a NaN through, so NaN fails as in ThermalPoint
    if not temperatures.min(initial=0.0) >= 0:
        raise ValueError("temperatures must be >= 0")
    slope = np.array([point.coefficients.slope for point in points])
    absorbed = np.array([point.coefficients.absorbed for point in points])
    return (slope * BOLTZMANN)[:, None] * temperatures - absorbed[:, None]


def filling(spin: SpinStatistics, N: int) -> FermionFilling | BosonFilling:
    """The filling of N particles of this species: the one place a species is picked."""
    if spin.kind is ParticleKind.FERMION:
        return decompose(N, spin.u)
    return BosonFilling(N=N, s=spin.s)


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
    boson_beats_fermion_max_work: bool


def extremal_report(spin: SpinStatistics, geometry: WellGeometry) -> ExtremalReport:
    """Summarize where the engine extracts most, absorbs nothing, or runs reversibly.

    Every field is read from one phase curve over the candidates: the remainder
    k in [0, 4u) for fermions, N in [0, 2] for bosons. Zero absorption is
    W_0 = 0; the maximum work per k_BT is the largest D among those
    configurations, and unit efficiency is a measurement with exactly two
    outcomes. The boson-over-fermion flag compares that maximum with the other
    species' own curve: the spinless boson pair, or one spin-1/2 fermion.
    """
    fermions = spin.kind is ParticleKind.FERMION
    points = phase_curve(spin, geometry, range(4 * spin.u if fermions else 3))
    zero = [point for point in points if point.coefficients.absorbed == 0.0]
    best = max(point.coefficients.slope for point in zero)
    rival = SpinStatistics.boson(0) if fermions else SpinStatistics.fermion(1)
    (other,) = phase_curve(rival, geometry, [2 if fermions else 1])
    rival_best = other.coefficients.slope
    return ExtremalReport(
        species=spin.kind,
        zero_absorption=tuple(point.N for point in zero),
        max_work_configs=tuple(point.N for point in zero if point.coefficients.slope == best),
        max_work_per_kbt=best,
        unit_efficiency_configs=tuple(
            point.N for point in points if len(filling(spin, point.N).support) == 2
        ),
        boson_beats_fermion_max_work=rival_best > best if fermions else best > rival_best,
    )
