"""Phase curves, work over temperature and extremal configurations.

A configuration with positive slope D has a single sign change of the
total work at T_c = W_0 / (D k_B), its coefficients'
``critical_temperature``. Configurations with D = 0 (fermion k = 0,
boson N = 0) have no transition; their T_c is ``None``, never NaN, so file
consumers can tell "no transition" from numeric failure.

``phase_curve`` is each N's work coefficients D and W_0, in the caller's
order, as the ``WorkDecomposition``s of one chunked pass over the whole N
range (``information.work_coefficients_each``), with no outcome table and the
bits of ``information.work_coefficients``; the caller pairs them with its own
N. f and D depend only on a filling's remainder, so along a fermion range the
pass counts each remainder k = N mod 4u once per chunk and forms only the wall
ratios per N. ``work_rows`` reduces a block of those coefficients to their
work at given temperatures, one configuration per row, in one array
expression: that block is what the CLI formats into a block of (N, T) grid
rows. ``extremal_report`` reads every field from one curve.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .boson import BosonFilling
from .core import BOLTZMANN, ParticleKind, SpinStatistics, WellGeometry, WorkDecomposition
from .fermion import FermionFilling, decompose
from .information import work_coefficients_each


def work_rows(
    coefficients: Sequence[WorkDecomposition], temperatures: np.ndarray
) -> np.ndarray:
    """Total work [J] of each configuration (a row) at each temperature (a column).

    One array expression forms every cell in ``WorkDecomposition.total_work``'s
    order of operations, (D k_B) T - W_0, so each cell carries its bits.
    """
    # min carries a NaN through, so NaN fails as in ThermalPoint
    if not temperatures.min(initial=0.0) >= 0:
        raise ValueError("temperatures must be >= 0")
    slope = np.array([coeffs.slope for coeffs in coefficients])
    absorbed = np.array([coeffs.absorbed for coeffs in coefficients])
    return (slope * BOLTZMANN)[:, None] * temperatures - absorbed[:, None]


def filling(spin: SpinStatistics, N: int) -> FermionFilling | BosonFilling:
    """The filling of N particles of this species: the one place a species is picked."""
    if spin.kind is ParticleKind.FERMION:
        return decompose(N, spin.u)
    return BosonFilling(N=N, s=spin.s)


def phase_curve(
    spin: SpinStatistics, geometry: WellGeometry, n_values: Iterable[int]
) -> list[WorkDecomposition]:
    """Each particle number's work coefficients, in the given order; no outcome table is built."""
    n_values = list(n_values)
    if not n_values:
        raise ValueError("n_values must be non-empty")
    return work_coefficients_each((filling(spin, N) for N in n_values), geometry)


@dataclass(frozen=True)
class ExtremalReport:
    """Zero-absorption sets and the extremal-work/efficiency configurations."""

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
    candidates = range(4 * spin.u if fermions else 3)
    curve = zip(candidates, phase_curve(spin, geometry, candidates))
    zero = [(N, coeffs) for N, coeffs in curve if coeffs.absorbed == 0.0]
    best = max(coeffs.slope for _, coeffs in zero)
    rival = SpinStatistics.boson(0) if fermions else SpinStatistics.fermion(1)
    (other,) = phase_curve(rival, geometry, [2 if fermions else 1])
    return ExtremalReport(
        zero_absorption=tuple(N for N, _ in zero),
        max_work_configs=tuple(N for N, coeffs in zero if coeffs.slope == best),
        max_work_per_kbt=best,
        unit_efficiency_configs=tuple(N for N in candidates if len(filling(spin, N).support) == 2),
        boson_beats_fermion_max_work=other.slope > best if fermions else best > other.slope,
    )
