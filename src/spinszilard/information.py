"""The closed-form observables, one path for both species.

A species' filling type is its support, the partly filled ``level`` whose
splitting sets f_m*, and two column builders over a range of outcomes:
``ways(ms)``, the exact configuration counts of the remainder, and
``ratios(ms)``, the wall ratios l/(L - l), each ``equilibrium.eq_ratio`` of
the filling's own two half loads. The s -> infinity boson limit
(``boson.LargeSpinBosons``) is one more filling type. Each filling calls each
builder once, not once per table: its ``LightHalf`` attributes form the
lighter half of the support and keep it, ``light_counts`` (the exact counts,
their total and f) when f is first read and ``light_columns`` (ln f, lw and
the interior wall ratios) when a table first needs them. ``outcome_table``
then forms only the geometry's level splittings and mirrors the rest
(m <-> lo + hi - m): the total count is twice the lighter half's less the
central outcome, and the edge count (all of the remainder on one side) is the
first one. The counts stay exact Python integers and their logs are taken of
the integers; the level splittings of every interior wall are one numpy
expression (``equilibrium.level_splits``). The result is one ``OutcomeTable``
of numpy columns over the support: f_m, ln f_m, and lw_m and c_m of
ln f_m* = lw_m - beta c_m, with lw_m = ln(ways/edge ways) and c_m = mu_m dE_m
(mu_m remainder particles on the lighter side, dE_m the level splitting at
the wall). Every observable is a reduction over that table, for both species.
W_0 is twice sum f_m c_m over the interior outcomes (0 < mu < size / 2), since
f and c mirror and c is 0 at the edge and central outcomes. Only D and W_0 of
many fillings at once (``work_coefficients_each``, behind ``phase.phase_curve``
and the boson rows of ``szilard limits``) skip the table and keep no columns,
since each of their fillings is used once: they come from flat interior
columns, one pass per bounded chunk of fillings, with the table's bits.

Entropies are kept in nats throughout (one bit = ln 2 nats); the erasure
cost k_B T H(f) is identical either way and nats avoid conversion factors
in the W_net = W_tot - W_eras identity.
"""
from __future__ import annotations

import math
from functools import cached_property
from typing import Iterable, NamedTuple, Protocol

import numpy as np

from .core import (
    BOLTZMANN,
    MeasurementDistribution,
    ThermalPoint,
    WellGeometry,
    WorkDecomposition,
)
from .equilibrium import level_splits

#: the most outcomes one pass of ``work_coefficients_each`` holds (a larger support
#: is a pass of its own), so its memory is bounded however many fillings it takes
CHUNK_OUTCOMES = 4096


class Filling(Protocol):
    """A species' filling type: its outcomes, one contiguous ascending range, and its columns.

    ``ways`` and ``ratios`` build the columns of any range of outcomes. Every
    filling type also derives from ``LightHalf``, whose two attributes call them
    on the lighter half once per filling, not once per table or distribution.
    """

    @property
    def support(self) -> range: ...

    @property
    def level(self) -> int: ...

    @property
    def light_counts(self) -> LightCounts: ...

    @property
    def light_columns(self) -> LightColumns: ...

    def ways(self, ms: range) -> list[int]:
        """Exact configuration counts of the outcomes ``ms``.

        ``ms`` is a contiguous ascending slice of ``support``. Each count is a
        product of binomials, and each factor comes as one run over ``ms``,
        seeded by a single ``math.comb`` and stepped exactly from it
        (``combinatorics.binomial_row``, ``binomial_diagonal``).
        """
        ...

    def ratios(self, ms: range) -> list[float]: ...


class LightCounts(NamedTuple):
    """The lighter half's exact counts, ascending, the count of all outcomes, and f = ways/total."""

    ways: tuple[int, ...]
    total: int
    f: np.ndarray  # read-only


class LightColumns(NamedTuple):
    """The lighter half's geometry- and temperature-free columns.

    ``rows`` holds f, ln f, lw and a row of zeros, read-only: a table fills its
    own copy of the last row with its c. ``ratios`` is the wall ratio of each
    interior outcome (0 < mu < size / 2).
    """

    rows: np.ndarray
    ratios: tuple[float, ...]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class LightHalf:
    """The lighter half of a filling's support, formed once per filling and kept on it.

    Both attributes live in the instance's ``__dict__``, so a frozen dataclass
    keeps its field-only equality and hash, and they die with the filling.
    """

    @cached_property
    def light_counts(self: Filling) -> LightCounts:
        """One ``ways`` call: all that a measurement distribution reads."""
        ways, total = _light_ways(self)
        return LightCounts(tuple(ways), total, _read_only(np.array([w / total for w in ways])))

    @cached_property
    def light_columns(self: Filling) -> LightColumns:
        """ln f and lw of the exact counts, and one ``ratios`` call over the interior outcomes."""
        ways, total, f = self.light_counts
        support = self.support
        size = len(support)
        log_ways = np.array([math.log(w) for w in ways])
        log_f = log_ways - math.log(total)
        # every outcome is normalized by the edge outcome, but the central one's
        # symmetric load keeps the wall at L/2, so f* = f there
        lw = log_ways - log_ways[0]
        if size % 2:
            lw[-1] = log_f[-1]
        rows = _read_only(np.array([f, log_f, lw, np.zeros(len(ways))]))
        return LightColumns(rows, tuple(self.ratios(support[1 : size // 2])))


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
        """Slope D and zero-temperature absorbed work W_0 = sum f_m c_m of the affine work law.

        f and c are mirror-symmetric and c is 0 at the edge and central outcomes, so
        W_0 is twice the sum over the interior outcomes of the lighter half.
        """
        size = len(self.f)
        central = self.f[size // 2] if size % 2 else 0.0
        interior = slice(1, size // 2)
        return WorkDecomposition(
            slope=_slope(central, self.log_f[0]),
            absorbed=2.0 * float(self.f[interior] @ self.c[interior]),
        )

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


def _slope(central: float, log_edge: float) -> float:
    """D = sum f (lw - ln f), from f_central and the edge outcome's ln f, ln(edge / total ways).

    Every non-central outcome has lw - ln f = ln(total ways / edge ways), which the
    edge outcome holds exactly (its lw is 0), and the central one has lw = ln f, so
    D closes to (1 - f_central) ln(total ways / edge ways).
    """
    return float((1.0 - central) * (0.0 - log_edge))


def _light_ways(filling: Filling) -> tuple[list[int], int]:
    """Counts of the lighter half of the support, ascending, and the count of all outcomes.

    The counts are mirror-symmetric, so the total is twice the lighter half's,
    less the central outcome's once (Vandermonde's identity, as an exact integer).
    """
    size = len(filling.support)
    ways = filling.ways(filling.support[: (size + 1) // 2])
    total = 2 * sum(ways) - (ways[-1] if size % 2 else 0)
    return ways, total


def _mirror(light: np.ndarray, size: int) -> np.ndarray:
    """Lighter-half columns (last axis) extended to all ``size`` outcomes by m <-> lo + hi - m."""
    return np.concatenate((light, light[..., : size // 2][..., ::-1]), axis=-1)


def outcome_table(filling: Filling, geometry: WellGeometry) -> OutcomeTable:
    """The table of every m of the support, ascending.

    Only the lighter half is built, from the filling's ``light_columns`` and one
    ``level_splits`` call; the other half mirrors it, so every column is bitwise
    symmetric and each mirror pair costs one level splitting. The columns are
    fresh arrays: writing into them changes no other table.
    """
    support = filling.support
    size = len(support)
    light, ratios = filling.light_columns
    light = light.copy()
    # mu remainder particles on the lighter side; the edge (mu = 0) and the
    # central outcome carry no splitting
    half = size // 2
    light[3, 1:half] = np.arange(1, half) * level_splits(filling.level, ratios, geometry)
    f, log_f, lw, c = _mirror(light, size)
    return OutcomeTable(np.arange(support.start, support.stop, dtype=np.int64), f, log_f, lw, c)


def measurement_distribution(filling: Filling) -> MeasurementDistribution:
    """Probabilities f_m over the ground-state support; symmetric under the mirror."""
    support = filling.support
    return MeasurementDistribution(
        support=np.arange(support.start, support.stop, dtype=np.int64),
        probabilities=_mirror(filling.light_counts.f, len(support)),
    )


def work_coefficients(filling: Filling, geometry: WellGeometry) -> WorkDecomposition:
    """Slope D and zero-temperature absorbed work W_0 of the affine work law."""
    return outcome_table(filling, geometry).work_coefficients()


def work_coefficients_each(
    fillings: Iterable[Filling], geometry: WellGeometry
) -> list[WorkDecomposition]:
    """``work_coefficients`` of each filling, in order, with the same bits and no table.

    The fillings are taken in chunks of at most ``CHUNK_OUTCOMES`` outcomes (a
    larger support is a chunk of its own), so memory does not grow with their number.
    """
    coefficients: list[WorkDecomposition] = []
    chunk: list[Filling] = []
    held = 0
    for filling in fillings:
        size = len(filling.support)
        if chunk and held + size > CHUNK_OUTCOMES:
            coefficients += _chunk_coefficients(chunk, geometry)
            chunk, held = [], 0
        chunk.append(filling)
        held += size
    if chunk:
        coefficients += _chunk_coefficients(chunk, geometry)
    return coefficients


def _chunk_coefficients(chunk: list[Filling], geometry: WellGeometry) -> list[WorkDecomposition]:
    """One pass over flat interior columns of every filling in ``chunk``.

    Each filling adds f and its wall ratios for its interior outcomes
    (0 < mu < size / 2); the mu and level columns come from each filling's run
    length, and one ``level_splits`` call forms every splitting. Each W_0 is then
    twice the dot of f and c over that filling's run, the dot that
    ``OutcomeTable.work_coefficients`` takes over the same values.
    """
    f: list[float] = []
    ratios: list[float] = []
    slopes: list[float] = []
    ends: list[int] = []
    for filling in chunk:
        support = filling.support
        size = len(support)
        half = size // 2
        ways, total = _light_ways(filling)
        central = ways[-1] / total if size % 2 else 0.0
        slopes.append(_slope(central, math.log(ways[0]) - math.log(total)))
        f += [w / total for w in ways[1:half]]
        ratios += filling.ratios(support[1:half])
        ends.append(len(f))
    # each filling's run of interior outcomes: its level throughout, mu = 1, 2, ...
    starts = np.array([0] + ends[:-1], dtype=np.int64)
    runs = np.array(ends, dtype=np.int64) - starts
    levels = np.repeat(np.array([filling.level for filling in chunk], dtype=np.int64), runs)
    mu = np.arange(1, len(f) + 1, dtype=np.int64) - np.repeat(starts, runs)
    c = mu * level_splits(levels, ratios, geometry)
    f_col = np.array(f)
    return [
        WorkDecomposition(slope=slope, absorbed=2.0 * float(f_col[a:b] @ c[a:b]))
        for slope, a, b in zip(slopes, starts.tolist(), ends)
    ]


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

