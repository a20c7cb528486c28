import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from spinszilard import fermion, information, phase
from spinszilard.boson import BosonFilling, LargeSpinBosons
from spinszilard.core import (
    BOLTZMANN,
    MeasurementDistribution,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
    level_energy,
)
from spinszilard.equilibrium import eq_ratio, wall_position
from spinszilard.fermion import decompose

GEOM = WellGeometry(length=1e-9, mass=1e-26)
E0 = GEOM.reference_energy


def thermal_at(kbt_over_e0: float) -> ThermalPoint:
    return ThermalPoint(kbt_over_e0 * E0 / BOLTZMANN)


def test_erasure_work_spot():
    # u=1, N=2: f = [1, 4, 1]/6, H = (1/3) ln 6 + (2/3) ln(3/2)
    dist = fermion.measurement_distribution(decompose(2, 1))
    t = ThermalPoint(1.0)
    expected = BOLTZMANN * (math.log(6) / 3 + 2 * math.log(1.5) / 3)
    assert information.erasure_work(dist, t) == pytest.approx(expected, rel=1e-12)


def test_erasure_work_validation():
    bad = MeasurementDistribution(
        support=np.array([0, 1]), probabilities=np.array([0.5, 0.4])
    )
    with pytest.raises(ValueError):
        information.erasure_work(bad, ThermalPoint(1.0))
    good = fermion.measurement_distribution(decompose(2, 1))
    with pytest.raises(ValueError):
        information.erasure_work(good, ThermalPoint(0.0))


def test_erasure_work_zero_for_deterministic_outcome():
    dist = fermion.measurement_distribution(decompose(4, 1))  # closed shell, f = {1}
    assert information.erasure_work(dist, ThermalPoint(1.0)) == 0.0


def test_net_work_nonpositive_at_low_temperature():
    t = thermal_at(0.01)
    for filling in [decompose(3, 5), decompose(23, 5), decompose(7, 2)]:
        assert information.net_work(filling, GEOM, t) <= 1e-12 * BOLTZMANN * t.temperature
    for filling in [BosonFilling(N=3, s=1), BosonFilling(N=10, s=0)]:
        assert information.net_work(filling, GEOM, t) <= 1e-12 * BOLTZMANN * t.temperature


def test_net_work_is_total_minus_erasure():
    t = thermal_at(0.05)
    filling = decompose(3, 5)
    w_tot = fermion.total_work(filling, GEOM, t)
    w_eras = information.erasure_work(fermion.measurement_distribution(filling), t)
    # the identity holds through the relative-entropy evaluation of W_tot
    w_direct = fermion.relative_entropy_work(filling, GEOM, t)
    assert information.net_work(filling, GEOM, t) == pytest.approx(
        w_direct - w_eras, rel=1e-10
    )
    assert w_direct == pytest.approx(w_tot, rel=1e-10)


def test_efficiency_spot_u1_k2():
    t = thermal_at(0.1)
    eta = information.info_work_efficiency(decompose(2, 1), GEOM, t)
    assert eta == pytest.approx(0.6884260844650522, rel=1e-12)
    # temperature-independent when W_0 = 0
    assert information.info_work_efficiency(
        decompose(2, 1), GEOM, thermal_at(0.7)
    ) == pytest.approx(eta, rel=1e-12)


def test_efficiency_unity_for_single_particle():
    for t in (thermal_at(0.01), thermal_at(1.0)):
        assert information.info_work_efficiency(
            decompose(1, 5), GEOM, t
        ) == pytest.approx(1.0, abs=1e-12)
        assert information.info_work_efficiency(
            BosonFilling(N=1, s=3), GEOM, t
        ) == pytest.approx(1.0, abs=1e-12)


def test_efficiency_undefined_for_deterministic_outcome():
    with pytest.raises(information.UndefinedEfficiencyError):
        information.info_work_efficiency(decompose(4, 1), GEOM, thermal_at(0.1))


def second_highest_efficiency(alpha: float) -> float:
    """Efficiency of the runner-up configurations, as a function of one weight.

    alpha = (2u-1)/(4u-1) covers the fermion k = 2 and 4u-2 engines;
    alpha = (2s+2)/(4s+3) covers the boson N = 2 engine. Criterion 09 and the
    CLI's runner-up column are checked against it.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    return 1.0 / (1.0 + (1.0 - alpha) * math.log(1.0 - alpha) / (alpha * math.log(alpha / 2.0)))


def test_second_highest_efficiency_spots():
    assert second_highest_efficiency(1 / 3) == pytest.approx(
        0.688426, abs=1e-6
    )
    assert second_highest_efficiency(2 / 3) == pytest.approx(
        2 / 3, abs=1e-6
    )
    with pytest.raises(ValueError):
        second_highest_efficiency(0.0)
    with pytest.raises(ValueError):
        second_highest_efficiency(1.0)


def test_second_highest_matches_direct_fermion():
    t = thermal_at(0.1)
    for u in (1, 2, 5, 12):
        alpha = (2 * u - 1) / (4 * u - 1)
        direct = information.info_work_efficiency(decompose(2, u), GEOM, t)
        assert second_highest_efficiency(alpha) == pytest.approx(
            direct, abs=1e-12
        )


def test_second_highest_matches_direct_boson():
    t = thermal_at(0.1)
    for s in (0, 1, 4, 9):
        alpha = (2 * s + 2) / (4 * s + 3)
        direct = information.info_work_efficiency(BosonFilling(N=2, s=s), GEOM, t)
        assert second_highest_efficiency(alpha) == pytest.approx(
            direct, abs=1e-12
        )


def test_extremal_report_fermion():
    report = phase.extremal_report(SpinStatistics.fermion(9), GEOM)
    assert report.zero_absorption == (0, 1, 2, 18, 19)
    assert report.max_work_configs == (1, 19)
    assert report.max_work_per_kbt == pytest.approx(math.log(2))
    assert report.boson_beats_fermion_max_work  # (2/3) ln 3 > ln 2


def test_extremal_report_boson():
    report = phase.extremal_report(SpinStatistics.boson(2), GEOM)
    assert report.zero_absorption == (0, 1, 2)
    assert report.max_work_configs == (2,)
    expected = (2 * 1 + 2) / (4 * 1 + 3) * math.log((4 * 1 + 3) / 2)
    assert report.max_work_per_kbt == pytest.approx(expected, rel=1e-12)
    assert report.max_work_per_kbt > math.log(2)


def exact_fermion_distribution(N, u):
    """f_m as Fractions: p particles (or holes) of the remainder on the left."""
    filling = decompose(N, u)
    particles = filling.k < 2 * u  # else count the holes of the partly filled level
    kk = filling.k if particles else 4 * u - filling.k
    total = math.comb(4 * u, kk)
    weights = {}
    for idx in range(kk + 1):
        if particles:
            m = 2 * u * filling.n + idx
        else:
            m = 2 * u * (filling.n + 1) - idx
        weights[m] = Fraction(math.comb(2 * u, idx) * math.comb(2 * u, kk - idx), total)
    return filling, weights


def exact_boson_distribution(N, s):
    total = math.comb(N + 4 * s + 1, 4 * s + 1)
    weights = {
        m: Fraction(math.comb(m + 2 * s, 2 * s) * math.comb(N - m + 2 * s, 2 * s), total)
        for m in range(N + 1)
    }
    return BosonFilling(N=N, s=s), weights


@pytest.mark.parametrize(
    "filling,weights",
    # fermion particle case (k < 2u), then hole case (k >= 2u), each with n = 0 and n > 0
    [exact_fermion_distribution(N, u) for N, u in [(3, 5), (23, 5), (1, 1), (5, 1), (2, 2), (9, 2)]]
    + [
        exact_fermion_distribution(N, u)
        for N, u in [(17, 5), (37, 5), (2, 1), (7, 1), (12, 2), (126, 3)]
    ]
    + [exact_boson_distribution(N, s) for N, s in [(0, 2), (1, 0), (6, 1), (11, 4), (40, 7)]],
)
def test_outcome_table_matches_exact_fractions(filling, weights):
    """f_m is the correctly rounded exact ratio and lw_m its log ratio to the edge (the
    whole, for the central outcome); lw and c are mirror-symmetric bit for bit."""
    assert list(filling.support) == sorted(weights)
    expected = [float(weights[m]) for m in filling.support]
    table = information.outcome_table(filling, GEOM)
    assert table.support.tolist() == list(filling.support)
    assert table.f.tolist() == expected
    assert information.measurement_distribution(filling).probabilities.tolist() == expected
    # the edge outcome holds all of the remainder on one side
    edge = weights[filling.support[0]]
    central = filling.support[len(expected) // 2] if len(expected) % 2 else None
    for i, m in enumerate(filling.support):
        assert table.log_f[i] == pytest.approx(math.log(weights[m]), rel=1e-14, abs=1e-14)
        ratio = weights[m] if m == central else weights[m] / edge
        assert table.lw[i] == pytest.approx(math.log(ratio), rel=1e-14, abs=1e-14)
    assert np.array_equal(table.lw, table.lw[::-1])
    assert np.array_equal(table.c, table.c[::-1])
    # the reductions against correctly rounded sums of the same terms
    t = thermal_at(0.1)
    w0 = math.fsum(f * c for f, c in zip(expected, table.c))
    assert table.work_coefficients().absorbed == pytest.approx(w0, rel=1e-14, abs=0.0)
    log_fstar = table.log_fstar(t)
    w_net = BOLTZMANN * t.temperature * math.fsum(f * x for f, x in zip(expected, log_fstar))
    assert table.net_work(t) == pytest.approx(w_net, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "filling", [decompose(2001, 1001), BosonFilling(N=2000, s=1000)], ids=["fermion", "boson"]
)
def test_outcome_table_at_large_spin(filling):
    """Counts far past the float range: normalized, mirror-symmetric, finite ln f*."""
    t = thermal_at(0.1)
    probs = information.measurement_distribution(filling).probabilities
    assert abs(probs.sum() - 1.0) <= 1e-12
    assert np.array_equal(probs, probs[::-1])
    table = information.outcome_table(filling, GEOM)
    assert table.f.tolist() == probs.tolist()
    log_fstar = table.log_fstar(t)
    assert all(math.isfinite(x) for x in log_fstar)
    for m in (filling.support[0], filling.support[len(probs) // 3], filling.support[-1]):
        assert math.isfinite(log_fstar[m - filling.support[0]])


def reference_rows(filling):
    """(ways, level, ratio) of each outcome m, one scalar call per row."""
    if isinstance(filling, BosonFilling):
        s2, N = 2 * filling.s, filling.N
        return [
            (math.comb(m + s2, s2) * math.comb(N - m + s2, s2), 1, eq_ratio(m, N - m))
            for m in filling.support
        ]
    u2 = 2 * filling.u
    # the paper's printed r^3 = [u n (2n+1) + 3p(n+1)] / [u n (2n+1) + 3(k-p)(n+1)]
    shells = filling.u * filling.n * (2 * filling.n + 1)
    rows = []
    for m in filling.support:
        p = m - u2 * filling.n
        ways = math.comb(u2, p) * math.comb(u2, filling.k - p)
        ratio = eq_ratio(shells + 3 * p * (filling.n + 1), shells + 3 * (filling.k - p) * (filling.n + 1))
        rows.append((ways, filling.n + 1, ratio))
    return rows


def level_split(level, ratio, geometry):
    """Exact |E_level(l) - E_level(L - l)| at one interior wall, from scalars."""
    assert 0.0 < ratio < math.inf
    left = wall_position(ratio, geometry)
    right = geometry.length - left
    return abs(level_energy(level, left, geometry) - level_energy(level, right, geometry))


def reference_table(filling, geometry):
    """The five table columns built row by row from scalars: lighter half, then its mirror."""
    size = len(filling.support)
    light = reference_rows(filling)[: (size + 1) // 2]
    total = 2 * sum(ways for ways, _, _ in light) - (light[-1][0] if size % 2 else 0)
    f, log_f, lw, c = [], [], [], []
    for mu, (ways, level, ratio) in enumerate(light):
        central = 2 * mu == size - 1
        f.append(ways / total)
        log_f.append(math.log(ways) - math.log(total))
        lw.append(math.log(ways) - (math.log(total) if central else math.log(light[0][0])))
        if mu and not central:
            c.append(mu * level_split(level, ratio, geometry))
        else:
            c.append(0.0)
    return [list(filling.support)] + [col + col[: size // 2][::-1] for col in (f, log_f, lw, c)]


WIDE = WellGeometry(length=3.7e-8, mass=6.6e-27)

#: an empty well and a closed shell (one outcome each), odd and even supports, particle and
#: hole cases, n = 0 and n > 0, and counts far past the float range
ROW_FILLINGS = (
    [decompose(N, u) for N, u in [(0, 1), (4, 1), (1, 1), (2, 1), (7, 1), (3, 5), (23, 5), (17, 5)]]
    + [decompose(N, u) for N, u in [(37, 5), (126, 3), (519, 20), (2001, 1001)]]
    + [BosonFilling(N=N, s=s) for N, s in [(0, 2), (1, 0), (2, 0), (6, 1), (11, 4), (40, 7)]]
    + [BosonFilling(N=N, s=s) for N, s in [(519, 20), (2000, 1000)]]
)


def fresh(filling):
    """An equal filling that has formed none of its columns yet."""
    return dataclasses.replace(filling)


@pytest.mark.parametrize("geometry", [GEOM, WIDE], ids=["nm", "wide"])
@pytest.mark.parametrize("filling", ROW_FILLINGS, ids=repr)
def test_outcome_table_is_the_row_by_row_table_bit_for_bit(filling, geometry):
    """Every column, and the distribution, carries the bits of a scalar row-by-row build."""
    expected = reference_table(filling, geometry)
    table = information.outcome_table(filling, geometry)
    assert [column.tolist() for column in table] == expected
    dist = information.measurement_distribution(filling)
    assert [dist.support.tolist(), dist.probabilities.tolist()] == expected[:2]


@pytest.mark.parametrize("filling", ROW_FILLINGS, ids=repr)
def test_a_table_at_a_second_geometry_is_the_fresh_table(filling):
    """Columns formed for one geometry give another geometry's table with a fresh filling's bits."""
    formed = fresh(filling)
    information.outcome_table(formed, GEOM)
    table = information.outcome_table(formed, WIDE)
    assert [column.tolist() for column in table] == reference_table(fresh(filling), WIDE)


@pytest.mark.parametrize("filling", ROW_FILLINGS, ids=repr)
def test_writing_into_a_result_changes_no_later_table(filling):
    """Tables and distributions hand out fresh arrays; the kept columns are read-only."""
    formed = fresh(filling)
    expected = [column.tolist() for column in information.outcome_table(fresh(filling), GEOM)]
    for column in information.outcome_table(formed, GEOM):
        column[...] = -1
    dist = information.measurement_distribution(formed)
    dist.support[...] = -1
    dist.probabilities[...] = -1
    assert [column.tolist() for column in information.outcome_table(formed, GEOM)] == expected
    assert information.measurement_distribution(formed).probabilities.tolist() == expected[1]
    for column in (formed.light_counts.f, formed.light_columns.rows):
        with pytest.raises(ValueError):
            column[...] = 0


@pytest.mark.parametrize("filling", ROW_FILLINGS, ids=repr)
def test_formed_columns_leave_equality_and_hash_alone(filling):
    formed, bare = fresh(filling), fresh(filling)
    information.outcome_table(formed, GEOM)
    assert "light_columns" in vars(formed) and "light_counts" not in vars(bare)
    assert formed == bare and bare == formed
    assert hash(formed) == hash(bare)
    assert len({formed, bare}) == 1


def count_builders(filling, monkeypatch):
    """A fresh copy of ``filling``, whose type now counts its ``light_ways`` and ``loads`` calls,
    and the counts."""
    calls = {"light_ways": 0, "loads": 0}
    kind = type(filling)
    for name in calls:
        builder = getattr(kind, name)

        def counted(self, ms, builder=builder, name=name):
            calls[name] += 1
            return builder(self, ms)

        monkeypatch.setattr(kind, name, counted)
    return fresh(filling), calls


BUILDER_FILLINGS = [
    decompose(23, 5), decompose(126, 3), BosonFilling(N=40, s=7), LargeSpinBosons(N=40)
]


@pytest.mark.parametrize("filling", BUILDER_FILLINGS, ids=repr)
def test_outcome_table_builds_each_column_once(filling, monkeypatch):
    """One ``light_ways`` and one ``loads`` call per filling, however many tables and however
    long the support."""
    filling, calls = count_builders(filling, monkeypatch)
    information.outcome_table(filling, GEOM)
    information.outcome_table(filling, WIDE)
    information.measurement_distribution(filling)
    assert calls == {"light_ways": 1, "loads": 1}


@pytest.mark.parametrize("filling", BUILDER_FILLINGS, ids=repr)
def test_a_distribution_forms_f_alone(filling, monkeypatch):
    filling, calls = count_builders(filling, monkeypatch)
    information.measurement_distribution(filling)
    assert calls == {"light_ways": 1, "loads": 0}


@pytest.mark.parametrize(
    "filling", [decompose(23, 5), BosonFilling(N=40, s=7), LargeSpinBosons(N=40)], ids=repr
)
def test_a_closed_form_item_makes_one_count_pass(filling, monkeypatch):
    """The seven calls of one benchmark ``closed_form_scan`` item share one ``light_ways`` and
    one ``loads`` call."""
    filling, calls = count_builders(filling, monkeypatch)
    thermal = thermal_at(0.1)
    dist = information.measurement_distribution(filling)
    information.work_coefficients(filling, GEOM)
    information.total_work(filling, GEOM, thermal)
    information.relative_entropy_work(filling, GEOM, thermal)
    information.net_work(filling, GEOM, thermal)
    information.erasure_work(dist, thermal)
    information.info_work_efficiency(filling, GEOM, thermal)
    assert calls == {"light_ways": 1, "loads": 1}


@pytest.mark.parametrize(
    "filling", [decompose(2001, 1001), BosonFilling(N=2000, s=1000)], ids=["fermion", "boson"]
)
def test_ways_seeds_each_run_with_one_comb(filling, monkeypatch):
    """One ``light_ways`` call makes at most two seed ``math.comb`` calls, however long the
    support."""
    seeds = []
    comb = math.comb

    def counted(a, b):
        seeds.append((a, b))
        return comb(a, b)

    monkeypatch.setattr(math, "comb", counted)
    (ways,) = filling.light_ways([filling.counted])
    assert len(ways) == (len(filling.support) + 1) // 2
    assert len(seeds) <= 2
