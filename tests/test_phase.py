import collections
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from spinszilard import boson, fermion, information, phase
from spinszilard.boson import BosonFilling
from spinszilard.core import BOLTZMANN, ParticleKind, SpinStatistics, ThermalPoint, WellGeometry
from spinszilard.fermion import FermionFilling, decompose

GEOM = WellGeometry(length=1e-9, mass=1e-26)


def test_critical_temperature_spot_fermion():
    coeffs = fermion.work_coefficients(decompose(3, 5), GEOM)
    tc = coeffs.critical_temperature
    assert tc == pytest.approx(0.2634385021895925, rel=1e-12)
    # the work really changes sign there
    assert coeffs.total_work(ThermalPoint(tc * 0.99)) < 0
    assert coeffs.total_work(ThermalPoint(tc * 1.01)) > 0


def test_critical_temperature_spot_boson():
    coeffs = boson.work_coefficients(BosonFilling(N=3, s=0), GEOM)
    assert coeffs.critical_temperature == pytest.approx(
        0.27094923379794955, rel=1e-12
    )


def test_critical_temperature_zero_when_no_absorption():
    coeffs = fermion.work_coefficients(decompose(1, 5), GEOM)
    assert coeffs.critical_temperature == 0.0


def test_critical_temperature_undefined_for_zero_slope():
    coeffs = fermion.work_coefficients(decompose(20, 5), GEOM)
    assert coeffs.critical_temperature is None


def test_phase_curve_markers():
    spin = SpinStatistics.fermion(9)  # u = 5
    n_values = range(1, 41)
    by_n = dict(zip(n_values, phase.phase_curve(spin, GEOM, n_values)))
    assert by_n[20].critical_temperature is None
    assert by_n[40].critical_temperature is None
    assert by_n[3].critical_temperature == pytest.approx(0.2634385021895925, rel=1e-12)
    with pytest.raises(ValueError):
        phase.phase_curve(spin, GEOM, [])


def test_phase_curve_boson_monotone_in_spin():
    """At fixed N, raising the spin of a spinful boson lowers the critical temperature.

    The s = 0 to s = 1 step is not monotone for N = 3 and 4 (adding the spin
    degree of freedom first reshuffles the configuration count); from s = 1
    on the decrease is strict, and for N >= 5 it is strict from s = 0.
    """
    for N in (3, 4, 5, 6, 10):
        previous = None
        for s in range(1, 8):
            tc = phase.phase_curve(SpinStatistics.boson(2 * s), GEOM, [N])[0].critical_temperature
            assert tc is not None
            if previous is not None:
                assert tc < previous
            previous = tc
    for N in (5, 6, 10):
        spinless = phase.phase_curve(SpinStatistics.boson(0), GEOM, [N])[0]
        spin_one = phase.phase_curve(SpinStatistics.boson(2), GEOM, [N])[0]
        assert spin_one.critical_temperature < spinless.critical_temperature


def test_work_rows_values():
    spin = SpinStatistics.fermion(1)
    temps = np.array([0.0, 0.5, 1.0])
    works = phase.work_rows(phase.phase_curve(spin, GEOM, [1, 2, 3]), temps)
    # spin-1/2: W_0F = 0, so work is slope * kT everywhere
    coeffs = fermion.work_coefficients(decompose(2, 1), GEOM)
    assert works[1][2] == pytest.approx(coeffs.slope * BOLTZMANN * 1.0, rel=1e-12)
    assert all(work.shape == (3,) and work[0] == 0.0 for work in works)


def test_work_rows_sign_flip_brackets_tc():
    spin = SpinStatistics.fermion(9)
    tc = 0.2634385021895925
    temps = np.linspace(0.0, 0.6, 61)
    signs = np.sign(phase.work_rows(phase.phase_curve(spin, GEOM, [3]), temps)[0])
    flips = np.nonzero(np.diff(signs) > 0)[0]
    assert len(flips) == 1
    assert temps[flips[0]] <= tc <= temps[flips[0] + 1]


def test_work_rows_rejects_negative_temperature():
    curve = phase.phase_curve(SpinStatistics.fermion(1), GEOM, [1])
    with pytest.raises(ValueError):
        phase.work_rows(curve, np.array([0.5, -1.0]))


@pytest.mark.parametrize("spin", [SpinStatistics.fermion(9), SpinStatistics.boson(2)], ids=["f9", "b2"])
def test_work_rows_is_total_work_bit_for_bit(spin):
    """Each N's work, alone and as a row of the whole curve's block, has total_work's bits."""
    temps = np.linspace(0.0, 1.0, 21)
    curve = phase.phase_curve(spin, GEOM, range(0, 45))
    for coeffs, block_row in zip(curve, phase.work_rows(curve, temps).tolist()):
        expected = [coeffs.total_work(ThermalPoint(T)).hex() for T in temps.tolist()]
        assert [w.hex() for w in phase.work_rows([coeffs], temps)[0].tolist()] == expected
        assert [w.hex() for w in block_row] == expected


def test_phase_curve_holds_the_work_coefficients():
    spin = SpinStatistics.fermion(9)
    n_values = range(0, 45)
    for N, got in zip(n_values, phase.phase_curve(spin, GEOM, n_values)):
        coeffs = fermion.work_coefficients(decompose(N, 5), GEOM)
        assert got == coeffs
        tc = got.critical_temperature
        if coeffs.slope > 0:
            assert tc == coeffs.absorbed / (coeffs.slope * BOLTZMANN)
        else:
            assert tc is None


#: (spin, N values): fermion and boson ranges that span many chunks, one support
#: larger than a chunk, N lists out of order and with repeats, a fermion list whose
#: remainders recur out of order across chunk boundaries, and loads past 2^53
CURVE_CASES = (
    [(SpinStatistics.fermion(t), range(0, 600)) for t in (1, 3, 9, 39, 41)]
    + [(SpinStatistics.boson(t), range(0, 400)) for t in (0, 2, 40)]
    + [
        (SpinStatistics.fermion(9), [40, 3, 3, 0, 599, 17, 2, 3, 20, 20]),
        (SpinStatistics.boson(2), [399, 0, 5, 5, 1, 300, 2, 1]),
        (SpinStatistics.boson(0), [4100, 1, 4100, 3, 0]),
        (SpinStatistics.fermion(39), [*range(2400, 0, -3), 41, 121, 41, 2399]),
        (SpinStatistics.fermion(3), range(80_000_000, 80_000_016)),
    ]
)


@pytest.mark.parametrize(
    "geometry", [GEOM, WellGeometry(length=3.7e-8, mass=6.6e-27)], ids=["nm", "wide"]
)
def test_phase_curve_is_work_coefficients_bit_for_bit(geometry):
    """Each N's D and W_0, in order, carry the bits of its own outcome table's coefficients."""
    crossed = 0
    for spin, n_values in CURVE_CASES:
        curve = phase.phase_curve(spin, geometry, n_values)
        assert type(curve) is list and len(curve) == len(n_values)
        got = [(coeffs.slope.hex(), coeffs.absorbed.hex()) for coeffs in curve]
        expected = []
        for N in n_values:
            coeffs = information.work_coefficients(phase.filling(spin, N), geometry)
            expected.append((coeffs.slope.hex(), coeffs.absorbed.hex()))
        assert got == expected, spin
        outcomes = sum(len(phase.filling(spin, N).support) for N in n_values)
        crossed += outcomes > information.CHUNK_OUTCOMES
    assert crossed >= 6


def test_absorbed_work_is_within_four_ulp_of_the_exact_sum():
    """W_0 of both paths lies within 4 ulp of the exactly rounded sum f_m c_m of the table."""
    for spin, n_values in CURVE_CASES:
        n_values = list(n_values)[::7]
        curve = phase.phase_curve(spin, GEOM, n_values)
        for N, coeffs in zip(n_values, curve):
            table = information.outcome_table(phase.filling(spin, N), GEOM)
            exact = float(sum(Fraction(f) * Fraction(c) for f, c in zip(table.f, table.c)))
            for got in (coeffs.absorbed, table.work_coefficients().absorbed):
                assert abs(got - exact) <= 4 * math.ulp(exact), (spin, N, got, exact)


@pytest.mark.parametrize(
    "spin,n_values",
    [(SpinStatistics.fermion(1), range(0, 6000)), (SpinStatistics.boson(2), range(0, 200))],
    ids=["fermion", "boson"],
)
def test_phase_curve_splits_once_per_chunk_and_reads_interior_ratios(
    monkeypatch, spin, n_values
):
    """One ``level_splits`` call per chunk; each filling's ratios only over its interior."""
    calls = {"chunks": 0, "splits": 0, "ratios": 0}
    chunk_coefficients, level_splits = information._chunk_coefficients, information.level_splits

    def counted_chunk(chunk, geometry):
        calls["chunks"] += 1
        return chunk_coefficients(chunk, geometry)

    def counted_splits(*args):
        calls["splits"] += 1
        return level_splits(*args)

    monkeypatch.setattr(information, "_chunk_coefficients", counted_chunk)
    monkeypatch.setattr(information, "level_splits", counted_splits)
    for kind in (BosonFilling, FermionFilling):
        ratios = kind.ratios

        def interior_ratios(filling, ms, ratios=ratios):
            calls["ratios"] += 1
            support = filling.support
            assert ms == support[1 : len(support) // 2], (filling, ms)
            return ratios(filling, ms)

        monkeypatch.setattr(kind, "ratios", interior_ratios)
    phase.phase_curve(spin, GEOM, n_values)
    assert calls["chunks"] >= 3
    assert calls["splits"] == calls["chunks"]
    assert calls["ratios"] == len(n_values)


def test_phase_curve_counts_each_remainder_once_per_chunk(monkeypatch):
    """The range pass calls ``ways`` once per distinct remainder in each chunk.

    Fermion 2s=3 over N 0..5,999 spans several chunks, each holding every remainder
    k < 8 many times; the dict dies with its chunk, so each chunk counts afresh.
    """
    chunks: list[list] = []
    calls: list[collections.Counter] = []
    chunk_coefficients, ways = information._chunk_coefficients, FermionFilling.ways

    def recorded_chunk(chunk, geometry):
        chunks.append([filling for filling, _ in chunk])
        calls.append(collections.Counter())
        return chunk_coefficients(chunk, geometry)

    def counted_ways(filling, ms):
        calls[-1][filling.remainder] += 1
        return ways(filling, ms)

    monkeypatch.setattr(information, "_chunk_coefficients", recorded_chunk)
    monkeypatch.setattr(FermionFilling, "ways", counted_ways)
    curve = phase.phase_curve(SpinStatistics.fermion(3), GEOM, range(6000))
    assert len(curve) == 6000 and len(chunks) >= 3
    for chunk, counted in zip(chunks, calls):
        assert counted == {filling.remainder: 1 for filling in chunk}


def test_phase_curve_memory_does_not_grow_with_the_range():
    """A long N range is taken in bounded chunks: its peak stays near one large support's.

    N runs over 0..3000 in steps of 25 (181,621 outcomes), so that tracing stays quick;
    held in one pass, those outcomes peak at over 50 times the single N = 3000.
    """
    spin = SpinStatistics.boson(0)

    def traced_peak(n_values):
        tracemalloc.start()
        try:
            phase.phase_curve(spin, GEOM, n_values)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    single = traced_peak([3000])
    curve = traced_peak(range(0, 3001, 25))
    assert curve < 2 * single, (single, curve)


def test_extremal_report_holds_the_paper_claims():
    """The paper's extremal claims at T = 0, for fermion 2s <= 59 and boson 2s <= 58.

    ``extremal_report`` holds no closed form; it reads them from the curve. Zero
    absorption is exactly the measurements with at most three outcomes. The
    maximum work is ln 2 per k_BT at fermion k = 1 and 4u - 1, and
    (2s+2)/(4s+3) ln((4s+3)/(s+1)) at the boson pair; unit efficiency is fermion
    k = 1 and 4u - 1, or one boson; the spinless boson pair beats the fermions,
    and every boson pair beats one spin-1/2 fermion.
    """
    for spin in [SpinStatistics.fermion(t) for t in range(1, 60, 2)] + [
        SpinStatistics.boson(t) for t in range(0, 59, 2)
    ]:
        report = phase.extremal_report(spin, GEOM)
        if spin.kind is ParticleKind.FERMION:
            u = spin.u
            candidates, max_work, reversible = range(4 * u), (1, 4 * u - 1), (1, 4 * u - 1)
            best = math.log(2.0)
        else:
            s = spin.s
            candidates, max_work, reversible = range(3), (2,), (1,)
            best = (2 * s + 2) / (4 * s + 3) * math.log((4 * s + 3) / (s + 1))
        few = tuple(N for N in candidates if len(phase.filling(spin, N).support) <= 3)
        assert report.zero_absorption == few, spin
        assert report.max_work_configs == max_work, spin
        assert abs(report.max_work_per_kbt - best) <= 1e-14 * best, spin
        assert report.unit_efficiency_configs == reversible, spin
        assert report.boson_beats_fermion_max_work, spin
