import numpy as np
import pytest

from spinszilard import boson, fermion, phase
from spinszilard.boson import BosonFilling
from spinszilard.core import BOLTZMANN, SpinStatistics, ThermalPoint, WellGeometry
from spinszilard.fermion import decompose

GEOM = WellGeometry(length=1e-9, mass=1e-26)


def test_critical_temperature_spot_fermion():
    coeffs = fermion.work_coefficients(decompose(3, 5), GEOM)
    tc = phase.critical_temperature(coeffs)
    assert tc == pytest.approx(0.2634385021895925, rel=1e-12)
    # the work really changes sign there
    assert coeffs.total_work(ThermalPoint(tc * 0.99)) < 0
    assert coeffs.total_work(ThermalPoint(tc * 1.01)) > 0


def test_critical_temperature_spot_boson():
    coeffs = boson.work_coefficients(BosonFilling(N=3, s=0), GEOM)
    assert phase.critical_temperature(coeffs) == pytest.approx(
        0.27094923379794955, rel=1e-12
    )


def test_critical_temperature_zero_when_no_absorption():
    coeffs = fermion.work_coefficients(decompose(1, 5), GEOM)
    assert phase.critical_temperature(coeffs) == 0.0


def test_critical_temperature_undefined_for_zero_slope():
    coeffs = fermion.work_coefficients(decompose(20, 5), GEOM)
    with pytest.raises(phase.UndefinedQuantityError):
        phase.critical_temperature(coeffs)


def test_phase_curve_markers():
    spin = SpinStatistics.fermion(9)  # u = 5
    points = phase.phase_curve(spin, GEOM, range(1, 41))
    by_n = {p.N: p for p in points}
    assert not by_n[20].defined
    assert by_n[20].critical_temperature is None
    assert not by_n[40].defined
    assert by_n[3].defined
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
            point = phase.phase_curve(SpinStatistics.boson(2 * s), GEOM, [N])[0]
            assert point.defined
            if previous is not None:
                assert point.critical_temperature < previous
            previous = point.critical_temperature
    for N in (5, 6, 10):
        spinless = phase.phase_curve(SpinStatistics.boson(0), GEOM, [N])[0]
        spin_one = phase.phase_curve(SpinStatistics.boson(2), GEOM, [N])[0]
        assert spin_one.critical_temperature < spinless.critical_temperature


def test_phase_point_work_values():
    spin = SpinStatistics.fermion(1)
    temps = np.array([0.0, 0.5, 1.0])
    works = [point.work(temps) for point in phase.phase_curve(spin, GEOM, [1, 2, 3])]
    # spin-1/2: W_0F = 0, so work is slope * kT everywhere
    coeffs = fermion.work_coefficients(decompose(2, 1), GEOM)
    assert works[1][2] == pytest.approx(coeffs.slope * BOLTZMANN * 1.0, rel=1e-12)
    assert all(work.shape == (3,) and work[0] == 0.0 for work in works)


def test_phase_point_work_sign_flip_brackets_tc():
    spin = SpinStatistics.fermion(9)
    tc = 0.2634385021895925
    temps = np.linspace(0.0, 0.6, 61)
    signs = np.sign(phase.phase_curve(spin, GEOM, [3])[0].work(temps))
    flips = np.nonzero(np.diff(signs) > 0)[0]
    assert len(flips) == 1
    assert temps[flips[0]] <= tc <= temps[flips[0] + 1]


def test_phase_point_work_rejects_negative_temperature():
    (point,) = phase.phase_curve(SpinStatistics.fermion(1), GEOM, [1])
    with pytest.raises(ValueError):
        point.work(np.array([0.5, -1.0]))


@pytest.mark.parametrize("spin", [SpinStatistics.fermion(9), SpinStatistics.boson(2)], ids=["f9", "b2"])
def test_phase_point_work_is_total_work_bit_for_bit(spin):
    temps = np.linspace(0.0, 1.0, 21)
    for point in phase.phase_curve(spin, GEOM, range(0, 45)):
        works = point.work(temps).tolist()
        expected = [point.coefficients.total_work(ThermalPoint(T)) for T in temps.tolist()]
        assert [w.hex() for w in works] == [w.hex() for w in expected]


def test_phase_point_reads_its_coefficients():
    spin = SpinStatistics.fermion(9)
    for point in phase.phase_curve(spin, GEOM, range(0, 45)):
        coeffs = fermion.work_coefficients(decompose(point.N, 5), GEOM)
        assert point.coefficients == coeffs
        assert point.defined == (coeffs.slope > 0)
        if point.defined:
            assert point.critical_temperature == phase.critical_temperature(coeffs)
        else:
            assert point.critical_temperature is None
