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


def test_work_grid_shape_and_values():
    spin = SpinStatistics.fermion(1)
    grid = phase.work_grid(phase.phase_curve(spin, GEOM, [1, 2, 3]), [0.0, 0.5, 1.0])
    assert grid.work.shape == (3, 3)
    # spin-1/2: W_0F = 0, so work is slope * kT everywhere
    coeffs = fermion.work_coefficients(decompose(2, 1), GEOM)
    assert grid.work[1, 2] == pytest.approx(coeffs.slope * BOLTZMANN * 1.0, rel=1e-12)
    assert np.all(grid.work[:, 0] == 0.0)


def test_work_grid_sign_flip_brackets_tc():
    spin = SpinStatistics.fermion(9)
    tc = 0.2634385021895925
    temps = np.linspace(0.0, 0.6, 61)
    grid = phase.work_grid(phase.phase_curve(spin, GEOM, [3]), temps)
    signs = np.sign(grid.work[0])
    flips = np.nonzero(np.diff(signs) > 0)[0]
    assert len(flips) == 1
    assert temps[flips[0]] <= tc <= temps[flips[0] + 1]


def test_work_grid_validation():
    spin = SpinStatistics.fermion(1)
    with pytest.raises(ValueError):
        phase.work_grid([], [1.0])
    with pytest.raises(ValueError):
        phase.work_grid(phase.phase_curve(spin, GEOM, [1]), [-1.0])


@pytest.mark.parametrize("spin", [SpinStatistics.fermion(9), SpinStatistics.boson(2)], ids=["f9", "b2"])
def test_work_grid_is_the_affine_law_bit_for_bit(spin):
    temps = np.linspace(0.0, 1.0, 21)
    points = phase.phase_curve(spin, GEOM, range(0, 45))
    grid = phase.work_grid(points, temps)
    assert grid.n_values.tolist() == list(range(0, 45))
    assert grid.temperatures.tolist() == temps.tolist()
    for row, point in zip(grid.work, points):
        coeffs = point.coefficients
        expected = coeffs.slope * BOLTZMANN * temps - coeffs.absorbed
        assert row.tobytes() == expected.tobytes()


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
