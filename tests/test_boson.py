import math

import pytest

from spinszilard import boson, information
from spinszilard.boson import BosonFilling, LargeSpinBosons
from spinszilard.core import BOLTZMANN, ThermalPoint, WellGeometry
from spinszilard.equilibrium import level_splits

GEOM = WellGeometry(length=1e-9, mass=1e-26)
E0 = GEOM.reference_energy


def thermal_at(kbt_over_e0: float) -> ThermalPoint:
    return ThermalPoint(kbt_over_e0 * E0 / BOLTZMANN)


def log_fstar(filling, m: int, thermal: ThermalPoint) -> float:
    """ln f_m*, read from entry m of the filling's outcome table."""
    table = information.outcome_table(filling, GEOM)
    return float(table.log_fstar(thermal)[m - filling.support[0]])


def test_filling_validation():
    with pytest.raises(ValueError):
        BosonFilling(N=-1, s=0)
    with pytest.raises(ValueError):
        BosonFilling(N=2, s=-1)
    assert list(BosonFilling(N=3, s=1).support) == [0, 1, 2, 3]


def test_spinless_distribution_is_uniform():
    for N in (1, 2, 5, 17):
        dist = boson.measurement_distribution(BosonFilling(N=N, s=0))
        for m in range(N + 1):
            assert dist.probabilities[m - dist.support[0]] == pytest.approx(1 / (N + 1), rel=1e-13)


def test_distribution_spot_s1_n2():
    # f = [6, 9, 6] / 21
    dist = boson.measurement_distribution(BosonFilling(N=2, s=1))
    assert dist.probabilities[0 - dist.support[0]] == pytest.approx(6 / 21, rel=1e-14)
    assert dist.probabilities[1 - dist.support[0]] == pytest.approx(9 / 21, rel=1e-14)
    assert dist.probabilities[2 - dist.support[0]] == pytest.approx(6 / 21, rel=1e-14)


def test_distribution_normalized_and_symmetric():
    for N, s in [(3, 1), (10, 2), (41, 7), (100, 0)]:
        dist = boson.measurement_distribution(BosonFilling(N=N, s=s))
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        for m in range(N + 1):
            assert dist.probabilities[m - dist.support[0]] == pytest.approx(
                dist.probabilities[N - m - dist.support[0]], rel=1e-12
            )


def test_post_expansion_boundaries_and_central():
    t = thermal_at(0.1)
    filling = BosonFilling(N=3, s=1)
    assert math.exp(log_fstar(filling, 0, t)) == pytest.approx(1.0)
    assert math.exp(log_fstar(filling, 3, t)) == pytest.approx(1.0)
    even = BosonFilling(N=2, s=1)
    # central branch C(N/2+2s,2s)^2 / C(N+4s+1,N) = 9/21, temperature-free
    a = math.exp(log_fstar(even, 1, thermal_at(0.01)))
    b = math.exp(log_fstar(even, 1, thermal_at(1.0)))
    assert a == b == pytest.approx(9 / 21, rel=1e-14)


def test_post_expansion_known_value():
    """s=1, N=3, m=1 at the temperature where beta*deltaE = 1: 1.8/e."""
    filling = BosonFilling(N=3, s=1)
    delta_e = 1.0371860388828955e-23  # level-1 splitting at the r^3 = 1/2 wall
    t = ThermalPoint(delta_e / BOLTZMANN)
    value = math.exp(log_fstar(filling, 1, t))
    assert value == pytest.approx(1.8 * math.exp(-1.0), rel=1e-9)
    assert value == pytest.approx(0.6621829941085963, rel=1e-9)


def test_log_post_expansion_survives_deep_low_temperature():
    log_star = log_fstar(BosonFilling(N=3, s=1), 1, thermal_at(1e-4))
    assert math.isfinite(log_star)
    assert log_star < -1e3


def test_work_coefficients_empty_well():
    coeffs = boson.work_coefficients(BosonFilling(N=0, s=3), GEOM)
    assert coeffs.slope == 0.0 and coeffs.absorbed == 0.0


def test_work_coefficients_two_particles():
    # N=2: D = (2s+2)/(4s+3) ln((4s+3)/(s+1)), W_0 = 0
    for s in range(6):
        coeffs = boson.work_coefficients(BosonFilling(N=2, s=s), GEOM)
        expected = (2 * s + 2) / (4 * s + 3) * math.log((4 * s + 3) / (s + 1))
        assert coeffs.slope == pytest.approx(expected, rel=1e-13)
        assert coeffs.absorbed == 0.0
    assert boson.work_coefficients(BosonFilling(N=2, s=1), GEOM).slope == pytest.approx(
        0.7158645534259246, rel=1e-12
    )


def test_work_coefficients_spinless_n3():
    coeffs = boson.work_coefficients(BosonFilling(N=3, s=0), GEOM)
    assert coeffs.slope == pytest.approx(math.log(4), rel=1e-13)
    assert coeffs.absorbed == pytest.approx(5.1859301944144776e-24, rel=1e-12)


def test_total_work_matches_relative_entropy_form():
    for N, s in [(1, 0), (3, 0), (3, 1), (6, 2), (11, 4)]:
        filling = BosonFilling(N=N, s=s)
        for kbt in (0.01, 0.05):
            t = thermal_at(kbt)
            closed = boson.total_work(filling, GEOM, t)
            direct = boson.relative_entropy_work(filling, GEOM, t)
            assert direct == pytest.approx(closed, rel=1e-10, abs=1e-40)


def large_spin_limits(N):
    return boson.work_coefficients(LargeSpinBosons(N), GEOM)


def test_large_spin_limits_small_n():
    assert large_spin_limits(0).slope == 0.0
    one = large_spin_limits(1)
    assert one.slope == pytest.approx(math.log(2), rel=1e-14)
    assert one.absorbed == 0.0
    two = large_spin_limits(2)
    assert two.slope == pytest.approx(math.log(2), rel=1e-14)  # (1 - 1/2) * 2 ln 2
    assert two.absorbed == 0.0
    three = large_spin_limits(3)
    assert three.slope == pytest.approx(3 * math.log(2), rel=1e-14)
    assert three.absorbed == pytest.approx(7.778895291621716e-24, rel=1e-12)
    with pytest.raises(ValueError):
        LargeSpinBosons(-1)


@pytest.mark.parametrize("N", [0, 1, 2, 3, 4, 11, 200, 1021, 1022, 1023, 1500])
def test_large_spin_ways_are_one_comb_per_outcome(N):
    """The row-stepped counts are C(N, m) exactly, past N = 1021 where 2^N leaves the floats."""
    support = LargeSpinBosons(N).support
    assert LargeSpinBosons(N).ways(support) == [math.comb(N, m) for m in support]


@pytest.mark.parametrize("N", [2, 3, 4, 11, 200, 1023, 1500])
def test_large_spin_absorbed_work_is_the_sequential_sum(N):
    """W_0 is within 1e-15 of the sum of m C(N, m) / 2^(N-1) dE_m over the lighter half."""
    upper = (N - 1) // 2 if N % 2 else N // 2 - 1
    ms = range(1, upper + 1)
    splits = level_splits(1, BosonFilling(N=N, s=0).ratios(ms), GEOM).tolist()
    absorbed = 0.0
    for m, split in zip(ms, splits):
        absorbed += m * math.comb(N, m) / 2 ** (N - 1) * split
    assert abs(large_spin_limits(N).absorbed - absorbed) <= 1e-15 * absorbed


def test_coefficients_approach_large_spin_limits():
    for N in (3, 4, 5):
        lim = large_spin_limits(N)
        dev_prev = None
        for s in (10, 100, 1000):
            coeffs = boson.work_coefficients(BosonFilling(N=N, s=s), GEOM)
            dev = abs(coeffs.slope - lim.slope)
            if dev_prev is not None:
                assert dev < dev_prev
            dev_prev = dev
        assert coeffs.slope == pytest.approx(lim.slope, rel=1e-3)
        assert coeffs.absorbed == pytest.approx(lim.absorbed, rel=1e-3)
