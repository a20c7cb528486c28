import math

import pytest

from spinszilard import fermion, information, phase
from spinszilard.core import BOLTZMANN, SpinStatistics, ThermalPoint, WellGeometry
from spinszilard.fermion import FermionFilling, decompose

GEOM = WellGeometry(length=1e-9, mass=1e-26)
E0 = GEOM.reference_energy


def thermal_at(kbt_over_e0: float) -> ThermalPoint:
    return ThermalPoint(kbt_over_e0 * E0 / BOLTZMANN)


def log_fstar(filling, m: int, thermal: ThermalPoint) -> float:
    """ln f_m*, read from entry m of the filling's outcome table."""
    table = information.outcome_table(filling, GEOM)
    return float(table.log_fstar(thermal)[m - filling.support[0]])


def test_decompose():
    f = decompose(23, 5)
    assert (f.n, f.k) == (1, 3)
    g = decompose(37, 5)
    assert (g.n, g.k) == (1, 17)
    with pytest.raises(ValueError):
        decompose(-1, 5)
    with pytest.raises(ValueError):
        decompose(3, 0)


def test_support_particle_case():
    f = decompose(23, 5)  # n=1, k=3: 10..13
    assert list(f.support) == [10, 11, 12, 13]


def test_support_hole_case():
    f = decompose(3, 1)  # u=1, k=3 >= 2u: support {1, 2}
    assert list(f.support) == [1, 2]
    g = decompose(37, 5)  # n=1, k=17: 10+7 .. 20
    assert list(g.support) == list(range(17, 21))


def test_distribution_normalized_and_symmetric():
    for N, u in [(3, 5), (23, 5), (37, 5), (3, 1), (120, 3)]:
        dist = fermion.measurement_distribution(decompose(N, u))
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        probs = dist.probabilities
        for i in range(len(probs)):
            assert probs[i] == pytest.approx(probs[len(probs) - 1 - i], rel=1e-12)


def test_distribution_spot_values():
    # u=5, N=3: f over m in 0..3 is [120, 450, 450, 120] / 1140
    dist = fermion.measurement_distribution(decompose(3, 5))
    assert dist.probabilities[0 - dist.support[0]] == pytest.approx(120 / 1140, rel=1e-14)
    assert dist.probabilities[1 - dist.support[0]] == pytest.approx(450 / 1140, rel=1e-14)
    # u=1, N=3 (hole case, one hole): uniform over {1, 2}
    dist = fermion.measurement_distribution(decompose(3, 1))
    assert dist.probabilities[1 - dist.support[0]] == pytest.approx(0.5, rel=1e-14)
    assert dist.probabilities[2 - dist.support[0]] == pytest.approx(0.5, rel=1e-14)


def test_post_expansion_boundary_outcomes_are_unity():
    filling = decompose(3, 5)
    t = thermal_at(0.1)
    assert math.exp(log_fstar(filling, 0, t)) == pytest.approx(1.0)
    assert math.exp(log_fstar(filling, 3, t)) == pytest.approx(1.0)


def test_post_expansion_known_value():
    """u=5, N=3, m=1 at the temperature where beta*deltaE = 1: 3.75/e."""
    filling = decompose(3, 5)
    delta_e = 1.0371860388828955e-23
    t = ThermalPoint(delta_e / BOLTZMANN)
    value = math.exp(log_fstar(filling, 1, t))
    assert value == pytest.approx(3.75 * math.exp(-1.0), rel=1e-9)


def test_post_expansion_central_branch_is_temperature_free():
    filling = decompose(2, 1)  # k=2, central outcome m=1
    a = math.exp(log_fstar(filling, 1, thermal_at(0.01)))
    b = math.exp(log_fstar(filling, 1, thermal_at(1.0)))
    assert a == b == pytest.approx(4 / 6, rel=1e-14)


def test_log_post_expansion_survives_deep_low_temperature():
    filling = decompose(3, 5)
    log_star = log_fstar(filling, 1, thermal_at(1e-4))
    assert math.isfinite(log_star)
    assert log_star < -1e3


def test_work_coefficients_spot_u5_n3():
    coeffs = fermion.work_coefficients(decompose(3, 5), GEOM)
    assert coeffs.slope == pytest.approx(2.2512917986064953, rel=1e-12)
    assert coeffs.absorbed == pytest.approx(8.188310833286018e-24, rel=1e-12)


def test_work_coefficients_single_hole():
    # u=1, N=3: one hole, D = ln 2, no absorption
    coeffs = fermion.work_coefficients(decompose(3, 1), GEOM)
    assert coeffs.slope == pytest.approx(math.log(2), rel=1e-14)
    assert coeffs.absorbed == 0.0


def test_work_coefficients_closed_shell():
    coeffs = fermion.work_coefficients(decompose(20, 5), GEOM)
    assert coeffs.slope == 0.0
    assert coeffs.absorbed == 0.0


def test_hole_particle_coefficient_symmetry():
    for u in (1, 2, 5):
        for k in range(4 * u):
            a = fermion.work_coefficients(decompose(k, u), GEOM)
            b = fermion.work_coefficients(decompose(4 * u - k, u), GEOM)
            assert a.slope == b.slope
    # absorbed work differs between k and 4u-k at n=0 (different well loads),
    # but the slope is an exact mirror


def test_total_work_matches_relative_entropy_form():
    for N, u in [(3, 5), (5, 2), (23, 5), (7, 1), (37, 5)]:
        filling = decompose(N, u)
        for kbt in (0.01, 0.05):
            t = thermal_at(kbt)
            closed = fermion.total_work(filling, GEOM, t)
            direct = fermion.relative_entropy_work(filling, GEOM, t)
            assert direct == pytest.approx(closed, rel=1e-10, abs=1e-40)


def average_absorbed_work(filling: FermionFilling, geometry: WellGeometry) -> float:
    """Absorbed work per particle, W_0F / N (criterion 10 reads it too)."""
    if filling.N < 1:
        raise ValueError("average absorbed work requires N >= 1")
    return information.work_coefficients(filling, geometry).absorbed / filling.N


def test_average_absorbed_work():
    filling = decompose(23, 5)
    coeffs = fermion.work_coefficients(filling, GEOM)
    assert average_absorbed_work(filling, GEOM) == pytest.approx(
        coeffs.absorbed / 23, rel=1e-14
    )
    with pytest.raises(ValueError):
        average_absorbed_work(decompose(0, 5), GEOM)


def test_average_limit_symmetry_and_zeroes():
    for u in (1, 3, 5):
        for k in range(1, 4 * u):
            assert fermion.filled_shell_limits(u, k, GEOM)[1] == fermion.filled_shell_limits(
                u, (4 * u - k) % (4 * u), GEOM
            )[1]
    assert fermion.filled_shell_limits(5, 0, GEOM)[1] == 0.0
    assert fermion.filled_shell_limits(5, 1, GEOM)[1] == 0.0
    assert fermion.filled_shell_limits(5, 2, GEOM)[1] == 0.0


def test_average_limit_spot_value():
    # frozen from the closed form at u=5, k=3
    assert fermion.filled_shell_limits(5, 3, GEOM)[1] == pytest.approx(
        1.733084430746778e-25, rel=1e-12
    )


def test_average_limit_domain():
    with pytest.raises(ValueError):
        fermion.filled_shell_limits(0, 1, GEOM)
    with pytest.raises(ValueError):
        fermion.filled_shell_limits(5, 20, GEOM)


def test_filled_shell_slope_is_the_phase_curve_slope():
    """D_F of each remainder k carries the bits of the chunked phase-curve pass."""
    for u in (1, 2, 5, 21):
        curve = phase.phase_curve(SpinStatistics.fermion(2 * u - 1), GEOM, range(4 * u))
        for k, coeffs in enumerate(curve):
            assert fermion.filled_shell_limits(u, k, GEOM)[0] == coeffs.slope


def test_remainder_carries_the_fillings_counts():
    """The closed shells carry one configuration: the N = k filling has the counts, f
    and D of every N = 4un + k, and one ``light_ways`` call over all N gives them too, one
    ``math.comb`` product per outcome."""
    for u in (1, 2, 5, 20):
        n_values = [*range(12 * u), 10**6 * u + 3]
        species = fermion.Fermions(u)
        assert FermionFilling.light_ways is fermion.Fermions.light_ways
        outcomes = [species.outcomes(N) for N in n_values]
        counts = species.light_ways([counted for counted, *_ in outcomes])
        for N, (counted, level, shells, top), ways in zip(n_values, outcomes, counts):
            filling = decompose(N, u)
            assert species.filling(N) == filling
            assert (len(counted), level) == (len(filling.support), filling.level)
            light = counted[: (len(counted) + 1) // 2]
            expected = tuple(math.comb(2 * u, p) * math.comb(2 * u, filling.k - p) for p in light)
            assert tuple(ways) == filling.light_counts.ways == expected
            # a half holding p remainder particles has load shells + p top
            assert [shells + p * top for p in counted] == list(filling.loads(filling.support)[0])
            remainder = FermionFilling(N=filling.k, u=u, n=0, k=filling.k)
            assert len(remainder.support) == len(filling.support)
            assert remainder.light_counts.ways == filling.light_counts.ways
            assert remainder.light_counts.f.tolist() == filling.light_counts.f.tolist()
            slope = fermion.work_coefficients(filling, GEOM).slope
            assert fermion.work_coefficients(remainder, GEOM).slope == slope
