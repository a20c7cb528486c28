import itertools
import math
import warnings

import numpy as np
import pytest

from spinszilard import boson, fermion, oracle
from spinszilard.boson import BosonFilling
from spinszilard.core import (
    BOLTZMANN,
    ParticleKind,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
    level_energy,
)
from spinszilard.fermion import decompose

GEOM = WellGeometry(length=1e-9, mass=1e-26)
E0 = GEOM.reference_energy
L = GEOM.length


def thermal_at(kbt_over_e0: float) -> ThermalPoint:
    return ThermalPoint(kbt_over_e0 * E0 / BOLTZMANN)


def brute_force_ln_z(count, width, degeneracy, kind, thermal, cutoff):
    """Independent enumeration over single-particle states (level, spin)."""
    beta = thermal.beta
    states = [
        (n, sigma) for n in range(1, cutoff + 1) for sigma in range(degeneracy)
    ]
    energies = {n: level_energy(n, width, GEOM) for n in range(1, cutoff + 1)}
    z = 0.0
    if kind is ParticleKind.FERMION:
        configs = itertools.combinations(states, count)
    else:
        configs = itertools.combinations_with_replacement(states, count)
    for config in configs:
        total_e = sum(energies[n] for n, _ in config)
        z += math.exp(-beta * total_e)
    return math.log(z)


@pytest.mark.parametrize("kind", [ParticleKind.FERMION, ParticleKind.BOSON])
@pytest.mark.parametrize("count,degeneracy", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_box_partition_matches_enumeration(kind, count, degeneracy):
    thermal = thermal_at(2.0)
    spectrum = oracle.BoxSpectrum(width=0.5 * L, degeneracy=degeneracy, kind=kind, geometry=GEOM)
    dp = oracle.box_partition(count, spectrum, thermal)[count]
    # level 12 weighs exp(-288) per particle here: far below the last bit of Z
    direct = brute_force_ln_z(count, 0.5 * L, degeneracy, kind, thermal, 12)
    assert dp == pytest.approx(direct, rel=1e-12)


def test_box_partition_empty_box():
    spectrum = oracle.BoxSpectrum(
        width=0.5 * L, degeneracy=2, kind=ParticleKind.FERMION, geometry=GEOM
    )
    assert oracle.box_partition(0, spectrum, thermal_at(1.0)).tolist() == [0.0]
    with pytest.raises(ValueError):
        oracle.box_partition(-1, spectrum, thermal_at(1.0))


@pytest.mark.parametrize("kind", [ParticleKind.FERMION, ParticleKind.BOSON])
@pytest.mark.parametrize("degeneracy", [1, 2, 3, 4])
def test_box_partition_one_pass_serves_every_count(kind, degeneracy):
    """Entry k of the pass for N particles is bitwise the pass for k particles."""
    N = 6
    spectrum = oracle.BoxSpectrum(width=0.4 * L, degeneracy=degeneracy, kind=kind, geometry=GEOM)
    for kbt in [0.1, 1.0, 5.0]:
        thermal = thermal_at(kbt)
        whole = oracle.box_partition(N, spectrum, thermal)
        assert len(whole) == N + 1
        for k in range(N + 1):
            assert whole[k] == oracle.box_partition(k, spectrum, thermal)[k]


def test_split_partition_hot_single_fermion_matches_theta_sum():
    """Hundreds of levels: the DP runs until a level changes nothing, below 1024."""
    thermal = thermal_at(1e5)
    a = thermal.beta * level_energy(1, 0.5 * L, GEOM)
    # sum_{n>=1} exp(-a n^2) = (sqrt(pi/a) - 1)/2 up to terms of order exp(-pi^2/a)
    expected = math.log(2.0) + math.log(0.5 * (math.sqrt(math.pi / a) - 1.0))
    value = oracle.split_partition(1, 0.5 * L, SpinStatistics.fermion(1), GEOM, thermal)[1]
    assert value == pytest.approx(expected, rel=1e-13)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        oracle.BoxSpectrum(width=L, degeneracy=0, kind=ParticleKind.BOSON, geometry=GEOM)


def test_exact_distribution_normalized_and_symmetric():
    for spin, N in [
        (SpinStatistics.fermion(1), 2),
        (SpinStatistics.fermion(9), 3),
        (SpinStatistics.boson(0), 3),
        (SpinStatistics.boson(2), 2),
    ]:
        dist = oracle.exact_distribution(N, 0.5 * L, spin, GEOM, thermal_at(0.1))
        assert dist.total() == pytest.approx(1.0, abs=1e-12)
        probs = dist.probabilities
        assert np.allclose(probs, probs[::-1], rtol=1e-10)


def test_exact_distribution_approaches_closed_form_at_low_t():
    thermal = thermal_at(0.05)
    dist = oracle.exact_distribution(3, 0.5 * L, SpinStatistics.fermion(9), GEOM, thermal)
    closed = fermion.measurement_distribution(decompose(3, 5))
    for m in range(4):
        assert dist.probability(m) == pytest.approx(closed.probability(m), abs=1e-4)


def test_exact_equilibrium_boundaries_and_symmetry():
    spin = SpinStatistics.boson(0)
    thermal = thermal_at(0.1)
    walls = oracle.exact_equilibria(2, spin, GEOM, thermal)
    assert walls[0].position == 0.0
    assert walls[2].position == L
    mid = walls[1]
    assert mid.position == pytest.approx(0.5 * L, rel=1e-6)


def test_exact_equilibrium_matches_cubic_rule():
    # one of three spinless bosons on the left: l_eq/L from r^3 = 1/2
    wall = oracle.exact_equilibria(3, SpinStatistics.boson(0), GEOM, thermal_at(0.05))[1]
    r = 0.5 ** (1 / 3)
    assert wall.position / L == pytest.approx(r / (1 + r), abs=1e-4)


def test_ensemble_cycle_boundary_weights_and_second_law():
    spin = SpinStatistics.fermion(9)
    cycle = oracle.ensemble_cycle(3, spin, GEOM, thermal_at(0.1))
    assert cycle.post_expansion[0] == 1.0
    assert cycle.post_expansion[3] == 1.0
    # exact net work obeys the second law even where the closed forms break down
    hot = oracle.ensemble_cycle(5, spin, GEOM, thermal_at(1.0))
    t_hot = thermal_at(1.0)
    entropy = hot.distribution.entropy()
    w_net = hot.total_work - BOLTZMANN * t_hot.temperature * entropy
    assert w_net <= 0.0


def test_ensemble_cycle_matches_closed_form_work():
    thermal = thermal_at(0.05)
    for spin, N, filling, module in [
        (SpinStatistics.fermion(1), 2, decompose(2, 1), fermion),
        (SpinStatistics.fermion(9), 3, decompose(3, 5), fermion),
        (SpinStatistics.boson(2), 2, BosonFilling(N=2, s=1), boson),
    ]:
        exact = oracle.ensemble_cycle(N, spin, GEOM, thermal).total_work
        closed = module.total_work(filling, GEOM, thermal)
        assert exact == pytest.approx(closed, rel=1e-6)


def test_ensemble_cycle_cold_post_expansion_stays_in_logs():
    """At k_B T ~ 0.0025 E0, f*_1 ~ exp(-756) underflows; W is formed from ln f*."""
    thermal = ThermalPoint(1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cycle = oracle.ensemble_cycle(3, SpinStatistics.fermion(3), GEOM, thermal)
    assert cycle.distribution.probabilities[1] > 0.1
    assert cycle.post_expansion[1] < 1e-300
    closed = fermion.total_work(decompose(3, 2), GEOM, thermal)
    assert cycle.total_work == pytest.approx(closed, rel=1e-6)


def test_convergence_error_when_levels_run_out():
    """At k_B T = 1e7 E0 level 1024 still carries weight: no level changes nothing."""
    spin = SpinStatistics.fermion(1)
    thermal = thermal_at(1e7)
    with pytest.raises(oracle.ConvergenceError, match="level cutoff 1024 ") as err:
        oracle.split_partition(1, 0.3 * L, spin, GEOM, thermal)
    assert err.value.achieved_delta > 0
    # the left box raises first
    left = oracle.BoxSpectrum(0.3 * L, spin.degeneracy, spin.kind, GEOM)
    with pytest.raises(oracle.ConvergenceError) as left_err:
        oracle.box_partition(1, left, thermal)
    assert err.value.achieved_delta == left_err.value.achieved_delta


def test_hot_wide_box_converges_before_the_cutoff():
    """The wide right box needs most of the 1024 levels but stops before the last."""
    thermal = thermal_at(3e4)
    dist = oracle.exact_distribution(1, 0.1 * L, SpinStatistics.fermion(1), GEOM, thermal)
    # one particle: f_1 = Z_left / (Z_left + Z_right), each Z a theta sum as above
    left, right = (
        math.sqrt(math.pi / (thermal.beta * level_energy(1, width, GEOM))) - 1.0
        for width in (0.1 * L, 0.9 * L)
    )
    assert dist.probabilities[1] == pytest.approx(left / (left + right), rel=1e-12)


def test_split_partition_validation():
    spin = SpinStatistics.fermion(1)
    with pytest.raises(ValueError):
        oracle.split_partition(2, 0.0, spin, GEOM, thermal_at(0.1))
    with pytest.raises(ValueError):
        oracle.ensemble_cycle(2, spin, GEOM, thermal_at(0.1), insertion=L)


@pytest.mark.parametrize(
    "spin,N,kbt,insertion,work,walls",
    [
        (SpinStatistics.fermion(3), 4, 0.1, 0.5, "-0x1.00c857ce8a402p-77",
         ["0x0.0p+0", "0x1.c234568c03164p-32", "0x1.12e0be826d695p-31",
          "0x1.44a751bed9478p-31", "0x1.12e0be826d695p-30"]),
        (SpinStatistics.boson(2), 5, 0.5, 0.5, "-0x1.1353febce9ef3p-77",
         ["0x0.0p+0", "0x1.a8f2c145440c4p-32", "0x1.00549fc5359aep-31",
          "0x1.256cdd3fa537cp-31", "0x1.51481c6238cc8p-31", "0x1.12e0be826d695p-30"]),
        (SpinStatistics.fermion(1), 3, 0.1, 0.3, "0x1.c0a2bdd6b53e1p-119",
         ["0x0.0p+0", "0x1.e686ccea30263p-32", "0x1.327e168fc2bf8p-31", "0x1.12e0be826d695p-30"]),
        (SpinStatistics.boson(0), 6, 0.02, 0.5, "-0x1.01aa5df8a23aap-76",
         ["0x0.0p+0", "0x1.95ba3a2787f98p-32", "0x1.e686cce639d13p-32",
          "0x1.12e0be826d695p-31", "0x1.327e1691bdea0p-31", "0x1.5ae45ff116d5ep-31",
          "0x1.12e0be826d695p-30"]),
    ],
    ids=["f3-N4", "b2-N5", "f1-N3-ins0.3", "b0-N6"],
)
def test_ensemble_cycle_pinned_bits(spin, N, kbt, insertion, work, walls):
    """W and every wall position, bit for bit as the lighter-half wall search gives them."""
    cycle = oracle.ensemble_cycle(N, spin, GEOM, thermal_at(kbt), insertion=insertion * L)
    assert float(cycle.total_work).hex() == work
    assert [float(wall.position).hex() for wall in cycle.equilibria] == walls


@pytest.mark.parametrize("N", range(2, 7))
@pytest.mark.parametrize("spin", [SpinStatistics.fermion(3), SpinStatistics.boson(2)], ids=["f3", "b2"])
def test_exact_equilibria_mirror(spin, N):
    """m on the left is N - m on the right: l_{N-m} = L - l_m bit for bit, and an
    even N's central wall is exactly L/2."""
    walls = oracle.exact_equilibria(N, spin, GEOM, thermal_at(0.5))
    assert len(walls) == N + 1
    for m in range(N // 2 + 1):
        assert walls[N - m].position == L - walls[m].position
    if N % 2 == 0:
        assert walls[N // 2].position == 0.5 * L


@pytest.mark.parametrize("kbt", [0.02, 2.0, 30.0])
@pytest.mark.parametrize("spin", [SpinStatistics.fermion(3), SpinStatistics.boson(2)], ids=["f3", "b2"])
def test_lighter_half_walls_sit_at_the_scan_maximum(spin, kbt):
    """ln Z_m over the whole well has one maximum, below L/2 for m < N/2: the search
    on (0, L/2) lands within one step of a dense scan's best point."""
    thermal = thermal_at(kbt)
    grid = np.linspace(0.0, L, 202)[1:-1]
    for N in range(2, 7):
        scan = np.array([oracle.split_partition(N, pos, spin, GEOM, thermal) for pos in grid])
        walls = oracle.exact_equilibria(N, spin, GEOM, thermal)
        for m in range(1, (N + 1) // 2):
            best = grid[np.argmax(scan[:, m])]
            assert abs(walls[m].position - best) <= grid[1] - grid[0]
