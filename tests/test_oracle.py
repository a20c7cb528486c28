import collections
import itertools
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from spinszilard import boson, fermion, oracle
from spinszilard.boson import BosonFilling
from spinszilard.core import (
    BOLTZMANN,
    HBAR,
    ParticleKind,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
    level_energy,
)
from spinszilard.equilibrium import eq_ratio, wall_position
from spinszilard.fermion import decompose
from spinszilard.phase import filling

GEOM = WellGeometry(length=1e-9, mass=1e-26)
E0 = GEOM.reference_energy
L = GEOM.length
FM_HEX = pathlib.Path(__file__).parent / "data" / "oracle_fm_hex.json"

#: Every spin of the CLI's oracle domain, g = 2s + 1 <= 12: even g fermions, odd g bosons.
DOMAIN_SPINS = [
    SpinStatistics(g - 1, ParticleKind.FERMION if g % 2 == 0 else ParticleKind.BOSON)
    for g in range(1, 13)
]


def thermal_at(kbt_over_e0: float) -> ThermalPoint:
    return ThermalPoint(kbt_over_e0 * E0 / BOLTZMANN)


def brute_force_ensemble(count, width, degeneracy, kind, thermal, cutoff):
    """ln Z, <E> and Var E by enumeration over single-particle states (level, spin)."""
    beta = thermal.beta
    states = [
        (n, sigma) for n in range(1, cutoff + 1) for sigma in range(degeneracy)
    ]
    energies = {n: level_energy(n, width, GEOM) for n in range(1, cutoff + 1)}
    if kind is ParticleKind.FERMION:
        configs = itertools.combinations(states, count)
    else:
        configs = itertools.combinations_with_replacement(states, count)
    totals = [sum(energies[n] for n, _ in config) for config in configs]
    weights = [math.exp(-beta * e) for e in totals]
    z = math.fsum(weights)
    mean = math.fsum(w * e for w, e in zip(weights, totals)) / z
    var = math.fsum(w * (e - mean) ** 2 for w, e in zip(weights, totals)) / z
    return math.log(z), mean, var


@pytest.mark.parametrize("kind", [ParticleKind.FERMION, ParticleKind.BOSON])
@pytest.mark.parametrize("count,degeneracy", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_box_partition_matches_enumeration(kind, count, degeneracy):
    """ln Z, and the <E> and Var E the DP carries level by level, against enumeration."""
    thermal = thermal_at(2.0)
    spectrum = oracle.BoxSpectrum(width=0.5 * L, degeneracy=degeneracy, kind=kind, geometry=GEOM)
    dp = oracle.box_partition(count, spectrum, thermal)[count]
    # level 12 weighs exp(-288) per particle here: far below the last bit of Z
    direct, mean, var = brute_force_ensemble(count, 0.5 * L, degeneracy, kind, thermal, 12)
    assert dp == pytest.approx(direct, rel=1e-12)
    box = oracle.box_ensemble(count, spectrum, thermal)
    assert box.mean_energy[count] == pytest.approx(mean, rel=1e-12)
    assert box.energy_variance[count] == pytest.approx(var, rel=1e-10)
    assert box.mean_energy[0] == box.energy_variance[0] == 0.0


@pytest.mark.parametrize("kbt", [0.1, 1.0, 5.0])
@pytest.mark.parametrize("spin", [SpinStatistics.fermion(3), SpinStatistics.boson(2)], ids=["f3", "b2"])
def test_ln_z_derivatives_match_finite_differences(spin, kbt):
    """Slope and curvature from the box moments, against central differences of ln Z_m."""
    thermal = thermal_at(kbt)
    N, h = 5, 1e-5 * L
    for m in range(N + 1):
        for pos in (0.3 * L, 0.55 * L):
            f = [oracle.split_partition(N, x, spin, GEOM, thermal)[m] for x in (pos - h, pos, pos + h)]
            slope, curvature = oracle.ln_z_derivatives(N, m, pos, spin, GEOM, thermal)
            assert slope == pytest.approx((f[2] - f[0]) / (2 * h), rel=1e-6, abs=1e-6 / L)
            assert curvature == pytest.approx((f[2] - 2 * f[1] + f[0]) / h**2, rel=1e-4)


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


def test_box_dp_refuses_an_occupancy_whose_beta_times_a_overflows():
    """Near the lowest normal k_B T, beta * a passes 1.8e308: a level could not hold a."""
    thermal = ThermalPoint(1.7e-285)  # beta * 4 is finite, beta * 5 is not
    spectrum = oracle.BoxSpectrum(0.5 * L, 1, ParticleKind.BOSON, GEOM)
    for dp in (oracle.box_partition, oracle.box_ensemble):
        with pytest.raises(ValueError, match="overflows"):
            dp(5, spectrum, thermal)
    assert np.isfinite(oracle.box_partition(4, spectrum, thermal)).all()


def test_split_partition_hot_single_fermion_matches_theta_sum():
    """Hundreds of levels: the DP runs until a level changes nothing, below 1024."""
    thermal = thermal_at(1e5)
    a = thermal.beta * level_energy(1, 0.5 * L, GEOM)
    # sum_{n>=1} exp(-a n^2) = (sqrt(pi/a) - 1)/2 up to terms of order exp(-pi^2/a)
    expected = math.log(2.0) + math.log(0.5 * (math.sqrt(math.pi / a) - 1.0))
    value = oracle.split_partition(1, 0.5 * L, SpinStatistics.fermion(1), GEOM, thermal)[1]
    assert value == pytest.approx(expected, rel=1e-13)


#: ln Z of the box DP against the boson recursion: |difference| <= this * max(1, |ln Z|).
#: The worst seen over the grid below is 1.5e-13, where ln Z_c passes near 0 between
#: terms of some hundreds; a 40-digit run of the recursion puts the DP itself within 3.5e-14.
RECURSION_RTOL = 1e-12


def ideal_boson_log_z(count, width, degeneracy, thermal):
    """ln Z_c, c = 0..count, of ideal bosons in a box, by the canonical recursion.

    Z_c = (1/c) sum_{k=1..c} Z_1(k beta) Z_{c-k}, in logs, where
    Z_1(beta) = g sum_n exp(-beta n^2 eps) is one particle's level sum. It shares
    no code with the oracle's DP: no occupancy weights, no level loop over
    counts, and its own level energy eps = pi^2 hbar^2 / (2 M width^2) and stop
    rule. Every term is positive, so it holds at any temperature.

    Fermions have the same recursion with alternating signs, and those cancel:
    at g in {2, 4} and k_BT <= 10 E0, 15 to 36 of 41 counts come out
    non-positive and survivors are off by up to 1e2 in ln Z, and even g = 40 is
    off by 4e-2 at 0.1 E0. So the fermion DP stays checked by enumeration
    (``test_box_partition_matches_enumeration``).
    """
    eps = math.pi**2 * HBAR**2 / (2.0 * GEOM.mass * width**2)
    a = thermal.beta * eps
    # the slowest sum, k = 1: stop at level n once its tail, sum over n' > n of
    # exp(-a n'^2) <= exp(-a (n+1)^2) / (1 - exp(-a (2n+3))), is below e^-45 of the sum;
    # a larger k only shrinks that bound
    n, log_sum = 0, -math.inf
    while True:
        n += 1
        log_sum = np.logaddexp(log_sum, -a * n * n)
        log_tail = -a * (n + 1) ** 2 - math.log(-math.expm1(-a * (2 * n + 3)))
        if log_tail < log_sum - 45.0:
            break
    squares = np.arange(1, n + 1) ** 2
    k = np.arange(1, count + 1)[:, None]
    log_z1 = math.log(degeneracy) + np.logaddexp.reduce(-(thermal.beta * k) * eps * squares, axis=1)
    log_z = np.zeros(count + 1)
    for c in range(1, count + 1):
        log_z[c] = np.logaddexp.reduce(log_z1[:c] + log_z[c - 1::-1]) - math.log(c)
    return log_z


RECURSION_KBT = (0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)


@pytest.mark.parametrize("N", [40, 200, 500])
@pytest.mark.parametrize("degeneracy", [1, 3, 41])
def test_box_partition_matches_the_boson_recursion(degeneracy, N):
    """Every ln Z_c of one DP pass, out to N = 500 and k_BT = 1000 E0, at L/2 and 0.37 L.

    g = 1 alone could not see a lost ln w_a term, since C(a, a) = 1; g = 3 and 41 can.
    """
    for kbt in RECURSION_KBT:
        thermal = thermal_at(kbt)
        for width in (0.5 * L, 0.37 * L):
            spectrum = oracle.BoxSpectrum(width, degeneracy, ParticleKind.BOSON, GEOM)
            dp = oracle.box_partition(N, spectrum, thermal)
            expected = ideal_boson_log_z(N, width, degeneracy, thermal)
            scale = np.maximum(1.0, np.abs(expected))
            assert (np.abs(dp - expected) <= RECURSION_RTOL * scale).all(), (kbt, width)


@pytest.mark.parametrize("N", [40, 200])
@pytest.mark.parametrize("degeneracy", [1, 3, 41])
def test_exact_distribution_matches_the_boson_recursion(degeneracy, N):
    """f_m at L/2, whose two boxes are one recursion: ln Z_m = ln Z_m + ln Z_{N-m}."""
    spin = SpinStatistics.boson(degeneracy - 1)
    for kbt in RECURSION_KBT:
        thermal = thermal_at(kbt)
        log_zm = ideal_boson_log_z(N, 0.5 * L, degeneracy, thermal)
        log_zm = log_zm + log_zm[::-1]
        expected = log_zm - np.logaddexp.reduce(log_zm)
        dist = oracle.exact_distribution(N, 0.5 * L, spin, GEOM, thermal)
        assert dist.support.tolist() == list(range(N + 1))
        scale = max(1.0, np.abs(log_zm).max())
        assert np.abs(np.log(dist.probabilities) - expected).max() <= RECURSION_RTOL * scale, kbt


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
        assert dist.probabilities[m - dist.support[0]] == pytest.approx(
            closed.probabilities[m - closed.support[0]], abs=1e-4
        )


def test_exact_equilibrium_boundaries_and_symmetry():
    spin = SpinStatistics.boson(0)
    thermal = thermal_at(0.1)
    walls = oracle.exact_equilibria(2, spin, GEOM, thermal)
    assert walls[0] == 0.0
    assert walls[2] == L
    mid = walls[1]
    assert mid == pytest.approx(0.5 * L, rel=1e-6)


def test_exact_equilibrium_matches_cubic_rule():
    # one of three spinless bosons on the left: l_eq/L from r^3 = 1/2
    wall = oracle.exact_equilibria(3, SpinStatistics.boson(0), GEOM, thermal_at(0.05))[1]
    r = 0.5 ** (1 / 3)
    assert wall / L == pytest.approx(r / (1 + r), abs=1e-12)


def fermion_ground_pressure(count, degeneracy):
    """Sum of n^2 over the count lowest one-fermion states, level by level."""
    states = sorted(n * n for n in range(1, count + 2) for _ in range(degeneracy))
    return sum(states[:count])


@pytest.mark.parametrize("spin", DOMAIN_SPINS, ids=lambda spin: f"g{spin.degeneracy}")
def test_cold_walls_are_the_cubic_rule_walls(spin):
    """At k_BT = 0.02 E0 every interior wall is the ground-state pressure balance:
    the closed forms' cubic rule where the outcome is in their support, and the
    same balance from filled levels where it is not."""
    for N in range(2, 7):
        fill = filling(spin, N)
        walls = oracle.exact_equilibria(N, spin, GEOM, thermal_at(0.02))
        ratios = list(map(eq_ratio, *fill.loads(fill.support)))
        for m in range(1, N):
            if m in fill.support:
                ratio = ratios[m - fill.support[0]]
            else:
                # off the support only fermions: the filled-level balance
                left, right = (fermion_ground_pressure(c, spin.degeneracy) for c in (m, N - m))
                ratio = (left / right) ** (1 / 3)
            expected = wall_position(ratio, GEOM)
            assert abs(walls[m] - expected) <= 1e-12 * L, (N, m)


@pytest.mark.parametrize("kbt", [0.02, 0.5, 2.0, 30.0])
@pytest.mark.parametrize("spin", DOMAIN_SPINS, ids=lambda spin: f"g{spin.degeneracy}")
def test_lighter_half_walls_are_stationary(spin, kbt):
    """At each searched wall the Newton step left, slope/curvature, is below 1e-10 L."""
    thermal = thermal_at(kbt)
    for N in range(2, 7):
        walls = oracle.exact_equilibria(N, spin, GEOM, thermal)
        for m in range(1, (N + 1) // 2):
            slope, curvature = oracle.ln_z_derivatives(N, m, walls[m], spin, GEOM, thermal)
            assert curvature < 0
            assert abs(slope / curvature) <= 1e-10 * L, (N, m)


def test_wall_search_evaluation_budget(monkeypatch):
    """Over the CLI domain grid each interior outcome takes at most 8 slope
    evaluations, each one DP pass of count m on the left and N - m on the right."""
    passes = collections.Counter()
    dp = oracle.box_ensemble

    def counted(count, spectrum, thermal):
        passes[count] += 1
        return dp(count, spectrum, thermal)

    monkeypatch.setattr(oracle, "box_ensemble", counted)
    for spin in DOMAIN_SPINS:
        for N in range(1, 7):
            for kbt in (0.02, 0.05, 0.1, 0.2, 0.5, 1.0):
                passes.clear()
                oracle.exact_equilibria(N, spin, GEOM, thermal_at(kbt))
                lighter = range(1, (N + 1) // 2)
                assert sum(passes.values()) == 2 * sum(passes[m] for m in lighter)
                for m in lighter:
                    assert 1 <= passes[m] == passes[N - m] <= 8, (spin, N, kbt, m)


def test_ensemble_cycle_pass_count(monkeypatch):
    """A cycle runs one ln Z pass at L/2, which both boxes and an even N's central
    outcome share, and one per box at each lighter-half wall; its only moment
    passes are the wall search's. A duplicate or moment-carrying pass fails here."""
    passes = collections.Counter()
    partition, ensemble = oracle.box_partition, oracle.box_ensemble

    def counted_partition(count, spectrum, thermal):
        passes["ln_z"] += 1
        return partition(count, spectrum, thermal)

    def counted_ensemble(count, spectrum, thermal):
        passes["moments"] += 1
        return ensemble(count, spectrum, thermal)

    monkeypatch.setattr(oracle, "box_partition", counted_partition)
    monkeypatch.setattr(oracle, "box_ensemble", counted_ensemble)
    for spin in DOMAIN_SPINS:
        for N in range(1, 7):
            for kbt in (0.02, 0.1, 1.0):
                thermal = thermal_at(kbt)
                passes.clear()
                oracle.ensemble_cycle(N, spin, GEOM, thermal)
                cycle = passes.copy()
                passes.clear()
                oracle.exact_equilibria(N, spin, GEOM, thermal)
                assert cycle["ln_z"] == 1 + 2 * len(range(1, (N + 1) // 2)), (spin, N, kbt)
                assert passes["ln_z"] == 0
                assert cycle["moments"] == passes["moments"], (spin, N, kbt)


def test_exact_distribution_bits_are_pinned():
    """f_m at a given wall is bit for bit what version 0.6.0's DP gave, on a
    committed corpus: both species, N = 1..6, k_BT/E0 from 0.02 to 30, walls at
    L/2 and 0.3 L. Carrying the moments leaves ln Z untouched."""
    for entry in json.loads(FM_HEX.read_text()):
        spin = SpinStatistics(entry["two_s"], ParticleKind(entry["species"]))
        dist = oracle.exact_distribution(
            entry["N"], entry["wall_over_L"] * L, spin, GEOM, thermal_at(entry["kbt"])
        )
        assert [float(p).hex() for p in dist.probabilities] == entry["f"], entry


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


def test_wall_search_validation():
    spin, thermal = SpinStatistics.fermion(1), thermal_at(0.1)
    for wall in (0.0, L, 1.5 * L):
        with pytest.raises(ValueError):
            oracle.ln_z_derivatives(3, 1, wall, spin, GEOM, thermal)
    with pytest.raises(ValueError):
        oracle.exact_equilibria(-1, spin, GEOM, thermal)


@pytest.mark.parametrize("force", ["curvature", "step"])
@pytest.mark.parametrize("spin", [SpinStatistics.fermion(3), SpinStatistics.boson(2)], ids=["f3", "b2"])
def test_wall_search_bisects_where_newton_cannot(spin, force, monkeypatch):
    """The first slope of each searched outcome is given a curvature that is not
    negative, or one so shallow that its Newton step leaves the bracket: the search
    bisects instead, and still lands on the unforced walls."""
    N, thermal = 5, thermal_at(0.5)
    expected = oracle.exact_equilibria(N, spin, GEOM, thermal)
    derivatives = oracle.ln_z_derivatives
    forced = []

    def forcing(N, m, pos, *rest):
        slope, curvature = derivatives(N, m, pos, *rest)
        if m in forced:
            return slope, curvature
        forced.append(m)
        if force == "curvature":
            return slope, abs(curvature)
        curvature *= 1e-12
        # the bracket lies inside (0, L/2), and this step lands outside it
        assert not 0.0 < pos - slope / curvature < 0.5 * L
        return slope, curvature

    monkeypatch.setattr(oracle, "ln_z_derivatives", forcing)
    walls = oracle.exact_equilibria(N, spin, GEOM, thermal)
    assert forced == [1, 2]
    assert len(walls) == len(expected)
    for wall, unforced in zip(walls, expected):
        assert abs(wall - unforced) <= 4 * oracle.POSITION_TOLERANCE * L


@pytest.mark.parametrize(
    "spin,N,kbt,work,walls",
    [
        (SpinStatistics.fermion(3), 4, 0.1, "-0x1.00c85685cd23fp-77",
         ["0x0.0p+0", "0x1.c23456ebe21d5p-32", "0x1.12e0be826d695p-31",
          "0x1.44a7518ee9c40p-31", "0x1.12e0be826d695p-30"]),
        (SpinStatistics.boson(2), 5, 0.5, "-0x1.1353fc950e136p-77",
         ["0x0.0p+0", "0x1.a8f2c17c2b66ep-32", "0x1.00549fea03b81p-31",
          "0x1.256cdd1ad71a9p-31", "0x1.51481c46c51f3p-31", "0x1.12e0be826d695p-30"]),
        (SpinStatistics.fermion(1), 3, 0.1, "0x1.d6eb8553b9a0fp-82",
         ["0x0.0p+0", "0x1.e686cd0712449p-32", "0x1.327e168151b06p-31", "0x1.12e0be826d695p-30"]),
        (SpinStatistics.boson(0), 6, 0.02, "-0x1.01aa5dcc622a9p-76",
         ["0x0.0p+0", "0x1.95ba3a197e82ep-32", "0x1.e686cd0712449p-32",
          "0x1.12e0be826d695p-31", "0x1.327e168151b06p-31", "0x1.5ae45ff81b913p-31",
          "0x1.12e0be826d695p-30"]),
    ],
    ids=["f3-N4", "b2-N5", "f1-N3", "b0-N6"],
)
def test_ensemble_cycle_pinned_bits(spin, N, kbt, work, walls):
    """W and every wall position, bit for bit as the lighter-half wall search gives them."""
    cycle = oracle.ensemble_cycle(N, spin, GEOM, thermal_at(kbt))
    assert float(cycle.total_work).hex() == work
    assert [float(wall).hex() for wall in cycle.equilibria] == walls


@pytest.mark.parametrize("N", range(2, 7))
@pytest.mark.parametrize("spin", [SpinStatistics.fermion(3), SpinStatistics.boson(2)], ids=["f3", "b2"])
def test_exact_equilibria_mirror(spin, N):
    """m on the left is N - m on the right: l_{N-m} = L - l_m bit for bit, and an
    even N's central wall is exactly L/2."""
    walls = oracle.exact_equilibria(N, spin, GEOM, thermal_at(0.5))
    assert len(walls) == N + 1
    for m in range(N // 2 + 1):
        assert walls[N - m] == L - walls[m]
    if N % 2 == 0:
        assert walls[N // 2] == 0.5 * L


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
            assert abs(walls[m] - best) <= grid[1] - grid[0]
