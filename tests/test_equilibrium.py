import math

import numpy as np
import pytest

from spinszilard import oracle
from spinszilard.boson import BosonFilling
from spinszilard.core import BOLTZMANN, HBAR, SpinStatistics, ThermalPoint, WellGeometry
from spinszilard.equilibrium import (
    WallAtBoundaryError,
    eq_ratio,
    eq_ratios,
    level_splits,
    wall_position,
)
from spinszilard.fermion import FermionFilling, decompose

GEOM = WellGeometry(length=1e-9, mass=1e-26)


def fermion_load(u: int, n: int, p: int) -> int:
    """Load of a half with n filled shells of 2u states and p particles on level n+1."""
    return 2 * u * sum(j * j for j in range(1, n + 1)) + p * (n + 1) ** 2


def paper_fermion_ratio(u: int, n: int, k: int, p: int) -> float:
    """The paper's printed form: r^3 = [u n (2n+1) + 3p(n+1)] / [u n (2n+1) + 3(k-p)(n+1)]."""
    num = u * n * (2 * n + 1) + 3 * p * (n + 1)
    den = u * n * (2 * n + 1) + 3 * (k - p) * (n + 1)
    if den == 0:
        return 1.0 if num == 0 else math.inf
    return (num / den) ** (1.0 / 3.0)


def paper_boson_ratio(m: int, N: int) -> float:
    """The paper's printed form: r^3 = m / (N - m)."""
    if m == N:
        return math.inf if N else 1.0
    return (m / (N - m)) ** (1.0 / 3.0)


def test_fermion_ratio_symmetric_load():
    assert eq_ratio(fermion_load(5, 0, 2), fermion_load(5, 0, 2)) == 1.0
    assert eq_ratio(fermion_load(3, 7, 3), fermion_load(3, 7, 3)) == 1.0
    # neither half loaded: the wall stays in the middle
    assert eq_ratio(0, 0) == 1.0


def test_fermion_ratio_reflection():
    """Swapping the two sides inverts the ratio: r(p) * r(k-p) = 1."""
    for u, n, k in [(1, 0, 1), (5, 0, 3), (5, 2, 7), (10, 1, 19), (4, 3, 12)]:
        for p in range(k + 1):
            left = eq_ratio(fermion_load(u, n, p), fermion_load(u, n, k - p))
            right = eq_ratio(fermion_load(u, n, k - p), fermion_load(u, n, p))
            if math.isinf(left):
                assert right == 0.0
            elif left == 0.0:
                assert math.isinf(right)
            else:
                assert left * right == pytest.approx(1.0, rel=1e-12)


def test_fermion_ratio_endpoints_n0():
    # with no filled shells, an empty side pushes the wall to the box end
    assert eq_ratio(fermion_load(5, 0, 0), fermion_load(5, 0, 3)) == 0.0
    assert math.isinf(eq_ratio(fermion_load(5, 0, 3), fermion_load(5, 0, 0)))
    # filled shells keep both sides occupied: finite ratio even at p = 0
    assert 0 < eq_ratio(fermion_load(5, 1, 0), fermion_load(5, 1, 3)) < 1


def test_fermion_ratio_known_value():
    # u=5, n=0, k=3, p=1: r^3 = 1/2
    assert eq_ratio(fermion_load(5, 0, 1), fermion_load(5, 0, 2)) == pytest.approx(
        0.5 ** (1 / 3), rel=1e-14
    )


def test_boson_ratio():
    assert eq_ratio(1, 1) == 1.0
    assert eq_ratio(0, 3) == 0.0
    assert math.isinf(eq_ratio(3, 0))
    assert eq_ratio(1, 2) == pytest.approx(0.5 ** (1 / 3), rel=1e-14)
    for m in range(1, 7):
        assert eq_ratio(m, 7 - m) * eq_ratio(7 - m, m) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "refused",
    [
        lambda: eq_ratio(-1, 2),
        lambda: eq_ratio(2, -1),
        # outcomes m outside the support 0..3 leave a negative load on one side
        lambda: decompose(3, 5).loads(range(-1, 5)),
        lambda: decompose(3, 5).loads(range(4, 5)),
        lambda: BosonFilling(3, 0).loads(range(3, 6)),
    ],
)
def test_negative_load_is_refused(refused):
    """A negative load would give a complex cube root; it raises instead."""
    with pytest.raises(ValueError, match="loads must be >= 0"):
        refused()


def test_ratios_beyond_float_loads_are_eq_ratio_bit_for_bit():
    """Loads past 2^53 are divided as exact integers, as ``eq_ratio`` divides them.

    The loads are each filling's ``loads`` ranges, and the ratios ``eq_ratios``, the one
    map over them that the range pass and the outcome tables take. Two periods of N at N = 4e7 u, for u = 2, 5 and 20: 1,560 interior ratios, on
    loads near 1e22. Dividing the loads as float64 changes some of them, so a
    float-load shortcut fails here.
    """
    shortcut = 0
    for u in (2, 5, 20):
        for N in range(4 * 10**7 * u, 4 * 10**7 * u + 8 * u):
            filling = decompose(N, u)
            n, k = filling.n, filling.k
            support = filling.support
            ms = support[1 : len(support) // 2]
            # 2u (1 + 4 + ... + n^2) = u n (n + 1) (2n + 1) / 3, in closed form at n = 1e7
            shells = u * n * (n + 1) * (2 * n + 1) // 3
            loads = [(shells + p * (n + 1) ** 2, shells + (k - p) * (n + 1) ** 2)
                     for p in range(ms.start - 2 * u * n, ms.stop - 2 * u * n)]
            assert min(map(min, loads), default=2**53) >= 2**53
            expected = [eq_ratio(left, right) for left, right in loads]
            assert list(zip(*filling.loads(ms))) == loads, N
            assert eq_ratios(*filling.loads(ms)) == expected, N
            shortcut += sum((float(left) / float(right)) ** (1.0 / 3.0) != ratio
                            for (left, right), ratio in zip(loads, expected))
    assert shortcut > 0


def test_filling_ratios_are_the_printed_forms():
    """Both fillings' walls carry the bits of the paper's printed ratio forms.

    The fermion loads are the printed rational's numerator and denominator times
    (n + 1)/3, and int/int division is correctly rounded, so the doubles agree.
    """
    for u in range(1, 13):
        for n in list(range(13)) + [100, 10**6, 10**9]:
            for k in range(4 * u):
                filling = FermionFilling(N=4 * u * n + k, u=u, n=n, k=k)
                # every count p in [0, k], also outside the support the fillings use
                ms = range(2 * u * n, 2 * u * n + k + 1)
                expected = [paper_fermion_ratio(u, n, k, p) for p in range(k + 1)]
                assert list(map(eq_ratio, *filling.loads(ms))) == expected, (u, n, k)
    for N in range(401):
        filling = BosonFilling(N=N, s=0)
        expected = [paper_boson_ratio(m, N) for m in filling.support]
        assert list(map(eq_ratio, *filling.loads(filling.support))) == expected, N


def brute_force_load(count: int, spin: SpinStatistics) -> int:
    """K(c): the sum of n^2 over the c lowest one-particle states of one half.

    Fermions fill distinct states, each level n listed g = 2s+1 times; bosons all
    share the lowest one.
    """
    if spin.kind.value == "boson":
        return count
    states = sorted(n * n for n in range(1, count + 2) for _ in range(spin.degeneracy))
    return sum(states[:count])


@pytest.mark.parametrize(
    "spin,n_values",
    [
        (SpinStatistics.fermion(1), range(1, 12)),
        (SpinStatistics.fermion(3), range(1, 18)),
        (SpinStatistics.fermion(11), range(1, 40)),
        (SpinStatistics.boson(0), range(1, 12)),
        (SpinStatistics.boson(4), range(1, 12)),
    ],
)
def test_closed_form_walls_are_the_oracle_seed(spin, n_values, monkeypatch):
    """The closed-form walls sit at the brute-force K(c) balance that the oracle starts from.

    With a flat ln Z the oracle's Newton search takes no step, so the lighter-half
    walls it returns are its seeds.
    """
    monkeypatch.setattr(oracle, "ln_z_derivatives", lambda *args: (0.0, -1.0))
    thermal = ThermalPoint(0.1 * GEOM.reference_energy / BOLTZMANN)
    for N in n_values:
        filling = decompose(N, spin.u) if spin.kind.value == "fermion" else BosonFilling(N, spin.s)
        seeds = oracle.exact_equilibria(N, spin, GEOM, thermal)
        for m in range(1, (N + 1) // 2):
            ratio = eq_ratio(brute_force_load(m, spin), brute_force_load(N - m, spin))
            assert seeds[m] == wall_position(ratio, GEOM), (N, m)
            if m in filling.support:
                assert eq_ratios(*filling.loads(range(m, m + 1))) == [ratio], (N, m)


def test_wall_position_mapping():
    assert wall_position(1.0, GEOM) == pytest.approx(0.5e-9)
    assert wall_position(0.0, GEOM) == 0.0
    assert wall_position(math.inf, GEOM) == GEOM.length
    r = 0.5 ** (1 / 3)
    # frozen: l = L r/(1+r) for r^3 = 1/2
    assert wall_position(r, GEOM) == pytest.approx(4.4249333402444217e-10, rel=1e-12)
    with pytest.raises(ValueError):
        wall_position(-1.0, GEOM)


def test_wall_boundary_ratios_and_split_error():
    # ratios 0 and inf are kept as walls at the box ends; 1 is an interior wall
    assert wall_position(0.0, GEOM) == 0.0
    assert wall_position(math.inf, GEOM) == GEOM.length
    assert 0.0 < wall_position(1.0, GEOM) < GEOM.length
    with pytest.raises(WallAtBoundaryError):
        level_splits(1, [0.0], GEOM)
    # the column form raises on any boundary ratio instead of returning inf or nan
    for boundary in (0.0, math.inf):
        with pytest.raises(WallAtBoundaryError):
            level_splits(1, [0.5, boundary, 2.0], GEOM)
    with pytest.raises(ValueError):
        level_splits(1, [0.5, -0.5], GEOM)
    assert level_splits(1, [], GEOM).tolist() == []


def test_level_split_values():
    # frozen: level-1 splitting at the r^3 = 1/2 equilibrium position
    ratio = 0.5 ** (1 / 3)
    assert level_splits(1, [ratio], GEOM)[0] == pytest.approx(1.0371860388828955e-23, rel=1e-12)
    # symmetric wall: zero splitting
    assert level_splits(1, [1.0], GEOM)[0] == 0.0
    # level scaling: delta_e grows as level^2
    d1 = level_splits(1, [ratio], GEOM)[0]
    d3 = level_splits(3, [ratio], GEOM)[0]
    assert d3 == pytest.approx(9 * d1, rel=1e-12)


def test_level_splits_level_column_is_one_level_per_call():
    """Each ratio's own level gives the bits of a one-level call on that ratio."""
    levels, ratios = [1, 3, 3, 40], [0.5 ** (1 / 3), 2.0, 0.7, 1.3]
    expected = [level_splits(n, [r], GEOM)[0] for n, r in zip(levels, ratios)]
    assert level_splits(np.array(levels), ratios, GEOM).tolist() == expected
    assert level_splits(np.array([], dtype=np.int64), [], GEOM).tolist() == []


def test_level_split_reflection():
    split_a = level_splits(2, [2.0], GEOM)[0]
    split_b = level_splits(2, [0.5], GEOM)[0]
    assert split_a == pytest.approx(split_b, rel=1e-12)


def level_split_large_n(u: int, n: int, k: int, p: int, geometry: WellGeometry) -> float:
    """Large-n asymptotic splitting (4 pi^2 hbar^2 / M L^2) (n+1) |k/2u - p/u|
    (criterion 10 reads it too)."""
    if n < 1:
        raise ValueError(f"large-n form requires n >= 1, got {n}")
    if p < 0 or p > k:
        raise ValueError(f"require 0 <= p <= k, got p={p}, k={k}")
    scale = 4.0 * math.pi**2 * HBAR**2 / (geometry.mass * geometry.length**2)
    return scale * (n + 1) * abs(k / (2.0 * u) - p / u)


@pytest.mark.parametrize("n,bound", [(10, 0.15), (100, 0.02)])
def test_large_n_split_agreement(n, bound):
    """Asymptotic splitting approaches the exact one: 15% at n=10, 2% at n=100."""
    for u, k in [(1, 1), (2, 3), (5, 3), (5, 7), (10, 19)]:
        for p in range(k + 1):
            if 2 * p == k:
                continue
            ratio = eq_ratio(fermion_load(u, n, p), fermion_load(u, n, k - p))
            exact = level_splits(n + 1, [ratio], GEOM)[0]
            approx = level_split_large_n(u, n, k, p, GEOM)
            assert abs(exact - approx) / exact < bound


def test_large_n_split_domain():
    with pytest.raises(ValueError):
        level_split_large_n(5, 0, 3, 1, GEOM)
    with pytest.raises(ValueError):
        level_split_large_n(5, 10, 3, 4, GEOM)
