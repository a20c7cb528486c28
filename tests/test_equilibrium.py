import math

import numpy as np
import pytest

from spinszilard.core import WellGeometry
from spinszilard.equilibrium import (
    WallAtBoundaryError,
    boson_eq_ratio,
    fermion_eq_ratio,
    level_split_large_n,
    level_splits,
    wall_position,
)

GEOM = WellGeometry(length=1e-9, mass=1e-26)


def test_fermion_ratio_symmetric_load():
    assert fermion_eq_ratio(5, 0, 4, 2) == 1.0
    assert fermion_eq_ratio(3, 7, 6, 3) == 1.0


def test_fermion_ratio_reflection():
    """Swapping the two sides inverts the ratio: r(p) * r(k-p) = 1."""
    for u, n, k in [(1, 0, 1), (5, 0, 3), (5, 2, 7), (10, 1, 19), (4, 3, 12)]:
        for p in range(k + 1):
            left = fermion_eq_ratio(u, n, k, p)
            right = fermion_eq_ratio(u, n, k, k - p)
            if math.isinf(left):
                assert right == 0.0
            elif left == 0.0:
                assert math.isinf(right)
            else:
                assert left * right == pytest.approx(1.0, rel=1e-12)


def test_fermion_ratio_endpoints_n0():
    # with no filled shells, an empty side pushes the wall to the box end
    assert fermion_eq_ratio(5, 0, 3, 0) == 0.0
    assert math.isinf(fermion_eq_ratio(5, 0, 3, 3))
    # filled shells keep both sides occupied: finite ratio even at p = 0
    assert 0 < fermion_eq_ratio(5, 1, 3, 0) < 1


def test_fermion_ratio_known_value():
    # u=5, n=0, k=3, p=1: r^3 = 1/2
    assert fermion_eq_ratio(5, 0, 3, 1) == pytest.approx(0.5 ** (1 / 3), rel=1e-14)


def test_fermion_ratio_domain():
    with pytest.raises(ValueError):
        fermion_eq_ratio(0, 0, 1, 0)
    with pytest.raises(ValueError):
        fermion_eq_ratio(1, 0, 1, 2)


def test_boson_ratio():
    assert boson_eq_ratio(1, 2) == 1.0
    assert boson_eq_ratio(0, 3) == 0.0
    assert math.isinf(boson_eq_ratio(3, 3))
    assert boson_eq_ratio(1, 3) == pytest.approx(0.5 ** (1 / 3), rel=1e-14)
    for m in range(1, 7):
        assert boson_eq_ratio(m, 7) * boson_eq_ratio(7 - m, 7) == pytest.approx(1.0)


def test_wall_position_mapping():
    assert wall_position(1.0, GEOM) == pytest.approx(0.5e-9)
    assert wall_position(0.0, GEOM) == 0.0
    assert wall_position(math.inf, GEOM) == GEOM.length
    r = 0.5 ** (1 / 3)
    # frozen: l = L r/(1+r) for r^3 = 1/2
    assert wall_position(r, GEOM) == pytest.approx(4.4249333402444217e-10, rel=1e-12)


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


@pytest.mark.parametrize("n,bound", [(10, 0.15), (100, 0.02)])
def test_large_n_split_agreement(n, bound):
    """Asymptotic splitting approaches the exact one: 15% at n=10, 2% at n=100."""
    for u, k in [(1, 1), (2, 3), (5, 3), (5, 7), (10, 19)]:
        for p in range(k + 1):
            if 2 * p == k:
                continue
            ratio = fermion_eq_ratio(u, n, k, p)
            exact = level_splits(n + 1, [ratio], GEOM)[0]
            approx = level_split_large_n(u, n, k, p, GEOM)
            assert abs(exact - approx) / exact < bound


def test_large_n_split_domain():
    with pytest.raises(ValueError):
        level_split_large_n(5, 0, 3, 1, GEOM)
    with pytest.raises(ValueError):
        level_split_large_n(5, 10, 3, 4, GEOM)
