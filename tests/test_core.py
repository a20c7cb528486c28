import math
import pathlib
import re

import numpy as np
import pytest

import spinszilard
from spinszilard.core import (
    BOLTZMANN,
    MeasurementDistribution,
    ParticleKind,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
    WorkDecomposition,
    level_energy,
)

GEOM = WellGeometry(length=1e-9, mass=1e-26)
# frozen from direct arithmetic with CODATA hbar
E0 = 5.488100697364797e-24


def test_level_energy_quadratic_scaling():
    for width in (1e-9, 3.7e-10):
        assert level_energy(2, width, GEOM) == pytest.approx(
            4 * level_energy(1, width, GEOM), rel=1e-14
        )


def test_level_energy_values():
    assert level_energy(1, 1e-9, GEOM) == pytest.approx(E0, rel=1e-12)
    assert level_energy(1, 0.5e-9, GEOM) == pytest.approx(4 * E0, rel=1e-12)


def test_level_energy_domain_errors():
    with pytest.raises(ValueError):
        level_energy(0, 1e-9, GEOM)
    with pytest.raises(ValueError):
        level_energy(1, 0.0, GEOM)
    # a width column is guarded as a whole: one bad element raises, never inf or nan
    for bad in (0.0, -1e-9, math.nan):
        with pytest.raises(ValueError):
            level_energy(1, np.array([1e-9, bad, 0.5e-9]), GEOM)
    # so is a level column
    with pytest.raises(ValueError):
        level_energy(np.array([2, 0, 1]), np.array([1e-9, 1e-9, 0.5e-9]), GEOM)


def test_level_energy_level_column_is_scalar_bit_for_bit():
    """A level column against a width column (or its two rows) carries each scalar call's bits."""
    levels = np.array([1, 2, 7, 1000])
    widths = np.array([1e-9, 3.7e-10, 0.5e-9, 1e-6])
    expected = [level_energy(int(n), float(w), GEOM) for n, w in zip(levels, widths)]
    assert level_energy(levels, widths, GEOM).tolist() == expected
    rows = level_energy(levels, np.array([widths, widths[::-1]]), GEOM).tolist()
    assert rows[0] == expected
    assert rows[1] == [level_energy(int(n), float(w), GEOM) for n, w in zip(levels, widths[::-1])]


def test_reference_energy_scalings():
    assert GEOM.reference_energy == pytest.approx(E0, rel=1e-12)
    doubled_l = WellGeometry(length=2e-9, mass=1e-26)
    assert doubled_l.reference_energy == pytest.approx(E0 / 4, rel=1e-12)
    doubled_m = WellGeometry(length=1e-9, mass=2e-26)
    assert doubled_m.reference_energy == pytest.approx(E0 / 2, rel=1e-12)


@pytest.mark.parametrize("n,m", [(2, 1), (7, 3), (100, 99), (1000, 1)])
def test_level_ratio_property(n, m):
    ratio = level_energy(n, 1e-9, GEOM) / level_energy(m, 1e-9, GEOM)
    assert ratio == pytest.approx((n / m) ** 2, rel=1e-14)


def test_energies_positive_finite():
    for n in (1, 10, 10**6):
        for width in (1e-12, 1e-6, 1.0):
            e = level_energy(n, width, GEOM)
            assert e > 0 and math.isfinite(e)


def test_spin_parity_enforced():
    SpinStatistics.fermion(1)
    SpinStatistics.boson(0)
    with pytest.raises(ValueError):
        SpinStatistics.fermion(2)
    with pytest.raises(ValueError):
        SpinStatistics.boson(3)


def test_spin_derived_quantities():
    f = SpinStatistics.fermion(9)
    assert f.degeneracy == 10
    assert f.u == 5
    b = SpinStatistics.boson(4)
    assert b.degeneracy == 5
    assert b.s == 2
    with pytest.raises(ValueError):
        _ = b.u


def test_thermal_point_beta():
    t = ThermalPoint(2.0)
    assert t.beta == pytest.approx(1.0 / (2.0 * BOLTZMANN))
    with pytest.raises(ValueError):
        _ = ThermalPoint(0.0).beta
    with pytest.raises(ValueError):
        ThermalPoint(-1.0)


def test_distribution_total_and_entropy():
    dist = MeasurementDistribution(
        support=np.array([0, 1, 2]), probabilities=np.array([0.25, 0.5, 0.25])
    )
    assert dist.total() == pytest.approx(1.0)
    assert dist.entropy() == pytest.approx(1.5 * math.log(2), rel=1e-12)


def test_deterministic_distribution_entropy_is_positive_zero():
    dist = MeasurementDistribution(support=np.array([4]), probabilities=np.array([1.0]))
    assert math.copysign(1.0, dist.entropy()) == 1.0
    # every other distribution keeps the bits of the negated sum
    p = np.array([0.1, 0.2, 0.3, 0.4])
    dist = MeasurementDistribution(support=np.arange(4), probabilities=p)
    assert dist.entropy() == float(-np.sum(p * np.log(p)))


@pytest.mark.parametrize(
    "build",
    [
        lambda: SpinStatistics.fermion(1).s,
        lambda: WellGeometry(length=0.0, mass=1e-26),
        lambda: MeasurementDistribution(support=np.arange(3), probabilities=np.array([0.5, 0.5])),
        lambda: WorkDecomposition(slope=-1.0, absorbed=0.0),
        lambda: WorkDecomposition(slope=1.0, absorbed=-1e-24),
    ],
    ids=["fermion-s", "zero-length", "unequal-lengths", "negative-slope", "negative-absorbed"],
)
def test_value_types_refuse_bad_fields(build):
    with pytest.raises(ValueError):
        build()


def test_work_decomposition_affine():
    wd = WorkDecomposition(slope=math.log(2), absorbed=1e-24)
    assert wd.total_work(ThermalPoint(0.0)) == -1e-24
    t = ThermalPoint(1.0)
    assert wd.total_work(t) == pytest.approx(math.log(2) * BOLTZMANN - 1e-24)


def test_version_matches_pyproject():
    """``__version__`` equals the version under [project] in pyproject.toml."""
    text = (pathlib.Path(__file__).parent.parent / "pyproject.toml").read_text(encoding="utf-8")
    # a regex, not tomllib: Python 3.10 is supported and has no tomllib
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    version = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M).group(1)
    assert spinszilard.__version__ == version
