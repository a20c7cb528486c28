"""Physical constants, the infinite-well spectrum, and shared domain types.

Internal unit system is SI (joules, kelvin, meters, kilograms). The natural
energy unit of a well of width L is ``E0 = pi^2 hbar^2 / (2 M L^2)``;
reporting layers may rescale to E0 or k_B*T but every computation here stays
in joules.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Final

import numpy as np

#: Boltzmann constant [J/K] (exact by SI definition).
BOLTZMANN: Final[float] = 1.380_649e-23
#: Reduced Planck constant [J*s] (CODATA).
HBAR: Final[float] = 1.054_571_817e-34


class ParticleKind(enum.Enum):
    FERMION = "fermion"
    BOSON = "boson"


@dataclass(frozen=True)
class SpinStatistics:
    """Particle species: twice the spin quantum number plus exchange statistics.

    Fermions carry odd ``twice_spin`` (half-integer s), bosons even.
    Each single-particle level is (2s+1)-fold spin degenerate.
    """

    twice_spin: int
    kind: ParticleKind

    def __post_init__(self) -> None:
        if self.twice_spin < 0:
            raise ValueError(f"twice_spin must be >= 0, got {self.twice_spin}")
        odd = self.twice_spin % 2 == 1
        if self.kind is ParticleKind.FERMION and not odd:
            raise ValueError(f"fermion requires odd twice_spin, got {self.twice_spin}")
        if self.kind is ParticleKind.BOSON and odd:
            raise ValueError(f"boson requires even twice_spin, got {self.twice_spin}")

    @classmethod
    def fermion(cls, twice_spin: int) -> "SpinStatistics":
        return cls(twice_spin, ParticleKind.FERMION)

    @classmethod
    def boson(cls, twice_spin: int) -> "SpinStatistics":
        return cls(twice_spin, ParticleKind.BOSON)

    @property
    def degeneracy(self) -> int:
        """Spin states per level, 2s+1."""
        return self.twice_spin + 1

    @property
    def u(self) -> int:
        """Fermion spin parameter s + 1/2 (a positive integer)."""
        if self.kind is not ParticleKind.FERMION:
            raise ValueError("u is defined for fermions only")
        return (self.twice_spin + 1) // 2

    @property
    def s(self) -> int:
        """Integer boson spin s."""
        if self.kind is not ParticleKind.BOSON:
            raise ValueError("integer spin s is defined for bosons only")
        return self.twice_spin // 2


@dataclass(frozen=True)
class WellGeometry:
    """1-D infinite potential well of width ``length`` holding mass-``mass`` particles."""

    length: float
    mass: float

    def __post_init__(self) -> None:
        if not (self.length > 0):
            raise ValueError(f"length must be > 0, got {self.length}")
        if not (self.mass > 0):
            raise ValueError(f"mass must be > 0, got {self.mass}")

    @property
    def reference_energy(self) -> float:
        """E0 = pi^2 hbar^2 / (2 M L^2), the n=1 full-well level."""
        return level_energy(1, self.length, self)


@dataclass(frozen=True)
class ThermalPoint:
    """Heat-bath temperature; beta = 1/(k_B T) exists only for T > 0."""

    temperature: float

    def __post_init__(self) -> None:
        if not (self.temperature >= 0):
            raise ValueError(f"temperature must be >= 0, got {self.temperature}")

    @property
    def beta(self) -> float:
        if self.temperature <= 0:
            raise ValueError("beta is undefined at T = 0")
        return 1.0 / (BOLTZMANN * self.temperature)


def level_energy(
    n: int | np.ndarray, width: float | np.ndarray, geometry: WellGeometry
) -> float | np.ndarray:
    """Energy of level ``n`` of an infinite well of the given width, or of each width.

    E_n = n^2 pi^2 hbar^2 / (2 M width^2); strictly increasing in n and
    strictly decreasing in width. A width array, with a scalar level or a level
    column that broadcasts against it, gives each element the same operations in
    the same order as scalars, so the same bits.
    """
    if isinstance(width, np.ndarray):
        # a level column comes with a width column; a NaN minimum fails the test too
        lowest = n.min(initial=1) if isinstance(n, np.ndarray) else n
        positive = width.min(initial=math.inf) > 0
    else:
        # the oracle's box DP calls this once per level: no numpy on this branch
        lowest, positive = n, width > 0
    if lowest < 1:
        raise ValueError(f"level index must be >= 1, got {n}")
    if not positive:
        raise ValueError(f"width must be > 0, got {width}")
    return (n * n) * math.pi**2 * HBAR**2 / (2.0 * geometry.mass * width * width)


@dataclass(frozen=True)
class MeasurementDistribution:
    """Probabilities of finding m particles in the left half after the wall insertion.

    ``support`` holds the m values with nonzero probability, ascending;
    ``probabilities`` the matching weights (sum to 1).
    """

    support: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        if len(self.support) != len(self.probabilities):
            raise ValueError("support and probabilities must have equal length")

    def total(self) -> float:
        return float(np.sum(self.probabilities))

    def entropy(self) -> float:
        """Shannon entropy in nats; zero-probability entries contribute 0."""
        p = self.probabilities[self.probabilities > 0]
        # 0.0 - x is -x for every x but a one-point distribution's 0.0, which stays +0.0
        return float(0.0 - np.sum(p * np.log(p)))


@dataclass(frozen=True)
class WorkDecomposition:
    """Affine low-temperature law W_tot(T) = slope * k_B * T - absorbed.

    ``slope`` is dimensionless; ``absorbed`` is the zero-temperature
    absorbed work in joules.
    """

    slope: float
    absorbed: float

    def total_work(self, thermal: ThermalPoint) -> float:
        return self.slope * BOLTZMANN * thermal.temperature - self.absorbed

    @property
    def critical_temperature(self) -> float | None:
        """T_c = W_0 / (D k_B) [K], where the work changes sign; None where D = 0."""
        return self.absorbed / (self.slope * BOLTZMANN) if self.slope > 0.0 else None

    def __post_init__(self) -> None:
        if self.slope < 0 or self.absorbed < 0:
            raise ValueError("slope and absorbed work must be non-negative")
