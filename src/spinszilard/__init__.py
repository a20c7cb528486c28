"""Arbitrary-spin quantum Szilard engine: analytics, phase scans, and an exact oracle."""

from .core import (
    BOLTZMANN,
    HBAR,
    MeasurementDistribution,
    ParticleKind,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
    WorkDecomposition,
    level_energy,
)

__all__ = [
    "BOLTZMANN",
    "HBAR",
    "MeasurementDistribution",
    "ParticleKind",
    "SpinStatistics",
    "ThermalPoint",
    "WellGeometry",
    "WorkDecomposition",
    "level_energy",
]

__version__ = "0.16.0"
