"""Rank engine configurations by information-work efficiency.

The single-outcome-per-side engines (one fermion remainder, or one boson)
run reversibly: every nat of measured information is paid back as work, so
eta = 1. The runner-up family has a closed-form efficiency depending on a
single weight alpha; this script evaluates it directly and through the
general work/erasure route to show they match.
"""
import math

from spinszilard import information, phase
from spinszilard.boson import BosonFilling
from spinszilard.core import BOLTZMANN, SpinStatistics, ThermalPoint, WellGeometry
from spinszilard.fermion import decompose

geometry = WellGeometry(length=1e-9, mass=1e-26)
e0 = geometry.reference_energy
thermal = ThermalPoint(0.1 * e0 / BOLTZMANN)


def second_highest_efficiency(alpha: float) -> float:
    """The runner-up engines' closed form: eta = 1 / (1 + (1-a) ln(1-a) / (a ln(a/2)))."""
    return 1.0 / (1.0 + (1.0 - alpha) * math.log(1.0 - alpha) / (alpha * math.log(alpha / 2.0)))


print("reversible engines (eta = 1):")
for label, filling in [
    ("fermion u=5, N=1", decompose(1, 5)),
    ("fermion u=5, N=19", decompose(19, 5)),
    ("boson   s=2, N=1", BosonFilling(N=1, s=2)),
]:
    eta = information.info_work_efficiency(filling, geometry, thermal)
    print(f"  {label}: eta = {eta:.12f}")

print()
print("runner-up family, fermion k=2 (alpha = (2u-1)/(4u-1)):")
for u in (1, 2, 5, 20):
    alpha = (2 * u - 1) / (4 * u - 1)
    direct = information.info_work_efficiency(decompose(2, u), geometry, thermal)
    closed = second_highest_efficiency(alpha)
    print(f"  u = {u:2d}: direct {direct:.9f}  closed form {closed:.9f}")

print()
print("runner-up family, boson N=2 (alpha = (2s+2)/(4s+3)):")
for s in (0, 1, 5, 20):
    alpha = (2 * s + 2) / (4 * s + 3)
    direct = information.info_work_efficiency(BosonFilling(N=2, s=s), geometry, thermal)
    closed = second_highest_efficiency(alpha)
    print(f"  s = {s:2d}: direct {direct:.9f}  closed form {closed:.9f}")

print()
report = phase.extremal_report(SpinStatistics.fermion(9), geometry)
print("fermion u=5 summary:")
print(f"  zero-absorption remainders k: {report.zero_absorption}")
print(f"  maximum work k: {report.max_work_configs} at {report.max_work_per_kbt:.4f} k_B T")
print(f"  a spinless boson pair beats the fermion maximum: {report.boson_beats_fermion_max_work}")
