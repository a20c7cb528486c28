"""Export critical-temperature curves and a work-sign grid as CSV files.

Writes phase_fermion_u5.csv, phase_boson.csv and work_u5.csv into the
current directory; the same files can be produced with the `szilard phase`
subcommand.
"""
import csv

import numpy as np

from spinszilard import phase
from spinszilard.core import SpinStatistics, WellGeometry

geometry = WellGeometry(length=1e-9, mass=1e-26)
n_values = list(range(1, 61))
# one curve, its work coefficients per N, serves both the T_c file and the grid
fermion_curve = phase.phase_curve(SpinStatistics.fermion(9), geometry, n_values)


def tc_cell(coeffs):
    """T_c [K], or an empty cell where D = 0; a T_c of 0.0 is a value, not a blank."""
    tc = coeffs.critical_temperature
    return "" if tc is None else tc


with open("phase_fermion_u5.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["N", "T_c_kelvin"])
    for N, coeffs in zip(n_values, fermion_curve):
        writer.writerow([N, tc_cell(coeffs)])

with open("phase_boson.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["two_s", "N", "T_c_kelvin"])
    for two_s in (0, 2, 4):
        spin = SpinStatistics.boson(two_s)
        for N, coeffs in zip(n_values, phase.phase_curve(spin, geometry, n_values)):
            writer.writerow([two_s, N, tc_cell(coeffs)])

temperatures = np.linspace(0.0, 1.0, 101)
with open("work_u5.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["N", "T_kelvin", "W_tot_joule"])
    # one grid row per N: W_tot = D k_B T - W_0 at every temperature
    for N, works in zip(n_values, phase.work_rows(fermion_curve, temperatures).tolist()):
        for T, work in zip(temperatures.tolist(), works):
            writer.writerow([N, T, work])

print("wrote phase_fermion_u5.csv, phase_boson.csv, work_u5.csv")
print("cells with an empty T_c have zero work slope: no sign change at any T")
