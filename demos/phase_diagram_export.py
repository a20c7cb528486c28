"""Export critical-temperature curves and a work-sign grid as CSV files.

Writes phase_fermion_u5.csv, phase_boson.csv and work_grid_u5.csv into the
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

with open("phase_fermion_u5.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["N", "T_c_kelvin"])
    for point in fermion_curve:
        writer.writerow([point.N, point.critical_temperature if point.defined else ""])

with open("phase_boson.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["two_s", "N", "T_c_kelvin"])
    for two_s in (0, 2, 4):
        spin = SpinStatistics.boson(two_s)
        for point in phase.phase_curve(spin, geometry, n_values):
            writer.writerow(
                [two_s, point.N, point.critical_temperature if point.defined else ""]
            )

temperatures = np.linspace(0.0, 1.0, 101)
grid = phase.work_grid(fermion_curve, temperatures)
with open("work_grid_u5.csv", "w", newline="") as handle:
    writer = csv.writer(handle)
    writer.writerow(["N", "T_kelvin", "W_tot_joule"])
    for i, N in enumerate(grid.n_values):
        for j, T in enumerate(grid.temperatures):
            writer.writerow([int(N), float(T), grid.work[i, j]])

print("wrote phase_fermion_u5.csv, phase_boson.csv, work_grid_u5.csv")
print("cells with an empty T_c have zero work slope: no sign change at any T")
