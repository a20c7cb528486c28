"""Compare the low-temperature closed forms against the exact canonical ensemble.

The oracle builds partition functions by dynamic programming over well levels
and puts each wall where the pressures on it balance, by a Newton search on
the slope of ln Z_m; it shares no formulas with the closed-form modules. At low temperature the two
agree to many digits. The second half of the script shows where the closed
forms stop being trustworthy: at k_B T comparable to the level spacing their
net work goes positive, while the exact ensemble keeps obeying the second law.
"""
from spinszilard import boson, fermion, information, oracle
from spinszilard.boson import BosonFilling
from spinszilard.core import BOLTZMANN, SpinStatistics, ThermalPoint, WellGeometry
from spinszilard.fermion import decompose

geometry = WellGeometry(length=1e-9, mass=1e-26)
e0 = geometry.reference_energy


def thermal_at(kbt_over_e0):
    return ThermalPoint(kbt_over_e0 * e0 / BOLTZMANN)


print("low-temperature agreement (k_B T = 0.05 E0)")
thermal = thermal_at(0.05)
for label, spin, N, filling, module in [
    ("fermion u=1, N=2", SpinStatistics.fermion(1), 2, decompose(2, 1), fermion),
    ("fermion u=5, N=3", SpinStatistics.fermion(9), 3, decompose(3, 5), fermion),
    ("boson   s=1, N=2", SpinStatistics.boson(2), 2, BosonFilling(N=2, s=1), boson),
]:
    exact = oracle.ensemble_cycle(N, spin, geometry, thermal).total_work
    closed = module.total_work(filling, geometry, thermal)
    rel = abs(exact - closed) / abs(closed)
    print(f"  {label}:  W_exact = {exact:.6e} J   rel dev from closed form {rel:.1e}")

print()
print("closed-form breakdown at k_B T = E0 (fermion u=5, N=5)")
hot = thermal_at(1.0)
kbt = BOLTZMANN * hot.temperature
filling = decompose(5, 5)
closed_net = information.net_work(filling, geometry, hot)
spin = SpinStatistics.fermion(9)
cycle = oracle.ensemble_cycle(5, spin, geometry, hot)
exact_net = cycle.total_work - kbt * cycle.distribution.entropy()
print(f"  closed-form W_net / k_B T = {closed_net / kbt:+.4f}  (unphysical, > 0)")
print(f"  exact       W_net / k_B T = {exact_net / kbt:+.4f}  (second law holds)")
