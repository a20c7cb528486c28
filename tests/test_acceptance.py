"""End-to-end acceptance suite for the engine's analytic and exact layers.

Each test covers one numbered criterion and prints a single PASS/FAIL line
so the suite output doubles as a checklist. Shared scan data is cached at
module scope because several criteria walk the same configuration grid.
"""
import math
import time

import numpy as np
import pytest

from spinszilard import boson, fermion, information, oracle, phase
from spinszilard.boson import BosonFilling
from spinszilard.core import (
    BOLTZMANN,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
)
from spinszilard.equilibrium import eq_ratio, wall_position
from spinszilard.fermion import decompose

from test_equilibrium import level_split_large_n
from test_fermion import average_absorbed_work
from test_information import second_highest_efficiency

GEOM = WellGeometry(length=1e-9, mass=1e-26)
E0 = GEOM.reference_energy
L = GEOM.length

U_MAX = 20
S_MAX = 20
N_MAX = 500
SCAN_KBT = (0.01, 0.1, 1.0)

# filled lazily by criterion 5 and reused by criteria 6 and 7
_DISTRIBUTIONS: dict = {}
_FERMION_COEFFS: dict = {}


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {number:02d} {name}: {verdict}{suffix}")


def thermal_at(kbt_over_e0: float) -> ThermalPoint:
    return ThermalPoint(kbt_over_e0 * E0 / BOLTZMANN)


def scan_configs():
    for u in range(1, U_MAX + 1):
        for N in range(1, N_MAX + 1):
            yield ("fermion", u, N)
    for s in range(0, S_MAX + 1):
        for N in range(1, N_MAX + 1):
            yield ("boson", s, N)


def filling_of(key):
    species, spin, N = key
    if species == "fermion":
        return decompose(N, spin), fermion
    return BosonFilling(N=N, s=spin), boson


def star_parameters(key):
    """Per-outcome (ln prefactor, exponent energy) of ln f* = lw - c/(k_B T).

    Recovered from two temperature probes of one outcome table; exact because
    ln f* is affine in beta on every branch.
    """
    filling, _ = filling_of(key)
    table = information.outcome_table(filling, GEOM)
    t1, t2 = thermal_at(1.0), thermal_at(0.5)
    beta1, beta2 = t1.beta, t2.beta
    x1, x2 = table.log_fstar(t1), table.log_fstar(t2)
    c = np.where(x1 == x2, 0.0, (x1 - x2) / (beta2 - beta1))
    return x1 + c * beta1, c


def test_criterion_01_fermion_maximum_work():
    start = time.perf_counter()
    worst = 0.0
    for u in (1, 2, 5, 10):
        for n in (0, 1, 2):
            for k in (1, 4 * u - 1):
                N = 4 * u * n + k
                filling = decompose(N, u)
                for kbt in (0.02, 0.3):
                    t = thermal_at(kbt)
                    w = fermion.total_work(filling, GEOM, t)
                    target = BOLTZMANN * t.temperature * math.log(2)
                    worst = max(worst, abs(w - target) / target)
                    eta = information.info_work_efficiency(filling, GEOM, t)
                    worst = max(worst, abs(eta - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and elapsed < 1.0
    report(1, "fermion-maximum-work", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_02_boson_two_particle_closed_form():
    start = time.perf_counter()
    worst = 0.0
    ln2 = math.log(2)
    above = True
    for s in range(6):
        filling = BosonFilling(N=2, s=s)
        expected_slope = (2 * s + 2) / (4 * s + 3) * math.log((4 * s + 3) / (s + 1))
        for kbt in (0.05, 0.4):
            t = thermal_at(kbt)
            w = boson.total_work(filling, GEOM, t)
            target = BOLTZMANN * t.temperature * expected_slope
            worst = max(worst, abs(w - target) / target)
            above = above and w > BOLTZMANN * t.temperature * ln2
    elapsed = time.perf_counter() - start
    ok = worst < 1e-12 and above and elapsed < 1.0
    report(2, "boson-two-particle-work", ok, f"worst rel dev {worst:.2e}")
    assert worst < 1e-12
    assert above
    assert elapsed < 1.0


def test_criterion_03_spin_half_nonnegative_work():
    ok = True
    for N in range(1, 201):
        coeffs = fermion.work_coefficients(decompose(N, 1), GEOM)
        ok = ok and coeffs.absorbed == 0.0 and coeffs.slope >= 0.0
        for T in (0.0, 0.1, 1.0):
            ok = ok and coeffs.total_work(ThermalPoint(T)) >= 0.0
    report(3, "spin-half-nonnegative", ok)
    assert ok


def test_criterion_04_zero_absorption_sets():
    ok = True
    for u in range(1, 11):
        expected = {0, 1, 2, 4 * u - 2, 4 * u - 1}
        for k in range(4 * u):
            absorbed = fermion.work_coefficients(decompose(k, u), GEOM).absorbed
            ok = ok and ((absorbed == 0.0) == (k in expected))
    for s in range(0, 11):
        for N in range(0, 61):
            absorbed = boson.work_coefficients(BosonFilling(N=N, s=s), GEOM).absorbed
            ok = ok and ((absorbed == 0.0) == (N in {0, 1, 2}))
    report(4, "zero-absorption-sets", ok)
    assert ok


def test_criterion_05_normalization_symmetry_periodicity():
    start = time.perf_counter()
    worst_sum = 0.0
    symmetric = True
    periodic = True
    for key in scan_configs():
        filling, module = filling_of(key)
        dist = module.measurement_distribution(filling)
        _DISTRIBUTIONS[key] = dist
        worst_sum = max(worst_sum, abs(dist.total() - 1.0))
        probs = dist.probabilities
        symmetric = symmetric and bool(np.all(probs == probs[::-1]))
    for u in range(1, U_MAX + 1):
        for N in range(1, N_MAX + 1):
            coeffs = fermion.work_coefficients(decompose(N, u), GEOM)
            _FERMION_COEFFS[(u, N)] = coeffs
            partner = (u, N - 4 * u) if N > 4 * u else None
            if partner in _FERMION_COEFFS:
                periodic = periodic and coeffs.slope == _FERMION_COEFFS[partner].slope
        for k in range(4 * u + 1):
            mirrored = fermion.work_coefficients(decompose(4 * u - k, u), GEOM)
            direct = fermion.work_coefficients(decompose(k, u), GEOM)
            symmetric = symmetric and direct.slope == mirrored.slope
    elapsed = time.perf_counter() - start
    ok = worst_sum <= 1e-12 and symmetric and periodic and elapsed < 30.0
    report(
        5,
        "normalization-symmetry-periodicity",
        ok,
        f"worst |sum-1| {worst_sum:.2e}, {elapsed:.1f}s",
    )
    assert worst_sum <= 1e-12
    assert symmetric
    assert periodic
    assert elapsed < 30.0


@pytest.fixture(scope="module")
def star_cache():
    if not _DISTRIBUTIONS:
        for key in scan_configs():
            filling, module = filling_of(key)
            _DISTRIBUTIONS[key] = module.measurement_distribution(filling)
    cache = {}
    for key in scan_configs():
        cache[key] = star_parameters(key)
    return cache


def test_criterion_06_second_law_bound(star_cache):
    violations = []
    for kbt in SCAN_KBT:
        t = thermal_at(kbt)
        beta = t.beta
        kt = BOLTZMANN * t.temperature
        for key in scan_configs():
            f = _DISTRIBUTIONS[key].probabilities
            lw, c = star_cache[key]
            w_net = kt * float(np.sum(f * (lw - beta * c)))
            if w_net > 1e-12 * kt:
                violations.append((kbt, key, w_net / kt))
    ok = not violations
    detail = f"{len(violations)} violations"
    if violations:
        worst = max(violations, key=lambda v: v[2])
        detail += f", worst W_net/kBT {worst[2]:.3f} at {worst[1]} kBT/E0={worst[0]}"
    report(6, "second-law-bound", ok, detail)
    assert ok, (
        "net work exceeds the second-law bound on part of the scan grid; "
        f"{detail}. The exact ensemble obeys the bound (see the oracle suite); "
        "the closed forms do not once k_B T approaches the level spacing."
    )


def test_criterion_07_closed_form_identity(star_cache):
    worst_rel = 0.0
    ok = True
    boson_coeffs = {}
    for kbt in SCAN_KBT:
        t = thermal_at(kbt)
        beta = t.beta
        kt = BOLTZMANN * t.temperature
        for key in scan_configs():
            species, spin, N = key
            dist = _DISTRIBUTIONS[key]
            f = dist.probabilities
            lw, c = star_cache[key]
            w_direct = -kt * float(np.sum(f * (np.log(f) - lw + beta * c)))
            if species == "fermion":
                if (spin, N) not in _FERMION_COEFFS:
                    _FERMION_COEFFS[(spin, N)] = fermion.work_coefficients(
                        decompose(N, spin), GEOM
                    )
                coeffs = _FERMION_COEFFS[(spin, N)]
            else:
                if key not in boson_coeffs:
                    boson_coeffs[key] = boson.work_coefficients(
                        BosonFilling(N=N, s=spin), GEOM
                    )
                coeffs = boson_coeffs[key]
            w_closed = coeffs.total_work(t)
            diff = abs(w_closed - w_direct)
            if w_closed == 0.0:
                ok = ok and diff == 0.0
            else:
                rel = diff / abs(w_closed)
                worst_rel = max(worst_rel, rel)
                ok = ok and rel < 1e-10
    report(7, "closed-form-identity", ok, f"worst rel dev {worst_rel:.2e}")
    assert ok


def test_criterion_08_oracle_equivalence():
    start = time.perf_counter()
    cases = (
        [(SpinStatistics.fermion(1), N) for N in (1, 2, 3)]
        + [(SpinStatistics.fermion(9), N) for N in (1, 2, 3)]
        + [(SpinStatistics.boson(0), N) for N in (1, 2, 3)]
        + [(SpinStatistics.boson(2), N) for N in (1, 2, 3)]
    )
    temps = [thermal_at(0.05), thermal_at(0.1)]
    worst_df = worst_dl = worst_dw = worst_affine = 0.0
    for spin, N in cases:
        if spin.kind.value == "fermion":
            filling, module = decompose(N, spin.u), fermion
        else:
            filling, module = BosonFilling(N=N, s=spin.s), boson
        closed_dist = module.measurement_distribution(filling)
        works = []
        for t in temps:
            cycle = oracle.ensemble_cycle(N, spin, GEOM, t)
            works.append(cycle.total_work)
            for m in range(N + 1):
                f_closed = 0.0  # outside the closed-form support
                if m in filling.support:
                    f_closed = closed_dist.probabilities[m - closed_dist.support[0]]
                    (ratio,) = map(eq_ratio, *filling.loads(range(m, m + 1)))
                    analytic_pos = wall_position(ratio, GEOM)
                    worst_dl = max(worst_dl, abs(cycle.equilibria[m] - analytic_pos) / L)
                worst_df = max(
                    worst_df, abs(cycle.distribution.probabilities[m] - f_closed)
                )
            w_closed = module.total_work(filling, GEOM, t)
            worst_dw = max(worst_dw, abs(cycle.total_work - w_closed) / abs(w_closed))
        coeffs = module.work_coefficients(filling, GEOM)
        t1, t2 = temps
        slope = (works[1] - works[0]) / (BOLTZMANN * (t2.temperature - t1.temperature))
        absorbed = slope * BOLTZMANN * t1.temperature - works[0]
        worst_affine = max(worst_affine, abs(slope - coeffs.slope) / coeffs.slope)
        if coeffs.absorbed > 0:
            worst_affine = max(
                worst_affine, abs(absorbed - coeffs.absorbed) / coeffs.absorbed
            )
        else:
            work_scale = max(abs(w) for w in works)
            worst_affine = max(worst_affine, abs(absorbed) / work_scale)
    elapsed = time.perf_counter() - start
    ok = (
        worst_df < 1e-3
        and worst_dl < 1e-3
        and worst_dw < 1e-3
        and worst_affine < 0.01
        and elapsed < 60.0
    )
    report(
        8,
        "oracle-equivalence",
        ok,
        f"df {worst_df:.1e}, dl {worst_dl:.1e}, dW {worst_dw:.1e}, "
        f"affine {worst_affine:.1e}, {elapsed:.1f}s",
    )
    assert worst_df < 1e-3
    assert worst_dl < 1e-3
    assert worst_dw < 1e-3
    assert worst_affine < 0.01
    assert elapsed < 60.0


def test_criterion_09_second_highest_efficiency():
    t = thermal_at(0.1)
    worst = 0.0
    for u in range(1, 21):
        alpha = (2 * u - 1) / (4 * u - 1)
        direct = information.info_work_efficiency(decompose(2, u), GEOM, t)
        worst = max(worst, abs(second_highest_efficiency(alpha) - direct))
    for s in range(0, 21):
        alpha = (2 * s + 2) / (4 * s + 3)
        direct = information.info_work_efficiency(BosonFilling(N=2, s=s), GEOM, t)
        worst = max(worst, abs(second_highest_efficiency(alpha) - direct))
    spot_a = abs(second_highest_efficiency(1 / 3) - 0.688426)
    spot_b = abs(second_highest_efficiency(2 / 3) - 0.666667)
    ok = worst < 1e-12 and spot_a < 1e-6 and spot_b < 1e-6
    report(9, "second-highest-efficiency", ok, f"worst dev {worst:.2e}")
    assert worst < 1e-12
    assert spot_a < 1e-6
    assert spot_b < 1e-6


def test_criterion_10_large_n_periodic_limit():
    u, k = 5, 3
    _, limit = fermion.filled_shell_limits(u, k, GEOM)

    def asymptotic_average(n: int) -> float:
        N = 4 * u * n + k
        dist = fermion.measurement_distribution(decompose(N, u))
        total = 0.0
        for p in range((k - 1) // 2 + 1):
            f = dist.probabilities[2 * u * n + p - dist.support[0]]
            total += p * f * level_split_large_n(u, n, k, p, GEOM)
        return 2.0 * total / N

    deviations = [abs(asymptotic_average(n) - limit) for n in (1, 10, 100)]
    monotone = deviations[0] > deviations[1] > deviations[2]
    converged = deviations[2] / limit < 0.01
    exact_devs = [
        abs(average_absorbed_work(decompose(4 * u * n + k, u), GEOM) - limit)
        for n in (1, 10, 100)
    ]
    exact_monotone = exact_devs[0] > exact_devs[1] > exact_devs[2]
    mirror = all(
        fermion.filled_shell_limits(uu, kk, GEOM)[1]
        == fermion.filled_shell_limits(uu, 4 * uu - kk, GEOM)[1]
        for uu in range(1, 11)
        for kk in range(1, 4 * uu)
    )
    ok = monotone and converged and exact_monotone and mirror
    report(
        10,
        "large-n-periodic-limit",
        ok,
        f"rel dev at n=100: {deviations[2] / limit:.4f}",
    )
    assert monotone
    assert converged
    assert exact_monotone
    assert mirror


def test_criterion_11_large_spin_boson_limits():
    start = time.perf_counter()
    ok = True
    worst = 0.0
    for N in range(1, 7):
        coeffs = boson.work_coefficients(BosonFilling(N=N, s=500), GEOM)
        lim = boson.work_coefficients(boson.LargeSpinBosons(N), GEOM)
        if N % 2 == 1:
            target_slope = N * math.log(2)
        else:
            target_slope = (1 - math.comb(N, N // 2) / 2**N) * N * math.log(2)
        dev = abs(coeffs.slope - target_slope) / target_slope
        worst = max(worst, dev)
        if lim.absorbed > 0:
            dev_w = abs(coeffs.absorbed - lim.absorbed) / lim.absorbed
        else:
            dev_w = abs(coeffs.absorbed)
        worst = max(worst, dev_w)
        ok = ok and dev < 0.005 and dev_w < 0.005
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(11, "large-spin-boson-limits", ok, f"worst rel dev {worst:.2e}, {elapsed:.2f}s")
    assert ok


def test_criterion_12_critical_temperature_spots():
    tc_f = fermion.work_coefficients(decompose(3, 5), GEOM).critical_temperature
    tc_b = boson.work_coefficients(BosonFilling(N=3, s=0), GEOM).critical_temperature
    spot_ok = abs(tc_f - 0.263326) < 1e-3 and abs(tc_b - 0.270829) < 1e-3

    temps = np.linspace(0.0, 0.6, 121)
    curve = phase.phase_curve(SpinStatistics.fermion(9), GEOM, [3])
    signs = np.sign(phase.work_rows(curve, temps)[0])
    flips = np.nonzero(np.diff(signs) > 0)[0]
    flip_ok = len(flips) == 1 and temps[flips[0]] <= tc_f <= temps[flips[0] + 1]

    monotone_ok = True
    for N in (3, 4, 5):
        previous = None
        for s in range(1, 8):
            coeffs = boson.work_coefficients(BosonFilling(N=N, s=s), GEOM)
            tc = coeffs.critical_temperature
            if previous is not None:
                monotone_ok = monotone_ok and tc < previous
            previous = tc
    for N in (5, 6):
        tc0 = boson.work_coefficients(BosonFilling(N=N, s=0), GEOM).critical_temperature
        tc1 = boson.work_coefficients(BosonFilling(N=N, s=1), GEOM).critical_temperature
        monotone_ok = monotone_ok and tc1 < tc0
    ok = spot_ok and flip_ok and monotone_ok
    report(12, "critical-temperature-spots", ok, f"Tc_F {tc_f:.6f} K, Tc_B {tc_b:.6f} K")
    assert spot_ok
    assert flip_ok
    assert monotone_ok
