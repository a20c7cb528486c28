"""The three benchmark workloads: seeded inputs, one item call, output checks.

Each workload turns a seed into an endless stream of items. Items are drawn
in rounds; within a round every input dimension that sets an item's cost is
split into equal strata and each stratum is used once (a Latin hypercube), so
the cost mix of a run depends little on the seed while every item still comes
from the whole sampled grid. ``run`` is the only call the benchmark times;
``check`` runs afterwards and records failed checks and counters in an
``Outcome``.

``spinszilard`` is imported lazily by ``load`` so that the set-up time the
benchmark reports includes that import.
"""
from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Any, Callable, Iterator

# Set by load(): numpy, the package's modules and the acceptance suite's well.
np: Any = None
sz: Any = None
GEOM: Any = None

#: The acceptance grid sampled by closed_form_scan.
CFS_FERMION_U = (1, 20)
CFS_BOSON_S = (0, 20)
CFS_N = (1, 500)
CFS_KBT = (0.01, 0.1, 1.0)

#: phase_cli: spins and particle-number ranges of one CLI call.
PHASE_TEMP_RANGE = "0:1:0.05"
PHASE_TEMPS = 21  # values in PHASE_TEMP_RANGE
PHASE_TWO_S_MAX = 40
PHASE_SPINS = (1, 3)
PHASE_FERMION_N = (1, 400)  # range start; width below
PHASE_FERMION_WIDTH = (1, 200)
PHASE_BOSON_N = (1, 60)
PHASE_BOSON_WIDTH = (1, 40)

#: oracle_cycle: the CLI's oracle domain.
ORACLE_DEGENERACY_MAX = 12
ORACLE_N = (1, 6)
ORACLE_KBT = (0.02, 1.0)
#: At or below this k_B T / E0 the closed forms must match the oracle.
ORACLE_CLOSED_FORM_KBT = 0.1
ORACLE_CLOSED_FORM_REL = 1e-3


def load() -> None:
    """Import the package under test (part of the measured set-up)."""
    global np, sz, GEOM
    import numpy

    from spinszilard import boson, cli, core, fermion, information, oracle, phase

    np = numpy
    sz = SimpleNamespace(
        boson=boson, cli=cli, core=core, fermion=fermion,
        information=information, oracle=oracle, phase=phase,
    )
    GEOM = core.WellGeometry(length=1e-9, mass=1e-26)


def thermal_at(kbt_over_e0: float):
    return sz.core.ThermalPoint(kbt_over_e0 * GEOM.reference_energy / sz.core.BOLTZMANN)


def strata(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """``count`` integers in [lo, hi], one from each of ``count`` equal strata, shuffled."""
    width = (hi - lo + 1) / count
    values = [lo + min(int((i + rng.random()) * width), hi - lo) for i in range(count)]
    rng.shuffle(values)
    return values


def strata_float(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    width = (hi - lo) / count
    values = [lo + (i + rng.random()) * width for i in range(count)]
    rng.shuffle(values)
    return values


def cycled(rng: random.Random, count: int, choices) -> list:
    """``count`` values cycling through ``choices`` evenly, shuffled."""
    values = [choices[i % len(choices)] for i in range(count)]
    rng.shuffle(values)
    return values


@dataclass
class Outcome:
    """What a finished run reports beyond latency: per-check failures and counters."""

    failed_checks: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def fail(self, name: str) -> None:
        self.failed_checks[name] = self.failed_checks.get(name, 0) + 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


# ---------------------------------------------------------------- closed_form_scan


def cfs_items(seed: int) -> Iterator[tuple]:
    """(species, twice_spin, N, k_B T / E0), 60 per round, 30 of each species."""
    rng = random.Random(seed)
    half = 30
    while True:
        items = []
        for u, N, kbt in zip(
            strata(rng, half, *CFS_FERMION_U), strata(rng, half, *CFS_N), cycled(rng, half, CFS_KBT)
        ):
            items.append(("fermion", 2 * u - 1, N, kbt))
        for s, N, kbt in zip(
            strata(rng, half, *CFS_BOSON_S), strata(rng, half, *CFS_N), cycled(rng, half, CFS_KBT)
        ):
            items.append(("boson", 2 * s, N, kbt))
        rng.shuffle(items)
        yield from items


def _filling(species: str, twice_spin: int, N: int):
    if species == "fermion":
        return sz.fermion.decompose(N, (twice_spin + 1) // 2), sz.fermion
    return sz.boson.BosonFilling(N=N, s=twice_spin // 2), sz.boson


def cfs_run(item: tuple) -> dict:
    species, twice_spin, N, kbt = item
    filling, module = _filling(species, twice_spin, N)
    thermal = thermal_at(kbt)
    dist = module.measurement_distribution(filling)
    module.work_coefficients(filling, GEOM)  # D and W0, as the acceptance scans compute them
    w_tot = module.total_work(filling, GEOM, thermal)
    w_rel = module.relative_entropy_work(filling, GEOM, thermal)
    w_net = sz.information.net_work(filling, GEOM, thermal)
    w_eras = sz.information.erasure_work(dist, thermal)
    try:
        eta = sz.information.info_work_efficiency(filling, GEOM, thermal)
    except sz.information.UndefinedEfficiencyError:
        eta = None
    return dict(
        probs=dist.probabilities, w_tot=w_tot, w_rel=w_rel,
        w_net=w_net, w_eras=w_eras, eta=eta, kt=sz.core.BOLTZMANN * thermal.temperature,
    )


def cfs_check(item: tuple, out: dict, outcome: Outcome) -> None:
    probs = out["probs"]
    if not abs(float(np.sum(probs)) - 1.0) <= 1e-12:
        outcome.fail("normalization")
    if not np.array_equal(probs, probs[::-1]):
        outcome.fail("mirror_symmetry")
    w_tot, w_rel, w_net, w_eras = out["w_tot"], out["w_rel"], out["w_net"], out["w_eras"]
    diff = abs(w_tot - w_rel)
    if diff >= 1e-30 and not diff / abs(w_tot) < 1e-10:
        outcome.fail("relative_entropy_identity")
    # W_eras + W_net sums the same terms as W_rel, so W_tot - W_eras - W_net
    # carries W_tot - W_rel plus rounding on the size of the terms summed.
    scale = abs(w_tot) + abs(w_eras) + abs(w_net)
    if not abs(w_tot - w_eras - w_net) <= 1e-10 * scale:
        outcome.fail("work_decomposition")
    if out["eta"] is None and w_eras != 0.0:
        outcome.fail("efficiency_defined")
    if w_net > 1e-12 * out["kt"]:
        # criterion 06: the truncated closed forms break down near k_B T ~ E0
        outcome.count("information.wnet_positive")


def cfs_warmup() -> list[tuple]:
    return [("fermion", 3, 7, kbt) for kbt in CFS_KBT] + [("boson", 2, 9, kbt) for kbt in CFS_KBT]


# ---------------------------------------------------------------------- phase_cli


def phase_items(seed: int) -> Iterator[tuple]:
    """(species, twice_spin values, N start, N stop), 12 per round, 6 of each species."""
    rng = random.Random(seed)
    per = 6
    while True:
        items = []
        for species, parity, starts, widths in (
            ("fermion", 1, PHASE_FERMION_N, PHASE_FERMION_WIDTH),
            ("boson", 0, PHASE_BOSON_N, PHASE_BOSON_WIDTH),
        ):
            choices = list(range(parity, PHASE_TWO_S_MAX + 1, 2))
            for count, start, width in zip(
                cycled(rng, per, list(range(PHASE_SPINS[0], PHASE_SPINS[1] + 1))),
                strata(rng, per, *starts),
                strata(rng, per, *widths),
            ):
                spins = tuple(sorted(rng.sample(choices, count)))
                items.append((species, spins, start, start + width - 1))
        rng.shuffle(items)
        yield from items


class PhaseCli:
    """Runs ``szilard phase`` in-process, writing into a private directory."""

    def __init__(self, workdir: str):
        self.out = os.path.join(workdir, "phase.csv")
        self.repeat = os.path.join(workdir, "phase-repeat.csv")

    def argv(self, item: tuple, out: str) -> list[str]:
        species, spins, lo, hi = item
        return [
            "phase", "--species", species, "--two-s", ",".join(map(str, spins)),
            "--n-range", f"{lo}:{hi}", "--temp-range", PHASE_TEMP_RANGE, "--out", out,
        ]

    def run(self, item: tuple) -> int:
        return sz.cli.main(self.argv(item, self.out))

    def check(self, item: tuple, rc: int, outcome: Outcome) -> None:
        if rc != 0:
            outcome.fail("exit_code")
            return
        _, spins, lo, hi = item
        first = [_read(self.out), _read(self.out + ".grid.csv")]
        rows = len(spins) * (hi - lo + 1)
        if first[0].count(b"\n") - 1 != rows:
            outcome.fail("phase_rows")
        if first[1].count(b"\n") - 1 != rows * PHASE_TEMPS:
            outcome.fail("grid_rows")
        outcome.count("cli.rows_out", first[0].count(b"\n") + first[1].count(b"\n") - 2)
        outcome.count("cli.bytes_out", len(first[0]) + len(first[1]))
        if sz.cli.main(self.argv(item, self.repeat)) != 0:
            outcome.fail("repeat_exit_code")
            return
        if [_read(self.repeat), _read(self.repeat + ".grid.csv")] != first:
            outcome.fail("repeat_identical")


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def phase_warmup() -> list[tuple]:
    return [("fermion", (3,), 1, 12), ("boson", (0, 2), 1, 6)]


# ------------------------------------------------------------------- oracle_cycle


def oracle_items(seed: int) -> Iterator[tuple]:
    """(species, twice_spin, N, k_B T / E0), 12 per round, 6 of each species."""
    rng = random.Random(seed)
    per = 6
    while True:
        items = []
        # fermion degeneracy 2u is even, boson 2s+1 odd; both capped at 12
        for species, g_values in (
            ("fermion", list(range(2, ORACLE_DEGENERACY_MAX + 1, 2))),
            ("boson", list(range(1, ORACLE_DEGENERACY_MAX + 1, 2))),
        ):
            for g_index, N, kbt in zip(
                strata(rng, per, 0, len(g_values) - 1),
                strata(rng, per, *ORACLE_N),
                strata_float(rng, per, *ORACLE_KBT),
            ):
                items.append((species, g_values[g_index] - 1, N, kbt))
        rng.shuffle(items)
        yield from items


def oracle_run(item: tuple):
    species, twice_spin, N, kbt = item
    spin = sz.core.SpinStatistics(twice_spin, sz.core.ParticleKind(species))
    return sz.oracle.ensemble_cycle(N, spin, GEOM, thermal_at(kbt))


def oracle_check(item: tuple, cycle, outcome: Outcome) -> None:
    species, twice_spin, N, kbt = item
    thermal = thermal_at(kbt)
    kt = sz.core.BOLTZMANN * thermal.temperature
    f = cycle.distribution.probabilities
    fstar = cycle.post_expansion
    mask = f > 0
    w_net = kt * float(np.sum(f[mask] * np.log(fstar[mask])))
    if not w_net <= 1e-12 * kt:
        outcome.fail("exact_second_law")
    if kbt <= ORACLE_CLOSED_FORM_KBT:
        filling, module = _filling(species, twice_spin, N)
        closed = module.total_work(filling, GEOM, thermal)
        # a deterministic closed-form outcome has W = 0; compare on the k_B T scale then
        scale = max(abs(closed), kt * 1e-20)
        if not abs(cycle.total_work - closed) <= ORACLE_CLOSED_FORM_REL * scale:
            outcome.fail("closed_form_agreement")


def oracle_warmup() -> list[tuple]:
    return [("fermion", 1, 2, 0.1), ("boson", 0, 2, 0.1)]


# ------------------------------------------------------------------------ registry


def _phase_cli(workdir: str):
    cli = PhaseCli(workdir)
    return cli.run, cli.check


@dataclass(frozen=True)
class Workload:
    name: str
    items: Callable[[int], Iterator[tuple]]
    warmup: Callable[[], list[tuple]]
    #: (run, check) for a process whose private directory is the argument
    bind: Callable[[str], tuple[Callable, Callable]]
    #: items in a traced run; fixed so that trace counts repeat for a seed
    trace_items: int


WORKLOADS = {
    "closed_form_scan": Workload(
        "closed_form_scan", cfs_items, cfs_warmup, lambda _: (cfs_run, cfs_check), 120
    ),
    "phase_cli": Workload("phase_cli", phase_items, phase_warmup, _phase_cli, 48),
    "oracle_cycle": Workload(
        "oracle_cycle", oracle_items, oracle_warmup, lambda _: (oracle_run, oracle_check), 36
    ),
}
