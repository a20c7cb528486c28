"""Command-line front end with deterministic CSV/JSON emission.

Subcommands: work, distribution, phase, efficiency, oracle, limits.
Exit codes: 0 ok, 2 config error, 3 undefined quantity requested strictly,
4 oracle non-convergence or tolerance failure.

Floats are printed with 9 significant digits in scientific notation; rows
are emitted in a fixed order so identical configurations produce
byte-identical files.
"""
from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from typing import Any, Callable, Iterable, Sequence

from . import boson, fermion, information, oracle, phase
from .core import (
    BOLTZMANN,
    ParticleKind,
    SpinStatistics,
    ThermalPoint,
    WellGeometry,
)
from .equilibrium import wall_position

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNDEFINED = 3
EXIT_ORACLE = 4

UNDEFINED = "undefined"
#: the most values one --n-range or --temp-range may expand to
MAX_RANGE_VALUES = 1_000_000


class ConfigError(Exception):
    pass


class StrictUndefinedError(Exception):
    pass


class ToleranceExceeded(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def _exp_cell(log_value: float) -> float | str:
    """exp(log_value), or UNDEFINED where the value overflows a float."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return UNDEFINED


def _json_dumps(obj: Any, indent: int = 0) -> str:
    """Minimal JSON writer keeping floats at the 9-significant-digit contract."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad}  "{key}": {_json_dumps(value, indent + 1)}' for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_dumps(value, indent + 1)}" for value in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value


def _parse_range(text: str, cast: Callable[[str], Any]) -> list:
    """The values A, A+STEP, ... up to B of ``A:B`` or ``A:B:STEP``, with 0 <= A <= B.

    The default step is 1 for integers and B - A (two values) for floats.
    """
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"bad range {text!r}, expected A:B or A:B:STEP")
    try:
        lo, hi = cast(parts[0]), cast(parts[1])
        default = hi - lo if cast is float and hi > lo else 1
        step = cast(parts[2]) if len(parts) == 3 else default
    except ValueError as exc:
        raise ConfigError(f"bad range {text!r}") from exc
    if not (0 <= lo <= hi < math.inf and step > 0):
        raise ConfigError(f"range {text!r} needs finite bounds 0 <= A <= B and STEP > 0")
    too_many = ConfigError(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
    if (hi - lo) // step >= MAX_RANGE_VALUES:
        raise too_many
    if cast is int:
        return list(range(lo, hi + 1, step))
    values = []
    x = lo
    while x <= hi * (1 + 1e-12) + 1e-300:
        # a STEP below the float spacing near B leaves x in place
        if len(values) == MAX_RANGE_VALUES:
            raise too_many
        # 12 significant digits drop the float error of i * STEP at any scale
        values.append(float(f"{x:.12g}"))
        x = lo + len(values) * step
    return values


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill unset flags from the ``key = value`` lines of --config; explicit flags win.

    A key must be one of the subcommand's flags, and its value is read as that flag's.
    """
    if args.config is None:
        return
    try:
        with open(args.config, encoding="utf-8") as handle:
            lines = [line.split("#", 1)[0].strip() for line in handle]
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    keys = set(_COMMANDS[args.command][1]) - {"config", "strict"}
    file_values: dict[str, str] = {}
    for line in filter(None, lines):
        key, equals, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not equals or key not in keys:
            raise ConfigError(f"bad config line {line!r}: expected KEY = VALUE, KEY one of "
                              f"{sorted(keys)}")
        file_values[key] = value.strip()
    for key, raw in file_values.items():
        if getattr(args, key) is None:
            spec = _FLAGS[key]
            try:
                value = spec.get("type", str)(raw)
                if value not in spec.get("choices", [value]):
                    raise ValueError(f"not one of {spec['choices']}")
            except ValueError as exc:
                raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc
            setattr(args, key, value)


def _spin(species: str | None, two_s: str | None) -> SpinStatistics:
    if species is None or not two_s:
        raise ConfigError("--species and --two-s are required")
    try:
        return SpinStatistics(twice_spin=int(two_s), kind=ParticleKind(species))
    except ValueError as exc:
        raise ConfigError(f"bad --two-s value {two_s!r} for {species}: {exc}") from exc


def _geometry(args: argparse.Namespace) -> WellGeometry:
    length = args.length if args.length is not None else 1e-9
    mass = args.mass if args.mass is not None else 1e-26
    try:
        geometry = WellGeometry(length=length, mass=mass)
        # E0 = pi^2 hbar^2 / (2 M L^2): 2 M L^2 may underflow to 0 or overflow
        if not sys.float_info.min <= geometry.reference_energy < math.inf:
            raise ValueError("E0 is not a normal float")
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad well geometry --length {length} --mass {mass}: {exc}") from exc
    return geometry


def _required(args: argparse.Namespace, *dests: str) -> ConfigError:
    """The error for a missing value: one of ``dests``, as far as the subcommand has them."""
    flags = ["--" + dest.replace("_", "-") for dest in dests if dest in _COMMANDS[args.command][1]]
    return ConfigError(("one of " if len(flags) > 1 else "") + " or ".join(flags) + " is required")


def _n_values(args: argparse.Namespace) -> list[int]:
    if args.n is not None and args.n_range is not None:
        raise ConfigError("give either --n or --n-range, not both")
    if args.n is not None:
        if args.n < 0:
            raise ConfigError("--n must be >= 0")
        return [args.n]
    if args.n_range is not None:
        return _parse_range(args.n_range, int)
    raise _required(args, "n", "n_range")


def _t_values(args: argparse.Namespace) -> list[float]:
    if args.temp is not None and args.temp_range is not None:
        raise ConfigError("give either --temp or --temp-range, not both")
    if args.temp is not None:
        values = [args.temp]
    elif args.temp_range is not None:
        values = _parse_range(args.temp_range, float)
    else:
        raise _required(args, "temp", "temp_range")
    if any(t < 0 or 0 < BOLTZMANN * t < sys.float_info.min for t in values):
        raise ConfigError("temperatures must be >= 0, and k_B T a normal float if nonzero")
    return values


def _thermal(args: argparse.Namespace) -> ThermalPoint:
    (temperature,) = _t_values(args)
    if temperature <= 0:
        raise ConfigError(f"{args.command} requires --temp > 0")
    return ThermalPoint(temperature)


def _emit(text: str, out: str | None) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return _fmt(value)
    return "" if value is None else str(value)


def _csv_text(header: Iterable[str], rows: Iterable[Iterable[Any]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows([_cell(value) for value in row] for row in rows)
    return buffer.getvalue()


def _emit_rows(args: argparse.Namespace, rows: list[dict[str, Any]]) -> None:
    """--strict check, then JSON for a single row or CSV for several."""
    if args.strict and any(UNDEFINED in row.values() for row in rows):
        raise StrictUndefinedError()
    single = len(rows) == 1
    if (args.format or ("json" if single else "csv")) == "csv":
        _emit(_csv_text(rows[0].keys(), [row.values() for row in rows]), args.out)
    elif single:
        _emit(_json_dumps(rows[0]) + "\n", args.out)
    else:
        raise ConfigError("json format is for single results; ranges emit csv")


def cmd_work(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    n_values = _n_values(args)
    t_values = _t_values(args)
    e0 = geometry.reference_energy
    fermion_fill = spin.kind is ParticleKind.FERMION
    rows = []
    for N in n_values:
        filling = phase.filling(spin, N)
        coeffs = information.work_coefficients(filling, geometry)
        tc = _fmt(phase.critical_temperature(coeffs)) if coeffs.slope > 0 else UNDEFINED
        for T in t_values:
            w_tot = coeffs.total_work(ThermalPoint(T))
            rows.append({
                "species": spin.kind.value,
                "two_s": spin.twice_spin,
                "N": N,
                "n": str(filling.n) if fermion_fill else "",
                "k": str(filling.k) if fermion_fill else "",
                "D": _fmt(coeffs.slope),
                "W0_joule": _fmt(coeffs.absorbed),
                "W0_per_E0": _fmt(coeffs.absorbed / e0),
                "T_kelvin": _fmt(T),
                "Wtot_joule": _fmt(w_tot),
                "Wtot_per_kBT": _fmt(w_tot / (BOLTZMANN * T)) if T > 0 else UNDEFINED,
                "Tc_kelvin": tc,
            })
    _emit_rows(args, rows)
    return EXIT_OK


def cmd_distribution(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    (N,) = _n_values(args)
    thermal = None if args.temp is None else _thermal(args)
    table = information.outcome_table(phase.filling(spin, N), geometry)
    dist = table.distribution
    m_values = [int(m) for m in dist.support]
    f_values = [float(p) for p in dist.probabilities]
    stars = None
    if thermal is not None:
        stars = [_exp_cell(x) for x in table.log_fstar(thermal)]
        if args.strict and UNDEFINED in stars:
            raise StrictUndefinedError()
    fmt = args.format or "json"
    if fmt == "json":
        payload: dict[str, Any] = {
            "species": spin.kind.value,
            "two_s": spin.twice_spin,
            "N": N,
            "m": m_values,
            "f_m": f_values,
            "f_m_sum": dist.total(),
        }
        if stars is not None:
            payload["f_m_star"] = stars
            payload["T_kelvin"] = thermal.temperature
        _emit(_json_dumps(payload) + "\n", args.out)
    else:
        header = ["m", "f_m"] + (["f_m_star"] if stars is not None else [])
        columns = [m_values, f_values] + ([stars] if stars is not None else [])
        _emit(_csv_text(header, zip(*columns)), args.out)
    print(f"sum f_m = {_fmt(dist.total())}", file=sys.stderr)
    return EXIT_OK


def cmd_phase(args: argparse.Namespace) -> int:
    geometry = _geometry(args)
    spins = [_spin(args.species, token) for token in (args.two_s or "").split(",")]
    if args.n_range is None:
        raise ConfigError("phase requires --n-range")
    n_values = _parse_range(args.n_range, int)
    t_values = [] if args.temp_range is None else _t_values(args)
    if t_values and not args.out:
        raise ConfigError("the work grid needs --out (written to OUT.grid.csv)")
    lead = ["two_s"] if len(spins) > 1 else []
    rows = []
    for spin in spins:
        for point in phase.phase_curve(spin, geometry, n_values):
            if args.strict and not point.defined:
                raise StrictUndefinedError()
            cell = point.critical_temperature if point.defined else UNDEFINED
            rows.append([spin.twice_spin] * len(lead) + [point.N, cell, str(point.defined).lower()])
    _emit(_csv_text(lead + ["N", "T_c_kelvin", "defined"], rows), args.out)
    if t_values:
        grid_rows = []
        for spin in spins:
            grid = phase.work_grid(spin, geometry, n_values, t_values)
            for i, N in enumerate(grid.n_values):
                for j, T in enumerate(grid.temperatures):
                    w = float(grid.work[i, j])
                    sign = (w > 0) - (w < 0)
                    grid_rows.append([spin.twice_spin] * len(lead) + [int(N), float(T), w, sign])
        _emit(_csv_text(lead + ["N", "T", "W_tot_joule", "sign"], grid_rows), args.out + ".grid.csv")
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    n_values = _n_values(args)
    thermal = _thermal(args)
    rows = []
    for N in n_values:
        filling = phase.filling(spin, N)
        if spin.kind is ParticleKind.FERMION:
            second = filling.k in (2, 4 * spin.u - 2)
            alpha = (2.0 * spin.u - 1.0) / (4.0 * spin.u - 1.0)
        else:
            second = N == 2
            alpha = (2.0 * spin.s + 2.0) / (4.0 * spin.s + 3.0)
        table = information.outcome_table(filling, geometry)
        w_tot = table.work_coefficients().total_work(thermal)
        w_eras = information.erasure_work(table.distribution, thermal)
        w_net = table.net_work(thermal)
        rows.append({
            "species": spin.kind.value,
            "two_s": spin.twice_spin,
            "N": N,
            "T_kelvin": _fmt(thermal.temperature),
            "Wtot_joule": _fmt(w_tot),
            "Weras_joule": _fmt(w_eras),
            "Wnet_joule": _fmt(w_net),
            "eta": UNDEFINED if w_eras == 0.0 else _fmt(w_tot / w_eras),
            "eta_second_highest": _fmt(information.second_highest_efficiency(alpha)) if second else "",
        })
    _emit_rows(args, rows)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    (N,) = _n_values(args)
    # an empty well (N = 0) has no wall equilibrium to compare
    if not 1 <= N <= 6:
        raise ConfigError("oracle is restricted to 1 <= N <= 6")
    if spin.degeneracy > 12:
        raise ConfigError("oracle is restricted to degeneracy 2s+1 <= 12")
    thermal = _thermal(args)
    insertion_frac = args.insertion if args.insertion is not None else 0.5
    if not 0 < insertion_frac < 1:
        raise ConfigError("--insertion must lie in (0, 1)")
    tolerance = args.tolerance if args.tolerance is not None else 1e-3
    L = geometry.length

    cycle = oracle.ensemble_cycle(N, spin, geometry, thermal, insertion=insertion_frac * L)
    filling = phase.filling(spin, N)
    table = information.outcome_table(filling, geometry)
    analytic_work = table.work_coefficients().total_work(thermal)

    rows = []
    max_df = 0.0
    max_dl = 0.0
    for m in range(N + 1):
        f_exact = float(cycle.distribution.probabilities[m])
        f_analytic = 0.0
        leq_exact = cycle.equilibria[m].position / L
        leq_analytic: float | None = None
        if m in filling.support:
            f_analytic = float(table.f[m - filling.support[0]])
            leq_analytic = wall_position(filling.outcome(m).ratio, geometry).position / L
        delta_f = abs(f_exact - f_analytic)
        max_df = max(max_df, delta_f)
        delta_l = abs(leq_exact - leq_analytic) if leq_analytic is not None else 0.0
        max_dl = max(max_dl, delta_l)
        rows.append(
            {
                "m": m,
                "f_exact": f_exact,
                "f_analytic": f_analytic,
                "delta_f": delta_f,
                "leq_exact_over_L": leq_exact,
                "leq_analytic_over_L": leq_analytic,
            }
        )
    scale = max(abs(analytic_work), BOLTZMANN * thermal.temperature * 1e-20)
    rel_dw = abs(cycle.total_work - analytic_work) / scale
    payload = {
        "species": spin.kind.value,
        "two_s": spin.twice_spin,
        "N": N,
        "T_kelvin": thermal.temperature,
        "insertion_over_L": insertion_frac,
        "tolerance": tolerance,
        "rows": rows,
        "W_exact_joule": cycle.total_work,
        "W_analytic_joule": analytic_work,
        "rel_delta_W": rel_dw,
        "max_delta_f": max_df,
        "max_delta_leq_over_L": max_dl,
    }
    fmt = args.format or "json"
    if fmt == "json":
        _emit(_json_dumps(payload) + "\n", args.out)
    else:
        _emit(_csv_text(rows[0].keys(), [row.values() for row in rows]), args.out)
        print(
            f"W_exact = {_fmt(cycle.total_work)}  W_analytic = {_fmt(analytic_work)}  "
            f"rel_delta = {_fmt(rel_dw)}",
            file=sys.stderr,
        )
    if max_df > tolerance or max_dl > tolerance or rel_dw > tolerance:
        raise ToleranceExceeded(
            f"oracle deltas exceed tolerance {tolerance}: "
            f"max|df|={max_df:.3e}, max|dl|/L={max_dl:.3e}, |dW|rel={rel_dw:.3e}"
        )
    return EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    e0 = geometry.reference_energy
    rows = []
    if spin.kind is ParticleKind.FERMION:
        if args.n is not None or args.n_range is not None:
            raise ConfigError("fermion limits index k in [0, 4u); --n and --n-range are for bosons")
        u = spin.u
        header = ["k", "D_F", "avg_W0F_limit_joule", "avg_W0F_limit_per_E0"]
        for k in range(4 * u):
            coeffs = information.work_coefficients(fermion.decompose(k, u), geometry)
            limit = fermion.average_absorbed_work_limit(u, k, geometry)
            rows.append([k, coeffs.slope, limit, limit / e0])
    else:
        header = ["N", "lim_D_B", "lim_W0B_joule", "lim_W0B_per_E0"]
        for N in _n_values(args):
            lim = boson.large_spin_limits(N, geometry)
            rows.append([N, lim.slope, lim.absorbed, lim.absorbed / e0])
    _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


#: argparse keyword arguments of every flag, by dest; the flag is --dest with - for _
_FLAGS: dict[str, dict[str, Any]] = {
    "species": {"choices": ["fermion", "boson"]},
    "two_s": {},
    "n": {"type": int},
    "n_range": {},
    "temp": {"type": _finite},
    "temp_range": {},
    "length": {"type": _finite},
    "mass": {"type": _finite},
    "insertion": {"type": _finite},
    "tolerance": {"type": _finite},
    "format": {"choices": ["csv", "json"]},
    "out": {},
    "config": {},
    "strict": {"action": "store_true"},
}

_COMMON = ("species", "two_s", "length", "mass", "out", "config")
_OUTPUT = ("format", "strict")

#: each subcommand's handler and the flags it reads; it accepts no others
_COMMANDS: dict[str, tuple[Callable[[argparse.Namespace], int], tuple[str, ...]]] = {
    "work": (cmd_work, _COMMON + ("n", "n_range", "temp", "temp_range") + _OUTPUT),
    "distribution": (cmd_distribution, _COMMON + ("n", "temp") + _OUTPUT),
    "phase": (cmd_phase, _COMMON + ("n_range", "temp_range", "strict")),
    "efficiency": (cmd_efficiency, _COMMON + ("n", "n_range", "temp") + _OUTPUT),
    "oracle": (cmd_oracle, _COMMON + ("n", "temp", "insertion", "tolerance", "format")),
    "limits": (cmd_limits, _COMMON + ("n", "n_range")),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szilard",
        description="Arbitrary-spin quantum Szilard engine calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, flags) in _COMMANDS.items():
        # without allow_abbrev=False an undeclared --n would parse as --n-range
        cmd = sub.add_parser(name, allow_abbrev=False)
        # every dest reads None unless given, so shared helpers see all of them
        cmd.set_defaults(handler=handler, **dict.fromkeys(_FLAGS))
        for dest in flags:
            cmd.add_argument("--" + dest.replace("_", "-"), dest=dest, **_FLAGS[dest])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StrictUndefinedError:
        print("error: undefined quantity requested in strict mode", file=sys.stderr)
        return EXIT_UNDEFINED
    except (ToleranceExceeded, oracle.ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
