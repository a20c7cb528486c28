"""Command-line front end with deterministic CSV/JSON emission.

Subcommands: work, distribution, phase, efficiency, oracle, limits.
Exit codes: 0 ok, 2 config error, 3 undefined quantity requested strictly,
4 oracle non-convergence or tolerance failure.

Floats are printed with 9 significant digits in scientific notation; rows
are emitted in a fixed order so identical configurations produce
byte-identical files.

CSV is comma-separated, each row ends in ``\\n``, and no cell is ever quoted: a
cell is a number, ``undefined``, ``true``/``false``, a species name or empty,
so none holds a comma, a quote or a newline. Each row reaches its handle in
one write, as it is formed. The argument parser is built on the first call of
``main`` and shared by every later call in the process; parsing keeps no state
in it.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from typing import Any, Callable, Iterable, Iterator, Sequence, TextIO

import numpy as np

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
    A flag also beats the file's other form of it (--n an ``n_range`` line, say).
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
    given = {key.removesuffix("_range") for key in keys if getattr(args, key) is not None}
    for key, raw in file_values.items():
        if key.removesuffix("_range") in given:
            continue
        spec = _FLAGS[key]
        try:
            value = spec.get("type", str)(raw)
            if value not in spec.get("choices", [value]):
                raise ValueError(f"not one of {spec['choices']}")
        except ValueError as exc:
            raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc
        setattr(args, key, value)


def _spin(species: str | None, two_s: str | None) -> SpinStatistics:
    if species is None or two_s is None:
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
    # below about 1.8e-301 K, k_B T underflows to exactly 0
    if any(t < 0 or (t > 0 and BOLTZMANN * t < sys.float_info.min) for t in values):
        raise ConfigError("temperatures must be >= 0, and k_B T a normal float if nonzero")
    return values


def _thermal(args: argparse.Namespace) -> ThermalPoint:
    (temperature,) = _t_values(args)
    if temperature <= 0:
        raise ConfigError(f"{args.command} requires --temp > 0")
    return ThermalPoint(temperature)


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """Standard output, or ``out`` opened for writing; failing to open or write it exits 2."""
    if not out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except OSError as exc:
            # say, a reader that went away; devnull takes the descriptor so the flush at exit passes
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise ConfigError(f"cannot write standard output: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise ConfigError(f"cannot write {out}: {exc}") from exc


def _emit(text: str, out: str | None) -> None:
    with _output(out) as handle:
        handle.write(text)


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return _fmt(value)
    return "" if value is None else str(value)


def _line(cells: Iterable[Any]) -> str:
    """One CSV row of mixed cells, without its newline."""
    return ",".join(map(_cell, cells))


def _write_csv(out: str | None, header: Iterable[str], lines: Iterable[str]) -> None:
    """CSV to standard output or ``out``, one write per finished row, as it is formed.

    Each of ``lines`` is a row without its newline. No cell needs quoting (see the
    module docstring). The caller raises its errors first, so a refused run writes nothing.
    """
    with _output(out) as handle:
        write = handle.write
        write(",".join(header) + "\n")
        for line in lines:
            write(line + "\n")


def _emit_rows(args: argparse.Namespace, rows: Iterable[dict[str, Any]], count: int) -> None:
    """JSON for a single row, or CSV for several; the caller settles --strict first."""
    rows = iter(rows)
    if _csv_format(args, count):
        first = next(rows)
        lines = (_line(row.values()) for row in itertools.chain([first], rows))
        _write_csv(args.out, first.keys(), lines)
    else:
        _emit(_json_dumps(next(rows)) + "\n", args.out)


def _csv_format(args: argparse.Namespace, count: int) -> bool:
    """Whether ``count`` rows go out as CSV (the default for several) or as JSON (one only)."""
    if (args.format or ("json" if count == 1 else "csv")) == "csv":
        return True
    if count != 1:
        raise ConfigError("json format is for single results; ranges emit csv")
    return False


#: the columns of ``work``: the cells of N alone, then those of each temperature
_WORK_COLUMNS = (
    "species", "two_s", "N", "n", "k", "D", "W0_joule", "W0_per_E0",
    "T_kelvin", "Wtot_joule", "Wtot_per_kBT", "Tc_kelvin",
)


def cmd_work(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    n_values = _n_values(args)
    t_values = _t_values(args)
    e0 = geometry.reference_energy
    fermion_fill = spin.kind is ParticleKind.FERMION
    points = phase.phase_curve(spin, geometry, n_values)
    t_arr = np.array(t_values)
    # the undefined cells: Wtot_per_kBT at T = 0 and Tc_kelvin where a point has no T_c
    undefined = min(t_values) <= 0 or any(
        point.coefficients.critical_temperature is None for point in points
    )
    if args.strict and undefined:
        raise StrictUndefinedError()

    def head(point: phase.PhasePoint) -> list[Any]:
        """The cells that depend on N alone, formatted once for all its temperatures."""
        coeffs = point.coefficients
        filling = phase.filling(spin, point.N)
        return [
            spin.kind.value, spin.twice_spin, point.N,
            str(filling.n) if fermion_fill else "", str(filling.k) if fermion_fill else "",
            _fmt(coeffs.slope), _fmt(coeffs.absorbed), _fmt(coeffs.absorbed / e0),
        ]

    def tails(point: phase.PhasePoint) -> Iterator[tuple[str, str, str, str]]:
        """The cells of each temperature, in ``t_values`` order."""
        tc = point.coefficients.critical_temperature
        tc = UNDEFINED if tc is None else _fmt(tc)
        for T, w in zip(t_values, point.work(t_arr).tolist()):
            # _fmt's format, inlined: this is formed once per (N, T) cell
            per_kbt = f"{w / (BOLTZMANN * T):.8e}" if T > 0 else UNDEFINED
            yield f"{T:.8e}", f"{w:.8e}", per_kbt, tc

    if not _csv_format(args, len(points) * len(t_values)):
        (point,) = points
        (tail,) = tails(point)
        _emit(_json_dumps(dict(zip(_WORK_COLUMNS, head(point) + list(tail)))) + "\n", args.out)
        return EXIT_OK

    def lines() -> Iterator[str]:
        for point in points:
            lead = _line(head(point))
            for T, w, per_kbt, tc in tails(point):
                yield f"{lead},{T},{w},{per_kbt},{tc}"

    _write_csv(args.out, _WORK_COLUMNS, lines())
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
        _write_csv(args.out, header, map(_line, zip(*columns)))
    print(f"sum f_m = {_fmt(dist.total())}", file=sys.stderr)
    return EXIT_OK


def cmd_phase(args: argparse.Namespace) -> int:
    geometry = _geometry(args)
    tokens = [None] if args.two_s is None else args.two_s.split(",")
    spins = [_spin(args.species, token) for token in tokens]
    if args.n_range is None:
        raise ConfigError("phase requires --n-range")
    n_values = _parse_range(args.n_range, int)
    t_values = [] if args.temp_range is None else _t_values(args)
    if t_values and not args.out:
        raise ConfigError("the work grid needs --out (written to OUT.grid.csv)")
    lead = ["two_s"] if len(spins) > 1 else []
    # one curve per spin serves both the T_c table and the work grid
    curves = [(spin, phase.phase_curve(spin, geometry, n_values)) for spin in spins]
    if args.strict and any(point.coefficients.critical_temperature is None
                           for _, points in curves for point in points):
        raise StrictUndefinedError()
    lines = (
        _line([spin.twice_spin] * len(lead)
              + [point.N, UNDEFINED if tc is None else tc, str(tc is not None).lower()])
        for spin, points in curves
        for point in points
        for tc in [point.coefficients.critical_temperature]
    )
    _write_csv(args.out, lead + ["N", "T_c_kelvin", "defined"], lines)
    if t_values:
        t_arr = np.array(t_values)

        def grid_lines() -> Iterator[str]:
            for spin, points in curves:
                spin_cell = f"{spin.twice_spin}," if lead else ""
                for point in points:
                    head = f"{spin_cell}{point.N},"
                    # _fmt's format, inlined: this line is formed once per (N, T) cell
                    for T, w in zip(t_values, point.work(t_arr).tolist()):
                        yield f"{head}{T:.8e},{w:.8e},{(w > 0) - (w < 0)}"

        _write_csv(args.out + ".grid.csv", lead + ["N", "T", "W_tot_joule", "sign"], grid_lines())
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    n_values = _n_values(args)
    thermal = _thermal(args)
    # eta is undefined where W_eras = k_B T H(f) = 0, that is where the filling has one outcome
    if args.strict and any(len(phase.filling(spin, N).support) == 1 for N in n_values):
        raise StrictUndefinedError()

    def rows() -> Iterator[dict[str, Any]]:
        for N in n_values:
            table = information.outcome_table(phase.filling(spin, N), geometry)
            # the runner-up engines have three outcomes: alpha = 1 - f_central = 2 f_edge
            second = len(table.f) == 3
            alpha = 2.0 * float(table.f[0])
            w_tot = table.work_coefficients().total_work(thermal)
            w_eras = information.erasure_work(table.distribution, thermal)
            w_net = table.net_work(thermal)
            yield {
                "species": spin.kind.value,
                "two_s": spin.twice_spin,
                "N": N,
                "T_kelvin": _fmt(thermal.temperature),
                "Wtot_joule": _fmt(w_tot),
                "Weras_joule": _fmt(w_eras),
                "Wnet_joule": _fmt(w_net),
                "eta": UNDEFINED if w_eras == 0.0 else _fmt(w_tot / w_eras),
                "eta_second_highest": _fmt(information.second_highest_efficiency(alpha)) if second else "",
            }

    _emit_rows(args, rows(), len(n_values))
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
    tolerance = args.tolerance if args.tolerance is not None else 1e-3
    if tolerance < 0:
        raise ConfigError("--tolerance must be >= 0")
    L = geometry.length

    cycle = oracle.ensemble_cycle(N, spin, geometry, thermal)
    filling = phase.filling(spin, N)
    table = information.outcome_table(filling, geometry)
    ratios = filling.ratios(filling.support)
    analytic_work = table.work_coefficients().total_work(thermal)

    rows = []
    max_df = 0.0
    max_dl = 0.0
    for m in range(N + 1):
        f_exact = float(cycle.distribution.probabilities[m])
        f_analytic = 0.0
        leq_exact = cycle.equilibria[m] / L
        leq_analytic: float | None = None
        if m in filling.support:
            row = m - filling.support[0]
            f_analytic = float(table.f[row])
            leq_analytic = wall_position(ratios[row], geometry) / L
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
        # the closed forms, and so the oracle's cycle, insert the wall at L/2
        "insertion_over_L": 0.5,
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
        _write_csv(args.out, rows[0].keys(), (_line(row.values()) for row in rows))
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
    if spin.kind is ParticleKind.FERMION:
        if args.n is not None or args.n_range is not None:
            raise ConfigError("fermion limits index k in [0, 4u); --n and --n-range are for bosons")
        u = spin.u
        header = ["k", "D_F", "avg_W0F_limit_joule", "avg_W0F_limit_per_E0"]
        # (k, D_F, the k-averaged W_0F limit) of each row; D_F of every k from one pass
        limits = (
            (point.N, point.coefficients.slope,
             fermion.average_absorbed_work_limit(u, point.N, geometry))
            for point in phase.phase_curve(spin, geometry, range(4 * u))
        )
    else:
        header = ["N", "lim_D_B", "lim_W0B_joule", "lim_W0B_per_E0"]
        # the outermost iterable runs now, so a bad --n-range exits 2 before any output
        boson_limits = ((N, boson.large_spin_limits(N, geometry)) for N in _n_values(args))
        limits = ((N, lim.slope, lim.absorbed) for N, lim in boson_limits)
    _write_csv(args.out, header, (_line([i, slope, w0, w0 / e0]) for i, slope, w0 in limits))
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
    "oracle": (cmd_oracle, _COMMON + ("n", "temp", "tolerance", "format")),
    "limits": (cmd_limits, _COMMON + ("n", "n_range")),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every later call."""
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
