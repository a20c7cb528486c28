"""Command-line front end with deterministic CSV/JSON emission.

Subcommands: work, distribution, phase, efficiency, oracle, limits.
Exit codes: 0 ok, 2 config error, 3 undefined quantity requested strictly,
4 oracle non-convergence or tolerance failure. Every refusal but the oracle's
non-convergence is a ``Refusal`` that carries its code.

Each subcommand forms a CSV header and lines and, for a single result, a JSON
document; one writer, ``_emit``, writes one or the other. A single result (work
at one N and one T, efficiency at one N, distribution and oracle always) is
JSON unless --format csv is given; several are CSV, and --format json for them
exits 2.

Floats are printed with 9 significant digits in scientific notation; rows
are emitted in a fixed order so identical configurations produce
byte-identical files.

CSV is comma-separated, each row ends in ``\\n``, and no cell is ever quoted: a
cell is a number, ``undefined``, ``true``/``false``, a species name or empty,
so none holds a comma, a quote or a newline. Rows reach their handle as they
are formed: ``phase``'s T_c table and work grid and ``work``'s (N, T) rows in
blocks of at most ``ROWS_PER_WRITE``, each one %-template and one write, and
the other subcommands one row per write. The argument parser is built on the
first call of ``main`` and shared by every later call in the process; parsing
keeps no state in it.
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
    WorkDecomposition,
)
from .equilibrium import wall_position

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_UNDEFINED = 3
EXIT_ORACLE = 4

UNDEFINED = "undefined"
#: the most values one --n-range or --temp-range may expand to
MAX_RANGE_VALUES = 1_000_000
#: the most CSV rows that ``phase`` and ``work`` format into one string and one write
ROWS_PER_WRITE = 512


class Refusal(Exception):
    """A run refused with ``code``: 2 for a bad configuration unless told otherwise."""

    def __init__(self, message: str, code: int = EXIT_CONFIG) -> None:
        super().__init__(message)
        self.code = code


def _fmt(x: float) -> str:
    return f"{x:.8e}"


def _exp_cell(log_value: float) -> float | str:
    """exp(log_value), or UNDEFINED where the value overflows a float."""
    try:
        return math.exp(log_value)
    except OverflowError:
        return UNDEFINED


def _json_dumps(obj: Any, indent: int = 0) -> str:
    """Minimal JSON writer keeping floats at the 9-significant-digit contract.

    It writes what the documents hold: non-empty dicts and lists, floats, ints,
    None and strings.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        items = [
            f'{pad}  "{key}": {_json_dumps(value, indent + 1)}' for key, value in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, list):
        items = [f"{pad}  {_json_dumps(value, indent + 1)}" for value in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
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
        raise Refusal(f"bad range {text!r}, expected A:B or A:B:STEP")
    try:
        lo, hi = cast(parts[0]), cast(parts[1])
        default = hi - lo if cast is float and hi > lo else 1
        step = cast(parts[2]) if len(parts) == 3 else default
    except ValueError as exc:
        raise Refusal(f"bad range {text!r}") from exc
    if not (0 <= lo <= hi < math.inf and step > 0):
        raise Refusal(f"range {text!r} needs finite bounds 0 <= A <= B and STEP > 0")
    too_many = Refusal(f"range {text!r} has more than {MAX_RANGE_VALUES} values")
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
        raise Refusal(f"cannot read config file {args.config}: {exc}") from exc
    keys = set(_COMMANDS[args.command][1]) - {"config", "strict"}
    file_values: dict[str, str] = {}
    for line in filter(None, lines):
        key, equals, value = line.partition("=")
        key = key.strip().replace("-", "_")
        if not equals or key not in keys:
            raise Refusal(f"bad config line {line!r}: expected KEY = VALUE, KEY one of "
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
            raise Refusal(f"bad value for config key {key!r}: {raw!r}") from exc
        setattr(args, key, value)


def _spin(species: str | None, two_s: str | None) -> SpinStatistics:
    if species is None or two_s is None:
        raise Refusal("--species and --two-s are required")
    try:
        return SpinStatistics(twice_spin=int(two_s), kind=ParticleKind(species))
    except ValueError as exc:
        raise Refusal(f"bad --two-s value {two_s!r} for {species}: {exc}") from exc


def _geometry(args: argparse.Namespace) -> WellGeometry:
    length = args.length if args.length is not None else 1e-9
    mass = args.mass if args.mass is not None else 1e-26
    try:
        geometry = WellGeometry(length=length, mass=mass)
        # E0 = pi^2 hbar^2 / (2 M L^2): 2 M L^2 may underflow to 0 or overflow
        if not sys.float_info.min <= geometry.reference_energy < math.inf:
            raise ValueError("E0 is not a normal float")
    except (ValueError, ZeroDivisionError) as exc:
        raise Refusal(f"bad well geometry --length {length} --mass {mass}: {exc}") from exc
    return geometry


def _value_or_range(args: argparse.Namespace, dest: str) -> tuple[Any, str | None]:
    """(--DEST, None) or (None, --DEST-range): exactly one is given, of those the subcommand has."""
    value, text = getattr(args, dest), getattr(args, dest + "_range")
    if value is not None and text is not None:
        raise Refusal(f"give either --{dest} or --{dest}-range, not both")
    if value is None and text is None:
        flags = ["--" + key.replace("_", "-") for key in (dest, dest + "_range")
                 if key in _COMMANDS[args.command][1]]
        raise Refusal(("one of " if len(flags) > 1 else "") + " or ".join(flags) + " is required")
    return value, text


def _n_values(args: argparse.Namespace) -> list[int]:
    n, text = _value_or_range(args, "n")
    if text is not None:
        return _parse_range(text, int)
    if n < 0:
        raise Refusal("--n must be >= 0")
    return [n]


def _t_values(args: argparse.Namespace) -> list[float]:
    temp, text = _value_or_range(args, "temp")
    values = [temp] if text is None else _parse_range(text, float)
    # below about 1.8e-301 K, k_B T underflows to exactly 0
    if any(t < 0 or (t > 0 and BOLTZMANN * t < sys.float_info.min) for t in values):
        raise Refusal("temperatures must be >= 0, and k_B T a normal float if nonzero")
    return values


def _thermal(args: argparse.Namespace) -> ThermalPoint:
    (temperature,) = _t_values(args)
    if temperature <= 0:
        raise Refusal(f"{args.command} requires --temp > 0")
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
            raise Refusal(f"cannot write standard output: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise Refusal(f"cannot write {out}: {exc}") from exc


def _cell(value: Any) -> str:
    if isinstance(value, float):
        return _fmt(value)
    return "" if value is None else str(value)


def _line(cells: Iterable[Any]) -> str:
    """One CSV row of mixed cells, without its newline."""
    return ",".join(map(_cell, cells))


def _emit(args: argparse.Namespace, header: Iterable[str], lines: Iterable[str],
          document: dict[str, Any] | None = None, out: str | None = None) -> bool:
    """Write ``document`` as JSON, or ``header`` and ``lines`` as CSV; whether it was CSV.

    A document is a single result: JSON is the default exactly when one is given,
    and --format json without one exits 2. Each of ``lines`` is one or more CSV
    rows joined by newlines, without the last newline; each is written as it is
    formed, in one write. No cell needs quoting (see the module docstring).
    ``out`` defaults to --out. The caller raises its errors first, so a refused
    run writes nothing.
    """
    as_csv = (args.format or ("csv" if document is None else "json")) == "csv"
    if not as_csv and document is None:
        raise Refusal("json format is for single results; ranges emit csv")
    with _output(out or args.out) as handle:
        write = handle.write
        if not as_csv:
            write(_json_dumps(document) + "\n")
            return False
        write(",".join(header) + "\n")
        for line in lines:
            write(line + "\n")
    return True


def _grid_lines(
    rows: Iterable[tuple[str, str, WorkDecomposition]], t_values: list[float],
    cells: Callable[[str, bool], str],
    columns: Callable[[np.ndarray, np.ndarray], list[np.ndarray]],
) -> Iterator[str]:
    """The CSV rows of each point at each temperature, at most ``ROWS_PER_WRITE`` per line.

    ``rows`` gives each point's work coefficients with the text before and after
    its per-temperature cells, read a block at a time. ``cells(T text, T > 0)``
    is the %-template of those cells, and ``columns(T, W)`` the arrays of the
    values it reads, in order, each shaped like the block's work ``W`` (points,
    temperatures). While every temperature fits in one line, a line holds whole
    points and each T is formatted once per call; otherwise it holds one
    point's window of temperatures, and T is the template's first value.
    """
    t_arr = np.array(t_values)
    window = min(len(t_values), ROWS_PER_WRITE)
    whole = window == len(t_values)
    middles = [cells(_fmt(T), T > 0) for T in t_values] if whole else []
    spec = (cells("%.8e", False), cells("%.8e", True))
    rows = iter(rows)
    while block := list(itertools.islice(rows, ROWS_PER_WRITE // window)):
        for lo in range(0, len(t_values), window):
            temps = t_arr[lo:lo + window]
            work = phase.work_rows([coeffs for _, _, coeffs in block], temps)
            values = columns(temps, work)
            if not whole:
                middles = ([spec[True]] * len(temps) if temps.min() > 0
                           else [spec[T > 0] for T in temps.tolist()])
                values.insert(0, np.broadcast_to(temps, work.shape))
            template = "\n".join(
                head + (tail + "\n" + head).join(middles) + tail for head, tail, _ in block
            )
            # the cells of each row in turn: every column's values interleaved
            cells_in_order: list[Any] = [None] * (len(values) * work.size)
            for i, column in enumerate(values):
                cells_in_order[i::len(values)] = column.ravel().tolist()
            yield template % tuple(cells_in_order)


def _strict(args: argparse.Namespace, undefined: Iterable[bool]) -> None:
    """Exit 3 under --strict if any of ``undefined`` holds; it is read only then."""
    if args.strict and any(undefined):
        raise Refusal("undefined quantity requested in strict mode", EXIT_UNDEFINED)


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
    curve = phase.phase_curve(spin, geometry, n_values)
    # the undefined cells: Wtot_per_kBT at T = 0 and Tc_kelvin where an N has no T_c
    _strict(args, itertools.chain(
        (T <= 0 for T in t_values),
        (coeffs.critical_temperature is None for coeffs in curve),
    ))

    def row(N: int, coeffs: WorkDecomposition) -> tuple[str, str, WorkDecomposition]:
        """The cells that depend on N alone, before and after each temperature's cells."""
        # a boson row's n and k cells are empty: only a fermion's filling is read
        filling = phase.filling(spin, N) if fermion_fill else None
        tc = coeffs.critical_temperature
        return _line([
            spin.kind.value, spin.twice_spin, N,
            filling.n if fermion_fill else None, filling.k if fermion_fill else None,
            coeffs.slope, coeffs.absorbed, coeffs.absorbed / e0,
        ]) + ",", "," + (UNDEFINED if tc is None else _fmt(tc)), coeffs

    def cells(t_text: str, positive: bool) -> str:
        # "%.0s" reads the W / k_B T of T = 0 and prints nothing in its place
        return f"{t_text},%.8e," + ("%.8e" if positive else f"%.0s{UNDEFINED}")

    def columns(temps: np.ndarray, work: np.ndarray) -> list[np.ndarray]:
        with np.errstate(all="ignore"):
            return [work, work / (BOLTZMANN * temps)]

    lines: Iterable[str] = _grid_lines(map(row, n_values, curve), t_values, cells, columns)
    document = None
    if len(n_values) * len(t_values) == 1:
        lines = [*lines]
        # the one row's cells after N are the document's strings
        document = dict(zip(_WORK_COLUMNS, [spin.kind.value, spin.twice_spin, *n_values]
                            + lines[0].split(",")[3:]))
    _emit(args, _WORK_COLUMNS, lines, document)
    return EXIT_OK


def cmd_distribution(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    (N,) = _n_values(args)
    thermal = None if args.temp is None else _thermal(args)
    table = information.outcome_table(phase.filling(spin, N), geometry)
    dist = table.distribution
    m_values = [int(m) for m in dist.support]
    document: dict[str, Any] = {
        "species": spin.kind.value,
        "two_s": spin.twice_spin,
        "N": N,
        "m": m_values,
        "f_m": [float(p) for p in dist.probabilities],
        "f_m_sum": dist.total(),
    }
    # the CSV columns are the document's lists of the same names
    columns = ["m", "f_m"]
    if thermal is not None:
        stars = [_exp_cell(x) for x in table.log_fstar(thermal)]
        _strict(args, (cell == UNDEFINED for cell in stars))
        document |= {"f_m_star": stars, "T_kelvin": thermal.temperature}
        columns.append("f_m_star")
    _emit(args, columns, map(_line, zip(*(document[column] for column in columns))), document)
    print(f"sum f_m = {_fmt(dist.total())}", file=sys.stderr)
    return EXIT_OK


def cmd_phase(args: argparse.Namespace) -> int:
    geometry = _geometry(args)
    tokens = [None] if args.two_s is None else args.two_s.split(",")
    spins = [_spin(args.species, token) for token in tokens]
    n_values = _n_values(args)
    t_values = [] if args.temp_range is None else _t_values(args)
    if t_values and not args.out:
        raise Refusal("the work grid needs --out (written to OUT.grid.csv)")
    lead = ["two_s"] if len(spins) > 1 else []
    # one curve per spin serves both the T_c table and the work grid, whose rows open alike
    curves = [(spin, phase.phase_curve(spin, geometry, n_values)) for spin in spins]
    _strict(args, (coeffs.critical_temperature is None
                   for _, curve in curves for coeffs in curve))
    rows = [(f"{spin.twice_spin}," * len(lead) + f"{N},", "", coeffs)
            for spin, curve in curves for N, coeffs in zip(n_values, curve)]

    def table_lines() -> Iterator[str]:
        for start in range(0, len(rows), ROWS_PER_WRITE):
            tcs = [(head, coeffs.critical_temperature)
                   for head, _, coeffs in rows[start:start + ROWS_PER_WRITE]]
            # "%.0s" reads an undefined T_c and prints nothing in its place
            template = "\n".join(head + ("%.8e,true" if tc is not None else
                                         f"%.0s{UNDEFINED},false") for head, tc in tcs)
            yield template % tuple(tc for _, tc in tcs)

    _emit(args, lead + ["N", "T_c_kelvin", "defined"], table_lines())
    if t_values:

        def columns(temps: np.ndarray, work: np.ndarray) -> list[np.ndarray]:
            return [work, (work > 0).astype(np.int64) - (work < 0)]

        grid_lines = _grid_lines(rows, t_values, lambda t_text, _: f"{t_text},%.8e,%d", columns)
        grid_header = lead + ["N", "T", "W_tot_joule", "sign"]
        _emit(args, grid_header, grid_lines, out=args.out + ".grid.csv")
    return EXIT_OK


#: the columns of ``efficiency``, one row per N
_EFFICIENCY_COLUMNS = (
    "species", "two_s", "N", "T_kelvin", "Wtot_joule", "Weras_joule", "Wnet_joule",
    "eta", "eta_second_highest",
)


def cmd_efficiency(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    n_values = _n_values(args)
    thermal = _thermal(args)
    # eta is undefined where W_eras = k_B T H(f) = 0, that is where the filling has one outcome
    _strict(args, (len(phase.filling(spin, N).support) == 1 for N in n_values))

    def cells(N: int) -> list[Any]:
        """The cells of N's row, in ``_EFFICIENCY_COLUMNS`` order."""
        table = information.outcome_table(phase.filling(spin, N), geometry)
        w_tot = table.work_coefficients().total_work(thermal)
        w_eras = information.erasure_work(table.distribution, thermal)
        eta = UNDEFINED if w_eras == 0.0 else _fmt(w_tot / w_eras)
        return [
            spin.kind.value, spin.twice_spin, N, _fmt(thermal.temperature),
            _fmt(w_tot), _fmt(w_eras), _fmt(table.net_work(thermal)), eta,
            # the runner-up engines have three outcomes and absorb no work, so their
            # closed form in alpha = 2 f_edge is this eta = D / H(f)
            eta if len(table.f) == 3 else "",
        ]

    rows = map(cells, n_values)
    document = None
    if len(n_values) == 1:
        rows = [*rows]
        document = dict(zip(_EFFICIENCY_COLUMNS, rows[0]))
    _emit(args, _EFFICIENCY_COLUMNS, map(_line, rows), document)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    (N,) = _n_values(args)
    # an empty well (N = 0) has no wall equilibrium to compare
    if not 1 <= N <= 6:
        raise Refusal("oracle is restricted to 1 <= N <= 6")
    if spin.degeneracy > 12:
        raise Refusal("oracle is restricted to degeneracy 2s+1 <= 12")
    thermal = _thermal(args)
    if math.isinf(thermal.beta * N):
        raise Refusal("oracle requires N / (k_B T) to be a finite float; --temp is too low")
    tolerance = args.tolerance if args.tolerance is not None else 1e-3
    if tolerance < 0:
        raise Refusal("--tolerance must be >= 0")
    L = geometry.length

    cycle = oracle.ensemble_cycle(N, spin, geometry, thermal)
    filling = phase.filling(spin, N)
    table = information.outcome_table(filling, geometry)
    ratios = filling.ratios(filling.support)
    analytic_work = table.work_coefficients().total_work(thermal)

    rows = []
    for m in range(N + 1):
        f_exact = float(cycle.distribution.probabilities[m])
        f_analytic = 0.0
        leq_analytic: float | None = None
        if m in filling.support:
            row = m - filling.support[0]
            f_analytic = float(table.f[row])
            leq_analytic = wall_position(ratios[row], geometry) / L
        rows.append(
            {
                "m": m,
                "f_exact": f_exact,
                "f_analytic": f_analytic,
                "delta_f": abs(f_exact - f_analytic),
                "leq_exact_over_L": cycle.equilibria[m] / L,
                "leq_analytic_over_L": leq_analytic,
            }
        )
    max_df = max(0.0, *(row["delta_f"] for row in rows))
    # rows outside the closed forms' support have no analytic wall to compare
    max_dl = max(0.0, *(abs(row["leq_exact_over_L"] - row["leq_analytic_over_L"])
                        for row in rows if row["leq_analytic_over_L"] is not None))
    scale = max(abs(analytic_work), BOLTZMANN * thermal.temperature * 1e-20)
    rel_dw = abs(cycle.total_work - analytic_work) / scale
    document = {
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
    if _emit(args, rows[0].keys(), (_line(row.values()) for row in rows), document):
        print(
            f"W_exact = {_fmt(cycle.total_work)}  W_analytic = {_fmt(analytic_work)}  "
            f"rel_delta = {_fmt(rel_dw)}",
            file=sys.stderr,
        )
    if max_df > tolerance or max_dl > tolerance or rel_dw > tolerance:
        raise Refusal(
            f"oracle deltas exceed tolerance {tolerance}: "
            f"max|df|={max_df:.3e}, max|dl|/L={max_dl:.3e}, |dW|rel={rel_dw:.3e}",
            EXIT_ORACLE,
        )
    return EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
    spin = _spin(args.species, args.two_s)
    geometry = _geometry(args)
    e0 = geometry.reference_energy
    if spin.kind is ParticleKind.FERMION:
        if args.n is not None or args.n_range is not None:
            raise Refusal("fermion limits index k in [0, 4u); --n and --n-range are for bosons")
        header = ["k", "D_F", "avg_W0F_limit_joule", "avg_W0F_limit_per_E0"]
        # (k, D_F, the k-averaged W_0F limit) of each row, from one outcome table per k
        limits = ((k, *fermion.filled_shell_limits(spin.u, k, geometry)) for k in range(4 * spin.u))
    else:
        header = ["N", "lim_D_B", "lim_W0B_joule", "lim_W0B_per_E0"]
        n_values = _n_values(args)
        coefficients = information.work_coefficients_each(
            map(boson.LargeSpinBosons, n_values), geometry
        )
        limits = ((N, lim.slope, lim.absorbed) for N, lim in zip(n_values, coefficients))
    _emit(args, header, (_line([i, slope, w0, w0 / e0]) for i, slope, w0 in limits))
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
    except Refusal as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except oracle.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
