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
from typing import Any, Sequence

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


def _parse_int_range(text: str) -> list[int]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"bad range {text!r}, expected A:B or A:B:STEP")
    try:
        lo, hi = int(parts[0]), int(parts[1])
        step = int(parts[2]) if len(parts) == 3 else 1
    except ValueError as exc:
        raise ConfigError(f"bad integer range {text!r}") from exc
    if step <= 0:
        raise ConfigError(f"range step must be positive in {text!r}")
    values = list(range(lo, hi + 1, step))
    if not values:
        raise ConfigError(f"empty range {text!r}")
    return values


def _parse_float_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"bad range {text!r}, expected A:B or A:B:STEP")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else (hi - lo) if hi > lo else 1.0
    except ValueError as exc:
        raise ConfigError(f"bad float range {text!r}") from exc
    if step <= 0:
        raise ConfigError(f"range step must be positive in {text!r}")
    values = []
    x = lo
    while x <= hi * (1 + 1e-12) + 1e-300:
        values.append(round(x, 12) if abs(x) < 1e6 else x)
        x += step
    if not values:
        raise ConfigError(f"empty range {text!r}")
    return values


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"bad config line {line!r} in {path}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


_CONFIG_KEYS = {
    "species": str,
    "two_s": str,
    "n": int,
    "n_range": str,
    "temp": float,
    "temp_range": str,
    "length": float,
    "mass": float,
    "insertion": float,
    "nmax": int,
    "tolerance": float,
    "format": str,
    "out": str,
}


def _apply_config_file(args: argparse.Namespace) -> None:
    """Fill unset flags from the config file; explicit flags win."""
    if not getattr(args, "config", None):
        return
    file_values = _load_config_file(args.config)
    for key, raw in file_values.items():
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            caster = _CONFIG_KEYS[key]
            try:
                setattr(args, key, caster(raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for config key {key!r}: {raw!r}") from exc


def _species(args: argparse.Namespace) -> SpinStatistics:
    if args.species is None or args.two_s is None:
        raise ConfigError("--species and --two-s are required")
    try:
        two_s = int(args.two_s)
    except ValueError as exc:
        raise ConfigError(f"bad --two-s value {args.two_s!r}") from exc
    kind = {"fermion": ParticleKind.FERMION, "boson": ParticleKind.BOSON}.get(args.species)
    if kind is None:
        raise ConfigError(f"unknown species {args.species!r}")
    try:
        return SpinStatistics(twice_spin=two_s, kind=kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _geometry(args: argparse.Namespace) -> WellGeometry:
    length = args.length if args.length is not None else 1e-9
    mass = args.mass if args.mass is not None else 1e-26
    try:
        return WellGeometry(length=length, mass=mass)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _n_values(args: argparse.Namespace) -> list[int]:
    if args.n is not None and args.n_range is not None:
        raise ConfigError("give either --n or --n-range, not both")
    if args.n is not None:
        return [args.n]
    if args.n_range is not None:
        return _parse_int_range(args.n_range)
    raise ConfigError("one of --n or --n-range is required")


def _t_values(args: argparse.Namespace, required: bool = True) -> list[float]:
    if args.temp is not None and args.temp_range is not None:
        raise ConfigError("give either --temp or --temp-range, not both")
    if args.temp is not None:
        if args.temp < 0:
            raise ConfigError("--temp must be >= 0")
        return [args.temp]
    if args.temp_range is not None:
        values = _parse_float_range(args.temp_range)
        if any(t < 0 for t in values):
            raise ConfigError("temperatures must be >= 0")
        return values
    if required:
        raise ConfigError("one of --temp or --temp-range is required")
    return []


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _csv_text(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _check_strict(args: argparse.Namespace, cells: Sequence[str]) -> None:
    if getattr(args, "strict", False) and any(cell == UNDEFINED for cell in cells):
        raise StrictUndefinedError()


def _work_row(
    spin: SpinStatistics, geometry: WellGeometry, N: int, T: float
) -> dict[str, Any]:
    e0 = geometry.reference_energy
    filling = phase.filling(spin, N)
    coeffs = information.work_coefficients(filling, geometry)
    n_str, k_str = "", ""
    if spin.kind is ParticleKind.FERMION:
        n_str, k_str = str(filling.n), str(filling.k)
    w_tot = coeffs.total_work(ThermalPoint(T))
    tc = _fmt(phase.critical_temperature(coeffs)) if coeffs.slope > 0 else UNDEFINED
    per_kbt = _fmt(w_tot / (BOLTZMANN * T)) if T > 0 else UNDEFINED
    return {
        "species": spin.kind.value,
        "two_s": spin.twice_spin,
        "N": N,
        "n": n_str,
        "k": k_str,
        "D": _fmt(coeffs.slope),
        "W0_joule": _fmt(coeffs.absorbed),
        "W0_per_E0": _fmt(coeffs.absorbed / e0),
        "T_kelvin": _fmt(T),
        "Wtot_joule": _fmt(w_tot),
        "Wtot_per_kBT": per_kbt,
        "Tc_kelvin": tc,
    }


def cmd_work(args: argparse.Namespace) -> int:
    spin = _species(args)
    geometry = _geometry(args)
    n_values = _n_values(args)
    t_values = _t_values(args)
    rows = [_work_row(spin, geometry, N, T) for N in n_values for T in t_values]
    for row in rows:
        _check_strict(args, list(map(str, row.values())))
    single = len(rows) == 1
    fmt = args.format or ("json" if single else "csv")
    if fmt == "json":
        if not single:
            raise ConfigError("json format is for single results; ranges emit csv")
        _emit(_json_dumps(rows[0]) + "\n", args.out)
    else:
        header = list(rows[0].keys())
        _emit(_csv_text(header, [[str(v) for v in row.values()] for row in rows]), args.out)
    return EXIT_OK


def cmd_distribution(args: argparse.Namespace) -> int:
    spin = _species(args)
    geometry = _geometry(args)
    n_values = _n_values(args)
    if len(n_values) != 1:
        raise ConfigError("distribution requires a single --n")
    N = n_values[0]
    t_values = _t_values(args, required=False)
    thermal = None
    if t_values:
        if len(t_values) != 1:
            raise ConfigError("distribution requires a single --temp")
        if t_values[0] <= 0:
            raise ConfigError("post-expansion weights require --temp > 0")
        thermal = ThermalPoint(t_values[0])
    filling = phase.filling(spin, N)
    dist = information.measurement_distribution(filling)
    stars = None
    if thermal is not None:
        stars = [
            _exp_cell(information.log_post_expansion_weight(filling, int(m), geometry, thermal))
            for m in dist.support
        ]
        _check_strict(args, stars)
    fmt = args.format or "json"
    if fmt == "json":
        payload: dict[str, Any] = {
            "species": spin.kind.value,
            "two_s": spin.twice_spin,
            "N": N,
            "m": [int(m) for m in dist.support],
            "f_m": [float(p) for p in dist.probabilities],
            "f_m_sum": dist.total(),
        }
        if stars is not None:
            payload["f_m_star"] = stars
            payload["T_kelvin"] = thermal.temperature
        _emit(_json_dumps(payload) + "\n", args.out)
    else:
        header = ["m", "f_m"] + (["f_m_star"] if stars is not None else [])
        rows = []
        for i, m in enumerate(dist.support):
            row = [str(int(m)), _fmt(float(dist.probabilities[i]))]
            if stars is not None:
                row.append(UNDEFINED if stars[i] == UNDEFINED else _fmt(stars[i]))
            rows.append(row)
        _emit(_csv_text(header, rows), args.out)
    print(f"sum f_m = {_fmt(dist.total())}", file=sys.stderr)
    return EXIT_OK


def cmd_phase(args: argparse.Namespace) -> int:
    geometry = _geometry(args)
    if args.species is None or args.two_s is None:
        raise ConfigError("--species and --two-s are required")
    spins = []
    for token in str(args.two_s).split(","):
        sub = argparse.Namespace(species=args.species, two_s=token)
        spins.append(_species(sub))
    if args.n_range is None:
        raise ConfigError("phase requires --n-range")
    n_values = _parse_int_range(args.n_range)
    multi = len(spins) > 1
    header = (["two_s"] if multi else []) + ["N", "T_c_kelvin", "defined"]
    rows = []
    for spin in spins:
        for point in phase.phase_curve(spin, geometry, n_values):
            cell = _fmt(point.critical_temperature) if point.defined else UNDEFINED
            row = ([str(spin.twice_spin)] if multi else []) + [
                str(point.N),
                cell,
                "true" if point.defined else "false",
            ]
            _check_strict(args, row)
            rows.append(row)
    _emit(_csv_text(header, rows), args.out)
    t_values = _t_values(args, required=False)
    if len(t_values) > 1 or args.temp_range is not None:
        if not args.out:
            raise ConfigError("the work grid needs --out (written to OUT.grid.csv)")
        grid_header = (["two_s"] if multi else []) + ["N", "T", "W_tot_joule", "sign"]
        grid_rows = []
        for spin in spins:
            grid = phase.work_grid(spin, geometry, n_values, t_values)
            for i, N in enumerate(grid.n_values):
                for j, T in enumerate(grid.temperatures):
                    w = float(grid.work[i, j])
                    sign = "0" if w == 0 else ("1" if w > 0 else "-1")
                    grid_rows.append(
                        ([str(spin.twice_spin)] if multi else [])
                        + [str(int(N)), _fmt(float(T)), _fmt(w), sign]
                    )
        _emit(_csv_text(grid_header, grid_rows), args.out + ".grid.csv")
    return EXIT_OK


def cmd_efficiency(args: argparse.Namespace) -> int:
    spin = _species(args)
    geometry = _geometry(args)
    n_values = _n_values(args)
    t_values = _t_values(args)
    if len(t_values) != 1:
        raise ConfigError("efficiency requires a single --temp")
    if t_values[0] <= 0:
        raise ConfigError("efficiency requires --temp > 0")
    thermal = ThermalPoint(t_values[0])
    rows = []
    for N in n_values:
        filling = phase.filling(spin, N)
        if spin.kind is ParticleKind.FERMION:
            second = filling.k in (2, 4 * spin.u - 2)
            alpha = (2.0 * spin.u - 1.0) / (4.0 * spin.u - 1.0)
        else:
            second = N == 2
            alpha = (2.0 * spin.s + 2.0) / (4.0 * spin.s + 3.0)
        w_tot = information.total_work(filling, geometry, thermal)
        dist = information.measurement_distribution(filling)
        w_eras = information.erasure_work(dist, thermal)
        w_net = information.net_work(filling, geometry, thermal)
        if w_eras == 0.0:
            eta = UNDEFINED
        else:
            eta = _fmt(w_tot / w_eras)
        eta2 = _fmt(information.second_highest_efficiency(alpha)) if second else ""
        row = {
            "species": spin.kind.value,
            "two_s": spin.twice_spin,
            "N": N,
            "T_kelvin": _fmt(thermal.temperature),
            "Wtot_joule": _fmt(w_tot),
            "Weras_joule": _fmt(w_eras),
            "Wnet_joule": _fmt(w_net),
            "eta": eta,
            "eta_second_highest": eta2,
        }
        _check_strict(args, list(map(str, row.values())))
        rows.append(row)
    single = len(rows) == 1
    fmt = args.format or ("json" if single else "csv")
    if fmt == "json":
        if not single:
            raise ConfigError("json format is for single results; ranges emit csv")
        _emit(_json_dumps(rows[0]) + "\n", args.out)
    else:
        header = list(rows[0].keys())
        _emit(_csv_text(header, [[str(v) for v in row.values()] for row in rows]), args.out)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    spin = _species(args)
    geometry = _geometry(args)
    n_values = _n_values(args)
    if len(n_values) != 1:
        raise ConfigError("oracle requires a single --n")
    N = n_values[0]
    if N > 6:
        raise ConfigError("oracle is restricted to N <= 6")
    if spin.degeneracy > 12:
        raise ConfigError("oracle is restricted to degeneracy 2s+1 <= 12")
    t_values = _t_values(args)
    if len(t_values) != 1 or t_values[0] <= 0:
        raise ConfigError("oracle requires a single --temp > 0")
    thermal = ThermalPoint(t_values[0])
    insertion_frac = args.insertion if args.insertion is not None else 0.5
    if not 0 < insertion_frac < 1:
        raise ConfigError("--insertion must lie in (0, 1)")
    n_max = args.nmax if args.nmax is not None else oracle.DEFAULT_LEVEL_CUTOFF
    tolerance = args.tolerance if args.tolerance is not None else 1e-3
    L = geometry.length

    cycle = oracle.ensemble_cycle(
        N, spin, geometry, thermal, insertion=insertion_frac * L, n_max=n_max
    )
    filling = phase.filling(spin, N)
    analytic_dist = information.measurement_distribution(filling)
    analytic_work = information.total_work(filling, geometry, thermal)

    rows = []
    max_df = 0.0
    max_dl = 0.0
    for m in range(N + 1):
        f_exact = float(cycle.distribution.probabilities[m])
        f_analytic = analytic_dist.probability(m)
        leq_exact = cycle.equilibria[m].position / L
        leq_analytic: float | None = None
        if m in filling.support:
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
        "level_cutoff": n_max,
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
        header = [
            "m",
            "f_exact",
            "f_analytic",
            "delta_f",
            "leq_exact_over_L",
            "leq_analytic_over_L",
        ]
        csv_rows = []
        for row in rows:
            csv_rows.append(
                [
                    str(row["m"]),
                    _fmt(row["f_exact"]),
                    _fmt(row["f_analytic"]),
                    _fmt(row["delta_f"]),
                    _fmt(row["leq_exact_over_L"]),
                    _fmt(row["leq_analytic_over_L"]) if row["leq_analytic_over_L"] is not None else "",
                ]
            )
        _emit(_csv_text(header, csv_rows), args.out)
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
    spin = _species(args)
    geometry = _geometry(args)
    e0 = geometry.reference_energy
    if spin.kind is ParticleKind.FERMION:
        u = spin.u
        header = ["k", "D_F", "avg_W0F_limit_joule", "avg_W0F_limit_per_E0"]
        rows = []
        for k in range(4 * u):
            coeffs = information.work_coefficients(fermion.decompose(k, u), geometry)
            limit = fermion.average_absorbed_work_limit(u, k, geometry)
            rows.append([str(k), _fmt(coeffs.slope), _fmt(limit), _fmt(limit / e0)])
    else:
        n_values = _n_values(args)
        header = ["N", "lim_D_B", "lim_W0B_joule", "lim_W0B_per_E0"]
        rows = []
        for N in n_values:
            lim = boson.large_spin_limits(N, geometry)
            rows.append([str(N), _fmt(lim.slope), _fmt(lim.absorbed), _fmt(lim.absorbed / e0)])
    _emit(_csv_text(header, rows), args.out)
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="szilard",
        description="Arbitrary-spin quantum Szilard engine calculator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "work": cmd_work,
        "distribution": cmd_distribution,
        "phase": cmd_phase,
        "efficiency": cmd_efficiency,
        "oracle": cmd_oracle,
        "limits": cmd_limits,
    }
    for name, handler in commands.items():
        cmd = sub.add_parser(name)
        cmd.set_defaults(handler=handler)
        cmd.add_argument("--species", choices=["fermion", "boson"], default=None)
        cmd.add_argument("--two-s", dest="two_s", default=None)
        cmd.add_argument("--n", type=int, default=None)
        cmd.add_argument("--n-range", dest="n_range", default=None)
        cmd.add_argument("--temp", type=float, default=None)
        cmd.add_argument("--temp-range", dest="temp_range", default=None)
        cmd.add_argument("--length", type=float, default=None)
        cmd.add_argument("--mass", type=float, default=None)
        cmd.add_argument("--insertion", type=float, default=None)
        cmd.add_argument("--nmax", type=int, default=None)
        cmd.add_argument("--tolerance", type=float, default=None)
        cmd.add_argument("--format", choices=["csv", "json"], default=None)
        cmd.add_argument("--out", default=None)
        cmd.add_argument("--config", default=None)
        cmd.add_argument("--strict", action="store_true")
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
    except ToleranceExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except oracle.ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE


if __name__ == "__main__":
    sys.exit(main())
