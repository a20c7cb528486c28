import collections
import contextlib
import csv
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from spinszilard import cli, information, phase
from spinszilard.core import BOLTZMANN, ParticleKind, SpinStatistics, ThermalPoint, WellGeometry

from test_information import second_highest_efficiency

# temperatures in kelvin; k_B T / E0 = 0.05 is roughly T = 0.0199 K here
LOW_T = "0.02"
#: the CLI's default well
GEOM = WellGeometry(length=1e-9, mass=1e-26)


def run(argv):
    return cli.main(argv)


def exit_code(argv):
    """cli.main's return code, or the code of the SystemExit argparse raises."""
    try:
        return cli.main(shlex.split(argv) if isinstance(argv, str) else argv)
    except SystemExit as exc:
        return exc.code


def test_work_single_json(capsys):
    code = run(
        ["work", "--species", "fermion", "--two-s", "9", "--n", "3", "--temp", "0.1"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["species"] == "fermion"
    assert payload["N"] == 3
    assert payload["n"] == "0" and payload["k"] == "3"
    assert float(payload["D"]) == pytest.approx(2.2512917986064953, rel=1e-8)
    assert float(payload["Tc_kelvin"]) == pytest.approx(0.2634385, rel=1e-6)


def test_work_range_csv_deterministic(capsys):
    argv = [
        "work",
        "--species",
        "boson",
        "--two-s",
        "2",
        "--n-range",
        "1:6",
        "--temp",
        "0.1",
    ]
    assert run(argv) == 0
    first = capsys.readouterr().out
    assert run(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0].startswith("species,two_s,N,")
    assert len(lines) == 7


def test_work_undefined_cells_and_strict(capsys):
    # T = 0: work per k_B T is undefined; default run reports it as text
    argv = ["work", "--species", "fermion", "--two-s", "1", "--n", "2", "--temp", "0"]
    assert run(argv) == 0
    assert "undefined" in capsys.readouterr().out
    assert run(argv + ["--strict"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        # T = 0: Wtot_per_kBT is undefined in the first row of every N
        "work --species fermion --two-s 1 --n-range 1:3 --temp-range 0:0.2:0.1 --out w.csv",
        # N = 4 fills its shells: no T_c; the rows of N = 1..3 come first
        "work --species fermion --two-s 1 --n-range 1:4 --temp 0.1 --out w.csv",
        # one outcome, so no eta: the empty well in the first row, a filled shell in the last
        "efficiency --species fermion --two-s 1 --n-range 0:3 --temp 0.1 --out w.csv",
        "efficiency --species fermion --two-s 1 --n-range 1:4 --temp 0.1 --out w.csv",
    ],
)
def test_work_strict_refusal_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    """--strict is settled before the first row is formed, so exit 3 leaves no file."""
    monkeypatch.chdir(tmp_path)
    assert exit_code(argv) == 0
    assert (tmp_path / "w.csv").read_text().count("undefined") >= 1
    (tmp_path / "w.csv").unlink()
    assert exit_code(argv + " --strict") == 3
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["work", "efficiency"])
def test_work_rows_are_written_as_they_are_formed(command, monkeypatch):
    """The first CSV line reaches the output before the last N's row is formed."""
    formed = []
    line = cli._line

    def counted(cells):
        formed.append(cells)
        return line(cells)

    class Sink(list):
        def write(self, text):
            self.append((len(formed), text))

        def flush(self):
            pass

    sink = Sink()
    monkeypatch.setattr(cli, "_line", counted)
    monkeypatch.setattr(cli.sys, "stdout", sink)
    argv = [command, "--species", "boson", "--two-s", "2", "--n-range", "1:40", "--temp", "0.1"]
    assert run(argv) == 0
    assert len(formed) >= 40  # the cells of each N, joined as its rows form
    assert sink[0][0] < len(formed)
    assert "".join(text for _, text in sink).count("\n") == 41


@pytest.mark.parametrize(
    "argv,lines",
    [
        ("efficiency --species fermion --two-s 1 --n-range 0:20000 --temp 0.1", 1),
        ("phase --species fermion --two-s 1 --n-range 0:20000", 1),
        ("work --species fermion --two-s 1 --n 3 --temp 0.1", 0),
    ],
    ids=["efficiency", "phase", "work-json"],
)
def test_closed_stdout_exits_2_without_traceback(argv, lines):
    """A reader that goes away after ``lines`` lines (as ``| head -1``) is a failed write."""
    read_fd, write_fd = os.pipe()
    reader = os.fdopen(read_fd, "rb")
    if not lines:
        reader.close()  # as ``| head -0``: no reader before the first byte
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(cli.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "spinszilard.cli", *shlex.split(argv)],
        stdout=write_fd, stderr=subprocess.PIPE, env=env,
    )
    os.close(write_fd)
    if lines:
        assert reader.readline()
        reader.close()
    _, err = proc.communicate(timeout=120)
    err = err.decode()
    assert proc.returncode == 2, err
    assert err.startswith("error: cannot write standard output: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_missing_species_is_config_error(capsys):
    assert run(["work", "--two-s", "9", "--n", "3", "--temp", "0.1"]) == 2
    assert "error" in capsys.readouterr().err


def test_conflicting_n_flags(capsys):
    code = run(
        [
            "work",
            "--species",
            "fermion",
            "--two-s",
            "1",
            "--n",
            "2",
            "--n-range",
            "1:3",
            "--temp",
            "0.1",
        ]
    )
    assert code == 2


def test_bad_range_syntax(capsys):
    code = run(
        ["work", "--species", "fermion", "--two-s", "1", "--n-range", "5", "--temp", "0.1"]
    )
    assert code == 2
    code = run(
        ["work", "--species", "fermion", "--two-s", "1", "--n-range", "3:1", "--temp", "0.1"]
    )
    assert code == 2


@pytest.mark.parametrize("command", ["work", "efficiency"])
def test_json_format_rejected_for_ranges(command, capsys):
    argv = f"{command} --species fermion --two-s 1 --n-range 1:3 --temp 0.1 --format json"
    assert run(shlex.split(argv)) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        "work --species fermion --two-s 9 --n 3 --temp 0.1",
        "work --species boson --two-s 0 --n 0 --temp 0.1",
        *(f"efficiency --species fermion --two-s 9 --n {N} --temp 0.1" for N in (0, 1, 2)),
    ],
)
def test_single_result_csv_is_its_json_document(argv, capsys):
    """A single result's CSV has its JSON document's keys as header and their values as row."""
    assert run(shlex.split(argv)) == 0
    document = json.loads(capsys.readouterr().out)
    assert run(shlex.split(argv + " --format csv")) == 0
    header, row = ",".join(document), ",".join(map(str, document.values()))
    assert capsys.readouterr().out == f"{header}\n{row}\n"


def test_bad_species_pairing(capsys):
    # even twice-spin cannot be a fermion
    assert run(["work", "--species", "fermion", "--two-s", "2", "--n", "1", "--temp", "1"]) == 2


def test_distribution_json_with_weights(capsys):
    code = run(
        [
            "distribution",
            "--species",
            "boson",
            "--two-s",
            "2",
            "--n",
            "3",
            "--temp",
            LOW_T,
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert payload["m"] == [0, 1, 2, 3]
    assert sum(payload["f_m"]) == pytest.approx(1.0, abs=1e-8)
    assert payload["f_m_star"][0] == pytest.approx(1.0, abs=1e-8)
    assert "sum f_m" in captured.err


def test_distribution_csv(capsys):
    code = run(
        [
            "distribution",
            "--species",
            "fermion",
            "--two-s",
            "9",
            "--n",
            "3",
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,f_m"
    assert len(lines) == 5


def test_phase_csv_and_undefined_rows(tmp_path, capsys):
    out = tmp_path / "phase.csv"
    code = run(
        [
            "phase",
            "--species",
            "fermion",
            "--two-s",
            "1",
            "--n-range",
            "1:8",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "N,T_c_kelvin,defined"
    undefined_rows = [line for line in lines[1:] if "undefined" in line]
    # u=1: N = 4 and N = 8 are closed shells with no transition
    assert len(undefined_rows) == 2
    assert all(row.endswith("false") for row in undefined_rows)


def test_phase_strict_mode(tmp_path):
    code = run(
        [
            "phase",
            "--species",
            "fermion",
            "--two-s",
            "1",
            "--n-range",
            "1:8",
            "--strict",
            "--out",
            str(tmp_path / "p.csv"),
        ]
    )
    assert code == 3


def test_phase_grid_needs_out(capsys):
    code = run(
        [
            "phase",
            "--species",
            "fermion",
            "--two-s",
            "9",
            "--n-range",
            "3:3",
            "--temp-range",
            "0:0.6:0.1",
        ]
    )
    assert code == 2


def test_phase_grid_file_contains_sign_flip(tmp_path):
    out = tmp_path / "phase.csv"
    code = run(
        [
            "phase",
            "--species",
            "fermion",
            "--two-s",
            "9",
            "--n-range",
            "3:3",
            "--temp-range",
            "0:0.6:0.05",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    grid = (tmp_path / "phase.csv.grid.csv").read_text().splitlines()
    assert grid[0] == "N,T,W_tot_joule,sign"
    signs = [line.rsplit(",", 1)[1] for line in grid[1:]]
    assert "-1" in signs and "1" in signs


def test_phase_multiple_spins(tmp_path):
    out = tmp_path / "multi.csv"
    code = run(
        [
            "phase",
            "--species",
            "boson",
            "--two-s",
            "0,2,4",
            "--n-range",
            "3:5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "two_s,N,T_c_kelvin,defined"
    assert len(lines) == 10


def test_phase_builds_no_outcome_table_and_each_filling_once(tmp_path, monkeypatch):
    """The T_c table and the work grid share one filling per (spin, N) and build no table."""
    tables = collections.Counter()
    fillings = collections.Counter()
    build, form = information.outcome_table, phase.filling

    def counted_table(filling, geometry):
        tables[filling] += 1
        return build(filling, geometry)

    def counted_filling(spin, N):
        fillings[spin.twice_spin, N] += 1
        return form(spin, N)

    monkeypatch.setattr(information, "outcome_table", counted_table)
    monkeypatch.setattr(phase, "filling", counted_filling)
    argv = ["phase", "--species", "boson", "--two-s", "0,2,4", "--n-range", "1:20",
            "--temp-range", "0:1:0.05", "--out", str(tmp_path / "p.csv")]
    assert run(argv) == 0
    assert (tmp_path / "p.csv.grid.csv").exists()
    assert tables == {}
    assert fillings == {(two_s, N): 1 for two_s in (0, 2, 4) for N in range(1, 21)}


@pytest.mark.parametrize("n_range,temp_range", [("1:20", "0:1:0.05"), ("1:3", "0:1:0.0009")],
                         ids=["whole-points", "temperature-windows"])
def test_phase_files_are_written_in_bounded_blocks(tmp_path, monkeypatch, n_range, temp_range):
    """Each write holds whole rows, at most ROWS_PER_WRITE of them: the grid is never one string."""
    writes = collections.defaultdict(list)
    output = cli._output

    @contextlib.contextmanager
    def counted(out):
        with output(out) as handle:
            class Counting:
                def write(self, text):
                    writes[out].append(text)
                    return handle.write(text)

            yield Counting()

    monkeypatch.setattr(cli, "_output", counted)
    out = str(tmp_path / "p.csv")
    argv = ["phase", "--species", "boson", "--two-s", "0,2", "--n-range", n_range,
            "--temp-range", temp_range, "--out", out]
    assert run(argv) == 0
    points = 2 * len(cli._parse_range(n_range, int))
    grid_rows = points * len(cli._parse_range(temp_range, float))
    assert grid_rows > cli.ROWS_PER_WRITE
    for path, rows in [(out, points), (out + ".grid.csv", grid_rows)]:
        texts = writes[path]
        assert "".join(texts) == pathlib.Path(path).read_text()
        assert all(text.endswith("\n") for text in texts)
        assert max(text.count("\n") for text in texts) <= cli.ROWS_PER_WRITE
        # the header, then at least ceil(rows / block) writes of data rows
        assert len(texts) >= 1 + -(-rows // cli.ROWS_PER_WRITE)
        assert "".join(texts).count("\n") == 1 + rows


def _reference_phase(spins, n_values, t_values):
    """The T_c table and the work grid, formed one f-string per row."""
    lead = "two_s," if len(spins) > 1 else ""
    table, grid = [lead + "N,T_c_kelvin,defined"], [lead + "N,T,W_tot_joule,sign"]
    for spin in spins:
        spin_cell = f"{spin.twice_spin}," if lead else ""
        for N, coeffs in zip(n_values, phase.phase_curve(spin, GEOM, n_values)):
            tc = coeffs.critical_temperature
            table.append(f"{spin_cell}{N}," + ("undefined,false" if tc is None
                                               else f"{tc:.8e},true"))
            for T, w in zip(t_values, phase.work_rows([coeffs], np.array(t_values))[0].tolist()):
                grid.append(f"{spin_cell}{N},{T:.8e},{w:.8e},{(w > 0) - (w < 0)}")
    return ["\n".join(lines) + "\n" for lines in (table, grid)]


def _reference_work(spin, n_values, t_values):
    """``work``'s CSV, formed one f-string per (N, T) row."""
    e0 = GEOM.reference_energy
    lines = [",".join(cli._WORK_COLUMNS)]
    for N, coeffs in zip(n_values, phase.phase_curve(spin, GEOM, n_values)):
        filling = phase.filling(spin, N)
        n, k = (filling.n, filling.k) if spin.kind is ParticleKind.FERMION else ("", "")
        head = (f"{spin.kind.value},{spin.twice_spin},{N},{n},{k},{coeffs.slope:.8e},"
                f"{coeffs.absorbed:.8e},{coeffs.absorbed / e0:.8e}")
        tc = coeffs.critical_temperature
        tc = "undefined" if tc is None else f"{tc:.8e}"
        for T, w in zip(t_values, phase.work_rows([coeffs], np.array(t_values))[0].tolist()):
            per_kbt = f"{w / (BOLTZMANN * T):.8e}" if T > 0 else "undefined"
            lines.append(f"{head},{T:.8e},{w:.8e},{per_kbt},{tc}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("command,species,two_s,n_range,temp_range", [
    # one spin; a T = 0 column; boson N = 0 has D = 0; 31 points end mid-block
    ("phase", "boson", "0", "0:30", "0:1:0.05"),
    # several spins; one temperature; fermion k = 0 at N = 0, 4, 8, ...
    ("phase", "fermion", "1,3", "0:40", "0.5:0.5"),
    # more temperatures than one block holds: three windows, the last one partial
    ("phase", "fermion", "1", "0:9", "0:1:0.0009"),
    # a T_c table of more than one block; two temperatures
    ("phase", "boson", "0,2,40", "0:700", "0.1:0.2"),
    ("work", "fermion", "3", "0:40", "0:1:0.05"),
    ("work", "boson", "2", "0:3", "0:1:0.0009"),
    ("work", "fermion", "1", "0:600", "0.3:0.3"),
])
def test_block_rows_match_one_fstring_per_row(tmp_path, command, species, two_s, n_range,
                                              temp_range):
    """Rows formatted a block at a time have the bytes of one f-string per row."""
    out = tmp_path / "out.csv"
    assert run([command, "--species", species, "--two-s", two_s, "--n-range", n_range,
                "--temp-range", temp_range, "--out", str(out)]) == 0
    spins = [SpinStatistics(twice_spin=int(t), kind=ParticleKind(species))
             for t in two_s.split(",")]
    n_values = cli._parse_range(n_range, int)
    t_values = cli._parse_range(temp_range, float)
    if command == "phase":
        files = [out.read_text(), pathlib.Path(f"{out}.grid.csv").read_text()]
        assert files == _reference_phase(spins, n_values, t_values)
    else:
        assert out.read_text() == _reference_work(spins[0], n_values, t_values)


def test_phase_grid_memory_does_not_grow_with_the_grid(tmp_path):
    """The grid is formed one N at a time: 20 times the temperatures adds no N x T array."""

    def traced_peak(temp_range):
        argv = ["phase", "--species", "boson", "--two-s", "2", "--n-range", "0:49",
                "--temp-range", temp_range, "--out", str(tmp_path / "p.csv")]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = traced_peak("0:1:0.01")
    large = traced_peak("0:1:0.0005")
    lines = (tmp_path / "p.csv.grid.csv").read_text().count("\n")
    assert lines == 1 + 50 * 2001
    assert large - small < 0.2e6, (small, large)


def test_one_outcome_is_exactly_zero_erasure_work():
    """efficiency's --strict check: eta is undefined (W_eras = 0) just where f has one outcome."""
    geometry = WellGeometry(length=1e-9, mass=1e-26)
    e0 = geometry.reference_energy
    thermals = [ThermalPoint(x * e0 / BOLTZMANN) for x in (0.01, 0.1, 1, 30)]
    mismatches = []
    for kind in ParticleKind:
        for two_s in range(kind is ParticleKind.FERMION, 42, 2):
            spin = SpinStatistics(twice_spin=two_s, kind=kind)
            for N in range(161):
                filling = phase.filling(spin, N)
                dist = information.outcome_table(filling, geometry).distribution
                one = len(filling.support) == 1
                mismatches += [(kind, two_s, N, th) for th in thermals
                               if (information.erasure_work(dist, th) == 0.0) != one]
    assert mismatches == []


def test_efficiency_json(capsys):
    code = run(
        [
            "efficiency",
            "--species",
            "fermion",
            "--two-s",
            "1",
            "--n",
            "2",
            "--temp",
            "0.1",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert float(payload["eta"]) == pytest.approx(0.6884260844650522, rel=1e-8)
    assert float(payload["eta_second_highest"]) == pytest.approx(
        0.6884260844650522, rel=1e-8
    )
    assert float(payload["Wnet_joule"]) <= 0.0


def test_efficiency_undefined_and_strict(capsys):
    argv = [
        "efficiency",
        "--species",
        "fermion",
        "--two-s",
        "1",
        "--n",
        "4",
        "--temp",
        "0.1",
    ]
    assert run(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["eta"] == "undefined"
    # a deterministic outcome costs no erasure work, and it prints as +0
    assert payload["Weras_joule"] == "0.00000000e+00"
    assert run(argv + ["--strict"]) == 3


@pytest.mark.parametrize("species", ["fermion", "boson"])
def test_efficiency_runner_up_rows(species, capsys):
    """eta_second_highest is filled on exactly the fermion k in {2, 4u-2} and boson
    N = 2 rows, with the closed-form alpha of each family."""
    for half in range(1, 51) if species == "fermion" else range(0, 51):
        if species == "fermion":  # half is u; two periods' worth of k = 2
            two_s, n_range = 2 * half - 1, f"0:{4 * half + 3}"
            alpha = (2.0 * half - 1.0) / (4.0 * half - 1.0)
        else:  # half is s
            two_s, n_range = 2 * half, "0:6"
            alpha = (2.0 * half + 2.0) / (4.0 * half + 3.0)
        argv = ["efficiency", "--species", species, "--two-s", str(two_s),
                "--n-range", n_range, "--temp", "0.1"]
        assert run(argv) == 0
        rows = list(csv.DictReader(capsys.readouterr().out.splitlines()))
        expected = cli._fmt(second_highest_efficiency(alpha))
        for row in rows:
            N = int(row["N"])
            runner_up = N % (4 * half) in (2, 4 * half - 2) if species == "fermion" else N == 2
            assert row["eta_second_highest"] == (expected if runner_up else ""), (two_s, N)


def test_oracle_agreement(capsys):
    code = run(
        [
            "oracle",
            "--species",
            "fermion",
            "--two-s",
            "9",
            "--n",
            "3",
            "--temp",
            LOW_T,
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["max_delta_f"] < 1e-3
    assert payload["max_delta_leq_over_L"] < 1e-3
    assert payload["rel_delta_W"] < 1e-3


def test_oracle_rows_off_the_support_have_no_analytic_wall(capsys):
    """A spin-1/2 fermion triple never leaves one side empty in the closed forms, so
    m = 0 and m = 3 have no analytic wall: a JSON null, and no part of max|dl|."""
    assert exit_code(f"oracle --species fermion --two-s 1 --n 3 --temp {LOW_T}") == 0
    payload = json.loads(capsys.readouterr().out)
    walls = [row["leq_analytic_over_L"] for row in payload["rows"]]
    assert [wall is None for wall in walls] == [True, False, False, True]
    assert payload["max_delta_leq_over_L"] < 1e-12


def test_oracle_tolerance_exceeded(capsys):
    code = run(
        [
            "oracle",
            "--species",
            "fermion",
            "--two-s",
            "9",
            "--n",
            "3",
            "--temp",
            LOW_T,
            "--tolerance",
            "0",
        ]
    )
    assert code == 4


def test_oracle_cap_nonconvergence(capsys):
    # k_B T ~ 2.5e6 E0 occupies far more than the 1024 levels a box DP may add
    code = run(
        [
            "oracle",
            "--species",
            "fermion",
            "--two-s",
            "1",
            "--n",
            "1",
            "--temp",
            "1e6",
        ]
    )
    assert code == 4
    assert "level cutoff 1024" in capsys.readouterr().err


def test_oracle_hot_box_converging_below_the_cutoff(capsys):
    # the DP stops before level 1024, so no convergence error
    argv = "oracle --species fermion --two-s 1 --n 1 --temp 30000 --tolerance 1e300"
    assert exit_code(argv) == 0
    assert capsys.readouterr().err == ""


def test_oracle_cold_work_is_finite(capsys):
    # k_B T ~ 0.0025 E0: f*_1 ~ exp(-756) would underflow outside the log domain
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = exit_code("oracle --species fermion --two-s 3 --n 3 --temp 1e-3")
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""
    payload = json.loads(out)
    assert all(math.isfinite(x) for x in _numbers(payload))
    assert payload["rel_delta_W"] < 1e-6


def test_oracle_size_guards(capsys):
    assert (
        run(["oracle", "--species", "fermion", "--two-s", "1", "--n", "7", "--temp", "1"])
        == 2
    )
    assert (
        run(["oracle", "--species", "boson", "--two-s", "24", "--n", "2", "--temp", "1"])
        == 2
    )


def test_limits_fermion(capsys):
    code = run(["limits", "--species", "fermion", "--two-s", "9"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "k,D_F,avg_W0F_limit_joule,avg_W0F_limit_per_E0"
    assert len(lines) == 21  # header + k in [0, 20)


def test_limits_boson(capsys):
    code = run(["limits", "--species", "boson", "--two-s", "2", "--n-range", "1:4"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "N,lim_D_B,lim_W0B_joule,lim_W0B_per_E0"
    row3 = lines[3].split(",")
    assert float(row3[1]) == pytest.approx(3 * math.log(2), rel=1e-8)


@pytest.mark.parametrize("flag", ["--n 3", "--n-range 1:1000000"])
def test_limits_fermion_rejects_n(flag, capsys):
    """The fermion table indexes k in [0, 4u): an N flag there is an error, not ignored."""
    assert exit_code(f"limits --species fermion --two-s 1 {flag}") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k in [0, 4u)" in captured.err


def test_config_file(tmp_path, capsys):
    config = tmp_path / "engine.conf"
    config.write_text(
        "species = fermion\n"
        "two-s = 9  # spin 9/2\n"
        "temp = 0.1\n"
    )
    code = run(["work", "--n", "3", "--config", str(config)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["two_s"] == 9
    assert float(payload["T_kelvin"]) == pytest.approx(0.1)
    # explicit flags beat config values
    code = run(["work", "--n", "3", "--temp", "0.2", "--config", str(config)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert float(payload["T_kelvin"]) == pytest.approx(0.2)
    # ... and the config's other form of the same flag
    config.write_text("species = fermion\ntwo-s = 1\nn_range = 1:5\ntemp_range = 0:1\n")
    code = run(["work", "--n", "3", "--temp", "0.2", "--config", str(config)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["N"], float(payload["T_kelvin"])) == (3, pytest.approx(0.2))
    config.write_text("species = fermion\ntwo-s = 1\nn = 3\ntemp = 0.1\n")
    code = run(["work", "--n-range", "1:2", "--temp-range", "0.1:0.2", "--config", str(config)])
    assert code == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 2
    # both forms in the file itself still conflict
    config.write_text("species = fermion\ntwo-s = 1\nn = 3\nn_range = 1:5\ntemp = 0.1\n")
    assert run(["work", "--config", str(config)]) == 2
    assert "give either --n or --n-range" in capsys.readouterr().err


def test_shared_parser_keeps_no_state_between_calls(tmp_path, capsys):
    """main builds its parser once per process, and no call's flags reach the next."""

    def captured(argv):
        code = exit_code(argv)
        out, err = capsys.readouterr()
        return code, out, err

    cli._build_parser.cache_clear()
    assert run(["limits", "--species", "fermion", "--two-s", "1"]) == 0
    assert run(["limits", "--species", "fermion", "--two-s", "3"]) == 0
    assert cli._build_parser.cache_info().misses == 1
    capsys.readouterr()
    config = tmp_path / "engine.conf"
    config.write_text("species = fermion\ntwo-s = 9\ntemp = 0.1\n")
    good = "efficiency --species fermion --two-s 1 --n 2 --temp 0.1"
    # each sequence with the exit codes of its calls
    sequences = {
        # a config file's values, then a call that gives its own, or none
        (f"work --n 3 --config {config}", "work --species boson --two-s 2 --n 4 --temp 0.2"): [0, 0],
        (f"work --n 3 --config {config}", "work --n 3"): [0, 2],
        # argparse errors, then a good call
        ("work --species fermion --bogus 1", good): [2, 0],
        ("phase --species quark --n-range 1:3", good): [2, 0],
    }
    for sequence, codes in sequences.items():
        alone = []
        for argv in sequence:
            cli._build_parser.cache_clear()
            alone.append(captured(argv))
        cli._build_parser.cache_clear()
        shared = [captured(argv) for argv in sequence]
        assert cli._build_parser.cache_info().misses == 1
        assert [code for code, _, _ in shared] == codes, sequence
        assert shared == alone, sequence


@pytest.mark.parametrize(
    "argv,message",
    [
        ("work --species fermion --two-s 9 --temp 0.1", "one of --n or --n-range is required"),
        ("work --species fermion --two-s 9 --n 3", "one of --temp or --temp-range is required"),
        ("distribution --species fermion --two-s 9", "--n is required"),
        ("efficiency --species fermion --two-s 9 --n 3", "--temp is required"),
        ("oracle --species fermion --two-s 9 --temp 0.1", "--n is required"),
        ("phase --species fermion --two-s 9", "--n-range is required"),
        ("work --species fermion --two-s 9 --n 3 --n-range 1:3 --temp 0.1",
         "give either --n or --n-range, not both"),
        ("work --species fermion --two-s 9 --n 3 --temp 0.1 --temp-range 0:1",
         "give either --temp or --temp-range, not both"),
    ],
)
def test_value_flag_either_or_messages(argv, message, capsys):
    """Each value flag and its range form: exactly one is given, and a missing one is
    named by the forms the subcommand has."""
    assert exit_code(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_phase_names_a_bad_two_s_token(capsys):
    assert run(["phase", "--species", "fermion", "--two-s", "1,,3", "--n-range", "1:3"]) == 2
    assert capsys.readouterr().err.startswith("error: bad --two-s value '' for fermion")
    assert run(["phase", "--species", "fermion", "--n-range", "1:3"]) == 2
    assert capsys.readouterr().err == "error: --species and --two-s are required\n"


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("not-a-key = 1\n")
    assert run(["work", "--n", "3", "--temp", "1", "--config", str(bad)]) == 2
    assert run(["work", "--n", "3", "--temp", "1", "--config", str(tmp_path / "nope")]) == 2
    # a value is read as its flag's: a choice flag takes one of its choices, a number a number
    for line in ("species = lepton", "temp = hot"):
        bad.write_text(line + "\n")
        capsys.readouterr()
        assert run(["work", "--two-s", "1", "--n", "3", "--config", str(bad)]) == 2
        assert "bad value for config key" in capsys.readouterr().err


def _numbers(value):
    """Every numeric cell of a parsed JSON payload or CSV text."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return [x for item in value for x in _numbers(item)]
    if isinstance(value, (int, float)):
        return [float(value)]
    cells = value.replace("\n", ",").split(",")
    numbers = []
    for cell in cells:
        try:
            numbers.append(float(cell))
        except ValueError:
            pass  # labels, headers and "undefined" markers
    return numbers


@pytest.mark.parametrize(
    "argv",
    [
        ["work", "--species", "fermion", "--two-s", "2001", "--n", "2001", "--temp", "0.1"],
        ["distribution", "--species", "fermion", "--two-s", "2001", "--n", "2001", "--temp", "0.1"],
        ["efficiency", "--species", "fermion", "--two-s", "2001", "--n", "2001", "--temp", "0.1"],
        ["phase", "--species", "fermion", "--two-s", "2001", "--n-range", "2000:2002"],
        ["distribution", "--species", "boson", "--two-s", "2000", "--n", "2000", "--temp", "0.1"],
        ["efficiency", "--species", "boson", "--two-s", "2000", "--n", "2000", "--temp", "0.1"],
        # m C(N, m) and 2^N overflow a float from N = 1021 on
        ["limits", "--species", "boson", "--two-s", "2", "--n", "1021"],
        ["limits", "--species", "boson", "--two-s", "2", "--n", "1024"],
    ],
    ids=["work-f2001", "distribution-f2001", "efficiency-f2001", "phase-f2001",
         "distribution-b2000", "efficiency-b2000", "limits-b1021", "limits-b1024"],
)
def test_large_spin_finite_output(argv, capsys):
    """Counts far past the float range still give finite numbers and exit 0."""
    assert run(argv) == 0
    out = capsys.readouterr().out
    payload = out if argv[0] in ("phase", "limits") else json.loads(out)
    numbers = _numbers(payload)
    assert numbers
    assert all(math.isfinite(x) for x in numbers)


@pytest.mark.parametrize(
    "argv",
    [
        "work --species fermion --two-s 9 --n 3 --temp nan",
        "work --species fermion --two-s 9 --n 3 --temp inf",
        "efficiency --species fermion --two-s 1 --n 2 --temp inf",
        "work --species fermion --two-s 9 --n -3 --temp 0.1",
        "work --species fermion --two-s 9 --n-range=-3:2 --temp 0.1",
        "work --species fermion --two-s 9 --n 3 --temp 0.1 --length 1e300",
        "work --species fermion --two-s 9 --n 3 --temp 0.1 --length inf",
        "work --species fermion --two-s 9 --n 3 --temp 0.1 --mass 1e-320",
        "efficiency --species fermion --two-s 1 --n 2 --temp 1e-300",
        "oracle --species fermion --two-s 9 --n 3 --temp 0.02 --tolerance nan",
        "oracle --species fermion --two-s 1 --n 2 --temp 0.1 --tolerance -1",
        # an empty well has no wall equilibrium to compare
        "oracle --species fermion --two-s 1 --n 0 --temp 0.01",
        "oracle --species boson --two-s 0 --n 0 --temp 0.01",
    ],
)
def test_meaningless_numbers_exit_2(argv, capsys):
    assert exit_code(argv) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "argv",
    [
        "work --species boson --two-s 0 --n 3 --temp 1e-320",
        "work --species boson --two-s 0 --n-range 1:3 --temp-range 1e-320:1e-320",
        "distribution --species boson --two-s 0 --n 3 --temp 1e-320",
        "efficiency --species boson --two-s 0 --n 3 --temp 1e-320",
        "oracle --species boson --two-s 0 --n 3 --temp 1e-320",
    ],
)
def test_temperature_whose_k_b_t_underflows_to_zero_exits_2(argv, capsys):
    """Below about 1.8e-301 K, k_B T is exactly 0.0, not a subnormal."""
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "k_B T a normal float" in captured.err


def test_oracle_temperature_whose_beta_n_overflows_exits_2(capsys):
    """Near the lowest normal k_B T, beta * N passes 1.8e308 and a level can no longer
    hold N particles: the oracle refuses instead of moving the m = 1 wall to L/3."""
    argv = "oracle --species boson --two-s 0 --n 6 --temp 1.7e-285 --format csv"
    assert exit_code(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "N / (k_B T) to be a finite float" in captured.err
    # far above that bound the oracle still runs (and exits 0 or 4 on its deltas)
    assert exit_code("oracle --species boson --two-s 0 --n 6 --temp 1e-250 --format csv") in (0, 4)
    assert "finite float" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        "phase --species fermion --two-s 9 --n-range 1:3 --temp-range 0:1:1e-9 --out p.csv",
        "phase --species fermion --two-s 9 --n-range 1:3 --temp-range 0:inf --out p.csv",
        "work --species boson --two-s 2 --n-range 0:1000000000 --temp 0.1",
        # a step below the float spacing at the bounds would never advance
        "work --species boson --two-s 2 --n 3 --temp-range 1e300:1e300",
        # phase checks its grid flags before it writes the phase table
        "phase --species fermion --two-s 9 --n-range 3:3 --temp-range 0:0.6:0.1",
        "phase --species fermion --two-s 9 --n-range 3:3 --temp-range 0:1:0 --out p.csv",
    ],
)
def test_bad_range_exits_2_and_writes_nothing(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert exit_code(argv) == 2
    assert capsys.readouterr().out == ""
    assert not list(tmp_path.iterdir())


def test_range_size_cap_boundary(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_RANGE_VALUES", 10)
    work = "work --species boson --two-s 2 "
    assert exit_code(work + "--n-range 1:10 --temp 0.1") == 0
    assert exit_code(work + "--n-range 0:10 --temp 0.1") == 2
    assert exit_code(work + "--n 3 --temp-range 0:0.9:0.1") == 0
    assert exit_code(work + "--n 3 --temp-range 0:1:0.1") == 2


@pytest.mark.parametrize(
    "temp_range,temps",
    [
        ("1e-13:3e-13:1e-13", [1e-13, 2e-13, 3e-13]),
        ("1.234567e-9:1.234567e-9", [1.234567e-9]),
    ],
)
def test_tiny_temperature_range_keeps_its_values(temp_range, temps, capsys):
    """Range values keep 12 significant digits at any scale: none collapses to 0."""
    argv = f"work --species fermion --two-s 1 --n 2 --format csv --temp-range {temp_range}"
    assert exit_code(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
    assert [float(row["T_kelvin"]) for row in rows] == pytest.approx(temps, rel=1e-8, abs=0)
    assert all(row["Wtot_per_kBT"] != "undefined" for row in rows)


@pytest.mark.parametrize(
    "argv",
    [
        "phase --species fermion --two-s 9 --n-range 1:3 --temp 0.1 --out p.csv",
        "phase --species fermion --two-s 9 --n-range 1:3 --format json --out p.csv",
        "limits --species fermion --two-s 9 --temp 0.1",
        "efficiency --species fermion --two-s 1 --n 2 --temp 0.1 --nmax 3",
        # the oracle runs each box DP until a level changes nothing: no cutoff flag
        "oracle --species fermion --two-s 1 --n 2 --temp 0.05 --nmax 0",
        "oracle --species fermion --two-s 1 --n 2 --temp 0.05 --nmax 512",
        "oracle --species fermion --two-s 1 --n 2 --temp 0.05 --nmax 513",
        # a range flag is declared only where it may expand to several values
        "distribution --species fermion --two-s 9 --n-range 3:3 --temp 0.1",
        "distribution --species fermion --two-s 9 --n 3 --temp-range 0.1:0.1",
        "oracle --species fermion --two-s 9 --n-range 3:3 --temp 0.1",
        "oracle --species fermion --two-s 9 --n 3 --temp-range 0.1:0.1",
        "efficiency --species fermion --two-s 1 --n 2 --temp-range 0.1:0.1",
        # abbreviations: --n-ra would otherwise parse as --n-range
        "work --species fermion --two-s 9 --n-ra 1:3 --temp 0.1",
        "phase --species fermion --two-s 9 --n-range 1:3 --temp-r 0:1 --out p.csv",
    ],
)
def test_undeclared_or_abbreviated_flag_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert exit_code(argv) == 2


def test_config_key_must_be_a_flag_of_the_subcommand(tmp_path, capsys):
    config = tmp_path / "phase.conf"
    config.write_text("temp = 0.1\n")
    argv = ["phase", "--species", "fermion", "--two-s", "9", "--n-range", "1:3"]
    assert run(argv + ["--out", str(tmp_path / "p.csv"), "--config", str(config)]) == 2
    config.write_text("temp-range = 0:1\n")
    assert run(argv + ["--out", str(tmp_path / "q.csv"), "--config", str(config)]) == 0
    assert (tmp_path / "q.csv.grid.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        "distribution --species fermion --two-s 3",
        "distribution --species fermion --two-s 3 --n -1",
        "distribution --species fermion --two-s 3 --n 3 --temp 0",
        "oracle --species fermion --two-s 9 --temp 0.1",
        "oracle --species fermion --two-s 9 --n 3",
        "oracle --species fermion --two-s 9 --n 3 --temp 0",
        "efficiency --species fermion --two-s 9 --temp 0.1",
        "efficiency --species fermion --two-s 9 --n 3",
        "efficiency --species fermion --two-s 9 --n 3 --temp 0",
        "work --species fermion --two-s 9 --temp 0.1",
        "work --species fermion --two-s 9 --n 3",
        "work --species fermion --two-s 9 --n 3 --n-range 1:3 --temp 0.1",
        "work --species fermion --two-s 9 --n 3 --temp 0.1 --temp-range 0:1",
        "limits --species boson --two-s 2",
        "phase --species boson --two-s 2",
    ],
)
def test_error_message_names_only_flags_of_the_subcommand(argv, capsys):
    argv = shlex.split(argv)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    declared = {"--" + dest.replace("_", "-") for dest in cli._COMMANDS[argv[0]][1]}
    named = set(re.findall(r"--[a-z][a-z-]*", err))
    assert named and named <= declared, err


README =pathlib.Path(__file__).parent.parent / "README.md"
README_INVOCATIONS = [
    shlex.split(line)[1:]
    for line in README.read_text(encoding="utf-8").replace("\\\n", " ").splitlines()
    if line.startswith("szilard ")
]


@pytest.mark.parametrize("argv", README_INVOCATIONS, ids=" ".join)
def test_readme_examples_run(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 0


def test_readme_flag_table_matches_the_parser():
    """README's subcommand flag table lists exactly the flags each subcommand accepts."""
    rows = re.findall(r"^\| ([a-z, ]+) \| (?:plus )?`([^`]*)` \|$", README.read_text(), re.M)
    common = set()
    table = {name: set() for name in cli._COMMANDS}
    for names, flags in rows:
        dests = {flag.removeprefix("--").replace("-", "_") for flag in flags.split()}
        if names.startswith("all "):
            common |= dests
            continue
        for name in names.split(", "):
            assert name in table, name
            table[name] |= dests
    assert common
    for name, (_, declared) in cli._COMMANDS.items():
        assert common | table[name] == set(declared), name


# Fuzzing the CLI contract: every declared flag drawn from cheap values (N <= 60,
# 2s <= 41, ranges of <= 50 values) mixed with hostile ones, plus undeclared flags.
# The oracle's cheap values are its own: N <= 3, degeneracy <= 12, T <= 2 K.
CHEAP = {
    "n": ["0", "1", "2", "3", "17", "41", "60"],
    "n_range": ["1:50", "0:60:7", "3:3", "2:9"],
    "temp": ["0", "0.02", "0.1", "2"],
    "temp_range": ["0:1:0.05", "0.01:0.5:0.01", "0:2", "0.1:0.3"],
    "length": ["1e-9", "2e-9"],
    "mass": ["1e-26", "3e-27"],
    "format": ["csv", "json"],
    "out": ["out.csv"],
    "config": ["good.conf"],
}
CHEAP_ORACLE = dict(CHEAP, n=["1", "2", "3"], temp=["0.02", "0.1", "2"])
HOSTILE = {
    "species": ["quark"],
    "two_s": ["-3", "nan", "1e300", "", "1,x"],
    "n": ["-3", "1e300", "nan", "inf"],
    "n_range": ["-3:2", "5", "3:1", "1:2:0", "0:1000000000", "a:b", "1:2:3:4", "0:1e300", "0:inf"],
    "temp": ["nan", "inf", "-3", "1e300", "1e-300", "1e-320", "-inf", "1e6"],
    "temp_range": ["0:1:1e-9", "0:inf", "nan:1", "1:0", "0:1:0", "1e-300:1e300",
                   "0:1e300", "1e300:1e300", "0:1:-0.1", "x:1", "1e-320:1e-320"],
    "length": ["nan", "inf", "-3", "0", "1e300", "1e-300", "1e-140", "1e100"],
    "mass": ["nan", "inf", "0", "-3", "1e300", "1e-300", "1e-320"],
    "tolerance": ["1e-3"],
    "format": ["xml"],
    "out": [".", "missing-dir/out.csv"],
    "config": ["hostile.conf", "unknown.conf", "bad.conf", "missing.conf", "."],
}
CONFIGS = {
    "good.conf": "length = 2e-9  # a flag of every subcommand\n",
    "hostile.conf": "mass = 1e-320\n",
    "unknown.conf": "nmax = 3\n",
    "bad.conf": "temp 0.1\n",
}


def _one_in(draw, n):
    return draw(st.integers(0, n - 1)) == n // 2


@st.composite
def invocations(draw):
    """argv of one subcommand: mostly cheap values, about one in eight hostile."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    declared = cli._COMMANDS[command][1]
    species = draw(st.sampled_from(["fermion", "boson"]))
    spins = draw(st.lists(st.integers(0, 5 if command == "oracle" else 20),
                          min_size=1, max_size=3 if command == "phase" else 1))
    cheap = dict(CHEAP_ORACLE if command == "oracle" else CHEAP, species=[species],
                 two_s=[",".join(str(2 * k + (species == "fermion")) for k in spins)])
    dests = ["species", "two_s"]
    # mostly one flag of each pair, so that many runs get past the conflict check
    for pair in (("n", "n_range"), ("temp", "temp_range")):
        pair = [dest for dest in pair if dest in declared]
        if pair:
            first = draw(st.sampled_from(pair))
            dests += [d for d in pair if (d == first and not _one_in(draw, 4)) or _one_in(draw, 8)]
    dests += [d for d in ("length", "mass", "tolerance", "format", "out", "strict")
              if d in declared and draw(st.booleans())]
    if _one_in(draw, 8):
        dests.append("config")
    if _one_in(draw, 8):
        dests.append(draw(st.sampled_from(sorted(set(cli._FLAGS) - set(declared)))))
    argv = [command]
    for dest in dests:
        argv.append("--" + dest.replace("_", "-"))
        if dest != "strict":
            hostile = _one_in(draw, 8) or dest not in cheap
            argv.append(draw(st.sampled_from((HOSTILE if hostile else cheap)[dest])))
    return argv


@settings(max_examples=500, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=invocations())
# the oracle's hostile values, run every time whatever the strategy draws
@example(argv=shlex.split("oracle --species fermion --two-s 1 --n 2 --temp 1e6"))
def test_cli_fuzz_exit_contract(argv, tmp_path, monkeypatch, capsys):
    # a fresh directory per example, so no example reads another one's output files
    workdir = pathlib.Path(tempfile.mkdtemp(dir=tmp_path))
    monkeypatch.chdir(workdir)
    for name, text in CONFIGS.items():
        (workdir / name).write_text(text)
    capsys.readouterr()
    code = exit_code(argv)
    # 3 is a strict-mode exit; the oracle has no --strict, but exits 4 on a failed check
    assert code in ((0, 2, 4) if argv[0] == "oracle" else (0, 2, 3))
    written = [capsys.readouterr().out] + [
        path.read_text() for path in workdir.iterdir() if path.name.startswith("out.csv")
    ]
    assert not any(re.search(r"\b(nan|inf)\b", text) for text in written)
