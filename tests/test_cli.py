import json
import math

import pytest

from spinszilard import cli

# temperatures in kelvin; k_B T / E0 = 0.05 is roughly T = 0.0199 K here
LOW_T = "0.02"


def run(argv):
    return cli.main(argv)


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


def test_json_format_rejected_for_ranges(capsys):
    code = run(
        [
            "work",
            "--species",
            "fermion",
            "--two-s",
            "1",
            "--n-range",
            "1:3",
            "--temp",
            "0.1",
            "--format",
            "json",
        ]
    )
    assert code == 2


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
    assert run(argv + ["--strict"]) == 3


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
    # deliberately tiny level cutoff at a temperature that occupies many levels
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
            "20",
            "--nmax",
            "2",
        ]
    )
    assert code == 4


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


def test_config_file_errors(tmp_path, capsys):
    bad = tmp_path / "bad.conf"
    bad.write_text("not-a-key = 1\n")
    assert run(["work", "--n", "3", "--temp", "1", "--config", str(bad)]) == 2
    assert run(["work", "--n", "3", "--temp", "1", "--config", str(tmp_path / "nope")]) == 2


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
    ],
    ids=["work-f2001", "distribution-f2001", "efficiency-f2001", "phase-f2001",
         "distribution-b2000", "efficiency-b2000"],
)
def test_large_spin_finite_output(argv, capsys):
    """Counts far past the float range still give finite numbers and exit 0."""
    assert run(argv) == 0
    out = capsys.readouterr().out
    payload = out if argv[0] == "phase" else json.loads(out)
    numbers = _numbers(payload)
    assert numbers
    assert all(math.isfinite(x) for x in numbers)
