"""Byte-identity of the CLI: each invocation's exit code and output hashes are pinned.

``tests/data/cli_corpus.json`` holds, per invocation, the exit code and the
sha256 of stdout, stderr and every file the run writes (``--out`` and
``--out.grid.csv``). A change that moves any output byte fails here, and the
entries it changes name what moved. Regenerate the pins after an intended
output change with ``PYTHONPATH=src python tests/test_cli_corpus.py``; it
prints the argv of every entry it adds, changes or drops.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import pathlib
import shlex
import sys
import tempfile

import pytest

from spinszilard import cli

CORPUS = pathlib.Path(__file__).parent / "data" / "cli_corpus.json"

#: (argv, config file text or None); the config text is written to corpus.conf
INVOCATIONS = [
    # README's examples
    ("work --species fermion --two-s 9 --n 3 --temp 0.1", None),
    ("work --species boson --two-s 2 --n-range 1:50 --temp 0.1 --out work.csv", None),
    ("distribution --species fermion --two-s 9 --n 3 --temp 0.02 --format csv", None),
    ("phase --species fermion --two-s 9 --n-range 1:60 --temp-range 0:1:0.05 --out phase.csv", None),
    ("phase --species boson --two-s 0,2,4 --n-range 1:60 --out boson.csv", None),
    ("efficiency --species fermion --two-s 1 --n 2 --temp 0.1", None),
    ("oracle --species fermion --two-s 9 --n 3 --temp 0.02 --tolerance 1e-3", None),
    ("limits --species fermion --two-s 9", None),
    ("limits --species boson --two-s 2 --n-range 1:6", None),
    # runner-up rows and deterministic rows of both species
    ("efficiency --species fermion --two-s 9 --n-range 0:200 --temp 0.1", None),
    ("efficiency --species boson --two-s 4 --n-range 0:60 --temp 0.1", None),
    ("efficiency --species fermion --two-s 3 --n 0 --temp 0.1", None),
    # multi-spin phase tables with work grids
    ("phase --species boson --two-s 0,2,4,40 --n-range 1:120 --temp-range 0:1:0.05 --out b.csv", None),
    ("phase --species fermion --two-s 1,3,9 --n-range 0:50 --temp-range 0:0.6:0.05 --out f.csv", None),
    ("phase --species fermion --two-s 9 --n-range 0:20 --strict --out s.csv", None),
    ("work --species fermion --two-s 9 --n-range 0:5 --temp-range 0:0.2:0.1 --strict", None),
    # the oracle, tabulated, and a wall off the middle
    ("oracle --species boson --two-s 2 --n 3 --temp 0.1 --format csv", None),
    ("oracle --species fermion --two-s 3 --n 2 --temp 0.1 --insertion 0.499", None),
    # counts far past the float range
    ("work --species fermion --two-s 2001 --n 2001 --temp 0.1", None),
    ("efficiency --species boson --two-s 2000 --n 2000 --temp 0.1", None),
    # config files and malformed spin lists
    ("work --species fermion --two-s 1 --n 3 --config corpus.conf", "n_range = 1:5\ntemp = 0.1\n"),
    ("work --species fermion --two-s 1 --n 3 --temp 0.2 --config corpus.conf", "temp_range = 0:1\n"),
    ("phase --species fermion --two-s 1,,3 --n-range 1:3", None),
    # every writer path: JSON with and without f*, a strict refusal, files
    ("distribution --species boson --two-s 2 --n 4 --temp 0.1", None),
    ("distribution --species fermion --two-s 3 --n 5", None),
    ("efficiency --species fermion --two-s 1 --n-range 0:8 --temp 0.1 --strict --out e.csv", None),
    ("limits --species fermion --two-s 3 --out l.csv", None),
    ("oracle --species fermion --two-s 1 --n 2 --temp 0.1 --out o.json", None),
    # work's N x T tables, and a phase grid whose N = 0 rows have D = 0 and sign 0
    ("work --species fermion --two-s 3 --n-range 0:40 --temp-range 0:1:0.1 --out w.csv", None),
    ("work --species boson --two-s 4 --n-range 0:30 --temp-range 0:2:0.05", None),
    ("phase --species boson --two-s 0,2 --n-range 0:30 --temp-range 0:2:0.1 --out g.csv", None),
    # CSV cells of every kind: undefined f_m*, empty leq_analytic_over_L, boson limits, runner-up eta
    ("distribution --species fermion --two-s 2001 --n 2001 --temp 0.1 --format csv", None),
    ("oracle --species fermion --two-s 3 --n 5 --temp 0.02 --tolerance 1 --format csv --out o.csv", None),
    ("limits --species boson --two-s 0 --n-range 0:300 --out lb.csv", None),
    ("efficiency --species boson --two-s 2 --n-range 0:40 --temp 0.1 --out e2.csv", None),
    # an even N in CSV (edge walls at 0 and L, the central one at L/2), and an undefined T_c
    ("oracle --species boson --two-s 0 --n 6 --temp 0.05 --format csv", None),
    ("work --species boson --two-s 0 --n 0 --temp 0.1", None),
    # every remainder k of a wider fermion spin, and boson limits past N = 1021
    ("limits --species fermion --two-s 41", None),
    ("limits --species boson --two-s 4 --n-range 1000:1003", None),
    # filled shells (n > 0), wall loads near 10^27, and edge walls at g = 12
    ("work --species fermion --two-s 5 --n-range 100:140 --temp 0.1", None),
    ("work --species fermion --two-s 1 --n 1000000001 --temp 0.1", None),
    ("oracle --species fermion --two-s 11 --n 6 --temp 0.02 --format csv", None),
    # one result in CSV, several refused as JSON, a strict JSON refusal, and the
    # oracle's tolerance refusal after its table (with the summary) or its JSON
    ("work --species fermion --two-s 9 --n 3 --temp 0.1 --format csv", None),
    ("efficiency --species boson --two-s 2 --n 2 --temp 0.1 --format csv", None),
    ("efficiency --species fermion --two-s 1 --n-range 1:3 --temp 0.1 --format json", None),
    ("distribution --species fermion --two-s 2001 --n 2001 --temp 0.1 --strict", None),
    ("oracle --species fermion --two-s 9 --n 3 --temp 0.3 --tolerance 1e-12 --format csv", None),
    ("oracle --species fermion --two-s 9 --n 3 --temp 0.3 --tolerance 1e-12", None),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outputs(argv: str, config: str | None) -> tuple[int, str, str, dict[str, bytes]]:
    """Exit code, standard output, standard error and written files of one CLI run.

    The run takes place in a fresh directory; the files are keyed by name.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            if config is not None:
                pathlib.Path("corpus.conf").write_text(config, encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(shlex.split(argv))
                except SystemExit as exc:  # argparse's own errors
                    code = exc.code
            files = {
                path.name: path.read_bytes()
                for path in sorted(pathlib.Path(workdir).iterdir())
                if path.name != "corpus.conf"
            }
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), files


def run_invocation(argv: str, config: str | None) -> dict:
    """Exit code and output hashes of one CLI run in a fresh directory."""
    code, out, err, files = _outputs(argv, config)
    return {
        "argv": argv,
        "config": config,
        "exit": code,
        "stdout": _sha(out.encode()),
        "stderr": _sha(err.encode()),
        "files": {name: _sha(data) for name, data in files.items()},
    }


def _pinned() -> dict[str, dict]:
    return {entry["argv"]: entry for entry in json.loads(CORPUS.read_text(encoding="utf-8"))}


def test_corpus_covers_every_invocation():
    assert sorted(_pinned()) == sorted(argv for argv, _ in INVOCATIONS)


@pytest.mark.parametrize("argv,config", INVOCATIONS, ids=[argv for argv, _ in INVOCATIONS])
def test_cli_output_matches_corpus(argv, config):
    assert run_invocation(argv, config) == _pinned()[argv]


def test_csv_outputs_are_the_csv_dialect():
    """Every CSV the corpus writes is what csv.writer(lineterminator="\\n") would write.

    Each parses into rows of the header's width, and writing those rows again gives
    the same bytes: no cell needed quoting, and none was quoted.
    """
    checked = 0
    for argv, config in INVOCATIONS:
        _, out, _, files = _outputs(argv, config)
        texts = {"stdout": out} | {name: data.decode() for name, data in files.items()}
        for name, text in texts.items():
            # JSON starts with a brace; a refused run writes nothing
            if not text or text.startswith("{"):
                continue
            rows = list(csv.reader(io.StringIO(text, newline="")))
            assert {len(row) for row in rows} == {len(rows[0])}, (argv, name)
            again = io.StringIO()
            csv.writer(again, lineterminator="\n").writerows(rows)
            assert again.getvalue() == text, (argv, name)
            checked += 1
    # the README's, the grids, every subcommand's CSV and the pinned cell kinds
    assert checked >= 20, checked


if __name__ == "__main__":
    pinned = _pinned() if CORPUS.exists() else {}
    entries = [run_invocation(argv, config) for argv, config in INVOCATIONS]
    # name every pin the regeneration adds, changes or drops
    for entry in entries:
        if entry["argv"] not in pinned:
            print(f"added:   {entry['argv']}", file=sys.stderr)
        elif entry != pinned[entry["argv"]]:
            print(f"changed: {entry['argv']}", file=sys.stderr)
    for argv in sorted(pinned.keys() - {entry["argv"] for entry in entries}):
        print(f"dropped: {argv}", file=sys.stderr)
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)
