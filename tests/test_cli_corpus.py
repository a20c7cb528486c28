"""Byte-identity of the CLI: each invocation's exit code and output hashes are pinned.

``tests/data/cli_corpus.json`` holds, per invocation, the exit code and the
sha256 of stdout, stderr and every file the run writes (``--out`` and
``--out.grid.csv``). A change that moves any output byte fails here, and the
entries it changes name what moved. Regenerate the pins after an intended
output change with ``PYTHONPATH=src python tests/test_cli_corpus.py``.
"""
from __future__ import annotations

import contextlib
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
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_invocation(argv: str, config: str | None) -> dict:
    """Exit code and output hashes of one CLI run in a fresh directory."""
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
                path.name: _sha(path.read_bytes())
                for path in sorted(pathlib.Path(workdir).iterdir())
                if path.name != "corpus.conf"
            }
        finally:
            os.chdir(cwd)
    return {
        "argv": argv,
        "config": config,
        "exit": code,
        "stdout": _sha(out.getvalue().encode()),
        "stderr": _sha(err.getvalue().encode()),
        "files": files,
    }


def _pinned() -> dict[str, dict]:
    return {entry["argv"]: entry for entry in json.loads(CORPUS.read_text(encoding="utf-8"))}


def test_corpus_covers_every_invocation():
    assert sorted(_pinned()) == sorted(argv for argv, _ in INVOCATIONS)


@pytest.mark.parametrize("argv,config", INVOCATIONS, ids=[argv for argv, _ in INVOCATIONS])
def test_cli_output_matches_corpus(argv, config):
    assert run_invocation(argv, config) == _pinned()[argv]


if __name__ == "__main__":
    entries = [run_invocation(argv, config) for argv, config in INVOCATIONS]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {CORPUS}", file=sys.stderr)
