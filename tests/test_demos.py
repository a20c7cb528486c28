"""Every demo script, and README's Library example, runs to completion.

Each demo also keeps its bytes: ``tests/data/demo_sha256.json`` pins the sha256
of its standard output and of every file it writes (``phase_diagram_export.py``
writes three CSV files). Regenerate the pins after an intended output change
with ``PYTHONPATH=src python tests/test_demos.py``; it prints the name of every
demo whose pins it adds or changes.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import runpy
import sys
import tempfile

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINS = pathlib.Path(__file__).parent / "data" / "demo_sha256.json"


def run_demo(path: pathlib.Path) -> dict[str, str]:
    """The sha256 of a demo's standard output and of each file it writes, by name.

    The demo runs in a fresh directory, where it writes its files.
    """
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir:
        os.chdir(workdir)
        try:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                runpy.run_path(str(path), run_name="__main__")
            digests = {
                item.name: hashlib.sha256(item.read_bytes()).hexdigest()
                for item in sorted(pathlib.Path(workdir).iterdir())
            }
        finally:
            os.chdir(cwd)
    assert out.getvalue()
    return {"stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()} | digests


@pytest.mark.parametrize("path", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(path):
    assert run_demo(path) == json.loads(PINS.read_text(encoding="utf-8"))[path.stem]


def test_readme_library_example_runs(capsys):
    """README's ``python`` block names only what the package still has."""
    (block,) = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out


if __name__ == "__main__":
    pinned = json.loads(PINS.read_text(encoding="utf-8")) if PINS.exists() else {}
    pins = {path.stem: run_demo(path) for path in DEMOS}
    for name, digests in pins.items():
        if digests != pinned.get(name):
            print(f"{'changed' if name in pinned else 'added'}: {name}", file=sys.stderr)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(pins)} demos' pins to {PINS}", file=sys.stderr)
