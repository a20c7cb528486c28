"""The package's import layers, read from the source with ``ast``."""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "spinszilard"
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports, in relative or absolute form."""
    imported = []
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # inside the package, "from .x import y" is "from spinszilard.x import y"
            source = ".".join(filter(None, ["spinszilard" if node.level else "", node.module]))
            imported += [f"{source}.{alias.name}" for alias in node.names]
    return {name.split(".")[1] for name in imported if name.startswith("spinszilard.")} & MODULES


def test_oracle_imports_only_core_and_no_closed_form_imports_the_oracle():
    """The oracle is the closed forms' independent reference: it reads only the shared
    types and constants of ``core``, and none of the closed-form modules reads it."""
    assert package_imports("oracle") == {"core"}
    for module in ("fermion", "boson", "information", "equilibrium", "phase"):
        assert "oracle" not in package_imports(module), module


def test_the_range_pass_reads_no_species_module():
    """``information`` holds the one species-agnostic pass: it reads only ``core`` and
    ``equilibrium``, and each species reaches it through the ``Filling`` and ``Species``
    protocols, so no species can fork the pass."""
    assert package_imports("information") == {"core", "equilibrium"}
