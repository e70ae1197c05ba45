"""Every library module's ``__all__`` lists the public functions and classes
the module defines, and every name in it resolves; no module imports another's
private name, and the grid solver does not use the unit-phase helper it
checks; importing the package loads no SciPy module, importing the CLI no
``concurrent.futures``, and the fig2 sweep does not load the grid solver."""

import ast
import importlib
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import sts_toa

MODULES = ("sts_toa", "sts_toa.errors", "sts_toa.numerics", "sts_toa.potential",
           "sts_toa.packet", "sts_toa.evolution", "sts_toa.kijowski",
           "sts_toa.oracle", "sts_toa.scenario", "sts_toa.svgplot")


@pytest.mark.parametrize("name", MODULES)
def test_all_matches_public_definitions(name):
    mod = importlib.import_module(name)
    exported = set(mod.__all__)
    defined = {attr for attr, obj in vars(mod).items()
               if not attr.startswith("_")
               and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == name}
    assert not defined - exported, f"public but not in __all__: {defined - exported}"
    unresolved = {n for n in exported if not hasattr(mod, n)}
    assert not unresolved, f"__all__ names that do not resolve: {unresolved}"


def test_no_module_imports_a_private_name():
    private = []
    for path in sorted(Path(sts_toa.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [f"{path.name}: from {'.' * node.level}{node.module or ''} "
                            f"import {a.name}" for a in node.names if a.name.startswith("_")]
    assert not private, private


def test_oracle_does_not_use_the_unit_phase_helper():
    # the grid solver and the transfer matrix check the amplitudes that
    # numerics.unit_phase forms, so they must not be built from it
    tree = ast.parse((Path(sts_toa.__file__).parent / "oracle.py").read_text())
    uses = [node.lineno for node in ast.walk(tree)
            if (isinstance(node, ast.alias) and node.name.split(".")[-1] == "unit_phase")
            or (isinstance(node, ast.Name) and node.id == "unit_phase")
            or (isinstance(node, ast.Attribute) and node.attr == "unit_phase")]
    assert not uses, f"oracle.py uses unit_phase on lines {uses}"


def _run_python(script: str) -> str:
    # a fresh interpreter that imports the package under test first
    src = str(Path(sts_toa.__file__).resolve().parents[1])
    script = f"import sys; sys.path.insert(0, {src!r})\n{script}"
    return subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_no_scipy():
    out = _run_python(
        "import sys, sts_toa; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert out.strip() == "[]"


def test_cli_import_loads_no_concurrent_futures():
    out = _run_python(
        "import sys, sts_toa.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'concurrent'))")
    assert out.strip() == "[]"


def test_fig2_sweep_loads_no_oracle():
    out = _run_python(
        "import contextlib, io, sys\n"
        "from sts_toa.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['sweep', '--preset', 'fig2'])\n"
        "print(code, 'sts_toa.oracle' in sys.modules)\n")
    assert out.split() == ["0", "False"]
