"""The engine depends on numpy and the standard library only."""

import ast
import subprocess
import sys
from pathlib import Path

import metaplectic

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "metaplectic"}


def imported_roots(tree):
    """Top-level names of the absolute imports in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_are_numpy_and_stdlib_only():
    modules = sorted(Path(metaplectic.__file__).parent.rglob("*.py"))
    assert len(modules) >= 9
    for path in modules:
        outside = set(imported_roots(ast.parse(path.read_text(), str(path)))) - ALLOWED
        assert not outside, f"{path.name} imports {sorted(outside)}"


def test_import_scan_flags_third_party():
    tree = ast.parse("import scipy.sparse\nfrom sympy import Rational\nfrom . import gates\n"
                     "import numpy.linalg\nfrom collections import abc\n")
    assert set(imported_roots(tree)) - ALLOWED == {"scipy", "sympy"}


def test_package_import_builds_no_parser():
    """Importing the engine leaves the CLI and argparse unloaded, so a
    process that never parses an argv pays nothing for the parser."""
    src = str(Path(metaplectic.__file__).resolve().parent.parent)
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import metaplectic, metaplectic.categories; "
            "print(sorted({'argparse', 'metaplectic.cli'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
