"""The engine depends on numpy and the standard library only."""

import ast
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

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
    process that never parses an argv pays nothing for the parser; a bare
    ``import metaplectic`` loads no submodule and not numpy, and set-up
    (both built-in categories) loads ``categories`` alone."""
    src = str(Path(metaplectic.__file__).resolve().parent.parent)
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); "
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] in "
            "('metaplectic', 'numpy', 'argparse')); "
            "import metaplectic; bare = loaded(); "
            "import metaplectic.categories as c; "
            "c.builtin_category('su2_4'); c.builtin_category('so5_2'); "
            "print(json.dumps([bare, [m for m in loaded() if m.startswith('metaplectic')], "
            "sorted({'argparse', 'metaplectic.cli'} & set(sys.modules))]))")
    done = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    bare, after_setup, parser = json.loads(done.stdout)
    assert bare == ["metaplectic"]
    assert after_setup == ["metaplectic", "metaplectic.categories"]
    assert parser == []


PUBLIC = """BraidRep BraidWord Category CategoryError CategoryFileError FusionTreeBasis GateSpec
    InadmissibleError MissingDataError ProtocolState TreeShape UnknownLabelError block_embedding
    builtin_category check_consistency enumerate_basis equal_up_to_phase estimate_flip_success
    eval_word exact_flip_curve exact_flip_probability general_generators group_closure make_gate
    named_words pair_tree_generators parse_category parse_gate parse_shape prepare_flip_ancilla
    rep_check run_flip_round serialize_category tree_change verify_identity word_from_text"""


def test_namespace_resolves_each_name_in_its_home_module(monkeypatch):
    assert metaplectic.__all__ == sorted(PUBLIC.split())
    for name in metaplectic.__all__:
        home = importlib.import_module(f"metaplectic.{metaplectic._HOME[name]}")
        assert getattr(metaplectic, name) is vars(home)[name]
    assert set(metaplectic.__all__) <= set(dir(metaplectic))
    with pytest.raises(AttributeError):
        metaplectic.no_such_name
    from metaplectic import witnesses  # a submodule outside the table still imports
    assert witnesses is sys.modules["metaplectic.witnesses"]
    star = {}
    exec("from metaplectic import *", star)
    assert all(star[name] is getattr(metaplectic, name) for name in metaplectic.__all__)

    original, stand_in = metaplectic.synthesis.eval_word, object()
    monkeypatch.setattr(metaplectic.synthesis, "eval_word", stand_in)
    assert metaplectic.eval_word is stand_in
    monkeypatch.undo()
    assert metaplectic.eval_word is original
    assert "eval_word" not in vars(metaplectic)  # resolved per access, never cached here
