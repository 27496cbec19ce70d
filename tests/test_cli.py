"""CLI surface: exit codes, machine-readable sections, determinism."""

import argparse
import contextlib
import dataclasses
import importlib.util
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metaplectic import braidrep, cli, synthesis, trees
from metaplectic.braidrep import general_generators
from metaplectic.categories import (BUILTIN_CATEGORIES, _su2_k, builtin_category,
                                    check_consistency, parse_category, serialize_category)
from metaplectic.trees import comb_tree, enumerate_basis, format_shape
from metaplectic.cli import (EXIT_CHECK_FAILED, EXIT_IO, EXIT_MISSING_DATA, EXIT_OK, EXIT_USAGE,
                             SENTINEL, build_parser, main)


def machine_section(output):
    head, _, tail = output.partition(SENTINEL + "\n")
    assert tail, f"no machine section in output:\n{output}"
    return tail


def test_category_check_su24(capsys):
    assert main(["category", "check", "su2_4"]) == EXIT_OK
    tail = machine_section(capsys.readouterr().out)
    assert "pentagon_skipped=0" in tail
    assert "pass=1" in tail


def test_category_check_so52_skips_ok(capsys):
    assert main(["category", "check", "so5_2"]) == EXIT_OK
    tail = machine_section(capsys.readouterr().out)
    assert "pass=1" in tail
    skips = int(next(l for l in tail.splitlines() if l.startswith("skips=")).split("=")[1])
    assert skips > 0


def test_category_dump_and_reparse(tmp_path, capsys):
    out = tmp_path / "su2_4.cat"
    assert main(["category", "dump", "su2_4", "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["category", "check", "--file", str(out)]) == EXIT_OK


def test_category_fuse(capsys):
    assert main(["category", "fuse", "su2_4", "eps", "eps"]) == EXIT_OK
    assert "fusion=0,2" in machine_section(capsys.readouterr().out)


def test_group_order_projective(capsys):
    assert main(["group", "order", "--model", "su2_4-qutrit", "--projective",
                 "--expect", "216"]) == EXIT_OK
    tail = machine_section(capsys.readouterr().out)
    assert "order=216" in tail


def test_group_order_wrong_expectation(capsys):
    assert main(["group", "order", "--model", "su2_4-qubit", "--expect", "25"]) \
        == EXIT_CHECK_FAILED


def test_group_cap_exceeded(capsys):
    assert main(["group", "order", "--gates", "H3,P3[1]", "--projective",
                 "--cap", "500"]) == EXIT_OK
    assert "cap_exceeded=1" in machine_section(capsys.readouterr().out)


def test_verify_suites(capsys):
    assert main(["verify", "suite", "--category", "su2_4"]) == EXIT_OK
    assert main(["verify", "suite", "--category", "so5_2"]) == EXIT_OK


def test_verify_identity(capsys):
    assert main(["verify", "identity", "--model", "so5_2-qupit",
                 "--word", "1 -3", "--target", "Z5"]) == EXIT_OK
    assert main(["verify", "identity", "--model", "so5_2-qupit",
                 "--word", "1 -3", "--target", "X5"]) == EXIT_CHECK_FAILED
    capsys.readouterr()


@pytest.mark.parametrize("name", ["H5", "Z5", "X5", "M5[2]", "M5[3]", "M5[4]"])
def test_verify_identity_so52_named_words(name, capsys):
    assert main(["verify", "identity", "--model", "so5_2-qupit",
                 "--named", name, "--target", name]) == EXIT_OK
    assert "pass=1" in machine_section(capsys.readouterr().out)


def test_rep_check_and_show(capsys):
    assert main(["rep", "check", "--model", "su2_4-qutrit"]) == EXIT_OK
    capsys.readouterr()
    assert main(["rep", "show", "--model", "su2_4-qubit"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "sigma_1" in out
    # row-major fixed-point entries with 12 decimals: sigma_1[1,1] = e^{i pi/12}
    assert "+0.965925826289+0.258819045103i" in out


def test_rep_on_empty_non_comb_space(capsys):
    assert main(["rep", "check", "--category", "su2_4", "--shape", "(1 (1 1))->0"]) \
        == EXIT_USAGE
    out, err = capsys.readouterr()
    assert "empty fusion space" in err and "Traceback" not in out + err
    assert main(["rep", "show", "--category", "su2_4", "--shape", "((1 1)(1 1))->1"]) == EXIT_OK
    assert machine_section(capsys.readouterr().out).splitlines()[0] == "dim=0"


def test_rep_missing_data_exit(capsys):
    code = main(["rep", "check", "--category", "so5_2",
                 "--leaves", "eps eps eps eps eps eps", "--total", "y1"])
    assert code == EXIT_MISSING_DATA


def test_rep_missing_data_message(capsys):
    code = main(["rep", "check", "--category", "so5_2", "--leaves", "eps eps eps eps",
                 "--total", "1"])
    assert code == EXIT_MISSING_DATA
    assert capsys.readouterr().err.splitlines() == [
        "missing category data: so5_2: no stored F-matrix for ('y1', 'eps', 'eps', '1')"]


def test_braid_eval_named(capsys):
    assert main(["braid", "eval", "--model", "su2_4-qutrit", "--named", "p"]) == EXIT_OK
    assert main(["braid", "eval", "--model", "su2_4-qutrit", "--named", "nope"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["braid", "eval", "--model", "su2_4-qutrit", "--named", "CZword"],
     "error: word is on 8 strands, rep on 4"),
    (["verify", "identity", "--model", "su2_4-qutrit", "--named", "CZword", "--target", "H3"],
     "error: word is on 8 strands, rep on 4"),
    (["verify", "identity", "--category", "su2_4", "--shape", "(((1 1)(1 1))((1 1)(1 1)))->2",
      "--named", "CZword", "--target", "H3"],
     "error: target dimension does not match the rep: target 3 x 3, rep dim 27")])
def test_size_mismatch_messages(argv, message, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message] and not captured.out


def test_witness_commands(capsys):
    assert main(["witness", "qutrit", "--level", "0"]) == EXIT_OK
    assert main(["witness", "imprimitivity", "--gate", "SUM3"]) == EXIT_OK
    assert main(["witness", "qupit-chain", "--p", "5"]) == EXIT_OK
    assert main(["witness", "so5-partial"]) == EXIT_OK
    assert main(["witness", "infinite-order", "--gate", "Z3", "--k-max", "10"]) \
        == EXIT_CHECK_FAILED  # Z3 has order 3
    capsys.readouterr()


def test_protocol_flip_csv(capsys):
    assert main(["protocol", "flip", "--trials", "4000", "--rounds", "4",
                 "--seed", "7"]) == EXIT_OK
    tail = machine_section(capsys.readouterr().out)
    lines = tail.strip().splitlines()
    assert lines[0] == "n,p_hat,p_exact,stderr"
    assert len(lines) == 5


def test_machine_section_byte_identical(capsys):
    argv = ["protocol", "flip", "--trials", "2000", "--rounds", "3", "--seed", "5"]
    assert main(argv) == EXIT_OK
    first = machine_section(capsys.readouterr().out)
    assert main(argv) == EXIT_OK
    second = machine_section(capsys.readouterr().out)
    assert first == second


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["group", "order", "--model", "not-a-model"]) == EXIT_USAGE
    capsys.readouterr()


def test_io_error_exit_code(capsys):
    assert main(["category", "check", "--file", "/no/such/file"]) == EXIT_IO
    capsys.readouterr()


def test_category_file_not_utf8(tmp_path, capsys):
    """A file that does not decode is a file error (66), like one that does
    not open, and names its path."""
    bad = tmp_path / "latin.cat"
    bad.write_bytes(b"label 1 qdim 1\n\xff\n")
    assert main(["category", "check", "--file", str(bad)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_malformed_category_file(tmp_path, capsys):
    bad = tmp_path / "bad.cat"
    bad.write_text("label a qdim 1.0\nfuse a a -> a\nF broken\n")
    assert main(["category", "check", "--file", str(bad)]) == EXIT_IO
    capsys.readouterr()


def test_category_file_without_labels(tmp_path, capsys):
    empty = tmp_path / "empty.cat"
    empty.write_text("# category: nothing\n")
    assert main(["category", "check", "--file", str(empty)]) == EXIT_IO
    captured = capsys.readouterr()
    assert "no label line" in captured.err and "pass=" not in captured.out


def test_non_finite_category_file(tmp_path, capsys):
    out = tmp_path / "su2_4.cat"
    assert main(["category", "dump", "su2_4", "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    index = lines.index("F 1 2 2 3 : 3 4 = 0.70710678118654746 0")
    lines[index] = "F 1 2 2 3 : 3 4 = nan 0"
    out.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["category", "check", "--file", str(out)]) == EXIT_IO
    assert f"line {index + 1}: non-finite F value" in capsys.readouterr().err


@pytest.mark.parametrize("source, dim", [
    (["--leaves", " ".join(["1"] * 14), "--total", "2"], 729),
    (["--leaves", " ".join(["1"] * 16), "--total", "2"], 2187),
    (["--shape", "((((1 1)(1 1))((1 1)(1 1)))((1 1)(1 1)))->2"], 243),
], ids=["comb14", "comb16", "block12"])
def test_rep_check_large(source, dim, capsys):
    assert main(["rep", "check", "--category", "su2_4", *source]) == EXIT_OK
    tail = machine_section(capsys.readouterr().out).splitlines()
    assert tail[0] == f"dim={dim}" and tail[-1] == "pass=1"


COMB14 = ["--category", "su2_4", "--leaves", " ".join(["1"] * 14), "--total", "2"]  # dim 729
COMB20 = ["--category", "su2_4", "--leaves", " ".join(["1"] * 20), "--total", "2"]  # dim 19683
COMB28 = ["--category", "su2_4", "--leaves", " ".join(["1"] * 28), "--total", "2"]  # dim 3^13
COMB40 = ["--category", "su2_4", "--leaves", " ".join(["1"] * 40), "--total", "2"]  # dim 3^19
COMB41 = ["--category", "su2_4", "--leaves", " ".join(["1"] * 41), "--total", "2"]  # dim 0

# rep check sources whose check stops with an error, the same on the window
# path and on the global one: (source, exit code, the one line on stderr)
REP_CHECK_ERRORS = [
    (["--category", "su2_4", "--leaves", "1 1 1", "--total", "0"], EXIT_USAGE,
     "error: empty fusion space: nothing to check"),
    (["--category", "su2_4", "--leaves", "1 1 3", "--total", "1"], EXIT_USAGE,
     "error: general_generators requires identical leaf labels"),
    (["--category", "so5_2", "--leaves", "eps eps eps eps", "--total", "1"], EXIT_MISSING_DATA,
     "missing category data: so5_2: no stored F-matrix for ('y1', 'eps', 'eps', '1')"),
    (["--category", "su2_4", "--leaves", " ", "--total", "2"], EXIT_USAGE,
     "error: a fusion tree needs at least 2 leaves"),
    # an empty space passes the budget however long the comb
    (COMB41, EXIT_USAGE, "error: empty fusion space: nothing to check"),
]
# the 1 GiB budget guards the generators of the global path, which the window
# path does not form: these combs pass on windows
GLOBAL_PATH_ERRORS = [
    (COMB28, EXIT_USAGE, "error: the dim-1594323 space on 28 leaves needs at least 1377495072 "
     "bytes (1.28 GiB) for its braid generators, over the 1 GiB budget"),
    (COMB40, EXIT_USAGE, "error: the dim-1162261467 space on 40 leaves needs at least "
     "1450502310816 bytes (1350.89 GiB) for its braid generators, over the 1 GiB budget"),
]


@pytest.mark.parametrize("source, code, message, path", [
    *(pytest.param(*error, path, id=f"{name}-{path}")
      for error, name in zip(REP_CHECK_ERRORS,
                             ["empty", "mixed", "so5_2-eps4", "no-leaves", "comb41"])
      for path in ("windows", "global")),
    *(pytest.param(*error, "global", id=f"{name}-global")
      for error, name in zip(GLOBAL_PATH_ERRORS, ["comb28", "comb40"]))])
def test_rep_check_errors_do_not_depend_on_the_path(source, code, message, path, capsys,
                                                    monkeypatch):
    if path == "global":
        monkeypatch.setattr(braidrep, "_comb_windows", lambda *args: None)
    assert main(["rep", "check", *source]) == code
    out, err = capsys.readouterr()
    assert not out and err.splitlines() == [message]


def test_a_comb_short_of_data_past_the_budget_reports_the_data(capsys, monkeypatch):
    """20 `eps'` leaves at total y1 lack an R-symbol and pass the generator
    bound: the windows report the absent data, which no budget would let
    the check read, and the global path refuses the generators first."""
    source = ["--category", "so5_2", "--leaves", " ".join(["epsp"] * 20), "--total", "y1"]
    assert main(["rep", "check", *source]) == EXIT_MISSING_DATA
    assert capsys.readouterr().err.splitlines() == [
        "missing category data: so5_2: no stored R-symbol for (eps',eps';y1)"]
    monkeypatch.setattr(braidrep, "_comb_windows", lambda *args: None)
    assert main(["rep", "check", *source]) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines() == [
        "error: the dim-1953125 space on 20 leaves needs at least 1187500000 bytes (1.11 GiB) "
        "for its braid generators, over the 1 GiB budget"]


def subprocess_cli(*argv):
    """One ``python -m metaplectic`` run on this checkout's ``src``."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "metaplectic", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


COMB_RESIDUALS = ["unitarity_max=1.554e-15", "braid_max=1.351e-15",
                  "far_commutation_max=1.110e-16", "pass=1"]


@pytest.mark.parametrize("n, dim", [(28, "1594323"), (40, "1162261467"),
                                    (20000, "5.438e+4770")])
def test_long_combs_pass_on_the_window_path(n, dim, capsys):
    """Combs past the global path's 1 GiB budget pass on windows with the
    residuals of combs 8-26; a dim past 30 digits prints in e-notation,
    which no int-to-str limit refuses."""
    source = ["--category", "su2_4", "--leaves", " ".join(["1"] * n), "--total", "2"]
    assert main(["rep", "check", *source]) == EXIT_OK
    out, err = capsys.readouterr()
    assert not err and machine_section(out).splitlines() == [f"dim={dim}", *COMB_RESIDUALS]
    assert f"su2_4: dim {dim} rep on {n} strands" in out


def test_a_comb_past_the_recursion_limit_passes_rep_check():
    """A 1200-leaf comb passes `rep check` in a fresh interpreter: the shape
    and the window path are loops, so no RecursionError escapes."""
    done = subprocess_cli("rep", "check", "--category", "su2_4",
                          "--leaves", " ".join(["1"] * 1200), "--total", "2")
    assert done.returncode == EXIT_OK and not done.stderr
    assert machine_section(done.stdout).splitlines() == ["dim=6.246e+285", *COMB_RESIDUALS]


def test_rep_show_past_the_recursion_limit_exits_64():
    """`rep show` on the same 1200 leaves builds the generators, so the
    path pass refuses it with the budget line, in loops: no Traceback."""
    done = subprocess_cli("rep", "show", "--category", "su2_4",
                          "--leaves", " ".join(["1"] * 1200), "--total", "2")
    assert done.returncode == EXIT_USAGE and not done.stdout and "Traceback" not in done.stderr
    assert done.stderr.splitlines() == [
        "error: the dim-6.246e+285 space on 1200 leaves needs at least 2.397e+290 bytes "
        "(2.23e+281 GiB) for its braid generators, over the 1 GiB budget"]


def test_rep_show_on_a_long_empty_comb_prints_dim_0(capsys):
    """An empty space passes the budget however many leaves it has: `rep
    show` on 41 `1` leaves at total 2 prints its empty generators."""
    assert main(["rep", "show", *COMB41]) == EXIT_OK
    out, err = capsys.readouterr()
    assert not err and machine_section(out).splitlines() == ["dim=0", "n_strands=41"]
    assert out.startswith("su2_4: 41 strands, dim 0\nsigma_1 =\n")


@pytest.mark.parametrize("source", [
    COMB14,
    ["--category", "su2_4", "--shape", format_shape(comb_tree(builtin_category("su2_4"),
                                                              ["1"] * 10, "2"))],
    ["--category", "su2_4", "--leaves", " ".join(["2"] * 9), "--total", "0"],
], ids=["comb14", "comb10-shape", "comb9-2"])
def test_rep_check_on_a_comb_builds_no_rows_or_generators(source, capsys, monkeypatch):
    """A left comb is checked on path windows: the same stdout as the global
    check, with neither the row count, the row join nor the generators run."""
    with monkeypatch.context() as forced:
        forced.setattr(braidrep, "_comb_windows", lambda *args: None)
        assert main(["rep", "check", *source]) == EXIT_OK
    want = capsys.readouterr().out
    for module in (cli, braidrep):
        monkeypatch.setattr(module, "general_generators",
                            lambda *args: pytest.fail("the generators were built"))
    monkeypatch.setattr(trees, "_counted", lambda *args: pytest.fail("the rows were counted"))
    monkeypatch.setattr(trees, "_joined", lambda *args: pytest.fail("the rows were joined"))
    assert main(["rep", "check", *source]) == EXIT_OK
    assert capsys.readouterr().out == want


def test_rep_show_builds_the_generators(capsys, monkeypatch):
    built = []

    def counted(cat, basis):
        built.append(basis.dim)
        return general_generators(cat, basis)
    monkeypatch.setattr(cli, "general_generators", counted)
    assert main(["rep", "show", "--category", "su2_4", "--leaves", "1 1 1 1 1", "--total", "1"]) \
        == EXIT_OK
    assert built == [5]
    assert machine_section(capsys.readouterr().out).splitlines() == ["dim=5", "n_strands=5"]


# argv -> exit code for missing, conflicting, or out-of-domain inputs and for
# checks that could not be performed; main must return, never raise.
BAD_INPUTS = [
    (["rep", "check"], EXIT_USAGE),
    (["rep", "check", "--category", "su2_4"], EXIT_USAGE),
    (["rep", "show", "--category", "su2_4", "--leaves", "1 1 1"], EXIT_USAGE),
    (["rep", "check", "--category", "su2_4", "--total", "2"], EXIT_USAGE),
    (["rep", "check", "--model", "su2_4-qutrit", "--category", "su2_4"], EXIT_USAGE),
    (["rep", "check", "--category", "su2_4", "--leaves", "1 1", "--total", "nope"], EXIT_USAGE),
    (["category", "fuse", "su2_4", "eps", "nope"], EXIT_USAGE),
    (["braid", "eval", "--model", "su2_4-qutrit"], EXIT_USAGE),
    (["braid", "eval", "--model", "su2_4-qutrit", "--word", "1", "--named", "p"], EXIT_USAGE),
    (["braid", "eval", "--category", "su2_4", "--word", "1"], EXIT_USAGE),
    (["verify", "identity", "--model", "su2_4-qutrit", "--target", "H3"], EXIT_USAGE),
    (["verify", "identity", "--model", "su2_4-qutrit", "--named", "nope", "--target", "H3"],
     EXIT_USAGE),
    (["rep", "check", "--category", "su2_4", "--leaves", "1 1", "--total", "1"], EXIT_USAGE),
    (["group", "order"], EXIT_USAGE),
    (["group", "order", "--projective", "--expect", "216"], EXIT_USAGE),
    (["group", "order", "--model", "su2_4-qutrit", "--gates", "H3"], EXIT_USAGE),
    (["group", "order", "--model", "su2_4-qutrit", "--projective", "--cap", "10",
      "--expect", "216"], EXIT_CHECK_FAILED),
    (["group", "order", "--model", "su2_4-qutrit", "--projective", "--cap", "10"], EXIT_OK),
    (["group", "order", "--gates", "H3", "--cap", "-5"], EXIT_USAGE),
    (["group", "order", "--gates", "X5", "--cap", "0"], EXIT_USAGE),
    (["witness", "qupit-chain", "--p", "9"], EXIT_USAGE),
    (["witness", "qupit-chain", "--p", "15"], EXIT_USAGE),
    (["protocol", "flip", "--rounds", "0"], EXIT_USAGE),
    (["protocol", "flip", "--trials", "0"], EXIT_USAGE),
    (["witness", "infinite-order", "--gate", "R3[0,1,3]"], EXIT_CHECK_FAILED),
    (["witness", "infinite-order", "--gate", "H3", "--delta", "5"], EXIT_USAGE),
    (["witness", "so5-partial", "--delta", "5"], EXIT_USAGE),
    (["witness", "qupit-chain", "--p", "5", "--delta", "5"], EXIT_USAGE),
    (["witness", "qupit-chain", "--p", "5", "--delta", "0"], EXIT_USAGE),
    (["group", "order", "--model", "su2_4-qubit", "--no-det-lift"], EXIT_USAGE),
    (["group", "order", "--gates", "X5", "--projective", "--no-det-lift"], EXIT_USAGE),
    (["rep", "check", "--model", "su2_4-qutrit", "--leaves", "1", "--total", "2"], EXIT_USAGE),
    (["rep", "check", "--model", "su2_4-qutrit", "--shape", "((1 1)(1 1))->2"], EXIT_USAGE),
    (["rep", "check", "--category", "su2_4", "--leaves", "1 1 1 1", "--total", "2",
      "--general"], EXIT_USAGE),
    (["rep", "show", "--model", "su2_4-qutrit", "--general"], EXIT_USAGE),
    (["rep", "check", "--category", "su2_4", "--shape", "((1 1)(1 1))->2",
      "--leaves", "1 1 1 1"], EXIT_USAGE),
    (["braid", "eval", "--model", "su2_4-qutrit", "--total", "2", "--named", "p"], EXIT_USAGE),
    (["category", "check", "su2_4", "--file", "su2_4.cat"], EXIT_USAGE),
    (["category", "check"], EXIT_USAGE),
    (["category", "check", "su2_4", "--tol", "nan"], EXIT_USAGE),
    (["rep", "check", "--model", "su2_4-qutrit", "--tol", "inf"], EXIT_USAGE),
    (["verify", "identity", "--model", "su2_4-qutrit", "--named", "Hword", "--target", "H3",
      "--tol", "0"], EXIT_USAGE),
    (["verify", "suite", "--category", "su2_4", "--tol", "-1"], EXIT_USAGE),
    (["rep", "show", "--model", "su2_4-qutrit", "--tol", "5"], EXIT_USAGE),
    # the pass bounds are fixed: --tol and --delta are refused even with a valid value
    (["category", "check", "su2_4", "--tol", "1e-3"], EXIT_USAGE),
    (["rep", "check", "--model", "su2_4-qutrit", "--tol", "1e-3"], EXIT_USAGE),
    (["verify", "suite", "--category", "so5_2", "--tol", "1e-3"], EXIT_USAGE),
    (["verify", "identity", "--model", "so5_2-qupit", "--named", "Z5", "--target", "Z5",
      "--tol", "1e-3"], EXIT_USAGE),
    (["witness", "infinite-order", "--gate", "H3", "--delta", "1e-3"], EXIT_USAGE),
    (["witness", "so5-partial", "--delta", "1e-3"], EXIT_USAGE),
    (["witness", "qupit-chain", "--p", "5", "--delta", "1e-3"], EXIT_USAGE),
    (["group", "order", "--gates", "H3[1]"], EXIT_USAGE),
    (["verify", "identity", "--model", "su2_4-qutrit", "--word", "1", "--target", "Q3"],
     EXIT_USAGE),
    (["witness", "infinite-order", "--gate", "SUM3[0]"], EXIT_USAGE),
    (["witness", "imprimitivity", "--gate", "CZ3[1]"], EXIT_USAGE),
    (["group", "order", "--gates", "R5[1,2]"], EXIT_USAGE),
    (["group", "order", "--gates", "R3[0,1,1],H3", "--projective"], EXIT_OK),
    (["group", "order", "--gates", ""], EXIT_USAGE),
    (["group", "order", "--gates", "", "--projective"], EXIT_USAGE),
    (["group", "order", "--gates", "", "--no-det-lift"], EXIT_USAGE),
    (["group", "order", "--gates", "X5", "--no-det-lift", "--expect", "0"], EXIT_USAGE),
    (["group", "order", "--gates", "X5", "--no-det-lift", "--expect", "-5"], EXIT_USAGE),
    # sizes past the stated limits are refused before anything is allocated
    (["witness", "qupit-chain", "--p", "100003"], EXIT_USAGE),
    (["witness", "qupit-chain", "--p", "257"], EXIT_USAGE),
    (["group", "order", "--gates", "H100003"], EXIT_USAGE),
    (["group", "order", "--gates", "X5,SUM1000"], EXIT_USAGE),
    (["group", "order", "--gates", "H257", "--projective"], EXIT_USAGE),
    (["group", "order", "--gates", "X256,Z256", "--projective"], EXIT_USAGE),  # 64 GiB
    (["witness", "imprimitivity", "--gate", "SUM17"], EXIT_USAGE),
    (["witness", "infinite-order", "--gate", "CZ100"], EXIT_USAGE),
    (["verify", "identity", "--model", "su2_4-qutrit", "--named", "Hword", "--target",
      "H100003"], EXIT_USAGE),
    (["witness", "infinite-order", "--gate", "Z3", "--k-max", "1000001"], EXIT_USAGE),
    (["witness", "so5-partial", "--k-max", "10000000000"], EXIT_USAGE),
    (["witness", "qupit-chain", "--p", "5", "--k-max", "10000000000"], EXIT_USAGE),
    (["protocol", "flip", "--trials", "10000001"], EXIT_USAGE),
    (["protocol", "flip", "--trials", "10", "--rounds", "100001"], EXIT_USAGE),
    (["protocol", "flip", "--trials", "10", "--rounds", "1000000000"], EXIT_USAGE),
    (["braid", "eval", *COMB20, "--word", "1 2"], EXIT_USAGE),  # a 6.2 GB result
    (["verify", "identity", *COMB14, "--word", "1 2", "--target", "H3"], EXIT_USAGE),
    # an empty comb: the windows find no space, as the global check would
    (["rep", "check", "--category", "su2_4", "--leaves", " ".join(["1"] * 28), "--total", "1"],
     EXIT_USAGE),
    (["rep", "check", "--category", "su2_4", "--leaves", " ", "--total", "2"], EXIT_USAGE),
]


@pytest.mark.parametrize("argv, code", BAD_INPUTS,
                         ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
def test_bad_input_exit_codes(argv, code, capsys):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    if code == EXIT_USAGE:
        assert "error" in err
    elif "--expect" in argv:
        assert machine_section(out).splitlines()[-1] == "pass=0"


@pytest.mark.parametrize("argv", [argv for argv, _ in BAD_INPUTS
                                  if "--tol" in argv or "--delta" in argv], ids=" ".join)
def test_tolerance_options_are_unrecognized(argv, capsys):
    """No command takes a --tol or --delta: the parse fails on the option
    itself, whatever its value, before anything runs."""
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {' '.join(argv[-2:])}" in captured.err


@pytest.mark.parametrize("argv", [argv for argv, _ in BAD_INPUTS if "" in argv], ids=" ".join)
def test_empty_gate_list_is_a_usage_error_naming_gates(argv, capsys):
    assert main(argv) == EXIT_USAGE
    assert "error: --gates" in capsys.readouterr().err.splitlines()[-1]


@pytest.mark.parametrize("argv, message", [
    (["group", "order", "--gates", "X256,Z256", "--projective"],
     "error: a closure of 2 generators of size 256 x 256 up to cap 100000 may need 195.3 GiB, "
     "over the 1 GiB budget; the largest cap that fits is 509"),
    (["group", "order", "--gates", "X5", "--no-det-lift", "--expect", "0"],
     "error: --expect must be at least 1 (got 0)"),
    (["group", "order", "--gates", "X5", "--no-det-lift", "--expect", "-5"],
     "error: --expect must be at least 1 (got -5)"),
], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
def test_group_order_refusals_run_no_closure(argv, message, capsys, monkeypatch):
    """Both refusals come before the search: at 1 MiB a matrix, the 65536
    elements of the projective Weyl-Heisenberg group in d = 256 would take
    64 GiB, and no group order is below 1."""
    monkeypatch.setattr(synthesis, "_bfs", lambda *args: pytest.fail("the closure ran"))
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1].endswith(message)


@pytest.mark.parametrize("argv, message", [
    (["braid", "eval", *COMB20, "--word", "1 2"],
     "error: a word on the dim-19683 rep needs 5.8 GiB for its result and buffers, "
     "over the 1 GiB budget"),
    (["verify", "identity", *COMB14, "--word", "1 2", "--target", "H3"],
     "error: target dimension does not match the rep: target 3 x 3, rep dim 729"),
], ids=["braid eval comb20", "verify identity comb14 H3"])
def test_word_refusals_evaluate_no_word(argv, message, capsys, monkeypatch):
    """A result past the 1 GiB budget is refused before any letter is built,
    and a target that does not fit the rep before the word is evaluated."""
    monkeypatch.setattr(synthesis, "_workers", lambda: 2)
    monkeypatch.setattr(synthesis, "_letter_action", lambda *args: pytest.fail("a letter ran"))
    monkeypatch.setattr(synthesis, "eval_word", lambda *args: pytest.fail("the word ran"))
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message] and not captured.out


def test_closure_budget_names_the_largest_cap_that_fits():
    budget = synthesis._CLOSURE_BYTES
    for n_gens, dim in ((2, 256), (1, 2), (4, 5), (3, 100), (7, 19)):
        cap = synthesis._largest_cap(n_gens, dim)
        assert synthesis._closure_bytes(cap, n_gens, dim) <= budget
        assert synthesis._closure_bytes(cap + 1, n_gens, dim) > budget
    assert synthesis._largest_cap(1, 6000) == 0  # one 6000 x 6000 slot is past the budget
    assert synthesis._closure_bytes(100000, 3, 5) < budget  # every paper closure fits


@pytest.mark.parametrize("argv, limits", [
    (["witness", "qupit-chain", "--help"], ["5..256", "1..1000000"]),
    (["witness", "infinite-order", "--help"], ["at most 256 dimensions", "1..1000000"]),
    (["witness", "imprimitivity", "--help"], ["at most 256 dimensions"]),
    (["group", "order", "--help"], ["at most 256 dimensions"]),
    (["verify", "identity", "--help"], ["at most 256 dimensions"]),
    (["protocol", "flip", "--help"], ["1..10000000", "1..100000"]),
])
def test_help_states_size_limits(argv, limits, capsys):
    assert main(argv) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())
    for limit in limits:
        assert limit in text


def _fmt_matrix(mat):
    """The matrix text ``rep show`` and ``braid eval`` built before they
    printed row by row."""
    lines = []
    for row in np.atleast_2d(mat):
        lines.append(" ".join(f"{z.real:+.12f}{z.imag:+.12f}i" for z in row))
    return "\n".join(lines)


def _rep_show_reference(cat, rep):
    """The text ``rep show`` wrote when it gathered every matrix's text
    before printing."""
    human = [f"{cat.name}: {rep.n_strands} strands, dim {rep.dim}"]
    for i in range(1, rep.n_strands):
        human += [f"sigma_{i} =", _fmt_matrix(rep.sigma(i))]
    machine = [f"dim={rep.dim}", f"n_strands={rep.n_strands}"]
    return "\n".join(human + [SENTINEL] + machine) + "\n"


def _comb8():
    cat = builtin_category("su2_4")
    return cat, general_generators(cat, enumerate_basis(cat, comb_tree(cat, ["1"] * 8, "2")))


@pytest.mark.parametrize("argv, build", [
    *((["--model", model], lambda model=model: cli._model_rep(model)) for model in cli.MODELS),
    (["--category", "su2_4", "--leaves", " ".join(["1"] * 8), "--total", "2"], _comb8),
], ids=[*cli.MODELS, "comb8"])
def test_rep_show_streams_the_same_bytes(argv, build, capsys):
    assert main(["rep", "show", *argv]) == EXIT_OK
    assert capsys.readouterr().out == _rep_show_reference(*build())


class _CountingSink(io.TextIOBase):
    """A stdout that keeps nothing and counts the characters written."""

    size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def test_rep_show_holds_less_than_its_text():
    """On the 12-strand comb (dim 243) the text is about 21 MB; rep show
    prints it row by row, so its peak allocation stays below that."""
    argv = ["rep", "show", "--category", "su2_4", "--leaves", " ".join(["1"] * 12),
            "--total", "2"]
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < sink.size / 4, (peak, sink.size)


def _verify_all_commands():
    path = Path(__file__).resolve().parent.parent / "scripts" / "verify_all.py"
    spec = importlib.util.spec_from_file_location("verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.COMMANDS


def _outcomes(argvs, capsys):
    """(exit code, stdout, stderr) of each argv run through ``main``."""
    capsys.readouterr()
    outcomes = []
    for argv in argvs:
        code = main(list(argv))
        outcomes.append((code, *capsys.readouterr()))
    return outcomes


def test_shared_parser_behaves_like_a_fresh_one(monkeypatch, capsys):
    failing = [argv for argv, code in BAD_INPUTS if code != EXIT_OK]
    passing = _verify_all_commands() + [argv for argv, code in BAD_INPUTS if code == EXIT_OK]
    argvs = [["--help"]]
    for i in range(max(len(failing), len(passing))):
        argvs += [failing[i % len(failing)], passing[i % len(passing)]]
    argvs += [["group", "order", "--help"], ["--help"]]
    shared = _outcomes(argvs, capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert shared == _outcomes(argvs, capsys)
    assert {code for code, _, _ in shared} == {EXIT_OK, EXIT_CHECK_FAILED, EXIT_USAGE}


def test_parser_built_once_per_process(monkeypatch):
    roots = []

    class Counting(cli._Parser):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            if self.prog == "metaplectic":
                roots.append(self)

    monkeypatch.setattr(cli, "_Parser", Counting)
    cli.build_parser.cache_clear()
    try:
        argvs = [["category", "fuse", "su2_4", "eps", "eps"], ["group", "order"],
                 ["witness", "qutrit", "--level", "0"], ["rep", "check", "--tol", "nan"]]
        codes = [main(list(argvs[i % len(argvs)])) for i in range(20)]
    finally:
        cli.build_parser.cache_clear()
    assert codes == [EXIT_OK, EXIT_USAGE, EXIT_OK, EXIT_USAGE] * 5
    assert len(roots) == 1


def _category_choices(parser, path=()):
    """(subcommand path, dest, choices) of every category-name argument."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _category_choices(sub, path + (name,))
        elif action.dest in ("name", "category"):
            yield path, action.dest, action.choices


def test_cli_category_choices_come_from_registry():
    found = list(_category_choices(build_parser()))
    # category check/dump/fuse; rep show/check, braid eval, verify identity/suite
    assert len(found) == 8
    for path, dest, choices in found:
        assert tuple(choices) == tuple(BUILTIN_CATEGORIES), (path, dest)


@pytest.mark.parametrize("category", ["su2_4", "so5_2"])
def test_category_check_independent_of_hash_seed(category):
    """Fusion frozensets iterate in an order that follows the string hash;
    the machine section must not."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    sections = []
    for seed in ("0", "12345"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "metaplectic", "category", "check", category],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == EXIT_OK, done.stderr
        sections.append(machine_section(done.stdout))
    assert sections[0] == sections[1]


def test_category_file_check_independent_of_hash_seed(tmp_path):
    """The whole output on SU(2)_10, whose quantum dimension sums have
    enough terms to round differently in frozenset order."""
    path = tmp_path / "su2_10.cat"
    path.write_text(serialize_category(_su2_k(10)))
    src = str(Path(__file__).resolve().parent.parent / "src")
    outputs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-m", "metaplectic", "category", "check",
                               "--file", str(path)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == EXIT_OK, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]


def _su2_4_edited(f_entry=0.0, r_factor=1.0):
    """su2_4 with f_entry added to F[1,1,1;1][0,0] and R[1,1;2] scaled by r_factor."""
    cat = builtin_category("su2_4")
    block = cat.f_table[("1", "1", "1", "1")].copy()
    block[0, 0] += f_entry
    return dataclasses.replace(
        cat, f_table={**cat.f_table, ("1", "1", "1", "1"): block},
        r_table={**cat.r_table, ("1", "1", "2"): cat.r_table[("1", "1", "2")] * r_factor})


# category check by name, or by --file on these dumps
_CHECKED_FILES = {
    "su2_10": lambda: _su2_k(10),
    "su2_4-F-off-1e-6": lambda: _su2_4_edited(f_entry=1e-6),
    # R modulus 3.0e-12 and hexagon 6.0e-12: only the 1e-12 bound of the R moduli fails
    "su2_4-R-off-3e-12": lambda: _su2_4_edited(r_factor=1 + 3e-12),
}


@pytest.mark.parametrize("source, expected", [
    ("su2_4", 1), ("so5_2", 1), ("su2_10", 1), ("su2_4-F-off-1e-6", 0), ("su2_4-R-off-3e-12", 0)])
def test_category_check_verdict_is_the_reports(source, expected, tmp_path, capsys):
    if source in BUILTIN_CATEGORIES:
        argv, cat = [source], builtin_category(source)
    else:
        path = tmp_path / f"{source}.cat"
        path.write_text(serialize_category(_CHECKED_FILES[source]()))
        argv, cat = ["--file", str(path)], parse_category(path.read_text(), name=str(path))
    report = check_consistency(cat)
    assert int(report.passed()) == expected
    if source.startswith("su2_4-R"):
        assert dataclasses.replace(report, r_modulus_max=0.0).passed()
    code = main(["category", "check", *argv])
    assert code == (EXIT_OK if report.passed() else EXIT_CHECK_FAILED)
    assert machine_section(capsys.readouterr().out).splitlines()[-1] == f"pass={expected}"


def test_verify_all_runs_from_checkout(tmp_path):
    # without PYTHONPATH and outside the checkout, the script finds src/ itself
    script = Path(__file__).resolve().parent.parent / "scripts" / "verify_all.py"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.count(SENTINEL + "\n") == 16


@pytest.mark.parametrize("category, extra", [("su2_4", "F 0 1 1 2 : 1 2 = -1 0"),
                                             ("so5_2", "R 1 eps eps = -1 0")])
def test_category_file_with_unit_entry_off_the_convention(tmp_path, capsys, category, extra):
    out = tmp_path / f"{category}.cat"
    assert main(["category", "dump", category, "--out", str(out)]) == EXIT_OK
    out.write_text(out.read_text() + extra + "\n")
    capsys.readouterr()
    assert main(["category", "check", "--file", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert "unit" in captured.err and "pass=" not in captured.out
