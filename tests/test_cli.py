"""CLI surface: exit codes, machine-readable sections, determinism."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from metaplectic.categories import BUILTIN_CATEGORIES
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
    (["group", "order", "--gates", "H3[1]"], EXIT_USAGE),
    (["verify", "identity", "--model", "su2_4-qutrit", "--word", "1", "--target", "Q3"],
     EXIT_USAGE),
    (["witness", "infinite-order", "--gate", "SUM3[0]"], EXIT_USAGE),
    (["witness", "imprimitivity", "--gate", "CZ3[1]"], EXIT_USAGE),
    (["group", "order", "--gates", "R5[1,2]"], EXIT_USAGE),
    (["group", "order", "--gates", "R3[0,1,1],H3", "--projective"], EXIT_OK),
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
    """The pentagon sums run in the iteration order of fusion frozensets,
    which follows the string hash; the machine section must not."""
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
