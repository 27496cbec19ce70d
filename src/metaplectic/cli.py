"""Command-line front end.

Subcommands: ``category``, ``rep``, ``braid``, ``verify``, ``group``,
``witness``, ``protocol``.  Every run is deterministic given its flags
(seeds included).  Output is a human-readable section, a sentinel line
``=== machine ===``, and a machine-readable ``key=value`` (or CSV)
section that is byte-identical across runs with identical argv.

Exit codes: 0 all checks passed; 1 a check failed (residual above
tolerance, wrong order, statistical rejection); 2 missing category data
prevented a check; 64 flag parse error; 66 file I/O error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

import numpy as np

from .categories import (BUILTIN_CATEGORIES, CategoryFileError, MissingDataError,
                         UnknownLabelError, builtin_category, check_consistency,
                         parse_category, serialize_category)
from .braidrep import general_generators, pair_tree_generators, rep_check
from .gates import (cz_gate, hadamard, make_gate, mult_gate, parse_gate, q_gate,
                    sum_gate, x_gate, z_gate, equal_up_to_phase)
from .protocol import estimate_flip_success
from .synthesis import eval_word, group_closure, named_words, verify_identity, word_from_text
from .trees import block_embedding, comb_tree, enumerate_basis, parse_shape
from .witnesses import (imprimitivity_witness, infinite_order_witness,
                        qupit_subspace_chain, qutrit_commutator_witness,
                        so5_partial_results)

SENTINEL = "=== machine ==="

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_MISSING_DATA = 2
EXIT_USAGE = 64
EXIT_IO = 66

# 1-qudit models: (category, leaf, total)
MODELS = {
    "su2_4-qutrit": ("su2_4", "1", "2"),
    "su2_4-qubit": ("su2_4", "1", "0"),
    "so5_2-qupit": ("so5_2", "eps", "y1"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _tolerance(text):
    """A ``--tol`` value: a positive, finite float."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"tolerance must be positive and finite, got {text!r}")
    return value


def _fmt_matrix(mat):
    lines = []
    for row in np.atleast_2d(mat):
        lines.append(" ".join(f"{z.real:+.12f}{z.imag:+.12f}i" for z in row))
    return "\n".join(lines)


def _emit(human_lines, machine_lines):
    for line in human_lines:
        print(line)
    print(SENTINEL)
    for line in machine_lines:
        print(line)


def _load_category(name_or_none, path_or_none):
    if path_or_none:
        try:
            with open(path_or_none, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"cannot read {path_or_none}: {exc}", file=sys.stderr)
            raise SystemExit(EXIT_IO)
        return parse_category(text, name=path_or_none)
    return builtin_category(name_or_none)


def _model_rep(model):
    cat_name, leaf, total = MODELS[model]
    cat = builtin_category(cat_name)
    return cat, pair_tree_generators(cat, leaf, total)


# ---------------------------------------------------------------------------
# category


def _cmd_category(args):
    if args.action == "dump":
        cat = _load_category(args.name, None)
        text = serialize_category(cat)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                print(f"cannot write {args.out}: {exc}", file=sys.stderr)
                return EXIT_IO
            _emit([f"wrote {args.out}"], [f"bytes={len(text)}"])
        else:
            sys.stdout.write(text)
        return EXIT_OK

    if args.action == "fuse":
        cat = _load_category(args.name, None)
        outcomes = sorted(cat.fuse(args.a, args.b), key=cat.labels.index)
        _emit([f"{args.a} x {args.b} = {' + '.join(outcomes)}"],
              [f"fusion={','.join(outcomes)}"])
        return EXIT_OK

    cat = _load_category(args.name, args.file)
    report = check_consistency(cat)
    human = [
        f"category {cat.name}: consistency",
        f"  quantum dimension residual : {report.dim_residual:.3e}",
        f"  F-block unitarity max      : {report.unitarity_max:.3e}",
        f"  R modulus max deviation    : {report.r_modulus_max:.3e}",
        f"  pentagon max residual      : {report.pentagon_max:.3e}"
        f"  ({report.pentagon_checked} checked, {report.pentagon_skipped} skipped)",
        f"  hexagon max residual       : {report.hexagon_max:.3e}"
        f"  ({report.hexagon_checked} checked, {report.hexagon_skipped} skipped,"
        f" orientation {report.hexagon_orientation})",
    ]
    machine = [
        f"category={cat.name}",
        f"dim_residual={report.dim_residual:.3e}",
        f"unitarity_max={report.unitarity_max:.3e}",
        f"r_modulus_max={report.r_modulus_max:.3e}",
        f"pentagon_max={report.pentagon_max:.3e}",
        f"pentagon_checked={report.pentagon_checked}",
        f"pentagon_skipped={report.pentagon_skipped}",
        f"hexagon_max={report.hexagon_max:.3e}",
        f"hexagon_checked={report.hexagon_checked}",
        f"hexagon_skipped={report.hexagon_skipped}",
        f"hexagon_orientation={report.hexagon_orientation}",
        f"skips={report.skips}",
    ]
    ok = (report.dim_residual < args.tol and report.unitarity_max < args.tol
          and report.pentagon_max < args.tol and report.hexagon_max < args.tol
          and report.r_modulus_max < 1e-12)
    machine.append(f"pass={int(ok)}")
    _emit(human, machine)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# rep / braid


def _resolve_rep(args):
    if args.model:
        if args.shape or args.leaves or args.total:
            args.source_parser.error("--model takes no --shape, --leaves or --total")
        return _model_rep(args.model)
    if args.shape and (args.leaves or args.total):
        args.source_parser.error("--shape takes no --leaves or --total")
    if not (args.shape or (args.leaves and args.total)):
        args.source_parser.error("--category needs --shape, or --leaves with --total")
    cat = builtin_category(args.category)
    shape = (parse_shape(cat, args.shape) if args.shape
             else comb_tree(cat, args.leaves.split(), args.total))
    return cat, general_generators(cat, enumerate_basis(cat, shape))


def _cmd_rep(args):
    cat, rep = _resolve_rep(args)
    if args.action == "show":
        human = [f"{cat.name}: {rep.n_strands} strands, dim {rep.dim}"]
        machine = [f"dim={rep.dim}", f"n_strands={rep.n_strands}"]
        for i in range(1, rep.n_strands):
            human.append(f"sigma_{i} =")
            human.append(_fmt_matrix(rep.sigma(i)))
        _emit(human, machine)
        return EXIT_OK
    report = rep_check(rep)
    ok = report.ok(args.tol)
    _emit(
        [f"{cat.name}: dim {rep.dim} rep on {rep.n_strands} strands",
         f"  unitarity max residual       : {report.unitarity_max:.3e}",
         f"  braid relation max residual  : {report.braid_max:.3e}",
         f"  far commutation max residual : {report.far_commutation_max:.3e}"],
        [f"dim={rep.dim}",
         f"unitarity_max={report.unitarity_max:.3e}",
         f"braid_max={report.braid_max:.3e}",
         f"far_commutation_max={report.far_commutation_max:.3e}",
         f"pass={int(ok)}"],
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _resolve_word(args, rep):
    """The word of ``--named`` or ``--word``; an unknown name is a usage error."""
    if not args.named:
        return word_from_text(args.word, rep.n_strands)
    words = named_words(rep.cat.name)
    if args.named not in words:
        raise ValueError(f"unknown named word {args.named!r}; have {sorted(words)}")
    return words[args.named]


def _cmd_braid(args):
    _, rep = _resolve_rep(args)
    word = _resolve_word(args, rep)
    mat = eval_word(rep, word)
    _emit([f"word: {word}", _fmt_matrix(mat)], [f"dim={mat.shape[0]}"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args):
    if args.action == "identity":
        _, rep = _resolve_rep(args)
        word = _resolve_word(args, rep)
        target = make_gate(parse_gate(args.target))
        result = verify_identity(rep, word, target, tol=args.tol)
        _emit(
            [f"word {word} vs {args.target}: "
             f"{'PASS' if result.passed else 'FAIL'} "
             f"(residual {result.residual:.3e}, phase {result.phase:.6f})"],
            [f"pass={int(result.passed)}",
             f"residual={result.residual:.3e}",
             f"leakage={result.leakage:.3e}",
             f"phase_re={result.phase.real:.12f}",
             f"phase_im={result.phase.imag:.12f}"],
        )
        return EXIT_OK if result.passed else EXIT_CHECK_FAILED
    return {"su2_4": _verify_suite_su24, "so5_2": _verify_suite_so52}[args.category](args.tol)


def _verify_suite_su24(tol):
    cat, rep = _model_rep("su2_4-qutrit")
    words = named_words("su2_4")
    checks = []

    h_braided = eval_word(rep, words["Hword"])
    checks.append(("H = q^2 p q^2", *equal_up_to_phase(h_braided, hadamard(3), tol)))
    p2 = eval_word(rep, words["p"] ** 2)
    q2 = eval_word(rep, words["q"] ** 2)
    swap01 = -np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    swap02 = -np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    checks.append(("p^2 classical swap", *equal_up_to_phase(p2, swap01, tol)))
    checks.append(("q^2 classical swap", *equal_up_to_phase(q2, swap02, tol)))
    checks.append(("sigma_1 ~ Q[1]", *equal_up_to_phase(rep.sigma(1), q_gate(3, 1), tol)))
    checks.append(("sigma_3 ~ Q[2]", *equal_up_to_phase(rep.sigma(3), q_gate(3, 2), tol)))

    eye3 = np.eye(3)
    sum_built = (np.kron(eye3, h_braided)
                 @ cz_gate(3).conj().T
                 @ np.kron(eye3, h_braided.conj().T))
    checks.append(("SUM = (IxH) CZ^-1 (IxH^-1)", *equal_up_to_phase(sum_built, sum_gate(3), tol)))

    embed, basis8, _ = block_embedding(cat, "1", "2", 2, "2")
    rep8 = general_generators(cat, basis8)
    cz = verify_identity(rep8, words["CZword"], cz_gate(3), subspace=embed, tol=tol)
    checks.append(("CZ on 9-dim block subspace", cz.passed, cz.phase))

    human, machine, ok = ["su2_4 braiding gate inventory:"], [], True
    for name, passed, phase in checks:
        ok = ok and passed
        human.append(f"  [{'PASS' if passed else 'FAIL'}] {name}")
        machine.append(f"{name.replace(' ', '_').replace('^', '')}={int(passed)}")
    machine += [f"cz_leakage={cz.leakage:.3e}", f"pass={int(ok)}"]
    _emit(human, machine)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _verify_suite_so52(tol):
    _, rep = _model_rep("so5_2-qupit")
    targets = [
        ("H5", "-1 -3 2 2 -1 -3", hadamard(5)),
        ("Z5", "1 -3", z_gate(5)),
        ("X5", "1 2 -1 -1 3 3 -2 -1", x_gate(5)),
        ("M5[2]", "1 1 -2 -2 -1 -3 2 1", mult_gate(5, 2)),
        ("M5[3]", "1 1 -2 1 3 2 2 3", mult_gate(5, 3)),
        ("M5[4]", "1 2 1 3 2 1", mult_gate(5, 4)),
    ]
    human, machine, ok = ["so5_2 braiding gate inventory:"], [], True
    for name, text, target in targets:
        result = verify_identity(rep, word_from_text(text, 4), target, tol=tol)
        ok = ok and result.passed
        human.append(f"  [{'PASS' if result.passed else 'FAIL'}] {name} word"
                     f" (residual {result.residual:.3e})")
        machine.append(f"{name}={int(result.passed)}")
    closure = group_closure([x_gate(5), mult_gate(5, 2), mult_gate(5, 3), mult_gate(5, 4)],
                            projective=False, det_lift=False, cap=1000)
    classical_ok = closure.order == 20
    ok = ok and classical_ok
    human.append(f"  [{'PASS' if classical_ok else 'FAIL'}] classical <X, M[k]> order"
                 f" = {closure.order}")
    machine += [f"classical_order={closure.order}", f"pass={int(ok)}"]
    _emit(human, machine)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# group


def _cmd_group(args):
    if args.no_det_lift and (args.projective or not args.gates):
        args.source_parser.error("--no-det-lift applies only to linear closures of --gates")
    if args.gates:
        # split on the commas outside brackets: R3[0,1,1],H3 is two gates
        gens = [make_gate(parse_gate(tok)) for tok in re.split(r",(?![^\[]*\])", args.gates)]
        label = args.gates
        det_lift = not args.no_det_lift
    else:
        _, rep = _model_rep(args.model)
        gens = list(rep.generators)
        label = args.model
        det_lift = True
    result = group_closure(gens, projective=args.projective, cap=args.cap, det_lift=det_lift)
    mode = "projective" if args.projective else "linear"
    if result.cap_exceeded:
        human = [f"<{label}> {mode}: cap {args.cap} exceeded (likely infinite or large)"]
        machine = ["cap_exceeded=1", f"cap={args.cap}"]
        if args.expect is not None:  # the expected order was never reached
            human.append(f"  expected {args.expect}: FAIL (closure did not finish)")
            machine.append("pass=0")
        _emit(human, machine)
        return EXIT_OK if args.expect is None else EXIT_CHECK_FAILED
    expected_ok = args.expect is None or result.order == args.expect
    human = [f"<{label}> {mode} closure:",
             f"  order  = {result.order}",
             f"  center = {result.center_size}",
             f"  element orders = {result.histogram_text()}"]
    machine = [f"order={result.order}", f"center={result.center_size}",
               f"cap_exceeded=0", f"histogram={result.histogram_text()}"]
    if args.expect is not None:
        human.append(f"  expected {args.expect}: {'PASS' if expected_ok else 'FAIL'}")
        machine.append(f"pass={int(expected_ok)}")
    _emit(human, machine)
    return EXIT_OK if expected_ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# witness


def _cmd_witness(args):
    if args.kind == "qutrit":
        levels = [args.level] if args.level is not None else [0, 1, 2]
        human, machine, ok = [], [], True
        for i in levels:
            rep = qutrit_commutator_witness(i)
            ok = ok and rep.passed()
            eigs = ", ".join(f"{z:.6f}" for z in rep.eigenvalues_w)
            human += [f"commutators W[{i}], Z[{i}]:",
                      f"  eigenvalues (by argument) : {eigs}",
                      f"  eigenvalue residual       : {rep.eigenvalue_residual:.3e}",
                      f"  3x^2-4x+3 residual        : {rep.polynomial_residual:.3e}",
                      f"  shared fixed vector res.  : {rep.fixed_vector_residual:.3e}",
                      f"  commutator norm           : {rep.commutator_norm:.6f}"]
            machine += [f"eig_residual_{i}={rep.eigenvalue_residual:.3e}",
                        f"poly_residual_{i}={rep.polynomial_residual:.3e}",
                        f"fixed_residual_{i}={rep.fixed_vector_residual:.3e}",
                        f"commutator_norm_{i}={rep.commutator_norm:.6f}"]
        machine.append(f"pass={int(ok)}")
        _emit(human, machine)
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if args.kind == "imprimitivity":
        spec = parse_gate(args.gate)
        rep = imprimitivity_witness(make_gate(spec), spec.d)
        ok = rep.schmidt_rank > 1
        _emit([f"{args.gate} on (uniform x |0>): Schmidt rank {rep.schmidt_rank}",
               f"  singular values: {' '.join(f'{s:.6f}' for s in rep.singular_values)}"],
              [f"schmidt_rank={rep.schmidt_rank}", f"pass={int(ok)}"])
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if args.kind == "qupit-chain":
        rep = qupit_subspace_chain(args.p, args.k_max, args.delta)
        ok = rep.passed()
        _emit([f"qupit subspace chain p={args.p}:",
               f"  identity on complements residual : {rep.identity_residual:.3e}",
               f"  restricted commutator min        : {rep.restricted_commutator_min:.6f}",
               f"  infinite-order screen            : {'PASS' if rep.infinite_order_passed else 'FAIL'}",
               f"  chain overlap minimum            : {min(rep.chain_overlaps):.6f}",
               f"  total span rank                  : {rep.total_rank}"],
              [f"identity_residual={rep.identity_residual:.3e}",
               f"commutator_min={rep.restricted_commutator_min:.6f}",
               f"infinite_order={int(rep.infinite_order_passed)}",
               f"chain_overlap_min={min(rep.chain_overlaps):.6f}",
               f"total_rank={rep.total_rank}",
               f"pass={int(ok)}"])
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    if args.kind == "so5-partial":
        rep = so5_partial_results(args.k_max, args.delta)
        ok = rep.passed()
        _emit(["two-level phase commutator facts (d=5):",
               f"  common fixed vector residual : {rep.fix_residual:.3e}",
               f"  infinite-order screen        : {'PASS' if rep.infinite_order_passed else 'FAIL'}",
               f"  complement commutant dim     : {rep.commutant_dim}"],
              [f"fix_residual={rep.fix_residual:.3e}",
               f"infinite_order={int(rep.infinite_order_passed)}",
               f"commutant_dim={rep.commutant_dim}",
               f"pass={int(ok)}"])
        return EXIT_OK if ok else EXIT_CHECK_FAILED

    gate = make_gate(parse_gate(args.gate))
    rep = infinite_order_witness(gate, args.k_max, args.delta)
    _emit([f"{args.gate}: root-of-unity screen up to K={args.k_max}: "
           f"{'PASS' if rep.passed else 'FAIL'} (min power gap {rep.min_power_gap:.3e})"],
          [f"pass={int(rep.passed)}", f"min_power_gap={rep.min_power_gap:.3e}"])
    return EXIT_OK if rep.passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# protocol


def _cmd_protocol(args):
    rows = estimate_flip_success(args.trials, args.rounds, args.seed)
    human = [f"flip protocol: {args.trials} trials, {args.rounds} rounds, seed {args.seed}"]
    machine = ["n,p_hat,p_exact,stderr"]
    ok = True
    for row in rows:
        sigma = max((row.p_exact * (1 - row.p_exact) / args.trials) ** 0.5, 1e-12)
        ok = ok and abs(row.p_hat - row.p_exact) <= 3 * sigma
        human.append(f"  n={row.n:2d}  p_hat={row.p_hat:.5f}  p_exact={row.p_exact:.5f}")
        machine.append(f"{row.n},{row.p_hat:.6f},{row.p_exact:.12f},{row.stderr:.6f}")
    human.append(f"all rounds within 3 binomial sigma: {'yes' if ok else 'NO'}")
    _emit(human, machine)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------


def _add_rep_source(parser):
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--model", choices=sorted(MODELS))
    source.add_argument("--category", choices=tuple(BUILTIN_CATEGORIES))
    parser.add_argument("--leaves", help="space-separated leaf labels (comb tree)")
    parser.add_argument("--total", help="total charge label")
    parser.add_argument("--shape", help="tree shape text, e.g. '((eps eps)(eps eps))->y'")
    parser.set_defaults(source_parser=parser)  # reports an incomplete or mixed source


def _add_word_source(parser):
    word = parser.add_mutually_exclusive_group(required=True)
    word.add_argument("--word", help="whitespace-separated signed generator indices")
    word.add_argument("--named", help="preregistered word name (p, q, Hword, CZword, ...)")


def build_parser():
    parser = _Parser(prog="metaplectic",
                     description="metaplectic anyon braiding simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("category", help="inspect and check category data")
    cat_sub = cat.add_subparsers(dest="action", required=True)
    chk = cat_sub.add_parser("check")
    chk_source = chk.add_mutually_exclusive_group(required=True)
    chk_source.add_argument("name", nargs="?", choices=tuple(BUILTIN_CATEGORIES))
    chk_source.add_argument("--file", help="check a category file instead of a builtin")
    chk.add_argument("--tol", type=_tolerance, default=1e-9)
    dump = cat_sub.add_parser("dump")
    dump.add_argument("name", choices=tuple(BUILTIN_CATEGORIES))
    dump.add_argument("--out")
    fuse = cat_sub.add_parser("fuse")
    fuse.add_argument("name", choices=tuple(BUILTIN_CATEGORIES))
    fuse.add_argument("a")
    fuse.add_argument("b")

    rep = sub.add_parser("rep", help="build and check braid representations")
    rep_sub = rep.add_subparsers(dest="action", required=True)
    _add_rep_source(rep_sub.add_parser("show"))
    rep_check_parser = rep_sub.add_parser("check")
    _add_rep_source(rep_check_parser)
    rep_check_parser.add_argument("--tol", type=_tolerance, default=1e-9)

    braid = sub.add_parser("braid", help="evaluate braid words")
    braid_sub = braid.add_subparsers(dest="action", required=True)
    ev = braid_sub.add_parser("eval")
    _add_rep_source(ev)
    _add_word_source(ev)

    verify = sub.add_parser("verify", help="verify gate identities")
    verify_sub = verify.add_subparsers(dest="action", required=True)
    suite = verify_sub.add_parser("suite")
    suite.add_argument("--category", choices=tuple(BUILTIN_CATEGORIES), required=True)
    suite.add_argument("--tol", type=_tolerance, default=1e-8)
    ident = verify_sub.add_parser("identity")
    _add_rep_source(ident)
    _add_word_source(ident)
    ident.add_argument("--target", required=True, help="gate name, e.g. H3 or M5[2]")
    ident.add_argument("--tol", type=_tolerance, default=1e-8)

    group = sub.add_parser("group", help="finite closure of generated matrix groups")
    group_sub = group.add_subparsers(dest="action", required=True)
    order = group_sub.add_parser("order")
    gens = order.add_mutually_exclusive_group(required=True)
    gens.add_argument("--model", choices=sorted(MODELS))
    gens.add_argument("--gates", help="comma-separated gate names, e.g. H3,P3[1]")
    order.add_argument("--projective", action="store_true")
    order.add_argument("--no-det-lift", action="store_true",
                       help="close the literal matrices (only with --gates, linear)")
    order.set_defaults(source_parser=order)  # reports a --no-det-lift that would be ignored
    order.add_argument("--cap", type=int, default=100000)
    order.add_argument("--expect", type=int)

    witness = sub.add_parser("witness", help="density witness reports")
    witness_sub = witness.add_subparsers(dest="kind", required=True)
    wq = witness_sub.add_parser("qutrit")
    wq.add_argument("--level", type=int, choices=(0, 1, 2))
    wi = witness_sub.add_parser("imprimitivity")
    wi.add_argument("--gate", default="SUM3")
    wc = witness_sub.add_parser("qupit-chain")
    wc.add_argument("--p", type=int, default=5)
    wc.add_argument("--k-max", type=int, default=10000)
    wc.add_argument("--delta", type=float, default=1e-6)
    ws = witness_sub.add_parser("so5-partial")
    ws.add_argument("--k-max", type=int, default=10000)
    ws.add_argument("--delta", type=float, default=1e-6)
    wo = witness_sub.add_parser("infinite-order")
    wo.add_argument("--gate", required=True)
    wo.add_argument("--k-max", type=int, default=10000)
    wo.add_argument("--delta", type=float, default=1e-6)

    proto = sub.add_parser("protocol", help="measurement-assisted protocol Monte Carlo")
    proto_sub = proto.add_subparsers(dest="action", required=True)
    flip = proto_sub.add_parser("flip")
    flip.add_argument("--trials", type=int, default=100000)
    flip.add_argument("--rounds", type=int, default=10)
    flip.add_argument("--seed", type=int, default=0)
    return parser


_COMMANDS = {
    "category": _cmd_category,
    "rep": _cmd_rep,
    "braid": _cmd_braid,
    "verify": _cmd_verify,
    "group": _cmd_group,
    "witness": _cmd_witness,
    "protocol": _cmd_protocol,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_USAGE
    except MissingDataError as exc:
        print(f"missing category data: {exc}", file=sys.stderr)
        return EXIT_MISSING_DATA
    except CategoryFileError as exc:
        print(f"category file error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, KeyError, UnknownLabelError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
