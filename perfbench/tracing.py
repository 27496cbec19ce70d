"""Span tracing from outside the program, and the per-layer metrics built on it.

The tracer swaps public functions of the ``metaplectic`` package for timing
wrappers at every module attribute that binds them, so a call made through a
``from .trees import tree_change`` binding is seen as well as one made through
``metaplectic.trees``.  Nothing under ``src/`` changes.  Spans live in memory
as ``[name, start, end, parent index, job label, info]`` and are written out
only after measuring.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, JOB, INFO = range(6)

# Cases of the trees/braidrep metrics: the strand-scaling jobs, plus every
# paper-claims job folded into one "paper" case.
TREE_CASES = ("n10", "n12", "n14", "block12", "paper")
REP_CHECK_CASES = ("n10", "n12", "n14", "block12")
CLOSURE_CASES = ("qutrit-proj", "qutrit-lin", "qubit-proj", "qubit-lin", "qupit-proj",
                 "classical")
CLI_COMMANDS = ("category", "verify", "group", "witness", "protocol", "rep")
WITNESS_FUNCTIONS = ("qutrit_commutator_witness", "imprimitivity_witness",
                     "qupit_subspace_chain", "so5_partial_results")


class Tracer:
    """Collects nested spans; ``job`` labels every span opened while it is set."""

    def __init__(self):
        self.spans = []
        self.job = None
        self._stack = []
        self._patched = []

    def open(self, name, info=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, info])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index):
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name, info=None):
        index = self.open(name, info)
        try:
            yield
        finally:
            self.close(index)

    def wrap(self, fn, name, annotate=None):
        """Timing wrapper.  ``annotate(args, kwargs, result)`` returns the span's
        info; it runs after the span has ended, inside a ``trace.annotate``
        span of its own so that its cost stays out of every layer's time."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if annotate is not None:
                with tracer.span("trace.annotate"):
                    tracer.spans[index][INFO] = annotate(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, targets):
        """Wrap each ``"module.function"`` of ``targets`` (a dict to its
        annotate callable or None) at every ``metaplectic`` module binding it.
        A target the package no longer has is skipped; its metrics read 0."""
        for qualified, annotate in targets.items():
            module_name, fn_name = qualified.rsplit(".", 1)
            original = getattr(importlib.import_module(module_name), fn_name, None)
            if original is None:
                continue
            wrapper = self.wrap(original, qualified.split(".", 1)[1], annotate)
            for mod_name, module in list(sys.modules.items()):
                if module is None or mod_name.split(".")[0] != "metaplectic":
                    continue
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self):
        """Hand over the spans collected so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


class NullTracer:
    """Stands in for :class:`Tracer` in untraced passes."""

    job = None

    @contextmanager
    def span(self, name, info=None):
        yield


def self_times(spans):
    """Each span's duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children = {}
    for span in spans:
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span[START]
        for start, end in sorted(children.get(index, ())):
            start, end = max(start, reach), min(end, span[END])
            if end > start:
                covered += end - start
                reach = end
        out.append(span[END] - span[START] - covered)
    return out


def write_spans(path, spans):
    """Write spans as JSON lines, with self time."""
    with open(path, "w", encoding="utf-8") as handle:
        for index, (span, own) in enumerate(zip(spans, self_times(spans))):
            name, start, end, parent, job, info = span
            handle.write(json.dumps({"id": index, "name": name, "parent": parent, "job": job,
                                     "start": start, "end": end, "self": own,
                                     "info": info}) + "\n")


# ---------------------------------------------------------------------------
# what each wrapped function reports


def _nnz(result):
    return {"nnz": int(sum((abs(g) > 1e-12).sum() for g in result.generators))}


def _rep_check_flop(args, kwargs, result):
    """Real flops of ``rep_check``'s dense products, computed from the dims:
    one product per generator for unitarity, four per adjacent pair for the
    braid relation, two per far pair; 8 d^3 real flops per complex product."""
    rep = args[0]
    g, d = len(rep.generators), rep.dim
    products = g + 4 * max(g - 1, 0) + 2 * max(g - 1, 0) * max(g - 2, 0) // 2
    return {"gflop": products * 8 * d ** 3 / 1e9}


def _closure(args, kwargs, result):
    gens = args[0]
    projective = kwargs.get("projective", args[1] if len(args) > 1 else False)
    det_lift = kwargs.get("det_lift", args[3] if len(args) > 3 else True)
    dim = len(gens[0])
    if dim == 5 and not det_lift:
        case = "classical"
    else:
        case = {2: "qubit", 3: "qutrit", 5: "qupit"}.get(dim, f"dim{dim}")
        case += "-proj" if projective else "-lin"
    return {"case": case, "products": (result.order or 0) * len(gens)}


def _trial_rounds(args, kwargs, result):
    """(trial, round) pairs simulated: a trial stays in the batch until it succeeds."""
    trials = args[0]
    rounds, done = 0, 0
    for row in result:
        rounds += trials - done
        done = round(row.p_hat * trials)
    return {"trial_rounds": rounds}


def _consistency(args, kwargs, result):
    return {"category": result.category,
            "pentagon_checked": result.pentagon_checked,
            "pentagon_skipped": result.pentagon_skipped,
            "hexagon_checked": result.hexagon_checked,
            "hexagon_skipped": result.hexagon_skipped}


TARGETS = {
    "metaplectic.categories.check_consistency": _consistency,
    "metaplectic.trees.enumerate_basis": lambda a, k, r: {"dim": r.dim},
    "metaplectic.trees.tree_change": None,
    "metaplectic.braidrep.general_generators": lambda a, k, r: _nnz(r),
    "metaplectic.braidrep.pair_tree_generators": None,
    "metaplectic.braidrep.rep_check": _rep_check_flop,
    "metaplectic.synthesis.eval_word": lambda a, k, r: {"letters": len(a[1].letters)},
    "metaplectic.synthesis.group_closure": _closure,
    "metaplectic.synthesis.verify_identity": None,  # parent of its phase_distance calls
    "metaplectic.gates.phase_distance": None,
    "metaplectic.protocol.estimate_flip_success": _trial_rounds,
    "metaplectic.protocol.prepare_flip_ancilla": lambda a, k, r: {"attempts": r[1]},
    "metaplectic.protocol.run_flip_round": None,
    **{f"metaplectic.witnesses.{fn}": None for fn in WITNESS_FUNCTIONS},
}


# ---------------------------------------------------------------------------
# per-layer metrics


def per_layer_names():
    """Every per-layer metric, in report order, with its unit and direction."""
    names = [("categories.build_s", "s", "lower")]
    for cat in ("su2_4", "so5_2"):
        names.append((f"categories.check_consistency_s.{cat}", "s", "lower"))
    for kind in ("pentagon", "hexagon"):
        for what in ("checked", "skipped"):
            for cat in ("su2_4", "so5_2"):
                better = "higher" if what == "checked" else "lower"
                names.append((f"categories.{kind}_{what}.{cat}", "count", better))
    for case in TREE_CASES:
        names += [(f"trees.enumerate_basis_s.{case}", "s", "lower"),
                  (f"trees.basis_dim.{case}", "count", "higher"),
                  (f"trees.tree_change_s.{case}", "s", "lower"),
                  (f"braidrep.general_generators_s.{case}", "s", "lower"),
                  (f"braidrep.generator_nnz.{case}", "count", "lower")]
    for case in REP_CHECK_CASES:
        names += [(f"braidrep.rep_check_s.{case}", "s", "lower"),
                  (f"braidrep.rep_check_gflop.{case}", "GFLOP-computed", "lower")]
    names.append(("braidrep.pair_tree_generators_s", "s", "lower"))
    for case in CLOSURE_CASES:
        names += [(f"synthesis.group_closure_s.{case}", "s", "lower"),
                  (f"synthesis.closure_products.{case}", "count", "lower")]
    names += [("gates.phase_distance_calls", "count", "lower"),
              ("gates.phase_distance_s", "s", "lower"),
              ("synthesis.eval_word_s", "s", "lower"),
              ("synthesis.eval_letters_per_s", "1/s", "higher")]
    names += [(f"witnesses.{fn}_s", "s", "lower") for fn in WITNESS_FUNCTIONS]
    names += [("protocol.estimate_flip_success_s", "s", "lower"),
              ("protocol.mc_trial_rounds", "count", "higher"),
              ("protocol.mc_trial_rounds_per_s", "1/s", "higher"),
              ("protocol.prepare_flip_ancilla_ms", "ms", "lower"),
              ("protocol.run_flip_round_ms", "ms", "lower"),
              ("protocol.ancilla_attempts", "count", "lower"),
              ("protocol.ancilla_yield", "ratio", "higher")]
    names += [(f"cli.main_s.{cmd}", "s", "lower") for cmd in CLI_COMMANDS]
    names += [("cli.self_s", "s", "lower"), ("trace_overhead_ratio", "ratio", "lower")]
    return names


def _has_ancestor(spans, index, prefix):
    parent = spans[index][PARENT]
    while parent is not None:
        if spans[parent][NAME].startswith(prefix):
            return True
        parent = spans[parent][PARENT]
    return False


def pass_metrics(spans, tree_case):
    """Per-layer metrics of one traced pass.  ``tree_case(job label)`` names
    the trees/braidrep case a job belongs to."""
    m = dict.fromkeys((name for name, _, _ in per_layer_names()), 0.0)

    def add(key, value):
        if key in m:  # a case outside the benchmark's list is not reported
            m[key] += value

    own = self_times(spans)
    ancilla_calls = round_calls = letters = 0
    for index, (name, start, end, _, job, info) in enumerate(spans):
        dt = end - start
        if name == "cli.main":
            add(f"cli.main_s.{info['command']}", dt)
            add("cli.self_s", own[index])
        elif name == "categories.check_consistency":
            cat = info["category"]
            add(f"categories.check_consistency_s.{cat}", dt)
            for key in ("pentagon_checked", "pentagon_skipped",
                        "hexagon_checked", "hexagon_skipped"):
                kind, what = key.split("_")
                add(f"categories.{kind}_{what}.{cat}", info[key])
        elif name in ("trees.enumerate_basis", "trees.tree_change",
                      "braidrep.general_generators", "braidrep.rep_check"):
            case = tree_case(job)
            add(f"{name}_s.{case}", dt)
            if name == "trees.enumerate_basis" and f"trees.basis_dim.{case}" in m:
                key = f"trees.basis_dim.{case}"
                m[key] = max(m[key], info["dim"])
            elif name == "braidrep.general_generators":
                add(f"braidrep.generator_nnz.{case}", info["nnz"])
            elif name == "braidrep.rep_check":
                add(f"braidrep.rep_check_gflop.{case}", info["gflop"])
        elif name == "braidrep.pair_tree_generators":
            add("braidrep.pair_tree_generators_s", dt)
        elif name == "synthesis.group_closure":
            add(f"synthesis.group_closure_s.{info['case']}", dt)
            add(f"synthesis.closure_products.{info['case']}", info["products"])
        elif name == "gates.phase_distance" and _has_ancestor(spans, index, "synthesis."):
            add("gates.phase_distance_calls", 1)
            add("gates.phase_distance_s", dt)
        elif name == "synthesis.eval_word":
            add("synthesis.eval_word_s", dt)
            letters += info["letters"]
        elif name.startswith("witnesses."):
            add(f"{name}_s", dt)
        elif name == "protocol.estimate_flip_success":
            add("protocol.estimate_flip_success_s", dt)
            add("protocol.mc_trial_rounds", info["trial_rounds"])
        elif name == "protocol.prepare_flip_ancilla":
            add("protocol.prepare_flip_ancilla_ms", 1e3 * dt)
            add("protocol.ancilla_attempts", info["attempts"])
            ancilla_calls += 1
        elif name == "protocol.run_flip_round":
            add("protocol.run_flip_round_ms", 1e3 * dt)
            round_calls += 1
    if ancilla_calls:
        m["protocol.prepare_flip_ancilla_ms"] /= ancilla_calls
        m["protocol.ancilla_yield"] = ancilla_calls / m["protocol.ancilla_attempts"]
    if round_calls:
        m["protocol.run_flip_round_ms"] /= round_calls
    if m["synthesis.eval_word_s"]:
        m["synthesis.eval_letters_per_s"] = letters / m["synthesis.eval_word_s"]
    if m["protocol.estimate_flip_success_s"]:
        m["protocol.mc_trial_rounds_per_s"] = (m["protocol.mc_trial_rounds"]
                                               / m["protocol.estimate_flip_success_s"])
    return m


def median_metrics(per_pass):
    """Median of each metric over passes (counts repeat, so theirs is exact)."""
    return {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
