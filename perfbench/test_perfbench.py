"""Self-tests of the benchmark's checks and tracing.

Run from the root of the repository with ``python3 -m pytest perfbench``.
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402  (the benchmark's own module, found beside this file)
import workloads  # noqa: E402
from tracing import END, NAME, PARENT, START  # noqa: E402


def _checked(job, code, machine):
    checker = workloads.Checker()
    job.check((code, "human part\n=== machine ===\n" + machine, ""), checker)
    return checker


def _order_job():
    return next(job for job in workloads.paper_claims(0).jobs if job.label == "qutrit-proj")


def _rep_job():
    return workloads._rep_job("n10", ["--leaves", "1 " * 10, "--total", "2"], 81)


GOOD_ORDER = "order=216\ncenter=1\ncap_exceeded=0\nhistogram=1:1 2:9 3:80 4:54 6:72\npass=1\n"
GOOD_REP = ("dim=81\nunitarity_max=8.882e-16\nbraid_max=7.948e-16\n"
            "far_commutation_max=1.110e-16\npass=1\n")


def test_correct_outputs_pass():
    assert _checked(_order_job(), 0, GOOD_ORDER).failed == 0
    assert _checked(_rep_job(), 0, GOOD_REP).failed == 0


def test_wrong_order_fails():
    checker = _checked(_order_job(), 0, GOOD_ORDER.replace("order=216", "order=215"))
    assert checker.failed == 1 and "order=215" in checker.messages[0]


def test_cap_exceeded_fails_even_with_exit_zero():
    checker = _checked(_order_job(), 0, "cap_exceeded=1\ncap=10\n")
    assert checker.failed == 3  # no order, cap exceeded, no pass line


def test_residual_over_tolerance_fails():
    checker = _checked(_rep_job(), 0, GOOD_REP.replace("braid_max=7.948e-16", "braid_max=2.000e-08"))
    assert checker.failed == 1 and "braid_max" in checker.messages[0]


def test_machine_section_must_repeat_across_passes():
    job = _order_job()
    checker = workloads.Checker()
    job.check((0, "=== machine ===\n" + GOOD_ORDER, ""), checker)
    job.check((0, "=== machine ===\n" + GOOD_ORDER.replace("center=1", "center=3"), ""), checker)
    assert checker.failed == 1


def test_flip_row_outside_three_sigma_fails():
    exact = [1 - (2 / 3) ** n for n in (1, 2)]
    sigma = (exact[0] * (1 - exact[0]) / 20000) ** 0.5
    rows = [(1, exact[0] + 3.5 * sigma, exact[0]), (2, exact[1], exact[1])]
    checker = workloads.Checker()
    workloads.check_flip_rows(rows, 20000, 2, "flip", checker)
    assert checker.failed == 1


def test_self_time_of_nested_trace():
    # root [0, 10] has children a [1, 4] and b [3, 6], which overlap on [3, 4];
    # a has child c [2, 3].
    spans = [["root", 0.0, 10.0, None, None, None],
             ["a", 1.0, 4.0, 0, None, None],
             ["c", 2.0, 3.0, 1, None, None],
             ["b", 3.0, 6.0, 0, None, None]]
    assert tracing.self_times(spans) == pytest.approx([5.0, 2.0, 1.0, 3.0])


def test_speed_scales_by_the_probes_around_an_interval():
    import numpy

    import run

    speed = run.Speed(numpy)
    speed.probes = [(0.0, 0.02), (10.0, 0.01), (20.0, 0.04)]
    # [1, 9] lies between the probes at 0 and 10, whose kernel mean is 0.015
    assert speed.scaled(1.0, 9.0) == pytest.approx(8.0 * run.Speed.REFERENCE_S / 0.015)
    assert speed.scaled(11.0, 12.0) == pytest.approx(1.0 * run.Speed.REFERENCE_S / 0.025)


def test_tracer_wraps_bindings_and_restores_them():
    from metaplectic import cli, gates, synthesis

    originals = (cli.group_closure, synthesis.phase_distance, gates.phase_distance)
    tracer = tracing.Tracer()
    tracer.install(tracing.TARGETS)
    try:
        tracer.job = "qubit-proj"
        job = next(j for j in workloads.paper_claims(0).jobs if j.label == "qubit-proj")
        checker = workloads.Checker()
        job.check(job.work(tracer), checker)
    finally:
        tracer.uninstall()
    assert checker.failed == 0
    assert (cli.group_closure, synthesis.phase_distance, gates.phase_distance) == originals
    spans = tracer.take()
    names = [span[NAME] for span in spans]
    assert names[0] == "cli.main" and "synthesis.group_closure" in names
    closure = names.index("synthesis.group_closure")
    assert spans[closure][PARENT] is not None
    assert all(s[START] <= s[END] for s in spans)
    metrics = tracing.pass_metrics(spans, lambda label: "paper")
    assert metrics["synthesis.closure_products.qubit-proj"] == 12 * 3  # order x generators
    assert metrics["gates.phase_distance_calls"] > 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert declared == tracing.per_layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
