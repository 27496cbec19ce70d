#!/usr/bin/env python3
"""Benchmark of the metaplectic engine, run from the root of a checkout:

    python3 perfbench/run.py --workload paper-claims --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced passes and prints the per-layer metrics,
writing the first traced pass's spans to ``.perfbench-out/``.  Either way the
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment, the checks and the job times.  Only numpy and the standard
library are used; BLAS runs on as many threads as the process has cores.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9

# Runs in a fresh interpreter: import plus first construction of both
# built-in categories, which is what every user process pays first.
SETUP_CHILD = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import metaplectic.categories as categories
t1 = time.perf_counter()
categories.builtin_category("su2_4")
categories.builtin_category("so5_2")
t2 = time.perf_counter()
print(json.dumps({"setup_s": t2 - t0, "build_s": t2 - t1}))
"""


def measure_setup(speed):
    """One fresh interpreter's set-up, in reference seconds."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    end = time.perf_counter()
    speed.probe()
    child = json.loads(done.stdout.strip().splitlines()[-1])
    return {key: value * speed.factor(start, end) for key, value in child.items()}


def git_sha():
    """The checked-out commit, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Speed:
    """How fast the machine runs at the moment, from a fixed reference kernel.

    A VM on a shared host drifts in speed: on a 2-vCPU Xeon VM, a 30 s median
    of the same pass moved by more than a quarter within ten minutes.  So times are
    reported in reference seconds: a job's wall time times ``REFERENCE_S``
    over the kernel's time at the probes on either side of the job.  The
    kernel is the benchmark's own code, so no change to the program moves it.
    In trial runs on that VM this cut the spread of pass-time medians by up
    to half, though not on every workload every time.
    """

    REFERENCE_S = 0.010  # about the kernel's time on a 2-vCPU Xeon VM (0.008 to 0.012 s)
    EVERY_S = 0.5  # least time between probes inside a pass

    def __init__(self, numpy):
        self.matrix = numpy.random.default_rng(0).normal(size=(256, 256)) * (1 + 1j)
        self.probes = []  # (when, kernel seconds)

    def _kernel(self):
        start = time.perf_counter()
        total = 0
        for i in range(60_000):  # interpreter speed
            total += i * i
        for _ in range(3):  # BLAS speed
            self.matrix @ self.matrix
        return time.perf_counter() - start

    def probe(self, force=True):
        if force or time.perf_counter() - self.probes[-1][0] >= self.EVERY_S:
            kernel_s = statistics.median(self._kernel() for _ in range(3))
            self.probes.append((time.perf_counter(), kernel_s))

    def factor(self, start, end):
        """Reference seconds per wall second over [start, end], from the
        probes on either side of it."""
        before = max(p for p in self.probes if p[0] <= start)
        after = min(p for p in self.probes if p[0] >= end)
        return self.REFERENCE_S / ((before[1] + after[1]) / 2)

    def scaled(self, start, end):
        """Reference seconds of the wall interval [start, end]."""
        return (end - start) * self.factor(start, end)


def run_pass(workload, tracer, checker, speed):
    """One pass over the workload's jobs, each checked, with speed probes
    between jobs.  Returns {job label: (start, end of work, end of check)}."""
    segments = {}
    for job in workload.jobs:
        speed.probe(force=False)
        tracer.job = job.label
        start = time.perf_counter()
        try:
            output = job.work(tracer)
        except Exception:  # a crash is a failed check; the run goes on
            output = None
            checker.expect(False, f"{job.label}: {traceback.format_exc(limit=3)}")
        worked = time.perf_counter()
        if output is not None:
            job.check(output, checker)
        segments[job.label] = (start, worked, time.perf_counter())
    tracer.job = None
    speed.probe()
    return segments


def pass_times(segments, scale):
    """(pass time, {job: work time}) under ``scale(start, end)``.  A pass's
    time is its jobs' work and checks; the probes between them are left out."""
    job_s = {label: scale(start, worked) for label, (start, worked, _) in segments.items()}
    return sum(scale(start, end) for start, _, end in segments.values()), job_s


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-claims", "strand-scaling", "protocol-sampling"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metaplectic" / "__init__.py").is_file():
        print(f"no metaplectic package under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:  # read by the BLAS when numpy is first imported
        os.environ[var] = str(NPROC)
    sys.path.insert(0, str(SRC))
    import numpy
    import metaplectic  # noqa: F401  (compiles the package once, before any timing)
    import tracing
    import workloads

    speed = Speed(numpy)
    speed.probe()
    setups = [measure_setup(speed) for _ in range(SETUP_REPEATS)]
    workload = workloads.WORKLOADS[args.workload](args.seed)
    checker = workloads.Checker()

    untraced, traced, per_pass, first_spans = [], [], [], None
    tracer = tracing.Tracer()
    started = time.perf_counter()
    speed.probe()
    while not untraced or time.perf_counter() - started < args.seconds:
        untraced.append(run_pass(workload, tracing.NullTracer(), checker, speed))
        if not args.trace:
            continue
        tracer.install(tracing.TARGETS)
        try:
            traced.append(run_pass(workload, tracer, checker, speed))
        finally:
            tracer.uninstall()
        spans = tracer.take()
        per_pass.append(tracing.pass_metrics(spans, workload.tree_case))
        first_spans = first_spans or spans

    def medians(passes, scale=speed.scaled):
        times = [pass_times(segments, scale) for segments in passes]
        return (statistics.median(t for t, _ in times),
                {job.label: statistics.median(j[job.label] for _, j in times)
                 for job in workload.jobs})

    pass_s, job_s = medians(untraced)
    wall_pass_s, wall_job_s = medians(untraced, lambda start, end: end - start)
    if args.trace:
        metrics = tracing.median_metrics(per_pass)
        metrics["categories.build_s"] = statistics.median(s["build_s"] for s in setups)
        metrics["trace_overhead_ratio"] = medians(traced)[0] / pass_s
        units = {name: unit for name, unit, _ in tracing.per_layer_names()}
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracing.write_spans(trace_file, first_spans)
    else:
        metrics = {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "pass_s": pass_s,
            "heaviest_job_s": job_s[workload.heaviest],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "pass_s": "s", "heaviest_job_s": "s", "peak_rss_mb": "MB"}
        trace_file = None
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "git_sha": git_sha(), "python": platform.python_version(),
        "numpy": numpy.__version__, "nproc": NPROC,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "passes": len(untraced), "traced_passes": len(traced),
        "fail_ratio": checker.failed / max(checker.attempted, 1),
        "failures": checker.messages,
        "kernel_s": statistics.median(kernel_s for _, kernel_s in speed.probes),
        "job_s": job_s,
        "wall_pass_s": wall_pass_s,
        "wall_job_s": wall_job_s,
        "trace_file": str(trace_file.relative_to(ROOT)) if trace_file else None,
    }
    print("perfbench " + json.dumps(record))
    print(json.dumps({
        "correct": checker.failed == 0 and checker.attempted > 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
