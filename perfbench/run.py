"""llltool benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; llltool is imported from its `src/`.
The run sets up the workload's inputs several times (the median counts as
set-up time), then repeats passes of the workload's fixed job list until
S seconds have gone by. With --trace 0 it reports the end-to-end metrics;
with --trace 1 it runs one untraced pass, then traced passes, and reports
per-layer metrics. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}; the line before it
records the run's environment, pass times and failures. A failed job or
check is counted and the run goes on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

# Times are reported at reference speed. The machine this benchmark runs on
# is shared, and its speed drifts by tens of percent within seconds; a
# fixed pure-Python reference loop, timed between jobs, slows down with it.
# Each time is scaled by REFERENCE_S over the reference time measured
# around it, where REFERENCE_S is roughly the loop's time on an uncontended
# 2.1 GHz Xeon vCPU. Raw times are printed on the line before the result.
REFERENCE_ITERATIONS = 50_000
REFERENCE_S = 0.02

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Hooks that add work counts from a span function's result or exception.


def _count_cells(counts, table):
    counts["tables.cells"] += len(table.columns) * table.depth


def _count_run(counts, trace):
    fired = [rec.fired for rec in trace.iterations if rec.fired]
    counts["moser_tardos.steps"] += len(fired)
    counts["moser_tardos.resamples"] += sum(len(step) for step in fired)
    counts["moser_tardos.completed"] += trace.status == "completed"


def _count_verdict(counts, result):
    counts["local_goodness.bad"] += not result[0]


def _count_unknown(counts, exc):
    from llltool.errors import SearchBudgetError

    if isinstance(exc, SearchBudgetError):
        counts["local_goodness.unknown"] += 1


def _count_digraphs(counts, digraphs):
    counts["witness.digraphs"] += len(digraphs)


def _count_mt1_cells(counts, report):
    counts["witness.verify_mt1_exact.cells"] += report["cells"]


# Span functions with their (on result, on exception) hooks. Functions the
# per-layer metrics do not name are here so their self time lands in their
# own module's share instead of their caller's.
SPANS = {
    "tables.sample_table": (_count_cells, None),
    "moser_tardos.mta_run": (_count_run, None),
    "moser_tardos.mt_monte_carlo": (None, None),
    "csp.build_dependency_graph": (None, None),
    "csp.prob_bad": (None, None),
    "csp.quotient_csp": (None, None),
    "csp.is_solution": (None, None),
    "csp.load_problem": (None, None),
    "local_goodness.is_locally_good": (_count_verdict, _count_unknown),
    "local_goodness.estimate_lbad_prob": (None, None),
    "local_goodness.check_lbad_hypotheses": (None, None),
    "exact.rational_pow_leq": (None, None),
    "exact.certified_less": (None, None),
    "graphs.growth_profile": (None, None),
    "graphs.power_graph": (None, None),
    "derand.solve_double_exp": (None, None),
    "derand.induction_step": (None, None),
    "derand.parameter_advisor": (None, None),
    "witness.enumerate_sink_star": (_count_digraphs, None),
    "witness.verify_mt2_partial_sums": (None, None),
    "witness.verify_mt1_exact": (_count_mt1_cells, None),
    "cli.main": (None, None),
}
COUNTED = ["csp.violates", "tables.Table.get"]
MODULES = ["tables", "moser_tardos", "csp", "local_goodness", "exact",
           "derand", "graphs", "witness", "cli"]


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(totals: dict, wall: float) -> dict:
    """Per-layer values of one traced pass, by metric name."""
    calls, counts = totals["calls"], totals["counts"]
    self_s, total_s = totals["self_s"], totals["total_s"]
    out = {}
    for name in list(SPANS) + COUNTED:
        out[f"{name}.calls"] = calls[name]
    for name in SPANS:
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    runs = calls["moser_tardos.mta_run"]
    searches = calls["local_goodness.is_locally_good"]
    out.update({
        "tables.cells": counts["tables.cells"],
        "tables.cells_per_s": _rate(
            counts["tables.cells"], total_s.get("tables.sample_table", 0.0)),
        "moser_tardos.steps": counts["moser_tardos.steps"],
        "moser_tardos.resamples": counts["moser_tardos.resamples"],
        "moser_tardos.steps_per_s": _rate(
            counts["moser_tardos.steps"], total_s.get("moser_tardos.mta_run", 0.0)),
        "moser_tardos.completed_ratio": _rate(counts["moser_tardos.completed"], runs),
        "local_goodness.tables_per_s": _rate(
            searches, total_s.get("local_goodness.is_locally_good", 0.0)),
        "local_goodness.bad_ratio": _rate(counts["local_goodness.bad"], searches),
        "local_goodness.unknown": counts["local_goodness.unknown"],
        "witness.digraphs": counts["witness.digraphs"],
        "witness.digraphs_per_s": _rate(
            counts["witness.digraphs"], total_s.get("witness.enumerate_sink_star", 0.0)),
        "witness.verify_mt1_exact.cells": counts["witness.verify_mt1_exact.cells"],
    })
    attributed = 0.0
    for module in MODULES:
        seconds = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
        attributed += seconds
        out[f"{module}.self_share"] = _rate(seconds, wall)
    out["other.self_share"] = max(0.0, 1.0 - _rate(attributed, wall))
    return out


PER_LAYER = {
    "tables.sample_table.calls": "count",
    "tables.sample_table.self_s": "s",
    "tables.cells": "count",
    "tables.cells_per_s": "1/s",
    "tables.Table.get.calls": "count",
    "moser_tardos.mta_run.calls": "count",
    "moser_tardos.mta_run.self_s": "s",
    "moser_tardos.steps": "count",
    "moser_tardos.resamples": "count",
    "moser_tardos.steps_per_s": "1/s",
    "moser_tardos.completed_ratio": "ratio",
    "csp.violates.calls": "count",
    "csp.build_dependency_graph.calls": "count",
    "csp.build_dependency_graph.self_s": "s",
    "local_goodness.is_locally_good.calls": "count",
    "local_goodness.is_locally_good.self_s": "s",
    "local_goodness.tables_per_s": "1/s",
    "local_goodness.bad_ratio": "ratio",
    "local_goodness.unknown": "count",
    "exact.rational_pow_leq.calls": "count",
    "exact.rational_pow_leq.self_s": "s",
    "exact.certified_less.calls": "count",
    "exact.certified_less.self_s": "s",
    "derand.parameter_advisor.self_s": "s",
    "graphs.growth_profile.self_s": "s",
    "csp.quotient_csp.calls": "count",
    "csp.quotient_csp.self_s": "s",
    "csp.prob_bad.calls": "count",
    "csp.prob_bad.self_s": "s",
    "graphs.power_graph.calls": "count",
    "graphs.power_graph.self_s": "s",
    "derand.induction_step.calls": "count",
    "derand.induction_step.self_s": "s",
    "derand.solve_double_exp.self_s": "s",
    "witness.enumerate_sink_star.self_s": "s",
    "witness.digraphs": "count",
    "witness.digraphs_per_s": "1/s",
    "witness.verify_mt1_exact.self_s": "s",
    "witness.verify_mt1_exact.cells": "count",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    **{f"{module}.self_share": "ratio" for module in MODULES + ["other"]},
}


class Tally:
    """Jobs attempted and failed over the run, with the first messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, job, exc: BaseException) -> None:
        self.failed += 1
        if len(self.messages) < 10:
            self.messages.append(f"{job.name}: {type(exc).__name__}: {exc}")
        print(f"perfbench: {job.name} failed", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "loadavg": list(os.getloadavg()),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def reference_loop() -> int:
    """Fixed pure-Python work (dict, tuple and integer operations)."""
    table: dict = {}
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        key = (i % 101, i % 7)
        table[key] = table.get(key, 0) + i
        acc ^= hash(key) & 0xFFFF
    return acc + len(table)


def time_reference() -> float:
    """Median of three timings of the reference loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def at_reference_speed(elapsed: float, ref_before: float, ref_after: float) -> float:
    return elapsed * 2 * REFERENCE_S / (ref_before + ref_after)


def run_pass(jobs, tally: Tally, refs: list, recorder=None) -> tuple[float, float]:
    """Run every job once and check it; returns raw and corrected job time.

    The reference loop is timed after each job, and a job's time is scaled
    by REFERENCE_S over the mean of the reference times just before and
    just after it; `refs` holds the last reference time and gets one more
    per job. Checks are not timed, and tracing is paused while they run.
    """
    raw = corrected = 0.0
    for job in jobs:
        tally.attempted += 1
        if recorder is not None:
            recorder.active = True
        start = time.perf_counter()
        try:
            out = job.run()
        except Exception as exc:  # counted in `failed`; the run goes on
            out, error = None, exc
        else:
            error = None
        elapsed = time.perf_counter() - start
        if recorder is not None:
            recorder.active = False
        refs.append(time_reference())
        raw += elapsed
        corrected += at_reference_speed(elapsed, refs[-2], refs[-1])
        if error is None:
            try:
                job.check(out)
            except Exception as exc:
                error = exc
        if error is not None:
            tally.fail(job, error)
        del out
    return raw, corrected


def measure(jobs, tally: Tally, seconds: float, recorder=None, after_pass=None):
    """Passes until `seconds` have gone by; raw and corrected pass times."""
    walls, corrected, refs = [], [], [time_reference()]
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        raw, scaled = run_pass(jobs, tally, refs, recorder)
        walls.append(raw)
        corrected.append(scaled)
        if after_pass is not None:
            after_pass(raw)
    return walls, corrected, refs


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "llltool" / "__init__.py").is_file():
        print(f"perfbench: no llltool sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))

    setup_refs = [time_reference()]
    started = time.perf_counter()
    import workloads  # imports llltool: part of set-up time
    import_s = time.perf_counter() - started
    if workloads.package_origin() != ROOT / "src" / "llltool":
        print("perfbench: llltool was not imported from this checkout", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup = workloads.WORKLOADS[args.workload]
    workloads.WORKDIR.mkdir(exist_ok=True)
    setup_refs.append(time_reference())

    setup_reps = []
    for _ in range(SETUP_REPEATS):
        jobs = None  # free the previous inputs before building new ones
        start = time.perf_counter()
        jobs = setup(args.seed)
        setup_reps.append(time.perf_counter() - start)
        setup_refs.append(time_reference())
    raw_setup_s = import_s + statistics.median(setup_reps)
    setup_s = at_reference_speed(import_s, *setup_refs[:2]) + statistics.median(
        at_reference_speed(rep, before, after)
        for rep, before, after in zip(setup_reps, setup_refs[1:], setup_refs[2:])
    )

    tally = Tally()
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "env": environment(), "import_s": import_s, "setup_reps": setup_reps,
            "raw_setup_s": raw_setup_s, "setup_reference_s": setup_refs}
    if args.trace:
        import tracer

        _, untraced, _ = measure(jobs, tally, 0)
        recorder = tracer.Recorder()
        tracer.install(recorder, "llltool", SPANS, COUNTED)
        per_pass = []
        walls, corrected, refs = measure(
            jobs, tally, args.seconds, recorder,
            lambda wall: per_pass.append(layer_metrics(recorder.take_totals(), wall)),
        )
        values = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        values["trace.overhead_s"] = statistics.median(corrected) - untraced[0]
        trace_file = workloads.WORKDIR / f"trace-{args.workload}-{args.seed}.jsonl"
        recorder.write(trace_file)
        info.update({"untraced_wall_s": untraced[0], "spans": len(recorder.spans),
                     "trace_file": str(trace_file)})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        walls, corrected, refs = measure(jobs, tally, args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "wall_s": statistics.median(corrected),
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}

    info.update({"passes": len(walls), "raw_wall_s": statistics.median(walls),
                 "raw_walls": walls, "reference_s": refs, "ops": tally.attempted,
                 "ops_failed": tally.failed, "failures": tally.messages})
    print(json.dumps(info))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
