"""The five benchmark workloads: seeded inputs, job lists and output checks.

Each workload's `setup(seed)` builds every input from the seed alone and
returns the fixed job list of one pass. A job calls llltool's public API
or `cli.main` in-process, the way a user would, always single-process
(`jobs=1`). Library functions are looked up through their modules at call
time (`moser_tardos.mta_run`, not a bound reference) so that the traced
run sees every call.

Every job has a check that runs after it on every pass. At DEFAULT_SEED
the check also compares a fingerprint of the output with the value pinned
in PINS; at any other seed it checks invariants only (statuses, solutions,
certified bounds).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import llltool
from llltool import (
    cli,
    csp,
    derand,
    generators,
    graphs,
    local_goodness,
    moser_tardos,
    tables,
    witness,
)

DEFAULT_SEED = 1

# Input files go here, relative to the checkout root; reports embed the
# path, so it must not depend on where the checkout lives.
WORKDIR = Path(".perfbench_work")


class CheckFailed(Exception):
    """A job's output broke its check."""


@dataclass(frozen=True)
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def pinned(workload: str, job: str, seed: int):
    """Pinned fingerprint of a job's output, or None off the default seed."""
    return PINS[workload][job] if seed == DEFAULT_SEED else None


def expect_pin(fingerprint, pin) -> None:
    if pin is not None:
        expect(fingerprint == pin, f"fingerprint {fingerprint} != pinned {pin}")


def relabelled_graph(n: int, edges, rng: random.Random):
    """The graph on 0..n-1 with its vertices renamed by a seeded permutation."""
    perm = list(range(n))
    rng.shuffle(perm)
    return graphs.graph_from_edges(n, [(perm[u], perm[v]) for u, v in edges])


def cycle_edges(n: int):
    return [(i, (i + 1) % n) for i in range(n)]


def ring_edges():
    """circulant(10, {1, 2}): the 4-regular ring of the acceptance battery."""
    return [(i, (i + k) % 10) for i in range(10) for k in (1, 2)]


def write_problem(workload: str, seed: int, problem) -> str:
    path = WORKDIR / f"{workload}-{seed}-problem.json"
    path.write_text(json.dumps(csp.dump_problem(problem)), encoding="utf-8")
    return str(path)


def run_cli(argv: list[str]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def cli_report(result, command: str) -> dict:
    code, text = result
    expect(code == cli.EXIT_OK, f"{command} exited {code}")
    report = json.loads(text)
    expect(report["command"] == command, "report names another command")
    return report


def report_fingerprint(report: dict) -> str:
    """Digest of a report without its one non-reproducible field."""
    return digest({k: v for k, v in report.items() if k != "timing_seconds"})


# mt_long: the quadratic single-run cost of the resampling loop (item 3).
# Every step rescans all constraints and copies two dicts, so work is
# steps x n. Runs are capped at a fixed step count below the natural
# length (about 1.35k-1.7k steps at n = 1500), so each seed does the same
# amount of per-step work and timings do not inherit the spread of run
# lengths.
MT_LONG_N = 1500
MT_LONG_TABLES = 1
MT_LONG_DEPTH = 64
MT_LONG_STEPS = 500


def setup_mt_long(seed: int) -> list[Job]:
    problem = generators.proper_coloring(
        graphs.graph_from_edges(MT_LONG_N, cycle_edges(MT_LONG_N)), 3
    )
    jobs = []
    for trial in range(MT_LONG_TABLES):
        table = tables.sample_table(
            problem.weights, problem.variables, MT_LONG_DEPTH, seed, trial
        )
        name = f"mta_run[{trial}]"
        jobs.append(Job(
            name,
            lambda table=table: moser_tardos.mta_run(
                problem, table, moser_tardos.FIRST_SINGLETON, MT_LONG_STEPS
            ),
            lambda trace, pin=pinned("mt_long", name, seed): check_mt_long(
                problem, trace, pin
            ),
        ))
    return jobs


def check_mt_long(problem, trace, pin) -> None:
    steps = sum(1 for rec in trace.iterations if rec.fired)
    expect(
        trace.status in (moser_tardos.COMPLETED, moser_tardos.ITERATION_CAP),
        f"status {trace.status}",
    )
    expect(steps <= MT_LONG_STEPS, f"{steps} steps past the cap")
    expect(trace.total_resamples() == steps, "a step fired more than one constraint")
    if trace.status == moser_tardos.COMPLETED:
        expect(csp.is_solution(problem, trace.final_labeling), "completed run is no solution")
    levels = [trace.final_levels[v] for v in problem.variables]
    expect(sum(levels) == 2 * steps, "levels do not add up to the firings")
    expect_pin([trace.status, steps, trace.total_resamples(), digest(levels)], pin)


# mt_sweep: thousands of short runs of the same loop through the CLI, where
# keyed table sampling and per-run setup dominate; an incremental core
# that adds per-run setup shows up here as a cost.
SWEEP_TRIALS = 200
SWEEP_DEPTH = 64


def setup_mt_sweep(seed: int) -> list[Job]:
    rng = random.Random(seed)
    ring = generators.sinkless_orientation(relabelled_graph(10, ring_edges(), rng))
    path = write_problem("mt_sweep", seed, ring)
    argv = ["mta", "--problem", path, "--depth", str(SWEEP_DEPTH),
            "--trials", str(SWEEP_TRIALS), "--seed", str(seed),
            "--strategy", "mmta", "--jobs", "1"]
    pin = pinned("mt_sweep", "mta", seed)
    return [Job("mta", lambda: run_cli(argv), lambda out: check_mt_sweep(out, pin))]


def check_mt_sweep(out, pin) -> None:
    report = cli_report(out, "mta")
    results = report["results"]
    # p = 1/16 and d = 4 meet e*p*(d+1) < 1; depth 64 is never reached.
    expect(results["statuses"] == {"completed": SWEEP_TRIALS},
           f"statuses {results['statuses']}")
    expect(sum(results["resample_histogram"].values()) == SWEEP_TRIALS,
           "histogram does not cover every trial")
    expect_pin(report_fingerprint(report), pin)


# locality: the Folner count-vector search behind `lbad` (item 4). eps =
# 1/32 keeps the hypotheses true, (1/16)^11 <= (63/65)^672, while their
# exact check stays cheap, so `exact` does not dominate this workload.
LBAD_TRIALS = 250
LBAD_FIRINGS = (2, 100)


def setup_locality(seed: int) -> list[Job]:
    rng = random.Random(seed)
    ring = generators.sinkless_orientation(relabelled_graph(10, ring_edges(), rng))
    path = write_problem("locality", seed, ring)
    jobs = []
    for firings in LBAD_FIRINGS:
        argv = ["lbad", "--problem", path, "--c", "0", "--R", "1",
                "--N", str(firings), "--eps", "1/32", "--eta", "1/64",
                "--s", "21/20", "--depth", "3", "--trials", str(LBAD_TRIALS),
                "--seed", str(seed)]
        name = f"lbad[N={firings}]"
        pin = pinned("locality", name, seed)
        jobs.append(Job(
            name,
            lambda argv=argv: run_cli(argv),
            lambda out, pin=pin: check_locality(out, pin),
        ))
    return jobs


def check_locality(out, pin) -> None:
    report = cli_report(out, "lbad")
    results = report["results"]
    expect(results["pass"], "bad-locality frequency above the bound")
    expect(results["unknown"] == 0, f"{results['unknown']} unknown verdicts")
    expect(0 <= results["bad"] <= LBAD_TRIALS, "bad count out of range")
    expect_pin(report_fingerprint(report), pin)


# derandomize: conditional-expectation solving with the mass ledger, where
# every candidate row re-quotients the whole problem (item 3, local
# conditional masses). Seeded vertex names change the colour classes'
# composition but not their number.
DERAND_N = 480
DERAND_COLORS = 32
DERAND_HYPERGRAPHS = 30


def paired_hypergraph(rng: random.Random):
    """Disjoint pairs of 6-edges sharing one vertex, plus maybe a lone edge."""
    edges, base = [], 0
    for _ in range(rng.randint(1, 3)):
        first = list(range(base, base + 6))
        second = sorted([first[rng.randrange(6)]] + list(range(base + 6, base + 11)))
        edges += [first, second]
        base += 11
    if rng.random() < 0.5:
        edges.append(list(range(base, base + 6)))
        base += 6
    return generators.Hypergraph(base, tuple(tuple(e) for e in edges))


def solve_with_ledger(problem):
    ledger: list = []
    return derand.solve_double_exp(problem, ledger), ledger


def setup_derandomize(seed: int) -> list[Job]:
    rng = random.Random(seed)
    cycle = generators.proper_coloring(
        relabelled_graph(DERAND_N, cycle_edges(DERAND_N), rng), DERAND_COLORS
    )
    hypergraphs = [
        generators.hypergraph_2coloring(paired_hypergraph(rng))
        for _ in range(DERAND_HYPERGRAPHS)
    ]
    return [
        Job(
            "cycle",
            lambda: [solve_with_ledger(cycle)],
            checker_derandomize([cycle], pinned("derandomize", "cycle", seed)),
        ),
        Job(
            "hypergraphs",
            lambda: [solve_with_ledger(h) for h in hypergraphs],
            checker_derandomize(hypergraphs, pinned("derandomize", "hypergraphs", seed)),
        ),
    ]


def checker_derandomize(problems, pin):
    """Check of a list of ledger solves; base masses are computed once."""
    masses = [
        {c.id: csp.prob_bad(problem, c.id) for c in problem.constraints}
        for problem in problems
    ]
    degrees = [csp.build_dependency_graph(problem).max_degree() for problem in problems]

    def check(outs) -> None:
        fingerprint = []
        for problem, mass, degree, (labeling, ledger) in zip(problems, masses, degrees, outs):
            expect(csp.is_solution(problem, labeling), "labeling violates a constraint")
            expect(bool(ledger), "empty ledger")
            for entry in ledger:
                bound = (degree + 1) ** entry["k"] * mass[entry["constraint"]]
                expect(entry["ok"] and entry["bound"] == bound and entry["mass"] <= bound,
                       f"ledger entry {entry['class_index']}/{entry['constraint']} "
                       "breaks mass <= (d+1)^k * base mass")
            fingerprint.append([digest([labeling[v] for v in problem.variables]), len(ledger)])
        expect(len(outs) == len(problems), "missing solves")
        expect_pin(digest(fingerprint), pin)

    return check


# certify: the exact-verification path, three parts of similar cost.
# - growth profile, parameter advisor and hypothesis check on a path
#   colouring, whose exact powers have exponents in the millions (item 2);
# - single-sink digraph enumeration and the series partial sum on the ring;
# - the exact product law on 10-cell witnesses (3^10 assignments each).
ADVISOR_PATH = 200
ADVISOR_COLORS = 64
ADVISOR_R_MAX = 40
ADVISOR_S = Fraction(3, 2)
MT2_MAX_VERTICES = 6
MT2_ALPHA = Fraction(1, 16)
MT2_BETA = Fraction(1, 4)
MT1_CYCLE = 8
MT1_WITNESSES = 2
MT1_FIRINGS = 5
MT1_DEPTH = MT1_FIRINGS + 1


def advise(dep, p: Fraction):
    profile = graphs.growth_profile(dep, ADVISOR_R_MAX)
    params, _ = derand.parameter_advisor(p, dep.max_degree(), ADVISOR_S, profile)
    local_goodness.check_lbad_hypotheses(p, ADVISOR_S, params.eps, params.eta)
    return params, profile


def check_advisor(out, pin) -> None:
    params, profile = out
    expect(0 < params.eps < 1 - 1 / ADVISOR_S, "eps outside (0, 1 - 1/s)")
    expect(0 < params.eta < 1, "eta outside (0, 1)")
    expect(profile.gamma_at(params.R) * (1 - params.eps) ** params.R < 1,
           "gamma(R) >= (1-eps)^-R")
    expect(2 * params.R <= ADVISOR_R_MAX, "profile too short for 2R")
    expect_pin([str(params.eps), str(params.eta), params.R, params.N], pin)


def check_mt2(out, pin) -> None:
    expect(out["pass"], "partial sum above beta/(1-beta)")
    expect(Fraction(out["partial_sum_exact"]) <= Fraction(out["bound_exact"]),
           "partial sum above the bound")
    expect_pin([out["digraphs"], out["partial_sum_exact"]], pin)


def check_mt1(out, pin) -> None:
    expect(out["pass"] and out["lhs_exact"] == out["rhs_exact"],
           f"lhs {out['lhs_exact']} != rhs {out['rhs_exact']}")
    expect(out["cells"] == 2 * MT1_FIRINGS, f"{out['cells']} cells")
    expect_pin(out["lhs_exact"], pin)


def setup_certify(seed: int) -> list[Job]:
    rng = random.Random(seed)
    path_edges = [(i, i + 1) for i in range(ADVISOR_PATH - 1)]
    path = generators.proper_coloring(
        relabelled_graph(ADVISOR_PATH, path_edges, rng), ADVISOR_COLORS
    )
    dep = csp.build_dependency_graph(path)
    p = max(csp.prob_bad(path, c.id) for c in path.constraints)
    jobs = [Job(
        "advisor",
        lambda: advise(dep, p),
        lambda out, pin=pinned("certify", "advisor", seed): check_advisor(out, pin),
    )]

    ring = generators.sinkless_orientation(relabelled_graph(10, ring_edges(), rng))
    ids = [c.id for c in ring.constraints]
    alpha = {i: MT2_ALPHA for i in ids}
    beta = {i: MT2_BETA for i in ids}
    sink = rng.choice(ids)
    jobs.append(Job(
        f"mt2[c={sink}]",
        lambda: witness.verify_mt2_partial_sums(
            sink, ring, alpha, beta, MT2_MAX_VERTICES, 10**6
        ),
        lambda out, pin=pinned("certify", "mt2", seed): check_mt2(out, pin),
    ))

    small = generators.proper_coloring(
        relabelled_graph(MT1_CYCLE, cycle_edges(MT1_CYCLE), rng), 3
    )
    for index in range(MT1_WITNESSES):
        steps = [[rng.randrange(MT1_CYCLE)] for _ in range(MT1_FIRINGS)]
        digraph = witness.full_witness_digraph(
            moser_tardos.MtSequence.from_lists(steps), small
        )
        name = f"mt1[{index}]"
        jobs.append(Job(
            name,
            lambda digraph=digraph: witness.verify_mt1_exact(digraph, small, MT1_DEPTH),
            lambda out, pin=pinned("certify", name, seed): check_mt1(out, pin),
        ))
    return jobs


WORKLOADS = {
    "mt_long": setup_mt_long,
    "mt_sweep": setup_mt_sweep,
    "locality": setup_locality,
    "derandomize": setup_derandomize,
    "certify": setup_certify,
}

# Fingerprints of each job's output at DEFAULT_SEED, from the seed commit.
PINS: dict = {
    "mt_long": {
        "mta_run[0]": ["iteration_cap", 500, 500, "60bc7544360faf77"],
    },
    "mt_sweep": {"mta": "c726654ca86cd0ae"},
    "locality": {
        "lbad[N=2]": "870157e140d6c2bc",
        "lbad[N=100]": "88a0412fd254ac98",
    },
    "derandomize": {
        "cycle": "508c1775cb174c89",
        "hypergraphs": "c68def39f070de9b",
    },
    "certify": {
        "advisor": ["183062/837093", "1/8", 14, 2080],
        "mt2": [7354, "1555339/16777216"],
        "mt1[0]": "1/243",
        "mt1[1]": "1/243",
    },
}


def package_origin() -> Path:
    return Path(llltool.__file__).resolve().parent
