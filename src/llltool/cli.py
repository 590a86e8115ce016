"""Command-line entry point: every operation as a subcommand with JSON I/O.

Exit codes: 0 success/pass, 1 checked failure (a verification answered
"no"), 2 usage or malformed input, 3 cap or search budget exhausted,
4 internal fault (InternalInvariantError or any unexpected exception).
Reports carry the command, sha256 digests of input files, the parsed flags
as parameters and any seed, so a report alone suffices to re-run the
command; `_UNREPORTED` names the few flags still left out. Timing is the
only non-reproducible field. Each command returns its results and exit
code; `main` alone builds and prints the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction

from . import derand, generators, local_goodness, witness
from .csp import csp_stats, dump_problem, lll_condition, load_problem, prob_bad
from .errors import (
    CapExceededError,
    DepthExceededError,
    HypothesisError,
    InvalidInputError,
    InvalidParameterError,
    UnsatisfiableConstraintError,
)
from .exact import format_rational, parse_rational
from .graphs import growth_profile, load_graph_json, load_graph_text
from .moser_tardos import (
    FIRST_SINGLETON,
    MAXIMAL_GREEDY,
    MtSequence,
    check_consistency,
    mt_monte_carlo,
    mta_run,
    random_strategy,
    scripted_strategy,
)
from .tables import table_from_json

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

DEFAULT_SEED = 20140613

# Flags that change a command's result yet are left out of its report's
# parameters. Reporting them moves the benchmark's pinned report
# fingerprints, so they join the reports when those pins are re-recorded.
_UNREPORTED = {"mta": {"table", "script", "max_iters"}, "lbad": {"budget"}}


def _digest(text: str) -> str:
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


class _Inputs:
    """Tracks file reads so every report can list its input digests."""

    def __init__(self):
        self.digests: dict[str, str] = {}

    def read(self, path: str) -> str:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInputError(f"cannot read {path}: {exc}") from exc
        self.digests[path] = _digest(text)
        return text

    def problem(self, path: str):
        return load_problem(self.read(path))

    def graph(self, path: str):
        text = self.read(path)
        try:
            return load_graph_json(text)
        except InvalidInputError:
            return load_graph_text(text)

    def json(self, path: str):
        text = self.read(path)
        try:
            return json.loads(text)
        except ValueError as exc:
            raise InvalidInputError(f"{path} is not valid JSON: {exc}") from exc


def _rational_map(text: str, ids) -> dict[int, Fraction]:
    """One rational for all ids, or a comma list in id order."""
    parts = [p.strip() for p in text.split(",")]
    values = [parse_rational(p) for p in parts]
    ids = list(ids)
    if len(values) == 1:
        return {i: values[0] for i in ids}
    if len(values) != len(ids):
        raise InvalidParameterError(
            f"expected 1 or {len(ids)} comma-separated rationals, got {len(values)}"
        )
    return dict(zip(ids, values))


# Resampling strategies by --strategy name, each built from the seed.
_STRATEGIES = {
    "mmta": lambda seed: MAXIMAL_GREEDY,
    "random": random_strategy,
    "first": lambda seed: FIRST_SINGLETON,
}


def _sequence_from_file(inputs: _Inputs, path: str) -> MtSequence:
    obj = inputs.json(path)
    if not isinstance(obj, list):
        raise InvalidInputError("script must be a JSON list of constraint-id lists")
    return MtSequence.from_lists(obj)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="llltool",
        description="Constraint resampling toolkit: generators, exact "
        "verification, locality search, and derandomized solving.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a problem built from a graph")
    g.add_argument("--kind", required=True,
                   choices=["coloring", "sinkless", "hyp2color"])
    g.add_argument("--graph", required=True)
    g.add_argument("--colors", type=int, default=3)

    st = sub.add_parser("stats", help="order, degrees, max bad mass, conditions")
    st.add_argument("--problem", required=True)
    st.add_argument("--s", default=None, help="rational exponent > 1")

    gr = sub.add_parser("growth", help="ball-growth profile of a graph")
    gr.add_argument("--graph", required=True)
    gr.add_argument("--r-max", type=int, default=8)

    m = sub.add_parser("mta", help="resampling runs over sampled tables")
    m.add_argument("--problem", required=True)
    m.add_argument("--depth", type=int, required=True)
    m.add_argument("--trials", type=int, default=100)
    m.add_argument("--seed", type=int, default=DEFAULT_SEED)
    m.add_argument("--strategy", default="mmta", choices=list(_STRATEGIES))
    m.add_argument("--table", default=None,
                   help="row-matrix JSON: run once on this table instead")
    m.add_argument("--script", default=None,
                   help="with --table: replay this step sequence")
    m.add_argument("--max-iters", type=int, default=None)
    m.add_argument("--jobs", type=int, default=1)

    co = sub.add_parser("consistency", help="replay a step sequence on a table")
    co.add_argument("--problem", required=True)
    co.add_argument("--table", required=True)
    co.add_argument("--script", required=True)

    w = sub.add_parser("witness", help="build, validate, or enumerate digraphs")
    w.add_argument("--problem", required=True)
    group = w.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", help="build from a step-sequence file")
    group.add_argument("--witness", help="validate a digraph file")
    group.add_argument("--sink", type=int, help="enumerate single-sink digraphs")
    w.add_argument("--max-vertices", type=int, default=4)
    w.add_argument("--cap", type=int, default=100_000)

    v1 = sub.add_parser("verify-mt1", help="compatibility probability product law")
    v1.add_argument("--problem", required=True)
    v1.add_argument("--witness", required=True)
    v1.add_argument("--mode", default="exact", choices=["exact", "monte_carlo"])
    v1.add_argument("--depth", type=int, required=True)
    v1.add_argument("--trials", type=int, default=10_000)
    v1.add_argument("--seed", type=int, default=DEFAULT_SEED)
    v1.add_argument("--cap", type=int, default=None)

    v2 = sub.add_parser("verify-mt2", help="single-sink series partial sums")
    v2.add_argument("--problem", required=True)
    v2.add_argument("--c", type=int, required=True)
    v2.add_argument("--alpha", required=True)
    v2.add_argument("--beta", required=True)
    v2.add_argument("--max-vertices", type=int, required=True)
    v2.add_argument("--cap", type=int, default=100_000)

    lg = sub.add_parser("locally-good", help="search for a concentrated firing pattern")
    lg.add_argument("--problem", required=True)
    lg.add_argument("--table", required=True)
    lg.add_argument("--c", type=int, required=True)
    lg.add_argument("--R", type=int, required=True)
    lg.add_argument("--N", type=int, required=True)
    lg.add_argument("--eps", required=True)
    lg.add_argument("--budget", type=int,
                    default=local_goodness.DEFAULT_SEARCH_BUDGET)

    lb = sub.add_parser("lbad", help="bad-locality frequency vs the proved bound")
    lb.add_argument("--problem", required=True)
    lb.add_argument("--c", type=int, required=True)
    lb.add_argument("--R", type=int, required=True)
    lb.add_argument("--N", type=int, required=True)
    lb.add_argument("--eps", required=True)
    lb.add_argument("--eta", required=True)
    lb.add_argument("--s", required=True)
    lb.add_argument("--depth", type=int, required=True)
    lb.add_argument("--trials", type=int, default=1000)
    lb.add_argument("--seed", type=int, default=DEFAULT_SEED)
    lb.add_argument("--budget", type=int,
                    default=local_goodness.DEFAULT_SEARCH_BUDGET)

    so = sub.add_parser("solve", help="deterministic solving by conditional masses")
    so.add_argument("--problem", required=True)
    so.add_argument("--method", required=True, choices=["double-exp"])
    so.add_argument("--ledger", action="store_true")

    ad = sub.add_parser("advisor", help="derive pipeline parameters from growth")
    ad.add_argument("--problem", required=True)
    ad.add_argument("--s", required=True)
    ad.add_argument("--r-max", type=int, default=8)

    pi = sub.add_parser("pipeline", help="good-table search plus resampling")
    pi.add_argument("--problem", required=True)
    pi.add_argument("--params", required=True)
    pi.add_argument("--mode", default="rand", choices=["det", "rand"])
    pi.add_argument("--seed", type=int, default=DEFAULT_SEED)
    pi.add_argument("--trials", type=int, default=100)
    pi.add_argument("--budget", type=int,
                    default=local_goodness.DEFAULT_SEARCH_BUDGET)
    return parser


def _cmd_generate(args, inputs: _Inputs) -> tuple:
    """Emits the bare problem, itself valid input; `main` adds no envelope."""
    if args.kind == "hyp2color":
        hyp = generators.hypergraph_from_obj(inputs.json(args.graph))
        csp = generators.hypergraph_2coloring(hyp)
    elif args.kind == "coloring":
        csp = generators.proper_coloring(inputs.graph(args.graph), args.colors)
    else:
        csp = generators.sinkless_orientation(inputs.graph(args.graph))
    return dump_problem(csp), EXIT_OK


def _cmd_stats(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    stats = csp_stats(csp)
    results = {"stats": stats.to_json()}
    conditions = {
        "classic": lll_condition(stats.p_max, stats.max_dep_degree, "classic").to_json(),
        "double_exp": lll_condition(
            stats.p_max, stats.max_dep_degree, "double_exp"
        ).to_json(),
    }
    if args.s is not None:
        conditions["exponent"] = lll_condition(
            stats.p_max, stats.max_dep_degree, "exponent", parse_rational(args.s)
        ).to_json()
    results["conditions"] = conditions
    return results, EXIT_OK


def _cmd_growth(args, inputs: _Inputs) -> tuple:
    profile = growth_profile(inputs.graph(args.graph), args.r_max)
    return profile.to_json(), EXIT_OK


def _cmd_mta(args, inputs: _Inputs) -> tuple:
    if args.script is not None and args.table is None:
        raise InvalidParameterError("--script needs --table")
    csp = inputs.problem(args.problem)
    strategy = _STRATEGIES[args.strategy](args.seed)
    if args.table is not None:
        table = table_from_json(inputs.json(args.table))
        if args.script is not None:
            strategy = scripted_strategy(_sequence_from_file(inputs, args.script))
        trace = mta_run(csp, table, strategy, args.max_iters)
        results = {
            "status": trace.status,
            "sequence": trace.sequence().to_json(),
            "resamples": trace.total_resamples(),
            "final_labeling": [trace.final_labeling[v] for v in csp.variables],
        }
    else:
        results = mt_monte_carlo(
            csp, args.trials, args.depth, args.seed, strategy, args.max_iters,
            args.jobs,
        )
    return results, EXIT_OK


def _cmd_consistency(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    table = table_from_json(inputs.json(args.table))
    seq = _sequence_from_file(inputs, args.script)
    ok = check_consistency(csp, table, seq)
    return {"consistent": ok}, EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_witness(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    if args.script is not None:
        seq = _sequence_from_file(inputs, args.script)
        g = witness.full_witness_digraph(seq, csp)
        results = {"digraph": g.to_json(), "valid": witness.validate_witness(g, csp)}
        code = EXIT_OK
    elif args.witness is not None:
        g = witness.witness_from_json(inputs.json(args.witness))
        ok = witness.validate_witness(g, csp)
        results = {"valid": ok}
        code = EXIT_OK if ok else EXIT_CHECK_FAILED
    else:
        reps = witness.enumerate_sink_star(args.sink, csp, args.max_vertices, args.cap)
        results = {"count": len(reps), "digraphs": [r.to_json() for r in reps]}
        code = EXIT_OK
    return results, code


def _cmd_verify_mt1(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    g = witness.witness_from_json(inputs.json(args.witness))
    results = witness.verify_mt1(
        g, csp, args.mode, depth=args.depth, cap=args.cap, trials=args.trials,
        seed=args.seed,
    )
    return results, EXIT_OK if results["pass"] else EXIT_CHECK_FAILED


def _cmd_verify_mt2(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    ids = [c.id for c in csp.constraints]
    results = witness.verify_mt2_partial_sums(
        args.c, csp,
        _rational_map(args.alpha, ids), _rational_map(args.beta, ids),
        args.max_vertices, args.cap,
    )
    return results, EXIT_OK if results["pass"] else EXIT_CHECK_FAILED


def _cmd_locally_good(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    table = table_from_json(inputs.json(args.table))
    local = local_goodness.LocalParams(
        args.c, args.R, args.N, parse_rational(args.eps)
    )
    good, found = local_goodness.is_locally_good(csp, table, local, args.budget)
    results = {
        "locally_good": good,
        "witness": None if found is None else found.to_json(),
    }
    return results, EXIT_OK if good else EXIT_CHECK_FAILED


def _cmd_lbad(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    local = local_goodness.LocalParams(
        args.c, args.R, args.N, parse_rational(args.eps), parse_rational(args.eta)
    )
    results = local_goodness.estimate_lbad_prob(
        csp, local, args.depth, args.trials, args.seed,
        parse_rational(args.s), args.budget,
    )
    return results, EXIT_OK if results["pass"] else EXIT_CHECK_FAILED


def _cmd_solve(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    ledger: list | None = [] if args.ledger else None
    labeling = derand.solve_double_exp(csp, ledger)
    results = {"assignment": [labeling[v] for v in csp.variables],
               "is_solution": True}
    if ledger is not None:
        results["ledger"] = [
            dict(entry, mass=format_rational(entry["mass"]),
                 bound=format_rational(entry["bound"]))
            for entry in ledger
        ]
    return results, EXIT_OK


def _cmd_advisor(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    dep = csp.dependency_graph
    p = max((prob_bad(csp, c.id) for c in csp.constraints), default=Fraction(0))
    profile = growth_profile(dep, args.r_max)
    params, report = derand.parameter_advisor(
        p, dep.max_degree(), parse_rational(args.s), profile
    )
    results = {"params": params.to_json(), "analysis": report,
               "growth": profile.to_json()}
    return results, EXIT_OK


# Exit codes of pipeline statuses; any other status is a checked failure.
_PIPELINE_EXITS = {"solved": EXIT_OK, "infeasible": EXIT_CAP}


def _cmd_pipeline(args, inputs: _Inputs) -> tuple:
    csp = inputs.problem(args.problem)
    params = derand.params_from_json(inputs.json(args.params))
    mode = "deterministic" if args.mode == "det" else "randomized"
    results = derand.pipeline(csp, params, mode, args.seed, args.trials, args.budget)
    return results, _PIPELINE_EXITS.get(results["status"], EXIT_CHECK_FAILED)


_COMMANDS = {
    "generate": _cmd_generate,
    "stats": _cmd_stats,
    "growth": _cmd_growth,
    "mta": _cmd_mta,
    "consistency": _cmd_consistency,
    "witness": _cmd_witness,
    "verify-mt1": _cmd_verify_mt1,
    "verify-mt2": _cmd_verify_mt2,
    "locally-good": _cmd_locally_good,
    "lbad": _cmd_lbad,
    "solve": _cmd_solve,
    "advisor": _cmd_advisor,
    "pipeline": _cmd_pipeline,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    inputs = _Inputs()
    started = time.perf_counter()
    try:
        results, code = _COMMANDS[args.command](args, inputs)
        # The envelope carries the command and the seed itself.
        left_out = {"command", "seed"} | _UNREPORTED.get(args.command, set())
        report = results if args.command == "generate" else {
            "command": args.command,
            "inputs": inputs.digests,
            "parameters": {
                k: v for k, v in vars(args).items() if k not in left_out
            },
            "results": results,
            "seed": getattr(args, "seed", None),
            "timing_seconds": time.perf_counter() - started,
        }
        print(json.dumps(report, indent=2, sort_keys=True))
        return code
    except CapExceededError as exc:  # SearchBudgetError included
        print(f"llltool: budget: {exc}", file=sys.stderr)
        return EXIT_CAP
    except (InvalidInputError, InvalidParameterError, DepthExceededError) as exc:
        print(f"llltool: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (HypothesisError, UnsatisfiableConstraintError) as exc:
        print(f"llltool: check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:
        # InternalInvariantError, a bare LllToolError, or any other bug.
        print(f"llltool: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
