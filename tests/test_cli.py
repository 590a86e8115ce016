"""End-to-end checks of the command-line surface.

Commands run in-process through main(argv); stdout is parsed back as JSON.
The mathematical behavior behind each subcommand has its own test module,
so here we only pin the envelope, exit codes, and file round trips.
"""

import hashlib
import json
from fractions import Fraction

import pytest

from conftest import make_csp
from llltool import cli
from llltool.cli import main
from llltool.csp import dump_problem, load_problem
from llltool.derand import PipelineParams
from llltool.errors import InternalInvariantError, LllToolError
from llltool.generators import (
    Hypergraph,
    hypergraph_2coloring,
    proper_coloring,
    sinkless_orientation,
)
from llltool.graphs import graph_from_edges, growth_profile
from llltool.local_goodness import DEFAULT_SEARCH_BUDGET
from llltool.moser_tardos import MtSequence, mta_run, scripted_strategy
from llltool.tables import Table
from llltool.witness import WitnessDigraph, full_witness_digraph

C5_TEXT = "0 1\n1 2\n2 3\n3 4\n0 4\n"


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def write(tmp_path, name, obj):
    path = tmp_path / name
    text = obj if isinstance(obj, str) else json.dumps(obj)
    path.write_text(text)
    return str(path)


def problem_file(tmp_path, csp, name="problem.json"):
    return write(tmp_path, name, dump_problem(csp))


def table_file(tmp_path, rows, name="table.json"):
    columns = {v: tuple(row[v] for row in rows) for v in range(len(rows[0]))}
    return write(tmp_path, name, Table(len(rows), columns).to_json())


def test_generate_matches_the_library_constructors(tmp_path, capsys):
    graph = write(tmp_path, "c5.txt", C5_TEXT)
    code, payload = run(["generate", "--kind", "sinkless", "--graph", graph], capsys)
    assert code == 0
    assert payload == dump_problem(sinkless_orientation(cycle_graph(5)))

    code, payload = run(
        ["generate", "--kind", "coloring", "--graph", graph, "--colors", "3"], capsys
    )
    assert code == 0
    assert payload == dump_problem(proper_coloring(cycle_graph(5), 3))


def test_generate_hypergraph_two_coloring(tmp_path, capsys):
    hyp = write(tmp_path, "hyp.json", {"n": 6, "edges": [[0, 1, 2], [3, 4, 5]]})
    code, payload = run(["generate", "--kind", "hyp2color", "--graph", hyp], capsys)
    assert code == 0
    expected = hypergraph_2coloring(Hypergraph(6, ((0, 1, 2), (3, 4, 5))))
    assert payload == dump_problem(expected)
    # the emitted problem is itself valid CLI input
    load_problem(json.dumps(payload))


def test_report_envelope_carries_digests_and_parameters(tmp_path, capsys):
    csp = proper_coloring(cycle_graph(4), 3)
    path = problem_file(tmp_path, csp)
    code, payload = run(["stats", "--problem", path, "--s", "6/5"], capsys)
    assert code == 0
    assert sorted(payload) == [
        "command", "inputs", "parameters", "results", "seed", "timing_seconds",
    ]
    assert payload["command"] == "stats"
    raw = open(path, encoding="utf-8").read()
    assert payload["inputs"] == {
        path: "sha256:" + hashlib.sha256(raw.encode()).hexdigest()
    }
    assert payload["parameters"] == {"problem": path, "s": "6/5"}
    assert payload["seed"] is None
    assert payload["timing_seconds"] >= 0
    assert sorted(payload["results"]["conditions"]) == [
        "classic", "double_exp", "exponent",
    ]


# One passing invocation per report-emitting command. "{name}" stands for
# an input file written by envelope_inputs; only the seeded commands get
# --seed.
ENVELOPE_ARGV = {
    "stats": ["--problem", "{one}"],
    "growth": ["--graph", "{c5}", "--r-max", "2"],
    "mta": ["--problem", "{one}", "--depth", "3", "--trials", "4", "--seed", "7"],
    "consistency": ["--problem", "{one}", "--table", "{table}", "--script", "{step}"],
    "witness": ["--problem", "{one}", "--script", "{steps}"],
    "verify-mt1": ["--problem", "{one}", "--witness", "{witness}", "--depth", "3",
                   "--mode", "monte_carlo", "--trials", "10", "--seed", "7"],
    "verify-mt2": ["--problem", "{one}", "--c", "0", "--alpha", "1/4",
                   "--beta", "1/2", "--max-vertices", "3"],
    "locally-good": ["--problem", "{sated}", "--table", "{table}", "--c", "0",
                     "--R", "1", "--N", "1", "--eps", "1/2"],
    "lbad": ["--problem", "{sated}", "--c", "0", "--R", "1", "--N", "1",
             "--eps", "1/24", "--eta", "1/64", "--s", "6/5", "--depth", "2",
             "--trials", "5", "--seed", "7"],
    "solve": ["--problem", "{one}", "--method", "double-exp"],
    "advisor": ["--problem", "{sated}", "--s", "6/5", "--r-max", "8"],
    "pipeline": ["--problem", "{sated}", "--params", "{params}", "--trials", "3",
                 "--seed", "7"],
}


@pytest.fixture
def envelope_inputs(tmp_path):
    one = make_csp(1, [((0,), [(1,)])])
    return {
        "one": problem_file(tmp_path, one, "one.json"),
        "sated": problem_file(tmp_path, make_csp(1, [((0,), [])]), "sated.json"),
        "c5": write(tmp_path, "c5.txt", C5_TEXT),
        "table": table_file(tmp_path, [[1], [0], [0]]),
        "step": write(tmp_path, "step.json", [[0]]),
        "steps": write(tmp_path, "steps.json", [[0], [0]]),
        "witness": write(tmp_path, "witness.json", full_witness_digraph(
            MtSequence.from_lists([[0], [0]]), one).to_json()),
        "params": write(tmp_path, "params.json", PipelineParams(
            p=Fraction(0), d=0, s=Fraction(6, 5), eps=Fraction(1, 24),
            eta=Fraction(1, 64), R=1, N=1, depth=2,
        ).to_json()),
    }


def test_every_report_emitting_command_has_an_envelope_case():
    assert set(ENVELOPE_ARGV) == set(cli._COMMANDS) - {"generate"}
    assert set(cli._UNREPORTED) <= set(ENVELOPE_ARGV)


# The parameter keys each report carries, frozen so that a change to the
# reported flags shows here and in the benchmark's pinned fingerprints alike.
REPORTED_KEYS = {
    "stats": {"problem", "s"},
    "growth": {"graph", "r_max"},
    "mta": {"problem", "depth", "trials", "strategy", "jobs"},
    "consistency": {"problem", "table", "script"},
    "witness": {"problem", "max_vertices", "cap", "sink", "script", "witness"},
    "verify-mt1": {"problem", "witness", "mode", "depth", "trials", "cap"},
    "verify-mt2": {"problem", "c", "alpha", "beta", "max_vertices", "cap"},
    "locally-good": {"problem", "table", "c", "R", "N", "eps", "budget"},
    "lbad": {"problem", "c", "R", "N", "eps", "eta", "s", "depth", "trials"},
    "solve": {"problem", "method", "ledger"},
    "advisor": {"problem", "s", "r_max"},
    "pipeline": {"problem", "params", "mode", "trials", "budget"},
}


@pytest.mark.parametrize("command", sorted(ENVELOPE_ARGV))
def test_parameters_are_every_parsed_flag_but_the_seed(
    command, envelope_inputs, capsys
):
    argv = [command] + [a.format(**envelope_inputs) for a in ENVELOPE_ARGV[command]]
    flags = vars(cli.build_parser().parse_args(argv))
    flags.pop("command")
    unreported = cli._UNREPORTED.get(command, set())
    # a stale entry would name no flag of the command
    assert unreported <= set(flags)
    _, payload = run(argv, capsys)
    assert set(payload["parameters"]) == REPORTED_KEYS[command]
    assert payload["parameters"] == {
        k: v for k, v in flags.items() if k != "seed" and k not in unreported
    }


@pytest.mark.parametrize("command", sorted(ENVELOPE_ARGV))
def test_envelope_names_the_command_its_seed_and_each_input(
    command, envelope_inputs, capsys
):
    template = ENVELOPE_ARGV[command]
    argv = [command] + [a.format(**envelope_inputs) for a in template]
    code, payload = run(argv, capsys)
    assert code == 0
    assert payload["command"] == argv[0]
    if "--seed" in argv:
        assert payload["seed"] == 7
    else:
        assert payload["seed"] is None
        # the command defines no --seed at all
        with pytest.raises(SystemExit) as info:
            main(argv + ["--seed", "7"])
        assert info.value.code == 2
        capsys.readouterr()
    read = {envelope_inputs[a[1:-1]] for a in template if a.startswith("{")}
    assert payload["inputs"] == {
        path: "sha256:" + hashlib.sha256(
            open(path, encoding="utf-8").read().encode()
        ).hexdigest()
        for path in read
    }


def test_solve_has_no_pipeline_method(envelope_inputs, capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", envelope_inputs["sated"], "--method",
              "pipeline", "--params", envelope_inputs["params"]])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_growth_matches_the_library_profile(tmp_path, capsys):
    graph = write(tmp_path, "c9.txt",
                  "".join(f"{i} {(i + 1) % 9}\n" for i in range(9)))
    code, payload = run(["growth", "--graph", graph, "--r-max", "4"], capsys)
    assert code == 0
    assert payload["results"] == growth_profile(cycle_graph(9), 4).to_json()


def test_mta_single_table_reports_the_trace(tmp_path, capsys):
    csp = make_csp(1, [((0,), [(1,)])])
    prob = problem_file(tmp_path, csp)
    table = table_file(tmp_path, [[1], [1], [0]])
    code, payload = run(
        ["mta", "--problem", prob, "--depth", "3", "--table", table], capsys
    )
    assert code == 0
    results = payload["results"]
    assert results["status"] == "completed"
    assert results["sequence"] == [[0], [0]]
    assert results["resamples"] == 2
    assert results["final_labeling"] == [0]


def test_mta_scripted_replay_agrees_with_the_library(tmp_path, capsys):
    csp = make_csp(1, [((0,), [(1,)])])
    prob = problem_file(tmp_path, csp)
    table = table_file(tmp_path, [[1], [1], [0]])
    script = write(tmp_path, "script.json", [[0], [0]])
    code, payload = run(
        ["mta", "--problem", prob, "--depth", "3", "--table", table,
         "--script", script],
        capsys,
    )
    assert code == 0
    trace = mta_run(
        csp,
        Table(3, {0: (1, 1, 0)}),
        scripted_strategy(MtSequence.from_lists([[0], [0]])),
    )
    assert payload["results"]["status"] == trace.status
    assert payload["results"]["sequence"] == trace.sequence().to_json()


def test_consistency_exit_code_tracks_the_verdict(tmp_path, capsys):
    csp = make_csp(1, [((0,), [(1,)])])
    prob = problem_file(tmp_path, csp)
    table = table_file(tmp_path, [[1], [0], [0]])
    good = write(tmp_path, "good.json", [[0]])
    code, payload = run(
        ["consistency", "--problem", prob, "--table", table, "--script", good],
        capsys,
    )
    assert code == 0 and payload["results"]["consistent"] is True

    # second firing would need row 1 to be bad, but it holds label 0
    bad = write(tmp_path, "bad.json", [[0], [0]])
    code, payload = run(
        ["consistency", "--problem", prob, "--table", table, "--script", bad],
        capsys,
    )
    assert code == 1 and payload["results"]["consistent"] is False


def test_witness_build_validate_and_enumerate(tmp_path, capsys):
    csp = make_csp(1, [((0,), [(1,)])])
    prob = problem_file(tmp_path, csp)
    script = write(tmp_path, "script.json", [[0], [0]])
    code, payload = run(
        ["witness", "--problem", prob, "--script", script], capsys
    )
    assert code == 0
    assert payload["parameters"] == {
        "problem": prob, "max_vertices": 4, "cap": 100_000, "sink": None,
        "script": script, "witness": None,
    }
    built = payload["results"]["digraph"]
    assert payload["results"]["valid"] is True
    assert built == full_witness_digraph(
        MtSequence.from_lists([[0], [0]]), csp
    ).to_json()

    wfile = write(tmp_path, "witness.json", built)
    code, payload = run(["witness", "--problem", prob, "--witness", wfile], capsys)
    assert code == 0 and payload["results"]["valid"] is True
    assert payload["parameters"]["witness"] == wfile
    assert payload["parameters"]["script"] is None

    # same decoration twice with no connecting edge cannot be a witness
    broken = dict(built)
    broken["edges"] = []
    wbad = write(tmp_path, "broken.json", broken)
    code, payload = run(["witness", "--problem", prob, "--witness", wbad], capsys)
    assert code == 1 and payload["results"]["valid"] is False

    code, payload = run(
        ["witness", "--problem", prob, "--sink", "0", "--max-vertices", "3",
         "--cap", "50"],
        capsys,
    )
    assert code == 0
    assert payload["parameters"]["sink"] == 0
    assert payload["parameters"]["cap"] == 50
    assert payload["results"]["count"] == len(payload["results"]["digraphs"]) == 3


def test_verify_mt1_exact_over_the_cli(tmp_path, capsys):
    csp = make_csp(1, [((0,), [(1,)])])
    prob = problem_file(tmp_path, csp)
    g = full_witness_digraph(MtSequence.from_lists([[0], [0]]), csp)
    wfile = write(tmp_path, "witness.json", g.to_json())
    code, payload = run(
        ["verify-mt1", "--problem", prob, "--witness", wfile, "--depth", "3"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["pass"] is True
    assert Fraction(payload["results"]["lhs"]) == Fraction(1, 4)
    assert payload["parameters"]["cap"] is None

    code, payload = run(
        ["verify-mt1", "--problem", prob, "--witness", wfile, "--depth", "3",
         "--cap", "16"],
        capsys,
    )
    assert code == 0
    assert payload["parameters"]["cap"] == 16


def test_verify_mt2_report_names_its_cap(tmp_path, capsys):
    prob = problem_file(tmp_path, make_csp(1, [((0,), [(1,)])]))
    code, payload = run(
        ["verify-mt2", "--problem", prob, "--c", "0", "--alpha", "1/4",
         "--beta", "1/2", "--max-vertices", "3", "--cap", "10"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["digraphs"] == 3
    assert payload["parameters"] == {
        "problem": prob, "c": 0, "alpha": "1/4", "beta": "1/2",
        "max_vertices": 3, "cap": 10,
    }


def test_verify_mt2_rejected_hypotheses_exit_one(tmp_path, capsys):
    csp = make_csp(1, [((0,), [(1,)])])
    prob = problem_file(tmp_path, csp)
    # isolated constraint: the premise needs alpha <= beta
    code = main(
        ["verify-mt2", "--problem", prob, "--c", "0", "--alpha", "1/2",
         "--beta", "1/4", "--max-vertices", "4"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("llltool: check failed:")


@pytest.mark.parametrize("sink", ["99", "-1"])
def test_sink_ids_that_name_no_constraint_exit_two(tmp_path, capsys, sink):
    prob = problem_file(tmp_path, proper_coloring(cycle_graph(5), 3))
    # a one-vertex witness decorated with the id is refused the same way
    wfile = write(tmp_path, "witness.json",
                  WitnessDigraph((int(sink),), frozenset()).to_json())
    for argv in (
        ["witness", "--problem", prob, "--sink", sink, "--max-vertices", "3"],
        ["verify-mt2", "--problem", prob, "--c", sink, "--alpha", "1/16",
         "--beta", "1/4", "--max-vertices", "3"],
        ["witness", "--problem", prob, "--witness", wfile],
        ["verify-mt1", "--problem", prob, "--witness", wfile, "--depth", "3"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"llltool: error: no constraint with id {sink}\n"


def test_locally_good_exit_codes_and_witness_payload(tmp_path, capsys):
    sated = problem_file(tmp_path, make_csp(1, [((0,), [])]), "sated.json")
    table = table_file(tmp_path, [[0], [0], [0], [0]])
    argv = ["locally-good", "--problem", sated, "--table", table,
            "--c", "0", "--R", "1", "--N", "1", "--eps", "1/2"]
    code, payload = run(argv, capsys)
    assert code == 0
    assert payload["results"] == {"locally_good": True, "witness": None}

    stuck = problem_file(tmp_path, make_csp(1, [((0,), [(0,), (1,)])]), "stuck.json")
    argv = ["locally-good", "--problem", stuck, "--table", table,
            "--c", "0", "--R", "1", "--N", "3", "--eps", "1/2"]
    code, payload = run(argv, capsys)
    assert code == 1
    assert payload["results"]["locally_good"] is False
    assert payload["results"]["witness"] == [[0], [0], [0]]


def test_locally_good_on_a_deep_table_exits_one(tmp_path, capsys):
    prob = problem_file(tmp_path, proper_coloring(cycle_graph(6), 2))
    table = table_file(tmp_path, [[0] * 6] * 1500)
    argv = ["locally-good", "--problem", prob, "--table", table,
            "--c", "0", "--R", "2", "--N", "1400", "--eps", "1/2"]
    code, payload = run(argv, capsys)
    assert code == 1
    assert payload["results"]["locally_good"] is False
    assert payload["results"]["witness"] == [[0]] * 1400


def test_search_budget_exhaustion_exits_three(tmp_path, capsys):
    csp = proper_coloring(cycle_graph(4), 2)
    prob = problem_file(tmp_path, csp)
    table = table_file(tmp_path, [[0, 0, 0, 0], [1, 1, 1, 1], [0, 1, 0, 1]])
    code = main(
        ["locally-good", "--problem", prob, "--table", table, "--c", "0",
         "--R", "1", "--N", "1", "--eps", "1/2", "--budget", "1"]
    )
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("llltool: budget:")


def test_lbad_report_and_exit_zero_on_trivially_good_input(tmp_path, capsys):
    csp = make_csp(2, [((0,), []), ((1,), [])])
    prob = problem_file(tmp_path, csp)
    code, payload = run(
        ["lbad", "--problem", prob, "--c", "0", "--R", "1", "--N", "1",
         "--eps", "1/24", "--eta", "1/64", "--s", "6/5", "--depth", "2",
         "--trials", "20", "--seed", "3"],
        capsys,
    )
    assert code == 0
    assert payload["seed"] == 3
    assert payload["results"]["pass"] is True
    assert payload["results"]["frequency"] == 0.0


def test_solve_double_exp_emits_solution_and_ledger(tmp_path, capsys):
    hyp = write(tmp_path, "hyp.json",
                {"n": 11, "edges": [list(range(6)), list(range(5, 11))]})
    code, generated = run(["generate", "--kind", "hyp2color", "--graph", hyp], capsys)
    assert code == 0
    prob = write(tmp_path, "problem.json", generated)
    code, payload = run(
        ["solve", "--problem", prob, "--method", "double-exp", "--ledger"], capsys
    )
    assert code == 0
    results = payload["results"]
    assert results["is_solution"] is True
    assert len(results["assignment"]) == 11
    assert results["ledger"], "expected at least one induction entry"
    for entry in results["ledger"]:
        assert entry["ok"] is True
        assert Fraction(entry["mass"]) <= Fraction(entry["bound"])


def test_pipeline_exit_codes_follow_the_status(tmp_path, capsys):
    easy = problem_file(tmp_path, make_csp(2, [((0, 1), [])]), "easy.json")
    params = write(tmp_path, "params.json", PipelineParams(
        p=Fraction(0), d=0, s=Fraction(6, 5), eps=Fraction(1, 24),
        eta=Fraction(1, 64), R=1, N=1, depth=2,
    ).to_json())
    code, payload = run(
        ["pipeline", "--problem", easy, "--params", params, "--seed", "1",
         "--trials", "5"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["status"] == "solved"
    assert payload["results"]["is_solution"] is True
    assert payload["parameters"]["budget"] == DEFAULT_SEARCH_BUDGET

    hard = problem_file(tmp_path, proper_coloring(cycle_graph(4), 2), "hard.json")
    det_params = write(tmp_path, "det.json", PipelineParams(
        p=Fraction(1, 2), d=2, s=Fraction(6, 5), eps=Fraction(1, 24),
        eta=Fraction(1, 64), R=1, N=1, depth=40,
    ).to_json())
    code, payload = run(
        ["pipeline", "--problem", hard, "--params", det_params, "--mode", "det"],
        capsys,
    )
    assert code == 3
    assert payload["results"]["status"] == "infeasible"

    # an exhausted locality search is a budget failure, not a cap failure
    edge_csp = proper_coloring(graph_from_edges(2, [(0, 1)]), 2)
    edge = problem_file(tmp_path, edge_csp, "edge.json")
    edge_params = write(tmp_path, "edge_params.json", PipelineParams(
        p=Fraction(1, 2), d=1, s=Fraction(6, 5), eps=Fraction(1, 24),
        eta=Fraction(1, 64), R=1, N=1, depth=2,
    ).to_json())
    code, payload = run(
        ["pipeline", "--problem", edge, "--params", edge_params, "--mode", "det",
         "--budget", "1"],
        capsys,
    )
    assert code == 3
    assert payload["results"]["status"] == "infeasible"
    assert payload["results"]["budget_failed"] == (
        "search exceeded 1 count vectors at c=0, r=0"
    )
    assert "cap_failed" not in payload["results"]

    stuck = problem_file(tmp_path, make_csp(1, [((0,), [(0,), (1,)])]), "stuck.json")
    stuck_params = write(tmp_path, "stuck_params.json", PipelineParams(
        p=Fraction(0), d=0, s=Fraction(6, 5), eps=Fraction(1, 24),
        eta=Fraction(1, 64), R=1, N=1, depth=3,
    ).to_json())
    code, payload = run(
        ["pipeline", "--problem", stuck, "--params", stuck_params, "--seed", "1",
         "--trials", "4"],
        capsys,
    )
    assert code == 1
    assert payload["results"]["status"] == "no_good_table"


def test_usage_errors_exit_two(tmp_path, capsys):
    missing = str(tmp_path / "nowhere.json")
    assert main(["stats", "--problem", missing]) == 2
    assert capsys.readouterr().err.startswith("llltool: error:")

    garbled = write(tmp_path, "garbled.json", "this is not json")
    assert main(["stats", "--problem", garbled]) == 2
    capsys.readouterr()

    prob = problem_file(tmp_path, make_csp(1, [((0,), [])]))
    table = table_file(tmp_path, [[0]])
    assert main(
        ["locally-good", "--problem", prob, "--table", table, "--c", "0",
         "--R", "1", "--N", "1", "--eps", "banana"]
    ) == 2
    capsys.readouterr()

    # a script replays steps on a given table; without one it is refused
    # before the script file is read
    absent = str(tmp_path / "absent-script.json")
    assert main(["mta", "--problem", prob, "--depth", "2", "--script", absent]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "llltool: error: --script needs --table\n"

    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "fault",
    [InternalInvariantError("broken invariant"), LllToolError("bare"),
     RecursionError("too deep")],
)
def test_internal_faults_exit_four(tmp_path, capsys, monkeypatch, fault):
    def explode(csp):
        raise fault

    monkeypatch.setattr(cli, "csp_stats", explode)
    prob = problem_file(tmp_path, make_csp(1, [((0,), [])]))
    assert main(["stats", "--problem", prob]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("llltool: internal error:")
    assert captured.err.count("\n") == 1


def test_advisor_rejects_a_profile_shorter_than_needed(tmp_path, capsys):
    prob = problem_file(tmp_path, proper_coloring(cycle_graph(9), 3))
    code = main(["advisor", "--problem", prob, "--s", "6/5", "--r-max", "8"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("llltool: check failed:")


def test_advisor_needs_a_profile_that_reaches_twice_the_radius(
    tmp_path, capsys
):
    # the dependency graph is a 139-vertex path: gamma(r) = 2r + 1 up to
    # radius 68, and the advisor picks R = 34 at s = 6/5
    prob = problem_file(tmp_path, proper_coloring(path_graph(140), 16))
    argv = ["advisor", "--problem", prob, "--s", "6/5", "--r-max"]
    assert main(argv + ["67"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "profile must reach radius 68" in captured.err
    code, payload = run(argv + ["68"], capsys)
    assert code == 0
    analysis = payload["results"]["analysis"]
    assert (analysis["R"], analysis["gamma2R"]) == (34, 137)


def test_reports_are_deterministic_apart_from_timing(tmp_path, capsys):
    csp = make_csp(1, [((0,), [(1,)])])
    prob = problem_file(tmp_path, csp)
    argv = ["mta", "--problem", prob, "--depth", "4", "--trials", "20",
            "--seed", "11", "--strategy", "random"]
    _, first = run(argv, capsys)
    _, second = run(argv, capsys)
    first.pop("timing_seconds")
    second.pop("timing_seconds")
    assert first == second
