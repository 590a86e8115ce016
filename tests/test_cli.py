"""End-to-end checks of the command-line surface.

Commands run in-process through main(argv); stdout is parsed back as JSON.
The mathematical behavior behind each subcommand has its own test module,
so here we only pin the envelope, exit codes, and file round trips.
"""

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import (
    dump_graph_json,
    make_csp,
    materialize_cap,
    strict_json,
    table_to_json,
)
import llltool
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
from llltool.local_goodness import DEFAULT_SEARCH_BUDGET, lbad_bound
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
    return code, strict_json(out)


def write(tmp_path, name, obj):
    path = tmp_path / name
    text = obj if isinstance(obj, str) else json.dumps(obj)
    path.write_text(text)
    return str(path)


def problem_file(tmp_path, csp, name="problem.json"):
    return write(tmp_path, name, dump_problem(csp))


def table_file(tmp_path, rows, name="table.json"):
    columns = {v: tuple(row[v] for row in rows) for v in range(len(rows[0]))}
    return write(tmp_path, name, table_to_json(Table(len(rows), columns)))


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


def test_generate_reads_a_json_graph_as_the_text_edge_list(tmp_path, capsys):
    text = write(tmp_path, "c5.txt", C5_TEXT)
    graph = write(tmp_path, "c5.json", dump_graph_json(cycle_graph(5)))
    for kind in ("sinkless", "coloring"):
        _, from_text = run(["generate", "--kind", kind, "--graph", text], capsys)
        code, from_json = run(["generate", "--kind", kind, "--graph", graph], capsys)
        assert code == 0
        assert from_json == from_text


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
    "solve": ["--problem", "{one}"],
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
            eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=2,
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
    "verify-mt1": {"problem", "witness", "mode", "depth", "trials"},
    "verify-mt2": {"problem", "c", "alpha", "beta", "max_vertices", "cap"},
    "locally-good": {"problem", "table", "c", "R", "N", "eps", "budget"},
    "lbad": {"problem", "c", "R", "N", "eps", "eta", "s", "depth", "trials"},
    "solve": {"problem", "ledger"},
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


LBAD_ARGV = ["lbad", "--problem", "{sated}", "--c", "0", "--R", "1", "--N", "1",
             "--eps", "1/24", "--depth", "2"]
PIPELINE_ARGV = ["pipeline", "--problem", "{sated}", "--params", "{params}"]

# Refusals of out-of-range flags and unreadable inputs, each with the
# start of its message; "{name}" stands for a file of `refusal_inputs`.
REFUSALS = [
    (["mta", "--problem", "{one}", "--depth", "2", "--trials", "0"],
     "trials must be >= 1"),
    (["mta", "--problem", "{one}", "--depth", "2", "--jobs", "0"],
     "jobs must be >= 1"),
    (LBAD_ARGV + ["--eta", "1/64", "--s", "6/5", "--trials", "0"],
     "trials must be >= 1"),
    (LBAD_ARGV + ["--eta", "2", "--s", "6/5"], "eps and eta must lie in (0,1)"),
    (LBAD_ARGV + ["--eta", "2", "--s", "1"], "s must exceed 1"),
    (["verify-mt1", "--problem", "{one}", "--witness", "{witness}", "--depth", "3",
      "--mode", "monte_carlo", "--trials", "0"], "trials must be >= 1"),
    (["generate", "--kind", "coloring", "--graph", "{c5}", "--colors", "0"],
     "need k >= 1 colors"),
    (["pipeline", "--problem", "{sated}", "--params", "{garbled}"],
     "{garbled} is not valid JSON: "),
    (["verify-mt2", "--problem", "{ring}", "--c", "0", "--alpha", "1/16,1/16",
      "--beta", "1/4", "--max-vertices", "3"],
     "expected 1 or 5 comma-separated rationals, got 2"),
    (PIPELINE_ARGV + ["--trials", "0"], "trials must be >= 1"),
    (PIPELINE_ARGV + ["--mode", "det", "--trials", "0"], "trials must be >= 1"),
]


@pytest.fixture
def refusal_inputs(envelope_inputs, tmp_path):
    ring = proper_coloring(cycle_graph(5), 3)
    return dict(
        envelope_inputs,
        ring=problem_file(tmp_path, ring, "ring.json"),
        garbled=write(tmp_path, "garbled.json", "this is not json"),
    )


@pytest.mark.parametrize("template, message", REFUSALS)
def test_out_of_range_flags_and_unreadable_inputs_exit_two(
    template, message, refusal_inputs, capsys
):
    argv = [a.format(**refusal_inputs) for a in template]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "llltool: error: " + message.format(**refusal_inputs)
    )
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "script", [[5], [None], [[0], "01"], [{"0": 1}], [[True]], [[0.0]], {"0": [0]}]
)
def test_a_script_step_that_is_not_a_list_of_ids_exits_two(tmp_path, capsys, script):
    prob = problem_file(tmp_path, make_csp(1, [((0,), [(1,)])]))
    table = table_file(tmp_path, [[1], [0], [0]])
    path = write(tmp_path, "script.json", script)
    for argv in (
        ["consistency", "--problem", prob, "--table", table, "--script", path],
        ["witness", "--problem", prob, "--script", path],
        ["mta", "--problem", prob, "--depth", "3", "--table", table, "--script", path],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "llltool: error: script must be a JSON list of constraint-id lists\n"
        )


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
    # and the product law is not checked on it
    for mode in ("exact", "monte_carlo"):
        assert main(["verify-mt1", "--problem", prob, "--witness", wbad,
                     "--depth", "3", "--mode", mode]) == 2
        assert capsys.readouterr().err == (
            "llltool: error: digraph is not a witness digraph of the problem\n"
        )

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
    assert "cap" not in payload["parameters"]

    # the materialization cap is the variable's: 2**2 cells fit under 4
    with materialize_cap(4):
        code, again = run(
            ["verify-mt1", "--problem", prob, "--witness", wfile, "--depth", "3"],
            capsys,
        )
    assert code == 0
    assert again["results"] == payload["results"]


def test_verify_mt1_refuses_a_depth_below_one_in_both_modes(tmp_path, capsys):
    # one vertex that reads no cell (an empty domain), and one that reads
    # row 0: neither mode decides anything at a depth below 1
    empty = problem_file(tmp_path, make_csp(1, [((), [()])]), "empty.json")
    one = problem_file(tmp_path, make_csp(1, [((0,), [(1,)])]), "one.json")
    wfile = write(tmp_path, "witness.json",
                  WitnessDigraph((0,), frozenset()).to_json())
    for prob in (empty, one):
        for mode in ("exact", "monte_carlo"):
            for depth in ("-5", "0"):
                assert main(["verify-mt1", "--problem", prob, "--witness", wfile,
                             "--mode", mode, "--depth", depth]) == 2
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err == "llltool: error: depth must be >= 1\n"


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


def test_verify_mt2_takes_one_alpha_per_constraint(tmp_path, capsys):
    ring = problem_file(tmp_path, proper_coloring(cycle_graph(5), 3))
    argv = ["verify-mt2", "--problem", ring, "--c", "0", "--beta", "1/4",
            "--max-vertices", "3", "--alpha"]
    code, single = run(argv + ["1/16"], capsys)
    assert code == 0
    code, listed = run(argv + [",".join(["1/16"] * 5)], capsys)
    assert code == 0
    assert listed["results"] == single["results"]


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
    assert err == (
        "llltool: check failed: alpha exceeds beta times the neighbor slack "
        "at constraints [0]\n"
    )


@pytest.mark.parametrize("sink", ["99", "5", "-1"])
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
        ["lbad", "--problem", prob, "--c", sink, "--R", "1", "--N", "1",
         "--eps", "1/24", "--eta", "1/64", "--s", "6/5", "--depth", "2",
         "--trials", "2"],
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


@pytest.mark.parametrize("label", [-1, 7])
@pytest.mark.parametrize("command", ["mta", "consistency", "locally-good"])
def test_a_table_label_outside_the_problem_exits_two(tmp_path, capsys, command, label):
    # Label 7 is in no bad set, so it would never read as violated.
    prob = problem_file(tmp_path, make_csp(2, [((0, 1), [(0, 0)])]))
    table = table_file(tmp_path, [[label, label], [0, 1]])
    script = write(tmp_path, "script.json", [[0]])
    flags = {
        "mta": ["--depth", "2", "--table", table],
        "consistency": ["--table", table, "--script", script],
        "locally-good": ["--table", table, "--c", "0", "--R", "1", "--N", "1",
                         "--eps", "1/2"],
    }
    assert main([command, "--problem", prob] + flags[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"llltool: error: {table}: table label {label} out of range\n"


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


def test_a_negative_search_budget_exits_two(tmp_path, capsys):
    csp = proper_coloring(graph_from_edges(2, [(0, 1)]), 2)
    prob = problem_file(tmp_path, csp)
    table = table_file(tmp_path, [[0, 0], [1, 1]])
    params = write(tmp_path, "params.json", PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=2,
    ).to_json())
    search = ["--c", "0", "--R", "1", "--N", "1", "--eps", "1/24"]
    for argv in (
        ["locally-good", "--problem", prob, "--table", table, *search],
        ["lbad", "--problem", prob, *search, "--eta", "1/64", "--s", "6/5",
         "--depth", "2", "--trials", "3"],
        ["pipeline", "--problem", prob, "--params", params, "--trials", "3"],
        # refused before any table is checked
        ["pipeline", "--problem", prob, "--params", params, "--trials", "0"],
        ["pipeline", "--problem", prob, "--params", params, "--mode", "det"],
    ):
        assert main(argv + ["--budget", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "llltool: error: budget must be >= 0\n"
    # budget 0 stays legal: the search refuses at its root
    assert main(
        ["locally-good", "--problem", prob, "--table", table, *search,
         "--budget", "0"]
    ) == 3
    assert capsys.readouterr().err == (
        "llltool: budget: search exceeded 0 count vectors at c=0, r=0\n"
    )


def test_lbad_checks_its_search_plan_before_trials_and_hypotheses(tmp_path, capsys):
    prob = problem_file(tmp_path, proper_coloring(graph_from_edges(2, [(0, 1)]), 2))
    lbad = ["lbad", "--problem", prob, "--R", "1", "--N", "1", "--eta", "1/64",
            "--depth", "2"]
    # eps + 1/s < 1 fails, but the unknown constraint is refused first
    assert main(lbad + ["--c", "99", "--eps", "1/2", "--s", "3/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "llltool: error: no constraint with id 99\n"
    assert main(lbad + ["--c", "0", "--eps", "1/24", "--s", "6/5",
                        "--trials", "0", "--budget", "-1"]) == 2
    assert capsys.readouterr().err == "llltool: error: budget must be >= 0\n"


@pytest.mark.parametrize("mode", ["det", "rand"])
def test_pipeline_refuses_a_negative_budget_with_no_constraints(
    tmp_path, capsys, mode
):
    # No constraint, so no search plan checks the budget.
    prob = problem_file(tmp_path, make_csp(2, []))
    params = write(tmp_path, "params.json", PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=2,
    ).to_json())
    argv = ["pipeline", "--problem", prob, "--params", params, "--mode", mode]
    assert main(argv + ["--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "llltool: error: budget must be >= 0\n"
    assert main(argv + ["--budget", "0"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("text, message", [
    ("a b\n", "bad edge line: 'a b'"),
    ("0 1\n1 x\n", "bad edge line: '1 x'"),
    ("0 1.5\n", "bad edge line: '0 1.5'"),
    ('{"n": "5", "edges": [[0, 1]]}', "not an integer: '5'"),
    ('  {"n": 5, "edges": [[0, 9]]}', "edge [0, 9] out of range for n=5"),
    ('{"n": 5, "edges": [[0]]}',
     "malformed graph JSON: not enough values to unpack (expected 2, got 1)"),
])
def test_a_malformed_graph_file_exits_two(tmp_path, capsys, text, message):
    graph = write(tmp_path, "g", text)
    for argv in (["growth", "--graph", graph],
                 ["generate", "--kind", "sinkless", "--graph", graph]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"llltool: error: {message}\n"


@pytest.mark.parametrize("command, text, message", [
    (["stats", "--problem"],
     '{"variables": -3, "labels": {"count": 2}, "constraints": []}',
     "problem variables must be >= 0, got -3"),
    (["generate", "--kind", "hyp2color", "--graph"], '{"n": -2, "edges": []}',
     "hypergraph n must be >= 0, got -2"),
    (["generate", "--kind", "hyp2color", "--graph"], '{"n": 3, "edges": [[]]}',
     "hyperedges must be non-empty"),
    (["growth", "--graph"], '{"n": -1, "edges": []}',
     "graph n must be >= 0, got -1"),
], ids=["negative-variables", "negative-hypergraph-n", "empty-hyperedge",
        "negative-graph-n"])
def test_a_negative_count_or_an_empty_hyperedge_exits_two(
    tmp_path, capsys, command, text, message
):
    assert main(command + [write(tmp_path, "input.json", text)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"llltool: error: {message}\n"


def test_stats_reports_every_condition_in_full(tmp_path, capsys):
    # Three 5-edges in a chain: p = 2/2**5, and the middle edge meets both.
    hyp = Hypergraph(13, ((0, 1, 2, 3, 4), (4, 5, 6, 7, 8), (8, 9, 10, 11, 12)))
    prob = problem_file(tmp_path, hypergraph_2coloring(hyp))
    stats = {
        "order": 5, "vdeg": 2, "max_dep_degree": 2,
        "p_max": "1/16", "p_max_float": 0.0625,
    }
    conditions = {
        "classic": {"variant": "classic", "holds": True, "p": "1/16", "d": 2},
        "double_exp": {"variant": "double_exp", "holds": False, "p": "1/16", "d": 2},
    }
    code, payload = run(["stats", "--problem", prob], capsys)
    assert code == 0
    assert payload["results"] == {"stats": stats, "conditions": conditions}
    code, payload = run(["stats", "--problem", prob, "--s", "3/2"], capsys)
    assert code == 0
    conditions["exponent"] = {
        "variant": "exponent", "holds": False, "p": "1/16", "d": 2, "s": "3/2",
    }
    assert payload["results"] == {"stats": stats, "conditions": conditions}


def test_a_sink_listing_past_the_vertex_pair_cap_exits_three(
    tmp_path, capsys, monkeypatch
):
    # chains of 1 to 1,500 vertices: the first 466 already pass the default
    # cap on vertex pairs, so the listing is refused there, before any
    # digraph is built
    monkeypatch.delenv("LLLTOOL_MATERIALIZE_CAP", raising=False)
    prob = problem_file(tmp_path, make_csp(1, [((0,), [(1,)])]))
    code = main(
        ["witness", "--problem", prob, "--sink", "0", "--max-vertices", "1500"]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert captured.err == (
        "llltool: budget: the first 466 digraphs have 16865705 vertex pairs, "
        f"cap {2**24}\n"
    )


def chain_files(tmp_path):
    """A one-constraint problem and the two-vertex chain witness over it."""
    csp = make_csp(1, [((0,), [(1,)])])
    g = full_witness_digraph(MtSequence.from_lists([[0], [0]]), csp)
    return problem_file(tmp_path, csp), write(tmp_path, "witness.json", g.to_json())


@pytest.mark.parametrize("value", ["abc", "-5"])
def test_a_malformed_materialization_cap_exits_two(
    tmp_path, capsys, monkeypatch, value
):
    monkeypatch.setenv("LLLTOOL_MATERIALIZE_CAP", value)
    prob, wfile = chain_files(tmp_path)
    for argv in (
        ["witness", "--problem", prob, "--sink", "0", "--max-vertices", "2"],
        ["verify-mt1", "--problem", prob, "--witness", wfile, "--depth", "3"],
    ):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "llltool: error: LLLTOOL_MATERIALIZE_CAP must be an integer >= 0, "
            f"not {value!r}\n"
        )


def test_a_zero_materialization_cap_is_a_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("LLLTOOL_MATERIALIZE_CAP", "0")
    prob, wfile = chain_files(tmp_path)
    # one vertex has no vertex pair, so the listing fits a cap of 0
    code, payload = run(
        ["witness", "--problem", prob, "--sink", "0", "--max-vertices", "1"], capsys
    )
    assert code == 0 and payload["results"]["count"] == 1
    for argv, message in (
        (["witness", "--problem", prob, "--sink", "0", "--max-vertices", "2"],
         "the first 2 digraphs have 1 vertex pairs, cap 0"),
        (["verify-mt1", "--problem", prob, "--witness", wfile, "--depth", "3"],
         "2**2 cell assignments exceed cap 0"),
    ):
        assert main(argv) == 3
        assert capsys.readouterr().err == f"llltool: budget: {message}\n"


def test_a_negative_cap_exits_two(tmp_path, capsys):
    prob, wfile = chain_files(tmp_path)
    mt2 = ["verify-mt2", "--problem", prob, "--c", "0", "--max-vertices", "3"]
    commands = (
        ["witness", "--problem", prob, "--sink", "0", "--max-vertices", "3"],
        mt2 + ["--alpha", "1/4", "--beta", "1/2"],
    )
    # refused before the premise of verify-mt2 is checked, too
    for argv in commands + (mt2 + ["--alpha", "1/2", "--beta", "1/4"],):
        assert main(argv + ["--cap", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "llltool: error: cap must be >= 0\n"
    # cap 0 stays legal and refuses as any cap does
    for argv in commands:
        assert main(argv + ["--cap", "0"]) == 3
        assert capsys.readouterr().err == (
            "llltool: budget: more than 0 representatives\n"
        )
    # verify-mt1 has no --cap: it reads the materialization cap
    mt1 = ["verify-mt1", "--problem", prob, "--witness", wfile, "--depth", "3"]
    with pytest.raises(SystemExit):
        main(mt1 + ["--cap", "0"])
    capsys.readouterr()
    with materialize_cap(0):
        assert main(mt1) == 3
    assert capsys.readouterr().err == (
        "llltool: budget: 2**2 cell assignments exceed cap 0\n"
    )


def test_a_negative_iteration_cap_exits_two(tmp_path, capsys):
    prob = problem_file(tmp_path, proper_coloring(cycle_graph(5), 3))
    table = table_file(tmp_path, [[0] * 5, [1, 2, 1, 2, 0], [2] * 5])
    runs = ["mta", "--problem", prob, "--depth", "3", "--trials", "5"]
    single = ["mta", "--problem", prob, "--depth", "3", "--table", table]
    for argv in (runs, single):
        assert main(argv + ["--max-iters", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "llltool: error: max_iters must be >= 0\n"
    # 0 stays legal: a run with a violation stops at once
    code, payload = run(runs + ["--max-iters", "0"], capsys)
    assert code == 0
    assert sum(payload["results"]["statuses"].values()) == 5
    code, payload = run(single + ["--max-iters", "0"], capsys)
    assert code == 0
    assert payload["results"]["status"] == "iteration_cap"
    assert payload["results"]["sequence"] == []


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


def two_edge_hypergraph(tmp_path, capsys) -> str:
    """The 2-colouring of two 6-edges sharing a vertex, as a problem file."""
    hyp = write(tmp_path, "hyp.json",
                {"n": 11, "edges": [list(range(6)), list(range(5, 11))]})
    code, generated = run(["generate", "--kind", "hyp2color", "--graph", hyp], capsys)
    assert code == 0
    return write(tmp_path, "problem.json", generated)


def test_solve_double_exp_emits_solution_and_ledger(tmp_path, capsys):
    prob = two_edge_hypergraph(tmp_path, capsys)
    code, payload = run(["solve", "--problem", prob, "--ledger"], capsys)
    assert code == 0
    results = payload["results"]
    assert results["is_solution"] is True
    assert len(results["assignment"]) == 11
    assert results["ledger"], "expected at least one induction entry"
    for entry in results["ledger"]:
        assert entry["ok"] is True
        assert Fraction(entry["mass"]) <= Fraction(entry["bound"])


def test_solve_takes_no_method(tmp_path, capsys):
    # There is one solver, so there is nothing to choose: `--method` is
    # refused, and the results stay pinned.
    prob = two_edge_hypergraph(tmp_path, capsys)
    code, payload = run(["solve", "--problem", prob, "--ledger"], capsys)
    assert code == 0
    assert payload["parameters"] == {"problem": prob, "ledger": True}
    results = payload["results"]
    assert results["assignment"] == [0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0]
    assert [
        (e["class_index"], e["constraint"], e["k"], e["mass"], e["bound"])
        for e in results["ledger"]
    ] == [(0, 0, 1, "0", "1/16"), (0, 1, 1, "1/32", "1/16"),
          (1, 0, 2, "0", "1/8"), (1, 1, 2, "0", "1/8")]
    with pytest.raises(SystemExit) as info:
        main(["solve", "--problem", prob, "--method", "double-exp"])
    assert info.value.code == 2
    assert capsys.readouterr().out == ""


def test_advisor_params_run_through_the_pipeline(tmp_path, capsys):
    prob = two_edge_hypergraph(tmp_path, capsys)
    code, payload = run(["advisor", "--problem", prob, "--s", "2"], capsys)
    assert code == 0
    advised = payload["results"]["params"]
    assert sorted(advised) == ["N", "R", "depth", "eps", "eta"]
    params = write(tmp_path, "params.json", advised)
    code, payload = run(
        ["pipeline", "--problem", prob, "--params", params, "--seed", "7",
         "--trials", "3"],
        capsys,
    )
    assert code == 0
    assert payload["results"]["params"] == advised
    assert payload["results"]["status"] == "solved"


def test_pipeline_exit_codes_follow_the_status(tmp_path, capsys):
    easy = problem_file(tmp_path, make_csp(2, [((0, 1), [])]), "easy.json")
    params = write(tmp_path, "params.json", PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=2,
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
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=40,
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
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=2,
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
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=3,
    ).to_json())
    code, payload = run(
        ["pipeline", "--problem", stuck, "--params", stuck_params, "--seed", "1",
         "--trials", "4"],
        capsys,
    )
    assert code == 1
    assert payload["results"]["status"] == "no_good_table"


def test_a_constraint_bad_on_every_labeling_is_a_checked_failure(tmp_path, capsys):
    prob = problem_file(tmp_path, make_csp(1, [((0,), [(0,), (1,)])]))
    params = write(tmp_path, "params.json", PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 2), R=1, N=1, depth=3,
    ).to_json())
    code, payload = run(["stats", "--problem", prob, "--s", "3/2"], capsys)
    assert code == 0
    conditions = payload["results"]["conditions"]
    assert [entry["holds"] for entry in conditions.values()] == [False] * 3
    for argv, message in (
        (["advisor", "--problem", prob, "--s", "3/2"], "p(e(d+1))^s < 1 fails"),
        (["solve", "--problem", prob], "constraint 0 is violated by every labeling"),
    ):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"llltool: check failed: {message}\n"
    # both modes of the pipeline report the same status and exit code
    code, payload = run(
        ["pipeline", "--problem", prob, "--params", params, "--mode", "det"], capsys
    )
    assert code == 1
    assert payload["results"]["status"] == "no_good_table"
    assert payload["results"]["reason"] == "constraint 0 is violated by every labeling"
    code, payload = run(
        ["pipeline", "--problem", prob, "--params", params, "--trials", "4"], capsys
    )
    assert code == 1
    assert payload["results"]["status"] == "no_good_table"
    assert payload["results"]["attempts"] == 4


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

    monkeypatch.setattr(cli, "max_bad_mass", explode)
    prob = problem_file(tmp_path, make_csp(1, [((0,), [])]))
    assert main(["stats", "--problem", prob]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("llltool: internal error:")
    assert captured.err.count("\n") == 1


def exact_of(text):
    """A rational report string read back whole; `Fraction(text)` refuses
    past the interpreter's limit on int-from-str conversion."""
    top, _, bottom = text.partition("/")
    return Fraction(int(Decimal(top)), int(Decimal(bottom or "1")))


def huge_value_case(tmp_path, name):
    """(argv, exact values the report must carry) of one input whose exact
    values pass the int-to-str limit (4,300 digits) or the float range."""
    one = problem_file(tmp_path, make_csp(1, [((0,), [(0,)])]))
    if name == "lbad-bound-digits":
        # circulant(10, {1, 2}): the 4-regular ring, so d = 4 and gamma(1) = 5
        ring = [(i, (i + k) % 10) for i in range(10) for k in (1, 2)]
        prob = problem_file(tmp_path, sinkless_orientation(graph_from_edges(10, ring)))
        argv = ["lbad", "--problem", prob, "--c", "0", "--R", "1", "--N", "3000",
                "--eps", "1/32", "--eta", "1/64", "--s", "21/20", "--depth", "3",
                "--trials", "10"]
        return argv, {"bound_exact": lbad_bound(4, Fraction(1, 64), 1, 5, 3000)}
    if name == "mt2-partial-sum-digits":
        alpha = Fraction(1, 2**30)
        argv = ["verify-mt2", "--problem", one, "--c", "0", "--alpha", "1/1073741824",
                "--beta", "1/2", "--max-vertices", "500"]
        partial = sum(alpha**n for n in range(1, 501))
        return argv, {"partial_sum_exact": partial, "bound_exact": 1}
    if name == "mt2-bound-past-float":
        beta = f"{10**400 - 1}/{10**400}"
        argv = ["verify-mt2", "--problem", one, "--c", "0", "--alpha", "1/2",
                "--beta", beta, "--max-vertices", "3"]
        return argv, {"partial_sum_exact": Fraction(7, 8), "bound_exact": 10**400 - 1}
    if name == "pipeline-row-count-digits":
        triangle = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
        prob = problem_file(tmp_path, proper_coloring(triangle, 3))
        params = write(tmp_path, "params.json",
                       {"eps": "1/2", "eta": "1/2", "R": 1, "N": 5, "depth": 10000})
        return ["pipeline", "--problem", prob, "--params", params, "--mode", "det"], {}
    # p = 1/4 on a star of 150 constraints (d = 149): p(d+1)^(d+1) > 1e308
    star = make_csp(151, [((0, i + 1), [(0, 0)]) for i in range(150)])
    return ["solve", "--problem", problem_file(tmp_path, star)], {}


# The exit codes each input may end in; none may end in 4.
HUGE_VALUE_EXITS = {
    "lbad-bound-digits": (0, 1),
    "mt2-partial-sum-digits": (0, 1),
    "mt2-bound-past-float": (0, 1),
    "pipeline-row-count-digits": (3,),
    "solve-premise-past-float": (2,),
}


@pytest.mark.parametrize("name", HUGE_VALUE_EXITS)
def test_huge_exact_values_print_in_full_and_floats_stay_finite(tmp_path, capsys, name):
    argv, exact = huge_value_case(tmp_path, name)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in HUGE_VALUE_EXITS[name], err
    if code == 2:
        assert err == (
            f"llltool: error: p(d+1)^(d+1) = {sys.float_info.max} is not < 1\n"
        )
        return
    results = strict_json(out)["results"]
    if code == 3:
        assert results["status"] == "infeasible"
        # 30,000 free cells of 3 labels each
        count = results["cap_failed"].split(" needs ")[1].split(" rows")[0]
        assert int(Decimal(count)) == 3**30000
        return
    for key, text in results.items():
        if key.endswith("_exact"):
            assert exact_of(text) == exact[key], key
    assert sorted(k for k in results if k.endswith("_exact")) == sorted(exact)
    if name == "mt2-bound-past-float":
        assert results["bound"] == sys.float_info.max


def test_integers_past_the_digit_limit_are_still_refused_on_input(tmp_path, capsys):
    # Reports print every digit, but parsing keeps the interpreter's limit.
    huge = "1" + "0" * 5000
    prob = problem_file(tmp_path, make_csp(1, [((0,), [(1,)])]))
    text = open(prob, encoding="utf-8").read().replace("[[1]]", f"[[{huge}]]")
    assert main(["stats", "--problem", write(tmp_path, "huge.json", text)]) == 2
    assert "not valid JSON" in capsys.readouterr().err
    assert main(["stats", "--problem", prob, "--s", huge]) == 2
    assert "not a rational" in capsys.readouterr().err


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


@pytest.mark.parametrize("problem, s, r_max, advice", [
    # the sinkless orientation of circulant(10, {1, 2})
    ("ring", "21/20", 100_000, ("62533/2625063", "1/32", 96, 971, 4856)),
    # the 64-colouring of the 200-vertex path
    ("path", "1001/1000", 20_000,
     ("18079/28607579", "1/2048", 8374, 2_341_617, 7_024_852)),
])
def test_advisor_on_a_long_profile(tmp_path, capsys, problem, s, r_max, advice):
    # A flat profile puts the proxy radius at r_max; the advice is the
    # one the integer-root advisor gave.
    csp = {
        "ring": lambda: sinkless_orientation(graph_from_edges(
            10, [(i, (i + k) % 10) for i in range(10) for k in (1, 2)]
        )),
        "path": lambda: proper_coloring(path_graph(200), 64),
    }[problem]()
    prob = problem_file(tmp_path, csp)
    code, payload = run(
        ["advisor", "--problem", prob, "--s", s, "--r-max", str(r_max)], capsys
    )
    assert code == 0
    analysis = payload["results"]["analysis"]
    assert tuple(analysis[k] for k in ("eps", "eta", "R", "N", "depth")) == advice


def test_advisor_refuses_a_problem_with_no_constraints(tmp_path, capsys):
    prob = problem_file(tmp_path, make_csp(2, []))
    assert main(["advisor", "--problem", prob, "--s", "3/2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("llltool: error: the problem has no constraints")


def test_one_parser_serves_back_to_back_commands(
    envelope_inputs, capsys, monkeypatch
):
    assert cli._parser() is cli._parser()
    argvs = [[command] + [a.format(**envelope_inputs) for a in template]
             for command, template in sorted(ENVELOPE_ARGV.items())]

    def reports():
        out = []
        for argv in argvs:
            code, payload = run(argv, capsys)
            payload.pop("timing_seconds")
            out.append((code, payload))
        return out

    cached = reports()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert cached == reports()


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


def test_many_jobs_on_one_trial_start_no_pool(tmp_path, capsys, monkeypatch):
    def no_pool(max_workers):
        raise AssertionError(f"pool of {max_workers} workers started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    prob = problem_file(tmp_path, make_csp(2, [((0, 1), [(0, 0)])]))
    argv = ["mta", "--problem", prob, "--depth", "4", "--trials", "1", "--seed", "3"]
    code, many = run(argv + ["--jobs", "10000"], capsys)
    assert code == 0 and many["parameters"]["jobs"] == 10000
    _, one = run(argv, capsys)
    assert many["results"] == one["results"]


def test_mta_results_do_not_depend_on_the_worker_count(tmp_path, capsys, monkeypatch):
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    prob = problem_file(tmp_path, make_csp(2, [((0, 1), [(0, 0)])]))
    argv = ["mta", "--problem", prob, "--depth", "4", "--trials", "6", "--seed", "3"]
    code, pooled = run(argv + ["--jobs", "2"], capsys)
    assert code == 0
    assert started == [2]
    _, serial = run(argv, capsys)
    assert pooled["results"] == serial["results"]


def test_the_package_runs_as_a_module(tmp_path):
    prob = problem_file(tmp_path, make_csp(1, [((0,), [(1,)])]))
    src = os.path.dirname(os.path.dirname(os.path.abspath(llltool.__file__)))
    done = subprocess.run(
        [sys.executable, "-m", "llltool", "stats", "--problem", prob],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
    assert strict_json(done.stdout)["command"] == "stats"
