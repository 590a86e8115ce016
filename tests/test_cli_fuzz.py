"""Crash-freedom gate for the command line.

Seeded random small problems, tables, scripts, witnesses and pipeline
parameters are fed to every report-emitting subcommand under small caps
and budgets, the materialization cap included: `LLLTOOL_MATERIALIZE_CAP`
is at most 4096 in every run, where the default 2**24 would let a
deterministic `pipeline` list millions of meta-rows. Whatever the input,
`main` must exit 0, 1, 2 or 3, never 4 (an internal fault); on exit 0
its report parses back as strict JSON and names its command, and
`generate`'s problem loads back. Malformed script and table shapes,
integers of the problem, table and witness given as floats, numeric
strings or bools, graph files given as JSON or with a malformed edge,
and `generate`'s kind come from a second rng, so they leave the other
draws as they are. So do a negative problem `variables`, on which every
command that reads the problem must exit 2, and the hypergraph files of
`generate --kind hyp2color`, which must exit 2 exactly when n is
negative or an edge is empty. A third rng of its own now and then
gives a table, witness or hypergraph file of the wrong structure, one
that lacks a required key (a table's `depth` or `rows`, a witness's
`edges` or a vertex's `constraint`, a hypergraph's `n`) or is a list or
null at the top; every command that reads it must exit 2.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

from conftest import materialize_cap, strict_json
from llltool.cli import main
from llltool.csp import load_problem

SEEDS = tuple(range(1, 17))
ROUNDS = 25

# Weight vectors per label count (None: uniform); the zero weights are
# refused at load.
WEIGHTS = {
    1: [["1"], None],
    2: [["1/2", "1/2"], ["1/4", "3/4"], None],
    3: [["1/3", "1/3", "1/3"], ["1/2", "1/4", "1/4"], None],
}
ZERO_WEIGHTS = {1: ["0"], 2: ["0", "1"], 3: ["0", "1/2", "1/2"]}


def pick(rng, legal, illegal):
    """Mostly a legal value, now and then one that must be refused."""
    return rng.choice(illegal if rng.random() < 0.1 else legal)


def random_problem(rng):
    n = rng.randint(0, 5)
    k = rng.randint(1, 3)
    constraints = []
    for cid in range(rng.randint(0, 4) if n else 0):
        domain = sorted(rng.sample(range(n), rng.randint(0, min(n, 3))))
        if rng.random() < 0.05:
            domain.reverse()  # refused at load when it has two variables
        if rng.random() < 0.05:
            bad = "always"
        else:
            # rows are drawn with repeats, now and then as many as there are
            rows = pick(rng, range(k ** len(domain)), [k ** len(domain)])
            bad = [[rng.randrange(k) for _ in domain] for _ in range(rows)]
        constraints.append({"id": cid, "domain": domain, "bad": bad})
    weights = rng.choice(WEIGHTS[k]) if rng.random() < 0.95 else ZERO_WEIGHTS[k]
    problem = {
        "variables": n,
        "labels": {"count": k, "weights": weights},
        "constraints": constraints,
    }
    return problem, n, k, len(constraints)


def random_table(rng, n, k):
    depth = rng.randint(1, 4)
    # now and then a label out of range or a variable missing
    top = k if rng.random() < 0.1 else k - 1
    variables = [v for v in range(n) if rng.random() < 0.95]
    rows = [[rng.randint(0, top) for _ in variables] for _ in range(depth)]
    return {"depth": depth, "variables": variables, "rows": rows}


def random_script(rng, m):
    top = m if rng.random() < 0.1 else m - 1
    return [
        sorted(rng.sample(range(max(top + 1, 1)), rng.randint(0, min(2, top + 1))))
        for _ in range(rng.randint(0, 4))
    ]


def malform(odd, table, script):
    """Now and then a shape the parsers must refuse: a script step that is
    an int, null or a string, a repeated table variable, a table row of
    the wrong length or given as a string. `odd` is an rng of its own, so
    the other inputs are drawn as they would be without it."""
    if script and odd.random() < 0.1:
        script[odd.randrange(len(script))] = odd.choice([1, None, "01"])
    variables, rows = table["variables"], table["rows"]
    if variables and odd.random() < 0.05:
        variables.append(variables[0])
        for row in rows:
            row.append(0)
    if odd.random() < 0.1:
        r = odd.randrange(len(rows))
        rows[r] = odd.choice([rows[r] + [0], "".join(map(str, rows[r])) or "0"])


def integer_slots(problem, table, witness):
    """Every (container, key) whose value the parsers read as an integer."""
    slots = [(problem, "variables"), (problem["labels"], "count"), (table, "depth")]
    for c in problem["constraints"]:
        slots.append((c, "id"))
        slots += [(c["domain"], i) for i in range(len(c["domain"]))]
        if c["bad"] != "always":
            slots += [(row, i) for row in c["bad"] for i in range(len(row))]
    slots += [(table["variables"], i) for i in range(len(table["variables"]))]
    slots += [(row, i) for row in table["rows"] if isinstance(row, list)
              for i in range(len(row))]
    for vertex in witness["vertices"]:
        slots += [(vertex, "id"), (vertex, "constraint")]
    slots += [(edge, i) for edge in witness["edges"] for i in (0, 1)]
    return slots


def misshape_integer(odd, problem, table, witness):
    """Now and then an integer the parsers must refuse: as a float, a
    numeric string or a bool. Drawn from `odd` alone, as in `malform`."""
    if odd.random() < 0.15:
        container, key = odd.choice(integer_slots(problem, table, witness))
        value = container[key]
        container[key] = odd.choice([value + 0.5, float(value), str(value), bool(value)])


def random_witness(rng, m):
    size = rng.randint(0, 4) if m else 0
    vertices = [{"id": i, "constraint": rng.randrange(m)} for i in range(size)]
    edges = [
        [a, b] for a in range(size) for b in range(size)
        if a != b and rng.random() < 0.3
    ]
    return {"vertices": vertices, "edges": edges}


def random_params(rng):
    params = {
        "p": rng.choice(["0", "1/24", "1/2"]),
        "d": rng.randint(0, 2),
        "s": rng.choice(["6/5", "2"]),
        "eps": rng.choice(["1/24", "1/2"]),
        "eta": rng.choice(["1/64", "1/2"]),
        "R": rng.randint(0, 2),
        "N": rng.randint(1, 2),
        "depth": rng.randint(1, 3),
    }
    key = rng.choice(sorted(params))
    if rng.random() < 0.3:  # one field out of its range, or malformed
        params[key] = rng.choice(["-1", "1", "3/2", -1, 0, None, "x"])
    elif rng.random() < 0.05:
        del params[key]
    return params


def random_graph(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = rng.sample(pairs, rng.randint(0, len(pairs)))
    return "".join(f"{u} {v}\n" for u, v in edges)


def malform_graph(odd, text):
    """Now and then the edge list as a JSON graph, whose n may be a string
    or too small and whose first edge may be no pair, or a text line the
    reader must refuse. Drawn from `odd` alone, as in `malform`."""
    if odd.random() < 0.2:
        edges = [list(map(int, line.split())) for line in text.splitlines()]
        n = 1 + max((v for edge in edges for v in edge), default=-1)
        if edges and odd.random() < 0.3:
            edges[0] = odd.choice([edges[0][:1], edges[0] + [0]])
        return json.dumps({"n": odd.choice([n, n, str(n), n - 1]), "edges": edges})
    if odd.random() < 0.1:
        text += odd.choice(["a b\n", "1 x\n", "0 1.5\n", "0 1 2\n"])
    return text


def random_hypergraph(odd):
    """A hypergraph file and whether it must be refused: now and then its
    n is negative or one of its edges is empty. Drawn from `odd` alone,
    as in `malform`."""
    n = odd.randint(1, 6)
    edges = [sorted(odd.sample(range(n), odd.randint(1, min(n, 3))))
             for _ in range(odd.randint(0, 3))]
    refused = odd.random() < 0.2
    if refused and odd.random() < 0.5:
        n = -odd.randint(1, 3)
    elif refused:
        edges.insert(odd.randrange(len(edges) + 1), [])
    return json.dumps({"n": n, "edges": edges}), refused


def misshapen(shape, contents):
    """Now and then (kind, text): the table, witness or hypergraph of
    `contents` with a required key removed, or a list or null in its
    place; otherwise None. Drawn from `shape` alone, as in `malform`."""
    if shape.random() >= 0.25:
        return None
    kind = shape.choice(["table", "witness", "hypergraph"])
    obj = json.loads(contents[kind])
    if shape.random() < 0.3:
        return kind, json.dumps(shape.choice([[obj], None]))
    if kind == "table":
        del obj[shape.choice(["depth", "rows"])]
    elif kind == "hypergraph":
        del obj["n"]
    elif obj["vertices"] and shape.random() < 0.5:
        del shape.choice(obj["vertices"])["constraint"]
    else:
        del obj["edges"]
    return kind, json.dumps(obj)


def readers(kind, files, path):
    """Every argv that reads the `kind` file at `path`."""
    problem = ["--problem", files["problem"]]
    return {
        "table": [
            ["mta"] + problem + ["--depth", "1", "--table", path],
            ["consistency"] + problem + ["--table", path, "--script", files["script"]],
            ["locally-good"] + problem + ["--table", path, "--c", "0", "--R", "1",
                                          "--N", "1", "--eps", "1/2"],
        ],
        "witness": [
            ["witness"] + problem + ["--witness", path],
            ["verify-mt1"] + problem + ["--witness", path, "--depth", "1"],
        ],
        "hypergraph": [["generate", "--kind", "hyp2color", "--graph", path]],
    }[kind]


def commands(rng, files, m):
    """One argv per report-emitting subcommand, small caps and budgets."""
    c = str(pick(rng, range(max(m, 1)), [-1, m]))
    depth = str(pick(rng, [1, 2, 3, 4], [0]))
    budget = str(rng.choice([1, 10, 1000]))

    def small():
        return str(pick(rng, range(1, 9), [0, -1]))

    table, script, witness = files["table"], files["script"], files["witness"]
    problem = ["--problem", files["problem"]]
    return [
        ["stats"] + problem + (["--s", pick(rng, ["6/5", "2"], ["1", "x"])]
                               if rng.random() < 0.5 else []),
        ["growth", "--graph", files["graph"], "--r-max", small()],
        ["mta"] + problem + ["--depth", depth, "--trials", "3",
                             "--strategy", rng.choice(["mmta", "random", "first"])],
        ["mta"] + problem + ["--depth", depth, "--table", table, "--max-iters", "6"]
        + (["--script", script] if rng.random() < 0.5 else []),
        ["consistency"] + problem + ["--table", table, "--script", script],
        ["witness"] + problem + ["--script", script],
        ["witness"] + problem + ["--witness", witness],
        ["witness"] + problem + ["--sink", c, "--max-vertices", small(),
                                 "--cap", small()],
        ["verify-mt1"] + problem + ["--witness", witness, "--depth", depth],
        ["verify-mt1"] + problem + ["--witness", witness, "--depth", depth,
                                    "--mode", "monte_carlo", "--trials", "5"],
        ["verify-mt2"] + problem + ["--c", c,
                                    "--alpha", pick(rng, ["1/2", "1/8"], ["1"]),
                                    "--beta", pick(rng, ["1/2", "0"], ["1"]),
                                    "--max-vertices", small(), "--cap", small()],
        ["locally-good"] + problem + ["--table", table, "--c", c,
                                      "--R", small(), "--N", small(),
                                      "--eps", pick(rng, ["1/2", "1/24"], ["0", "1"]),
                                      "--budget", budget],
        ["lbad"] + problem + ["--c", c, "--R", str(rng.randint(0, 2)),
                              "--N", str(pick(rng, [1, 2], [0])), "--eps", "1/2",
                              "--eta", pick(rng, ["1/64", "1/2"], ["0"]),
                              "--s", pick(rng, ["6/5", "2"], ["1"]), "--depth", depth,
                              "--trials", "3", "--budget", budget],
        ["solve"] + problem + (["--ledger"] if rng.random() < 0.5 else []),
        ["advisor"] + problem + ["--s", pick(rng, ["6/5", "2"], ["1"]),
                                 "--r-max", small()],
        ["pipeline"] + problem + ["--params", files["params"],
                                  "--mode", rng.choice(["det", "rand"]),
                                  "--trials", "2", "--budget", budget],
    ]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_no_random_input_crashes_the_cli(tmp_path):
    seen_codes = set()
    commanded = set()
    refused_by_the_cap = set()  # commands with no --cap that the variable stopped
    negatives = refused_hypergraphs = 0
    misshapen_kinds = set()
    for seed in SEEDS:
        rng = random.Random(seed)
        odd = random.Random(f"malformed {seed}")
        shape = random.Random(f"misshapen {seed}")
        for _ in range(ROUNDS):
            problem, n, k, m = random_problem(rng)
            table, script = random_table(rng, n, k), random_script(rng, m)
            malform(odd, table, script)
            witness = random_witness(rng, m)
            misshape_integer(odd, problem, table, witness)
            negative = odd.random() < 0.05
            if negative:
                problem["variables"] = -odd.randint(1, 3)
            hypergraph, hypergraph_refused = random_hypergraph(odd)
            contents = {
                "problem": json.dumps(problem),
                "table": json.dumps(table),
                "script": json.dumps(script),
                "witness": json.dumps(witness),
                "params": json.dumps(random_params(rng)),
                "graph": malform_graph(odd, random_graph(rng, rng.randint(0, 6))),
                "hypergraph": hypergraph,
            }
            files = {}
            for name, text in contents.items():
                path = tmp_path / f"{name}.json"
                path.write_text(text)
                files[name] = str(path)
            cap = rng.choice([0, 1, 4, 16, 4096, 4096])
            generate = ["generate", "--kind", odd.choice(["coloring", "sinkless"]),
                        "--graph", files["graph"]]
            hyp2color = ["generate", "--kind", "hyp2color",
                         "--graph", files["hypergraph"]]
            negatives += negative
            refused_hypergraphs += hypergraph_refused
            refused = []
            drawn = misshapen(shape, contents)
            if drawn:
                kind, text = drawn
                path = tmp_path / "misshapen.json"
                path.write_text(text)
                refused = readers(kind, files, str(path))
                misshapen_kinds.add(kind)
            with materialize_cap(cap):
                for argv in refused:
                    code, out, err = run_main(argv)
                    assert code == 2, (seed, cap, argv, err, contents, text)
                for argv in commands(rng, files, m) + [generate, hyp2color]:
                    code, out, err = run_main(argv)
                    context = (seed, cap, argv, err, contents)
                    assert code in (0, 1, 2, 3), context
                    if negative and "--problem" in argv:
                        assert code == 2, context
                    if argv is hyp2color:
                        assert (code == 2) == hypergraph_refused, context
                    if code == 0 and argv[0] == "generate":
                        load_problem(out)  # the bare problem, no envelope
                    elif code == 0:
                        report = strict_json(out)
                        assert report["command"] == argv[0], context
                    seen_codes.add(code)
                    commanded.add(argv[0])
                    if code == 3 and "--cap" not in argv and f"cap {cap}" in err + out:
                        refused_by_the_cap.add(argv[0])
    assert seen_codes == {0, 1, 2, 3}
    assert len(commanded) == 13
    assert refused_by_the_cap == {"pipeline", "verify-mt1"}
    assert negatives > 0 and refused_hypergraphs > 0
    assert misshapen_kinds == {"table", "witness", "hypergraph"}
