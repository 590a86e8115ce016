"""Top-level verification battery: one test per numbered acceptance check.

Each test re-derives its expectation from first principles (exact
rationals, brute-force oracles from conftest, or frozen constants that
were computed once by the same oracles) and states its scale, so a
passing line certifies the check at the advertised tolerance. Checks
run on fixed seeds; nothing here depends on wall-clock or ordering.
"""

import json
import random
from collections import Counter
from fractions import Fraction

from conftest import (
    TINY_FAMILY,
    all_maximal_run_statuses,
    all_tables,
    compatible_by_levels,
    enumerate_all_witnesses,
    lg_degree_check,
    make_csp,
    paired_hypergraph,
    pairwise_neighbors,
    random_tiny_csp,
    realizable_by_sequence,
    sequences_upto,
    some_tables,
    strict_json,
    table_to_json,
)
from llltool.cli import main
from llltool.csp import (
    AlwaysViolated,
    Constraint,
    Csp,
    build_dependency_graph,
    dump_problem,
    is_solution,
    lll_condition,
    load_problem,
    prob_bad,
    violates,
)
from llltool.derand import (
    PipelineParams,
    parameter_advisor,
    params_from_json,
    solve_double_exp,
)
from llltool.errors import ScriptError
from llltool.generators import (
    hypergraph_2coloring,
    proper_coloring,
    sinkless_orientation,
)
from llltool.graphs import graph_from_edges, growth_profile
from llltool.local_goodness import (
    SearchPlan,
    check_lbad_hypotheses,
    estimate_lbad_prob,
    gamma_at_radius,
    is_locally_good,
    lbad_bound,
)
from llltool.moser_tardos import (
    COMPLETED,
    ITERATION_CAP,
    MAXIMAL_GREEDY,
    MtSequence,
    check_consistency,
    mt_monte_carlo,
    mta_run,
    scripted_strategy,
)
from llltool.tables import Table, table_from_json
from llltool.witness import (
    full_witness_digraph,
    verify_mt1_exact,
    verify_mt2_partial_sums,
    witness_from_json,
)

DEPTH = 3


def path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def circulant(n, ks):
    return graph_from_edges(n, [(i, (i + k) % n) for i in range(n) for k in ks])


def four_regular_ring():
    """10 vertices, each joined to its neighbors at distance 1 and 2."""
    return sinkless_orientation(circulant(10, (1, 2)))


def row_demand(g, csp):
    """Rows a digraph needs per variable: its decoration multiplicity."""
    need = Counter()
    for cid in g.decorations:
        for v in csp.constraint(cid).domain:
            need[v] += 1
    return max(need.values()) if need else 0


def truncation_safe_witnesses(csp, max_vertices, depth):
    kept, skipped = [], 0
    for g in enumerate_all_witnesses(csp, max_vertices):
        if row_demand(g, csp) > depth:
            skipped += 1
        else:
            kept.append(g)
    return kept, skipped


def test_criterion_01_compatibility_mass_equals_the_product_of_bad_masses():
    checked = skipped = 0
    for csp in TINY_FAMILY:
        kept, gone = truncation_safe_witnesses(csp, 4, DEPTH)
        skipped += gone
        for g in kept:
            rep = verify_mt1_exact(g, csp, DEPTH)
            product = Fraction(1)
            for cid in g.decorations:
                product *= prob_bad(csp, cid)
            assert rep["pass"]
            assert Fraction(rep["lhs"]) == product == Fraction(rep["rhs"])
            checked += 1
    # depth 3 hosts every digraph that does not stack one variable 4 deep
    assert checked >= 200
    assert skipped >= 1


def test_criterion_02_compatibility_agrees_with_the_existential_oracle():
    pairs = 0
    for ci, csp in enumerate(TINY_FAMILY):
        kept, _ = truncation_safe_witnesses(csp, 4, DEPTH)
        cells = len(csp.variables) * DEPTH
        tables = (list(all_tables(csp, DEPTH)) if cells <= 6
                  else some_tables(csp, DEPTH, 3, seed=101 + ci))
        for g in kept:
            for table in tables:
                assert compatible_by_levels(g, csp, table) == \
                    realizable_by_sequence(g, csp, table)
                pairs += 1
    assert pairs >= 1500


def test_criterion_03_partial_sums_respect_the_beta_ratio_exactly():
    # one isolated constraint of mass 1/2: k-vertex chains weigh 2^-k
    iso = make_csp(1, [((0,), [(1,)])])
    half = {0: Fraction(1, 2)}
    rep = verify_mt2_partial_sums(0, iso, half, half, max_vertices=10)
    assert rep["pass"]
    assert rep["digraphs"] == 10
    assert Fraction(rep["partial_sum_exact"]) == Fraction(1023, 1024)
    assert Fraction(rep["bound_exact"]) == 1

    # three constraints in a row, beta 1/4 throughout; the middle one
    # caps alpha at (1/4)(3/4)^2, which is then valid everywhere
    chain = proper_coloring(path(4), 2)
    alpha = {c.id: Fraction(9, 64) for c in chain.constraints}
    beta = {c.id: Fraction(1, 4) for c in chain.constraints}
    for center in range(3):
        previous = Fraction(0)
        for prefix in range(1, 7):
            rep = verify_mt2_partial_sums(center, chain, alpha, beta, prefix)
            assert rep["pass"]
            total = Fraction(rep["partial_sum_exact"])
            assert previous <= total <= Fraction(1, 3)
            previous = total


def scripted_realizes(csp, table, seq):
    try:
        trace = mta_run(csp, table, scripted_strategy(seq))
    except ScriptError:
        return False
    if trace.status not in (COMPLETED, ITERATION_CAP):
        return False
    realized = tuple(
        frozenset(step.fired) for step in trace.iterations if step.fired
    )
    return realized == tuple(seq.steps)


def test_criterion_04_consistency_equals_scripted_producibility():
    # depth 5 with at most 4 firings keeps every read strictly inside
    # the table, so the unbounded-row statement applies verbatim
    rng = random.Random(2281)
    family = list(TINY_FAMILY) + [random_tiny_csp(rng) for _ in range(6)]
    pairs = consistent = 0
    for ci, csp in enumerate(family):
        seqs = sequences_upto(csp, 4)
        cells = len(csp.variables) * 5
        tables = (all_tables(csp, 5) if cells <= 10
                  else some_tables(csp, 5, 4, seed=33 + ci))
        for table in tables:
            for seq in seqs:
                verdict = check_consistency(csp, table, seq)
                assert verdict == scripted_realizes(csp, table, seq)
                pairs += 1
                consistent += verdict
    assert pairs > 100_000
    assert consistent > 10_000


def test_criterion_05_locally_good_tables_complete_every_maximal_run():
    # gamma_D(1) <= 3 < 4 = (1-eps)^-1 holds for any 3-constraint
    # instance; depth 7 >= (d+1)*N + 1 makes exhaustion force some
    # constraint past N = 2 firings, which goodness forbids
    eps = Fraction(3, 4)
    rng = random.Random(1105)
    qualifying = active = rejected = 0
    for _ in range(40):
        csp = random_tiny_csp(rng)
        if any(not c.domain for c in csp.constraints):
            continue
        dep = build_dependency_graph(csp)
        assert gamma_at_radius(dep, 1) < 4
        plans = [SearchPlan(csp, c.id, 1, 2, eps) for c in csp.constraints]
        for table in some_tables(csp, 7, 3, seed=rng.randint(0, 10**6)):
            good = all(is_locally_good(plan, table)[0] for plan in plans)
            if not good:
                rejected += 1
                continue
            qualifying += 1
            start = {v: table.get(v, 0) for v in csp.variables}
            if any(violates(csp, c.id, start) for c in csp.constraints):
                active += 1
            assert all_maximal_run_statuses(csp, table) == {"completed"}
    assert qualifying >= 20
    assert active >= 5, "want runs that actually fire, not vacuous ones"
    assert rejected >= 1, "the goodness predicate must discriminate"


LG_FAMILY = {
    "three-path": proper_coloring(path(3), 2),
    "five-path": proper_coloring(path(5), 2),
    "four-ring": proper_coloring(cycle(4), 2),
    "six-ring": proper_coloring(cycle(6), 2),
    "nine-ring": proper_coloring(cycle(9), 3),
    "star": proper_coloring(graph_from_edges(5, [(0, i) for i in range(1, 5)]), 3),
    "two-paths": proper_coloring(
        graph_from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]), 2
    ),
    "four-regular-ring": four_regular_ring(),
}


def test_criterion_06_meta_degree_stays_within_the_growth_margin():
    # Constraint a of the meta-problem watches the variables of its
    # R-ball, so two meta-constraints interact exactly when some a' in
    # B(a, R) and b' in B(b, R) share a variable, i.e. when
    # dist(a, b) <= 2R + 1: disjoint R-balls can still hold adjacent
    # constraints. The margin is therefore gamma(2R+1) - 1, computed here
    # from the growth profile rather than read back from the report. The
    # tighter gamma(2R) - 1 margin fails on rings; its counterexample is
    # pinned in test_degree_margin_fails_on_the_six_ring.
    offenders = {}
    for name, csp in LG_FAMILY.items():
        dep = build_dependency_graph(csp)
        for R in (1, 2):
            reach = 2 * R + 1
            margin = growth_profile(dep, reach).gamma_at(reach) - 1
            max_degree = lg_degree_check(csp, R)["max_degree"]
            if max_degree > margin:
                offenders[name, R] = (max_degree, margin)
    assert not offenders, offenders


def test_meta_degree_fits_the_extended_reach_margin_everywhere():
    # the reach of an R-ball interaction is 2R+1, and that margin holds
    for name, csp in LG_FAMILY.items():
        rep = lg_degree_check(csp, 1)
        assert rep["safe_pass"], (name, rep)


def naive_meta_degree(csp, R):
    """Meta-degree by definition: R-balls by BFS over pairwise neighbours,
    then pairwise intersection of the widened domains."""
    nbrs = pairwise_neighbors(csp)
    widened = []
    for a in csp.constraints:
        reach = frontier = {a.id}
        for _ in range(R):
            frontier = {b for f in frontier for b in nbrs[f]} - reach
            reach = reach | frontier
        domain = set().union(*(csp.constraint(b).domain for b in reach))
        widened.append(Constraint(a.id, tuple(sorted(domain)), AlwaysViolated()))
    meta = Csp(csp.variables, csp.label_count, csp.weights, tuple(widened))
    return max((len(n) for n in pairwise_neighbors(meta)), default=0)


def test_meta_degree_matches_pairwise_widened_domains():
    rng = random.Random(8)
    family = list(LG_FAMILY.values()) + [random_tiny_csp(rng) for _ in range(40)]
    for csp in family:
        for R in range(4):
            assert lg_degree_check(csp, R)["max_degree"] == naive_meta_degree(csp, R)


def test_criterion_07_bad_locality_frequency_stays_under_the_bound():
    csp = four_regular_ring()
    dep = build_dependency_graph(csp)
    assert dep.max_degree() == 4
    assert max(prob_bad(csp, c.id) for c in csp.constraints) == Fraction(1, 16)

    # closed-form spot check: (1/eta + 1)-style growth collapses to
    # (5/4)^5 * 2 at d=4, eta=1/2, R=1, gamma=5, N=0
    assert lbad_bound(4, Fraction(1, 2), 1, 5, 0) == Fraction(3125, 512)
    assert Fraction(3125, 512) == Fraction(5, 4) ** 5 * 2

    profile = growth_profile(dep, 150)
    params, report = parameter_advisor(
        Fraction(1, 16), 4, Fraction(21, 20), profile
    )
    # frozen from this advisor run; equality keeps the config pinned
    assert params.eps == Fraction(95737, 3046407)
    assert params.eta == Fraction(1, 64)
    check_lbad_hypotheses(Fraction(1, 16), Fraction(21, 20),
                          params.eps, params.eta)

    for n_firings, seed in ((2, 7), (100, 9)):
        rep = estimate_lbad_prob(
            SearchPlan(csp, 0, 1, n_firings, params.eps),
            depth=3, trials=10_000, seed=seed, s=Fraction(21, 20), eta=params.eta,
        )
        assert rep["pass"]
        assert rep["unknown"] == 0
        assert rep["frequency"] <= rep["bound"] + rep["tolerance"]


def test_bad_locality_frequency_stays_under_a_bound_below_one():
    # Criterion 07's bound exceeds 1 at N = 2, and its N = 100 slice
    # cannot find a witness at all. Here the bound bites: R = 2 lets the
    # search leave c's ball, and at N = 12 the bound is 0.2297.
    csp = four_regular_ring()
    plan = SearchPlan(csp, 0, 2, 12, Fraction(1, 20))
    eta = Fraction(1, 2)
    rep = estimate_lbad_prob(
        plan, depth=4, trials=5_000, seed=11, s=Fraction(3), eta=eta,
    )
    bound = Fraction(rep["bound_exact"])
    assert bound == lbad_bound(4, eta, 2, 9, 12) == \
        Fraction(1953125, 8503056)
    assert rep["unknown"] == 0
    # One-sided Hoeffding test at level exp(-8), in integers and one
    # rational: P[X - n*b >= t] <= exp(-2 t**2 / n).
    x, n = rep["bad"] + rep["unknown"], rep["trials"]
    assert x <= n * bound or 2 * (x - n * bound) ** 2 < 8 * n
    assert rep["pass"]


def test_criterion_08_degree_one_hypergraphs_solve_deterministically():
    rng = random.Random(88)
    for _ in range(30):
        csp = hypergraph_2coloring(paired_hypergraph(rng))
        d = build_dependency_graph(csp).max_degree()
        p = max(prob_bad(csp, c.id) for c in csp.constraints)
        assert d == 1 and p == Fraction(1, 32)
        assert p * (d + 1) ** (d + 1) == Fraction(1, 8)
        ledger = []
        labeling = solve_double_exp(csp, ledger)
        assert is_solution(csp, labeling)
        assert ledger
        for entry in ledger:
            assert entry["ok"]
            assert entry["bound"] == (d + 1) ** entry["k"] * prob_bad(
                csp, entry["constraint"]
            )
            assert entry["mass"] <= entry["bound"]


def test_criterion_09_greedy_resampling_terminates_on_the_regular_ring():
    csp = four_regular_ring()
    assert lll_condition(Fraction(1, 16), 4, "classic")
    rep = mt_monte_carlo(csp, 1000, 64, 424242, MAXIMAL_GREEDY)
    assert rep["success_rate"] >= 0.99
    assert rep["statuses"] == {"completed": 1000}


def test_criterion_10_reports_reproduce_and_json_round_trips(tmp_path, capsys):
    csp = proper_coloring(cycle(5), 3)
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(dump_problem(csp)))

    # identical command lines agree byte for byte except the timing field
    argv = ["mta", "--problem", str(prob), "--depth", "8", "--trials", "50",
            "--seed", "5", "--strategy", "random"]
    assert main(argv) == 0
    first = strict_json(capsys.readouterr().out)
    assert main(argv) == 0
    second = strict_json(capsys.readouterr().out)
    first.pop("timing_seconds"), second.pop("timing_seconds")
    assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    graph = tmp_path / "graph.txt"
    graph.write_text("".join(f"{i} {(i + 1) % 5}\n" for i in range(5)))
    argv = ["generate", "--kind", "coloring", "--graph", str(graph)]
    assert main(argv) == 0
    out_a = capsys.readouterr().out
    assert main(argv) == 0
    assert out_a == capsys.readouterr().out

    # serialize -> parse -> serialize is the identity on every format
    assert dump_problem(load_problem(json.dumps(dump_problem(csp)))) == \
        dump_problem(csp)
    table = Table(3, {0: (0, 1, 2), 1: (2, 2, 0)})
    assert table_to_json(table_from_json(table_to_json(table))) == table_to_json(table)
    seq = MtSequence.from_lists([[0], [2, 4], [1]])
    assert MtSequence.from_lists(seq.to_json()).to_json() == seq.to_json()
    g = full_witness_digraph(MtSequence.from_lists([[0], [0]]), csp)
    assert witness_from_json(g.to_json()).to_json() == g.to_json()
    pp = PipelineParams(eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=2, depth=3)
    assert params_from_json(pp.to_json()).to_json() == pp.to_json()
