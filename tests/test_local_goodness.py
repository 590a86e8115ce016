import itertools
import math
import random
import sys
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    TINY_FAMILY,
    cell_table,
    column_weights,
    decode_column,
    encode_column,
    folner_totals,
    is_folner,
    lg_degree_check,
    local_csp,
    make_csp,
    materialize_bad,
    materialize_cap,
    naive_locally_bad,
    random_tiny_csp,
    recursive_folner_search,
    some_tables,
    table_from_rows,
)
from llltool.csp import (
    AlwaysViolated,
    build_dependency_graph,
    is_solution,
    prob_bad,
)
from llltool import local_goodness
from llltool.derand import PipelineParams, pipeline
from llltool.errors import (
    HypothesisError,
    InvalidParameterError,
    SearchBudgetError,
)
from llltool.generators import proper_coloring, sinkless_orientation
from llltool.graphs import bfs_distances, graph_from_edges
from llltool.local_goodness import (
    DEFAULT_SEARCH_BUDGET,
    LBadPredicate,
    SearchPlan,
    build_lg_csp,
    cell_id,
    check_lbad_hypotheses,
    estimate_lbad_prob,
    gamma_at_radius,
    is_locally_good,
    lbad_bound,
)
from llltool.moser_tardos import MtSequence, check_consistency
from llltool.tables import CellSampler, KeyedTable, Table, sample_table


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


HALF = Fraction(1, 2)


def test_params_validation():
    csp = make_csp(1, [((0,), [(0,)])])
    with pytest.raises(InvalidParameterError):
        SearchPlan(csp, 0, R=1, N=0, eps=HALF)
    with pytest.raises(InvalidParameterError):
        SearchPlan(csp, 0, R=1, N=1, eps=Fraction(1))
    with pytest.raises(InvalidParameterError):
        SearchPlan(csp, 0, R=-1, N=1, eps=HALF)
    with pytest.raises(InvalidParameterError) as info:
        SearchPlan(csp, 0, R=1, N=1, eps=HALF, budget=-1)
    assert str(info.value) == "budget must be >= 0"


def test_local_csp_blanks_out_the_far_bads():
    chain = make_csp(3, [((0, 1), [(0, 0)]), ((1, 2), [(1, 1)])])
    near = local_csp(chain, 0, 1)
    assert near.constraint(0).bad == chain.constraint(0).bad
    assert near.constraint(1).bad == chain.constraint(1).bad

    tight = local_csp(chain, 0, 0)
    assert tight.constraint(0).bad == chain.constraint(0).bad
    assert isinstance(tight.constraint(1).bad, AlwaysViolated)


def test_folner_counts_and_strictness():
    chain = make_csp(3, [((0, 1), [(0, 0)]), ((1, 2), [(1, 1)])])
    seq = MtSequence.from_lists([[0], [1], [0]])
    assert folner_totals(seq, chain, 0, 0) == (2, 1)
    assert is_folner(seq, chain, 0, 0, N=2, eps=HALF)
    # outside share exactly eps fails the strict test
    assert not is_folner(seq, chain, 0, 0, N=2, eps=Fraction(1, 3))
    assert not is_folner(seq, chain, 0, 0, N=3, eps=HALF)


def test_empty_bad_sets_are_locally_good_everywhere():
    csp = make_csp(3, [((0, 1), []), ((1, 2), [])])
    table = table_from_rows([[0, 0, 0], [1, 1, 1]])
    for c in csp.constraints:
        plan = SearchPlan(csp, c.id, 2, 1, HALF)
        good, wit = is_locally_good(plan, table)
        assert good and wit is None


def test_always_bad_isolated_constraint_is_locally_bad():
    csp = make_csp(1, [((0,), [(0,), (1,)])])
    table = table_from_rows([[0]] * 4)
    good, wit = is_locally_good(SearchPlan(csp, 0, R=1, N=3, eps=HALF), table)
    assert not good
    assert wit == MtSequence.from_lists([[0], [0], [0]])
    # the witness replays against the radius-0 localization
    assert check_consistency(local_csp(csp, 0, 0), table, wit)
    assert is_folner(wit, csp, 0, 0, N=3, eps=HALF)


def test_unreachable_firing_count_means_good():
    csp = make_csp(1, [((0,), [(0,), (1,)])])
    table = table_from_rows([[0], [0]])  # depth 2 cannot host 5 firings
    good, wit = is_locally_good(SearchPlan(csp, 0, 1, 5, HALF), table)
    assert good and wit is None


def test_empty_domain_center_special_cases():
    hungry = make_csp(1, [((), [()]), ((0,), [(1,)])])
    table = table_from_rows([[0], [0]])
    good, wit = is_locally_good(SearchPlan(hungry, 0, 1, 2, HALF), table)
    assert not good
    assert wit == MtSequence.from_lists([[0], [0]])

    sated = make_csp(1, [((), []), ((0,), [(1,)])])
    good, wit = is_locally_good(SearchPlan(sated, 0, 1, 2, HALF), table)
    assert good and wit is None


def test_matches_naive_search_on_random_instances():
    rng = random.Random(404)
    compared = 0
    for _ in range(25):
        csp = random_tiny_csp(rng)
        if any(not c.domain for c in csp.constraints):
            continue
        for table in some_tables(csp, 4, 2, seed=rng.randint(0, 9999)):
            for c in csp.constraints:
                good, _ = is_locally_good(
                    SearchPlan(csp, c.id, 2, 2, HALF), table
                )
                assert good == (not naive_locally_bad(
                    csp, table, c.id, 2, 2, HALF
                ))
                compared += 1
    assert compared >= 60


def test_witness_is_singleton_consistent_and_folner_at_some_radius():
    rng = random.Random(92)
    found = 0
    for _ in range(40):
        csp = random_tiny_csp(rng, max_bad_rows=3)
        if any(not c.domain for c in csp.constraints):
            continue
        table = some_tables(csp, 3, 1, seed=rng.randint(0, 9999))[0]
        for c in csp.constraints:
            plan = SearchPlan(csp, c.id, 2, 2, HALF)
            good, wit = is_locally_good(plan, table)
            if good:
                continue
            found += 1
            assert all(len(step) == 1 for step in wit.steps)
            hits = [
                r
                for r in range(plan.R)
                if is_folner(wit, csp, c.id, r, plan.N, plan.eps)
                and check_consistency(local_csp(csp, c.id, r), table, wit)
            ]
            assert hits
    assert found >= 5


def test_verdict_ignores_columns_outside_the_extended_domain():
    csp = proper_coloring(path_graph(5), 2)
    inside = set(SearchPlan(csp, 0, 1, 1, HALF).domain)
    outside = [v for v in csp.variables if v not in inside]
    assert outside
    for table in some_tables(csp, 3, 4, seed=17):
        base, _ = is_locally_good(SearchPlan(csp, 0, 1, 1, HALF), table)
        mutated = dict(table.columns)
        for v in outside:
            mutated[v] = tuple(1 - lab for lab in mutated[v])
        flipped, _ = is_locally_good(SearchPlan(csp, 0, 1, 1, HALF), Table(3, mutated))
        assert base == flipped


def test_search_budget_failure_is_loud():
    csp = proper_coloring(path_graph(3), 2)
    table = some_tables(csp, 3, 1, seed=0)[0]
    with pytest.raises(SearchBudgetError):
        is_locally_good(SearchPlan(csp, 0, 1, 1, HALF, budget=1), table)


def _search_outcome(search, *args):
    """(witness, nodes visited), or the SearchBudgetError message."""
    try:
        return search(*args)
    except SearchBudgetError as exc:
        return str(exc)


def test_iterative_search_matches_the_recursive_oracle():
    # Dual route: the capacity-pruned search against the unpruned
    # recursive oracle. Pruning removes only nodes that reach no witness,
    # so wherever both finish the witness is the same; it never visits
    # more nodes, and it runs out of budget only where the oracle does.
    rng = random.Random(505)
    problems = TINY_FAMILY + [
        random_tiny_csp(rng, max_bad_rows=3) for _ in range(120)
    ]
    # One plan serves every table and radius of its (csp, c, R, N, eps,
    # budget), so state that leaked from one walk into the next would
    # show here.
    grid = list(itertools.product((1, 2, 3), (1, 2, 4), (HALF, Fraction(1, 5))))
    budgets = (0, 1, 3, 10, DEFAULT_SEARCH_BUDGET)
    seen = Counter()
    for csp in problems:
        tables = some_tables(csp, 3, 2, seed=rng.randint(0, 9999))
        for c, (R, N, eps) in itertools.product(csp.constraints, grid):
            for budget in budgets:
                plan = SearchPlan(csp, c.id, R, N, eps, budget)
                for table, r in itertools.product(tables, range(R)):
                    pruned = _search_outcome(plan.search, table, r)
                    oracle = _search_outcome(
                        recursive_folner_search, csp, table, c.id, r, R, N, eps,
                        budget,
                    )
                    if isinstance(pruned, str):
                        assert pruned == oracle
                        seen["budget"] += 1
                    elif isinstance(oracle, str):
                        seen["only the pruned search decides"] += 1
                    else:
                        assert pruned[0] == oracle[0]
                        assert pruned[1] <= oracle[1]
                        seen["good" if pruned[0] is None else "bad"] += 1
    assert seen.keys() == {
        "good", "bad", "budget", "only the pruned search decides"
    }


class UnreadCells:
    """A depth-3 cell source that fails on any read."""

    depth = 3

    def get(self, v, row):
        raise AssertionError(f"read cell ({v}, {row})")


class CountedCells:
    """A table that counts the cells read from it."""

    def __init__(self, table):
        self.table = table
        self.depth = table.depth
        self.reads = 0

    def get(self, v, row):
        self.reads += 1
        return self.table.get(v, row)


def test_search_closes_the_root_when_the_ball_cannot_hold_n_firings():
    # Criterion 07's N = 100 slice: at R = 1 only r = 0 is searched, its
    # ball is c alone (n_in = 1), and c fires at most depth = 3 times.
    ring = sinkless_orientation(
        graph_from_edges(10, [(i, (i + k) % 10) for i in range(10) for k in (1, 2)])
    )
    eps = Fraction(95737, 3046407)
    plans = [SearchPlan(ring, c.id, 1, 100, eps, 1) for c in ring.constraints]
    for trial in range(50):
        table = sample_table(ring.weights, ring.variables, 3, 9, trial)
        for plan in plans:
            assert plan.search(table, 0) == (None, 1)
    # The root is closed whatever the table holds: no cell is read.
    for plan in plans:
        assert plan.search(UnreadCells(), 0) == (None, 1)
        assert is_locally_good(plan, UnreadCells()) == (True, None)
        with pytest.raises(SearchBudgetError) as exc:
            SearchPlan(ring, plan.c, 1, 100, eps, 0).search(UnreadCells(), 0)
        assert str(exc.value) == (
            f"search exceeded 0 count vectors at c={plan.c}, r=0"
        )
    # At depth * n_in == N the root stays open and the walk reads cells.
    for trial in range(50):
        table = sample_table(ring.weights, ring.variables, 3, 9, trial)
        for c in ring.constraints:
            counted = CountedCells(table)
            plan = SearchPlan(ring, c.id, 1, 3, eps)
            witness, nodes = plan.search(counted, 0)
            oracle_witness, oracle_nodes = recursive_folner_search(
                ring, table, c.id, 0, 1, 3, eps, DEFAULT_SEARCH_BUDGET
            )
            assert witness == oracle_witness
            assert nodes <= oracle_nodes
            assert counted.reads > 0


def test_search_skips_an_outer_firing_that_cannot_be_diluted():
    # x = 0 and y = 1 under c = 0 (on x), 1 (on x, y) and 2 (on y); at
    # r = 1, R = 2 only constraint 2 lies in the outer shell. After c
    # fires once, in_max = 1 + 1 + 1 = 3 >= N = 2, so rule 1 closes
    # nothing, but (1 - 1/5) * (0 + 1) >= 3/5: rule 2 skips constraint
    # 2, whose three-node subtree the oracle walks before it backtracks
    # to the witness [1, 1].
    csp = make_csp(2, [
        ((0,), [(0,)]),
        ((0, 1), [(0, 1), (1, 0)]),
        ((1,), [(0,), (1,)]),
    ])
    table = table_from_rows([[0, 1], [1, 0]])
    eps = Fraction(1, 5)
    dist = bfs_distances(csp.dependency_graph, 0, 2)
    assert dist == {0: 0, 1: 1, 2: 2}
    witness, nodes = SearchPlan(csp, 0, 2, 2, eps, 100).search(table, 1)
    oracle_witness, oracle_nodes = recursive_folner_search(
        csp, table, 0, 1, 2, 2, eps, 100
    )
    assert witness == oracle_witness == MtSequence.from_lists([[1], [1]])
    assert (nodes, oracle_nodes) == (4, 7)


def test_node_counts_are_pinned_on_criterion_07s_ring():
    # Criterion 07's bound-biting setup (R = 2, eps = 1/20, depth 4,
    # seed 11) on 200 keyed tables. Per N: the nodes visited summed over
    # the tables at r = 0 and at r = 1, and the bad verdicts. Frozen from
    # the walk that built every root's state before closing it; a change
    # to the search must keep every count.
    ring = sinkless_orientation(
        graph_from_edges(10, [(i, (i + k) % 10) for i in range(10) for k in (1, 2)])
    )
    cells = CellSampler(ring.weights, 11)
    pins = {12: ((200, 1540), 0), 2: ((215, 1199), 24)}
    for N, (pinned_nodes, pinned_bad) in pins.items():
        plan = SearchPlan(ring, 0, 2, N, Fraction(1, 20))
        nodes, bad, reads = [0, 0], 0, 0
        for trial in range(200):
            table = KeyedTable(cells, plan.domain, 4, trial)
            for r in range(2):
                counted = CountedCells(table)
                nodes[r] += plan.search(counted, r)[1]
                if r == 0:
                    reads += counted.reads
            bad += not is_locally_good(plan, table)[0]
        assert (tuple(nodes), bad) == (pinned_nodes, pinned_bad)
        # The ball at r = 0 is c alone: 4 firings < 12 close the root
        # before any cell is read, while N = 2 walks and reads.
        assert (reads == 0) == (N == 12)


def test_deep_table_search_returns_a_verdict():
    # 1400 nested firings: past the recursion limit of a recursive search.
    csp = make_csp(1, [((0,), [(0,), (1,)])])
    table = Table(1500, {0: (0,) * 1500})
    good, wit = is_locally_good(SearchPlan(csp, 0, 1, 1400, HALF), table)
    assert not good
    assert wit == MtSequence.from_lists([[0]] * 1400)


def test_extended_domain_collects_ball_domains():
    csp = proper_coloring(path_graph(4), 2)
    def domain(R):
        return SearchPlan(csp, 0, R, 1, HALF).domain

    assert domain(0) == (0, 1)
    assert domain(1) == (0, 1, 2)
    assert domain(2) == (0, 1, 2, 3)


@settings(max_examples=50)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=5))
def test_column_codes_round_trip(column):
    code = encode_column(column, 3)
    assert decode_column(code, 3, len(column)) == tuple(column)


def test_column_code_row_zero_is_least_significant():
    assert encode_column((1, 0), 2) == 1
    assert encode_column((0, 1), 2) == 2


def test_column_weights_are_the_product_measure():
    w = column_weights((Fraction(1, 4), Fraction(3, 4)), 2)
    assert w[encode_column((0, 0), 2)] == Fraction(1, 16)
    assert w[encode_column((1, 0), 2)] == Fraction(3, 16)
    assert sum(w) == 1


def test_cell_ids_lay_out_columns_row_zero_last():
    assert [cell_id(v, row, 3) for v in (0, 1) for row in range(3)] == [
        2, 1, 0, 5, 4, 3
    ]
    lg = build_lg_csp(proper_coloring(path_graph(3), 2), R=0, N=1, eps=HALF, depth=2)
    assert lg.variables == tuple(range(6))
    assert lg.constraint(1).domain == (2, 3, 4, 5)


def test_lg_problem_solutions_are_exactly_the_good_tables():
    csp = proper_coloring(path_graph(3), 2)
    depth = 2
    lg = build_lg_csp(csp, R=1, N=1, eps=HALF, depth=depth)
    assert lg.label_count == 2
    assert lg.constraint(0).domain == tuple(range(6))
    mismatches = 0
    for labels in itertools.product(range(2), repeat=6):
        assignment = dict(zip(lg.variables, labels))
        table = cell_table(csp, assignment, depth)
        direct = all(
            is_locally_good(
                SearchPlan(csp, c.id, 1, 1, HALF), table
            )[0]
            for c in csp.constraints
        )
        if is_solution(lg, assignment) != direct:
            mismatches += 1
    assert mismatches == 0


def test_lg_bad_mass_agrees_with_direct_enumeration():
    csp = proper_coloring(path_graph(3), 2)
    depth = 2
    lg = build_lg_csp(csp, R=1, N=1, eps=HALF, depth=depth)
    pred = lg.constraint(0).bad
    assert isinstance(pred, LBadPredicate)
    total = Fraction(0)
    dom = lg.constraint(0).domain
    for row in itertools.product(range(2), repeat=len(dom)):
        table = cell_table(csp, dict(zip(dom, row)), depth)
        if not is_locally_good(SearchPlan(csp, 0, 1, 1, HALF), table)[0]:
            mass = Fraction(1)
            for lab in row:
                mass *= csp.weights[lab]
            total += mass
    assert prob_bad(lg, 0) == total


def test_lg_problem_builds_deep_and_refuses_its_first_mass():
    csp = proper_coloring(path_graph(3), 2)
    started = time.perf_counter()
    lg = build_lg_csp(csp, R=1, N=1, eps=HALF, depth=24)
    assert time.perf_counter() - started < 1
    assert len(lg.variables) == 3 * 24 and lg.label_count == 2
    params = PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=24,
    )
    with materialize_cap(None):
        rep = pipeline(csp, params, mode="deterministic")
    assert rep["status"] == "infeasible"
    assert rep["cap_failed"] == (
        f"materializing constraint 0 needs {2**72} rows, cap {2**24}"
    )


def test_gamma_at_radius():
    dep = build_dependency_graph(proper_coloring(cycle_graph(6), 2))
    assert gamma_at_radius(dep, 0) == 1
    assert gamma_at_radius(dep, 1) == 3
    assert gamma_at_radius(dep, 3) == 6  # wraps the whole ring
    empty = build_dependency_graph(make_csp(1, []))
    assert gamma_at_radius(empty, 2) == 1


def test_gamma_at_radius_grows_no_ball_past_the_vertex_count(monkeypatch):
    dep = build_dependency_graph(proper_coloring(cycle_graph(3), 3))
    asked = []
    real = local_goodness.max_ball_sizes

    def recorded(g, r_max):
        asked.append(r_max)
        return real(g, min(r_max, g.n))  # never grow 10**9 rounds

    monkeypatch.setattr(local_goodness, "max_ball_sizes", recorded)
    assert gamma_at_radius(dep, 10**9) == 3
    assert asked == [dep.n]


def test_a_search_stops_at_the_farthest_constraint(monkeypatch):
    # Every constraint of the triangle lies within distance 1 of c, so
    # radii 1..49 share one walk and only radii 0 and 1 are searched.
    csp = proper_coloring(cycle_graph(3), 3)
    plan = SearchPlan(csp, 0, 50, 2, HALF)
    tables = some_tables(csp, 2, 30, seed=4)
    expected = [
        next((w for r in range(50) if (w := plan.search(t, r)[0])), None)
        for t in tables
    ]
    radii = []
    search = SearchPlan.search

    def counted(self, table, r):
        radii.append(r)
        return search(self, table, r)

    monkeypatch.setattr(SearchPlan, "search", counted)
    verdicts = set()
    for table, witness in zip(tables, expected):
        radii.clear()
        assert is_locally_good(plan, table) == (witness is None, witness)
        assert len(radii) <= 2
        verdicts.add(witness is None)
    assert verdicts == {True, False}


def test_degree_margin_holds_on_paths():
    csp = proper_coloring(path_graph(3), 2)
    rep = lg_degree_check(csp, 1)
    assert rep["max_degree"] == 1
    assert rep["bound"] == 1
    assert rep["pass"] and rep["safe_pass"]

    single = make_csp(2, [((0, 1), [(0, 0)])])
    rep = lg_degree_check(single, 1)
    assert rep["max_degree"] == 0 and rep["pass"]


def test_degree_margin_fails_on_the_six_ring():
    # frozen counterexample: on a 6-ring the radius-1 extended domains
    # of two constraints at dependency distance 3 still overlap, so the
    # meta degree is 5 while gamma(2) - 1 = 4. The stretched margin
    # gamma(3) - 1 = 5 absorbs it.
    csp = proper_coloring(cycle_graph(6), 2)
    rep = lg_degree_check(csp, 1)
    assert rep["max_degree"] == 5
    assert rep["bound"] == 4
    assert not rep["pass"]
    assert rep["safe_bound"] == 5
    assert rep["safe_pass"]


def test_lbad_bound_frozen_value():
    assert lbad_bound(4, HALF, 1, 5, 0) == Fraction(3125, 512)


def test_lbad_bound_shrinks_geometrically_in_n():
    for n in range(4):
        assert lbad_bound(2, HALF, 1, 3, n + 1) == \
            lbad_bound(2, HALF, 1, 3, n) / Fraction(3, 2)


def test_lbad_bound_degree_zero_stays_an_upper_bound():
    got = lbad_bound(0, HALF, 1, 1, 0)
    reference = (1 * 0.5) / ((0.5 * (1 - 1 / math.e)) * 0.5)
    assert float(got) >= reference
    assert float(got) == pytest.approx(reference, rel=1e-6)


def test_lbad_bound_validation():
    with pytest.raises(InvalidParameterError):
        lbad_bound(1, Fraction(0), 1, 1, 0)
    with pytest.raises(InvalidParameterError):
        lbad_bound(1, HALF, 1, 0, 0)


def test_lbad_hypotheses_accept_and_reject():
    check_lbad_hypotheses(
        Fraction(1, 1024), Fraction(6, 5), Fraction(1, 24), Fraction(1, 64)
    )
    with pytest.raises(HypothesisError) as info:
        check_lbad_hypotheses(Fraction(1, 2), Fraction(9, 8),
                              Fraction(1, 8), HALF)
    assert str(info.value) == "probability-bound hypotheses fail: eps + 1/s < 1"
    with pytest.raises(HypothesisError) as info:
        check_lbad_hypotheses(Fraction(1, 2), Fraction(2),
                              Fraction(1, 4), HALF)
    assert str(info.value) == (
        "probability-bound hypotheses fail: p**(1 - eps - 1/s) <= (1-eta)/(1+eta)"
    )


def test_estimate_on_trivially_good_instance():
    csp = make_csp(2, [((0,), []), ((1,), [])])
    rep = estimate_lbad_prob(
        SearchPlan(csp, 0, 1, 1, Fraction(1, 24)),
        depth=2, trials=20, seed=3, s=Fraction(6, 5), eta=Fraction(1, 64),
    )
    assert rep["bad"] == 0 and rep["unknown"] == 0
    assert rep["frequency"] == 0.0
    assert rep["pass"]


def test_estimate_counts_budget_exhaustion_as_bad():
    csp = proper_coloring(path_graph(3), 2)
    rep = estimate_lbad_prob(
        SearchPlan(csp, 0, 1, 1, Fraction(1, 24), budget=0),
        depth=2, trials=5, seed=3, s=Fraction(6, 5), eta=Fraction(1, 64),
    )
    assert rep["unknown"] == 5
    assert rep["frequency"] == 1.0


def test_estimate_matches_a_full_table_run_on_the_ring():
    # The estimate reads keyed tables restricted to the extended domain.
    # Every verdict must equal the one on a stored full table of the same
    # trial, since no other column can change it.
    ring = sinkless_orientation(
        graph_from_edges(10, [(i, (i + k) % 10) for i in range(10) for k in (1, 2)])
    )
    depth, trials, seed = 3, 100, 5
    read = SearchPlan(ring, 0, 1, 1, HALF).domain
    assert len(read) < len(ring.variables)
    sampler = CellSampler(ring.weights, seed)
    seen = set()
    for N, budget in ((1, DEFAULT_SEARCH_BUDGET), (2, 1)):
        plan = SearchPlan(ring, 0, 1, N, Fraction(1, 32), budget)

        def verdict(table):
            try:
                return is_locally_good(plan, table)
            except SearchBudgetError:
                return "unknown"

        counts = Counter()
        for trial in range(trials):
            stored = sample_table(ring.weights, ring.variables, depth, seed, trial)
            full = verdict(stored)
            assert verdict(KeyedTable(sampler, read, depth, trial)) == full
            if full == "unknown":
                counts["unknown"] += 1
            elif not full[0]:
                counts["bad"] += 1
        rep = estimate_lbad_prob(
            plan, depth=depth, trials=trials, seed=seed,
            s=Fraction(21, 20), eta=Fraction(1, 64),
        )
        assert (rep["bad"], rep["unknown"]) == (counts["bad"], counts["unknown"])
        seen.update(key for key in ("bad", "unknown") if rep[key])
    assert seen == {"bad", "unknown"}


def test_lg_predicate_materializes_under_cap():
    csp = proper_coloring(path_graph(3), 2)
    lg = build_lg_csp(csp, R=1, N=1, eps=HALF, depth=2)
    rows = materialize_bad(lg, 1)
    pred = lg.constraint(1).bad
    for row in rows:
        assert pred.contains(row)


def count_table_checks(monkeypatch) -> list:
    """Wrap `is_locally_good` under every module attribute that holds it,
    as the benchmark's tracer does, and log (centre, verdict) per call;
    the verdict is "unknown" when the search runs out of budget."""
    original = local_goodness.is_locally_good
    calls = []

    def counted(plan, table):
        try:
            result = original(plan, table)
        except SearchBudgetError:
            calls.append((plan.c, "unknown"))
            raise
        calls.append((plan.c, result[0]))
        return result

    hits = 0
    for name, module in list(sys.modules.items()):
        if name == "llltool" or name.startswith("llltool."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
                    hits += 1
    assert hits
    return calls


def test_every_table_check_is_one_is_locally_good_call(monkeypatch):
    ring = sinkless_orientation(
        graph_from_edges(10, [(i, (i + k) % 10) for i in range(10) for k in (1, 2)])
    )
    calls = count_table_checks(monkeypatch)
    # estimate_lbad_prob: one call per trial, and the calls carry its counts
    for N, budget in ((1, DEFAULT_SEARCH_BUDGET), (2, 1)):
        calls.clear()
        rep = estimate_lbad_prob(
            SearchPlan(ring, 0, 1, N, Fraction(1, 32), budget),
            depth=3, trials=60, seed=5, s=Fraction(21, 20), eta=Fraction(1, 64),
        )
        verdicts = Counter(good for _, good in calls)
        assert len(calls) == 60
        assert (verdicts[False], verdicts["unknown"]) == (rep["bad"], rep["unknown"])
    # LBadPredicate.contains: one call per row, a row being bad when its
    # table is not locally good
    calls.clear()
    path = proper_coloring(path_graph(3), 2)
    pred = LBadPredicate(SearchPlan(path, 1, 1, 1, HALF), 2)
    rows = list(itertools.product(range(2), repeat=len(pred.domain)))
    bad = sum(pred.contains(row) for row in rows)
    assert len(calls) == len(rows)
    assert Counter(good for _, good in calls) == {False: bad, True: len(rows) - bad}
    # the randomized pipeline: per attempt, the plans in constraint order
    # up to the first one the table fails, or all of them on success
    calls.clear()
    c5 = proper_coloring(cycle_graph(5), 3)
    params = PipelineParams(
        eps=Fraction(1, 4), eta=Fraction(1, 64), R=1, N=1, depth=3,
    )
    rep = pipeline(c5, params, mode="randomized", seed=2, trials=40)
    assert rep["status"] == "solved"
    attempts = []
    for c, good in calls:
        if c == 0:
            attempts.append([])
        attempts[-1].append((c, good))
    assert len(attempts) == rep["attempts"]
    for attempt in attempts[:-1]:
        assert [c for c, _ in attempt] == list(range(len(attempt)))
        assert [good for _, good in attempt[:-1]] == [True] * (len(attempt) - 1)
        assert attempt[-1][1] is False
    assert attempts[-1] == [(c.id, True) for c in c5.constraints]
    assert max(len(attempt) for attempt in attempts[:-1]) > 1
