import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    PREDICATE_PROBLEMS,
    TINY_FAMILY,
    canonical_form,
    compatible_by_levels,
    enumerate_all_witnesses,
    frozenset_levels_below,
    in_level_counts,
    is_isomorphic,
    leaf_mt1_lhs,
    make_csp,
    materialize_cap,
    naive_longest_path_levels,
    pairwise_validate_witness,
    pairwise_witness_from_levels,
    random_tiny_csp,
    realizable_by_sequence,
    sequences_upto,
    sinks,
    some_tables,
    table_from_rows,
)
from llltool import witness as witness_module
from llltool.csp import AlwaysViolated
from llltool.errors import (
    CapExceededError,
    DepthExceededError,
    HypothesisError,
    InvalidInputError,
    InvalidParameterError,
)
from llltool.generators import proper_coloring, sinkless_orientation
from llltool.graphs import graph_from_edges
from llltool.moser_tardos import FIRST_SINGLETON, MtSequence, mta_run
from llltool.tables import sample_table
from llltool.witness import (
    WitnessDigraph,
    enumerate_sink_star,
    full_witness_digraph,
    validate_witness,
    verify_mt1_exact,
    verify_mt1_monte_carlo,
    verify_mt2_partial_sums,
    witness_from_json,
    witness_from_levels,
)
from llltool.witness import (
    _closed_masks,
    _levels_below,
    _sink_stacks,
    _stack_sums,
    _topological_levels,
    _vertex_cells,
)

CHAIN = make_csp(1, [((0,), [(0,)])])
PAIR = make_csp(3, [((0, 1), [(0, 0)]), ((1, 2), [(1, 1)])])
DISJOINT = make_csp(2, [((0,), [(0,)]), ((1,), [(1,)])])


def test_digraph_validation():
    with pytest.raises(InvalidInputError):
        WitnessDigraph((0,), frozenset({(0, 0)}))
    with pytest.raises(InvalidInputError):
        WitnessDigraph((0,), frozenset({(0, 3)}))


def test_digraph_json_round_trip():
    g = WitnessDigraph((0, 0, 1), frozenset({(0, 1), (1, 2)}))
    assert witness_from_json(g.to_json()) == g


def test_digraph_json_requires_dense_ids():
    with pytest.raises(InvalidInputError):
        witness_from_json({"vertices": [{"id": 1, "constraint": 0}], "edges": []})


@pytest.mark.parametrize("edge", ["01", [0], [0, 1, 1], {"0": 1}])
def test_digraph_json_refuses_an_edge_that_is_not_a_pair(edge):
    vertices = [{"id": 0, "constraint": 0}, {"id": 1, "constraint": 0}]
    with pytest.raises(InvalidInputError):
        witness_from_json({"vertices": vertices, "edges": [edge]})


def test_repeats_of_one_constraint_chain_up():
    seq = MtSequence.from_lists([[0], [0], [0]])
    g = full_witness_digraph(seq, CHAIN)
    assert g.decorations == (0, 0, 0)
    assert g.edges == frozenset({(0, 1), (0, 2), (1, 2)})
    assert sinks(g) == [2]


def test_disjoint_firings_stay_unlinked():
    seq = MtSequence.from_lists([[0, 1]])
    g = full_witness_digraph(seq, DISJOINT)
    assert g.edges == frozenset()
    assert sorted(sinks(g)) == [0, 1]


def test_edges_need_shared_variables():
    seq = MtSequence.from_lists([[0], [1]])
    g = full_witness_digraph(seq, PAIR)
    assert g.edges == frozenset({(0, 1)})


def test_validate_witness_accepts_full_outputs():
    for csp, seq in [
        (CHAIN, MtSequence.from_lists([[0], [0]])),
        (PAIR, MtSequence.from_lists([[0], [1], [0]])),
        (DISJOINT, MtSequence.from_lists([[0, 1], [0]])),
    ]:
        assert validate_witness(full_witness_digraph(seq, csp), csp)


def test_validate_witness_rejects_cycles_and_gaps():
    two_cycle = WitnessDigraph((0, 0), frozenset({(0, 1), (1, 0)}))
    assert not validate_witness(two_cycle, CHAIN)
    missing_edge = WitnessDigraph((0, 0), frozenset())
    assert not validate_witness(missing_edge, CHAIN)
    spurious = WitnessDigraph((0, 1), frozenset({(0, 1)}))
    assert not validate_witness(spurious, DISJOINT)


def test_canonical_form_ignores_vertex_order():
    a = witness_from_levels([{0}, {1}, {0}], PAIR)
    # same digraph with vertices listed top, bottom, middle
    flat = [(0, ()), (0, (2, 0)), (1, (0,))]
    b = WitnessDigraph(
        tuple(dec for dec, _ in flat),
        frozenset((i, j) for i, (_, outs) in enumerate(flat) for j in outs),
    )
    assert canonical_form(a) == canonical_form(b)
    assert is_isomorphic(a, b)
    assert canonical_form(a) != canonical_form(
        witness_from_levels([{0}, {1}], PAIR)
    )


def test_canonical_form_rejects_cyclic_input():
    with pytest.raises(InvalidInputError):
        canonical_form(WitnessDigraph((0, 0), frozenset({(0, 1), (1, 0)})))


def first_singleton_cycle_run(n):
    """The 3-colouring of an n-cycle and its FIRST_SINGLETON run (depth 64, seed 7)."""
    csp = proper_coloring(graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)]), 3)
    table = sample_table(csp.weights, csp.variables, 64, seed=7)
    return csp, mta_run(csp, table, FIRST_SINGLETON).sequence()


def test_topological_levels_match_naive_longest_paths():
    csp, seq = first_singleton_cycle_run(400)
    g = full_witness_digraph(seq, csp)
    assert g.n > 300
    levels = _topological_levels(g)
    assert max(levels) > 10
    assert levels == naive_longest_path_levels(g)

    cyclic = WitnessDigraph((0, 0, 0, 0), frozenset({(0, 1), (1, 2), (2, 1), (3, 0)}))
    assert _topological_levels(cyclic) is None
    assert naive_longest_path_levels(cyclic) is None


def test_in_level_counts_and_cells():
    g = witness_from_levels([{0}, {1}, {0}], PAIR)
    # vertex 2 (top, constraint 0 on vars 0,1) has in-neighbors 0 and 1;
    # var 0 is hit by the level-0 copy of constraint 0 only
    assert _vertex_cells(g, PAIR)[2] == (PAIR.bad_tests[0], ((0, 1), (1, 2)))


def test_compatibility_reads_chained_rows():
    g = witness_from_levels([{0}, {0}], CHAIN)
    assert compatible_by_levels(g, CHAIN, table_from_rows([[0], [0]]))
    assert not compatible_by_levels(g, CHAIN, table_from_rows([[0], [1]]))
    with pytest.raises(DepthExceededError):
        compatible_by_levels(g, CHAIN, table_from_rows([[0]]))


def test_mt1_exact_frozen_values():
    one = verify_mt1_exact(witness_from_levels([{0}], CHAIN), CHAIN, depth=3)
    assert one["pass"] and one["lhs_exact"] == "1/2"
    two = verify_mt1_exact(witness_from_levels([{0}, {0}], CHAIN), CHAIN, depth=3)
    assert two["pass"] and two["lhs_exact"] == "1/4"
    empty = verify_mt1_exact(witness_from_levels([], CHAIN), CHAIN, depth=3)
    assert empty["pass"] and empty["lhs_exact"] == "1"


def test_mt1_exact_skewed_weights():
    skew = make_csp(1, [((0,), [(0,)])],
                    weights=(Fraction(1, 4), Fraction(3, 4)))
    rep = verify_mt1_exact(witness_from_levels([{0}, {0}], skew), skew, depth=2)
    assert rep["pass"]
    assert rep["rhs_exact"] == "1/16"


def test_mt1_exact_refuses_rows_past_depth():
    deep = witness_from_levels([{0}, {0}, {0}, {0}], CHAIN)
    with pytest.raises(DepthExceededError):
        verify_mt1_exact(deep, CHAIN, depth=3)


def test_mt1_exact_cell_cap():
    g = witness_from_levels([{0}, {1}], PAIR)  # 4 cells: 2**4 > 7
    with materialize_cap(7), pytest.raises(CapExceededError):
        verify_mt1_exact(g, PAIR, depth=3)


@pytest.mark.parametrize("g", [
    # constraints 0 and 1 share variable 1 on one level
    witness_from_levels([{0, 1}], PAIR),
    WitnessDigraph((0, 1), frozenset({(0, 1), (1, 0)})),
], ids=["one-level", "cycle"])
def test_mt1_refuses_a_digraph_that_is_not_a_witness(g):
    assert not validate_witness(g, PAIR)
    with pytest.raises(InvalidInputError, match="not a witness digraph"):
        verify_mt1_exact(g, PAIR, depth=3)
    with pytest.raises(InvalidInputError, match="not a witness digraph"):
        verify_mt1_monte_carlo(g, PAIR, trials=10, seed=0, depth=3)


@pytest.mark.parametrize("depth", [0, -3])
def test_mt1_refuses_a_depth_below_one_in_both_modes(depth):
    # an empty-domain vertex reads no cell, and a vertex with cells reads
    # row 0: the depth is refused before either is looked at
    empty = make_csp(1, [((), [()])])
    for g, csp in ((witness_from_levels([{0}], empty), empty),
                   (witness_from_levels([{0}], CHAIN), CHAIN)):
        with pytest.raises(InvalidParameterError, match="depth must be >= 1"):
            verify_mt1_exact(g, csp, depth=depth)
        with pytest.raises(InvalidParameterError, match="depth must be >= 1"):
            verify_mt1_monte_carlo(g, csp, trials=10, seed=0, depth=depth)


def test_mt1_monte_carlo_ignores_variables_the_witness_does_not_read():
    # variables and constraints appended after the witness's ids leave
    # every cell it reads, and so the report, unchanged
    base = make_csp(3, [((0, 1), [(0, 1), (1, 1)]), ((1, 2), [(0, 0)])],
                    weights=(Fraction(1, 4), Fraction(3, 4)))
    wider = make_csp(
        6,
        [((0, 1), [(0, 1), (1, 1)]), ((1, 2), [(0, 0)]),
         ((3, 4), [(1, 0)]), ((4, 5), AlwaysViolated()), ((5,), [(0,)])],
        weights=(Fraction(1, 4), Fraction(3, 4)),
    )
    levels = [{0}, {1}, {0}]
    for seed in (0, 5, 2**64 + 9):
        rep = verify_mt1_monte_carlo(
            witness_from_levels(levels, base), base, trials=400, seed=seed, depth=3
        )
        again = verify_mt1_monte_carlo(
            witness_from_levels(levels, wider), wider, trials=400, seed=seed,
            depth=3,
        )
        assert rep == again


def truncation_safe(g, csp, depth):
    """Whether every row g reads, by the pairwise in-level counts, is < depth."""
    return all(
        row < depth
        for x in range(g.n)
        for row in in_level_counts(g, csp, x).values()
    )


# Beside TINY_FAMILY: skewed weights on overlapping domains, an
# always-violated constraint, and an empty-domain constraint with no bad
# row, which no witness that holds it can meet.
MT1_EXTRA = [
    make_csp(3, [((0, 1), [(0, 1), (1, 1)]), ((1, 2), [(0, 0)])],
             weights=(Fraction(1, 4), Fraction(3, 4))),
    make_csp(3, [((0, 1), AlwaysViolated()), ((1, 2), [(1, 0)])]),
    make_csp(2, [((), []), ((0, 1), [(1, 1)])]),
]


def test_mt1_exact_matches_the_full_leaf_walk():
    # PREDICATE_PROBLEMS give row readers of every width (0 to 3 cells),
    # three labels, predicates and skewed weights
    checked = 0
    for csp in TINY_FAMILY + MT1_EXTRA + PREDICATE_PROBLEMS:
        for g in enumerate_all_witnesses(csp, 4):
            if not truncation_safe(g, csp, 3):
                continue
            rep = verify_mt1_exact(g, csp, depth=3)
            assert Fraction(rep["lhs_exact"]) == leaf_mt1_lhs(g, csp)
            checked += 1
    assert checked >= 493


def test_mt1_exact_matches_the_full_leaf_walk_on_ten_cells():
    # the benchmark's shape: five single firings on the 3-coloured 8-cycle
    cycle = proper_coloring(
        graph_from_edges(8, [(i, (i + 1) % 8) for i in range(8)]), 3
    )
    for steps in ([[0], [1], [0], [5], [4]], [[2], [2], [3], [2], [7]]):
        g = full_witness_digraph(MtSequence.from_lists(steps), cycle)
        rep = verify_mt1_exact(g, cycle, depth=6)
        assert rep["cells"] == 10
        assert rep["pass"] and rep["lhs_exact"] == "1/243"
        assert Fraction(rep["lhs_exact"]) == leaf_mt1_lhs(g, cycle)


def test_mt1_exact_walks_many_cells_of_a_single_label():
    # k = 1 puts no cap on the cell count; the walk must not recurse per cell
    n = 1500
    csp = make_csp(n, [((v,), [(0,)]) for v in range(n)], k=1)
    rep = verify_mt1_exact(witness_from_levels([range(n)], csp), csp, depth=1)
    assert rep["cells"] == n
    assert rep["pass"] and rep["lhs_exact"] == "1"


def test_mt1_monte_carlo_within_band():
    g = witness_from_levels([{0}], CHAIN)
    rep = verify_mt1_monte_carlo(g, CHAIN, trials=2000, seed=4, depth=3)
    assert rep["pass"]
    assert rep["rhs_exact"] == "1/2"
    again = verify_mt1_monte_carlo(g, CHAIN, trials=2000, seed=4, depth=3)
    assert rep == again


def test_mt1_monte_carlo_verdict_is_the_integer_hoeffding_test():
    cases = [
        (witness_from_levels([{0}], CHAIN), CHAIN),
        (witness_from_levels([{0}, {0}], CHAIN), CHAIN),
        (witness_from_levels([{0}, {1}], PAIR), PAIR),
        (witness_from_levels([{0}, {1}, {0}], PAIR), PAIR),
    ]
    for g, csp in cases:
        for seed in (0, 3, -7, 2**70 + 1):
            trials = 300
            rep = verify_mt1_monte_carlo(g, csp, trials, seed, depth=4)
            hits = round(rep["lhs"] * trials)
            assert hits / trials == rep["lhs"]
            rhs = Fraction(rep["rhs_exact"])
            deviation = hits - trials * rhs
            assert rep["pass"] == (2 * deviation**2 < 8 * trials)
            # the old 4-sigma band never accepted what this test rejects
            if abs(rep["lhs"] - rep["rhs"]) <= rep["tolerance"]:
                assert rep["pass"]


def test_mt1_monte_carlo_rejects_a_deviation_of_two_root_n(monkeypatch):
    # Force the hit count: the first `hits` trials are compatible. The
    # witness has rhs = 1/2, so with 100 trials the cut is |hits - 50| < 20.
    g = witness_from_levels([{0}], CHAIN)
    for hits, verdict in ((50, True), (69, True), (70, False), (31, True),
                          (30, False), (100, False)):
        calls = iter(range(100))
        monkeypatch.setattr(
            witness_module, "_compatible_on_cells",
            lambda vertex_cells, cell: next(calls) < hits,
        )
        rep = verify_mt1_monte_carlo(g, CHAIN, trials=100, seed=1, depth=2)
        assert rep["lhs"] == hits / 100
        assert rep["pass"] is verdict


def test_sink_star_chains_for_isolated_constraint():
    reps = enumerate_sink_star(0, CHAIN, max_vertices=3)
    assert [g.n for g in reps] == [1, 2, 3]
    for g in reps:
        assert sinks(g) == [g.n - 1]
        assert validate_witness(g, CHAIN)


def test_sink_star_count_on_a_ring():
    from llltool.generators import sinkless_orientation
    from llltool.graphs import graph_from_edges

    ring = graph_from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
    csp = sinkless_orientation(ring)
    reps = enumerate_sink_star(0, csp, max_vertices=3)
    assert len(reps) == 14  # 1 single + 4 two-level + 9 three-level stacks


def test_sink_star_matches_naive_enumeration():
    ring = sinkless_orientation(
        graph_from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
    )
    for csp in TINY_FAMILY + [ring]:
        witnesses = enumerate_all_witnesses(csp, 4)
        for cid in range(len(csp.constraints)):
            naive = [
                g
                for g in witnesses
                if g.n >= 1
                and len(sinks(g)) == 1
                and g.decorations[sinks(g)[0]] == cid
            ]
            reps = enumerate_sink_star(cid, csp, max_vertices=4)
            assert len(reps) == len(naive)
            forms = {canonical_form(g) for g in reps}
            assert forms == {canonical_form(g) for g in naive}


def test_sink_star_cap_fires():
    with pytest.raises(CapExceededError):
        enumerate_sink_star(0, CHAIN, max_vertices=5, cap=2)


def test_sink_star_refuses_past_the_vertex_pair_cap(monkeypatch):
    # chains of 1, 2 and 3 vertices: 0 + 1 + 3 vertex pairs, 0 + 1 + 3 edges
    monkeypatch.setenv("LLLTOOL_MATERIALIZE_CAP", "4")
    reps = enumerate_sink_star(0, CHAIN, max_vertices=3)
    assert sum(len(g.edges) for g in reps) == 4
    monkeypatch.setenv("LLLTOOL_MATERIALIZE_CAP", "3")
    with pytest.raises(CapExceededError, match="3 digraphs have 4 vertex pairs, cap 3"):
        enumerate_sink_star(0, CHAIN, max_vertices=3)


def test_a_refused_sink_listing_keeps_no_more_stacks_than_the_cap_admits(
    monkeypatch,
):
    # 3,000 chains of 1 to 3,000 vertices: about 4.5e9 vertex pairs. Held
    # all at once, the stacks take about 35 MiB before the refusal; kept
    # only while their pairs fit the default cap (chains up to about 465
    # vertices), about 1 MiB.
    monkeypatch.delenv("LLLTOOL_MATERIALIZE_CAP", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(
            CapExceededError,
            match="^3000 digraphs have 4499999500 vertex pairs, cap 16777216$",
        ):
            enumerate_sink_star(0, CHAIN, max_vertices=3000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_mt2_rejects_alpha_over_the_slack():
    alpha = {0: Fraction(1, 2)}
    beta = {0: Fraction(1, 4)}
    csp = CHAIN
    with pytest.raises(HypothesisError):
        verify_mt2_partial_sums(0, csp, alpha, beta, max_vertices=3)


def test_mt2_range_check():
    with pytest.raises(InvalidParameterError):
        verify_mt2_partial_sums(
            0, CHAIN, {0: Fraction(1)}, {0: Fraction(1, 4)}, max_vertices=2
        )


def test_mt2_series_memo_refuses_past_the_materialization_cap():
    # One constraint: the states are a chain with rooms n-1 down to 0, so
    # the memo holds n(n-1)/2 entries past entry 0 at n vertices. At 6 the
    # third state (5 + 4 + 3) is refused before its lists are built.
    alpha, beta = {0: Fraction(1, 4)}, {0: Fraction(1, 2)}
    with materialize_cap(10):
        rep = verify_mt2_partial_sums(0, CHAIN, alpha, beta, max_vertices=5)
        assert rep["digraphs"] == 5
        with pytest.raises(CapExceededError, match="12 entries, cap 10"):
            verify_mt2_partial_sums(0, CHAIN, alpha, beta, max_vertices=6)
    with materialize_cap(0):
        rep = verify_mt2_partial_sums(0, CHAIN, alpha, beta, max_vertices=1)
        assert rep["digraphs"] == 1
        assert [g.n for g in enumerate_sink_star(0, CHAIN, max_vertices=1)] == [1]


def test_mt2_sum_matches_the_fraction_sum_over_digraphs():
    ring = sinkless_orientation(
        graph_from_edges(4, [(i, (i + 1) % 4) for i in range(4)])
    )
    candidates = [Fraction(1, 3), Fraction(2, 7), Fraction(1, 16),
                  Fraction(3, 100), Fraction(1, 96)]
    betas = [Fraction(1, 2), Fraction(1, 16), Fraction(1, 5)]
    denominators = set()
    checked = 0
    for csp in TINY_FAMILY + [ring]:
        dep = csp.dependency_graph
        beta = {c.id: betas[c.id % len(betas)] for c in csp.constraints}
        alpha = {}
        for c in csp.constraints:
            allowed = beta[c.id]
            for other in dep.adjacency[c.id]:
                allowed *= 1 - beta[other]
            alpha[c.id] = max(x for x in candidates if x <= allowed)
            denominators.add(alpha[c.id].denominator)
        for cid in alpha:
            for max_vertices in (1, 2, 4, 6):
                rep = verify_mt2_partial_sums(cid, csp, alpha, beta, max_vertices)
                digraphs = enumerate_sink_star(cid, csp, max_vertices)
                expected = Fraction(0)
                for g in digraphs:
                    term = Fraction(1)
                    for x in g.decorations:
                        term *= alpha[x]
                    expected += term
                assert Fraction(rep["partial_sum_exact"]) == expected
                assert rep["digraphs"] == len(digraphs)
                assert rep["pass"] == (expected <= Fraction(rep["bound_exact"]))
                checked += 1
    assert len(denominators) >= 3
    assert checked >= 80


def random_sink_problems(seed, count):
    """Sinkless orientations and 3-colourings of random graphs on 5-8 vertices."""
    rng = random.Random(seed)
    problems = []
    for i in range(count):
        n = rng.randint(5, 8)
        edges = {
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.3
        }
        for v in range(n):
            if not any(v in e for e in edges):
                u = rng.choice([u for u in range(n) if u != v])
                edges.add((min(u, v), max(u, v)))
        g = graph_from_edges(n, sorted(edges))
        problems.append(
            sinkless_orientation(g) if i % 2 == 0 else proper_coloring(g, 3)
        )
    return problems


def capped(run):
    """A call's result, or the text of the CapExceededError it raised."""
    try:
        return "value", run()
    except CapExceededError as exc:
        return "cap", str(exc)


def test_stack_counter_matches_the_digraph_listing():
    rng = random.Random(71)
    checked = 0
    for csp in random_sink_problems(72, 5):
        dep = csp.dependency_graph
        weight = {c.id: rng.randrange(5) for c in csp.constraints}
        beta = {c.id: Fraction(1, 4) for c in csp.constraints}
        # alpha(a) <= beta(a) * (1 - 1/4)**deg(a), as the series requires
        alpha = {
            c.id: Fraction(rng.randrange(4), 12)
            * Fraction(3, 4) ** len(dep.adjacency[c.id])
            for c in csp.constraints
        }
        for cid in alpha:
            # The Fraction sum over the digraphs of each vertex count, from
            # the largest listing; the counts below confirm that a smaller
            # max_vertices lists exactly the digraphs of at most that size.
            alpha_per_n = [Fraction(0)] * 7
            for g in enumerate_sink_star(cid, csp, 6, 10**6):
                term = Fraction(1)
                for x in g.decorations:
                    term *= alpha[x]
                alpha_per_n[g.n] += term
            for max_vertices in range(1, 7):
                total, sums = _stack_sums(cid, csp, max_vertices, weight, 10**6)
                # Under unit weights the sums are the stacks per size.
                unit = dict.fromkeys(weight, 1)
                again, counts = _stack_sums(cid, csp, max_vertices, unit, 10**6)
                assert again == total == sum(counts)
                # The listing runs under the counter's own count as its cap,
                # so an undercount surfaces as a refusal.
                digraphs = enumerate_sink_star(cid, csp, max_vertices, total)
                assert len(digraphs) == total
                per_n = [0] * (max_vertices + 1)
                weighted = [0] * (max_vertices + 1)
                for g in digraphs:
                    per_n[g.n] += 1
                    term = 1
                    for x in g.decorations:
                        term *= weight[x]
                    weighted[g.n] += term
                assert counts == per_n and sums == weighted
                rep = verify_mt2_partial_sums(cid, csp, alpha, beta, max_vertices)
                assert rep["digraphs"] == total
                assert Fraction(rep["partial_sum_exact"]) == sum(
                    alpha_per_n[: max_vertices + 1]
                )
                # Under caps of total - 1 and total, both routes refuse alike.
                refused = capped(
                    lambda: enumerate_sink_star(cid, csp, max_vertices, total - 1)
                )
                assert refused[0] == "cap"
                for cap, listed in ((total - 1, refused), (total, ("value", total))):
                    summed = capped(
                        lambda: verify_mt2_partial_sums(
                            cid, csp, alpha, beta, max_vertices, cap
                        )["digraphs"]
                    )
                    assert summed == listed
                checked += 1
    assert checked >= 150


def mask_of(ids) -> int:
    return sum(1 << a for a in set(ids))


def test_bitset_level_rule_matches_the_frozenset_rule():
    # A sinkless orientation of a 200-vertex path has 200 constraints and
    # the path as dependency graph; relabelled, a sink's neighbourhoods are
    # scattered over masks wider than a machine word.
    rng = random.Random(73)
    names = rng.sample(range(200), 200)
    path = sinkless_orientation(
        graph_from_edges(200, [(names[i], names[i + 1]) for i in range(199)])
    )
    path_sinks = range(128, 200, 24)
    cases = [(csp, range(len(csp.constraints)), 4) for csp in TINY_FAMILY]
    cases += [(csp, range(len(csp.constraints)), 6)
              for csp in random_sink_problems(72, 5)]
    cases.append((path, path_sinks, 7))
    states = 0
    wide = 0
    for csp, sinks_at, max_vertices in cases:
        closed = csp.closed_neighborhoods
        masks = _closed_masks(csp)
        assert masks == [mask_of(nbhd) for nbhd in closed]
        for c in sinks_at:
            # Every state `_sink_stacks` reaches is a stack's bottom level,
            # the ids the stack reaches and the room it leaves.
            for stack in _sink_stacks(c, csp, max_vertices):
                reach = frozenset().union(*(closed[a] for lvl in stack for a in lvl))
                room = max_vertices - sum(map(len, stack))
                fast = list(_levels_below(stack[0], mask_of(reach), room, masks))
                slow = list(frozenset_levels_below(stack[0], reach, room, closed))
                assert [level for level, _ in fast] == slow
                for level, covered in fast:
                    assert covered == mask_of(a for b in level for a in closed[b])
                states += 1
                wide += mask_of(reach).bit_length() > 64
    assert states > 1000 and wide > 100


def test_mt2_partial_sum_on_the_ring_is_pinned():
    # circulant(10, {1, 2}), as computed by the frozenset level rule
    ring = sinkless_orientation(
        graph_from_edges(10, [(i, (i + k) % 10) for i in range(10) for k in (1, 2)])
    )
    alpha = {c.id: Fraction(1, 16) for c in ring.constraints}
    beta = {c.id: Fraction(1, 4) for c in ring.constraints}
    rep = verify_mt2_partial_sums(0, ring, alpha, beta, 6)
    assert rep["digraphs"] == 7354
    assert rep["partial_sum_exact"] == "1555339/16777216"


def test_deep_stacks_do_not_exhaust_the_recursion_limit():
    iso = make_csp(1, [((0,), [(1,)])])
    half = {0: Fraction(1, 2)}
    rep = verify_mt2_partial_sums(0, iso, half, half, max_vertices=1500, cap=10**6)
    assert rep["digraphs"] == 1500
    assert Fraction(rep["partial_sum_exact"]) == 1 - Fraction(1, 2**1500)
    assert sum(1 for _ in _sink_stacks(0, iso, 1500)) == 1500


def test_mt2_zero_alpha_sums_to_zero():
    rep = verify_mt2_partial_sums(
        0, CHAIN, {0: Fraction(0)}, {0: Fraction(1, 4)}, max_vertices=4
    )
    assert rep["pass"]
    assert rep["partial_sum_exact"] == "0"


def test_compatibility_equals_existential_definition_sample():
    # small pre-run of the exhaustive acceptance sweep
    rng = random.Random(31)
    checked = 0
    for csp in TINY_FAMILY[2:5]:
        digraphs = [
            g
            for g in enumerate_all_witnesses(csp, 3)
            if all(r < 3 for _, cells in _vertex_cells(g, csp) for _, r in cells)
        ]
        for g in rng.sample(digraphs, min(8, len(digraphs))):
            for table in some_tables(csp, 3, 2, seed=rng.randint(0, 99)):
                assert compatible_by_levels(g, csp, table) == \
                    realizable_by_sequence(g, csp, table)
                checked += 1
    assert checked >= 40


def test_always_violated_vertices_are_always_compatible():
    csp = make_csp(2, [((0, 1), AlwaysViolated())])
    g = witness_from_levels([{0}, {0}], csp)
    for table in some_tables(csp, 3, 3, seed=8):
        assert compatible_by_levels(g, csp, table)
    rep = verify_mt1_exact(g, csp, depth=3)
    assert rep["pass"] and rep["lhs_exact"] == "1"


def random_level_sets(rng, csp):
    """Up to four levels of random ids; repeats and interacting ids allowed."""
    ids = [c.id for c in csp.constraints]
    return [
        [rng.choice(ids) for _ in range(rng.randint(1, 3))]
        for _ in range(rng.randint(0, 4))
    ]


def level_sets_of(g):
    """The level sets of a witness digraph, read off its canonical form."""
    form = canonical_form(g)
    depth = form[-1][0] + 1 if form else 0
    return [[cid for lvl, cid in form if lvl == level] for level in range(depth)]


def random_digraph(rng, csp, n, density):
    """Random decorations; each ordered vertex pair is an edge with odds density."""
    ids = [c.id for c in csp.constraints]
    return WitnessDigraph(
        tuple(rng.choice(ids) for _ in range(n)),
        frozenset((a, b) for a in range(n) for b in range(n)
                  if a != b and rng.random() < density),
    )


def test_edge_rule_matches_the_pairwise_builder():
    rng = random.Random(71)
    problems = TINY_FAMILY + [random_tiny_csp(rng) for _ in range(200)]
    disjoint = Counter()
    for csp in problems:
        closed = csp.closed_neighborhoods
        for level_sets in [random_level_sets(rng, csp) for _ in range(5)]:
            expected = pairwise_witness_from_levels(level_sets, csp)
            assert witness_from_levels(level_sets, csp) == expected
            disjoint[all(
                b not in closed[a]
                for level in level_sets
                for i, a in enumerate(level)
                for b in level[i + 1:]
            )] += 1
    assert disjoint[True] and disjoint[False]

    for csp in TINY_FAMILY:
        for g in enumerate_all_witnesses(csp, 4):
            assert witness_from_levels(level_sets_of(g), csp) == g
        for seq in sequences_upto(csp, 3):
            expected = pairwise_witness_from_levels(seq.steps, csp)
            assert full_witness_digraph(seq, csp) == expected
        for g in enumerate_sink_star(0, csp, max_vertices=4):
            assert pairwise_witness_from_levels(level_sets_of(g), csp) == g

    csp, seq = first_singleton_cycle_run(400)
    big = full_witness_digraph(seq, csp)
    assert big.n > 300
    assert big == pairwise_witness_from_levels(seq.steps, csp)


def broken_copies(rng, g, csp):
    """A valid witness changed four ways; only a reversed edge can stay valid."""
    closed = csp.closed_neighborhoods
    out = []
    if g.edges:
        a, b = rng.choice(sorted(g.edges))
        out.append(("dropped", WitnessDigraph(g.decorations, g.edges - {(a, b)})))
        reversed_edges = (g.edges - {(a, b)}) | {(b, a)}
        out.append(("reversed", WitnessDigraph(g.decorations, reversed_edges)))
    cross = [
        (x, y)
        for x in range(g.n)
        for y in range(g.n)
        if g.decorations[x] not in closed[g.decorations[y]]
    ]
    if cross:
        added = g.edges | {rng.choice(cross)}
        out.append(("cross", WitnessDigraph(g.decorations, added)))
    if g.n:
        # a twin of x: same decoration, same neighbours, so the same level
        x, twin = rng.randrange(g.n), g.n
        edges = set(g.edges)
        edges.update((a, twin) for a, b in g.edges if b == x)
        edges.update((twin, b) for a, b in g.edges if a == x)
        decorations = g.decorations + (g.decorations[x],)
        out.append(("twin", WitnessDigraph(decorations, frozenset(edges))))
    return out


def test_validate_witness_matches_the_pairwise_validator():
    rng = random.Random(72)
    verdicts = Counter()

    def check(kind, g, csp):
        expected = pairwise_validate_witness(g, csp)
        assert validate_witness(g, csp) == expected
        verdicts[kind, expected] += 1

    for csp in TINY_FAMILY + [random_tiny_csp(rng) for _ in range(40)]:
        for _ in range(30):
            check("random", random_digraph(rng, csp, rng.randint(0, 5), 0.3), csp)
        for g in enumerate_all_witnesses(csp, 4):
            check("witness", g, csp)
            for kind, broken in broken_copies(rng, g, csp):
                check(kind, broken, csp)

    csp, seq = first_singleton_cycle_run(400)
    big = full_witness_digraph(seq, csp)
    check("witness", big, csp)
    for kind, broken in broken_copies(rng, big, csp):
        check(kind, broken, csp)

    assert verdicts["random", True] and verdicts["random", False]
    assert verdicts["witness", True] and not verdicts["witness", False]
    for kind in ("dropped", "cross", "twin"):
        assert verdicts[kind, False] and not verdicts[kind, True]
    assert verdicts["reversed", True] and verdicts["reversed", False]


@pytest.mark.parametrize("cid", [99, -1])
def test_validate_witness_refuses_decorations_that_name_no_constraint(cid):
    for g in (
        WitnessDigraph((cid,), frozenset()),
        WitnessDigraph((0, cid), frozenset({(0, 1), (1, 0)})),
    ):
        with pytest.raises(InvalidParameterError, match=f"no constraint with id {cid}"):
            validate_witness(g, PAIR)


def test_vertex_cells_match_pairwise_in_level_counts():
    rng = random.Random(73)
    checked = 0
    for csp in TINY_FAMILY:
        digraphs = enumerate_all_witnesses(csp, 4)
        for g in digraphs + [random_digraph(rng, csp, 4, 0.4) for _ in range(30)]:
            expected = []
            for x, cid in enumerate(g.decorations):
                counts = in_level_counts(g, csp, x)
                cells = tuple((v, counts[v]) for v in csp.constraint(cid).domain)
                expected.append((csp.bad_tests[cid], cells))
            assert _vertex_cells(g, csp) == expected
            checked += 1
    assert checked > 300
