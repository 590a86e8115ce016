import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    TINY_FAMILY,
    make_csp,
    paired_hypergraph,
    pairwise_square_independent,
    quotient_induction_step,
    quotient_solve_double_exp,
    random_tiny_csp,
)
from llltool import derand
from llltool.csp import (
    AlwaysViolated,
    BadPredicate,
    Csp,
    build_dependency_graph,
    conditional_mass,
    is_solution,
    prob_bad,
    quotient_csp,
)
from llltool.errors import (
    CapExceededError,
    HypothesisError,
    InternalInvariantError,
    InvalidParameterError,
    UnsatisfiableConstraintError,
)
from llltool.derand import (
    PipelineParams,
    _square_independent,
    induction_step,
    least_growth_radius,
    parameter_advisor,
    params_from_json,
    pipeline,
    solve_double_exp,
    solve_edgeless,
)
from llltool.generators import (
    Hypergraph,
    hypergraph_2coloring,
    proper_coloring,
    sinkless_orientation,
)
from llltool.graphs import (
    GrowthProfile,
    graph_from_edges,
    growth_profile,
    power_graph,
)


def path_graph(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def chained_hypergraph(pairs, arity=6):
    """Hyperedge pairs sharing exactly one vertex: dependency degree 1."""
    edges = []
    v = 0
    for _ in range(pairs):
        first = tuple(range(v, v + arity))
        second = tuple(range(v + arity - 1, v + 2 * arity - 1))
        edges.extend([first, second])
        v += 2 * arity - 1
    return Hypergraph(v, tuple(edges))


def test_edgeless_picks_lex_first_acceptable_rows():
    csp = make_csp(3, [((0,), [(0,)]), ((1, 2), [(0, 0), (0, 1)])])
    assert solve_edgeless(csp) == {0: 1, 1: 1, 2: 0}


def test_edgeless_unconstrained_variables_default_to_zero():
    csp = make_csp(2, [((0,), [])])
    assert solve_edgeless(csp) == {0: 0, 1: 0}


def test_edgeless_rejects_full_bad_and_edges():
    with pytest.raises(UnsatisfiableConstraintError):
        solve_edgeless(make_csp(1, [((0,), [(0,), (1,)])]))
    chain = make_csp(3, [((0, 1), []), ((1, 2), [])])
    with pytest.raises(InvalidParameterError):
        solve_edgeless(chain)


def test_induction_step_empty_class():
    q = quotient_csp(make_csp(1, [((0,), [])]), {})
    assert induction_step(q.base, q.fixed, []) == {}


def test_induction_step_masses_stay_bounded():
    csp = hypergraph_2coloring(chained_hypergraph(1, arity=3))
    q = quotient_csp(csp, {})
    before = {c.id: prob_bad(csp, c.id) for c in csp.constraints}
    phi = induction_step(q.base, q.fixed, [0])
    assert set(phi) == set(csp.constraint(0).domain)
    after = quotient_csp(csp, phi)
    d = 1
    for cid in (0, 1):
        assert prob_bad(after.csp, cid) <= (d + 1) * before[cid]


def test_induction_step_rejects_adjacent_class_members():
    csp = hypergraph_2coloring(chained_hypergraph(1, arity=3))
    q = quotient_csp(csp, {})
    with pytest.raises(InvalidParameterError):
        induction_step(q.base, q.fixed, [0, 1])


def test_square_independence_agrees_with_the_squared_graph():
    rng = random.Random(5)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graph = graph_from_edges(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        csp = proper_coloring(graph, 2)
        square = power_graph(build_dependency_graph(csp), 2)
        ids = range(len(csp.constraints))
        for _ in range(10):
            chosen = rng.sample(ids, rng.randint(1, min(4, len(ids))))
            expected = all(
                b not in square.adjacency[a] for a in chosen for b in chosen if a != b
            )
            assert _square_independent(csp, chosen) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}


def test_double_exp_requires_its_precondition():
    with pytest.raises(InvalidParameterError):
        solve_double_exp(sinkless_orientation(cycle_graph(4)))


def test_double_exp_trivial_and_edgeless_cases():
    empty = make_csp(3, [])
    assert solve_double_exp(empty) == {0: 0, 1: 0, 2: 0}
    loose = make_csp(2, [((0,), [(0,)]), ((1,), [(0,)])])
    assert solve_double_exp(loose) == solve_edgeless(loose)


def test_double_exp_solves_sparse_hypergraph_coloring():
    csp = hypergraph_2coloring(chained_hypergraph(2))
    ledger = []
    labeling = solve_double_exp(csp, ledger=ledger)
    assert is_solution(csp, labeling)
    assert ledger
    for entry in ledger:
        assert entry["ok"]
        assert entry["mass"] <= entry["bound"]
        assert entry["bound"] == 2 ** entry["k"] * prob_bad(csp, entry["constraint"])
    assert all(
        set(entry)
        >= {"class_index", "class", "constraint", "mass", "k", "bound", "ok"}
        for entry in ledger
    )


def test_double_exp_untouched_constraints_keep_their_mass():
    csp = hypergraph_2coloring(chained_hypergraph(3))
    ledger = []
    solve_double_exp(csp, ledger=ledger)
    for entry in ledger:
        if entry["k"] == 0:
            assert entry["mass"] == prob_bad(csp, entry["constraint"])


def test_double_exp_is_deterministic():
    csp = hypergraph_2coloring(chained_hypergraph(2))
    assert solve_double_exp(csp) == solve_double_exp(csp)


def test_double_exp_five_coloring_a_path():
    csp = proper_coloring(path_graph(3), 5)
    labeling = solve_double_exp(csp)
    assert is_solution(csp, labeling)


def test_pipeline_params_validation_and_round_trip():
    params = PipelineParams(
        p=Fraction(1, 16), d=4, s=Fraction(21, 20), eps=Fraction(1, 30),
        eta=Fraction(1, 64), R=1, N=2, depth=3,
    )
    assert params_from_json(params.to_json()) == params
    with pytest.raises(InvalidParameterError):
        PipelineParams(
            p=Fraction(1, 16), d=4, s=Fraction(21, 20), eps=Fraction(2),
            eta=Fraction(1, 64), R=1, N=2, depth=3,
        )
    with pytest.raises(InvalidParameterError):
        PipelineParams(
            p=Fraction(3, 2), d=4, s=Fraction(21, 20), eps=Fraction(1, 30),
            eta=Fraction(1, 64), R=1, N=2, depth=3,
        )


def test_least_growth_radius_frozen_case():
    prof = growth_profile(cycle_graph(9), 8)
    assert least_growth_radius(prof, Fraction(1, 2)) == 3
    assert least_growth_radius(prof, Fraction(1, 100)) is None


def test_advisor_rejects_failed_premise():
    growth = growth_profile(path_graph(20), 6)
    with pytest.raises(HypothesisError):
        parameter_advisor(Fraction(1, 4), 4, Fraction(6, 5), growth)


def test_advisor_needs_room_below_one_minus_inverse_s():
    # a short profile keeps the growth proxy too coarse for this s
    growth = growth_profile(cycle_graph(9), 8)
    with pytest.raises(HypothesisError, match="profile"):
        parameter_advisor(Fraction(1, 1024), 3, Fraction(6, 5), growth)


def test_advisor_demands_profile_past_twice_the_radius():
    growth = growth_profile(path_graph(300), 30)
    with pytest.raises(InvalidParameterError, match="profile"):
        parameter_advisor(Fraction(1, 1024), 3, Fraction(6, 5), growth)


def test_advisor_derives_consistent_parameters():
    growth = growth_profile(path_graph(400), 80)
    params, report = parameter_advisor(
        Fraction(1, 1024), 3, Fraction(6, 5), growth
    )
    assert 0 < params.eps < 1 - Fraction(5, 6)
    assert growth.proxy_less_than(1 / (1 - params.eps))
    # chosen radius is minimal for gamma(R) * (1-eps)^R < 1
    assert least_growth_radius(growth, params.eps) == params.R
    assert growth.gamma_at(params.R) * (1 - params.eps) ** params.R < 1
    gap = 1 - params.eps - Fraction(5, 6)
    a, b = gap.numerator, gap.denominator
    ratio = (1 - params.eta) / (1 + params.eta)
    assert Fraction(1, 1024) ** a < ratio**b
    assert params.depth == 4 * params.N + 1
    target = Fraction(report["factor_exact"]) * \
        Fraction(report["gamma2R"]) ** report["gamma2R"]
    assert (1 + params.eta) ** params.N > target
    assert (1 + params.eta) ** (params.N - 1) <= target  # least such N
    # far past the small-N window where exhaustive solving is realistic
    assert report["feasible_deterministic"] is False


def test_advisor_finds_the_least_n_past_a_hundred_thousand():
    # gamma(2R) = 3000 at R = 1 needs N above 10**5; the least N is
    # checked against exact powers at N and N - 1
    growth = GrowthProfile((1, 3000, 3000), 1, 1)
    params, report = parameter_advisor(
        Fraction(1, 1024), 2, Fraction(6, 5), growth
    )
    assert (params.R, params.eta) == (1, Fraction(1, 4))
    assert params.N == report["N"] == 107_643
    target = Fraction(report["factor_exact"]) * Fraction(3000) ** 3000
    assert (1 + params.eta) ** params.N > target
    assert (1 + params.eta) ** (params.N - 1) <= target


def test_advisor_accepts_a_profile_that_just_reaches_twice_the_radius():
    # up to radius 68 this path has the profile of any longer one,
    # gamma(r) = 2r + 1, and the advisor picks R = 34
    p, s = Fraction(1, 1024), Fraction(6, 5)
    path = path_graph(140)
    growth = growth_profile(path, 68)
    params, report = parameter_advisor(p, 2, s, growth)
    assert params.R == 34
    assert report["gamma2R"] == growth.gamma_at(68)
    with pytest.raises(InvalidParameterError, match="must reach radius 68"):
        parameter_advisor(p, 2, s, growth_profile(path, 67))


def test_pipeline_randomized_solves_easy_instances():
    csp = make_csp(2, [((0, 1), [])])
    params = PipelineParams(
        p=Fraction(0), d=0, s=Fraction(6, 5), eps=Fraction(1, 24),
        eta=Fraction(1, 64), R=1, N=1, depth=2,
    )
    rep = pipeline(csp, params, mode="randomized", seed=1, trials=5)
    assert rep["status"] == "solved"
    assert rep["is_solution"]
    assert rep["attempts"] == 1
    assert rep["resamples"] == 0


def test_pipeline_deterministic_reports_infeasible_past_caps():
    csp = proper_coloring(path_graph(3), 2)
    params = PipelineParams(
        p=Fraction(1, 2), d=1, s=Fraction(6, 5), eps=Fraction(1, 24),
        eta=Fraction(1, 64), R=1, N=1, depth=40,
    )
    rep = pipeline(csp, params, mode="deterministic", seed=0)
    assert rep["status"] == "infeasible"
    assert "cap_failed" in rep


def test_pipeline_no_good_table_status():
    csp = make_csp(1, [((0,), [(0,), (1,)])])
    params = PipelineParams(
        p=Fraction(0), d=0, s=Fraction(6, 5), eps=Fraction(1, 24),
        eta=Fraction(1, 64), R=1, N=1, depth=3,
    )
    rep = pipeline(csp, params, mode="randomized", seed=1, trials=4)
    assert rep["status"] == "no_good_table"
    assert rep["attempts"] == 4


def test_pipeline_rejects_unknown_mode():
    csp = make_csp(1, [((0,), [])])
    params = PipelineParams(
        p=Fraction(0), d=0, s=Fraction(6, 5), eps=Fraction(1, 24),
        eta=Fraction(1, 64), R=1, N=1, depth=2,
    )
    with pytest.raises(InvalidParameterError):
        pipeline(csp, params, mode="alchemy")


def test_random_sparse_instances_all_solve():
    rng = random.Random(55)
    for _ in range(6):
        pairs = rng.randint(1, 3)
        csp = hypergraph_2coloring(chained_hypergraph(pairs))
        ledger = []
        labeling = solve_double_exp(csp, ledger=ledger)
        assert is_solution(csp, labeling)
        assert all(e["ok"] for e in ledger)


class AllZero(BadPredicate):
    """Bad exactly when every label is 0, known by membership only."""

    def contains(self, row):
        return not any(row)


class AllZeroWithMass(AllZero):
    """The same bad set with its exact mass as a shortcut."""

    def exact_prob(self, csp, domain):
        return csp.weights[0] ** len(domain)


WEIGHTINGS = [
    (Fraction(1, 2), Fraction(1, 2)),
    (Fraction(1, 4), Fraction(3, 4)),
    (Fraction(1, 8), Fraction(7, 8)),
    (Fraction(9, 10), Fraction(1, 10)),
]

PREDICATE_FAMILY = [
    make_csp(3, [((), AllZero()), ((0, 1), AllZeroWithMass()),
                 ((1,), AlwaysViolated()), ((1, 2), [(0, 1)])]),
    make_csp(4, [((0, 1, 2), AllZero()), ((2, 3), AlwaysViolated()),
                 ((), AllZeroWithMass())], weights=WEIGHTINGS[1]),
]


def random_reweighted_csps(seed, count):
    """Random tiny problems, most under non-uniform label weights."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        csp = random_tiny_csp(rng)
        weights = rng.choice(WEIGHTINGS)
        out.append(Csp(csp.variables, csp.label_count, weights, csp.constraints))
    return out


def with_bad(csp, bad):
    """The same domains, each bad set replaced by the predicate class `bad`."""
    return make_csp(
        len(csp.variables), [(c.domain, bad()) for c in csp.constraints]
    )


def outcome(run):
    """A call's result, or the type and text of the error it raised."""
    try:
        return "value", run()
    except (CapExceededError, InvalidParameterError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)


def test_conditional_mass_matches_the_quotient_mass():
    rng = random.Random(61)
    problems = TINY_FAMILY + PREDICATE_FAMILY + random_reweighted_csps(62, 60)
    kinds = set()
    for csp in problems:
        for _ in range(12):
            share = rng.choice([0, 0.5, 1])
            fixed = {
                v: rng.randrange(csp.label_count)
                for v in csp.variables
                if rng.random() < share
            }
            reduced = quotient_csp(csp, fixed).csp
            for c in csp.constraints:
                for cap in (None, 0, 1, 2, 4):
                    fast = outcome(lambda: conditional_mass(csp, c.id, fixed, cap))
                    slow = outcome(lambda: prob_bad(reduced, c.id, cap))
                    assert fast == slow, (csp, fixed, c.id, cap)
                    if fast[0] == "value":
                        kinds.add(fast[1] if fast[1] in (0, 1) else "between")
                    else:
                        kinds.add(fast[0])
            assert all(
                conditional_mass(csp, c.id, {}) == prob_bad(csp, c.id)
                for c in csp.constraints
            )
    assert kinds == {0, 1, "between", "CapExceededError"}


def assert_same_solve(csp, cap=None):
    """Both routes give the same labeling or error, and the same ledger."""
    ledgers = ([], [])
    fast = outcome(lambda: solve_double_exp(csp, ledgers[0], cap))
    slow = outcome(lambda: quotient_solve_double_exp(csp, ledgers[1], cap))
    assert fast == slow
    assert ledgers[0] == ledgers[1]
    return fast


def test_double_exp_matches_the_quotient_route():
    results = [
        assert_same_solve(csp)
        for csp in TINY_FAMILY + PREDICATE_FAMILY + random_reweighted_csps(63, 200)
    ]
    rng = random.Random(64)
    for _ in range(8):
        plain = hypergraph_2coloring(paired_hypergraph(rng))
        results.append(assert_same_solve(plain))
        for bad in (AllZero, AllZeroWithMass):
            for cap in (None, 64, 16, 4):
                results.append(assert_same_solve(with_bad(plain, bad), cap))
    assert {kind for kind, _ in results} == {
        "value", "InvalidParameterError", "CapExceededError"
    }
    refusals = {text for kind, text in results if kind == "CapExceededError"}
    # a whole 6-edge past the cap, and one conditioned on a fixed variable
    assert any("needs 64 rows" in text for text in refusals)
    assert any("needs 32 rows" in text for text in refusals)


def test_induction_step_matches_the_quotient_route():
    rng = random.Random(65)
    kinds = set()
    for csp in TINY_FAMILY + PREDICATE_FAMILY + random_reweighted_csps(66, 40):
        ids = [c.id for c in csp.constraints]
        for _ in range(6):
            fixed = {
                v: rng.randrange(csp.label_count)
                for v in csp.variables
                if rng.random() < 0.4
            }
            q = quotient_csp(csp, fixed)
            color_class = rng.sample(ids, rng.randint(0, len(ids)))
            for cap in (None, 1, 2):
                fast = outcome(
                    lambda: induction_step(q.base, q.fixed, color_class, cap)
                )
                slow = outcome(lambda: quotient_induction_step(q, color_class, cap))
                assert fast == slow
                kinds.add(fast[0])
    assert kinds == {"value", "InvalidParameterError", "CapExceededError"}


def test_square_independence_ignores_repeated_ids():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        graph = graph_from_edges(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        csp = proper_coloring(graph, 2)
        ids = range(len(csp.constraints))
        for _ in range(10):
            chosen = rng.sample(ids, rng.randint(1, min(3, len(ids))))
            chosen += rng.choices(chosen, k=rng.randint(1, 3))
            expected = pairwise_square_independent(csp, chosen)
            assert _square_independent(csp, chosen) == expected
            outcomes.add(expected)
    assert outcomes == {True, False}
    csp = hypergraph_2coloring(chained_hypergraph(1, arity=3))
    q = quotient_csp(csp, {})
    assert _square_independent(csp, [0, 0])
    twice = induction_step(q.base, q.fixed, [0, 0])
    assert twice == induction_step(q.base, q.fixed, [0])


def test_small_cap_deterministic_pipeline_matches_the_quotient_route(monkeypatch):
    problems = [
        proper_coloring(path_graph(2), 2),
        proper_coloring(graph_from_edges(4, [(0, 1), (2, 3)]), 2),
        proper_coloring(path_graph(3), 2),
    ]
    reports = []
    for csp, depth, cap, budget in itertools.product(
        problems, (1, 2), (4, 16, 64), (1, 3, 200_000)
    ):
        params = PipelineParams(
            p=Fraction(1, 2), d=1, s=Fraction(6, 5), eps=Fraction(1, 24),
            eta=Fraction(1, 64), R=1, N=1, depth=depth,
        )

        def run():
            return pipeline(
                csp, params, mode="deterministic", budget=budget, cap=cap
            )

        fast = outcome(run)
        with monkeypatch.context() as patched:
            patched.setattr(derand, "solve_double_exp", quotient_solve_double_exp)
            slow = outcome(run)
        assert fast == slow
        reports.append(fast)
    values = [rep for kind, rep in reports if kind == "value"]
    assert {rep["status"] for rep in values} == {"solved", "infeasible"}
    # the refusals: base masses past the cap, and an exhausted search,
    # which is reported as a budget failure although it is a cap error
    assert "materializing constraint 0 needs 64 rows, cap 16" in {
        rep.get("cap_failed") for rep in values
    }
    assert "search exceeded 1 count vectors at c=0, r=0" in {
        rep.get("budget_failed") for rep in values
    }
    assert ("InvalidParameterError", "p(d+1)^(d+1) = 2.0 is not < 1") in reports
