import itertools
import random
from fractions import Fraction

import pytest

from conftest import (
    TINY_FAMILY,
    UnsatisfiableConstraintError,
    cell_table,
    column_lg_csp,
    decode_table,
    make_csp,
    materialize_cap,
    paired_hypergraph,
    pairwise_square_independent,
    quotient_induction_step,
    quotient_solve_double_exp,
    random_tiny_csp,
    solve_edgeless,
)
from llltool import derand
from llltool.csp import (
    AlwaysViolated,
    BadPredicate,
    Csp,
    build_dependency_graph,
    conditional_weight,
    is_solution,
    prob_bad,
    quotient_csp,
)
from llltool.errors import (
    CapExceededError,
    HypothesisError,
    InternalInvariantError,
    InvalidParameterError,
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
)
from llltool.exact import format_rational
from llltool.generators import (
    Hypergraph,
    hypergraph_2coloring,
    proper_coloring,
    sinkless_orientation,
)
from llltool.graphs import (
    GrowthProfile,
    graph_from_edges,
    greedy_proper_coloring,
    growth_profile,
    power_graph,
)
from llltool.local_goodness import build_lg_csp
from llltool.tables import sample_table


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
    assert induction_step(make_csp(1, [((0,), [])]), {}, []) == {}


def test_induction_step_masses_stay_bounded():
    csp = hypergraph_2coloring(chained_hypergraph(1, arity=3))
    before = {c.id: prob_bad(csp, c.id) for c in csp.constraints}
    phi = induction_step(csp, {}, [0])
    assert set(phi) == set(csp.constraint(0).domain)
    after = quotient_csp(csp, phi)
    d = 1
    for cid in (0, 1):
        assert prob_bad(after, cid) <= (d + 1) * before[cid]


def test_induction_step_rejects_adjacent_class_members():
    csp = hypergraph_2coloring(chained_hypergraph(1, arity=3))
    with pytest.raises(InvalidParameterError):
        induction_step(csp, {}, [0, 1])


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
        eps=Fraction(1, 30), eta=Fraction(1, 64), R=1, N=2, depth=3,
    )
    assert params_from_json(params.to_json()) == params
    with pytest.raises(InvalidParameterError):
        PipelineParams(
            eps=Fraction(2), eta=Fraction(1, 64), R=1, N=2, depth=3,
        )
    with pytest.raises(InvalidParameterError, match="depth >= 1 required"):
        PipelineParams(
            eps=Fraction(1, 30), eta=Fraction(1, 64), R=1, N=2, depth=0,
        )


def test_a_params_file_loads_with_or_without_p_d_and_s():
    five = {"eps": "1/30", "eta": "1/64", "R": 1, "N": 2, "depth": 3}
    params = params_from_json(five)
    assert params == PipelineParams(
        eps=Fraction(1, 30), eta=Fraction(1, 64), R=1, N=2, depth=3,
    )
    assert params.to_json() == five
    # A file with p, d and s, as the advisor once wrote it, loads to equal
    # params; nothing reads those three, so a bad value there is not refused.
    assert params_from_json({"p": "1/16", "d": 4, "s": "21/20", **five}) == params
    assert params_from_json({"p": "3/2", "d": -1, "s": "x", **five}) == params


def test_least_growth_radius_frozen_case():
    prof = growth_profile(cycle_graph(9), 8)
    assert least_growth_radius(prof, Fraction(1, 2)) == 3
    assert least_growth_radius(prof, Fraction(1, 100)) is None


def test_advisor_rejects_failed_premise():
    growth = growth_profile(path_graph(20), 6)
    with pytest.raises(HypothesisError):
        parameter_advisor(Fraction(1, 4), 4, Fraction(6, 5), growth)


def test_advisor_refuses_a_problem_with_no_constraints():
    growth = growth_profile(build_dependency_graph(make_csp(3, [])), 4)
    assert growth.gamma == (0, 0, 0, 0)
    with pytest.raises(InvalidParameterError, match="no constraints"):
        parameter_advisor(Fraction(0), 0, Fraction(3, 2), growth)


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


def bisected_proxy_upper(g, r, scale=10**6):
    """The least n/scale with n**r >= g * scale**r, found by bisection."""
    lo, hi = 0, g * scale
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**r >= g * scale**r:
            hi = mid
        else:
            lo = mid + 1
    return Fraction(lo, scale)


def test_advisor_proxy_root_matches_the_bisection():
    # With s = 10**9 every proxy up to 10**8 leaves room for eps, and the
    # profile (1, 1) then accepts R = 1, so eps is reported for every case.
    rng = random.Random(71)
    s = Fraction(10**9)
    cases = [(1, 1), (10**8, 1), (10**8, 60), (2**20, 20), (3**16, 16), (7, 60)]
    cases += [
        (t**r, r) for r in range(1, 61) for t in (2, 3, 10, 99) if t**r <= 10**8
    ]
    cases += [
        (int(10 ** rng.uniform(0, 8)), rng.randint(1, 60)) for _ in range(300)
    ]
    for g, r in cases:
        upper = bisected_proxy_upper(g, r)
        eps = (max(Fraction(0), 1 - 1 / upper) + 1 - 1 / s) / 2
        _, report = parameter_advisor(
            Fraction(0), 0, s, GrowthProfile((1, 1), r, g)
        )
        assert report["eps"] == format_rational(eps), (g, r)


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
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=2,
    )
    rep = pipeline(csp, params, mode="randomized", seed=1, trials=5)
    assert rep["status"] == "solved"
    assert rep["is_solution"]
    assert rep["attempts"] == 1
    assert rep["resamples"] == 0


def test_pipeline_deterministic_reports_infeasible_past_caps():
    csp = proper_coloring(path_graph(3), 2)
    params = PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=40,
    )
    rep = pipeline(csp, params, mode="deterministic", seed=0)
    assert rep["status"] == "infeasible"
    assert "cap_failed" in rep


def test_pipeline_no_good_table_status():
    csp = make_csp(1, [((0,), [(0,), (1,)])])
    params = PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=3,
    )
    rep = pipeline(csp, params, mode="randomized", seed=1, trials=4)
    assert rep["status"] == "no_good_table"
    assert rep["attempts"] == 4
    rep = pipeline(csp, params, mode="deterministic")
    assert rep["status"] == "no_good_table"
    assert rep["reason"] == "constraint 0 is violated by every labeling"


def test_solve_names_the_least_constraint_bad_on_every_labeling():
    csp = make_csp(
        2, [((0,), [(1,)]), ((0, 1), AlwaysViolated()), ((1,), [(0,), (1,)])]
    )
    with pytest.raises(HypothesisError) as info:
        solve_double_exp(csp)
    assert str(info.value) == "constraint 1 is violated by every labeling"


def test_pipeline_rejects_unknown_mode():
    csp = make_csp(1, [((0,), [])])
    params = PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=2,
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
    except (
        CapExceededError, InvalidParameterError, InternalInvariantError, HypothesisError
    ) as exc:
        return type(exc).__name__, str(exc)


def test_conditional_mass_matches_the_quotient_mass():
    rng = random.Random(61)
    problems = TINY_FAMILY + PREDICATE_FAMILY + random_reweighted_csps(62, 60)
    cases = []
    for csp in problems:
        for _ in range(12):
            share = rng.choice([0, 0.5, 1])
            fixed = {
                v: rng.randrange(csp.label_count)
                for v in csp.variables
                if rng.random() < share
            }
            cases.append((csp, fixed, quotient_csp(csp, fixed)))
            assert all(
                Fraction(*conditional_weight(csp, c.id, {})) == prob_bad(csp, c.id)
                for c in csp.constraints
            )
    kinds = set()
    # One cap at a time: setting the variable rewrites the whole environment.
    for cap in (None, 0, 1, 2, 4):
        with materialize_cap(cap):
            for csp, fixed, reduced in cases:
                for c in csp.constraints:
                    fast = outcome(
                        lambda: Fraction(*conditional_weight(csp, c.id, fixed))
                    )
                    slow = outcome(lambda: prob_bad(reduced, c.id))
                    assert fast == slow, (csp, fixed, c.id, cap)
                    if fast[0] == "value":
                        kinds.add(fast[1] if fast[1] in (0, 1) else "between")
                    else:
                        kinds.add(fast[0])
    assert kinds == {0, 1, "between", "CapExceededError"}


def assert_same_solve(csp, cap=None):
    """Both routes give the same labeling or error, and the same ledger.

    Both run under the materialization cap `cap` (None: the default).
    """
    ledgers = ([], [])
    with materialize_cap(cap):
        fast = outcome(lambda: solve_double_exp(csp, ledgers[0]))
        slow = outcome(lambda: quotient_solve_double_exp(csp, ledgers[1]))
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
        "value", "InvalidParameterError", "CapExceededError", "HypothesisError"
    }
    refusals = {text for kind, text in results if kind == "CapExceededError"}
    # a whole 6-edge past the cap, and one conditioned on a fixed variable
    assert any("needs 64 rows" in text for text in refusals)
    assert any("needs 32 rows" in text for text in refusals)


def fixed_after_each_class(csp, ledger, labeling):
    """What classes 0..i of the ledger fixed, read from the final labeling.

    A class fixes the still-free variables of its members' domains, so
    after class i every variable in a domain of classes 0..i is fixed.
    """
    classes = {entry["class_index"]: entry["class"] for entry in ledger}
    fixed, after = {}, []
    for index in sorted(classes):
        for cid in classes[index]:
            fixed.update((v, labeling[v]) for v in csp.constraints[cid].domain)
        after.append(dict(fixed))
    return after


def test_carried_masses_equal_the_masses_recomputed_after_each_class():
    rng = random.Random(67)
    names = rng.sample(range(96), 96)
    cycle = proper_coloring(
        graph_from_edges(96, [(names[i], names[(i + 1) % 96]) for i in range(96)]),
        32,
    )
    runs = [(cycle, None)]
    for _ in range(4):
        plain = hypergraph_2coloring(paired_hypergraph(rng))
        runs.append((plain, None))
        for bad in (AllZero, AllZeroWithMass):
            for cap in (None, 64, 16, 4):
                runs.append((with_bad(plain, bad), cap))
    kinds = set()
    checked = 0
    for csp, cap in runs:
        ledgers = ([], [])
        with materialize_cap(cap):
            fast = outcome(lambda: solve_double_exp(csp, ledgers[0]))
            slow = outcome(lambda: quotient_solve_double_exp(csp, ledgers[1]))
        assert fast == slow
        assert ledgers[0] == ledgers[1]
        kinds.add(fast[0])
        for entry in ledgers[0]:
            assert type(entry["bound"]) is Fraction and type(entry["mass"]) is Fraction
            assert entry["ok"] == (entry["mass"] <= entry["bound"])
        if fast[0] != "value":
            continue
        after = fixed_after_each_class(csp, ledgers[0], fast[1])
        for entry in ledgers[0]:
            fixed = after[entry["class_index"]]
            assert entry["mass"] == Fraction(
                *conditional_weight(csp, entry["constraint"], fixed)
            )
            checked += 1
    assert kinds == {"value", "CapExceededError"}
    assert checked > 500


def test_induction_step_matches_the_quotient_route():
    rng = random.Random(65)
    cases = []
    for csp in TINY_FAMILY + PREDICATE_FAMILY + random_reweighted_csps(66, 40):
        ids = [c.id for c in csp.constraints]
        for _ in range(6):
            fixed = {
                v: rng.randrange(csp.label_count)
                for v in csp.variables
                if rng.random() < 0.4
            }
            reduced = quotient_csp(csp, fixed)
            cases.append((csp, fixed, reduced, rng.sample(ids, rng.randint(0, len(ids)))))
    kinds = set()
    for cap in (None, 1, 2):
        with materialize_cap(cap):
            for csp, fixed, reduced, color_class in cases:
                fast = outcome(lambda: induction_step(csp, fixed, color_class))
                slow = outcome(lambda: quotient_induction_step(csp, reduced, color_class))
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
    assert _square_independent(csp, [0, 0])
    twice = induction_step(csp, {}, [0, 0])
    assert twice == induction_step(csp, {}, [0])


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
            eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=depth,
        )

        def run():
            with materialize_cap(cap):
                return pipeline(csp, params, mode="deterministic", budget=budget)

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


def lg_route(build, read_table, csp, R, N, eps, depth):
    """One meta-problem route: its dependency graph, each constraint's base
    mass, and the derandomized table with its ledger."""
    meta = build(csp, R, N, eps, depth)
    masses = [outcome(lambda: prob_bad(meta, c.id)) for c in meta.constraints]
    ledger = []
    solved = outcome(
        lambda: read_table(csp, solve_double_exp(meta, ledger), depth)
    )
    return meta.dependency_graph.adjacency, masses, solved, ledger


def test_cell_meta_problem_matches_the_column_code_oracle():
    # Cells against column codes: equal dependency graphs, equal base
    # masses or equal refusals, and the same table and ledger from
    # solve_double_exp, or the same refusal.
    problems = [
        proper_coloring(path_graph(3), 2),
        proper_coloring(graph_from_edges(4, [(0, 1), (2, 3)]), 2),
        proper_coloring(path_graph(2), 3),
        TINY_FAMILY[6],  # skewed weights
        TINY_FAMILY[8],  # an empty domain
        sinkless_orientation(cycle_graph(3)),
    ]

    def codes(csp, labeling, depth):
        return decode_table(labeling, csp.label_count, depth)

    kinds = set()
    for csp, depth, R, N, eps in itertools.product(
        problems, (1, 2, 3), (0, 1, 2), (1, 2), (Fraction(1, 24), Fraction(1, 2))
    ):
        with materialize_cap(512):
            old = lg_route(column_lg_csp, codes, csp, R, N, eps, depth)
            new = lg_route(build_lg_csp, cell_table, csp, R, N, eps, depth)
        assert old == new, (csp, depth, R, N, eps)
        kinds.add(new[2][0])
    assert kinds == {
        "value", "CapExceededError", "InvalidParameterError", "HypothesisError"
    }


def bridged_blocks(rng):
    """Blocks of 5 variables joined by 4-variable bridges, under skewed weights.

    A bridge takes two variables from one block and one or two from another,
    plus a private variable when it takes one: its targets then include a
    block that shares no variable with its free ones once that block is
    fixed, and a bridge without a private variable often has no free
    variable left at its class. Every bad set is "all labels 0": explicit,
    `AllZero` (membership only) or `AllZeroWithMass` (with the shortcut),
    chosen per constraint, so one closed neighborhood mixes all three.
    """
    blocks = rng.randint(2, 4)
    specs = [(tuple(range(5 * b, 5 * b + 5)), None) for b in range(blocks)]
    n = 5 * blocks
    used = set()
    for _ in range(rng.randint(1, blocks + 1)):
        a, b = rng.sample(range(blocks), 2)
        picked = set(rng.sample(range(5 * a, 5 * a + 5), 2))
        picked |= set(rng.sample(range(5 * b, 5 * b + 5), rng.choice([1, 2])))
        if len(picked) < 4:
            picked.add(n)
            n += 1
        if picked & used:
            continue
        used |= picked
        specs.append((tuple(sorted(picked)), None))
    kinds = [lambda size: [(0,) * size], lambda size: AllZero(),
             lambda size: AllZeroWithMass()]
    specs = [(domain, rng.choice(kinds)(len(domain))) for domain, _ in specs]
    weights = rng.choice([(Fraction(1, 8), Fraction(7, 8)), (Fraction(1, 4), Fraction(3, 4))])
    return make_csp(n, specs, weights=weights)


def test_picks_evaluate_only_the_targets_a_row_can_touch(monkeypatch):
    rng = random.Random(71)
    problems = [bridged_blocks(rng) for _ in range(60)]
    seen = {"no free variable": 0, "skipped target": 0}
    calls = []

    def counted_weight(csp, cid, fixed):
        calls.append(cid)
        return conditional_weight(csp, cid, fixed)

    def checked_pick(csp, cid, fixed, current, d, exact):
        free = {v for v in csp.constraints[cid].domain if v not in fixed}
        touched = {
            a for a in csp.closed_neighborhoods[cid]
            if free & set(csp.constraints[a].domain)
        }
        seen["no free variable"] += not free
        seen["skipped target"] += len(csp.closed_neighborhoods[cid]) - len(touched)
        del calls[:]
        result = pick(csp, cid, fixed, current, d, exact)
        assert set(calls) <= touched
        assert free or not calls
        return result

    pick = derand._pick
    kinds = set()
    for csp in problems:
        for cap in (None, 64, 16, 4, 1):
            with monkeypatch.context() as patched:
                patched.setattr(derand, "conditional_weight", counted_weight)
                patched.setattr(derand, "_pick", checked_pick)
                kinds.add(assert_same_solve(csp, cap)[0])
    assert kinds == {"value", "InvalidParameterError", "CapExceededError"}
    assert seen["no free variable"] > 20 and seen["skipped target"] > 100


def test_one_row_index_per_distinct_bad_set():
    rng = random.Random(72)
    names = rng.sample(range(480), 480)
    cycle = proper_coloring(
        graph_from_edges(480, [(names[i], names[(i + 1) % 480]) for i in range(480)]),
        32,
    )
    solve_double_exp(cycle, [])
    index = cycle.bad_index
    assert len(index) == 480
    assert all(entry is index[0] for entry in index)
    assert all(c.bad is cycle.constraints[0].bad for c in cycle.constraints)
    groups, total = index[0]
    assert total == 32 and len(groups) == 64
    edges = tuple(
        tuple(range(start, start + size))
        for start, size in ((0, 3), (3, 4), (7, 3), (10, 5), (15, 4), (19, 3))
    )
    coloring = hypergraph_2coloring(Hypergraph(22, edges))
    solve_double_exp(coloring)
    by_size = {}
    bad_by_size = {}
    for c in coloring.constraints:
        assert by_size.setdefault(len(c.domain), coloring.bad_index[c.id]) is (
            coloring.bad_index[c.id]
        )
        assert bad_by_size.setdefault(len(c.domain), c.bad) is c.bad
    assert len({id(entry) for entry in coloring.bad_index}) == len(by_size) == 3
    assert len({id(c.bad) for c in coloring.constraints}) == 3


def square_colored_problems(rng):
    """Problems whose squares the colouring tests compare, under seeded names."""
    problems = list(TINY_FAMILY)
    problems.append(make_csp(3, []))
    # isolated constraints, an empty domain among them
    problems.append(make_csp(4, [((0,), [(0,)]), ((), [()]), ((2, 3), [(1, 1)])]))
    for _ in range(12):
        n = rng.randint(2, 12)
        names = rng.sample(range(n), n)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = rng.sample(pairs, rng.randint(1, min(len(pairs), 2 * n)))
        graph = graph_from_edges(n, [(names[u], names[v]) for u, v in edges])
        problems.append(proper_coloring(graph, rng.randint(1, 3)))
    for _ in range(12):
        n = rng.randint(3, 16)
        edges = [
            tuple(sorted(rng.sample(range(n), rng.randint(1, min(n, 4)))))
            for _ in range(rng.randint(1, 10))
        ]
        problems.append(hypergraph_2coloring(Hypergraph(n, tuple(edges))))
    return problems


def test_square_coloring_matches_the_power_graph_route():
    problems = square_colored_problems(random.Random(73))
    used = set()
    for csp in problems:
        square = power_graph(build_dependency_graph(csp), 2)
        colors = derand._square_coloring(csp)
        assert colors == greedy_proper_coloring(square.adjacency)
        classes = {}
        for cid, color in enumerate(colors):
            classes.setdefault(color, []).append(cid)
        assert all(_square_independent(csp, ids) for ids in classes.values())
        used.add(len(classes))
    assert 0 in used and max(used) >= 6


def test_shared_base_masses_keep_the_quotient_route_ledger():
    zeros, mixed, swapped = [(0,) * 5], [(0, 1, 0, 1, 0)], [(1, 0, 0, 1, 0)]
    domains = [tuple(range(start, start + 5)) for start in range(0, 32, 4)]
    # A path of 5-variable domains: c0, c1 and c7 share one explicit set,
    # c2 and c3 hold distinct sets of equal total, c4 and c5 are predicates.
    bads = [zeros, zeros, mixed, swapped, AllZero(), AllZeroWithMass(),
            [(0, 0, 1, 1, 0)], zeros]
    for weights in (None, (Fraction(1, 4), Fraction(3, 4))):
        csp = make_csp(33, list(zip(domains, bads)), weights=weights)
        assert csp.bad_index[0] is csp.bad_index[1] is csp.bad_index[7]
        assert csp.bad_index[2] is not csp.bad_index[3]
        assert csp.bad_index[2][1] == csp.bad_index[3][1]
        masses, slots = derand._base_masses(csp)
        assert slots == [0, 0, 1, 2, 3, 4, 5, 0]
        assert masses == [prob_bad(csp, cid) for cid in (0, 2, 3, 4, 5, 6)]
        ledgers = ([], [])
        fast = solve_double_exp(csp, ledgers[0])
        assert fast == quotient_solve_double_exp(csp, ledgers[1])
        assert len(ledgers[0]) == len(ledgers[1]) > 0
        for entry, oracle in zip(*ledgers):
            assert entry == oracle
            assert type(entry["mass"]) is Fraction
            assert type(entry["bound"]) is Fraction
        with materialize_cap(4):
            refusals = [
                outcome(lambda: solve_double_exp(csp, [])),
                outcome(lambda: quotient_solve_double_exp(csp, [])),
            ]
        assert refusals[0] == refusals[1] == (
            "CapExceededError", "materializing constraint 4 needs 32 rows, cap 4"
        )


def test_randomized_pipeline_reads_the_cells_a_stored_table_holds(monkeypatch):
    params = PipelineParams(
        eps=Fraction(1, 24), eta=Fraction(1, 64), R=1, N=1, depth=3,
    )
    statuses = set()
    for csp, seed in itertools.product(TINY_FAMILY, (0, 1, 2)):
        keyed = pipeline(csp, params, mode="randomized", seed=seed, trials=4)
        drawn = []

        def stored(*_):
            """The whole table of the next attempt, as `sample_table` draws it."""
            drawn.append(len(drawn))
            return sample_table(csp.weights, csp.variables, params.depth, seed, drawn[-1])

        with monkeypatch.context() as patched:
            patched.setattr(derand, "KeyedTable", stored)
            assert pipeline(csp, params, mode="randomized", seed=seed, trials=4) == keyed
        assert len(drawn) == keyed["attempts"]
        statuses.add(keyed["status"])
    assert statuses >= {"solved", "no_good_table"}
