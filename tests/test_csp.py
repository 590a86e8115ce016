import itertools
import json
import math
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    OddSum,
    PREDICATE_PROBLEMS,
    TINY_FAMILY,
    all_labelings,
    lg_degree_check,
    make_csp,
    materialize_bad,
    materialize_cap,
    pairwise_neighbors,
    random_tiny_csp,
)
from llltool.csp import (
    AlwaysViolated,
    BadPredicate,
    Constraint,
    Csp,
    assignment_rows,
    build_dependency_graph,
    conditional_weight,
    dump_problem,
    is_solution,
    lll_condition,
    load_problem,
    max_bad_mass,
    prob_bad,
    quotient_csp,
    uniform_weights,
    violates,
)
from llltool.errors import (
    CapExceededError,
    InvalidInputError,
    InvalidParameterError,
    MissingVariableError,
)
from llltool.exact import e_interval
from llltool.local_goodness import LBadPredicate, build_lg_csp


def test_weights_must_sum_to_one():
    with pytest.raises(InvalidInputError):
        Csp((0,), 2, (Fraction(1, 2), Fraction(1, 3)), ())


def test_constraint_ids_must_be_dense():
    c = Constraint(1, (0,), frozenset())
    with pytest.raises(InvalidInputError):
        Csp((0,), 2, uniform_weights(2), (c,))


def test_a_repeated_id_fails_the_dense_id_check():
    c = Constraint(0, (0,), frozenset())
    with pytest.raises(InvalidInputError, match="dense 0..m-1"):
        Csp((0,), 2, uniform_weights(2), (c, c))


def test_bad_rows_must_match_domain_arity():
    with pytest.raises(InvalidInputError):
        Constraint(0, (0, 1), frozenset({(0,)}))


def test_bad_labels_must_be_in_range():
    c = Constraint(0, (0,), frozenset({(5,)}))
    with pytest.raises(InvalidInputError):
        Csp((0,), 2, uniform_weights(2), (c,))


def test_domain_must_be_sorted_unique():
    with pytest.raises(InvalidInputError):
        Constraint(0, (1, 0), frozenset())
    with pytest.raises(InvalidInputError):
        Constraint(0, (0, 0), frozenset())


def test_violates_reads_only_the_domain():
    csp = make_csp(3, [((0, 1), [(1, 0)])])
    assert violates(csp, 0, {0: 1, 1: 0})
    assert not violates(csp, 0, {0: 1, 1: 1})


def test_violates_requires_domain_coverage():
    csp = make_csp(2, [((0, 1), [(0, 0)])])
    with pytest.raises(MissingVariableError):
        violates(csp, 0, {0: 0})


def test_empty_domain_constraint_two_states():
    hit = make_csp(1, [((), [()])])
    miss = make_csp(1, [((), [])])
    assert violates(hit, 0, {})
    assert not violates(miss, 0, {})
    assert prob_bad(hit, 0) == 1
    assert prob_bad(miss, 0) == 0


def test_is_solution_checks_every_constraint():
    csp = make_csp(2, [((0,), [(0,)]), ((1,), [(1,)])])
    assert is_solution(csp, {0: 1, 1: 0})
    assert not is_solution(csp, {0: 0, 1: 0})


def test_prob_bad_explicit_rows():
    csp = make_csp(2, [((0, 1), [(0, 0), (1, 1)])])
    assert prob_bad(csp, 0) == Fraction(1, 2)
    skew = make_csp(2, [((0, 1), [(0, 0), (1, 1)])],
                    weights=(Fraction(1, 4), Fraction(3, 4)))
    assert prob_bad(skew, 0) == Fraction(1, 16) + Fraction(9, 16)


def test_prob_bad_always_violated_short_circuits():
    csp = make_csp(2, [((0, 1), AlwaysViolated())])
    # no materialization needed even when the cap forbids enumeration
    with materialize_cap(1):
        assert prob_bad(csp, 0) == 1


def test_materialize_predicate_respects_cap():
    csp = make_csp(2, [((0, 1), AlwaysViolated())])
    assert materialize_bad(csp, 0) == frozenset(
        assignment_rows(2, 2)
    )
    big = make_csp(4, [(tuple(range(4)), AlwaysViolated())])
    with materialize_cap(3), pytest.raises(CapExceededError):
        materialize_bad(big, 0)


def test_dependency_graph_links_shared_variables():
    csp = make_csp(3, [((0, 1), []), ((1, 2), []), ((2,), [])])
    dep = build_dependency_graph(csp)
    assert dep.adjacency == ((1,), (0, 2), (1,))
    assert csp.closed_neighborhoods[1] == frozenset({0, 1, 2})


def _assert_index_matches_definition(csp):
    neighbors = pairwise_neighbors(csp)
    assert csp.dependency_graph.adjacency == tuple(
        tuple(sorted(nbrs)) for nbrs in neighbors
    )
    assert csp.closed_neighborhoods == tuple(
        frozenset(nbrs | {cid}) for cid, nbrs in enumerate(neighbors)
    )


def test_dependency_index_matches_pairwise_domain_intersection():
    rng = random.Random(3)
    problems = TINY_FAMILY + [random_tiny_csp(rng) for _ in range(200)]
    for csp in problems:
        _assert_index_matches_definition(csp)
        assert csp.dependency_graph is csp.dependency_graph
        assert csp.closed_neighborhoods is csp.closed_neighborhoods


def test_quotient_problem_gets_its_own_index():
    csp = make_csp(3, [((0, 1), [(0, 0)]), ((1, 2), [(1, 1)]), ((2,), [])])
    assert csp.dependency_graph.adjacency == ((1,), (0, 2), (1,))
    reduced = quotient_csp(csp, {1: 0})
    assert reduced.dependency_graph == build_dependency_graph(reduced)
    assert reduced.dependency_graph.adjacency == ((), (2,), (1,))
    _assert_index_matches_definition(reduced)


def test_built_index_leaves_equality_hash_and_pickling_alone():
    for csp in TINY_FAMILY + PREDICATE_PROBLEMS:
        fresh = Csp(csp.variables, csp.label_count, csp.weights, csp.constraints)
        assert csp == fresh and hash(csp) == hash(fresh)
        assert repr(csp) == repr(fresh)
        copy = pickle.loads(pickle.dumps(csp))
        assert copy == csp and hash(copy) == hash(csp)
        assert copy.dependency_graph == build_dependency_graph(fresh)
        assert copy.closed_neighborhoods == fresh.closed_neighborhoods
        for f in all_labelings(csp):
            for cid in range(len(csp.constraints)):
                assert copy.bad_tests[cid](copy.row_readers[cid](f)) == (
                    csp.bad_tests[cid](csp.row_readers[cid](f))
                )
    # Equal explicit sets share one test, in a pickled copy too.
    shared = make_csp(3, [((0, 1), [(0, 1)]), ((1, 2), [(0, 1)]), ((2,), [(1,)])])
    for csp in (shared, pickle.loads(pickle.dumps(shared))):
        assert csp.bad_tests[0] is csp.bad_tests[1]
        assert csp.bad_tests[0] is not csp.bad_tests[2]


def test_row_readers_and_bad_tests_match_violates():
    rng = random.Random(2525)
    problems = (
        TINY_FAMILY + PREDICATE_PROBLEMS + [random_tiny_csp(rng) for _ in range(200)]
    )
    arities = set()
    for csp in problems:
        for c in csp.constraints:
            arities.add(len(c.domain))
            read, test = csp.row_readers[c.id], csp.bad_tests[c.id]
            for f in all_labelings(csp):
                assert test(read(f)) == violates(csp, c.id, f)
    assert arities == {0, 1, 2, 3}


def _unread(*args):
    raise AssertionError("a predicate was read while building a problem")


class UnreadablePredicate(BadPredicate):
    contains = _unread
    exact_prob = _unread


def test_construction_never_reads_a_predicate(monkeypatch):
    for cls in (AlwaysViolated, LBadPredicate):
        monkeypatch.setattr(cls, "contains", _unread)
        monkeypatch.setattr(cls, "exact_prob", _unread)
    weights = (Fraction(1, 3), Fraction(2, 3))
    base = make_csp(4, [
        ((0, 1), [(0, 0), (1, 1)]),
        ((1, 2), UnreadablePredicate()),
        ((2, 3), AlwaysViolated()),
        ((3,), [(1,)]),
    ], weights=weights)
    reduced = quotient_csp(base, {1: 0})
    meta = build_lg_csp(base, 1, 2, Fraction(1, 4), 2)
    assert lg_degree_check(base, 1)["max_degree"] == 3
    for csp in (base, reduced, meta):
        _assert_index_matches_definition(csp)
        denominator, numerators = csp.weight_scale
        assert tuple(Fraction(n, denominator) for n in numerators) == csp.weights
        for c, entry in zip(csp.constraints, csp.bad_index):
            assert (entry is None) == (not isinstance(c.bad, frozenset))
    assert [entry is None for entry in base.bad_index] == [False, True, True, False]
    assert base.bad_index[0][1] == 1 + 4 and base.bad_index[3][1] == 2
    assert all(entry is None for entry in meta.bad_index)


def test_empty_domain_is_isolated_in_dependency_graph():
    csp = make_csp(1, [((), [()]), ((0,), [(0,)])])
    dep = build_dependency_graph(csp)
    assert dep.adjacency[0] == ()


def test_max_bad_mass():
    csp = make_csp(3, [((0, 1), [(0, 0)]), ((1, 2), [(1, 1), (0, 0)])])
    assert max_bad_mass(csp) == Fraction(1, 2)
    assert csp.dependency_graph.max_degree() == 1
    assert max_bad_mass(make_csp(2, [])) == 0


def test_lll_condition_classic():
    assert lll_condition(Fraction(1, 16), 4, "classic")
    assert not lll_condition(Fraction(1, 4), 2, "classic")


def test_lll_condition_double_exp():
    assert lll_condition(Fraction(1, 32), 1, "double_exp")
    assert not lll_condition(Fraction(1, 4), 2, "double_exp")


def test_lll_condition_exponent():
    assert lll_condition(Fraction(1, 1024), 3, "exponent", s=Fraction(6, 5))
    assert not lll_condition(Fraction(1, 2), 3, "exponent", s=Fraction(6, 5))
    with pytest.raises(InvalidParameterError):
        lll_condition(Fraction(1, 8), 1, "exponent")
    with pytest.raises(InvalidParameterError):
        lll_condition(Fraction(1, 8), 1, "exponent", s=Fraction(1))


def exponent_by_fraction_powers(p, d, s):
    """p * (e(d+1))**s < 1 through p**b * (d+1)**a * e**a as Fractions."""
    a, b = s.numerator, s.denominator
    coeff = p**b * Fraction(d + 1) ** a
    terms = 12
    while True:
        lo, hi = e_interval(terms)
        if coeff * hi**a < 1:
            return True
        if coeff * lo**a >= 1:
            return False
        terms *= 2


def test_no_lll_condition_holds_for_a_certain_bad_event():
    for d in (0, 1, 5):
        for variant, s in (("classic", None), ("double_exp", None),
                           ("exponent", Fraction(3, 2))):
            assert not lll_condition(Fraction(1), d, variant, s)


def test_lll_condition_exponent_matches_the_fraction_route():
    verdicts = set()
    for p in (Fraction(1, 2), Fraction(1, 8), Fraction(3, 40), Fraction(1, 64),
              Fraction(1, 729)):
        for d in range(5):
            for a in range(2, 8):
                for b in range(1, a):
                    s = Fraction(a, b)
                    holds = lll_condition(p, d, "exponent", s)
                    assert holds == exponent_by_fraction_powers(p, d, s), (p, d, s)
                    verdicts.add(holds)
    assert verdicts == {True, False}


def test_lll_condition_exponent_is_fast_for_s_near_one():
    # The Fraction route built e**100001 enclosures and took seconds here.
    start = time.perf_counter()
    for p, holds in ((Fraction(1, 1024), True), (Fraction(1, 8), False)):
        assert lll_condition(p, 2, "exponent", Fraction(100001, 100000)) is holds
    assert time.perf_counter() - start < 1


def test_lll_condition_rejects_nonsense():
    for p in (Fraction(3, 2), Fraction(-1, 8)):
        with pytest.raises(InvalidParameterError, match=r"^p must lie in \[0,1\]$"):
            lll_condition(p, 1, "classic")
    with pytest.raises(InvalidParameterError):
        lll_condition(Fraction(1, 8), 1, "triple_exp")


def test_quotient_shrinks_domains_and_conditions_bads():
    csp = make_csp(3, [((0, 1), [(0, 0), (1, 1)]), ((1, 2), [(0, 1)])])
    q = quotient_csp(csp, {1: 0})
    assert q.variables == (0, 2)
    c0 = q.constraint(0)
    assert c0.domain == (0,)
    assert materialize_bad(q, 0) == frozenset({(0,)})
    assert materialize_bad(q, 1) == frozenset({(1,)})


def test_quotient_fully_fixed_constraint_keeps_verdict():
    csp = make_csp(2, [((0, 1), [(1, 0)])])
    violated = quotient_csp(csp, {0: 1, 1: 0})
    fine = quotient_csp(csp, {0: 0, 1: 0})
    assert prob_bad(violated, 0) == 1
    assert prob_bad(fine, 0) == 0


def test_quotient_rejects_unknown_variable():
    csp = make_csp(1, [((0,), [(0,)])])
    with pytest.raises(InvalidInputError):
        quotient_csp(csp, {4: 0})
    with pytest.raises(InvalidInputError):
        quotient_csp(csp, {0: 9})


def conditional_mass_by_enumeration(csp, cid, fixed):
    """Direct sum over completions of the constraint's free variables."""
    c = csp.constraint(cid)
    free = [v for v in c.domain if v not in fixed]
    total = Fraction(0)
    for row in assignment_rows(csp.label_count, len(free)):
        f = dict(fixed)
        f.update(zip(free, row))
        if violates(csp, cid, f):
            mass = Fraction(1)
            for v, lab in zip(free, row):
                mass *= csp.weights[lab]
            total += mass
    return total


def test_quotient_masses_match_enumeration():
    rng = random.Random(101)
    for _ in range(40):
        csp = random_tiny_csp(rng)
        fixed = {
            v: rng.randint(0, 1)
            for v in csp.variables
            if rng.random() < 0.5
        }
        q = quotient_csp(csp, fixed)
        for c in csp.constraints:
            assert prob_bad(q, c.id) == conditional_mass_by_enumeration(
                csp, c.id, fixed
            )


def test_quotients_compose():
    csp = make_csp(3, [((0, 1), [(0, 0)]), ((1, 2), [(1, 1)])])
    one = quotient_csp(quotient_csp(csp, {0: 0}), {1: 0})
    both = quotient_csp(csp, {0: 0, 1: 0})
    for cid in (0, 1):
        assert materialize_bad(one, cid) == materialize_bad(both, cid)


class CountingRows(frozenset):
    """An explicit bad set that counts the membership lookups made in it."""

    lookups = 0

    def __contains__(self, row):
        CountingRows.lookups += 1
        return frozenset.__contains__(self, row)


def naive_weight(csp, cid, fixed):
    """The unreduced pair by enumerating every completion of the free variables.

    The scale is recomputed here from the weights, not read from the problem.
    """
    c = csp.constraint(cid)
    scale = math.lcm(*(w.denominator for w in csp.weights))
    numerators = [int(w * scale) for w in csp.weights]
    free = [v for v in c.domain if v not in fixed]
    total = 0
    for labels in itertools.product(range(csp.label_count), repeat=len(free)):
        labeling = {**fixed, **dict(zip(free, labels))}
        if frozenset.__contains__(c.bad, tuple(labeling[v] for v in c.domain)):
            total += math.prod(numerators[lab] for lab in labels)
    return total, scale ** len(free)


def expected_lookups(csp, cid, fixed):
    """Membership lookups of the cheaper side: the free assignments, or none.

    Fully pinned (an empty domain too) is one lookup, nothing pinned is
    none; partly pinned looks up the free assignments only when there are
    fewer of them than rows under the first pinned position's label.
    """
    c = csp.constraint(cid)
    pinned = [i for i, v in enumerate(c.domain) if v in fixed]
    free = len(c.domain) - len(pinned)
    if not free:
        return 1
    if not pinned:
        return 0
    first = pinned[0]
    rows = [row for row in c.bad if row[first] == fixed[c.domain[first]]]
    assignments = csp.label_count ** free
    return assignments if assignments < len(rows) else 0


def random_explicit_problem(rng):
    """Up to 5 explicit constraints under random weights.

    Bad sets are empty, sparse, dense or full, some domains are empty, and
    some constraints repeat an earlier bad set as an equal, distinct object.
    """
    k = rng.randint(1, 3)
    n = rng.randint(1, 6)
    raw = [rng.randint(1, 5) for _ in range(k)]
    weights = tuple(Fraction(x, sum(raw)) for x in raw)
    constraints = []
    for cid in range(rng.randint(1, 5)):
        if constraints and rng.random() < 0.3:
            earlier = rng.choice(constraints)
            size, bad = len(earlier.domain), CountingRows(set(earlier.bad))
        else:
            size = rng.randint(0, min(n, 4))
            density = rng.choice([0, 0.2, 0.5, 0.8, 1])
            bad = CountingRows(
                row
                for row in itertools.product(range(k), repeat=size)
                if rng.random() < density
            )
        domain = tuple(sorted(rng.sample(range(n), size)))
        constraints.append(Constraint(cid, domain, bad))
    return Csp(tuple(range(n)), k, weights, tuple(constraints))


def assert_indexed_weights_match_enumeration(csp, rng, sides):
    for c in csp.constraints:
        for size in range(len(c.domain) + 1):
            for positions in itertools.combinations(range(len(c.domain)), size):
                for _ in range(3):
                    fixed = {c.domain[i]: rng.randrange(csp.label_count) for i in positions}
                    fixed[len(csp.variables)] = 0  # off the domain: ignored
                    before = CountingRows.lookups
                    pair = conditional_weight(csp, c.id, fixed)
                    lookups = CountingRows.lookups - before
                    assert pair == naive_weight(csp, c.id, fixed), (csp, c.id, fixed)
                    assert lookups == expected_lookups(csp, c.id, fixed), (csp, c.id, fixed)
                    if 0 < size < len(c.domain):
                        sides.add("lookups" if lookups else "rows")
        assert prob_bad(csp, c.id) == Fraction(*naive_weight(csp, c.id, {}))


def test_indexed_conditional_weight_matches_enumeration():
    rng = random.Random(181)
    sides = set()
    for _ in range(250):
        csp = random_explicit_problem(rng)
        assert_indexed_weights_match_enumeration(csp, rng, sides)
        index = csp.bad_index
        for a in csp.constraints:
            for b in csp.constraints:
                assert (index[a.id] is index[b.id]) == (a.bad == b.bad)
    assert sides == {"rows", "lookups"}


def test_problems_sharing_constraints_keep_their_own_weights():
    rng = random.Random(182)
    for _ in range(40):
        csp = random_explicit_problem(rng)
        if csp.label_count < 2:
            continue
        raw = [rng.randint(1, 9) for _ in range(csp.label_count)]
        other = Csp(csp.variables, csp.label_count,
                    tuple(Fraction(x, sum(raw)) for x in raw), csp.constraints)
        for problem in (csp, other, csp):
            assert_indexed_weights_match_enumeration(problem, rng, set())
            for c in problem.constraints:
                assert prob_bad(problem, c.id) == Fraction(*naive_weight(problem, c.id, {}))
    shared = Constraint(0, (0, 1), frozenset({(0, 0), (1, 1)}))
    skew = Csp((0, 1), 2, (Fraction(1, 4), Fraction(3, 4)), (shared,))
    even = Csp((0, 1), 2, uniform_weights(2), (shared,))
    assert prob_bad(skew, 0) == Fraction(10, 16)
    assert prob_bad(even, 0) == Fraction(1, 2)
    assert prob_bad(skew, 0) == Fraction(10, 16)
    assert not hasattr(shared, "_bad_index")


def test_problem_json_round_trip_family():
    for csp in TINY_FAMILY:
        again = load_problem(json.dumps(dump_problem(csp)))
        assert again == csp


def test_problem_json_always_tag():
    csp = make_csp(2, [((0, 1), AlwaysViolated())])
    obj = dump_problem(csp)
    assert obj["constraints"][0]["bad"] == "always"
    again = load_problem(json.dumps(obj))
    assert isinstance(again.constraint(0).bad, AlwaysViolated)


def test_problem_json_refuses_a_predicate_bad_set():
    csp = make_csp(3, [((0,), [(1,)]), ((0, 1, 2), OddSum())])
    with pytest.raises(InvalidInputError) as info:
        dump_problem(csp)
    assert str(info.value) == "constraint 1: only explicit bad sets serialize"


def test_problem_json_defaults_to_uniform_weights():
    obj = {
        "variables": 2,
        "labels": {"count": 3},
        "constraints": [{"id": 0, "domain": [0], "bad": [[2]]}],
    }
    csp = load_problem(json.dumps(obj))
    assert csp.weights == uniform_weights(3)


def test_problem_json_rejects_garbage():
    with pytest.raises(InvalidInputError):
        load_problem("{not json")
    with pytest.raises(InvalidInputError):
        load_problem(json.dumps({"labels": {"count": 2}}))


@settings(max_examples=40)
@given(st.integers(0, 3), st.integers(1, 3))
def test_assignment_rows_cover_exactly_the_cube(length, k):
    rows = list(assignment_rows(k, length))
    assert len(rows) == k**length
    assert len(set(rows)) == len(rows)
    assert rows == sorted(rows)  # lexicographic, stable for greedy scans
