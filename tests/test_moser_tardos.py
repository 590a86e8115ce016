import concurrent.futures
import os
import random
import re
from collections import Counter, namedtuple

import pytest

from conftest import (
    PREDICATE_PROBLEMS,
    TINY_FAMILY,
    make_csp,
    naive_mta_run,
    random_tiny_csp,
    sequences_upto,
    some_tables,
    table_from_rows,
)
from llltool.csp import violates
from llltool.errors import (
    DepthExceededError,
    InvalidInputError,
    ScriptError,
)
from llltool.generators import proper_coloring
from llltool.graphs import graph_from_edges
from llltool.moser_tardos import (
    COMPLETED,
    DEPTH_EXHAUSTED,
    FIRST_SINGLETON,
    ITERATION_CAP,
    MAXIMAL_GREEDY,
    MtSequence,
    _recheck,
    check_consistency,
    mt_monte_carlo,
    mta_run,
    random_strategy,
    scripted_strategy,
)

# One pass of a run, with the violated ids the full-rescan oracle saw.
Step = namedtuple("Step", "fired violated")


def test_sequence_round_trip():
    seq = MtSequence.from_lists([[2, 0], [1]])
    assert seq.to_json() == [[0, 2], [1]]
    assert MtSequence.from_lists(seq.to_json()) == seq


def test_single_resample_then_done():
    csp = make_csp(1, [((0,), [(0,)])])
    table = table_from_rows([[0], [1]])
    trace = mta_run(csp, table)
    assert trace.status == COMPLETED
    assert trace.final_labeling == {0: 1}
    assert trace.final_levels == {0: 1}
    assert trace.sequence() == MtSequence.from_lists([[0]])


def test_immediately_satisfied_never_fires():
    csp = make_csp(2, [((0, 1), [])])
    table = table_from_rows([[0, 0]])
    trace = mta_run(csp, table)
    assert trace.status == COMPLETED
    assert trace.total_resamples() == 0
    assert len(trace.iterations) == 1


def test_depth_exhaustion_reports_the_blocked_step():
    csp = make_csp(1, [((0,), [(0,)])])
    table = table_from_rows([[0], [0]])
    trace = mta_run(csp, table)
    assert trace.status == DEPTH_EXHAUSTED
    # the firing that would run off the table is still recorded
    assert Counter(c for rec in trace.iterations for c in rec.fired) == Counter({0: 2})
    assert trace.final_levels == {0: 1}


def test_iteration_cap():
    csp = make_csp(1, [((0,), [(0,), (1,)])])
    table = table_from_rows([[0]] * 10)
    trace = mta_run(csp, table, max_iters=3)
    assert trace.status == ITERATION_CAP
    assert trace.total_resamples() == 3


def test_first_singleton_fires_lowest_id():
    csp = make_csp(2, [((0,), [(0,)]), ((1,), [(0,)])])
    table = table_from_rows([[0, 0], [1, 1]])
    trace = mta_run(csp, table, FIRST_SINGLETON)
    assert trace.status == COMPLETED
    assert [sorted(r.fired) for r in trace.iterations if r.fired] == [[0], [1]]


def test_maximal_greedy_fires_disjoint_pairs_together():
    csp = make_csp(2, [((0,), [(0,)]), ((1,), [(0,)])])
    table = table_from_rows([[0, 0], [1, 1]])
    trace = mta_run(csp, table, MAXIMAL_GREEDY)
    assert trace.status == COMPLETED
    assert trace.sequence() == MtSequence.from_lists([[0, 1]])


def test_random_strategy_is_seed_deterministic():
    csp = TINY_FAMILY[4]
    table = some_tables(csp, 4, 1, seed=2)[0]
    a = mta_run(csp, table, random_strategy(7))
    b = mta_run(csp, table, random_strategy(7))
    assert a == b


def test_random_strategy_fires_maximal_independent_sets():
    csp = TINY_FAMILY[4]
    dep_adj = {0: {1}, 1: {0, 2}, 2: {1}}
    for seed in range(5):
        for table in some_tables(csp, 4, 3, seed=seed + 20):
            trace = mta_run(csp, table, random_strategy(seed))
            _, _, violated, _, _ = naive_mta_run(csp, table, random_strategy(seed))
            assert len(violated) == len(trace.iterations)
            for rec in map(Step, (r.fired for r in trace.iterations), violated):
                if not rec.violated:
                    continue
                for a in rec.fired:
                    assert not (rec.fired & dep_adj[a])
                for v in set(rec.violated) - rec.fired:
                    assert dep_adj[v] & rec.fired


def test_scripted_replay_and_errors():
    csp = make_csp(2, [((0,), [(0,)]), ((1,), [(0,)])])
    table = table_from_rows([[0, 0], [1, 1]])
    good = MtSequence.from_lists([[0], [1]])
    trace = mta_run(csp, table, scripted_strategy(good))
    assert trace.status == COMPLETED
    assert trace.sequence() == good

    not_violated = MtSequence.from_lists([[0], [0]])
    with pytest.raises(ScriptError):
        mta_run(csp, table, scripted_strategy(not_violated))

    overlapping = make_csp(2, [((0, 1), [(0, 0)]), ((1,), [(0,)])])
    t2 = table_from_rows([[0, 0], [1, 1]])
    with pytest.raises(ScriptError):
        mta_run(overlapping, t2, scripted_strategy(MtSequence.from_lists([[0, 1]])))


def test_script_running_out_hits_the_cap_status():
    csp = make_csp(1, [((0,), [(0,), (1,)])])
    table = table_from_rows([[0]] * 4)
    trace = mta_run(csp, table, scripted_strategy(MtSequence.from_lists([[0]])))
    assert trace.status == ITERATION_CAP
    assert trace.sequence() == MtSequence.from_lists([[0]])


def test_consistency_single_step_cases():
    csp = make_csp(1, [((0,), [(0,)])])
    seq = MtSequence.from_lists([[0]])
    assert check_consistency(csp, table_from_rows([[0], [1]]), seq)
    assert not check_consistency(csp, table_from_rows([[1], [0]]), seq)
    assert check_consistency(csp, table_from_rows([[1]]), MtSequence(()))


def test_consistency_raises_past_depth():
    csp = make_csp(1, [((0,), [(0,), (1,)])])
    seq = MtSequence.from_lists([[0], [0]])
    with pytest.raises(DepthExceededError):
        check_consistency(csp, table_from_rows([[0]]), seq)


def test_consistency_rejects_overlapping_steps():
    csp = make_csp(2, [((0, 1), [(0, 0)]), ((1,), [(0,)])])
    with pytest.raises(InvalidInputError):
        check_consistency(
            csp,
            table_from_rows([[0, 0], [1, 1]]),
            MtSequence.from_lists([[0, 1]]),
        )


def test_every_trace_is_consistent_and_levels_add_up():
    rng = random.Random(77)
    strategies = [
        MAXIMAL_GREEDY,
        FIRST_SINGLETON,
        random_strategy(3),
    ]
    for _ in range(25):
        csp = random_tiny_csp(rng)
        for table in some_tables(csp, 4, 2, seed=rng.randint(0, 999)):
            for strat in strategies:
                trace = mta_run(csp, table, strat)
                assert check_consistency(csp, table, trace.sequence())
                counts = Counter(c for rec in trace.iterations for c in rec.fired)
                if trace.status == DEPTH_EXHAUSTED:
                    # the blocked step is recorded but never applied
                    counts.subtract(trace.iterations[-1].fired)
                for v in csp.variables:
                    expected = sum(
                        counts[c.id]
                        for c in csp.constraints
                        if v in c.domain
                    )
                    assert trace.final_levels[v] == expected


def test_monte_carlo_trivial_instances():
    easy = make_csp(2, [((0, 1), [])])
    rep = mt_monte_carlo(easy, trials=10, depth=2, seed=1)
    assert rep["success_rate"] == 1.0
    assert rep["resample_histogram"] == {"0": 10}

    hopeless = make_csp(1, [((0,), [(0,), (1,)])])
    rep = mt_monte_carlo(hopeless, trials=5, depth=2, seed=1)
    assert rep["successes"] == 0
    assert rep["statuses"] == {DEPTH_EXHAUSTED: 5}


def test_monte_carlo_job_split_is_invisible():
    # The second problem has an empty domain, a one-variable domain and a
    # predicate, so every kind of row reader and bad test goes to a worker.
    for csp in (TINY_FAMILY[4], PREDICATE_PROBLEMS[0]):
        one = mt_monte_carlo(csp, trials=8, depth=6, seed=5, jobs=1)
        two = mt_monte_carlo(csp, trials=8, depth=6, seed=5, jobs=2)
        assert one == two


def test_monte_carlo_starts_no_more_workers_than_trials_or_cores(monkeypatch):
    # A stand-in pool that records its size and maps in this process, so
    # the test starts no process at any `jobs`.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    csp = TINY_FAMILY[4]
    for cores, trials, jobs, pool in (
        (3, 8, 10_000, [3]),  # jobs > cores
        (3, 2, 10_000, [2]),  # jobs > trials
        (3, 8, 2, [2]),
        (3, 1, 10_000, []),  # one trial runs in-process
        (1, 8, 10_000, []),  # one core runs in-process
        (None, 8, 4, []),  # an unknown core count counts as one
    ):
        monkeypatch.setattr(os, "cpu_count", lambda: cores)
        sizes.clear()
        serial = mt_monte_carlo(csp, trials=trials, depth=6, seed=5)
        assert mt_monte_carlo(csp, trials=trials, depth=6, seed=5, jobs=jobs) == serial
        assert sizes == pool, (cores, trials, jobs)


def test_monte_carlo_counts_total():
    csp = TINY_FAMILY[2]
    rep = mt_monte_carlo(csp, trials=12, depth=5, seed=9,
                         strategy=random_strategy(4))
    assert sum(rep["statuses"].values()) == 12
    assert sum(rep["resample_histogram"].values()) == 12


def assert_same_run(csp, table, strategy, max_iters=None) -> str:
    """mta_run against the full-rescan oracle; returns the outcome seen."""
    try:
        status, steps, _, labeling, levels = naive_mta_run(
            csp, table, strategy, max_iters
        )
    except ScriptError as exc:
        with pytest.raises(ScriptError, match=f"^{re.escape(str(exc))}$"):
            mta_run(csp, table, strategy, max_iters)
        return "script_error"
    trace = mta_run(csp, table, strategy, max_iters)
    assert trace.status == status
    assert [rec.fired for rec in trace.iterations] == steps
    assert trace.sequence() == MtSequence(tuple(step for step in steps if step))
    assert trace.final_labeling == labeling
    assert trace.final_levels == levels
    return status


DUAL_ROUTE_STRATEGIES = [
    MAXIMAL_GREEDY,
    FIRST_SINGLETON,
    *(random_strategy(seed) for seed in (0, 1, 7, 2**40 + 3)),
]


def test_incremental_run_matches_the_full_rescan_oracle():
    rng = random.Random(4242)
    problems = (
        TINY_FAMILY + [random_tiny_csp(rng) for _ in range(200)] + PREDICATE_PROBLEMS
    )
    outcomes = set()
    for index, csp in enumerate(problems):
        for table in some_tables(csp, 3, 2, seed=index):
            for strategy in DUAL_ROUTE_STRATEGIES:
                for max_iters in (None, 1, 2):
                    outcomes.add(assert_same_run(csp, table, strategy, max_iters))
    assert outcomes == {COMPLETED, DEPTH_EXHAUSTED, ITERATION_CAP}


def test_incremental_run_matches_the_oracle_on_a_cycle_colouring():
    n = 40
    csp = proper_coloring(graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)]), 3)
    outcomes = set()
    for depth in (3, 64):
        for table in some_tables(csp, depth, 3, seed=depth):
            for strategy in DUAL_ROUTE_STRATEGIES:
                for max_iters in (None, 5):
                    outcomes.add(assert_same_run(csp, table, strategy, max_iters))
    assert outcomes == {COMPLETED, DEPTH_EXHAUSTED, ITERATION_CAP}


def test_scripted_runs_match_the_oracle_errors_included():
    outcomes = set()
    for index, csp in enumerate(TINY_FAMILY):
        ids = [c.id for c in csp.constraints]
        scripts = sequences_upto(csp, 3) + [
            # every constraint at once (overlapping domains when m > 1),
            # an id that names no constraint, and an empty step
            MtSequence((frozenset(ids),)),
            MtSequence((frozenset({len(ids)}),)),
            MtSequence((frozenset(), frozenset({ids[0]}))),
        ]
        for table in some_tables(csp, 3, 3, seed=100 + index):
            for seq in scripts:
                for max_iters in (None, 1):
                    outcomes.add(assert_same_run(
                        csp, table, scripted_strategy(seq), max_iters
                    ))
    assert outcomes == {
        COMPLETED, DEPTH_EXHAUSTED, ITERATION_CAP, "script_error"
    }


def test_recheck_matches_a_full_rescan_on_labels_from_anywhere():
    """Labels written by hand, not read from a table: after `_recheck` the
    violated set is what a full rescan through `violates` finds, and the
    heap holds every violated id."""
    rng = random.Random(2027)
    problems = TINY_FAMILY + [random_tiny_csp(rng) for _ in range(100)]
    fired_sizes = Counter()
    for csp in problems:
        k = csp.label_count

        def rescan(labeling):
            return {
                c.id for c in csp.constraints
                if violates(csp, c.id, {v: labeling[v] for v in c.domain})
            }

        labeling = {v: rng.randrange(k) for v in csp.variables}
        violated = rescan(labeling)
        heap = sorted(violated)
        for _ in range(6):
            # an arbitrary domain-disjoint set, violated or not
            fired, seen = set(), set()
            for c in rng.sample(csp.constraints, rng.randint(0, len(csp.constraints))):
                if seen.isdisjoint(c.domain):
                    fired.add(c.id)
                    seen.update(c.domain)
            for v in seen:
                labeling[v] = rng.randrange(k)
            _recheck(csp, labeling, frozenset(fired), violated, heap)
            assert violated == rescan(labeling)
            assert violated <= set(heap)
            fired_sizes[len(fired)] += 1
    assert {0, 1, 2} <= set(fired_sizes)
