"""Depth-truncated (maximal) Moser-Tardos execution over a fixed table.

The resampling loop never draws fresh randomness: variable v read at level n
always yields table row n. A run therefore is a pure function of
(csp, table, strategy), and any run is summarized by the sequence of fired
constraint sets, which `check_consistency` can replay against the table.

One step of the loop is one transition: `_choose` picks the fired set
(each strategy's rule, and the checks on a scripted step, live there),
the fired domains are redrawn, and `_recheck` re-tests the closed
neighbourhoods of the fired constraints once the new labels are written.
`mta_run` reads those labels from its table; `_recheck` takes them from
wherever the caller wrote them.
"""

from __future__ import annotations

import heapq
import os
import random
from collections import Counter
from dataclasses import dataclass

from .csp import Csp, violates
from .errors import InvalidInputError, InvalidParameterError, ScriptError
from .graphs import maximal_independent_set
from .tables import CellSampler, CellSource, KeyedTable, derive_u64

COMPLETED = "completed"
DEPTH_EXHAUSTED = "depth_exhausted"
ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class MtSequence:
    """Finite list of constraint-id sets, one per resampling step."""

    steps: tuple[frozenset[int], ...]

    @staticmethod
    def from_lists(lists) -> "MtSequence":
        return MtSequence(tuple(frozenset(int(c) for c in step) for step in lists))

    def to_json(self) -> list[list[int]]:
        return [sorted(s) for s in self.steps]


def _check_step_disjoint(csp: Csp, step: frozenset[int]) -> bool:
    seen: set[int] = set()
    for cid in step:
        dom = csp.constraint(cid).domain
        if seen.intersection(dom):
            return False
        seen.update(dom)
    return True


@dataclass(frozen=True)
class Strategy:
    kind: str
    seed: int = 0
    script: MtSequence | None = None


MAXIMAL_GREEDY = Strategy("maximal_greedy")
FIRST_SINGLETON = Strategy("first_singleton")


def random_strategy(seed: int) -> Strategy:
    return Strategy("random", seed=seed)


def scripted_strategy(seq: MtSequence) -> Strategy:
    return Strategy("scripted", script=seq)


@dataclass(frozen=True)
class IterationRecord:
    """One pass of the loop: the constraints it fired (empty on a final pass)."""

    fired: frozenset[int]


@dataclass
class RunTrace:
    """A run's outcome and its fired sets, one record per pass of the loop.

    Runs that stop on `completed` or `iteration_cap` end with a record that
    fired nothing; a `depth_exhausted` run ends with the blocked step, which
    was chosen but not applied. Per-step labelings are not kept: replaying
    `sequence()` against the table rebuilds them.
    """

    status: str
    iterations: list[IterationRecord]
    final_labeling: dict[int, int]
    final_levels: dict[int, int]

    def sequence(self) -> MtSequence:
        return MtSequence(
            tuple(rec.fired for rec in self.iterations if rec.fired)
        )

    def total_resamples(self) -> int:
        return sum(len(rec.fired) for rec in self.iterations)


def _choose(strategy: Strategy, violated: set[int], heap, csp: Csp, rng, step_index: int):
    """The fired set of one step, or None when a script has run out.

    Raises ScriptError when a scripted step fires a constraint that is not
    currently violated, or is not pairwise domain-disjoint.
    """
    if strategy.kind == "first_singleton":
        # The least violated id; ids no longer violated are dropped lazily.
        while heap[0] not in violated:
            heapq.heappop(heap)
        return frozenset((heap[0],))
    if strategy.kind == "maximal_greedy":
        return maximal_independent_set(csp.dependency_graph, sorted(violated))
    if strategy.kind == "random":
        # Random permutation, then greedy: a random maximal independent set.
        order = sorted(violated)
        rng.shuffle(order)
        return maximal_independent_set(csp.dependency_graph, order)
    if strategy.kind == "scripted":
        assert strategy.script is not None
        if step_index >= len(strategy.script.steps):
            return None
        fired = strategy.script.steps[step_index]
        if not fired <= violated:
            raise ScriptError(
                f"step {step_index} fires non-violated constraints "
                f"{sorted(fired.difference(violated))}"
            )
        if not _check_step_disjoint(csp, fired):
            raise ScriptError(f"step {step_index} is not domain-disjoint")
        return fired
    raise InvalidParameterError(f"unknown strategy kind {strategy.kind!r}")


def _recheck(csp: Csp, labeling: dict[int, int], fired, violated: set[int], heap) -> None:
    """Re-test the constraints a step can have changed, after its new labels.

    The caller has written new labels for the domains of `fired`; only the
    closed neighbourhoods of the fired constraints read those variables.
    Each is tested through `csp.row_readers` and `csp.bad_tests`, and
    `violated` is updated in place. An id that becomes violated is pushed
    on `heap` when there is one, so the heap keeps every violated id.
    """
    closed, readers, tests = csp.closed_neighborhoods, csp.row_readers, csp.bad_tests
    for cid in frozenset().union(*(closed[a] for a in fired)):
        if tests[cid](readers[cid](labeling)):
            if cid not in violated:
                violated.add(cid)
                if heap is not None:
                    heapq.heappush(heap, cid)
        else:
            violated.discard(cid)


def mta_run(
    csp: Csp,
    table: CellSource,
    strategy: Strategy = MAXIMAL_GREEDY,
    max_iters: int | None = None,
) -> RunTrace:
    """Run the table-driven resampling loop until it settles or gives up.

    Statuses: `completed` when nothing is violated (the labeling is then
    total, and a solution whenever every constraint has bad-probability
    < 1); `depth_exhausted` when a fired constraint would push some
    variable past the last table row; `iteration_cap` after `max_iters`
    steps, or when a script runs out while violations remain.

    The labeling and the violated set are built once. A step is one
    transition: `_choose` picks the fired set, the loop redraws the fired
    domains from the table's next rows, and `_recheck` re-tests only the
    closed neighbourhoods of the fired constraints, the only constraints
    whose rows can have changed. A check reads the constraint's row
    through `csp.row_readers` and tests it with `csp.bad_tests`, both
    built with the problem: the labeling covers every variable and every
    id checked names a constraint, so none of `violates`' refusals can
    arise here. Replay (`check_consistency`) keeps `violates`.

    Raises ScriptError (from `_choose`) when a scripted step fires a
    constraint that is not currently violated, or is not pairwise
    domain-disjoint, and InvalidParameterError for a negative `max_iters`.
    """
    if max_iters is None:
        max_iters = len(csp.constraints) * table.depth
    elif max_iters < 0:
        raise InvalidParameterError("max_iters must be >= 0")
    readers, tests = csp.row_readers, csp.bad_tests
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    levels = {v: 0 for v in csp.variables}
    labeling = {v: table.get(v, 0) for v in csp.variables}
    violated = {cid for cid, test in enumerate(tests) if test(readers[cid](labeling))}
    # Holds every violated id, and possibly stale ones (see _choose).
    heap = sorted(violated) if strategy.kind == "first_singleton" else None
    iterations: list[IterationRecord] = []
    step_index = 0
    while True:
        if not violated:
            status = COMPLETED
            break
        if step_index >= max_iters:
            status = ITERATION_CAP
            break
        fired = _choose(strategy, violated, heap, csp, rng, step_index)
        if fired is None:
            # Script ended with violations left: treat as hitting the cap.
            status = ITERATION_CAP
            break
        iterations.append(IterationRecord(fired))
        touched = [v for cid in fired for v in csp.constraints[cid].domain]
        if any(levels[v] + 1 >= table.depth for v in touched):
            return RunTrace(DEPTH_EXHAUSTED, iterations, labeling, levels)
        for v in touched:
            levels[v] += 1
            labeling[v] = table.get(v, levels[v])
        _recheck(csp, labeling, fired, violated, heap)
        step_index += 1
    iterations.append(IterationRecord(frozenset()))
    return RunTrace(status, iterations, labeling, levels)


def check_consistency(csp: Csp, table: CellSource, seq: MtSequence) -> bool:
    """Replay a step sequence: true iff every fired constraint was violated.

    Levels are pure bookkeeping here: variable v sits at row
    sum over constraints containing v of how often they fired so far.
    Raises DepthExceededError if a replayed level runs off the table and
    InvalidInputError if a step repeats a variable across its constraints.
    """
    levels = {v: 0 for v in csp.variables}
    for n, step in enumerate(seq.steps):
        if not _check_step_disjoint(csp, step):
            raise InvalidInputError(f"step {n} is not domain-disjoint")
        for cid in step:
            dom = csp.constraint(cid).domain
            row = {v: table.get(v, levels[v]) for v in dom}
            if not violates(csp, cid, row):
                return False
        for cid in step:
            for v in csp.constraint(cid).domain:
                levels[v] += 1
    return True


def _run_trial(args):
    csp, trials_slice, depth, seed, strategy, max_iters = args
    cells = CellSampler(csp.weights, seed)
    out = []
    for trial in trials_slice:
        table = KeyedTable(cells, csp.variables, depth, trial)
        trial_strategy = strategy
        if strategy.kind == "random":
            trial_strategy = Strategy("random", seed=derive_u64(strategy.seed, trial))
        trace = mta_run(csp, table, trial_strategy, max_iters)
        out.append((trace.status, trace.total_resamples()))
    return out


def mt_monte_carlo(
    csp: Csp,
    trials: int,
    depth: int,
    seed: int,
    strategy: Strategy = MAXIMAL_GREEDY,
    max_iters: int | None = None,
    jobs: int = 1,
) -> dict:
    """Run on fresh keyed tables and tally run outcomes.

    Table cells are drawn independently per (seed, trial, variable, row),
    and only when a run reads them, so trial partitioning across workers
    cannot change any result. The trials are split over at most `jobs`
    worker processes, and no more than there are trials or CPUs.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    if jobs < 1:
        raise InvalidParameterError("jobs must be >= 1")
    if max_iters is not None and max_iters < 0:
        raise InvalidParameterError("max_iters must be >= 0")
    all_trials = list(range(trials))
    # A forking pool starts all its workers at once: no more than trials or cores.
    workers = min(jobs, trials, os.cpu_count() or 1)
    if workers == 1:
        batches = [_run_trial((csp, all_trials, depth, seed, strategy, max_iters))]
    else:
        # Imported here: the pool costs every `import llltool` tens of ms.
        from concurrent.futures import ProcessPoolExecutor

        chunks = [all_trials[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(
                pool.map(
                    _run_trial,
                    [(csp, chunk, depth, seed, strategy, max_iters) for chunk in chunks],
                )
            )
    statuses: Counter = Counter()
    histogram: Counter = Counter()
    for batch in batches:
        for status, resamples in batch:
            statuses[status] += 1
            histogram[resamples] += 1
    successes = statuses[COMPLETED]
    return {
        "trials": trials,
        "depth": depth,
        "seed": seed,
        "strategy": strategy.kind,
        "successes": successes,
        "success_rate": successes / trials,
        "statuses": {k: statuses[k] for k in sorted(statuses)},
        "resample_histogram": {str(k): histogram[k] for k in sorted(histogram)},
    }
