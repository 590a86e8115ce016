"""Localized problems, Folner firing patterns, and locally-good tables.

The localized problem keeps a constraint's bad set only inside a radius-r
dependency ball around a center c; everything farther away becomes
always-violated. A table is locally good at c when, for every radius
r < R, no consistent firing sequence concentrates at least N firings
inside the r-ball while keeping strictly less than an eps fraction of all
firings outside it.

The search for such a sequence only needs sequences confined to the
R-ball: stripping out-of-ball firings preserves consistency (their
domains cannot touch the r-ball) and only improves the outside fraction.
Within the ball it is enough to fire one constraint per step, since a
domain-disjoint step can be serialized without changing any counts, and
both the consistency guard and the accept test depend only on per-
constraint firing counts. That turns the search into reachability over
count vectors, which is finite: a constraint with a nonempty domain can
fire at most table-depth times.

The same capacity prunes that walk exactly. Levels only rise, so the
in-ball firings any continuation can still reach are bounded by the
unused depth on each in-ball domain. A count vector that cannot reach N
in-ball firings is closed, and one where a further outer-shell firing
could never be diluted below an eps share fires only inside the ball.
Neither rule removes a count vector from which a witness is reachable,
so verdicts and first witnesses are those of the unpruned walk, which
visits at least as many count vectors. At the root every level is 0, so
the first rule is decided there from the table depth alone, before the
walk: when depth times the r-ball size is below N, no cell is read.

Everything the walk reads of the problem and the parameters is fixed
per centre, so a SearchPlan builds it once (the BFS ball, the order and
in-ball split per radius, the domains and bad sets, eps as p/q,
dom_R(c)), and is_locally_good checks any number of tables against it.
"""

from __future__ import annotations

from fractions import Fraction

from .csp import BadPredicate, Constraint, Csp, max_bad_mass
from .errors import (
    HypothesisError,
    InvalidParameterError,
    SearchBudgetError,
)
from .exact import (
    binomial_sigma,
    e_interval,
    float_of,
    format_rational,
    hoeffding_side,
    rational_pow_leq,
)
from .graphs import FiniteGraph, bfs_distances, max_ball_sizes
from .moser_tardos import MtSequence
from .tables import CellSampler, CellSource, KeyedTable, Table

DEFAULT_SEARCH_BUDGET = 200_000


class SearchPlan:
    """The locality search at c for (R, N, eps), set up once for every table.

    The plan holds everything the search reads: the problem, c, R, N,
    eps and the node budget of each walk. R, N, eps and the budget are
    checked in that order, then c. One BFS finds the R-ball, and for each
    r < R up to the distance of its farthest constraint the walk's order
    (r-ball ids ascending, then the outer shell), the r-ball size `n_in`
    and the ordered domains with their bad tests are stored; every larger
    r has an empty outer shell and so the last of these walks. `domain`
    is dom_R(c), the sorted union of the ball's domains: the only columns
    a verdict can read. A budget of 0 is legal and refuses at the root.
    """

    def __init__(
        self,
        csp: Csp,
        c: int,
        R: int,
        N: int,
        eps: Fraction,
        budget: int = DEFAULT_SEARCH_BUDGET,
    ):
        if R < 0:
            raise InvalidParameterError("R must be >= 0")
        if N < 1:
            raise InvalidParameterError("N must be >= 1")
        if not 0 < eps < 1:
            raise InvalidParameterError("eps must lie in (0,1)")
        if budget < 0:
            raise InvalidParameterError("budget must be >= 0")
        self.center = csp.constraint(c)
        self.center_bad = csp.bad_tests[c]
        self.csp, self.c, self.R, self.N, self.eps = csp, c, R, N, eps
        self.budget = budget
        dist = bfs_distances(csp.dependency_graph, c, R)
        ids = sorted(dist)
        self.domain = tuple(
            sorted({v for a in ids for v in csp.constraint(a).domain})
        )
        self._radii = []
        for r in range(min(R, max(dist.values()) + 1)):
            order = [a for a in ids if dist[a] <= r]
            n_in = len(order)  # positions below n_in lie in the r-ball
            order += [a for a in ids if dist[a] > r]
            domains = [csp.constraint(a).domain for a in order]
            bads = [csp.bad_tests[a] for a in order]
            self._radii.append((order, n_in, domains, bads, domains[:n_in]))
        # out < eps * (in + out)  <=>  (q - p) * out < p * in, with eps = p/q
        self._pq = eps.numerator, eps.denominator

    def search(self, table: CellSource, r: int) -> tuple[MtSequence | None, int]:
        """First Folner count vector reachable by consistent singleton firings.

        The walk is depth-first over count vectors at radius r < R,
        trying the r-ball ids ascending, then the outer shell; it keeps
        an explicit stack, so its depth is bounded by the plan's budget,
        not by the recursion limit. Returns (witness, nodes visited);
        witness None when none exists. Raises SearchBudgetError past
        `budget` visited count vectors.

        Two capacity rules prune nodes from which no witness is
        reachable. An in-ball constraint whose domain tops out at level l
        can fire at most depth - l more times, and levels never fall
        along a path, so `in_max`, the in-ball firings so far plus that
        slack summed over the r-ball, bounds the in-ball firings of every
        continuation and never grows along one:
        1. a node with `in_max < N` is closed;
        2. a node with `(1 - eps) * (out + 1) >= eps * in_max` tries no
           outer-shell firing, since every continuation through one keeps
           `(1 - eps) * out >= eps * in`, i.e. an outside share of at
           least eps.
        Both read only the count vector, so the visited set stays sound.
        Nothing reachable from a pruned node reaches a witness, so the
        walk meets the nodes that do in the unpruned order: the verdict
        and the first witness are those of the unpruned walk, and the
        node count is at most its count.

        At the root every level is 0 and `in_max` is `depth * n_in`, so
        rule 1 there is decided from the table's depth alone, before the
        walk: when `depth * n_in < N` the root is the only node, and the
        search returns (None, 1) without reading a cell, after the same
        budget check as any node (a budget of 0 still raises).
        """
        c, N, budget = self.c, self.N, self.budget
        if not self.center.domain:
            if self.center_bad(()):
                return MtSequence(tuple(frozenset({c}) for _ in range(N))), 1
            return None, 1
        order, n_in, domains, bads, in_domains = self._radii[
            min(r, len(self._radii) - 1)
        ]
        depth = table.depth
        if depth * n_in < N:
            # Rule 1 at the root, where every level is 0: in_max is
            # depth * n_in, so the root is the only node visited.
            if budget < 1:
                raise self._over_budget(r)
            return None, 1
        get = table.get
        m = len(order)
        p, q = self._pq
        levels = dict.fromkeys(self.domain, 0)
        counts = [0] * m
        in_total = 0  # in-ball firings on the path
        path: list[int] = []  # positions fired, root to current node
        stack: list[int] = []  # per open node, the next position to try
        limits: list[int] = []  # per open node, the first position not to try
        visited: set[tuple[int, ...]] = set()
        while True:
            key = tuple(counts)
            limit = 0  # seen before, or closed: nothing to try here
            if key not in visited:
                visited.add(key)
                if len(visited) > budget:
                    raise self._over_budget(r)
                out = len(path) - in_total
                if in_total >= N and (q - p) * out < p * in_total:
                    witness = MtSequence(
                        tuple(frozenset({order[i]}) for i in path)
                    )
                    return witness, len(visited)
                in_max = in_total
                for dom in in_domains:
                    top = 0
                    for v in dom:
                        if levels[v] > top:
                            top = levels[v]
                    in_max += depth - top
                if in_max >= N:  # else rule 1 closes the node
                    # rule 2: (1 - eps) * (out + 1) >= eps * in_max
                    undiluted = (q - p) * (out + 1) >= p * in_max
                    limit = n_in if undiluted else m
            stack.append(0)
            limits.append(limit)
            # Fire the next consistent position, backtracking past
            # exhausted nodes.
            while stack:
                for i in range(stack[-1], limits[-1]):
                    dom = domains[i]
                    for v in dom:
                        if levels[v] >= depth:
                            break  # a variable past its last row: cannot fire
                    else:
                        if i >= n_in:
                            break  # localized bad set is everything
                        if bads[i](tuple([get(v, levels[v]) for v in dom])):
                            break
                else:
                    stack.pop()
                    limits.pop()
                    if path:
                        j = path.pop()
                        counts[j] -= 1
                        in_total -= j < n_in
                        for v in domains[j]:
                            levels[v] -= 1
                    continue
                stack[-1] = i + 1
                path.append(i)
                counts[i] += 1
                in_total += i < n_in
                for v in domains[i]:
                    levels[v] += 1
                break
            else:
                return None, len(visited)

    def _over_budget(self, r: int) -> SearchBudgetError:
        return SearchBudgetError(
            f"search exceeded {self.budget} count vectors at c={self.c}, r={r}"
        )


def is_locally_good(
    plan: SearchPlan, table: CellSource
) -> tuple[bool, MtSequence | None]:
    """Whether no radius below R admits a consistent Folner sequence at c.

    Returns (True, None) or (False, witness); the witness fires one
    constraint per step and is consistent with the localized problem
    at its radius. Raises SearchBudgetError instead of guessing when
    the search is cut off by the plan's budget. Radii past c's farthest
    constraint repeat the last walk, so they are not searched again.
    """
    for r in range(len(plan._radii)):
        witness, _ = plan.search(table, r)
        if witness is not None:
            return False, witness
    return True, None


def cell_id(v: int, row: int, depth: int) -> int:
    """The meta-problem variable that holds cell (v, row) of a depth-deep table."""
    # A column's cells are contiguous, and row 0 is its last, least
    # significant cell, as in a k-ary column code: picks fix whole columns,
    # so their lexicographic candidates come in the order of the codes.
    return v * depth + depth - 1 - row


def _cells(columns, depth: int) -> tuple[int, ...]:
    """The cells of these columns, ascending: each column's rows last to first."""
    return tuple(
        cell_id(v, row, depth) for v in columns for row in reversed(range(depth))
    )


class LBadPredicate(BadPredicate):
    """Cell assignments on dom_R(c) under which c is not locally good.

    The domain is the cells of the columns dom_R(c) (`plan.domain`), so a
    row holds each column's `depth` cells in turn, row 0 last. Membership
    rebuilds a depth-deep table on exactly those columns; by locality no
    other column can influence the verdict.
    """

    def __init__(self, plan: SearchPlan, depth: int):
        self.plan = plan
        self.domain = _cells(plan.domain, depth)
        self.depth = depth

    def contains(self, row: tuple[int, ...]) -> bool:
        d = self.depth
        table = Table(d, {
            v: row[i * d:(i + 1) * d][::-1] for i, v in enumerate(self.plan.domain)
        })
        good, _ = is_locally_good(self.plan, table)
        return not good


def build_lg_csp(
    csp: Csp,
    R: int,
    N: int,
    eps: Fraction,
    depth: int,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> Csp:
    """Meta-problem over the cells of a depth-deep table: solutions are the good tables.

    Variable `cell_id(v, row, depth)` is cell (v, row), with the base
    problem's labels and weights. Constraint c watches the cells of
    dom_R(c), the union of domains across the R-ball, and forbids exactly
    the assignments failing is_locally_good at c. Two constraints share a
    cell exactly when they share a column, so the dependency graph is that
    of the columns. Bad sets stay predicate-backed; a mass or a
    materialization enumerates k**cells rows, under
    `materialize_cap_default()`.
    """
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    constraints = []
    for a in csp.constraints:
        bad = LBadPredicate(SearchPlan(csp, a.id, R, N, eps, budget), depth)
        constraints.append(Constraint(a.id, bad.domain, bad))
    return Csp(
        _cells(csp.variables, depth), csp.label_count, csp.weights, tuple(constraints)
    )


def gamma_at_radius(dep: FiniteGraph, radius: int) -> int:
    """Largest dependency ball at the given radius (1 on empty graphs);
    every ball is whole by radius n - 1, so no larger one is grown."""
    if dep.n == 0:
        return 1
    return max_ball_sizes(dep, min(radius, dep.n))[-1]


def lbad_bound(d: int, eta: Fraction, R: int, gammaR: int, N: int) -> Fraction:
    """Rational upper bound R*eta / (xi*(1-eta)*(1+eta)**N).

    Here xi = eta*(1-zeta)**gammaR with zeta = 1/(d+1) for d > 0. For
    d = 0 the reference value zeta = 1/e is irrational; substituting a
    certified rational lower endpoint of 1 - 1/e only enlarges the
    result, keeping it a valid upper bound.
    """
    if not 0 < eta < 1:
        raise InvalidParameterError("eta must lie in (0,1)")
    if d < 0 or R < 0 or N < 0 or gammaR < 1:
        raise InvalidParameterError("d, R, N must be >= 0 and gammaR >= 1")
    if d > 0:
        one_minus_zeta = 1 - Fraction(1, d + 1)
    else:
        e_low, _ = e_interval(24)
        one_minus_zeta = 1 - 1 / e_low
    xi = eta * one_minus_zeta**gammaR
    return (R * eta) / (xi * (1 - eta) * (1 + eta) ** N)


def check_lbad_hypotheses(
    p: Fraction, s: Fraction, eps: Fraction, eta: Fraction
) -> None:
    """Validate eps + 1/s < 1 and p**(1-eps-1/s) <= (1-eta)/(1+eta)."""
    if s <= 1:
        raise InvalidParameterError("s must exceed 1")
    if not 0 < eps < 1 or not 0 < eta < 1:
        raise InvalidParameterError("eps and eta must lie in (0,1)")
    gap = 1 - eps - Fraction(1) / s
    if gap <= 0:
        raise HypothesisError("probability-bound hypotheses fail: eps + 1/s < 1")
    if p > 0 and not rational_pow_leq(p, gap, (1 - eta) / (1 + eta)):
        raise HypothesisError(
            "probability-bound hypotheses fail: "
            "p**(1 - eps - 1/s) <= (1-eta)/(1+eta)"
        )


def estimate_lbad_prob(
    plan: SearchPlan, depth: int, trials: int, seed: int, s: Fraction, eta: Fraction
) -> dict:
    """Monte Carlo frequency of bad locality at the plan's c versus the proved bound.

    s and eta enter only the bound and its hypotheses
    (`check_lbad_hypotheses`), not the locality test.

    Unknown verdicts (budget exhaustion) are reported and counted as bad,
    so they can only hurt the pass, never hide a failure. The pass is an
    exact one-sided Hoeffding test at level exp(-8).
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    csp = plan.csp
    d, p = csp.dependency_graph.max_degree(), max_bad_mass(csp)
    check_lbad_hypotheses(p, s, plan.eps, eta)
    gamma_r = gamma_at_radius(csp.dependency_graph, plan.R)
    bound = lbad_bound(d, eta, plan.R, gamma_r, plan.N)
    # Only these columns can change the verdict, and a keyed table draws
    # the cells the search reads exactly as a full-table sample would.
    cells = CellSampler(csp.weights, seed)
    bad = 0
    unknown = 0
    for trial in range(trials):
        table = KeyedTable(cells, plan.domain, depth, trial)
        try:
            good, _ = is_locally_good(plan, table)
        except SearchBudgetError:
            unknown += 1
            continue
        if not good:
            bad += 1
    frequency = Fraction(bad + unknown, trials)
    p_eff = min(bound, Fraction(1))
    tolerance = 4 * binomial_sigma(p_eff, trials)
    return {
        "constraint": plan.c,
        "trials": trials,
        "depth": depth,
        "seed": seed,
        "bad": bad,
        "unknown": unknown,
        "frequency": float_of(frequency),
        "bound": float_of(bound),
        "bound_exact": format_rational(bound),
        "tolerance": tolerance,
        "pass": hoeffding_side(bad + unknown, trials, bound) <= 0,
        "d": d,
        "p": format_rational(p),
        "gammaR": gamma_r,
    }
