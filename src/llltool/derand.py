"""Deterministic solving by conditional probabilities, and the full pipeline.

The solver fixes variables class by class: color the square of the
dependency graph, and within a class pick for each constraint the first
assignment of its still-free variables that keeps every neighbor's
conditional bad mass within a factor d+1 of its current value. Masses are
exact rationals throughout; the Markov argument guarantees a qualifying
assignment exists, so failing to find one is a bug, not an input error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .csp import (
    Csp,
    assignment_rows,
    conditional_weight,
    is_solution,
    lll_condition,
    prob_bad,
)
from .errors import (
    CapExceededError,
    HypothesisError,
    InternalInvariantError,
    InvalidInputError,
    InvalidParameterError,
    SearchBudgetError,
)
from .exact import float_of, format_rational, parse_int, parse_rational, pow_compare
from .graphs import GrowthProfile, greedy_proper_coloring
from .local_goodness import (
    DEFAULT_SEARCH_BUDGET,
    SearchPlan,
    build_lg_csp,
    cell_id,
    is_locally_good,
    lbad_bound,
)
from .moser_tardos import COMPLETED, MAXIMAL_GREEDY, mta_run
from .tables import CellSampler, CellSource, KeyedTable, Table


def _square_independent(csp: Csp, ids) -> bool:
    """No two distinct ids within distance 2, i.e. closed neighborhoods disjoint."""
    closed = csp.closed_neighborhoods
    covered: set[int] = set()
    for cid in set(ids):
        if not covered.isdisjoint(closed[cid]):
            return False
        covered.update(closed[cid])
    return True


def _square_coloring(csp: Csp) -> list[int]:
    """Greedy proper coloring of the square of the dependency graph.

    c's neighbours in the square are its radius-2 ball, the union of the
    closed neighborhoods of the constraints in c's closed neighborhood.
    Each row is built as the coloring reads it, repeats and all, and no
    graph is built.
    """
    closed = csp.closed_neighborhoods
    return greedy_proper_coloring(
        [u for a in ball for u in closed[a]] for ball in closed
    )


def _pick(
    csp: Csp,
    cid: int,
    fixed: Mapping[int, int],
    current: Mapping[int, Fraction] | list[Fraction],
    d: int,
    exact: dict[tuple[int, int], Fraction],
) -> tuple[dict[int, int], list[tuple[int, Fraction]]]:
    """First acceptable row for c's free variables, with its target masses.

    `current[a]` is the conditional mass of a given `fixed`. The targets
    are c's closed neighborhood, ascending; a row is accepted when each
    keeps mass at most (d+1) * current[a], decided in integers. Returns
    the row as labels and every target's mass once the row is fixed,
    ascending. Each candidate writes its labels into one small labeling
    of the fixed labels the evaluated targets' domains read. The accepted
    masses are read from `exact`, keyed by (total, scale), and built into
    it on a miss, so that equal pairs share one Fraction.

    Only the targets whose domains share a variable with c's free
    variables are evaluated. Any other target keeps `current[a]`, which
    is within its limit, so it gets no evaluation and no limit; a pick
    with no free variable returns `({}, current masses)` at once. No
    refusal is lost by the skip: such a target's free variables are the
    ones that computed `current[a]`, evaluated under the same
    `materialize_cap_default()`, so evaluating it again could not refuse.
    """
    targets = sorted(csp.closed_neighborhoods[cid])
    free = [v for v in csp.constraints[cid].domain if v not in fixed]
    after = {a: current[a] for a in targets}
    if not free:
        return {}, list(after.items())
    moved = set(free)
    touched = [a for a in targets if not moved.isdisjoint(csp.constraints[a].domain)]
    local = {
        v: fixed[v] for a in touched for v in csp.constraints[a].domain if v in fixed
    }
    limits = [
        (a, (d + 1) * current[a].numerator, current[a].denominator) for a in touched
    ]
    for row in assignment_rows(csp.label_count, len(free)):
        local.update(zip(free, row))
        weights = []
        for a, top, bottom in limits:
            total, scale = conditional_weight(csp, a, local)
            if total * bottom > top * scale:
                break
            weights.append((a, (total, scale)))
        else:
            for a, pair in weights:
                mass = exact.get(pair)
                if mass is None:
                    mass = exact[pair] = Fraction(*pair)
                after[a] = mass
            return dict(zip(free, row)), list(after.items())
    raise InternalInvariantError(f"no qualifying assignment for constraint {cid}")


def induction_step(csp: Csp, fixed: Mapping[int, int], color_class) -> dict[int, int]:
    """First acceptable assignment per class constraint, merged.

    For c in the class (ids ascending) the candidates are the label rows
    on c's variables outside `fixed`, in lexicographic order; a candidate
    is accepted when every constraint in c's closed neighborhood keeps
    conditional bad mass at most (d+1) times its current value. The class
    must be independent in the squared dependency graph, which makes the
    per-constraint searches non-interacting.

    A candidate row for c fixes only c's free variables, so it changes
    only the masses on c's closed neighborhood. This step computes those
    current masses itself; `solve_double_exp` carries them from class to
    class instead, and both pick rows with the same `_pick`.
    """
    for cid in color_class:
        csp.constraint(cid)
    if not _square_independent(csp, color_class):
        raise InvalidParameterError("class is not square-independent")
    d = csp.dependency_graph.max_degree()
    merged: dict[int, int] = {}
    for cid in sorted(color_class):
        current = {
            a: Fraction(*conditional_weight(csp, a, fixed))
            for a in sorted(csp.closed_neighborhoods[cid])
        }
        merged.update(_pick(csp, cid, fixed, current, d, {})[0])
    return merged


def _base_masses(csp: Csp) -> tuple[list[Fraction], list[int]]:
    """Each constraint's `prob_bad`, once per distinct explicit bad set.

    Returns the distinct masses and each constraint's slot in them.
    Constraints with equal explicit bad sets, which share one `bad_index`
    entry, share a slot; a predicate-backed constraint gets a slot of its
    own. The masses are computed in id order, so a predicate that refuses
    under the cap refuses where it would alone.
    """
    masses: list[Fraction] = []
    slots: list[int] = []
    shared: dict[frozenset, int] = {}
    for c in csp.constraints:
        explicit = isinstance(c.bad, frozenset)
        slot = shared.get(c.bad) if explicit else None
        if slot is None:
            slot = len(masses)
            masses.append(prob_bad(csp, c.id))
            if explicit:
                shared[c.bad] = slot
        slots.append(slot)
    return masses, slots


def solve_double_exp(csp: Csp, ledger: list | None = None) -> dict[int, int]:
    """Deterministic total solution under p(d+1)^(d+1) < 1.

    Pass a list as `ledger` to collect per-class exact mass records; each
    entry checks the running mass of a constraint against
    (d+1)^k times its starting mass, k counting the classes whose closed
    neighborhood reached it so far. A constraint of mass 1 has no row to
    pick; the least one is named in a HypothesisError.

    The classes are those of a greedy coloring of the square of the
    dependency graph, in id order; each constraint's radius-2 ball is
    read off the closed neighborhoods (`_square_coloring`), and no graph
    is built. The base masses are `prob_bad`, computed once per distinct
    explicit bad set (a lookup of its total in the problem's `bad_index`)
    and once per predicate-backed constraint, in id order.

    The conditional masses are carried from class to class in one array.
    Classes are square-independent, so no other member of a class fixes a
    variable in the domain of a constraint that c reaches: the masses of
    the row accepted for c are the reached constraints' masses after the
    class, and the inputs of their limits at the next class that reaches
    them. Each class thus evaluates only candidate masses; the ledger
    reads the array and recomputes nothing, and re-decides `ok` only for
    the reached constraints, whose mass and bound alone have moved. A
    limit needs no cap check of its own: a constraint's domain changes
    only when a class reaches it, and the accepted row's evaluation then
    read it with the same free variables, under the same
    `materialize_cap_default()`.

    The same argument lets `_pick` skip a target that shares no variable
    with the member's free variables: its free variables are those of
    its carried mass, which was evaluated under the same cap, by its base
    mass or by the class that last reached it, so no refusal is lost. A
    member with no free variable evaluates nothing. Every target of the
    closed neighborhood still counts as reached, so the ledger's `k` does
    not depend on the skip.

    The exact values take few distinct forms, so each is built once per
    solve in a dict that lives for the call: an accepted mass once per
    (total, scale) pair, and a ledger bound once per (base mass, k).
    """
    d = csp.dependency_graph.max_degree()
    masses, slots = _base_masses(csp)
    p = max(masses, default=Fraction(0))
    if p == 1:
        cid = next(cid for cid, slot in enumerate(slots) if masses[slot] == 1)
        raise HypothesisError(f"constraint {cid} is violated by every labeling")
    if not lll_condition(p, d, "double_exp"):
        raise InvalidParameterError(
            f"p(d+1)^(d+1) = {float_of(p * Fraction(d + 1) ** (d + 1))} is not < 1"
        )
    classes: dict[int, list[int]] = {}
    for cid, color in enumerate(_square_coloring(csp)):
        classes.setdefault(color, []).append(cid)

    fixed: dict[int, int] = {}
    exact: dict[tuple[int, int], Fraction] = {}
    mass = [masses[slot] for slot in slots]
    bound = list(mass)
    bounds: dict[tuple[int, int], Fraction] = {}
    ok = [True] * len(mass)
    touched = [0] * len(mass)
    for index, color in enumerate(sorted(classes)):
        # Members are ascending already; fixing each member's row at once
        # leaves the others' searches as they were, by square-independence.
        members = classes[color]
        reached = []
        for cid in members:
            labels, after = _pick(csp, cid, fixed, mass, d, exact)
            fixed.update(labels)
            for a, value in after:
                mass[a] = value
                reached.append(a)
        if ledger is not None:
            for a in reached:
                k = touched[a] = touched[a] + 1
                key = (slots[a], k)
                limit = bounds.get(key)
                if limit is None:
                    base = masses[slots[a]]
                    limit = bounds[key] = Fraction(
                        base.numerator * (d + 1) ** k, base.denominator
                    )
                bound[a] = limit
                # Integers, cross-multiplied, as `_pick` decides its limits.
                value = mass[a]
                ok[a] = (
                    value.numerator * limit.denominator
                    <= limit.numerator * value.denominator
                )
            ledger += [
                {
                    "class_index": index,
                    "class": members,
                    "constraint": c,
                    "mass": value,
                    "k": k,
                    "bound": limit,
                    "ok": good,
                }
                for c, (value, k, limit, good) in enumerate(
                    zip(mass, touched, bound, ok)
                )
            ]
    labeling = {v: 0 for v in csp.variables}
    labeling.update(fixed)
    if not is_solution(csp, labeling):
        raise InternalInvariantError("derandomized labeling violates a constraint")
    return labeling


@dataclass(frozen=True)
class PipelineParams:
    eps: Fraction
    eta: Fraction
    R: int
    N: int
    depth: int

    def __post_init__(self):
        if not 0 < self.eps < 1 or not 0 < self.eta < 1:
            raise InvalidParameterError("eps and eta must lie in (0,1)")
        if self.R < 0 or self.N < 1 or self.depth < 1:
            raise InvalidParameterError("R >= 0 and N, depth >= 1 required")

    def to_json(self) -> dict:
        return {
            "eps": format_rational(self.eps),
            "eta": format_rational(self.eta),
            "R": self.R,
            "N": self.N,
            "depth": self.depth,
        }


def params_from_json(obj) -> PipelineParams:
    """Read the five fields of a parameter file; any other key is ignored,
    so a file that also names p, d and s loads to the same params."""
    try:
        return PipelineParams(
            eps=parse_rational(obj["eps"]),
            eta=parse_rational(obj["eta"]),
            R=parse_int(obj["R"]),
            N=parse_int(obj["N"]),
            depth=parse_int(obj["depth"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed params JSON: {exc}") from exc


def least_growth_radius(growth: GrowthProfile, eps: Fraction) -> int | None:
    """Least profile radius with gamma(R) < (1-eps)^-R, None if absent."""
    base = 1 / (1 - eps)
    for r in range(1, len(growth.gamma) + 1):
        if pow_compare(base, r, growth.gamma_at(r), 1) > 0:
            return r
    return None


def _least_power_above(base: Fraction, target: Fraction) -> int:
    """Least N >= 0 with base**N > target, for base > 1.

    Gallops to a power above the target, then bisects; each step is one
    exact pow_compare, so no power is built.
    """
    if target < 1:
        return 0
    lo, hi = 0, 1  # base**lo <= target < base**hi once the gallop stops
    while pow_compare(base, hi, target, 1) <= 0:
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pow_compare(base, mid, target, 1) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def parameter_advisor(
    p: Fraction, d: int, s: Fraction, growth: GrowthProfile
) -> tuple[PipelineParams, dict]:
    """Derive (eps, eta, R, N, depth) from the growth profile.

    Follows the boosting recipe: eps sits midway between the growth
    proxy's constraint and 1 - 1/s; R is the least profile radius with
    gamma(R) < (1-eps)^-R; eta is the largest 1/2^j separating
    (1-eta)/(1+eta) from p^(1-eps-1/s); N is the least power making
    (1+eta)^N exceed F * gamma(2R)^gamma(2R). Raises HypothesisError when
    a premise fails, and InvalidParameterError when the profile is too
    short or all zeros (a problem with no constraints needs no parameters).
    """
    if d < 0:
        raise InvalidParameterError("d must be >= 0")
    if s <= 1:
        raise InvalidParameterError("s must exceed 1")
    if not 0 <= p <= 1:
        raise InvalidParameterError("p must lie in [0,1]")
    if growth.proxy_gamma == 0:
        raise InvalidParameterError(
            "the problem has no constraints (its growth profile is all "
            "zeros), so there are no parameters to advise"
        )
    if not lll_condition(p, d, "exponent", s):
        raise HypothesisError("p(e(d+1))^s < 1 fails")

    eps_hi = 1 - 1 / s
    # Rational over-approximation of gamma^(1/r): the least n with
    # (n/Q)^r >= gamma. The float only proposes n; the two exact loops
    # certify that n - 1 fails and n holds. As gamma >= 1, n >= Q.
    scale = 10**6
    r_star, gamma = growth.proxy_radius, growth.proxy_gamma
    n = math.ceil(scale * gamma ** (1 / r_star))
    while pow_compare(Fraction(n - 1, scale), r_star, gamma, 1) >= 0:
        n -= 1
    while pow_compare(Fraction(n, scale), r_star, gamma, 1) < 0:
        n += 1
    eps_lo = 1 - Fraction(scale, n)
    if eps_lo >= eps_hi:
        raise HypothesisError(
            "growth proxy leaves no eps below 1 - 1/s at this profile "
            "length; a longer profile shrinks the proxy"
        )
    eps = (eps_lo + eps_hi) / 2
    # (1-eps)^-1 > n/Q, so the radius r_star passes: the search finds one.
    chosen_r = least_growth_radius(growth, eps)
    if chosen_r is None:
        raise InternalInvariantError("eps midpoint fails the exact proxy test")
    if 2 * chosen_r > len(growth.gamma):
        raise InvalidParameterError(
            f"profile must reach radius {2 * chosen_r} for the degree factor"
        )

    gap = 1 - eps - 1 / s
    eta = None
    for j in range(1, 65):
        candidate = Fraction(1, 2**j)
        ratio = (1 - candidate) / (1 + candidate)
        if p == 0 or pow_compare(p, gap.numerator, ratio, gap.denominator) < 0:
            eta = candidate
            break
    if eta is None:
        raise HypothesisError("(1-eta)/(1+eta) > p^(1-eps-1/s) unreachable")

    gamma_r = growth.gamma_at(chosen_r)
    gamma_2r = growth.gamma_at(2 * chosen_r)
    factor = lbad_bound(d, eta, chosen_r, gamma_r, 0)
    target = factor * Fraction(gamma_2r) ** gamma_2r
    n_value = _least_power_above(1 + eta, target)
    depth = (d + 1) * n_value + 1
    feasible = n_value <= 30 and depth <= 8
    params = PipelineParams(eps, eta, chosen_r, max(n_value, 1), depth)
    report = {
        "eps": format_rational(eps),
        "eta": format_rational(eta),
        "R": chosen_r,
        "gammaR": gamma_r,
        "gamma2R": gamma_2r,
        "N": n_value,
        "depth": depth,
        "factor": float_of(factor),
        "factor_exact": format_rational(factor),
        "target_log10": (
            math.log10(target.numerator) - math.log10(target.denominator)
        ),
        "feasible_deterministic": feasible,
    }
    return params, report


def _first_not_locally_good(plans: list[SearchPlan], table: CellSource) -> int | None:
    """The first constraint id where the table is not locally good, or None.

    SearchBudgetError propagates: the verdict is then unknown.
    """
    for plan in plans:
        if not is_locally_good(plan, table)[0]:
            return plan.c
    return None


def pipeline(
    csp: Csp,
    params: PipelineParams,
    mode: str = "randomized",
    seed: int = 0,
    trials: int = 100,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> dict:
    """Find a good table, then run the maximal resampler to completion.

    Deterministic mode derandomizes the meta-problem whose solutions are
    exactly the good tables (`build_lg_csp`, one variable per table cell)
    and reads the table off its labeling cell by cell, through `cell_id`.
    It returns a structured infeasibility report instead of enumerating
    past the materialization cap or the search budget, and `no_good_table`,
    the randomized mode's status, when no table is locally good at some
    constraint. Randomized mode samples tables until one is locally good
    everywhere.
    """
    if budget < 0:  # checked here too: a problem with no constraints has no plan
        raise InvalidParameterError("budget must be >= 0")
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    report: dict = {"mode": mode, "params": params.to_json()}
    if mode == "deterministic":
        try:
            lg = build_lg_csp(csp, params.R, params.N, params.eps, params.depth, budget)
            meta_labeling = solve_double_exp(lg)
        except SearchBudgetError as exc:  # a CapExceededError, so caught first
            report.update({"status": "infeasible", "budget_failed": str(exc)})
            return report
        except CapExceededError as exc:
            report.update({"status": "infeasible", "cap_failed": str(exc)})
            return report
        except HypothesisError as exc:  # a meta-constraint no table escapes
            report.update({"status": "no_good_table", "reason": str(exc)})
            return report
        depth = params.depth
        table = Table(depth, {
            v: tuple(meta_labeling[cell_id(v, row, depth)] for row in range(depth))
            for v in csp.variables
        })
        # The meta-problem's bad sets hold one search plan per constraint.
        plans = [a.bad.plan for a in lg.constraints]
        bad = _first_not_locally_good(plans, table)
        if bad is not None:
            raise InternalInvariantError(
                f"meta-solution is not locally good at constraint {bad}"
            )
        report["attempts"] = 1
    else:
        if mode != "randomized":
            raise InvalidParameterError(f"unknown mode {mode!r}")
        # One search plan per constraint, shared by every sampled table.
        plans = [
            SearchPlan(csp, c.id, params.R, params.N, params.eps, budget)
            for c in csp.constraints
        ]
        # Keyed tables: the search and the run draw only the cells they read.
        cells = CellSampler(csp.weights, seed)
        table = None
        unknowns = 0
        for attempt in range(trials):
            candidate = KeyedTable(cells, csp.variables, params.depth, attempt)
            try:
                if _first_not_locally_good(plans, candidate) is None:
                    table = candidate
                    report["attempts"] = attempt + 1
                    break
            except SearchBudgetError:
                unknowns += 1
        report["unknown_tables"] = unknowns
        if table is None:
            report["status"] = "no_good_table"
            report["attempts"] = trials
            return report
    trace = mta_run(csp, table, MAXIMAL_GREEDY)
    if trace.status != COMPLETED:
        report["status"] = "resampler_" + trace.status
        return report
    assignment = trace.final_labeling
    report.update(
        {
            "status": "solved",
            "assignment": [assignment[v] for v in csp.variables],
            "is_solution": is_solution(csp, assignment),
            "resamples": trace.total_resamples(),
        }
    )
    return report
