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
    conditional_mass,
    is_solution,
    lll_condition,
    materialize_cap_default,
    prob_bad,
)
from .errors import (
    CapExceededError,
    HypothesisError,
    InternalInvariantError,
    InvalidParameterError,
    SearchBudgetError,
    UnsatisfiableConstraintError,
)
from .exact import float_of, format_rational, pow_compare
from .graphs import GrowthProfile, greedy_proper_coloring, power_graph
from .local_goodness import (
    DEFAULT_SEARCH_BUDGET,
    LocalParams,
    build_lg_csp,
    decode_column,
    is_locally_good,
    lbad_bound,
)
from .moser_tardos import COMPLETED, MAXIMAL_GREEDY, mta_run
from .tables import Table, sample_table


def solve_edgeless(csp: Csp) -> dict[int, int]:
    """Label each isolated constraint with its first non-bad assignment.

    Variables under no constraint get label 0. Raises
    UnsatisfiableConstraintError when some bad set is everything, and
    InvalidParameterError if the dependency graph has an edge.
    """
    if csp.dependency_graph.max_degree() > 0:
        raise InvalidParameterError("dependency graph must be edgeless")
    labeling = {v: 0 for v in csp.variables}
    for c in csp.constraints:
        for row in assignment_rows(csp.label_count, len(c.domain)):
            if not c.bad_contains(row):
                labeling.update(zip(c.domain, row))
                break
        else:
            raise UnsatisfiableConstraintError(
                f"constraint {c.id} forbids every assignment"
            )
    return labeling


def _square_independent(csp: Csp, ids) -> bool:
    """No two distinct ids within distance 2, i.e. closed neighborhoods disjoint."""
    closed = csp.closed_neighborhoods
    covered: set[int] = set()
    for cid in set(ids):
        if not covered.isdisjoint(closed[cid]):
            return False
        covered.update(closed[cid])
    return True


def induction_step(
    csp: Csp, fixed: Mapping[int, int], color_class, cap: int | None = None
) -> dict[int, int]:
    """First acceptable assignment per class constraint, merged.

    For c in the class (ids ascending) the candidates are the label rows
    on c's variables outside `fixed`, in lexicographic order; a candidate
    is accepted when every constraint in c's closed neighborhood keeps
    conditional bad mass at most (d+1) times its current value. The class
    must be independent in the squared dependency graph, which makes the
    per-constraint searches non-interacting.

    A candidate row for c fixes only c's free variables, so it changes
    only the masses on c's closed neighborhood. Those are the only masses
    evaluated, each over a small labeling that holds the fixed labels
    their domains read; each candidate writes its labels into it in place.
    """
    for cid in color_class:
        csp.constraint(cid)
    if not _square_independent(csp, color_class):
        raise InvalidParameterError("class is not square-independent")
    cap = materialize_cap_default() if cap is None else cap
    d = csp.dependency_graph.max_degree()
    merged: dict[int, int] = {}
    for cid in sorted(color_class):
        free = [v for v in csp.constraints[cid].domain if v not in fixed]
        targets = sorted(csp.closed_neighborhoods[cid])
        local = {
            v: fixed[v]
            for a in targets
            for v in csp.constraints[a].domain
            if v in fixed
        }
        limits = [
            (a, (d + 1) * conditional_mass(csp, a, local, cap)) for a in targets
        ]
        for row in assignment_rows(csp.label_count, len(free)):
            local.update(zip(free, row))
            if all(
                conditional_mass(csp, a, local, cap) <= limit for a, limit in limits
            ):
                merged.update(zip(free, row))
                break
        else:
            raise InternalInvariantError(
                f"no qualifying assignment for constraint {cid}"
            )
    return merged


def solve_double_exp(
    csp: Csp, ledger: list | None = None, cap: int | None = None
) -> dict[int, int]:
    """Deterministic total solution under p(d+1)^(d+1) < 1.

    Pass a list as `ledger` to collect per-class exact mass records; each
    entry checks the running mass of a constraint against
    (d+1)^k times its starting mass, k counting the classes whose closed
    neighborhood reached it so far. A class changes only the masses it
    reached, so only those are recomputed, and only for the ledger.
    """
    dep = csp.dependency_graph
    d = dep.max_degree()
    base_mass = [prob_bad(csp, c.id, cap) for c in csp.constraints]
    p = max(base_mass, default=Fraction(0))
    if not lll_condition(p, d, "double_exp").holds:
        raise InvalidParameterError(
            f"p(d+1)^(d+1) = {float_of(p * Fraction(d + 1) ** (d + 1))} is not < 1"
        )
    colors = greedy_proper_coloring(power_graph(dep, 2))
    classes: dict[int, list[int]] = {}
    for cid, color in enumerate(colors):
        classes.setdefault(color, []).append(cid)

    fixed: dict[int, int] = {}
    mass = list(base_mass)
    bound = list(base_mass)
    touched = [0] * len(csp.constraints)
    for index, color in enumerate(sorted(classes)):
        members = classes[color]
        fixed.update(induction_step(csp, fixed, members, cap))
        if ledger is not None:
            reached = set()
            for cid in members:
                reached.update(csp.closed_neighborhoods[cid])
            for a in reached:
                touched[a] += 1
                bound[a] *= d + 1
            for c in csp.constraints:
                if c.id in reached:
                    mass[c.id] = conditional_mass(csp, c.id, fixed, cap)
                ledger.append(
                    {
                        "class_index": index,
                        "class": sorted(members),
                        "constraint": c.id,
                        "mass": mass[c.id],
                        "k": touched[c.id],
                        "bound": bound[c.id],
                        "ok": mass[c.id] <= bound[c.id],
                    }
                )
    labeling = {v: 0 for v in csp.variables}
    labeling.update(fixed)
    if not is_solution(csp, labeling):
        raise InternalInvariantError("derandomized labeling violates a constraint")
    return labeling


@dataclass(frozen=True)
class PipelineParams:
    p: Fraction
    d: int
    s: Fraction
    eps: Fraction
    eta: Fraction
    R: int
    N: int
    depth: int

    def __post_init__(self):
        if not 0 <= self.p < 1:
            raise InvalidParameterError("p must lie in [0,1)")
        if self.s <= 1:
            raise InvalidParameterError("s must exceed 1")
        if not 0 < self.eps < 1 or not 0 < self.eta < 1:
            raise InvalidParameterError("eps and eta must lie in (0,1)")
        if self.d < 0 or self.R < 0 or self.N < 1 or self.depth < 1:
            raise InvalidParameterError("d, R >= 0 and N, depth >= 1 required")

    def to_json(self) -> dict:
        return {
            "p": format_rational(self.p),
            "d": self.d,
            "s": format_rational(self.s),
            "eps": format_rational(self.eps),
            "eta": format_rational(self.eta),
            "R": self.R,
            "N": self.N,
            "depth": self.depth,
        }


def params_from_json(obj) -> PipelineParams:
    from .exact import parse_rational

    return PipelineParams(
        p=parse_rational(obj["p"]),
        d=int(obj["d"]),
        s=parse_rational(obj["s"]),
        eps=parse_rational(obj["eps"]),
        eta=parse_rational(obj["eta"]),
        R=int(obj["R"]),
        N=int(obj["N"]),
        depth=int(obj["depth"]),
    )


def least_growth_radius(growth: GrowthProfile, eps: Fraction) -> int | None:
    """Least profile radius with gamma(R) < (1-eps)^-R, None if absent."""
    for r in range(1, len(growth.gamma) + 1):
        if growth.gamma_at(r) * (1 - eps) ** r < 1:
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
    a premise fails and InvalidParameterError when the profile is too short.
    """
    if d < 0:
        raise InvalidParameterError("d must be >= 0")
    if s <= 1:
        raise InvalidParameterError("s must exceed 1")
    if not 0 <= p < 1:
        raise InvalidParameterError("p must lie in [0,1)")
    if not lll_condition(p, d, "exponent", s).holds:
        raise HypothesisError(
            "p(e(d+1))^s < 1 fails", failed=["p (e (d+1))**s < 1"]
        )

    eps_hi = 1 - 1 / s
    # Rational over-approximation of gamma^(1/r): least n with (n/Q)^r >= gamma.
    scale = 10**6
    r_star, g_star = growth.proxy_radius, growth.proxy_gamma
    lo, hi = 0, g_star * scale
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**r_star >= g_star * scale**r_star:
            hi = mid
        else:
            lo = mid + 1
    proxy_upper = Fraction(lo, scale)
    eps_lo = max(Fraction(0), 1 - 1 / proxy_upper)
    if eps_lo >= eps_hi:
        raise HypothesisError(
            "growth proxy leaves no eps below 1 - 1/s at this profile "
            "length; a longer profile shrinks the proxy",
            failed=["egr proxy < (1-eps)^-1 < s"],
        )
    eps = (eps_lo + eps_hi) / 2
    if not growth.proxy_less_than(1 / (1 - eps)):
        raise InternalInvariantError("eps midpoint fails the exact proxy test")

    chosen_r = least_growth_radius(growth, eps)
    if chosen_r is None:
        raise InvalidParameterError(
            f"no radius up to {len(growth.gamma) - 1} has "
            "gamma(R) < (1-eps)^-R; extend the profile"
        )
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
        raise HypothesisError(
            "(1-eta)/(1+eta) > p^(1-eps-1/s) unreachable",
            failed=["(1-eta)/(1+eta) > p**(1-eps-1/s)"],
        )

    gamma_r = growth.gamma_at(chosen_r)
    gamma_2r = growth.gamma_at(2 * chosen_r)
    factor = lbad_bound(d, eta, chosen_r, gamma_r, 0)
    target = factor * Fraction(gamma_2r) ** gamma_2r
    n_value = _least_power_above(1 + eta, target)
    depth = (d + 1) * n_value + 1
    feasible = n_value <= 30 and depth <= 8
    params = PipelineParams(p, d, s, eps, eta, chosen_r, max(n_value, 1), depth)
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


def _decode_table(meta_labeling: dict[int, int], k: int, depth: int) -> Table:
    columns = {
        v: decode_column(code, k, depth) for v, code in meta_labeling.items()
    }
    return Table(depth, columns)


def _first_not_locally_good(
    csp: Csp, table: Table, params: PipelineParams, budget: int
) -> int | None:
    """The first constraint id where the table is not locally good, or None.

    SearchBudgetError propagates: the verdict is then unknown.
    """
    for c in csp.constraints:
        local = LocalParams(c.id, params.R, params.N, params.eps, params.eta)
        if not is_locally_good(csp, table, local, budget)[0]:
            return c.id
    return None


def pipeline(
    csp: Csp,
    params: PipelineParams,
    mode: str = "randomized",
    seed: int = 0,
    trials: int = 100,
    budget: int = DEFAULT_SEARCH_BUDGET,
    cap: int | None = None,
) -> dict:
    """Find a good table, then run the maximal resampler to completion.

    Deterministic mode derandomizes the meta-problem whose solutions are
    exactly the good tables; it returns a structured infeasibility report
    instead of attempting an enumeration past the caps. Randomized mode
    samples tables until one is locally good everywhere.
    """
    report: dict = {"mode": mode, "params": params.to_json()}
    if mode == "deterministic":
        try:
            lg = build_lg_csp(
                csp, params.R, params.N, params.eps, params.depth, budget, cap
            )
            meta_labeling = solve_double_exp(lg, cap=cap)
        except SearchBudgetError as exc:  # a CapExceededError, so caught first
            report.update({"status": "infeasible", "budget_failed": str(exc)})
            return report
        except CapExceededError as exc:
            report.update({"status": "infeasible", "cap_failed": str(exc)})
            return report
        table = _decode_table(meta_labeling, csp.label_count, params.depth)
        bad = _first_not_locally_good(csp, table, params, budget)
        if bad is not None:
            raise InternalInvariantError(
                f"meta-solution is not locally good at constraint {bad}"
            )
        report["attempts"] = 1
    else:
        if mode != "randomized":
            raise InvalidParameterError(f"unknown mode {mode!r}")
        table = None
        unknowns = 0
        for attempt in range(trials):
            candidate = sample_table(
                csp.weights, csp.variables, params.depth, seed, attempt
            )
            try:
                if _first_not_locally_good(csp, candidate, params, budget) is None:
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
