"""Finite constraint satisfaction problems with exact product measures.

A problem is a set of integer variables, a finite label set with rational
weights, and constraints; each constraint watches an ordered domain of
variables and forbids an explicit set of assignments (rows of label ids in
domain order). Bad sets may alternatively be predicate-backed for families
too large to materialize; predicates answer membership and may provide an
exact mass shortcut.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .errors import (
    CapExceededError,
    InvalidInputError,
    InvalidParameterError,
    MissingVariableError,
)
from .exact import certified_less, float_of, format_rational, parse_rational
from .graphs import FiniteGraph

DEFAULT_MATERIALIZE_CAP = 2**24


def materialize_cap_default() -> int:
    """Materialization cap, overridable via LLLTOOL_MATERIALIZE_CAP."""
    env = os.environ.get("LLLTOOL_MATERIALIZE_CAP")
    return int(env) if env else DEFAULT_MATERIALIZE_CAP


class BadPredicate:
    """Membership-test view of a bad set too large to store row by row."""

    tag = "predicate"

    def contains(self, row: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def exact_prob(self, csp: "Csp", domain: tuple[int, ...]) -> Fraction | None:
        return None


class AlwaysViolated(BadPredicate):
    """The full assignment set: every labeling of the domain is bad."""

    tag = "always"

    def contains(self, row: tuple[int, ...]) -> bool:
        return True

    def exact_prob(self, csp, domain) -> Fraction:
        return Fraction(1)

    def __eq__(self, other):
        return isinstance(other, AlwaysViolated)

    def __hash__(self):
        return hash("always")


@dataclass(frozen=True)
class Constraint:
    id: int
    domain: tuple[int, ...]
    bad: frozenset | BadPredicate

    def __post_init__(self):
        if self.id < 0:
            raise InvalidInputError("constraint ids must be non-negative")
        if list(self.domain) != sorted(set(self.domain)):
            raise InvalidInputError(
                f"constraint {self.id}: domain must be sorted and duplicate-free"
            )
        if isinstance(self.bad, frozenset):
            for row in self.bad:
                if len(row) != len(self.domain):
                    raise InvalidInputError(
                        f"constraint {self.id}: bad row {row} does not match domain"
                    )

    def bad_contains(self, row: tuple[int, ...]) -> bool:
        if isinstance(self.bad, frozenset):
            return row in self.bad
        return self.bad.contains(row)


@dataclass(frozen=True)
class Csp:
    variables: tuple[int, ...]
    label_count: int
    weights: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    # Dependency index, built on first use. Not a functools.cached_property:
    # writing the instance __dict__ materialises it, which slows every later
    # attribute load on the problem.
    _dependency_graph: FiniteGraph | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _closed_neighborhoods: tuple[frozenset[int], ...] | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _weight_scale: tuple[int, tuple[int, ...]] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if list(self.variables) != sorted(set(self.variables)):
            raise InvalidInputError("variables must be sorted and duplicate-free")
        if self.label_count < 1:
            raise InvalidInputError("need at least one label")
        if len(self.weights) != self.label_count:
            raise InvalidInputError("one weight per label required")
        for w in self.weights:
            if not (0 < w <= 1):
                raise InvalidInputError(f"weight {w} outside (0,1]")
        if sum(self.weights) != 1:
            raise InvalidInputError("weights must sum to exactly 1")
        vset = set(self.variables)
        seen = set()
        for idx, c in enumerate(self.constraints):
            if c.id != idx:
                raise InvalidInputError("constraint ids must be dense 0..m-1 in order")
            if c.id in seen:
                raise InvalidInputError(f"duplicate constraint id {c.id}")
            seen.add(c.id)
            if not set(c.domain) <= vset:
                raise InvalidInputError(f"constraint {c.id}: domain outside variables")
            if isinstance(c.bad, frozenset):
                for row in c.bad:
                    for lab in row:
                        if not 0 <= lab < self.label_count:
                            raise InvalidInputError(
                                f"constraint {c.id}: label {lab} out of range"
                            )

    def constraint(self, cid: int) -> Constraint:
        if not 0 <= cid < len(self.constraints):
            raise InvalidParameterError(f"no constraint with id {cid}")
        return self.constraints[cid]

    @property
    def dependency_graph(self) -> FiniteGraph:
        """The dependency graph, built once per problem."""
        dep = self._dependency_graph
        if dep is None:
            dep = build_dependency_graph(self)
            object.__setattr__(self, "_dependency_graph", dep)
        return dep

    @property
    def closed_neighborhoods(self) -> tuple[frozenset[int], ...]:
        """Each constraint id with its dependency neighbors, indexed by id."""
        closed = self._closed_neighborhoods
        if closed is None:
            closed = tuple(
                frozenset(nbrs).union((cid,))
                for cid, nbrs in enumerate(self.dependency_graph.adjacency)
            )
            object.__setattr__(self, "_closed_neighborhoods", closed)
        return closed

    @property
    def weight_scale(self) -> tuple[int, tuple[int, ...]]:
        """Common denominator D and integer numerators n, weights[l] = n[l] / D.

        Built once per problem, so exact masses can be summed as integers
        and divided once.
        """
        scale = self._weight_scale
        if scale is None:
            denominator = math.lcm(*(w.denominator for w in self.weights))
            numerators = tuple(
                w.numerator * (denominator // w.denominator) for w in self.weights
            )
            scale = (denominator, numerators)
            object.__setattr__(self, "_weight_scale", scale)
        return scale


def uniform_weights(k: int) -> tuple[Fraction, ...]:
    return tuple(Fraction(1, k) for _ in range(k))


def assignment_rows(k: int, length: int):
    """All label rows of the given length, lexicographic."""
    return itertools.product(range(k), repeat=length)


def violates(csp: Csp, cid: int, f: Mapping[int, int]) -> bool:
    """Whether the labeling's restriction to the constraint's domain is bad."""
    c = csp.constraint(cid)
    row = []
    for v in c.domain:
        if v not in f:
            raise MissingVariableError(f"labeling undefined on variable {v}")
        row.append(f[v])
    return c.bad_contains(tuple(row))


def is_solution(csp: Csp, f: Mapping[int, int]) -> bool:
    """Total on the variables and violating no constraint."""
    if any(v not in f for v in csp.variables):
        return False
    return all(not violates(csp, c.id, f) for c in csp.constraints)


def _check_row_cap(cid: int, rows: int, cap: int | None) -> None:
    """Refuse to enumerate more rows of a predicate-backed bad set than the cap."""
    cap = materialize_cap_default() if cap is None else cap
    if rows > cap:
        raise CapExceededError(
            f"materializing constraint {cid} needs {rows} rows, cap {cap}"
        )


def materialize_bad(csp: Csp, cid: int, cap: int | None = None) -> frozenset:
    """Explicit row set of a constraint's bad set, enumerating under a cap."""
    c = csp.constraint(cid)
    if isinstance(c.bad, frozenset):
        return c.bad
    _check_row_cap(cid, csp.label_count ** len(c.domain), cap)
    return frozenset(
        row for row in assignment_rows(csp.label_count, len(c.domain)) if c.bad.contains(row)
    )


def prob_bad(csp: Csp, cid: int, cap: int | None = None) -> Fraction:
    """Exact product-measure mass of the constraint's bad set."""
    return conditional_mass(csp, cid, {}, cap)


def conditional_mass(
    csp: Csp, cid: int, fixed: Mapping[int, int], cap: int | None = None
) -> Fraction:
    """Exact mass of the constraint's bad set given the partial labeling.

    Equals `prob_bad(quotient_csp(csp, fixed).csp, cid, cap)` but reads
    only the constraint's own domain and bad rows: entries of `fixed`
    off the domain are ignored, so a caller may pass any labeling that
    agrees with the quotient's on the domain. A predicate's `exact_prob`
    shortcut is the unconditional mass, so it applies only while no
    domain variable is fixed; otherwise the predicate is enumerated over
    the free variables, under the cap.
    """
    c = csp.constraint(cid)
    scale, numerators = csp.weight_scale
    free = [i for i, v in enumerate(c.domain) if v not in fixed]
    total = 0
    if isinstance(c.bad, frozenset):
        pinned = [(i, fixed[v]) for i, v in enumerate(c.domain) if v in fixed]
        for row in c.bad:
            for i, lab in pinned:
                if row[i] != lab:
                    break
            else:
                mass = 1
                for i in free:
                    mass *= numerators[row[i]]
                total += mass
        return Fraction(total, scale ** len(free))
    if len(free) == len(c.domain):
        shortcut = c.bad.exact_prob(csp, c.domain)
        if shortcut is not None:
            return shortcut
    _check_row_cap(cid, csp.label_count ** len(free), cap)
    full = [fixed.get(v) for v in c.domain]
    for labels in assignment_rows(csp.label_count, len(free)):
        for i, lab in zip(free, labels):
            full[i] = lab
        if c.bad.contains(tuple(full)):
            mass = 1
            for lab in labels:
                mass *= numerators[lab]
            total += mass
    return Fraction(total, scale ** len(free))


def build_dependency_graph(csp: Csp) -> FiniteGraph:
    """Constraints adjacent iff distinct with intersecting domains."""
    m = len(csp.constraints)
    var_to_cs: dict[int, list[int]] = {}
    for c in csp.constraints:
        for v in c.domain:
            var_to_cs.setdefault(v, []).append(c.id)
    nbrs: list[set[int]] = [set() for _ in range(m)]
    for cs in var_to_cs.values():
        for a in cs:
            for b in cs:
                if a != b:
                    nbrs[a].add(b)
    return FiniteGraph(m, tuple(tuple(sorted(s)) for s in nbrs))


@dataclass(frozen=True)
class CspStats:
    order: int
    vdeg: int
    max_dep_degree: int
    p_max: Fraction

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "vdeg": self.vdeg,
            "max_dep_degree": self.max_dep_degree,
            "p_max": format_rational(self.p_max),
            "p_max_float": float_of(self.p_max),
        }


def csp_stats(csp: Csp) -> CspStats:
    order = max((len(c.domain) for c in csp.constraints), default=0)
    counts: dict[int, int] = {}
    for c in csp.constraints:
        for v in c.domain:
            counts[v] = counts.get(v, 0) + 1
    vdeg = max(counts.values(), default=0)
    p_max = max((prob_bad(csp, c.id) for c in csp.constraints), default=Fraction(0))
    return CspStats(order, vdeg, csp.dependency_graph.max_degree(), p_max)


@dataclass(frozen=True)
class LllReport:
    variant: str
    holds: bool
    p: Fraction
    d: int
    s: Fraction | None = None

    def to_json(self) -> dict:
        out = {
            "variant": self.variant,
            "holds": self.holds,
            "p": format_rational(self.p),
            "d": self.d,
        }
        if self.s is not None:
            out["s"] = format_rational(self.s)
        return out


def lll_condition(p: Fraction, d: int, variant: str, s: Fraction | None = None) -> LllReport:
    """Decide one of the three sufficient-condition inequalities exactly.

    classic:    e * p * (d+1) < 1
    exponent:   p * (e*(d+1))**s < 1, rational s > 1
    double_exp: p * (d+1)**(d+1) < 1
    """
    if not 0 <= p < 1:
        raise InvalidParameterError("p must lie in [0,1)")
    if d < 0:
        raise InvalidParameterError("d must be >= 0")
    if variant == "classic":
        holds = certified_less(p * (d + 1), 1, Fraction(1))
        return LllReport("classic", holds, p, d)
    if variant == "double_exp":
        holds = p * Fraction(d + 1) ** (d + 1) < 1
        return LllReport("double_exp", holds, p, d)
    if variant == "exponent":
        if s is None or s <= 1:
            raise InvalidParameterError("exponent variant needs rational s > 1")
        # (p * (e(d+1))**s) ** b = p**b * (d+1)**a * e**a  with s = a/b
        a, b = s.numerator, s.denominator
        holds = certified_less(p**b * Fraction(d + 1) ** a, a, Fraction(1))
        return LllReport("exponent", holds, p, d, s)
    raise InvalidParameterError(f"unknown variant {variant!r}")


class _QuotientPredicate(BadPredicate):
    """Bad set of a constraint conditioned on a fixed partial labeling."""

    tag = "quotient"

    def __init__(self, inner, domain: tuple[int, ...], reduced: tuple[int, ...], fixed: dict[int, int]):
        self.inner = inner
        self.domain = domain
        self.reduced = reduced
        self.fixed = dict(fixed)

    def contains(self, row: tuple[int, ...]) -> bool:
        merged = dict(zip(self.reduced, row))
        merged.update(self.fixed)
        full = tuple(merged[v] for v in self.domain)
        if isinstance(self.inner, frozenset):
            return full in self.inner
        return self.inner.contains(full)


@dataclass(frozen=True)
class QuotientCsp:
    base: Csp
    fixed: Mapping[int, int]
    csp: Csp = field(compare=False)

    def remaining(self) -> tuple[int, ...]:
        return self.csp.variables


def quotient_csp(csp: Csp, f: Mapping[int, int]) -> QuotientCsp:
    """Residual problem after fixing f: domains shrink, bad sets condition on f.

    A reduced row is bad exactly when f joined with it is bad in the base
    problem; a fully-fixed constraint keeps the empty row iff f violates it.
    """
    variables = set(csp.variables)
    for v, lab in f.items():
        if v not in variables:
            raise InvalidInputError(f"fixed variable {v} not in problem")
        if not 0 <= lab < csp.label_count:
            raise InvalidInputError(f"fixed label {lab} out of range")
    fixed = dict(sorted(f.items()))
    remaining = tuple(v for v in csp.variables if v not in fixed)
    new_constraints = []
    for c in csp.constraints:
        reduced = tuple(v for v in c.domain if v not in fixed)
        if len(reduced) == len(c.domain):
            new_constraints.append(c)
            continue
        if isinstance(c.bad, frozenset):
            fixed_positions = [i for i, v in enumerate(c.domain) if v in fixed]
            keep_positions = [i for i, v in enumerate(c.domain) if v not in fixed]
            want = tuple(fixed[c.domain[i]] for i in fixed_positions)
            rows = frozenset(
                tuple(row[i] for i in keep_positions)
                for row in c.bad
                if tuple(row[i] for i in fixed_positions) == want
            )
            new_constraints.append(Constraint(c.id, reduced, rows))
        else:
            sub = {v: fixed[v] for v in c.domain if v in fixed}
            pred = _QuotientPredicate(c.bad, c.domain, reduced, sub)
            new_constraints.append(Constraint(c.id, reduced, pred))
    reduced_csp = Csp(remaining, csp.label_count, csp.weights, tuple(new_constraints))
    return QuotientCsp(csp, fixed, reduced_csp)


def load_problem(text: str) -> Csp:
    """Parse the problem JSON format; weights default to uniform."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise InvalidInputError(f"not valid JSON: {exc}") from exc
    try:
        n = int(obj["variables"])
        labels = obj["labels"]
        k = int(labels["count"])
        if "weights" in labels and labels["weights"] is not None:
            weights = tuple(parse_rational(w) for w in labels["weights"])
        else:
            weights = uniform_weights(k)
        constraints = []
        for entry in obj.get("constraints", []):
            cid = int(entry["id"])
            domain = tuple(int(v) for v in entry["domain"])
            raw = entry["bad"]
            if raw == "always":
                bad: frozenset | BadPredicate = AlwaysViolated()
            else:
                bad = frozenset(tuple(int(l) for l in row) for row in raw)
            constraints.append(Constraint(cid, domain, bad))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed problem JSON: {exc}") from exc
    return Csp(tuple(range(n)), k, weights, tuple(constraints))


def dump_problem(csp: Csp) -> dict:
    """Inverse of load_problem; explicit bad rows are emitted sorted."""
    if csp.variables != tuple(range(len(csp.variables))):
        raise InvalidInputError("only dense-variable problems serialize")
    constraints = []
    for c in csp.constraints:
        if isinstance(c.bad, AlwaysViolated):
            bad = "always"
        elif isinstance(c.bad, frozenset):
            bad = [list(row) for row in sorted(c.bad)]
        else:
            bad = [list(row) for row in sorted(materialize_bad(csp, c.id))]
        constraints.append({"id": c.id, "domain": list(c.domain), "bad": bad})
    return {
        "variables": len(csp.variables),
        "labels": {
            "count": csp.label_count,
            "weights": [format_rational(w) for w in csp.weights],
        },
        "constraints": constraints,
    }
