"""Finite constraint satisfaction problems with exact product measures.

A problem is a set of integer variables, a finite label set with rational
weights, and constraints; each constraint watches an ordered domain of
variables and forbids an explicit set of assignments (rows of label ids in
domain order). Bad sets may alternatively be predicate-backed for families
too large to materialize; predicates answer membership and may provide an
exact mass shortcut.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Mapping

from .errors import (
    CapExceededError,
    InvalidInputError,
    InvalidParameterError,
    MissingVariableError,
)
from .exact import (
    certified_less,
    e_power_less,
    format_rational,
    parse_int,
    parse_rational,
)
from .graphs import FiniteGraph

DEFAULT_MATERIALIZE_CAP = 2**24


def materialize_cap_default() -> int:
    """Materialization cap, overridable via LLLTOOL_MATERIALIZE_CAP.

    Raises InvalidInputError when the variable is set to anything but an
    integer >= 0.
    """
    env = os.environ.get("LLLTOOL_MATERIALIZE_CAP")
    if not env:
        return DEFAULT_MATERIALIZE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = None
    if cap is None or cap < 0:
        raise InvalidInputError(
            f"LLLTOOL_MATERIALIZE_CAP must be an integer >= 0, not {env!r}"
        )
    return cap


class BadPredicate:
    """Membership-test view of a bad set too large to store row by row."""

    def contains(self, row: tuple[int, ...]) -> bool:
        raise NotImplementedError

    def exact_prob(self, csp: "Csp", domain: tuple[int, ...]) -> Fraction | None:
        return None


class AlwaysViolated(BadPredicate):
    """The full assignment set: every labeling of the domain is bad."""

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


# An explicit bad set's rows grouped by position and label, keyed by the
# int `label * width + position` (an int key costs less memory than a
# pair), and its unconditional weight `sum prod numerators`.
RowIndex = tuple[dict[int, tuple[tuple[int, ...], ...]], int]


def _row_index(rows: frozenset, numerators: tuple[int, ...]) -> RowIndex:
    groups: dict[int, list] = {}
    total = 0
    for row in rows:
        mass = 1
        for i, lab in enumerate(row):
            groups.setdefault(lab * len(row) + i, []).append(row)
            mass *= numerators[lab]
        total += mass
    # Equal groups share one tuple: a row alone in several groups is common.
    shared: dict[tuple, tuple] = {}
    return {key: shared.setdefault(tuple(g), tuple(g)) for key, g in groups.items()}, total


# A constraint's row readers are module-level functions and itemgetters, not
# lambdas: a problem is pickled for worker processes.
def _one_row(v: int, f: Mapping[int, int]) -> tuple[int]:
    return (f[v],)


def _empty_row(f: Mapping[int, int]) -> tuple[()]:
    return ()


def row_reader(domain: tuple[int, ...]) -> Callable:
    """Map a labeling to the tuple of its labels on `domain`, in order."""
    if len(domain) > 1:
        return operator.itemgetter(*domain)
    if domain:
        return functools.partial(_one_row, domain[0])
    return _empty_row


@dataclass(frozen=True)
class Csp:
    """A validated problem and the structure derived from it on construction.

    `weight_scale` is the common denominator D and the integer numerators n
    with weights[l] = n[l] / D. `bad_index[cid]` is the `RowIndex` of an
    explicit bad set, one per distinct set and shared by every constraint
    whose set equals it, or None for a predicate, which is never read here.
    `row_readers[cid]` maps a labeling that covers the domain to the
    constraint's row, and `bad_tests[cid]` tells whether a row is bad: the
    set's `__contains__`, one per distinct set, or the predicate's
    `contains`, bound here but not called.
    """

    variables: tuple[int, ...]
    label_count: int
    weights: tuple[Fraction, ...]
    constraints: tuple[Constraint, ...]
    dependency_graph: FiniteGraph = field(init=False, repr=False, compare=False)
    closed_neighborhoods: tuple[frozenset[int], ...] = field(
        init=False, repr=False, compare=False
    )
    weight_scale: tuple[int, tuple[int, ...]] = field(
        init=False, repr=False, compare=False
    )
    bad_index: tuple[RowIndex | None, ...] = field(
        init=False, repr=False, compare=False
    )
    row_readers: tuple[Callable, ...] = field(init=False, repr=False, compare=False)
    bad_tests: tuple[Callable, ...] = field(init=False, repr=False, compare=False)

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
        denominator = math.lcm(*(w.denominator for w in self.weights))
        numerators = tuple(
            w.numerator * (denominator // w.denominator) for w in self.weights
        )
        vset = set(self.variables)
        shared: dict[frozenset, tuple[RowIndex, Callable]] = {}
        for idx, c in enumerate(self.constraints):
            if c.id != idx:
                raise InvalidInputError("constraint ids must be dense 0..m-1 in order")
            if not set(c.domain) <= vset:
                raise InvalidInputError(f"constraint {c.id}: domain outside variables")
            # An equal set met before is already checked and indexed.
            if isinstance(c.bad, frozenset) and c.bad not in shared:
                for row in c.bad:
                    for lab in row:
                        if not 0 <= lab < self.label_count:
                            raise InvalidInputError(
                                f"constraint {c.id}: label {lab} out of range"
                            )
                shared[c.bad] = _row_index(c.bad, numerators), c.bad.__contains__
        dep = build_dependency_graph(self)
        derive = object.__setattr__  # the dataclass is frozen
        derive(self, "dependency_graph", dep)
        derive(self, "closed_neighborhoods", tuple(
            frozenset(nbrs).union((cid,)) for cid, nbrs in enumerate(dep.adjacency)
        ))
        derive(self, "weight_scale", (denominator, numerators))
        entries = [
            shared[c.bad] if isinstance(c.bad, frozenset) else (None, c.bad.contains)
            for c in self.constraints
        ]
        derive(self, "bad_index", tuple(index for index, _ in entries))
        derive(self, "bad_tests", tuple(test for _, test in entries))
        derive(self, "row_readers", tuple(
            row_reader(c.domain) for c in self.constraints
        ))

    def constraint(self, cid: int) -> Constraint:
        if not 0 <= cid < len(self.constraints):
            raise InvalidParameterError(f"no constraint with id {cid}")
        return self.constraints[cid]


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
    return csp.bad_tests[cid](tuple(row))


def is_solution(csp: Csp, f: Mapping[int, int]) -> bool:
    """Total on the variables and violating no constraint."""
    if any(v not in f for v in csp.variables):
        return False
    return all(not violates(csp, c.id, f) for c in csp.constraints)


def _check_row_cap(cid: int, rows: int) -> None:
    """Refuse to enumerate more rows of a predicate-backed bad set than the cap."""
    cap = materialize_cap_default()
    if rows > cap:
        raise CapExceededError(
            f"materializing constraint {cid} needs {format_rational(rows)} rows,"
            f" cap {cap}"
        )


def prob_bad(csp: Csp, cid: int) -> Fraction:
    """Exact product-measure mass of the constraint's bad set.

    For an explicit bad set this is a lookup of its index's total.
    """
    return Fraction(*conditional_weight(csp, cid, {}))


def max_bad_mass(csp: Csp) -> Fraction:
    """The largest `prob_bad` over the constraints, 0 when there are none."""
    return max((prob_bad(csp, c.id) for c in csp.constraints), default=Fraction(0))


def conditional_weight(csp: Csp, cid: int, fixed: Mapping[int, int]) -> tuple[int, int]:
    """The conditional bad mass as an unreduced pair (numerator, denominator).

    Reduced to one Fraction, the pair equals
    `prob_bad(quotient_csp(csp, fixed), cid)`.

    Reads only the constraint's own domain and bad rows: entries of
    `fixed` off the domain are ignored, so a caller may pass any labeling
    that agrees with the quotient's on the domain. The denominator is
    `scale ** free`, with `scale` the weight scale's common denominator,
    except where a predicate's `exact_prob` shortcut answers: it is the
    unconditional mass, so it applies only while no domain variable is
    fixed; otherwise the predicate is enumerated over the free variables,
    under `materialize_cap_default()`.

    An explicit bad set is read through the problem's `bad_index` and is
    exempt from the cap. Fully pinned (an empty domain too), the answer
    is one membership lookup; with nothing pinned, the index's stored
    total. Partly pinned, it reads the cheaper side: the rows under the
    first pinned position's label, or the free assignments looked up in
    the set when those are fewer.
    """
    c = csp.constraint(cid)
    scale, numerators = csp.weight_scale
    # None marks a free position. Built as a list: tuple(map(...)) is
    # allocated oversized and shrunk, so freeing it fills the interpreter's
    # tuple free list, which raised the peak memory of a solve.
    full = [fixed.get(v) for v in c.domain]
    free = [i for i, lab in enumerate(full) if lab is None]
    index = csp.bad_index[cid]
    if index is not None:
        groups, unpinned_total = index
        if not free:
            return int(csp.bad_tests[cid](tuple(full))), 1
        if len(free) == len(full):
            return unpinned_total, scale ** len(free)
        pinned = [i for i, lab in enumerate(full) if lab is not None]
        first = pinned.pop(0)
        rows = groups.get(full[first] * len(full) + first, ())
        if len(rows) <= csp.label_count ** len(free):
            total = 0
            for row in rows:
                for i in pinned:
                    if row[i] != full[i]:
                        break
                else:
                    mass = 1
                    for i in free:
                        mass *= numerators[row[i]]
                    total += mass
            return total, scale ** len(free)
    else:
        if len(free) == len(full):
            shortcut = c.bad.exact_prob(csp, c.domain)
            if shortcut is not None:
                return shortcut.numerator, shortcut.denominator
        _check_row_cap(cid, csp.label_count ** len(free))
    bad_test = csp.bad_tests[cid]
    total = 0
    for labels in assignment_rows(csp.label_count, len(free)):
        for i, lab in zip(free, labels):
            full[i] = lab
        if bad_test(tuple(full)):
            mass = 1
            for lab in labels:
                mass *= numerators[lab]
            total += mass
    return total, scale ** len(free)


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


def lll_condition(p: Fraction, d: int, variant: str, s: Fraction | None = None) -> bool:
    """Decide one of the three sufficient-condition inequalities exactly.

    classic:    e * p * (d+1) < 1
    exponent:   p * (e*(d+1))**s < 1, rational s > 1
    double_exp: p * (d+1)**(d+1) < 1

    p is a probability in [0,1]; at p = 1 no variant holds.
    """
    if not 0 <= p <= 1:
        raise InvalidParameterError("p must lie in [0,1]")
    if d < 0:
        raise InvalidParameterError("d must be >= 0")
    if variant == "classic":
        return certified_less(p * (d + 1), 1, Fraction(1))
    if variant == "double_exp":
        return p * Fraction(d + 1) ** (d + 1) < 1
    if variant == "exponent":
        if s is None or s <= 1:
            raise InvalidParameterError("exponent variant needs rational s > 1")
        # with s = a/b: p * (e(d+1))**s < 1  <=>  ((d+1) * e)**a < (1/p)**b
        a, b = s.numerator, s.denominator
        return p == 0 or e_power_less(Fraction(d + 1), a, 1 / p, b)
    raise InvalidParameterError(f"unknown variant {variant!r}")


class _QuotientPredicate(BadPredicate):
    """Bad set of a constraint conditioned on a fixed partial labeling.

    `bad_test` is the constraint's membership test in the base problem.
    """

    def __init__(self, bad_test, domain: tuple[int, ...], reduced: tuple[int, ...], fixed: dict[int, int]):
        self.bad_test = bad_test
        self.domain = domain
        self.reduced = reduced
        self.fixed = dict(fixed)

    def contains(self, row: tuple[int, ...]) -> bool:
        merged = dict(zip(self.reduced, row))
        merged.update(self.fixed)
        return self.bad_test(tuple(merged[v] for v in self.domain))


def quotient_csp(csp: Csp, f: Mapping[int, int]) -> Csp:
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
    remaining = tuple(v for v in csp.variables if v not in f)
    new_constraints = []
    for c in csp.constraints:
        reduced = tuple(v for v in c.domain if v not in f)
        if len(reduced) == len(c.domain):
            new_constraints.append(c)
            continue
        if isinstance(c.bad, frozenset):
            fixed_positions = [i for i, v in enumerate(c.domain) if v in f]
            keep_positions = [i for i, v in enumerate(c.domain) if v not in f]
            want = tuple(f[c.domain[i]] for i in fixed_positions)
            rows = frozenset(
                tuple(row[i] for i in keep_positions)
                for row in c.bad
                if tuple(row[i] for i in fixed_positions) == want
            )
            new_constraints.append(Constraint(c.id, reduced, rows))
        else:
            sub = {v: f[v] for v in c.domain if v in f}
            pred = _QuotientPredicate(csp.bad_tests[c.id], c.domain, reduced, sub)
            new_constraints.append(Constraint(c.id, reduced, pred))
    return Csp(remaining, csp.label_count, csp.weights, tuple(new_constraints))


def load_problem(text: str) -> Csp:
    """Parse the problem JSON format; weights default to uniform."""
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise InvalidInputError(f"not valid JSON: {exc}") from exc
    try:
        n = parse_int(obj["variables"])
        if n < 0:
            raise InvalidInputError(f"problem variables must be >= 0, got {n}")
        labels = obj["labels"]
        k = parse_int(labels["count"])
        if "weights" in labels and labels["weights"] is not None:
            weights = tuple(parse_rational(w) for w in labels["weights"])
        else:
            weights = uniform_weights(k)
        constraints = []
        for entry in obj.get("constraints", []):
            cid = parse_int(entry["id"])
            domain = tuple(parse_int(v) for v in entry["domain"])
            raw = entry["bad"]
            if raw == "always":
                bad: frozenset | BadPredicate = AlwaysViolated()
            else:
                bad = frozenset(tuple(parse_int(l) for l in row) for row in raw)
            constraints.append(Constraint(cid, domain, bad))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed problem JSON: {exc}") from exc
    return Csp(tuple(range(n)), k, weights, tuple(constraints))


def dump_problem(csp: Csp) -> dict:
    """Inverse of load_problem; explicit bad rows are emitted sorted.

    Only explicit and `"always"` bad sets serialize; a predicate-backed
    one is refused.
    """
    if csp.variables != tuple(range(len(csp.variables))):
        raise InvalidInputError("only dense-variable problems serialize")
    constraints = []
    for c in csp.constraints:
        if isinstance(c.bad, AlwaysViolated):
            bad = "always"
        elif isinstance(c.bad, frozenset):
            bad = [list(row) for row in sorted(c.bad)]
        else:
            raise InvalidInputError(f"constraint {c.id}: only explicit bad sets serialize")
        constraints.append({"id": c.id, "domain": list(c.domain), "bad": bad})
    return {
        "variables": len(csp.variables),
        "labels": {
            "count": csp.label_count,
            "weights": [format_rational(w) for w in csp.weights],
        },
        "constraints": constraints,
    }
