"""Shared builders and brute-force oracles.

Everything in here is deliberately naive. The oracles re-derive answers
straight from the definitions (enumerate sequences, enumerate ordered
partitions, walk every branch) so the clever implementations have
something independent to disagree with. Keep them slow and obvious; do
not "fix" them by importing the code under test beyond plain data types
and the replay primitives they are checking against.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

from llltool.errors import (
    CapExceededError,
    DepthExceededError,
    HypothesisError,
    InternalInvariantError,
    InvalidInputError,
    InvalidParameterError,
    LllToolError,
    ScriptError,
    SearchBudgetError,
)
from llltool.csp import (
    AlwaysViolated,
    BadPredicate,
    Constraint,
    Csp,
    assignment_rows,
    build_dependency_graph,
    is_solution,
    lll_condition,
    load_problem,
    materialize_cap_default,
    prob_bad,
    quotient_csp,
    uniform_weights,
    violates,
)
from llltool.exact import float_of
from llltool.generators import WITH_REFERENCE, Hypergraph
from llltool.graphs import (
    GrowthProfile,
    bfs_distances,
    greedy_proper_coloring,
    maximal_independent_set,
    power_graph,
)
from llltool.local_goodness import (
    DEFAULT_SEARCH_BUDGET,
    SearchPlan,
    build_lg_csp,
    cell_id,
    gamma_at_radius,
    is_locally_good,
)
from llltool.moser_tardos import MtSequence, check_consistency
from llltool.tables import Table, sample_table
from llltool.witness import WitnessDigraph, _compatible_on_cells, _vertex_cells


@contextmanager
def materialize_cap(cap):
    """Run the block under `LLLTOOL_MATERIALIZE_CAP` = cap; None unsets it.

    The variable is the library's one materialization cap. Unlike the
    `monkeypatch` fixture this can be entered inside a loop, once per value.
    """
    with mock.patch.dict(os.environ):
        os.environ.pop("LLLTOOL_MATERIALIZE_CAP", None)
        if cap is not None:
            os.environ["LLLTOOL_MATERIALIZE_CAP"] = str(cap)
        yield


def make_csp(n_vars, specs, k=2, weights=None):
    """Build a problem from (domain, bad) pairs.

    `bad` may be an iterable of label rows or a BadPredicate instance.
    """
    constraints = []
    for cid, (domain, bad) in enumerate(specs):
        if not isinstance(bad, BadPredicate):
            bad = frozenset(tuple(row) for row in bad)
        constraints.append(Constraint(cid, tuple(domain), bad))
    if weights is None:
        weights = uniform_weights(k)
    return Csp(tuple(range(n_vars)), k, tuple(weights), tuple(constraints))


def in_bad_set(constraint: Constraint, row) -> bool:
    """Whether the row is in the constraint's bad set, read off `bad` itself."""
    if isinstance(constraint.bad, frozenset):
        return row in constraint.bad
    return constraint.bad.contains(row)


def materialize_bad(csp: Csp, cid: int) -> frozenset:
    """Explicit row set of a constraint's bad set, enumerating under the
    materialization cap."""
    c = csp.constraint(cid)
    if isinstance(c.bad, frozenset):
        return c.bad
    rows, cap = csp.label_count ** len(c.domain), materialize_cap_default()
    if rows > cap:
        raise CapExceededError(
            f"materializing constraint {cid} needs {rows} rows, cap {cap}"
        )
    return frozenset(
        row for row in assignment_rows(csp.label_count, len(c.domain))
        if in_bad_set(c, row)
    )


# A fixed family of tiny problems: at most 3 constraints, 2 labels,
# domains of size <= 2. Exhaustive checks quantify over all of these.
TINY_FAMILY = [
    make_csp(1, [((0,), [(1,)])]),
    make_csp(2, [((0, 1), [(0, 0), (1, 1)])]),
    make_csp(3, [((0, 1), [(0, 0)]), ((1, 2), [(1, 1)])]),
    make_csp(2, [((0,), [(0,)]), ((1,), [(1,)])]),
    make_csp(4, [((0, 1), [(0, 0)]), ((1, 2), [(1, 0)]),
                 ((2, 3), [(0, 0), (1, 1)])]),
    make_csp(3, [((0, 1), [(1, 1)]), ((1, 2), []), ((0, 2), [(0, 1)])]),
    make_csp(3, [((0, 1), [(0, 1)]), ((1, 2), [(0, 0), (1, 1)])],
             weights=(Fraction(1, 4), Fraction(3, 4))),
    make_csp(1, [((0,), [(0,), (1,)])]),
    make_csp(1, [((), [()]), ((0,), [(1,)])]),
]


class OddSum(BadPredicate):
    """Rows whose labels sum to an odd number, known by membership only."""

    def contains(self, row):
        return sum(row) % 2 == 1

    def __eq__(self, other):
        return isinstance(other, OddSum)

    def __hash__(self):
        return hash("odd sum")


# Beside TINY_FAMILY: predicate-backed bad sets (a custom predicate,
# AlwaysViolated, and "always" loaded from JSON) on domains of 0 to 3
# variables, and three labels.
PREDICATE_PROBLEMS = [
    make_csp(4, [((0, 1, 2), OddSum()), ((), []), ((3,), [(1,)]),
                 ((1, 2, 3), [(0, 0, 0), (1, 1, 1)])]),
    make_csp(3, [((0,), AlwaysViolated()), ((0, 1, 2), OddSum()),
                 ((1, 2), [(0, 2), (2, 1)]), ((), OddSum())], k=3),
    load_problem(json.dumps({
        "variables": 4,
        "labels": {"count": 2, "weights": ["1/3", "2/3"]},
        "constraints": [
            {"id": 0, "domain": [0, 1, 3], "bad": "always"},
            {"id": 1, "domain": [2], "bad": [[0]]},
            {"id": 2, "domain": [], "bad": [[]]},
        ],
    })),
]


def all_labelings(csp):
    """Every total labeling of the problem's variables."""
    for labels in assignment_rows(csp.label_count, len(csp.variables)):
        yield dict(zip(csp.variables, labels))


def pairwise_neighbors(csp):
    """Dependency neighbors by definition: other constraints sharing a variable."""
    return [
        {b.id for b in csp.constraints
         if b.id != a.id and set(a.domain) & set(b.domain)}
        for a in csp.constraints
    ]


def all_tables(csp, depth):
    """Every table over the problem's variables, all label combinations."""
    n = len(csp.variables)
    k = csp.label_count
    cells = n * depth
    for code in range(k ** cells):
        columns = {}
        rest = code
        for v in csp.variables:
            col = []
            for _ in range(depth):
                col.append(rest % k)
                rest //= k
            columns[v] = tuple(col)
        yield Table(depth, columns)


def some_tables(csp, depth, count, seed):
    return [
        sample_table(csp.weights, csp.variables, depth, seed, trial)
        for trial in range(count)
    ]


def independent_subsets(dep, pool, nonempty=True):
    """All pairwise non-adjacent subsets of pool (ids, any iterable)."""
    items = sorted(pool)
    found = []

    def extend(i, current):
        if i == len(items):
            if current or not nonempty:
                found.append(frozenset(current))
            return
        extend(i + 1, current)
        a = items[i]
        if all(a not in dep.adjacency[b] for b in current):
            current.append(a)
            extend(i + 1, current)
            current.pop()

    extend(0, [])
    return found


def maximal_independent_subsets(dep, pool):
    pool_set = set(pool)
    result = []
    for s in independent_subsets(dep, pool):
        if all(
            any(a in dep.adjacency[b] for b in s)
            for a in pool_set - s
        ):
            result.append(s)
    return result


def enumerate_all_witnesses(csp, max_vertices):
    """Every witness digraph with at most max_vertices, one per iso class.

    Works level by level: each level is a non-adjacent set of constraint
    ids, and every vertex above level 0 must interact with something on
    the level directly below (that is what makes the level numbers the
    longest-path levels). Distinct level sequences give non-isomorphic
    digraphs, so no dedup pass is needed.
    """
    dep = build_dependency_graph(csp)
    closed = {
        c.id: {c.id} | set(dep.adjacency[c.id]) for c in csp.constraints
    }
    pool = independent_subsets(dep, [c.id for c in csp.constraints])
    out = [pairwise_witness_from_levels([], csp)]

    def extend(levels, total):
        if levels:
            out.append(pairwise_witness_from_levels(levels, csp))
        for s in pool:
            if total + len(s) > max_vertices:
                continue
            if levels and not all(
                any(y in closed[x] for y in levels[-1]) for x in s
            ):
                continue
            extend(levels + [s], total + len(s))

    extend([], 0)
    return out


def realizable_by_sequence(g, csp, table):
    """Does some consistent run realize g? Decided by raw enumeration.

    Tries every ordered partition of g's decoration multiset into
    non-adjacent steps, replays each against the table, and compares the
    resulting digraph up to isomorphism. Exponential, fine at <= 4
    vertices.
    """
    dep = build_dependency_graph(csp)
    remaining = Counter(g.decorations)

    def attempt(steps):
        if not +remaining:
            seq = MtSequence(tuple(steps))
            try:
                consistent = check_consistency(csp, table, seq)
            except DepthExceededError:
                return False
            if consistent:
                return is_isomorphic(pairwise_witness_from_levels(seq.steps, csp), g)
            return False
        for step in independent_subsets(dep, [c for c in remaining if remaining[c] > 0]):
            for cid in step:
                remaining[cid] -= 1
            if attempt(steps + [step]):
                for cid in step:
                    remaining[cid] += 1
                return True
            for cid in step:
                remaining[cid] += 1
        return False

    return attempt([])


def compatible_by_levels(g, csp, table):
    """Whether some consistent run realizes g, by the library's level counting.

    Not an oracle: it runs `witness._vertex_cells` and `_compatible_on_cells`
    on a stored table, so tests can hold them to `realizable_by_sequence`.
    Vertex x needs row k(x,v) of variable v, where k(x,v) counts x's
    in-neighbours whose constraint contains v. Raises DepthExceededError
    when a needed row is past the table depth.
    """
    return _compatible_on_cells(_vertex_cells(g, csp), table.get)


def sinks(g):
    """The vertices of g with no outgoing edge, ascending."""
    heads = {a for a, _ in g.edges}
    return [x for x in range(g.n) if x not in heads]


def naive_longest_path_levels(g):
    """Longest path into each vertex by repeated edge relaxation.

    A digraph on n vertices is acyclic exactly when n rounds reach a
    fixed point; returns None when they do not.
    """
    level = [0] * g.n
    for _ in range(g.n + 1):
        changed = False
        for a, b in g.edges:
            if level[b] < level[a] + 1:
                level[b] = level[a] + 1
                changed = True
        if not changed:
            return level
    return None


def table_from_rows(rows: list[list[int]]) -> Table:
    """Dense-variable shorthand: rows[r][v] is the label of variable v at row r."""
    if not rows:
        raise InvalidInputError("need at least one row")
    width = len(rows[0])
    columns = {v: tuple(row[v] for row in rows) for v in range(width)}
    return Table(len(rows), columns)


def table_to_json(table: Table) -> dict:
    """The JSON a table file holds, variables ascending: `table_from_json`'s input."""
    vs = sorted(table.columns)
    return {
        "depth": table.depth,
        "variables": vs,
        "rows": [[table.columns[v][r] for v in vs] for r in range(table.depth)],
    }


def orientation_of(csp_labeling, edges) -> list[tuple[int, int]]:
    """Directed edge list realized by a sinkless-orientation labeling."""
    out = []
    for i, (lo, hi) in enumerate(edges):
        if csp_labeling[i] == WITH_REFERENCE:
            out.append((lo, hi))
        else:
            out.append((hi, lo))
    return out


def dump_graph_json(g) -> dict:
    return {"n": g.n, "edges": [[u, v] for u, v in g.edges()]}


def ball(g, v: int, radius: int) -> frozenset[int]:
    """All vertices within `radius` edges of v, v included."""
    return frozenset(bfs_distances(g, v, radius))


def strict_json(text: str):
    """Parse a report as strict JSON, refusing the NaN and Infinity tokens
    that `json.loads` accepts by default."""

    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def ball_per_radius_sizes(g, r_max: int) -> list[int]:
    """Largest ball at each radius 0..r_max, one fresh ball per (vertex,
    radius) pair: the definition `graphs.max_ball_sizes` computes."""
    return [
        max((len(ball(g, v, r)) for v in range(g.n)), default=0)
        for r in range(r_max + 1)
    ]


def full_loop_growth_profile(g, r_max: int) -> GrowthProfile:
    """The growth profile with every radius compared to the best so far,
    through the integer powers themselves: the loop `graphs.growth_profile`
    cuts short once the balls stop growing."""
    gamma = ball_per_radius_sizes(g, r_max)[1:]
    best = 1
    for r in range(2, r_max + 1):
        if gamma[r - 1] ** best < gamma[best - 1] ** r:
            best = r
    return GrowthProfile(tuple(gamma), best, gamma[best - 1])


# The pairwise witness layer that `witness._edges` and `witness._vertex_cells`
# replaced, kept as their oracle: every pair of tags or vertices is compared,
# and every vertex scans every edge for its in-neighbours.
def pairwise_witness_from_levels(level_sets, csp: Csp) -> WitnessDigraph:
    """Build the unique witness digraph whose level sets are as given."""
    closed = csp.closed_neighborhoods
    tags = [
        (lvl, cid) for lvl, group in enumerate(level_sets) for cid in sorted(group)
    ]
    edges = set()
    for i, (l1, c1) in enumerate(tags):
        for j, (l2, c2) in enumerate(tags):
            if l1 < l2 and c1 in closed[c2]:
                edges.add((i, j))
    return WitnessDigraph(tuple(c for _, c in tags), frozenset(edges))


def pairwise_validate_witness(g: WitnessDigraph, csp: Csp) -> bool:
    """Acyclic, and an edge joins x,y exactly when decorations interact."""
    if naive_longest_path_levels(g) is None:
        return False
    closed = csp.closed_neighborhoods
    for x in range(g.n):
        for y in range(x + 1, g.n):
            forward = (x, y) in g.edges
            backward = (y, x) in g.edges
            adjacent = g.decorations[x] in closed[g.decorations[y]]
            if adjacent != (forward != backward) or (forward and backward):
                return False
    return True


# The frozenset level rule that `witness._levels_below` replaced with int
# bitmasks, kept as its oracle.
def frozenset_levels_below(bottom, reach, room: int, closed):
    """The levels that may go directly below `bottom` in a level stack.

    A level is a nonempty tuple of ascending ids from the set `reach`,
    pairwise non-adjacent under the frozenset neighbourhoods `closed`, of
    at most `room` ids, and every vertex of `bottom` has a neighbour in it.
    """
    if room < 1:
        return
    pool = sorted(reach)
    todo = [(0, ())]
    while todo:
        start, chosen = todo.pop()
        for i in range(start, len(pool)):
            cid = pool[i]
            if not closed[cid].isdisjoint(chosen):
                continue
            picked = chosen + (cid,)
            if all(not closed[b].isdisjoint(picked) for b in bottom):
                yield picked
            if len(picked) < room:
                todo.append((i + 1, picked))


def in_level_counts(g: WitnessDigraph, csp: Csp, x: int) -> dict[int, int]:
    """For each variable of x's constraint: in-neighbors whose domain has it."""
    counts = {v: 0 for v in csp.constraint(g.decorations[x]).domain}
    for y in [a for a, b in g.edges if b == x]:
        for v in csp.constraint(g.decorations[y]).domain:
            if v in counts:
                counts[v] += 1
    return counts


def leaf_mt1_lhs(g: WitnessDigraph, csp: Csp) -> Fraction:
    """Compatibility mass of g, walking every leaf of the cell-labelling tree.

    Vertex x reads row `in_level_counts(g, csp, x)[v]` of each variable v
    of its constraint. A leaf labels every distinct cell read; it counts,
    with the product of its labels' weights, when every vertex's row is
    bad. This is the full-leaf walk that `verify_mt1_exact` prunes.
    """
    reads = []
    for x, cid in enumerate(g.decorations):
        constraint = csp.constraint(cid)
        counts = in_level_counts(g, csp, x)
        reads.append((constraint, [(v, counts[v]) for v in constraint.domain]))
    cells = sorted({cell for _, read in reads for cell in read})
    total = Fraction(0)
    for labels in itertools.product(range(csp.label_count), repeat=len(cells)):
        label_of = dict(zip(cells, labels))
        if all(
            in_bad_set(constraint, tuple(label_of[cell] for cell in read))
            for constraint, read in reads
        ):
            mass = Fraction(1)
            for label in labels:
                mass *= csp.weights[label]
            total += mass
    return total


def canonical_form(g: WitnessDigraph) -> tuple[tuple[int, int], ...]:
    """Sorted (level, decoration) pairs; equal forms mean isomorphic.

    Valid for witness digraphs only, where the pair list pins the digraph
    down completely (see the `llltool.witness` module docstring).
    """
    levels = naive_longest_path_levels(g)
    if levels is None:
        raise InvalidInputError("digraph has a directed cycle")
    return tuple(sorted(zip(levels, g.decorations)))


def is_isomorphic(g1: WitnessDigraph, g2: WitnessDigraph) -> bool:
    """Decoration-preserving digraph isomorphism by backtracking.

    Exponential in general; intended for cross-checks at tiny sizes.
    """
    if g1.n != g2.n or sorted(g1.decorations) != sorted(g2.decorations):
        return False

    def extend(mapping: dict[int, int], used: set[int]) -> bool:
        if len(mapping) == g1.n:
            return True
        x = len(mapping)
        for y in range(g2.n):
            if y in used or g2.decorations[y] != g1.decorations[x]:
                continue
            ok = True
            for a, fa in mapping.items():
                if ((a, x) in g1.edges) != ((fa, y) in g2.edges):
                    ok = False
                    break
                if ((x, a) in g1.edges) != ((y, fa) in g2.edges):
                    ok = False
                    break
            if ok and extend({**mapping, x: y}, used | {y}):
                return True
        return False

    return extend({}, set())


def local_csp(csp, c, r):
    """The radius-r localization: bad sets outside the ball around c become everything."""
    keep = ball(build_dependency_graph(csp), c, r)
    constraints = tuple(
        a if a.id in keep else Constraint(a.id, a.domain, AlwaysViolated())
        for a in csp.constraints
    )
    return Csp(csp.variables, csp.label_count, csp.weights, constraints)


def folner_totals(seq, csp, c, r):
    """Firings of seq inside and outside the radius-r ball around c."""
    inside = ball(build_dependency_graph(csp), c, r)
    in_total = sum(len(step & inside) for step in seq.steps)
    out_total = sum(len(step - inside) for step in seq.steps)
    return in_total, out_total


def is_folner(seq, csp, c, r, N, eps):
    """At least N firings in the r-ball, outside share strictly below eps."""
    in_total, out_total = folner_totals(seq, csp, c, r)
    return in_total >= N and out_total < eps * (in_total + out_total)


def encode_column(column, k):
    """Pack a label column into one integer, row 0 least significant."""
    code = 0
    for row, lab in enumerate(column):
        if not 0 <= lab < k:
            raise InvalidParameterError(f"label {lab} out of range")
        code += lab * k**row
    return code


def decode_column(code, k, depth):
    """Inverse of `encode_column` for a depth-deep column."""
    if code < 0 or code >= k**depth:
        raise InvalidParameterError(f"column code {code} out of range")
    out = []
    for _ in range(depth):
        out.append(code % k)
        code //= k
    return tuple(out)


def decode_table(codes, k, depth) -> Table:
    """The depth-deep table whose column at v has the code codes[v]."""
    return Table(depth, {v: decode_column(code, k, depth) for v, code in codes.items()})


def column_weights(weights, depth):
    """Product measure over depth-deep columns, indexed by column code."""
    k = len(weights)
    out = []
    for code in range(k**depth):
        mass = Fraction(1)
        for lab in decode_column(code, k, depth):
            mass *= weights[lab]
        out.append(mass)
    return tuple(out)


class ColumnLBadPredicate(BadPredicate):
    """Column-code assignments on dom_R(c) under which c is not locally good."""

    def __init__(self, plan, depth):
        self.k = plan.csp.label_count
        self.plan = plan
        self.domain = plan.domain
        self.depth = depth

    def contains(self, row):
        table = decode_table(dict(zip(self.domain, row)), self.k, self.depth)
        return not is_locally_good(self.plan, table)[0]


def column_lg_csp(csp, R, N, eps, depth, budget=DEFAULT_SEARCH_BUDGET) -> Csp:
    """The meta-problem over whole columns: one variable per base variable,
    labelled by its column's code among k**depth, under the column weights.

    The oracle for `build_lg_csp`'s cells. It refuses k**depth column
    labels past the materialization cap, before any mass is asked for.
    """
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    cap = materialize_cap_default()
    if csp.label_count**depth > cap:
        raise CapExceededError(
            f"{csp.label_count}**{depth} column labels exceed cap {cap}"
        )
    constraints = []
    for a in csp.constraints:
        bad = ColumnLBadPredicate(SearchPlan(csp, a.id, R, N, eps, budget), depth)
        constraints.append(Constraint(a.id, bad.domain, bad))
    return Csp(
        csp.variables,
        csp.label_count**depth,
        column_weights(csp.weights, depth),
        tuple(constraints),
    )


def cell_table(csp, labeling, depth):
    """The table a cell labeling of `build_lg_csp` holds, cell by cell."""
    return Table(depth, {
        v: tuple(labeling[cell_id(v, row, depth)] for row in range(depth))
        for v in csp.variables
    })


def naive_locally_bad(csp, table, c, R, N, eps):
    """Existence of a Folner run near c, straight from the definition.

    For each radius r below R, explores every firing-count vector
    reachable by steps that are arbitrary non-adjacent sets of violated
    constraints of the radius-r localization, anywhere in the problem.
    No singleton serialization, no ball restriction on the search.
    """
    dep = build_dependency_graph(csp)
    for r in range(R):
        if _folner_reachable(local_csp(csp, c, r), table,
                             ball(dep, c, r), N, eps, dep):
            return True
    return False


def lg_degree_check(csp: Csp, R: int) -> dict:
    """Meta-dependency degree versus the growth margins at 2R and 2R+1.

    `bound` and `pass` use gamma(2R) - 1. That margin can be exceeded:
    two R-balls may be disjoint while domains of their boundary
    constraints still share a variable, which stretches the interaction
    range to 2R+1. The report therefore also carries the safe margin
    gamma(2R+1) - 1 (`safe_bound`, `safe_pass`).

    Constraints a and b interact exactly when some a' in B(a, R) and
    b' in B(b, R) share a variable, i.e. when dist(a, b) <= 2R+1. The
    meta-problem's dependency graph is thus the (2R+1)-th power of the
    base dependency graph, and `safe_bound` is its exact maximum degree,
    not only an upper bound. Only the tests read this report.
    """
    dep = csp.dependency_graph
    # Meta-constraint a watches dom_R(a), which depends on R alone: every
    # meta-problem at R, the smallest one too, has this dependency graph.
    meta = build_lg_csp(csp, R, 1, Fraction(1, 2), 1).dependency_graph
    max_degree = meta.max_degree()
    bound = gamma_at_radius(dep, 2 * R) - 1
    safe_bound = gamma_at_radius(dep, 2 * R + 1) - 1
    return {
        "R": R,
        "max_degree": max_degree,
        "bound": bound,
        "pass": max_degree <= bound,
        "safe_bound": safe_bound,
        "safe_pass": max_degree <= safe_bound,
    }


def _folner_reachable(local, table, inside, N, eps, dep):
    ids = [a.id for a in local.constraints]
    depth = table.depth
    # Firing an always-violated constraint with no variables outside the
    # ball only inflates the outside count, so such firings are capped
    # away; inside the ball they are capped at N, past which the Folner
    # test cannot improve.
    caps = {}
    for a in local.constraints:
        if a.domain:
            caps[a.id] = depth * len(a.domain)
        else:
            caps[a.id] = N if a.id in inside else 0
    start = tuple(0 for _ in ids)
    seen = {start}
    stack = [start]
    while stack:
        counts = stack.pop()
        by_id = dict(zip(ids, counts))
        in_total = sum(k for a, k in by_id.items() if a in inside)
        out_total = sum(k for a, k in by_id.items() if a not in inside)
        if in_total >= N and out_total < eps * (in_total + out_total):
            return True
        levels = {v: 0 for v in local.variables}
        for a, k in by_id.items():
            for v in local.constraint(a).domain:
                levels[v] += k
        fireable = []
        for a in ids:
            if by_id[a] >= caps[a]:
                continue
            dom = local.constraint(a).domain
            if any(levels[v] >= depth for v in dom):
                continue
            row = tuple(table.get(v, levels[v]) for v in dom)
            if in_bad_set(local.constraint(a), row):
                fireable.append(a)
        for step in independent_subsets(dep, fireable):
            nxt = tuple(
                by_id[a] + (1 if a in step else 0) for a in ids
            )
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return False


# The recursive count-vector search that `local_goodness.SearchPlan.search`
# replaced, kept word for word as the oracle for the iterative one. It
# prunes nothing, so it also checks that capacity pruning changes no
# verdict. Its depth is capped by the recursion limit, so feed it small
# tables only.
@dataclass
class FolnerSearchState:
    """Bookkeeping for one node of the count-vector search."""

    prefix: tuple[int, ...]
    counts: dict[int, int]
    in_total: int
    out_total: int
    levels: dict[int, int]


def recursive_folner_search(
    csp: Csp,
    table: Table,
    c: int,
    r: int,
    R: int,
    N: int,
    eps: Fraction,
    budget: int,
) -> tuple[MtSequence | None, int]:
    """First Folner count vector reachable by consistent singleton firings.

    Returns (witness, nodes visited); witness None when none exists.
    Raises SearchBudgetError past `budget` visited count vectors.
    """
    dep = csp.dependency_graph
    ball_r = ball(dep, c, r)
    ball_R = ball(dep, c, R)
    # In-ball constraints first, ids ascending, then the outer shell.
    order = sorted(ball_r) + sorted(ball_R - ball_r)
    depth = table.depth
    center = csp.constraint(c)
    if not center.domain:
        if in_bad_set(center, ()):
            return MtSequence(tuple(frozenset({c}) for _ in range(N))), 1
        return None, 1

    visited: set[tuple[int, ...]] = set()
    state = FolnerSearchState(
        prefix=(),
        counts={a: 0 for a in order},
        in_total=0,
        out_total=0,
        levels={v: 0 for a in order for v in csp.constraint(a).domain},
    )

    def key() -> tuple[int, ...]:
        return tuple(state.counts[a] for a in order)

    def accepted() -> bool:
        total = state.in_total + state.out_total
        return state.in_total >= N and state.out_total < eps * total

    def fire_ok(a: int) -> bool:
        dom = csp.constraint(a).domain
        if any(state.levels[v] >= depth for v in dom):
            return False
        if a not in ball_r:
            return True  # localized bad set is everything
        row = tuple(table.get(v, state.levels[v]) for v in dom)
        return in_bad_set(csp.constraint(a), row)

    def dfs() -> MtSequence | None:
        k = key()
        if k in visited:
            return None
        visited.add(k)
        if len(visited) > budget:
            raise SearchBudgetError(
                f"search exceeded {budget} count vectors at c={c}, r={r}"
            )
        if accepted():
            return MtSequence(tuple(frozenset({a}) for a in state.prefix))
        for a in order:
            if not fire_ok(a):
                continue
            dom = csp.constraint(a).domain
            state.prefix += (a,)
            state.counts[a] += 1
            if a in ball_r:
                state.in_total += 1
            else:
                state.out_total += 1
            for v in dom:
                state.levels[v] += 1
            found = dfs()
            if found is not None:
                return found
            state.prefix = state.prefix[:-1]
            state.counts[a] -= 1
            if a in ball_r:
                state.in_total -= 1
            else:
                state.out_total -= 1
            for v in dom:
                state.levels[v] -= 1
        return None

    return dfs(), len(visited)


def all_maximal_run_statuses(csp, table):
    """Each status some maximal-choice resampling run can end with.

    Branches over every inclusion-maximal non-adjacent subset of the
    violated constraints at every step, mirroring the depth bookkeeping
    of the real runner. Recursion is memoized on the level vector, which
    fixes all future behavior.
    """
    dep = build_dependency_graph(csp)
    order = list(csp.variables)
    statuses = set()
    visited = set()

    def walk(levels):
        key = tuple(levels[v] for v in order)
        if key in visited:
            return
        visited.add(key)
        labeling = {v: table.get(v, levels[v]) for v in order}
        viol = [a.id for a in csp.constraints if violates(csp, a.id, labeling)]
        if not viol:
            statuses.add("completed")
            return
        for m in maximal_independent_subsets(dep, viol):
            touched = [v for cid in m for v in csp.constraint(cid).domain]
            if any(levels[v] + 1 >= table.depth for v in touched):
                statuses.add("depth_exhausted")
                continue
            nxt = dict(levels)
            for v in touched:
                nxt[v] += 1
            walk(nxt)

    walk({v: 0 for v in order})
    return statuses


def random_tiny_csp(rng: random.Random, max_bad_rows=2, allow_empty_bad=True):
    """A small random problem: <= 3 constraints, 2 labels, domains <= 2."""
    n_vars = rng.randint(2, 4)
    n_cons = rng.randint(1, 3)
    specs = []
    for _ in range(n_cons):
        size = rng.randint(1, 2)
        domain = tuple(sorted(rng.sample(range(n_vars), size)))
        rows = [
            tuple(rng.randint(0, 1) for _ in domain)
            for _ in range(rng.randint(0 if allow_empty_bad else 1, max_bad_rows))
        ]
        specs.append((domain, set(rows)))
    return make_csp(n_vars, specs)


def paired_hypergraph(rng):
    """Disjoint pairs of 6-edges sharing one vertex: meta-degree 1."""
    edges, base = [], 0
    for _ in range(rng.randint(1, 3)):
        first = list(range(base, base + 6))
        second = sorted([first[rng.randrange(6)]] + list(range(base + 6, base + 11)))
        edges += [first, second]
        base += 11
    if rng.random() < 0.5:
        edges.append(list(range(base, base + 6)))
        base += 6
    return Hypergraph(base, tuple(tuple(e) for e in edges))


def sequences_upto(csp, max_total):
    """All step sequences with nonempty non-adjacent steps, any validity.

    Quantifies over candidate scripts, not over consistent ones; the
    point is to feed both consistent and inconsistent inputs to the
    replay equivalence checks.
    """
    dep = build_dependency_graph(csp)
    steps = independent_subsets(dep, [c.id for c in csp.constraints])
    out = []

    def extend(prefix, total):
        out.append(MtSequence(tuple(prefix)))
        for s in steps:
            if total + len(s) <= max_total:
                extend(prefix + [s], total + len(s))

    extend([], 0)
    return out


def _naive_step_disjoint(csp, step):
    seen = set()
    for cid in step:
        dom = csp.constraint(cid).domain
        if seen.intersection(dom):
            return False
        seen.update(dom)
    return True


def _naive_choose(strategy, violated, dep, rng, step_index):
    if strategy.kind == "first_singleton":
        return frozenset({violated[0]})
    if strategy.kind == "maximal_greedy":
        return frozenset(maximal_independent_set(dep, violated))
    if strategy.kind == "random":
        # Random permutation, then greedy: a random maximal independent set.
        order = list(violated)
        rng.shuffle(order)
        chosen = []
        taken = set()
        for cid in order:
            if taken.isdisjoint(dep.adjacency[cid]) and cid not in taken:
                chosen.append(cid)
                taken.add(cid)
        return frozenset(chosen)
    if strategy.kind == "scripted":
        assert strategy.script is not None
        if step_index >= len(strategy.script.steps):
            return None
        return strategy.script.steps[step_index]
    raise InvalidParameterError(f"unknown strategy kind {strategy.kind!r}")


def naive_mta_run(csp, table, strategy, max_iters=None):
    """The resampling loop by full rescan: every step re-reads every cell.

    Each pass rebuilds the labeling from the levels and re-checks every
    constraint against its bad set itself, not through `violates` or the
    problem's `bad_tests`. Returns (status, fired set per pass, violated
    ids per pass in ascending order, final labeling, final levels); the
    passes line up with `RunTrace.iterations`, the trailing one that fires
    nothing included.
    """
    if max_iters is None:
        max_iters = len(csp.constraints) * table.depth
    dep = build_dependency_graph(csp)
    rng = random.Random(strategy.seed) if strategy.kind == "random" else None
    levels = {v: 0 for v in csp.variables}
    steps = []
    violated_per_step = []
    step_index = 0
    while True:
        labeling = {v: table.get(v, levels[v]) for v in csp.variables}
        violated = tuple(
            c.id for c in csp.constraints
            if in_bad_set(c, tuple(labeling[v] for v in c.domain))
        )
        violated_per_step.append(violated)
        if not violated:
            steps.append(frozenset())
            return "completed", steps, violated_per_step, labeling, dict(levels)
        if step_index >= max_iters:
            steps.append(frozenset())
            return "iteration_cap", steps, violated_per_step, labeling, dict(levels)
        fired = _naive_choose(strategy, violated, dep, rng, step_index)
        if fired is None:
            steps.append(frozenset())
            return "iteration_cap", steps, violated_per_step, labeling, dict(levels)
        if strategy.kind == "scripted":
            if not fired.issubset(violated):
                raise ScriptError(
                    f"step {step_index} fires non-violated constraints "
                    f"{sorted(fired.difference(violated))}"
                )
            if not _naive_step_disjoint(csp, fired):
                raise ScriptError(f"step {step_index} is not domain-disjoint")
        steps.append(fired)
        touched = [v for cid in fired for v in csp.constraint(cid).domain]
        if any(levels[v] + 1 >= table.depth for v in touched):
            return "depth_exhausted", steps, violated_per_step, labeling, dict(levels)
        for v in touched:
            levels[v] += 1
        step_index += 1


class UnsatisfiableConstraintError(LllToolError):
    """A constraint excludes every assignment of its domain."""


def solve_edgeless(csp: Csp) -> dict[int, int]:
    """Label each isolated constraint with its first non-bad assignment.

    The oracle for the derandomizer on problems with no dependency edge.
    Variables under no constraint get label 0. Raises
    UnsatisfiableConstraintError when some bad set is everything, and
    InvalidParameterError if the dependency graph has an edge.
    """
    if csp.dependency_graph.max_degree() > 0:
        raise InvalidParameterError("dependency graph must be edgeless")
    labeling = {v: 0 for v in csp.variables}
    for c in csp.constraints:
        for row in assignment_rows(csp.label_count, len(c.domain)):
            if not in_bad_set(c, row):
                labeling.update(zip(c.domain, row))
                break
        else:
            raise UnsatisfiableConstraintError(
                f"constraint {c.id} forbids every assignment"
            )
    return labeling


# The global-quotient derandomizer that `derand.induction_step` and
# `derand.solve_double_exp` replaced, kept word for word as their oracle:
# every candidate row re-quotients the whole problem, and every class
# re-quotients it again and re-evaluates every mass.
def pairwise_square_independent(csp: Csp, ids) -> bool:
    """No two distinct ids within distance 2, i.e. closed neighborhoods disjoint."""
    closed = csp.closed_neighborhoods
    ids = list(ids)
    return all(
        closed[a].isdisjoint(closed[b]) for a in ids for b in ids if a != b
    )


def quotient_induction_step(base: Csp, reduced: Csp, color_class) -> dict[int, int]:
    """First acceptable assignment per class constraint, merged.

    `reduced` is `base` conditioned on the labels fixed so far.

    For c in the class (ids ascending) the candidates are the label rows
    on c's still-free variables, in lexicographic order; a candidate is
    accepted when every constraint in c's closed neighborhood keeps
    conditional bad mass at most (d+1) times its current value. The class
    must be independent in the squared dependency graph, which makes the
    per-constraint searches non-interacting.
    """
    if not pairwise_square_independent(base, color_class):
        raise InvalidParameterError("class is not square-independent")
    d = base.dependency_graph.max_degree()
    merged: dict[int, int] = {}
    for cid in sorted(color_class):
        free = reduced.constraint(cid).domain
        targets = sorted(base.closed_neighborhoods[cid])
        current = {a: prob_bad(reduced, a) for a in targets}
        chosen = None
        for row in assignment_rows(base.label_count, len(free)):
            phi = dict(zip(free, row))
            trial = quotient_csp(reduced, phi) if phi else reduced
            if all(
                prob_bad(trial, a) <= (d + 1) * current[a] for a in targets
            ):
                chosen = phi
                break
        if chosen is None:
            raise InternalInvariantError(
                f"no qualifying assignment for constraint {cid}"
            )
        merged.update(chosen)
    return merged


def quotient_solve_double_exp(csp: Csp, ledger: list | None = None) -> dict[int, int]:
    """Deterministic total solution under p(d+1)^(d+1) < 1.

    Pass a list as `ledger` to collect per-class exact mass records; each
    entry checks the running mass of a constraint against
    (d+1)^k times its starting mass, k counting the classes whose closed
    neighborhood reached it so far.
    """
    dep = csp.dependency_graph
    d = dep.max_degree()
    base_mass = {c.id: prob_bad(csp, c.id) for c in csp.constraints}
    certain = [cid for cid, mass in base_mass.items() if mass == 1]
    if certain:
        raise HypothesisError(f"constraint {certain[0]} is violated by every labeling")
    p = max(base_mass.values(), default=Fraction(0))
    if not lll_condition(p, d, "double_exp"):
        raise InvalidParameterError(
            f"p(d+1)^(d+1) = {float_of(p * Fraction(d + 1) ** (d + 1))} is not < 1"
        )
    colors = greedy_proper_coloring(power_graph(dep, 2).adjacency)
    classes: dict[int, list[int]] = {}
    for cid, color in enumerate(colors):
        classes.setdefault(color, []).append(cid)

    fixed: dict[int, int] = {}
    reduced = quotient_csp(csp, fixed)
    touched = {c.id: 0 for c in csp.constraints}
    for index, color in enumerate(sorted(classes)):
        members = classes[color]
        phi = quotient_induction_step(csp, reduced, members)
        fixed = {**fixed, **phi}
        reduced = quotient_csp(csp, fixed)
        reached = set()
        for cid in members:
            reached.update(csp.closed_neighborhoods[cid])
        for a in sorted(reached):
            touched[a] += 1
        if ledger is not None:
            for c in csp.constraints:
                after = prob_bad(reduced, c.id)
                bound = Fraction(d + 1) ** touched[c.id] * base_mass[c.id]
                ledger.append(
                    {
                        "class_index": index,
                        "class": sorted(members),
                        "constraint": c.id,
                        "mass": after,
                        "k": touched[c.id],
                        "bound": bound,
                        "ok": after <= bound,
                    }
                )
    labeling = {v: 0 for v in csp.variables}
    labeling.update(fixed)
    if not is_solution(csp, labeling):
        raise InternalInvariantError("derandomized labeling violates a constraint")
    return labeling
