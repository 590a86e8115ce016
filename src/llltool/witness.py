"""Witness digraphs for resampling runs, and checks of the two product bounds.

A witness digraph records which constraints fired and in what dependency
order: vertices carry constraint decorations, and between any two vertices
whose decorations share a variable (or coincide) there is exactly one edge.
Every such digraph is determined by its vertices' (level, decoration)
pairs, where level is longest-path depth: interacting vertices sit at
distinct levels, and every edge points from lower to higher level. That
fact drives the single edge rule below, which builds a digraph from level
sets and also validates one against its own levels, and it drives the
single-sink enumerator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .csp import Csp, materialize_cap_default, prob_bad, row_reader
from .errors import (
    CapExceededError,
    DepthExceededError,
    HypothesisError,
    InvalidInputError,
    InvalidParameterError,
)
from .exact import binomial_sigma, float_of, format_rational, hoeffding_side, parse_int
from .moser_tardos import MtSequence, check_step_disjoint
from .tables import CellSampler, KeyedTable


@dataclass(frozen=True)
class WitnessDigraph:
    decorations: tuple[int, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = len(self.decorations)
        for a, b in self.edges:
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidInputError(f"edge ({a},{b}) references missing vertex")
            if a == b:
                raise InvalidInputError(f"self-loop at vertex {a}")

    @property
    def n(self) -> int:
        return len(self.decorations)

    def to_json(self) -> dict:
        return {
            "vertices": [
                {"id": i, "constraint": c} for i, c in enumerate(self.decorations)
            ],
            "edges": [[a, b] for a, b in sorted(self.edges)],
        }


def witness_from_json(obj) -> WitnessDigraph:
    try:
        verts = sorted(obj["vertices"], key=lambda r: parse_int(r["id"]))
        if [parse_int(r["id"]) for r in verts] != list(range(len(verts))):
            raise InvalidInputError("vertex ids must be 0..n-1")
        decorations = tuple(parse_int(r["constraint"]) for r in verts)
        pairs = obj["edges"]
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise InvalidInputError("each edge must be a list [a, b]")
        edges = frozenset((parse_int(a), parse_int(b)) for a, b in pairs)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed witness JSON: {exc}") from exc
    return WitnessDigraph(decorations, edges)


def _topological_levels(g: WitnessDigraph) -> list[int] | None:
    """Longest-path level per vertex, or None if the digraph has a cycle."""
    indeg = [0] * g.n
    out: list[list[int]] = [[] for _ in range(g.n)]
    for a, b in g.edges:
        indeg[b] += 1
        out[a].append(b)
    level = [0] * g.n
    queue = [x for x in range(g.n) if indeg[x] == 0]
    seen = 0
    while queue:
        x = queue.pop()
        seen += 1
        for b in out[x]:
            level[b] = max(level[b], level[x] + 1)
            indeg[b] -= 1
            if indeg[b] == 0:
                queue.append(b)
    return level if seen == g.n else None


def full_witness_digraph(seq: MtSequence, csp: Csp) -> WitnessDigraph:
    """Digraph on (step, constraint) firings, edges along shared variables.

    Vertices are ordered lexicographically by (step, constraint id): the
    steps play the part of level sets in `witness_from_levels`.
    Raises InvalidInputError if some step repeats a variable.
    """
    for n, step in enumerate(seq.steps):
        if not check_step_disjoint(csp, step):
            raise InvalidInputError(f"step {n} is not domain-disjoint")
    return witness_from_levels(seq.steps, csp)


def _edges(decorations, levels, closed) -> frozenset[tuple[int, int]]:
    """The edge rule: x -> y when the decorations interact and x's level is lower.

    Vertices are indexed by decoration, and each walks its decoration's
    closed neighbourhood: one step per interacting pair of vertices.
    """
    holders: dict[int, list[int]] = {}
    for x, cid in enumerate(decorations):
        holders.setdefault(cid, []).append(x)
    return frozenset(
        (x, y)
        for y, cid in enumerate(decorations)
        for a in closed[cid]
        for x in holders.get(a, ())
        if levels[x] < levels[y]
    )


def validate_witness(g: WitnessDigraph, csp: Csp) -> bool:
    """Acyclic, and an edge joins x,y exactly when decorations interact.

    Equivalently: no two interacting vertices share a longest-path level,
    and the edges are the edge rule's on those levels.
    Raises InvalidParameterError when a decoration names no constraint.
    """
    for cid in set(g.decorations):
        csp.constraint(cid)
    levels = _topological_levels(g)
    if levels is None:
        return False
    closed = csp.closed_neighborhoods
    placed = set(zip(levels, g.decorations))
    if len(placed) < g.n or any(
        (lvl, a) in placed for lvl, cid in placed for a in closed[cid] if a != cid
    ):
        return False
    return g.edges == _edges(g.decorations, levels, closed)


def witness_from_levels(level_sets, csp: Csp) -> WitnessDigraph:
    """Build the unique witness digraph whose level sets are as given.

    Vertices come level by level, ids ascending within a level; vertices
    that interact inside one level get no edge.
    """
    groups = [sorted(group) for group in level_sets]
    decorations = tuple(cid for group in groups for cid in group)
    levels = [lvl for lvl, group in enumerate(groups) for _ in group]
    return WitnessDigraph(
        decorations, _edges(decorations, levels, csp.closed_neighborhoods)
    )


def _vertex_cells(g: WitnessDigraph, csp: Csp) -> list[tuple[Callable, tuple]]:
    """Each vertex's bad test with the (variable, row) cells it reads.

    Vertex x reads row k of variable v, k counting x's in-neighbours whose
    constraint contains v: one pass over the edges. Cells come in domain
    order. They depend on the digraph alone, so a caller that tries many
    cell assignments computes them once.
    """
    constraints = [csp.constraint(cid) for cid in g.decorations]
    counts = [dict.fromkeys(c.domain, 0) for c in constraints]
    for a, b in g.edges:
        row = counts[b]
        for v in constraints[a].domain:
            if v in row:
                row[v] += 1
    return [
        (csp.bad_tests[cid], tuple((v, row[v]) for v in c.domain))
        for cid, c, row in zip(g.decorations, constraints, counts)
    ]


def _cells_within(g: WitnessDigraph, csp: Csp, depth: int):
    """`_vertex_cells` of a witness digraph of `csp`.

    Refuses, with InvalidParameterError, a depth below 1; with
    InvalidInputError, a digraph that `validate_witness` rejects; and then
    the least cell whose row is past `depth`.
    """
    if depth < 1:
        raise InvalidParameterError("depth must be >= 1")
    if not validate_witness(g, csp):
        raise InvalidInputError("digraph is not a witness digraph of the problem")
    vertex_cells = _vertex_cells(g, csp)
    past = [cell for _, cells in vertex_cells for cell in cells if cell[1] >= depth]
    if past:
        raise DepthExceededError(f"needed row {min(past)[1]} is past depth {depth}")
    return vertex_cells


def _bad_mass_product(g: WitnessDigraph, csp: Csp) -> Fraction:
    return math.prod((prob_bad(csp, cid) for cid in g.decorations), start=Fraction(1))


def _compatible_on_cells(vertex_cells, cell) -> bool:
    for bad_test, cells in vertex_cells:
        row = tuple(cell(v, r) for v, r in cells)
        if not bad_test(row):
            return False
    return True


def _pruned_mass(checks, numerators) -> int:
    """Sum of the label-numerator products of every labelling that passes.

    Position i takes each label in turn; the checks at i, each a bad test
    and a reader of the positions it reads, must then hold, or the subtree
    is skipped.
    Depth first and iterative, since positions may number in the thousands
    when there is one label.
    """
    m = len(checks)
    if m == 0:
        return 1
    k = len(numerators)
    total = 0
    labels = [-1] * m
    mass = [1] * m
    i = 0
    while i >= 0:
        label = labels[i] + 1
        if label == k:
            labels[i] = -1
            i -= 1
            continue
        labels[i] = label
        for bad_test, reader in checks[i]:
            if not bad_test(reader(labels)):
                break
        else:
            if i + 1 == m:
                total += mass[i] * numerators[label]
            else:
                mass[i + 1] = mass[i] * numerators[label]
                i += 1
    return total


def verify_mt1_exact(g: WitnessDigraph, csp: Csp, depth: int) -> dict:
    """Exact compatibility probability versus the product of bad masses.

    Cells are labelled vertex by vertex, and each vertex is tested as soon
    as its last cell is set, so no subtree below an incompatible prefix is
    walked. `materialize_cap_default()` bounds the full k**cells
    assignment count all the same, and the rhs masses.
    """
    vertex_cells = _cells_within(g, csp, depth)
    # Cell positions in first-read order, and at each position the vertices
    # whose last cell it is, with the positions they read. A vertex that
    # reads no cell is tested here.
    position: dict[tuple[int, int], int] = {}
    for _, cells in vertex_cells:
        for cell in cells:
            position.setdefault(cell, len(position))
    m = len(position)
    k = csp.label_count
    cap = materialize_cap_default()
    if k ** m > cap:
        raise CapExceededError(f"{k}**{m} cell assignments exceed cap {cap}")
    checks: list[list[tuple[Callable, Callable]]] = [[] for _ in range(m)]
    compatible = True
    for bad_test, cells in vertex_cells:
        read = tuple(position[cell] for cell in cells)
        if read:
            checks[max(read)].append((bad_test, row_reader(read)))
        elif not bad_test(()):
            compatible = False
    # Masses are products of integer weight numerators over the common
    # denominator scale**m, divided out once at the end.
    scale, numerators = csp.weight_scale
    total = _pruned_mass(checks, numerators) if compatible else 0
    lhs = Fraction(total, scale**m)
    rhs = _bad_mass_product(g, csp)
    return {
        "mode": "exact",
        "lhs": float_of(lhs),
        "rhs": float_of(rhs),
        "lhs_exact": format_rational(lhs),
        "rhs_exact": format_rational(rhs),
        "cells": m,
        "pass": lhs == rhs,
    }


def verify_mt1_monte_carlo(
    g: WitnessDigraph, csp: Csp, trials: int, seed: int, depth: int
) -> dict:
    """Empirical compatibility frequency versus the product of bad masses.

    The pass is an exact two-sided Hoeffding test at level 2*exp(-8).
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    vertex_cells = _cells_within(g, csp, depth)
    # A keyed cell depends on (seed, trial, v, row) alone, so the tables
    # need only the columns the witness reads.
    columns = sorted({v for _, cells in vertex_cells for v, _ in cells})
    cells = CellSampler(csp.weights, seed)
    hits = 0
    for trial in range(trials):
        table = KeyedTable(cells, columns, depth, trial)
        if _compatible_on_cells(vertex_cells, table.get):
            hits += 1
    rhs = _bad_mass_product(g, csp)
    return {
        "mode": "monte_carlo",
        "trials": trials,
        "seed": seed,
        "lhs": hits / trials,
        "rhs": float_of(rhs),
        "rhs_exact": format_rational(rhs),
        "tolerance": 4 * binomial_sigma(rhs, trials),
        "pass": hoeffding_side(hits, trials, rhs) == 0,
    }


def enumerate_sink_star(
    c: int, csp: Csp, max_vertices: int, cap: int = 100_000
) -> list[WitnessDigraph]:
    """All single-sink witness digraphs with sink decoration c, up to iso.

    One digraph per level stack of `_sink_stacks`, sorted by vertex count,
    then as tuples. Raises InvalidParameterError when c names no
    constraint, and CapExceededError past `cap` representatives or, before
    any digraph is built, when the digraphs' vertex pairs (an n-vertex
    digraph has n(n-1)/2, a bound on its edges) exceed
    `materialize_cap_default()`. The pairs are counted as the stacks come,
    and the listing refuses at the first stack that takes them past that
    cap.
    """
    _require_cap(cap)
    limit = materialize_cap_default()
    kept = []
    pairs = 0
    for count, stack in enumerate(_sink_stacks(c, csp, max_vertices), 1):
        if count > cap:
            raise CapExceededError(f"more than {cap} representatives")
        n = sum(map(len, stack))
        pairs += n * (n - 1) // 2
        if pairs > limit:
            raise CapExceededError(
                f"the first {count} digraphs have {pairs} vertex pairs, cap {limit}"
            )
        kept.append((n, stack))
    kept.sort()
    return [witness_from_levels(stack, csp) for _, stack in kept]


def _require_cap(cap: int) -> None:
    """Refuse a negative cap; 0 is legal and refuses as any cap does."""
    if cap < 0:
        raise InvalidParameterError("cap must be >= 0")


def _closed_masks(csp: Csp) -> list[int]:
    """Each constraint's closed neighbourhood as an int bitmask of ids."""
    return [sum(1 << a for a in nbhd) for nbhd in csp.closed_neighborhoods]


def _levels_below(bottom, reach: int, room: int, closed: list[int]):
    """The levels that may go directly below `bottom` in a level stack.

    A level is a nonempty tuple of ascending ids from `reach` (the ids that
    interact with something in the stack, since closed neighbourhoods are
    symmetric), pairwise non-adjacent, of at most `room` ids, and every
    vertex of `bottom` has a neighbour in it. `reach` and `closed[a]` are
    int bitmasks of constraint ids, as in `graphs._grown_masks`. Each level
    comes with `covered`, the union of its ids' closed neighbourhoods: an
    id is adjacent to the level exactly when its bit is in `covered`, so
    independence and coverage of `bottom` are single `&` tests. The bits
    of `reach` are walked in ascending order. Depth first with an explicit
    stack, so a large room cannot exhaust the interpreter's recursion.
    """
    if room < 1:
        return
    need = sum(1 << b for b in bottom)
    pool = []
    while reach:
        low = reach & -reach
        pool.append((low, low.bit_length() - 1))
        reach ^= low
    todo = [(0, (), 0)]
    while todo:
        start, chosen, blocked = todo.pop()
        for i in range(start, len(pool)):
            bit, cid = pool[i]
            if blocked & bit:
                continue
            picked = chosen + (cid,)
            covered = blocked | closed[cid]
            if need & covered == need:
                yield picked, covered
            if len(picked) < room:
                todo.append((i + 1, picked, covered))


def _sink_stacks(
    c: int, csp: Csp, max_vertices: int
) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Level stacks of the single-sink witnesses at c, bottom level first.

    Grows level stacks downward from the top level {c}. A stack is valid
    when each level is domain-disjoint, each non-bottom vertex has a
    neighbor directly below (so levels are longest-path levels) and each
    non-top vertex has a neighbor somewhere above (so the sink is unique).
    Distinct stacks are automatically non-isomorphic. Stacks are yielded
    depth first, as they are grown, and none is kept.
    """
    csp.constraint(c)
    if max_vertices < 1:
        raise InvalidParameterError("max_vertices must be >= 1")
    closed = _closed_masks(csp)
    todo = [(((c,),), 1, closed[c])]
    while todo:
        stack, size, reach = todo.pop()
        yield stack
        for level, covered in _levels_below(
            stack[0], reach, max_vertices - size, closed
        ):
            todo.append(((level,) + stack, size + len(level), reach | covered))


def _stack_sums(
    c: int, csp: Csp, max_vertices: int, weight: dict[int, int], cap: int
) -> tuple[int, list[int]]:
    """How many stacks `_sink_stacks` lists, and their weight sums by size.

    Entry n of the list is the sum, over the stacks with n vertices, of
    the product of `weight` over their vertices. The stacks that can go
    below a stack depend only on its bottom level, the ids it reaches and
    the room left, so each such state is counted once and memoised: its
    number of stacks, and its sums per number of vertices added below
    it. The reached ids are an int bitmask, grown with `|`, so a state
    is the key `(bottom, reach_mask, room)`. Depth first with an
    explicit stack of frames. No stack is listed. Raises CapExceededError
    when there are more than `cap` stacks: every state lies on some
    stack, so the stacks below it are never more than the total. Raises
    it also, before a state's list is built, once the memo's entries
    past entry 0, `room` per state, would exceed
    `materialize_cap_default()`.
    """
    csp.constraint(c)
    if max_vertices < 1:
        raise InvalidParameterError("max_vertices must be >= 1")
    closed = _closed_masks(csp)
    limit = materialize_cap_default()
    # A state maps to [stacks, sums], the list indexed by the vertices
    # added below its bottom level; entry 0 is the stack that ends there.
    memo: dict[tuple, list] = {}
    entries = 0

    def open_frame(state):
        nonlocal entries
        bottom, reach, room = state
        entries += room
        if entries > limit:
            raise CapExceededError(
                f"the series memo would hold {entries} entries, cap {limit}"
            )
        totals = [1, [1] + [0] * room]
        return state, _levels_below(bottom, reach, room, closed), totals

    def add(totals: list, level: tuple[int, ...], below: list) -> None:
        w = 1
        for a in level:
            w *= weight[a]
        sums = totals[1]
        for j, total in enumerate(below[1], len(level)):
            sums[j] += total * w
        totals[0] += below[0]
        if totals[0] > cap:
            raise CapExceededError(f"more than {cap} representatives")

    root = ((c,), closed[c], max_vertices - 1)
    frames = [open_frame(root)]
    pending: list[tuple[int, ...]] = []  # the level each open parent waits on
    # A state with no room left has only the stack that ends there; it is
    # added as is, and opens no frame and no memo entry.
    ends = [1, [1]]
    while frames:
        (_, reach, room), levels, totals = frames[-1]
        for level, covered in levels:
            left = room - len(level)
            if not left:
                add(totals, level, ends)
                continue
            child = (level, reach | covered, left)
            below = memo.get(child)
            if below is None:
                pending.append(level)
                frames.append(open_frame(child))
                break
            add(totals, level, below)
        else:
            state, _, totals = frames.pop()
            memo[state] = totals
            if frames:
                add(frames[-1][2], pending.pop(), totals)
    stacks, sums = memo[root]
    if stacks > cap:
        raise CapExceededError(f"more than {cap} representatives")
    return stacks, [0] + [total * weight[c] for total in sums]


def verify_mt2_partial_sums(
    c: int,
    csp: Csp,
    alpha: dict[int, Fraction],
    beta: dict[int, Fraction],
    max_vertices: int,
    cap: int = 100_000,
) -> dict:
    """Partial sums of the single-sink series against beta/(1-beta).

    Requires alpha, beta in [0,1) and, for every constraint a,
    alpha(a) <= beta(a) * prod over neighbors a' of (1 - beta(a')).
    The series is monotone, so every partial sum must already obey the
    bound; raises HypothesisError naming the constraints that break the
    premise, and InvalidParameterError when c names no constraint or
    `cap` is negative.
    """
    _require_cap(cap)
    csp.constraint(c)
    dep = csp.dependency_graph
    alphas: dict[int, Fraction] = {}
    offenders = []
    for a in csp.constraints:
        av, bv = Fraction(alpha[a.id]), Fraction(beta[a.id])
        if not (0 <= av < 1 and 0 <= bv < 1):
            raise InvalidParameterError(
                f"alpha/beta of constraint {a.id} outside [0,1)"
            )
        allowed = bv
        for other in sorted(dep.adjacency[a.id]):
            allowed *= 1 - Fraction(beta[other])
        if av > allowed:
            offenders.append(a.id)
        alphas[a.id] = av
    if offenders:
        raise HypothesisError(
            f"alpha exceeds beta times the neighbor slack at constraints {offenders}"
        )
    # A stack's term is the product of its vertices' alphas. Over their
    # common denominator L, a term with n vertices is an integer over L**n,
    # so the integers are summed per n and divided once per n.
    common = math.lcm(*(av.denominator for av in alphas.values()))
    numerator = {
        cid: av.numerator * (common // av.denominator) for cid, av in alphas.items()
    }
    stacks, sums = _stack_sums(c, csp, max_vertices, numerator, cap)
    partial = sum(
        (Fraction(total, common**n) for n, total in enumerate(sums) if total),
        Fraction(0),
    )
    bc = Fraction(beta[c])
    bound = bc / (1 - bc)
    return {
        "constraint": c,
        "max_vertices": max_vertices,
        "digraphs": stacks,
        "partial_sum": float_of(partial),
        "partial_sum_exact": format_rational(partial),
        "bound": float_of(bound),
        "bound_exact": format_rational(bound),
        "pass": partial <= bound,
    }
