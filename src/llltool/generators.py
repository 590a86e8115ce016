"""Problem generators: proper coloring, sinkless orientation, hypergraph 2-coloring.

Each generator maps a finite (hyper)graph to an explicit problem instance.
Ids are kept parallel to the input: coloring constraints are edges in sorted
order, sinkless-orientation constraints are the vertices themselves.
"""

from __future__ import annotations

from dataclasses import dataclass

from .csp import Constraint, Csp, uniform_weights
from .errors import InvalidInputError, InvalidParameterError
from .exact import parse_int
from .graphs import FiniteGraph


@dataclass(frozen=True)
class Hypergraph:
    n: int
    edges: tuple[tuple[int, ...], ...]  # each sorted, size >= 1

    def __post_init__(self):
        if self.n < 0:
            raise InvalidInputError(f"hypergraph n must be >= 0, got {self.n}")
        for e in self.edges:
            if not e:
                raise InvalidInputError("hyperedges must be non-empty")
            if list(e) != sorted(set(e)):
                raise InvalidInputError(f"hyperedge {e} must be sorted and duplicate-free")
            for v in e:
                if not 0 <= v < self.n:
                    raise InvalidInputError(f"hyperedge vertex {v} out of range")


def hypergraph_from_obj(obj) -> Hypergraph:
    try:
        n = parse_int(obj["n"])
        edges = tuple(tuple(sorted(parse_int(v) for v in e)) for e in obj.get("edges", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed hypergraph: {exc}") from exc
    return Hypergraph(n, edges)


def proper_coloring(g: FiniteGraph, k: int) -> Csp:
    """Variables are vertices, one constraint per edge forbidding equal colors."""
    if k < 1:
        raise InvalidParameterError("need k >= 1 colors")
    # One set shared by every edge: `Csp` then indexes it once, by identity.
    bad = frozenset((lab, lab) for lab in range(k))
    constraints = [Constraint(idx, e, bad) for idx, e in enumerate(g.edges())]
    return Csp(tuple(range(g.n)), k, uniform_weights(k), tuple(constraints))


# Label 0 orients an edge from its lower to its higher endpoint (the
# reference direction); label 1 flips it.
WITH_REFERENCE = 0
AGAINST_REFERENCE = 1


def sinkless_orientation(g: FiniteGraph) -> Csp:
    """Variables are edges, one constraint per vertex forbidding it to be a sink.

    A vertex is a sink when every incident edge points at it: label 0 on an
    edge whose higher endpoint it is, label 1 on an edge whose lower endpoint
    it is. Isolated vertices are unavoidable sinks, hence rejected.
    """
    edges = g.edges()
    edge_index = {e: i for i, e in enumerate(edges)}
    constraints = []
    for v in range(g.n):
        incident = sorted(edge_index[(min(v, u), max(v, u))] for u in g.adjacency[v])
        if not incident:
            raise InvalidInputError(f"vertex {v} is isolated; it would always be a sink")
        row = []
        for ei in incident:
            lo, hi = edges[ei]
            row.append(WITH_REFERENCE if v == hi else AGAINST_REFERENCE)
        constraints.append(Constraint(v, tuple(incident), frozenset({tuple(row)})))
    return Csp(tuple(range(len(edges))), 2, uniform_weights(2), tuple(constraints))


def hypergraph_2coloring(h: Hypergraph) -> Csp:
    """Two labels; a hyperedge is bad exactly when monochromatic."""
    bad = {n: frozenset({(0,) * n, (1,) * n}) for n in {len(e) for e in h.edges}}
    constraints = [Constraint(idx, e, bad[len(e)]) for idx, e in enumerate(h.edges)]
    return Csp(tuple(range(h.n)), 2, uniform_weights(2), tuple(constraints))

