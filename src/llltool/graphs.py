"""Finite undirected graphs: balls, growth profiles, powers, greedy routines.

Vertices are dense ids 0..n-1. All procedures are deterministic, so reruns
are bit-identical: the greedy colouring scans vertices in id order, and the
greedy independent set in the order its caller gives.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from operator import add

from .errors import InvalidInputError, InvalidParameterError
from .exact import parse_int, pow_compare


@dataclass(frozen=True)
class FiniteGraph:
    n: int
    adjacency: tuple[tuple[int, ...], ...]  # sorted, no loops, no duplicates

    def __post_init__(self):
        if self.n < 0 or len(self.adjacency) != self.n:
            raise InvalidInputError("adjacency length must equal vertex count")
        # Hashed neighbor sets keep the symmetry check linear in the edges.
        nbr_sets = [set(nbrs) for nbrs in self.adjacency]
        for v, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(nbr_sets[v]):
                raise InvalidInputError(f"neighbor list of {v} not sorted/unique")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise InvalidInputError(f"vertex {u} out of range")
                if u == v:
                    raise InvalidInputError(f"self-loop at {v}")
                if v not in nbr_sets[u]:
                    raise InvalidInputError(f"edge {v}->{u} not symmetric")

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in self.adjacency[v] if v < u]


def graph_from_edges(n: int, edges) -> FiniteGraph:
    if n < 0:
        raise InvalidInputError(f"graph n must be >= 0, got {n}")
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = map(parse_int, e)  # ValueError unless e is a pair
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidInputError(f"edge {e} out of range for n={n}")
        if u == v:
            raise InvalidInputError(f"self-loop {e}")
        nbrs[u].add(v)
        nbrs[v].add(u)
    return FiniteGraph(n, tuple(tuple(sorted(s)) for s in nbrs))


def load_graph_json(text: str) -> FiniteGraph:
    """Parse {"n": N, "edges": [[u,v],...]}."""
    try:
        obj = json.loads(text)
        return graph_from_edges(parse_int(obj["n"]), obj.get("edges", []))
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidInputError(f"malformed graph JSON: {exc}") from exc


def load_graph_text(text: str) -> FiniteGraph:
    """Parse a plain "u v" per-line edge list; n = 1 + max id seen."""
    edges = []
    top = -1
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            u, v = map(int, line.split())
        except ValueError:  # a non-integer, or not two fields
            raise InvalidInputError(f"bad edge line: {line!r}") from None
        top = max(top, u, v)
        edges.append((u, v))
    return graph_from_edges(top + 1, edges)


def bfs_distances(g: FiniteGraph, v: int, limit: int | None = None) -> dict[int, int]:
    """Distances from v, restricted to limit when given."""
    if not 0 <= v < g.n:
        raise InvalidParameterError(f"vertex {v} out of range")
    dist = {v: 0}
    queue = deque([v])
    while queue:
        x = queue.popleft()
        if limit is not None and dist[x] >= limit:
            continue
        for y in g.adjacency[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist


# Target vertices per block of `_grown_masks`: a block's masks take about
# n * _BLOCK_BITS / 8 bytes, where one block of all n targets takes n**2 / 8.
_BLOCK_BITS = 4096


def _grown_masks(g: FiniteGraph, lo: int, r_max: int):
    """Yield every vertex's ball, cut to the targets lo..lo+_BLOCK_BITS-1.

    Round r yields a list whose entry v has bit i set exactly when
    dist(v, lo + i) <= r. Rounds start from B_0(v) = {v} and take
    B_{r+1}(v) = B_r(v) | B_r(u) over the neighbours u of v; cutting to the
    targets commutes with that step. They stop after r_max, or before the
    first round that changes no mask: every later radius repeats it.
    """
    n, adjacency = g.n, g.adjacency
    width = min(_BLOCK_BITS, n - lo)
    masks = [0] * lo + [1 << i for i in range(width)] + [0] * (n - lo - width)
    yield masks
    for _ in range(r_max):
        grown = []
        for mask, nbrs in zip(masks, adjacency):
            for u in nbrs:
                mask |= masks[u]
            grown.append(mask)
        if grown == masks:
            return
        masks = grown
        yield masks


@dataclass(frozen=True)
class GrowthProfile:
    gamma: tuple[int, ...]  # gamma[i] is the max ball size at radius i+1
    proxy_radius: int  # argmin of gamma(r)**(1/r), smallest on ties
    proxy_gamma: int

    def gamma_at(self, r: int) -> int:
        if r < 1 or r > len(self.gamma):
            raise InvalidParameterError(f"radius {r} outside profile")
        return self.gamma[r - 1]

    def to_json(self) -> dict:
        return {
            "gamma": {str(r + 1): g for r, g in enumerate(self.gamma)},
            "proxy": {
                "radius": self.proxy_radius,
                "gamma": self.proxy_gamma,
                "value_float": self.proxy_gamma ** (1.0 / self.proxy_radius),
            },
        }


def max_ball_sizes(g: FiniteGraph, r_max: int) -> list[int]:
    """Largest ball size at each radius 0..r_max (all 0 on empty graphs).

    The balls of all vertices grow together as bitmasks (`_grown_masks`),
    one block of target vertices at a time; a vertex's ball size at a
    radius is the sum over blocks of its mask's popcount.
    """
    if r_max < 0:
        raise InvalidParameterError("radius must be >= 0")
    rows: list[list[int]] = []  # rows[r][v]: |B_r(v)| over the blocks so far
    for lo in range(0, g.n, _BLOCK_BITS):
        counts = [list(map(int.bit_count, masks))
                  for masks in _grown_masks(g, lo, r_max)]
        if not rows:
            rows = counts
            continue
        # Blocks stop at different rounds; each block's last round repeats.
        rows += rows[-1:] * (len(counts) - len(rows))
        last = len(counts) - 1
        rows = [list(map(add, row, counts[min(r, last)]))
                for r, row in enumerate(rows)]
    best = [max(row) for row in rows] or [0]
    return best + best[-1:] * (r_max + 1 - len(best))


def growth_profile(g: FiniteGraph, r_max: int) -> GrowthProfile:
    """Max ball sizes for radii 1..r_max and the min_r gamma(r)**(1/r) proxy."""
    if r_max < 1:
        raise InvalidParameterError("r_max must be >= 1")
    gamma = max_ball_sizes(g, r_max)[1:]
    # gamma is constant from radius `flat` on, so gamma(r)**(1/r) only
    # falls there: of those radii only r_max can be the argmin. A radius
    # compared twice ties with itself and changes nothing.
    flat = gamma.index(gamma[-1]) + 1
    best = 1
    for r in (*range(2, flat + 1), r_max):
        # gamma(r)**(1/r) < gamma(best)**(1/best), exact cross comparison
        if pow_compare(gamma[r - 1], best, gamma[best - 1], r) < 0:
            best = r
    return GrowthProfile(tuple(gamma), best, gamma[best - 1])


def power_graph(g: FiniteGraph, r: int) -> FiniteGraph:
    """Graph with an edge wherever 1 <= dist <= r in g."""
    if r < 1:
        raise InvalidParameterError("r must be >= 1")
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for lo in range(0, g.n, _BLOCK_BITS):
        for masks in _grown_masks(g, lo, r):
            pass  # keep the last round: radius r, or an earlier saturation
        for v, mask in enumerate(masks):
            if lo <= v < lo + _BLOCK_BITS:
                mask ^= 1 << (v - lo)
            nbrs = adj[v]
            while mask:
                low = mask & -mask
                nbrs.append(lo + low.bit_length() - 1)
                mask ^= low
    return FiniteGraph(g.n, tuple(map(tuple, adj)))


def greedy_proper_coloring(neighbors) -> list[int]:
    """Smallest-available-color greedy in id order; uses <= maxdeg+1 colors.

    `neighbors` yields each vertex's neighbours in id order, as
    `g.adjacency` does for a graph g. Only the ids below a vertex are
    read, so a row may hold the vertex itself or later ids, and may be
    built as it is read.
    """
    colors: list[int] = []
    for v, nbrs in enumerate(neighbors):
        taken = {colors[u] for u in nbrs if u < v}
        c = 0
        while c in taken:
            c += 1
        colors.append(c)
    return colors


def maximal_independent_set(g: FiniteGraph, order) -> frozenset[int]:
    """Greedy over `order`, in the order given: independent in g and maximal.

    Each vertex is taken unless a neighbour was taken before it, so the
    result is inclusion-maximal among the vertices of `order`. Passing
    `sorted(ids)` gives the greedy-by-id set.
    """
    chosen: set[int] = set()
    for v in order:
        if not 0 <= v < g.n:
            raise InvalidParameterError(f"vertex {v} out of range")
        if chosen.isdisjoint(g.adjacency[v]):
            chosen.add(v)
    return frozenset(chosen)
