"""Finite undirected graphs: balls, growth profiles, powers, greedy routines.

Vertices are dense ids 0..n-1. All procedures are deterministic; greedy
routines scan vertices in id order so reruns are bit-identical.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, InvalidParameterError
from .exact import pow_compare


@dataclass(frozen=True)
class FiniteGraph:
    n: int
    adjacency: tuple[tuple[int, ...], ...]  # sorted, no loops, no duplicates

    def __post_init__(self):
        if self.n < 0 or len(self.adjacency) != self.n:
            raise InvalidInputError("adjacency length must equal vertex count")
        for v, nbrs in enumerate(self.adjacency):
            if list(nbrs) != sorted(set(nbrs)):
                raise InvalidInputError(f"neighbor list of {v} not sorted/unique")
            for u in nbrs:
                if not 0 <= u < self.n:
                    raise InvalidInputError(f"vertex {u} out of range")
                if u == v:
                    raise InvalidInputError(f"self-loop at {v}")
                if v not in self.adjacency[u]:
                    raise InvalidInputError(f"edge {v}->{u} not symmetric")

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def edges(self) -> list[tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in self.adjacency[v] if v < u]


def graph_from_edges(n: int, edges) -> FiniteGraph:
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for e in edges:
        u, v = int(e[0]), int(e[1])
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
        return graph_from_edges(int(obj["n"]), obj.get("edges", []))
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
        parts = line.split()
        if len(parts) != 2:
            raise InvalidInputError(f"bad edge line: {line!r}")
        u, v = int(parts[0]), int(parts[1])
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


def ball(g: FiniteGraph, v: int, radius: int) -> frozenset[int]:
    """All vertices reachable from v along at most `radius` edges (v included)."""
    if radius < 0:
        raise InvalidParameterError("radius must be >= 0")
    return frozenset(bfs_distances(g, v, limit=radius))


@dataclass(frozen=True)
class GrowthProfile:
    gamma: tuple[int, ...]  # gamma[i] is the max ball size at radius i+1
    proxy_radius: int  # argmin of gamma(r)**(1/r), smallest on ties
    proxy_gamma: int

    def gamma_at(self, r: int) -> int:
        if r < 1 or r > len(self.gamma):
            raise InvalidParameterError(f"radius {r} outside profile")
        return self.gamma[r - 1]

    def proxy_float(self) -> float:
        return self.proxy_gamma ** (1.0 / self.proxy_radius)

    def proxy_less_than(self, x: Fraction) -> bool:
        """Certified test gamma(r*)**(1/r*) < x."""
        return self.proxy_gamma < x**self.proxy_radius

    def to_json(self) -> dict:
        return {
            "gamma": {str(r + 1): g for r, g in enumerate(self.gamma)},
            "proxy": {
                "radius": self.proxy_radius,
                "gamma": self.proxy_gamma,
                "value_float": self.proxy_float(),
            },
        }


def max_ball_sizes(g: FiniteGraph, r_max: int) -> list[int]:
    """Largest ball size at each radius 0..r_max (all 0 on empty graphs).

    One BFS per vertex, cut at r_max, counts the vertices at each
    distance; prefix sums of those counts are that vertex's ball sizes.
    """
    if r_max < 0:
        raise InvalidParameterError("radius must be >= 0")
    best = [0] * (r_max + 1)
    for v in range(g.n):
        at_distance = [0] * (r_max + 1)
        for d in bfs_distances(g, v, r_max).values():
            at_distance[d] += 1
        size = 0
        for r, count in enumerate(at_distance):
            size += count
            if size > best[r]:
                best[r] = size
    return best


def growth_profile(g: FiniteGraph, r_max: int) -> GrowthProfile:
    """Max ball sizes for radii 1..r_max and the min_r gamma(r)**(1/r) proxy."""
    if r_max < 1:
        raise InvalidParameterError("r_max must be >= 1")
    gamma = max_ball_sizes(g, r_max)[1:]
    best = 1
    for r in range(2, r_max + 1):
        # gamma(r)**(1/r) < gamma(best)**(1/best), exact cross comparison
        if pow_compare(gamma[r - 1], best, gamma[best - 1], r) < 0:
            best = r
    return GrowthProfile(tuple(gamma), best, gamma[best - 1])


def power_graph(g: FiniteGraph, r: int) -> FiniteGraph:
    """Graph with an edge wherever 1 <= dist <= r in g."""
    if r < 1:
        raise InvalidParameterError("r must be >= 1")
    adj = []
    for v in range(g.n):
        reach = sorted(u for u in ball(g, v, r) if u != v)
        adj.append(tuple(reach))
    return FiniteGraph(g.n, tuple(adj))


def greedy_proper_coloring(g: FiniteGraph) -> list[int]:
    """Smallest-available-color greedy in id order; uses <= maxdeg+1 colors."""
    colors: list[int] = [-1] * g.n
    for v in range(g.n):
        taken = {colors[u] for u in g.adjacency[v] if colors[u] >= 0}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def maximal_independent_set(g: FiniteGraph, eligible) -> frozenset[int]:
    """Greedy by id within `eligible`: independent in g and inclusion-maximal."""
    eligible = set(eligible)
    for v in eligible:
        if not 0 <= v < g.n:
            raise InvalidParameterError(f"vertex {v} out of range")
    chosen: set[int] = set()
    for v in sorted(eligible):
        if all(u not in chosen for u in g.adjacency[v]):
            chosen.add(v)
    return frozenset(chosen)
