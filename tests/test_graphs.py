import json
import random

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from conftest import (
    ball,
    ball_per_radius_sizes,
    dump_graph_json,
    full_loop_growth_profile,
)
from llltool import graphs
from llltool.errors import InvalidInputError, InvalidParameterError
from llltool.graphs import (
    FiniteGraph,
    bfs_distances,
    graph_from_edges,
    greedy_proper_coloring,
    growth_profile,
    load_graph_json,
    load_graph_text,
    max_ball_sizes,
    maximal_independent_set,
    power_graph,
)


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def small_graphs(draw_edges=st.sets(st.tuples(st.integers(0, 6), st.integers(0, 6)))):
    return st.builds(
        lambda pairs: graph_from_edges(
            7, [(u, v) for u, v in pairs if u != v]
        ),
        draw_edges,
    )


def test_rejects_asymmetric_adjacency():
    with pytest.raises(InvalidInputError):
        FiniteGraph(2, ((1,), ()))


def test_rejects_one_missing_back_edge_among_many():
    # K_60 with the arc 40 -> 7 dropped: the scan reports the first arc
    # whose reverse is missing, 7 -> 40, and nothing earlier.
    n = 60
    adjacency = [tuple(u for u in range(n) if u != v) for v in range(n)]
    adjacency[40] = tuple(u for u in adjacency[40] if u != 7)
    with pytest.raises(InvalidInputError, match=r"^edge 7->40 not symmetric$"):
        FiniteGraph(n, tuple(adjacency))
    adjacency[40] = tuple(sorted(adjacency[40] + (7,)))
    assert FiniteGraph(n, tuple(adjacency)).max_degree() == n - 1


def test_rejects_self_loop():
    with pytest.raises(InvalidInputError):
        graph_from_edges(3, [(1, 1)])


def test_rejects_out_of_range_edge():
    with pytest.raises(InvalidInputError):
        graph_from_edges(2, [(0, 5)])


def test_graph_json_round_trip():
    g = cycle(6)
    again = load_graph_json(json.dumps(dump_graph_json(g)))
    assert again == g


def test_graph_text_parsing_skips_comments():
    g = load_graph_text("# triangle\n0 1\n1 2\n\n0 2\n")
    assert g.n == 3
    assert g.edges() == [(0, 1), (0, 2), (1, 2)]


def test_graph_text_rejects_bad_line():
    with pytest.raises(InvalidInputError):
        load_graph_text("0 1 2")


def test_bfs_distances_on_path():
    g = path(5)
    assert bfs_distances(g, 0) == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    assert bfs_distances(g, 0, limit=2) == {0: 0, 1: 1, 2: 2}


def test_ball_sizes_on_cycle():
    g = cycle(9)
    assert len(ball(g, 0, 0)) == 1
    for r in range(1, 4):
        assert len(ball(g, 0, r)) == 2 * r + 1
    assert len(ball(g, 0, 5)) == 9  # wraps around


def test_growth_profile_cycle9():
    prof = growth_profile(cycle(9), 4)
    assert prof.gamma == (3, 5, 7, 9)
    assert prof.gamma_at(2) == 5
    with pytest.raises(InvalidParameterError):
        prof.gamma_at(5)


def tree_ball(degree, depth):
    """The ball of the given depth around a vertex of the regular tree."""
    edges, frontier, n = [], [0], 1
    for level in range(depth):
        nxt = []
        for v in frontier:
            for _ in range(degree if level == 0 else degree - 1):
                edges.append((v, n))
                nxt.append(n)
                n += 1
        frontier = nxt
    return graph_from_edges(n, edges)


def test_one_bfs_profile_matches_a_ball_per_radius():
    rng = random.Random(11)
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i)])
    graphs = [path(1), path(12), cycle(9), cycle(10), k4, tree_ball(3, 4),
              graph_from_edges(0, [])]
    for _ in range(20):
        n = rng.randint(1, 14)
        graphs.append(graph_from_edges(n, [
            (u, v) for u in range(n) for v in range(u) if rng.random() < 0.2
        ]))
    for g in graphs:
        sizes = ball_per_radius_sizes(g, 8)
        assert max_ball_sizes(g, 8) == sizes
        assert max_ball_sizes(g, 0) == sizes[:1]
        assert growth_profile(g, 8).gamma == tuple(sizes[1:])
    assert max_ball_sizes(tree_ball(3, 4), 8) == \
        [1, 4, 10, 22, 46, 46, 46, 46, 46]
    with pytest.raises(InvalidParameterError):
        max_ball_sizes(cycle(3), -1)


def random_graphs(rng, count, top):
    """Random graphs with up to `top` vertices: some edgeless, many
    disconnected, with isolated vertices."""
    graphs = [graph_from_edges(0, []), graph_from_edges(5, [])]
    for _ in range(count):
        n = rng.randint(1, top)
        density = rng.choice([0.0, 0.05, 0.15, 0.4])
        graphs.append(graph_from_edges(n, [
            (u, v) for u in range(n) for v in range(u) if rng.random() < density
        ]))
    return graphs


def test_ball_kernel_matches_a_ball_per_radius_past_saturation():
    rng = random.Random(16)
    for g in random_graphs(rng, 60, 18):
        # r_max runs past every diameter, so each profile ends flat
        r_max = g.n + 2
        sizes = ball_per_radius_sizes(g, r_max)
        assert max_ball_sizes(g, r_max) == sizes
        for r in range(r_max + 1):
            assert max_ball_sizes(g, r) == sizes[:r + 1]
        assert sizes[-1] == max(
            (len(bfs_distances(g, v)) for v in range(g.n)), default=0
        )


def power_row(g, v, r):
    """The neighbours of v in the r-th power of g, by its definition."""
    return tuple(sorted(ball(g, v, r) - {v}))


def test_power_graph_matches_the_ball_definition():
    rng = random.Random(61)
    for g in random_graphs(rng, 40, 16) + [path(12), cycle(11), tree_ball(3, 3)]:
        for r in range(1, 5):
            expected = tuple(power_row(g, v, r) for v in range(g.n))
            assert power_graph(g, r).adjacency == expected


def test_ball_kernel_spans_blocks_of_targets():
    # 4,200 vertices take two blocks of targets; balls around 0 and 4,096
    # straddle the block boundary
    ring = cycle(4200)
    assert max_ball_sizes(ring, 3) == [1, 3, 5, 7]
    assert growth_profile(ring, 3).gamma == (3, 5, 7)
    square = power_graph(ring, 2)
    for v in (0, 1, 4094, 4095, 4096, 4097, 4199):
        assert square.adjacency[v] == power_row(ring, v, 2)
    assert {len(nbrs) for nbrs in square.adjacency} == {4}
    # 1,024 four-cliques fill the first block, one of them tied to the
    # edge 4096-4097, so that block stops changing at radius 3; a path on
    # 4098..4199 keeps the second block growing to radius 6. Reversing the
    # ids swaps which block stops first.
    edges = [(4 * k + i, 4 * k + j) for k in range(1024)
             for i in range(4) for j in range(i)]
    edges += [(0, 4096), (4096, 4097)] + [(v, v + 1) for v in range(4098, 4199)]
    for g in (graph_from_edges(4200, edges),
              graph_from_edges(4200, [(4199 - u, 4199 - v) for u, v in edges])):
        assert max_ball_sizes(g, 6) == ball_per_radius_sizes(g, 6)
        square = power_graph(g, 2)
        for v in (0, 1, 102, 103, 4096, 4097, 4098, 4199):
            assert square.adjacency[v] == power_row(g, v, 2)


def test_depth_ten_tree_ball_grows_exponentially():
    g = tree_ball(3, 10)
    assert g.n == 3070
    gamma = growth_profile(g, 20).gamma
    assert gamma[:10] == tuple(3 * 2**r - 2 for r in range(1, 11))
    assert gamma[9:] == (3070,) * 11


def test_growth_proxy_matches_the_full_loop_past_saturation():
    rng = random.Random(41)
    for g in random_graphs(rng, 40, 14) + [path(12), cycle(11), tree_ball(3, 3)]:
        # r_max runs past every diameter, so each profile ends flat
        assert growth_profile(g, g.n + 5) == full_loop_growth_profile(g, g.n + 5)


def test_growth_proxy_compares_a_flat_profile_once(monkeypatch):
    calls, pow_compare = [], graphs.pow_compare
    monkeypatch.setattr(
        graphs, "pow_compare", lambda *args: calls.append(args) or pow_compare(*args)
    )
    # The triangle's balls are whole from radius 1 on: 3**(1/r) falls.
    prof = growth_profile(cycle(3), 2000)
    assert (prof.proxy_radius, prof.proxy_gamma) == (2000, 3)
    assert len(calls) <= 2


def test_growth_proxy_takes_exact_argmin():
    # On a long path every gamma(r) = 2r+1 and 9^(1/4) is the smallest root.
    prof = growth_profile(path(30), 4)
    assert prof.gamma == (3, 5, 7, 9)
    assert prof.proxy_radius == 4
    # constant gamma: 4^(1/r) keeps shrinking, so the largest radius wins
    k4 = graph_from_edges(4, [(i, j) for i in range(4) for j in range(i)])
    assert growth_profile(k4, 3).proxy_radius == 3


def test_growth_proxy_certified_comparison():
    prof = growth_profile(cycle(9), 4)
    # proxy value is 9**(1/4) ~ 1.732
    assert prof.proxy_less_than(Fraction(7, 4))
    assert not prof.proxy_less_than(Fraction(17, 10))


def test_power_graph_of_path():
    g2 = power_graph(path(5), 2)
    assert g2.adjacency[0] == (1, 2)
    assert g2.adjacency[2] == (0, 1, 3, 4)


def test_power_graph_one_is_identity():
    g = cycle(7)
    assert power_graph(g, 1) == g


@settings(max_examples=60)
@given(small_graphs())
def test_greedy_coloring_is_proper_and_small(g):
    colors = greedy_proper_coloring(g.adjacency)
    for u, v in g.edges():
        assert colors[u] != colors[v]
    assert max(colors, default=-1) <= g.max_degree()


@settings(max_examples=60)
@given(small_graphs(), st.sets(st.integers(0, 6)))
def test_maximal_independent_set_properties(g, eligible):
    s = maximal_independent_set(g, eligible)
    assert s <= eligible
    for v in s:
        assert not any(u in s for u in g.adjacency[v])
    # maximal: everything left out has a chosen neighbor
    for v in eligible - s:
        assert any(u in s for u in g.adjacency[v])


def test_maximal_independent_set_deterministic():
    g = cycle(6)
    runs = {maximal_independent_set(g, range(6)) for _ in range(5)}
    assert len(runs) == 1
    assert runs.pop() == frozenset({0, 2, 4})


def test_maximal_independent_set_is_greedy_in_the_given_order():
    assert maximal_independent_set(path(3), [1, 0, 2]) == frozenset({1})
    assert maximal_independent_set(path(3), [0, 1, 2]) == frozenset({0, 2})


def test_maximal_independent_set_range_check():
    with pytest.raises(InvalidParameterError):
        maximal_independent_set(cycle(3), [7])


def test_bfs_vertex_range_check():
    with pytest.raises(InvalidParameterError):
        bfs_distances(cycle(3), 3)
