from fractions import Fraction

import pytest

from conftest import orientation_of
from llltool.csp import build_dependency_graph, is_solution, prob_bad
from llltool.errors import InvalidInputError
from llltool.generators import (
    Hypergraph,
    hypergraph_2coloring,
    hypergraph_from_obj,
    proper_coloring,
    sinkless_orientation,
)
from llltool.graphs import graph_from_edges


def cycle(n):
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_proper_coloring_bad_mass():
    csp = proper_coloring(cycle(4), 3)
    assert len(csp.constraints) == 4
    for c in csp.constraints:
        assert prob_bad(csp, c.id) == Fraction(1, 3)


def test_proper_coloring_dependency_is_line_graph():
    csp = proper_coloring(cycle(3), 2)
    dep = build_dependency_graph(csp)
    # triangle's line graph is again a triangle
    assert all(dep.degree(v) == 2 for v in range(3))


def test_proper_coloring_solution_check():
    csp = proper_coloring(cycle(4), 2)
    assert is_solution(csp, {0: 0, 1: 1, 2: 0, 3: 1})
    assert not is_solution(csp, {0: 0, 1: 0, 2: 1, 3: 1})


def test_sinkless_orientation_single_bad_row():
    g = cycle(5)
    csp = sinkless_orientation(g)
    assert len(csp.variables) == 5   # one per edge
    assert len(csp.constraints) == 5  # one per vertex
    for c in csp.constraints:
        assert len(c.bad) == 1
        assert prob_bad(csp, c.id) == Fraction(1, 4)


def test_sinkless_orientation_dependency_matches_input_graph():
    g = cycle(6)
    dep = build_dependency_graph(sinkless_orientation(g))
    assert dep == g


def test_sinkless_orientation_rejects_isolated_vertex():
    g = graph_from_edges(3, [(0, 1)])
    with pytest.raises(InvalidInputError):
        sinkless_orientation(g)


def test_orientation_decoder_finds_no_sink():
    g = cycle(4)
    csp = sinkless_orientation(g)
    # edges sort as (0,1),(0,3),(1,2),(2,3); flipping (0,3) makes the
    # orientation cyclic, so every vertex keeps an outgoing edge
    labeling = {0: 0, 1: 1, 2: 0, 3: 0}
    assert is_solution(csp, labeling)
    directed = orientation_of(labeling, g.edges())
    heads = {h for _, h in directed}
    tails = {t for t, _ in directed}
    assert tails == set(range(4))  # nobody is a sink
    assert heads == set(range(4))


def test_hypergraph_validation():
    with pytest.raises(InvalidInputError):
        Hypergraph(3, ((2, 1),))
    with pytest.raises(InvalidInputError):
        Hypergraph(2, ((0, 5),))


def test_hypergraph_2coloring_mass():
    h = Hypergraph(12, (tuple(range(6)), tuple(range(6, 12))))
    csp = hypergraph_2coloring(h)
    for c in csp.constraints:
        assert prob_bad(csp, c.id) == Fraction(1, 32)  # 2^(1-6)


def test_hypergraph_from_obj_sorts_edges():
    h = hypergraph_from_obj({"n": 4, "edges": [[3, 1, 2]]})
    assert h.edges == ((1, 2, 3),)

