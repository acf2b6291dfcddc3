from __future__ import annotations

import sys

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from netctl.graph import DirectedGraph

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

#: for the cases that need an id over Python's int-string digit limit
needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="Python before 3.10.7 has no int-string digit limit",
)


@st.composite
def directed_graphs(
    draw, min_nodes: int = 1, max_nodes: int = 8, max_edges: int | None = None
):
    n = draw(st.integers(min_nodes, max_nodes))
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    if pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=max_edges))
    else:
        edges = set()
    return DirectedGraph(n, tuple(sorted(edges)))


@st.composite
def bipartite_graphs(draw, max_left: int = 12, max_right: int = 12):
    """A bipartite graph on L left and R right nodes, as the matching
    functions take it: the digraph on L + R nodes with an edge u -> L + v
    for each pair (u, v)."""
    left = draw(st.integers(0, max_left))
    right = draw(st.integers(0, max_right))
    pairs = [(l, left + r) for l in range(left) for r in range(right)]
    edges = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return DirectedGraph(left + right, tuple(sorted(edges)))


@pytest.fixture
def star() -> DirectedGraph:
    """Hub 0 feeding leaves 1 and 2."""
    return DirectedGraph(3, ((0, 1), (0, 2)))


@pytest.fixture
def reciprocal_chain() -> DirectedGraph:
    """Chain 0 -> 1 -> 2 -> 3 with the middle pair reciprocated."""
    return DirectedGraph(4, ((0, 1), (1, 2), (2, 1), (2, 3)))


@pytest.fixture
def three_cycle() -> DirectedGraph:
    return DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
