from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netctl.edge_control import EdgeControlAnalysis, analyze_edge_control
from netctl.graph import DirectedGraph, to_line_digraph

from .conftest import directed_graphs
from .oracles import edge_control_via_line_digraph, max_matching_size_brute


def fields(a: EdgeControlAnalysis) -> dict:
    """Every field of ``a``, arrays as nested lists, to compare by value."""
    return {key: value.tolist() if isinstance(value, np.ndarray) else value
            for key, value in vars(a).items()}


def edge_set(a: EdgeControlAnalysis) -> set[tuple[int, int]]:
    return {(s, t) for s, t in a.driver_edges.tolist()}


@st.composite
def disjoint_paths_and_cycles(draw, max_nodes: int = 9):
    """Graphs where every node has in- and out-degree at most one,
    together with the number of maximal paths owning at least one edge."""
    n = draw(st.integers(1, max_nodes))
    order = draw(st.permutations(range(n)))
    edges: list[tuple[int, int]] = []
    path_count = 0
    i = 0
    while i < n:
        seg_len = draw(st.integers(1, n - i))
        seg = order[i : i + seg_len]
        close_cycle = seg_len >= 2 and draw(st.booleans())
        edges.extend(zip(seg, seg[1:]))
        if close_cycle:
            edges.append((seg[-1], seg[0]))
        elif seg_len >= 2:
            path_count += 1
        i += seg_len
    return DirectedGraph(n, tuple(sorted(edges))), path_count


def test_star_all_edges_driven_through_hub(star):
    a = analyze_edge_control(star)
    assert a.driver_edges.tolist() == [[0, 1], [0, 2]]
    assert a.m_d == 1.0
    assert a.driver_nodes.tolist() == [0]
    assert a.n_d == pytest.approx(1 / 3)
    assert a.method == "edge-switchboard"


def test_reciprocal_chain_needs_two_sources(reciprocal_chain):
    # exhaustive enumeration over the 4-node edge-space graph shows every
    # maximum matching leaves two edges unmatched, with source set {0, 2}
    a = analyze_edge_control(reciprocal_chain)
    assert len(a.driver_edges) == 2
    assert a.m_d == 0.5
    assert a.driver_nodes.tolist() == [0, 2]
    assert a.n_d == 0.5


def test_edgeless_graph_needs_nothing():
    a = analyze_edge_control(DirectedGraph(5, ()))
    assert a.driver_edges.shape == (0, 2) and a.driver_edges.dtype == np.int64
    assert a.driver_nodes.shape == (0,) and a.driver_nodes.dtype == np.int64
    assert a.m_d == 0.0 and a.n_d == 0.0


def test_cycle_floor_designates_one_canonical_edge(three_cycle):
    a = analyze_edge_control(three_cycle)
    assert a.line_matching_size == 3
    assert a.driver_edges.tolist() == [[0, 1]]
    assert a.driver_nodes.tolist() == [0]
    assert a.m_d == pytest.approx(1 / 3)


def test_isolated_nodes_never_drive():
    g = DirectedGraph(4, ((0, 1),))
    a = analyze_edge_control(g)
    assert a.driver_nodes.tolist() == [0]
    assert not set(a.driver_nodes.tolist()) & {2, 3}
    assert a.n_d == 0.25  # denominator counts all nodes, isolated included


@given(directed_graphs(max_edges=11))
def test_count_formula(g):
    # the brute-force oracle runs on the edge-space graph, whose node
    # count is E: keep E small enough for the bitmask DP
    a = analyze_edge_control(g)
    e = g.edge_count
    ld = to_line_digraph(g)
    lms = max_matching_size_brute(ld.graph)
    assert a.line_matching_size == lms
    if e == 0:
        assert len(a.driver_edges) == 0
    else:
        assert len(a.driver_edges) == max(e - lms, 1)
    assert a.m_d == (len(a.driver_edges) / e if e else 0.0)


@given(directed_graphs())
def test_driver_nodes_are_exactly_the_sources(g):
    a = analyze_edge_control(g)
    assert a.driver_nodes.tolist() == sorted({src for src, _ in edge_set(a)})


@given(directed_graphs())
def test_isolated_edges_in_edge_space_are_drivers(g):
    ld = to_line_digraph(g)
    a = analyze_edge_control(g)
    outs, ins = ld.graph.degree_arrays()
    edges = np.column_stack((g.src, g.dst))
    isolated_edges = set(map(tuple, edges[(outs == 0) & (ins == 0)].tolist()))
    assert isolated_edges <= edge_set(a)


@given(disjoint_paths_and_cycles())
def test_deficiency_counts_path_leading_edges(case):
    g, path_count = case
    a = analyze_edge_control(g)
    assert g.edge_count - a.line_matching_size == path_count


@given(directed_graphs(max_nodes=12, max_edges=40))
def test_matches_line_digraph_matching(g):
    # driver edges, driver nodes, |M|, m_d, n_d and the alternate flag
    a = analyze_edge_control(g)
    assert fields(a) == fields(edge_control_via_line_digraph(g))
    for array in (a.driver_edges, a.driver_nodes):
        assert array.dtype == np.int64 and not array.flags.writeable


def test_alternate_flag_is_exact_above_100_edges():
    hub_in = tuple((i, 0) for i in range(1, 61))
    hub_out = tuple((0, i) for i in range(61, 121))
    g = DirectedGraph(121, tuple(sorted(hub_in + hub_out)))
    assert analyze_edge_control(g).alternate_matchings is True
    chains = tuple((i, i + 1) for i in range(0, 240, 2))
    g = DirectedGraph(241, chains)
    assert analyze_edge_control(g).alternate_matchings is False

