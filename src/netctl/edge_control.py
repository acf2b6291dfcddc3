"""Edge (switchboard) controllability by degree arithmetic.

Driver edges are the unmatched in-copies of a maximum matching on the
bipartite split of the line digraph (edge space). Edge e = (u -> v) is a
left node only in v's block and a right node only in u's block, so that
graph is a disjoint union of complete blocks K(k_in(v), k_out(v)) and
every quantity has a closed form in node degrees; no edge-space graph is
built. This is the divergent-node result of Nepusz & Vicsek,
"Controlling edge dynamics in complex networks", Nature Physics 8, 568
(2012).

Controlling an edge is delegated to its source node, so the edge-control
driver nodes are the driver-edge sources: the divergent nodes
(k_out > k_in), or in the floor case the source of the smallest edge.
Both fractions are reported: m_d over edges (what is actually
controlled) and n_d over nodes (what injects the signals). Isolated
nodes do not exist in edge space and are never drivers here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolationError
from .graph import DirectedGraph, Edge

# Unused here; kept as module attributes because bench/tracer.py wraps them by name.
from .graph import to_bipartite, to_line_digraph  # noqa: F401
from .matching import has_alternate_maximum_matching, maximum_matching  # noqa: F401


@dataclass(frozen=True)
class EdgeControlAnalysis:
    """Driver edges (fraction m_d of E) and their source nodes (fraction
    n_d of N) for edge dynamics."""

    driver_edges: frozenset[Edge]
    m_d: float
    driver_nodes: frozenset[int]
    n_d: float
    line_matching_size: int
    alternate_matchings: bool | None
    method: str = field(default="edge-switchboard")


def analyze_edge_control(g: DirectedGraph) -> EdgeControlAnalysis:
    """Driver edges and driver nodes for controllability of edge states.

    One O(N + E) vectorised pass over the degree and edge arrays:

    - line_matching_size = sum over v of min(k_in(v), k_out(v)).
    - Driver edges are the last k_out - k_in out-edges, by ascending
      target, of each node with k_out > k_in: the in-copies the canonical
      Hopcroft-Karp matching leaves unmatched, since its first phase gives
      each in-edge of v the smallest free out-edge of v.
    - Floor case: when k_in = k_out everywhere, edge space is perfectly
      matched and the one driver edge is the lexicographically smallest.
    - alternate_matchings is exact: a block K(a, b) has a second maximum
      matching iff min(a, b) >= 1 and max(a, b) >= 2.

    So |driver_edges| = max(E - line_matching_size, 1) for E >= 1. An
    edgeless graph needs nothing: all sets empty, m_d = n_d = 0.
    """
    edge_total = g.edge_count
    if edge_total == 0:
        return EdgeControlAnalysis(
            driver_edges=frozenset(),
            m_d=0.0,
            driver_nodes=frozenset(),
            n_d=0.0,
            line_matching_size=0,
            alternate_matchings=False,
        )
    outs, ins = g.degree_arrays()
    low = np.minimum(ins, outs)
    alternates = bool(((low >= 1) & (np.maximum(ins, outs) >= 2)).any())
    # rank of each edge among its source's out-edges, by ascending target
    rank = np.arange(edge_total) - g.indptr[g.src]
    surplus = rank >= ins[g.src]
    driver_edges = list(zip(g.src[surplus].tolist(), g.dst[surplus].tolist()))
    if not driver_edges:
        driver_edges.append((int(g.src[0]), int(g.dst[0])))
    driver_nodes = frozenset(src for src, _ in driver_edges)
    return EdgeControlAnalysis(
        driver_edges=frozenset(driver_edges),
        m_d=len(driver_edges) / edge_total,
        driver_nodes=driver_nodes,
        n_d=len(driver_nodes) / g.node_count,
        line_matching_size=int(low.sum()),
        alternate_matchings=alternates,
    )


def driver_edge_report(a: EdgeControlAnalysis, g: DirectedGraph) -> dict:
    """Report record pairing (n_d, m_d) with explicit method labels.

    Every fraction is emitted next to a "controlled" tag so edge-control
    numbers are never mistaken for node-control ones. Raises
    ContractViolationError when ``a`` was not produced from ``g``.
    """
    edge_set = set(g.edges)
    if not set(a.driver_edges) <= edge_set:
        raise ContractViolationError("driver edges are not edges of the graph")
    e = g.edge_count
    if e == 0:
        if a.driver_edges or a.driver_nodes or a.m_d or a.n_d:
            raise ContractViolationError("nonempty analysis for an edgeless graph")
    else:
        if len(a.driver_edges) != max(e - a.line_matching_size, 1):
            raise ContractViolationError("driver-edge count inconsistent with matching")
        if a.m_d != len(a.driver_edges) / e:
            raise ContractViolationError("m_d inconsistent with driver edges")
        if a.driver_nodes != frozenset(src for src, _ in a.driver_edges):
            raise ContractViolationError("driver nodes are not the driver-edge sources")
        if a.n_d != len(a.driver_nodes) / g.node_count:
            raise ContractViolationError("n_d inconsistent with driver nodes")
    return {
        "method": a.method,
        "controlled": "edges",
        "n_d": a.n_d,
        "m_d": a.m_d,
        "driver_nodes": sorted(a.driver_nodes),
        "driver_edges": sorted(a.driver_edges),
        "driver_edge_count": len(a.driver_edges),
        "line_matching_size": a.line_matching_size,
        "alternate_matchings": a.alternate_matchings,
    }
