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

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .graph import DirectedGraph

# Unused here; kept as module attributes because bench/tracer.py wraps them by name.
from .graph import to_bipartite, to_line_digraph  # noqa: F401
from .matching import has_alternate_maximum_matching, maximum_matching  # noqa: F401


@dataclass(frozen=True, eq=False)
class EdgeControlAnalysis:
    """Driver edges (fraction m_d of E) and their source nodes (fraction
    n_d of N) for edge dynamics: a read-only (k, 2) int64 array of
    ascending (source, target) rows and a sorted read-only int64 array."""

    driver_edges: np.ndarray
    m_d: float
    driver_nodes: np.ndarray
    n_d: float
    line_matching_size: int
    alternate_matchings: bool
    method: ClassVar[str] = "edge-switchboard"


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
    edgeless graph needs nothing: shapes (0, 2) and (0,), m_d = n_d = 0.
    """
    edge_total = g.edge_count
    outs, ins = g.degree_arrays()
    low = np.minimum(ins, outs)
    alternates = bool(((low >= 1) & (np.maximum(ins, outs) >= 2)).any())
    # rank of each edge among its source's out-edges, by ascending target
    rank = np.arange(edge_total) - g.indptr[g.src]
    surplus = rank >= ins[g.src]
    if edge_total and not surplus.any():
        surplus[0] = True  # the floor case
    driver_edges = np.column_stack((g.src[surplus], g.dst[surplus]))
    driver_nodes = np.flatnonzero(np.bincount(driver_edges[:, 0], minlength=g.node_count))
    driver_edges.flags.writeable = False
    driver_nodes.flags.writeable = False
    # each numerator is 0 when its denominator is
    return EdgeControlAnalysis(
        driver_edges=driver_edges,
        m_d=len(driver_edges) / max(edge_total, 1),
        driver_nodes=driver_nodes,
        n_d=driver_nodes.size / max(g.node_count, 1),
        line_matching_size=int(low.sum()),
        alternate_matchings=alternates,
    )

