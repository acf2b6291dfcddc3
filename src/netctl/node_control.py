"""Structural node controllability via the minimum input theorem.

Driver nodes are the unmatched in-copies of a maximum matching on the
plus/minus bipartite split, read straight from the digraph's arrays
(left node i is the out-copy, right node i the in-copy of node i). A
perfectly matched graph still needs one input, so the driver count has
a floor of one; the canonical choice is node 0. Note that this floor (and the unmatched-node rule itself) is the
standard matching-based count: it assumes the driver set can reach the
whole graph, which fails for graphs with perfectly matched components
that no driver can reach (see the oracle module for the numerical test).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import EmptyGraphError
from .graph import DirectedGraph
from .matching import has_alternate_maximum_matching, maximum_matching

# Unused here; kept as a module attribute because bench/tracer.py wraps it by name.
from .graph import to_bipartite  # noqa: F401

#: Above this node count the alternate-matching search is skipped and the
#: flag reported as None ("unchecked").
ALTERNATE_CHECK_LIMIT = 100


@dataclass(frozen=True)
class NodeControlAnalysis:
    """Driver set for node dynamics plus the fraction n_d = |drivers|/N.

    ``alternate_matchings`` is True/False when the graph is small enough
    to search for a second maximum matching, None when unchecked. The
    reported driver set is the one induced by the canonical matching;
    when alternates exist it is *a* valid minimum set, not the only one.
    """

    driver_nodes: frozenset[int]
    n_d: float
    matching_size: int
    alternate_matchings: bool | None
    method: str = field(default="node-structural")


def analyze_node_control(g: DirectedGraph) -> NodeControlAnalysis:
    """Minimum driver-node set for structural controllability of node
    dynamics.

    Drivers are the unmatched in-copies of the canonical maximum
    matching, so |drivers| = max(N - |M|, 1): a perfect matching falls
    back to the canonical driver {0}. Isolated nodes are always unmatched
    and therefore always drivers.
    """
    if g.node_count == 0:
        raise EmptyGraphError("node control is undefined on an empty graph")
    m = maximum_matching(g)
    drivers = set(m.unmatched_right) or {0}
    alternates: bool | None = None
    if g.node_count <= ALTERNATE_CHECK_LIMIT:
        alternates = has_alternate_maximum_matching(g, m)
    return NodeControlAnalysis(
        driver_nodes=frozenset(drivers),
        n_d=len(drivers) / g.node_count,
        matching_size=m.size,
        alternate_matchings=alternates,
    )
