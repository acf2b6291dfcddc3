"""Structural node controllability via the minimum input theorem.

Driver nodes are the unmatched in-copies of a maximum matching on the
plus/minus bipartite split, read straight from the digraph's arrays
(left node i is the out-copy, right node i the in-copy of node i). A
perfectly matched graph still needs one input, so the driver count has
a floor of one; the canonical choice is node 0. Note that this floor
(and the unmatched-node rule itself) is the standard matching-based
count: it assumes the driver set can reach the whole graph, which fails
for graphs with perfectly matched components that no driver can reach
(see the oracle module for the numerical test).

Maximum matchings are rarely unique, so the analysis also says whether
another one exists: an exact boolean at every size, from one linear
pass over the canonical matching, run the first time it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar

import numpy as np

from .errors import EmptyGraphError
from .graph import DirectedGraph
from .matching import MatchingResult, has_alternate_maximum_matching, maximum_matching

# Unused here; kept as a module attribute because bench/tracer.py wraps it by name.
from .graph import to_bipartite  # noqa: F401


@dataclass(frozen=True, eq=False)
class NodeControlAnalysis:
    """Driver set for node dynamics plus the fraction n_d = |drivers|/N.

    ``driver_nodes`` is a sorted, read-only int64 array of dense node ids;
    ``matching`` is the canonical maximum matching of ``graph`` it comes
    from. ``alternate_matchings`` says, exactly and at every size, whether
    a second maximum matching exists. The reported driver set is the one
    induced by the canonical matching; when alternates exist it is *a*
    valid minimum set, not the only one.
    """

    driver_nodes: np.ndarray
    n_d: float
    graph: DirectedGraph = field(repr=False)
    matching: MatchingResult = field(repr=False)
    method: ClassVar[str] = "node-structural"

    @property
    def matching_size(self) -> int:
        return self.matching.size

    @cached_property
    def alternate_matchings(self) -> bool:
        """Computed on first read, since the sweep never reads it."""
        return has_alternate_maximum_matching(self.graph, self.matching)


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
    drivers = np.flatnonzero(m.match_right == -1)
    if not drivers.size:
        drivers = np.zeros(1, dtype=np.int64)
    drivers.flags.writeable = False
    return NodeControlAnalysis(
        driver_nodes=drivers,
        n_d=drivers.size / g.node_count,
        graph=g,
        matching=m,
    )
