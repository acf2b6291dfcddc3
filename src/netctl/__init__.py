"""Driver-node and driver-edge analysis of directed networks.

Two matching-based solvers (node dynamics and edge dynamics) plus a
numerical Kalman-rank oracle, seeded graph generators, and a CLI.
"""

__version__ = "0.1.0"

from .edge_control import EdgeControlAnalysis, analyze_edge_control
from .errors import (
    ContractViolationError,
    EdgeListParseError,
    EmptyGraphError,
    GenerationStallError,
    IllConditionedError,
    InfeasibleSpecError,
    NetctlError,
    SelfLoopError,
    SizeLimitError,
    UncontrollableError,
)
from .generators import (
    GeneratorSpec,
    SplitMix64,
    derive_seed,
    generate,
    generate_er,
    generate_sf,
)
from .graph import (
    BipartiteGraph,
    DirectedGraph,
    GraphStats,
    LineDigraph,
    ParsedEdgeList,
    compute_stats,
    parse_edge_list,
    parse_edge_list_report,
    serialize_edge_list,
    to_bipartite,
    to_line_digraph,
)
from .kalman import (
    LtiSystem,
    RankVerdict,
    SteerResult,
    brute_force_min_drivers,
    controllability_gramian,
    controllability_matrix,
    matrix_rank,
    simulate,
    steer,
    structural_rank_test,
    system_from_graph,
)
from .matching import (
    MatchingResult,
    has_alternate_maximum_matching,
    maximum_matching,
    verify_maximality,
)
from .node_control import NodeControlAnalysis, analyze_node_control

__all__ = [
    "BipartiteGraph",
    "ContractViolationError",
    "DirectedGraph",
    "EdgeControlAnalysis",
    "EdgeListParseError",
    "EmptyGraphError",
    "GenerationStallError",
    "GeneratorSpec",
    "GraphStats",
    "IllConditionedError",
    "InfeasibleSpecError",
    "LineDigraph",
    "LtiSystem",
    "MatchingResult",
    "NetctlError",
    "NodeControlAnalysis",
    "ParsedEdgeList",
    "RankVerdict",
    "SelfLoopError",
    "SizeLimitError",
    "SplitMix64",
    "SteerResult",
    "UncontrollableError",
    "analyze_edge_control",
    "analyze_node_control",
    "brute_force_min_drivers",
    "compute_stats",
    "controllability_gramian",
    "controllability_matrix",
    "derive_seed",
    "generate",
    "generate_er",
    "generate_sf",
    "has_alternate_maximum_matching",
    "matrix_rank",
    "maximum_matching",
    "parse_edge_list",
    "parse_edge_list_report",
    "serialize_edge_list",
    "simulate",
    "steer",
    "structural_rank_test",
    "system_from_graph",
    "to_bipartite",
    "to_line_digraph",
    "verify_maximality",
]
