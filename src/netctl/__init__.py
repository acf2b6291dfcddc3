"""Driver-node and driver-edge analysis of directed networks.

Two matching-based solvers (node dynamics and edge dynamics) plus a
numerical Kalman-rank oracle, seeded graph generators, and a CLI.

``import netctl`` loads no submodule, and so no numpy: each name below
is imported from its submodule on first use (PEP 562), so the CLI can
set its BLAS thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it exports
_EXPORTS = {
    "edge_control": ["EdgeControlAnalysis", "analyze_edge_control"],
    "errors": [
        "ContractViolationError", "EdgeListParseError", "EmptyGraphError",
        "GenerationStallError", "IllConditionedError", "InfeasibleSpecError",
        "NetctlError", "SelfLoopError", "SizeLimitError", "UncontrollableError",
    ],
    "generators": [
        "GeneratorSpec", "SplitMix64", "derive_seed", "generate", "generate_er",
        "generate_sf",
    ],
    "graph": [
        "DirectedGraph", "GraphStats", "LineDigraph", "ParsedEdgeList",
        "compute_stats", "parse_edge_list", "parse_edge_list_report",
        "serialize_edge_list", "to_line_digraph",
    ],
    "kalman": [
        "LtiSystem", "RankVerdict", "SteerResult", "brute_force_min_drivers",
        "controllability_gramian", "controllability_matrix", "matrix_rank",
        "simulate", "steer", "structural_rank_test", "system_from_graph",
    ],
    "matching": ["MatchingResult", "has_alternate_maximum_matching", "maximum_matching"],
    "node_control": ["NodeControlAnalysis", "analyze_node_control"],
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
