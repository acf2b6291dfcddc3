"""Run one netctl CLI command in-process with spans around its layers.

Usage: python tracer.py SRC_DIR SPANS_JSON -- CLI_ARGS...

Wrappers replace functions at the module attribute where each caller
looks them up (``netctl.node_control.maximum_matching`` is the node
matching, ``netctl.edge_control.maximum_matching`` the edge-space one),
so the program itself is unchanged. Spans are kept in memory and
written to SPANS_JSON when the command ends: a list of
[name, start, end, parent index], counts taken at the same boundaries,
and the in-process wall time from the tracer's first line.
"""

import time

T0 = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.stack.pop()
        self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if count is not None:
                self.counts.update(count(result))
            return result
        return traced

    def tally(self, key, fn):
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return counted


def _graph_counts(parsed):
    return {"graph.nodes": parsed.graph.node_count, "graph.edges": parsed.graph.edge_count}


def _line_counts(ld):
    return {"graph.line_edges": ld.graph.edge_count}


def _rank_counts(verdict):
    return {"kalman.rank_tests": 1, "kalman.samples_used": verdict.samples_used}


#: (module, attribute, span name, counts taken from the return value).
SPANS = [
    ("netctl.cli", "_load", "cli.load", None),
    ("netctl.cli", "parse_edge_list_report", "graph.parse", _graph_counts),
    ("netctl.cli", "analysis_report", "cli.report", None),
    ("netctl.cli", "compute_stats", "graph.stats", None),
    ("netctl.cli", "analyze_node_control", "node_control", None),
    ("netctl.cli", "analyze_edge_control", "edge_control", None),
    ("netctl.cli", "_sweep_task", "cli.sweep_task", None),
    ("netctl.cli", "generate", "generators.generate",
     lambda g: {"generators.edges": g.edge_count}),
    ("netctl.cli", "to_line_digraph", "graph.line_digraph", _line_counts),
    ("netctl.cli", "structural_rank_test", "kalman.rank_test", _rank_counts),
    ("netctl.cli", "brute_force_min_drivers", "kalman.brute_force", None),
    ("netctl.cli", "system_from_graph", "kalman.system", None),
    ("netctl.cli", "steer", "kalman.steer", None),
    ("netctl.node_control", "to_bipartite", "graph.bipartite", None),
    ("netctl.node_control", "maximum_matching", "matching.node",
     lambda m: {"matching.node_size": m.size, "matching.solves": 1}),
    ("netctl.node_control", "has_alternate_maximum_matching", "matching.alternate", None),
    ("netctl.edge_control", "to_line_digraph", "graph.line_digraph", _line_counts),
    ("netctl.edge_control", "to_bipartite", "graph.bipartite", None),
    ("netctl.edge_control", "maximum_matching", "matching.edge",
     lambda m: {"matching.edge_size": m.size, "matching.solves": 1}),
    ("netctl.edge_control", "has_alternate_maximum_matching", "matching.alternate", None),
    ("netctl.matching", "maximum_matching", "matching.solve",
     lambda m: {"matching.solves": 1}),
    ("netctl.kalman", "structural_rank_test", "kalman.rank_test", _rank_counts),
    ("netctl.kalman", "system_from_graph", "kalman.system", None),
    ("netctl.kalman", "controllability_matrix", "kalman.ctrb", None),
    ("netctl.kalman", "matrix_rank", "kalman.rank", None),
    ("netctl.kalman", "controllability_gramian", "kalman.gramian", None),
]

#: (module, attribute, count key): calls counted without a span.
TALLIES = [("netctl.kalman", "expm", "kalman.expm_calls")]


def main() -> int:
    src, out, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: tracer.py SRC_DIR SPANS_JSON -- CLI_ARGS...")
    sys.path.insert(0, src)
    tracer = Tracer()
    try:
        index = tracer.begin("startup.import")
        try:
            cli = importlib.import_module("netctl.cli")
        finally:
            tracer.end(index)
        for module, attr, name, count in SPANS:
            mod = sys.modules[module]
            setattr(mod, attr, tracer.wrap(name, getattr(mod, attr), count))
        for module, attr, key in TALLIES:
            mod = sys.modules[module]
            setattr(mod, attr, tracer.tally(key, getattr(mod, attr)))
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        record = {
            "wall": time.perf_counter() - T0,
            "spans": tracer.spans,
            "counts": dict(tracer.counts),
        }
        with open(out, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    raise SystemExit(main())
