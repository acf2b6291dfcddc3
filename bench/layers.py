"""Per-layer metrics from the records ``tracer.py`` writes.

A span's inclusive time is its duration; its self time is the duration
minus the part its child spans cover. Every span-based ``*_s`` metric is
inclusive time summed over the pass's commands, except ``*.self_s`` and
``cli.write_s`` (``cli.main`` minus its children: argument parsing,
float rounding and JSON or CSV writing). Each metric is the median over
the traced passes of a run; a layer that does not run reads 0.
``startup.*_s`` come from ``python -X importtime`` instead, and
``trace_overhead_s`` from the pass wall times measured outside.
"""

from __future__ import annotations

import re
import statistics
from collections import Counter

#: span name -> metric, for inclusive times
INCLUSIVE = {
    "graph.parse": "graph.parse_s",
    "graph.stats": "graph.stats_s",
    "graph.bipartite": "graph.bipartite_s",
    "graph.line_digraph": "graph.line_digraph_s",
    "matching.node": "matching.node_s",
    "matching.edge": "matching.edge_s",
    "matching.alternate": "matching.alternate_s",
    "generators.generate": "generators.generate_s",
    "cli.report": "cli.report_s",
    "kalman.rank_test": "kalman.rank_test_s",
    "kalman.system": "kalman.system_s",
    "kalman.ctrb": "kalman.ctrb_s",
    "kalman.rank": "kalman.rank_s",
    "kalman.brute_force": "kalman.brute_force_s",
    "kalman.gramian": "kalman.gramian_s",
    "kalman.steer": "kalman.steer_s",
}
#: span name -> metric, for self times
SELF = {
    "node_control": "node_control.self_s",
    "edge_control": "edge_control.self_s",
    "cli.main": "cli.write_s",
}
COUNTS = [
    "graph.nodes", "graph.edges", "graph.line_edges",
    "matching.node_size", "matching.edge_size", "matching.solves",
    "generators.edges",
    "kalman.rank_tests", "kalman.samples_used", "kalman.expm_calls",
]
IMPORTS = ["numpy", "scipy", "netctl"]
#: every metric --trace 1 reports, in order, with its unit
UNITS = {
    **{m: "s" for m in INCLUSIVE.values()},
    **{m: "s" for m in SELF.values()},
    **{m: "count" for m in COUNTS},
    "cli.sweep_efficiency": "ratio",
    **{f"startup.{p}_s": "s" for p in IMPORTS},
    "trace_overhead_s": "s",
    "trace.in_process_s": "s",
    "trace.coverage": "ratio",
}


def span_times(spans: list[list]) -> tuple[Counter, Counter]:
    """(inclusive, self) seconds per span name. A span nested inside one
    of the same name adds to neither inclusive total a second time."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        self_time[name] += (end - start) - covered[i]
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            inclusive[name] += end - start
    return inclusive, self_time


def pass_metrics(traces: list[dict], untraced_wall: float, workers: int) -> dict:
    """Metrics of one traced pass (one trace record per command)."""
    inclusive: Counter = Counter()
    self_time: Counter = Counter()
    counts: Counter = Counter()
    wall = 0.0
    for trace in traces:
        inc, own = span_times(trace["spans"])
        inclusive.update(inc)
        self_time.update(own)
        counts.update(trace["counts"])
        wall += trace["wall"]
    out = {metric: inclusive[name] for name, metric in INCLUSIVE.items()}
    out.update({metric: self_time[name] for name, metric in SELF.items()})
    out.update({name: counts[name] for name in COUNTS})
    busy = inclusive["cli.sweep_task"]
    out["cli.sweep_efficiency"] = busy / (untraced_wall * workers) if busy else 0.0
    top = inclusive["startup.import"] + inclusive["cli.main"]
    out["trace.in_process_s"] = wall
    out["trace.coverage"] = top / wall
    return out


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)")


def import_times(text: str) -> dict[str, float]:
    """Cumulative import seconds of each package in IMPORTS, from
    ``python -X importtime`` output: the sum over that package's
    outermost entries. An entry nested in numpy or scipy counts for that
    package only, so numpy modules scipy pulls in are scipy's cost."""
    entries = []
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(2)) // 2, m.group(3), int(m.group(1))))
    totals = dict.fromkeys(IMPORTS, 0.0)
    stack: list[tuple[int, str]] = []
    # children print before their parent, so walk backwards from the roots
    for level, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= level:
            stack.pop()
        package = name.split(".")[0]
        owners = {p for _, p in stack}
        if package in totals and owners.isdisjoint({package, "numpy", "scipy"}):
            totals[package] += cumulative_us / 1e6
        stack.append((level, package))
    return totals


def per_layer(passes: list[list[dict]], imports: list[dict], *, untraced_wall: float,
              overhead: float, workers: int) -> dict[str, tuple[float, str]]:
    """Median over traced passes of every per-layer metric, with units."""
    per_pass = [pass_metrics(traces, untraced_wall, workers) for traces in passes]
    values = {metric: statistics.median(p[metric] for p in per_pass) for metric in per_pass[0]}
    for package in IMPORTS:
        values[f"startup.{package}_s"] = statistics.median(s[package] for s in imports)
    values["trace_overhead_s"] = overhead
    return {metric: (values[metric], unit) for metric, unit in UNITS.items()}
