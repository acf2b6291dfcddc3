"""Directed-graph core: types, edge-list I/O, derived graphs, statistics.

A graph is a pair of sorted int64 arrays (edge sources and targets) plus
a CSR row pointer. The arrays are checked once, by one vectorised
validation that every constructor runs, and are read-only afterwards:
parsing, the generators, matching, degrees and statistics all read the
same arrays and never copy or re-check them.

All types are immutable after construction and safe to share across
threads; every operation in this module is a pure function.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EdgeListParseError, EmptyGraphError, SelfLoopError

Edge = tuple[int, int]


class DirectedGraph:
    """Simple digraph over dense integer node ids ``0 .. node_count-1``.

    Layout: ``src`` and ``dst`` are read-only int64 arrays holding the
    edges sorted by (source, target); ``indptr`` (length node_count + 1)
    is the CSR row pointer, so the successors of u, ascending, are
    ``dst[indptr[u]:indptr[u + 1]]``. Both constructors run the single
    validation point, which rejects self-loops, duplicate edges and
    out-of-range endpoints. ``edges`` is the same sorted edge list as a
    tuple of (source, target) pairs, built on first use.
    """

    __slots__ = ("node_count", "src", "dst", "indptr", "_edges")

    def __init__(self, node_count: int, edges: Iterable[Edge] = ()):
        pairs = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        self._init(node_count, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_arrays(cls, node_count: int, src, dst) -> DirectedGraph:
        """Graph whose edges are ``src[i] -> dst[i]``, in any order."""
        graph = cls.__new__(cls)
        graph._init(node_count, src, dst)
        return graph

    def _init(self, node_count, src, dst) -> None:
        """The one validation of an edge list: keeps read-only int64
        copies of ``src`` and ``dst`` sorted by (source, target) and the
        CSR row pointer over them. Raises ValueError for an endpoint out
        of range, a self-loop or a duplicate edge."""
        n = self.node_count = int(node_count)
        if n < 0:
            raise ValueError("node counts must be non-negative")
        src = np.array(src, dtype=np.int64)
        dst = np.array(dst, dtype=np.int64)
        if src.ndim != 1 or src.shape != dst.shape:
            raise ValueError("edge sources and targets must be 1-D arrays of one length")
        bad = (src < 0) | (src >= n) | (dst < 0) | (dst >= n)
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"edge ({src[i]}, {dst[i]}) out of range for {n} x {n} nodes")
        loops = src == dst
        if loops.any():
            raise ValueError(f"self-loop at node {src[loops.argmax()]}")
        keys = src * n + dst
        if not (keys[1:] > keys[:-1]).all():
            order = np.argsort(keys, kind="stable")
            src, dst, keys = src[order], dst[order], keys[order]
            repeated = keys[1:] == keys[:-1]
            if repeated.any():
                i = int(repeated.argmax())
                raise ValueError(f"duplicate edge ({src[i]}, {dst[i]})")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        for array in (src, dst, indptr):
            array.flags.writeable = False
        self.src, self.dst, self.indptr = src, dst, indptr
        self._edges = None

    @property
    def edge_count(self) -> int:
        return self.src.size

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._edges = tuple(zip(self.src.tolist(), self.dst.tolist()))
        return self._edges

    def __eq__(self, other):
        if not isinstance(other, DirectedGraph):
            return NotImplemented
        return (self.node_count == other.node_count
                and np.array_equal(self.src, other.src)
                and np.array_equal(self.dst, other.dst))

    def __hash__(self):
        return hash((self.node_count, self.src.tobytes(), self.dst.tobytes()))

    def __repr__(self):
        return f"DirectedGraph({self.node_count}, {self.edges!r})"

    def degree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (out-degree, in-degree) int64 arrays."""
        return np.diff(self.indptr), np.bincount(self.dst, minlength=self.node_count)


@dataclass(frozen=True, eq=False)
class LineDigraph:
    """Edge-space view of a digraph.

    ``graph`` is a digraph whose nodes are the original edges; its edge
    (e1, e2) exists iff the original edges form a directed path of length
    two (target of e1 equals source of e2). ``edge_of_node`` is an
    (E, 2) int64 array whose row i is the original (source, target) edge
    of edge-space node i; its rows are distinct, a bijection onto the
    original edge set. Equality is identity.
    """

    graph: DirectedGraph
    edge_of_node: np.ndarray

    def __post_init__(self):
        if self.edge_of_node.shape != (self.graph.node_count, 2):
            raise ValueError("edge_of_node must have one row per edge-space node")
        if len(set(map(tuple, self.edge_of_node.tolist()))) != self.graph.node_count:
            raise ValueError("edge_of_node must be a bijection")


@dataclass(frozen=True)
class GraphStats:
    """Basic structural statistics of a digraph.

    density is E/(N*(N-1)) (ordered-pair convention), mean_degree is E/N,
    reciprocity the fraction of edges whose reverse also exists.
    """

    density: float
    mean_degree: float
    reciprocity: float
    isolated_count: int

    def __post_init__(self):
        if not 0.0 <= self.density <= 1.0:
            raise ValueError("density out of range")
        if self.mean_degree < 0.0:
            raise ValueError("mean_degree must be non-negative")
        if not 0.0 <= self.reciprocity <= 1.0:
            raise ValueError("reciprocity out of range")
        if self.isolated_count < 0:
            raise ValueError("isolated_count must be non-negative")


@dataclass(frozen=True, eq=False)
class ParsedEdgeList:
    """Result of :func:`parse_edge_list_report`.

    Keeps the id remapping and pre-cleaning counts so reports can refer
    to the node ids used in the input file and state how many duplicate
    edges were collapsed. ``original_ids[v]`` is the input id of dense
    node v: an ascending read-only array, int64, or object (Python ints)
    when some id is 2**63 or above.
    """

    graph: DirectedGraph
    original_ids: np.ndarray
    raw_edge_count: int
    duplicate_count: int


#: Ids of at most this many digits fit in int64 (10**18 - 1 < 2**63).
_INT64_SAFE_DIGITS = 18

#: An "\r" that ends neither a line nor the input.
_BARE_CR = re.compile(rb"\r(?!\n|\Z)")


def max_id_digits() -> int:
    """The most digits of a node id: Python's int-string limit, else sys.maxsize."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or sys.maxsize


def parse_edge_list_report(text: str | bytes) -> ParsedEdgeList:
    """Parse edge-list text into a digraph, keeping the remapping table.

    Grammar: the input is UTF-8; lines end with "\\n" (an "\\r" before
    it is dropped). After stripping spaces and tabs, a line is blank, a
    comment (starts with '#'), or two node ids separated by spaces or
    tabs. A node id is one or more ASCII digits 0-9, at most
    :func:`max_id_digits` of them. Anything else - signs, underscores,
    non-ASCII digits, other whitespace, invalid UTF-8, longer ids - raises
    EdgeListParseError naming the line; a self-loop raises SelfLoopError.

    Node ids need not be contiguous; they are remapped to dense ids in
    ascending order of the original ids. Duplicate edges are collapsed.
    One vectorised scan reads every input; on input outside the grammar
    it checks just the earliest bad line in Python to name the error.
    """
    data = text if isinstance(text, bytes) else text.encode("utf-8", "surrogatepass")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise EdgeListParseError("input is not valid UTF-8", line=line) from None
    return _remap(*_scan_ids(data))


def _scan_ids(data: bytes) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised scan of UTF-8 ``data``: (source ids, target ids), one
    entry per edge line, as int64 arrays, or as object arrays of Python
    ints when some id is 2**63 or above. Raises the first bad line's error."""
    buf = np.frombuffer(data, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    if b"#" in data:
        data = _blank_comment_lines(data, newlines)
        buf = np.frombuffer(data, dtype=np.uint8)
    cut = None  # start of the line of the first byte outside the grammar
    # translate keeps the byte order, so this is the first byte outside the grammar
    first_bad = data.translate(None, b"0123456789 \t\r\n")[:1]
    hits = [data.find(first_bad)] if first_bad else []
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n") + data.endswith(b"\r"):
        hits.append(_BARE_CR.search(data).start())
    if hits:
        cut = data.rfind(b"\n", 0, min(hits)) + 1
        buf = buf[:cut]
    # every byte left is a digit or one of " \t\r\n", which sort below "0"
    bounds = np.flatnonzero(np.diff(buf >= ord("0"), prepend=False, append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    line = np.searchsorted(newlines, starts)
    line = np.append(line, -1) if line.size % 2 else line  # a lone last id: a bad pair
    # ids 2p, 2p + 1 are a bad pair on two lines, with 2p + 2 on theirs, too long or equal
    bad = line[0::2] != line[1::2]
    bad[:-1] |= line[2::2] == line[1:-1:2]
    del newlines, line  # not held through the digit loop, the peak of the scan
    width = ends - starts
    longest = int(width.max(initial=0))
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(min(longest, _INT64_SAFE_DIGITS)):
        more = width > k
        values[more] = values[more] * 10 + (buf[starts[more] + k] - ord("0"))
    if longest > _INT64_SAFE_DIGITS:
        long, limit = np.flatnonzero(width > _INT64_SAFE_DIGITS), max_id_digits()
        bad[long[width[long] > limit] // 2] = True
        big = [int(data[s:e]) if e - s <= limit else 0
               for s, e in zip(starts[long].tolist(), ends[long].tolist())]
        values = values.astype(object if max(big) >= 2**63 else np.int64)
        values[long] = big
    src, dst = values[0::2], values[1::2]
    bad[:dst.size] |= src[:dst.size] == dst
    if bad.any() or cut is not None:
        _check_line(data, starts[2 * bad.argmax()] if bad.any() else cut)
        raise RuntimeError("the scan stopped at a line inside the grammar")
    return src, dst


def _blank_comment_lines(data: bytes, newlines: np.ndarray) -> bytearray:
    """``data`` with each comment line's text from its first '#' on
    turned to spaces, so that no byte moves. A line with anything but
    spaces and tabs before its '#' keeps it: the scan stops there."""
    buf = np.frombuffer(data, dtype=np.uint8)
    hashes = np.flatnonzero(buf == ord("#"))
    line = np.searchsorted(newlines, hashes)
    first = _first_of_runs(line)
    hashes, line = hashes[first], line[first]
    bounds = np.concatenate(([-1], newlines, [len(data)]))
    starts, ends = bounds[line] + 1, bounds[line + 1]
    indented = np.flatnonzero(hashes > starts)
    if indented.size:
        blank = (buf == ord(" ")) | (buf == ord("\t"))
        spans = np.column_stack((starts[indented], hashes[indented])).ravel()
        comment = np.ones(hashes.size, dtype=bool)
        comment[indented] = np.logical_and.reduceat(blank, spans)[0::2]
        hashes, ends = hashes[comment], ends[comment]
    # +1 at each '#', -1 at its line's end: the running sum is 1 on the spans
    inside = np.zeros(len(data) + 1, dtype=np.int8)
    inside[hashes], inside[ends] = 1, -1
    np.cumsum(inside, out=inside)
    blanked = bytearray(data)
    np.frombuffer(blanked, dtype=np.uint8)[inside[:-1].view(bool)] = ord(" ")
    return blanked


def _check_line(data: bytes, at: int) -> None:
    """Raise the grammar's error for the edge line of ``data`` holding byte ``at``."""
    start, end = data.rfind(b"\n", 0, at) + 1, data.find(b"\n", at)
    stripped = data[start:end if end >= 0 else None].decode().removesuffix("\r").strip(" \t")
    lineno = data.count(b"\n", 0, start) + 1
    parts = [part for part in stripped.replace("\t", " ").split(" ") if part]
    if len(parts) != 2:
        raise EdgeListParseError(f"expected 'src dst', got {stripped!r}", line=lineno)
    for part in parts:
        if not (part.isascii() and part.isdigit()):
            raise EdgeListParseError(f"node id {part!r} is not a non-negative integer "
                                     f"of ASCII digits, in {stripped!r}", line=lineno)
    if max(map(len, parts)) > max_id_digits():
        raise EdgeListParseError(f"node id of {max(map(len, parts))} digits is over "
                                 f"the limit of {max_id_digits()} digits", line=lineno)
    if int(parts[0]) == int(parts[1]):
        raise SelfLoopError(node=int(parts[0]), line=lineno)


def _remap(src_ids: np.ndarray, dst_ids: np.ndarray) -> ParsedEdgeList:
    """Dense ids in ascending order of the original ids; duplicate edges
    collapsed. (Sort-based: ``np.unique`` imports ``numpy.ma`` on first
    use, which would add ~30 ms to every CLI start.)"""
    raw = src_ids.size
    ids = np.concatenate((src_ids, dst_ids))
    order = np.argsort(ids, kind="stable")
    ids = ids[order]
    first = _first_of_runs(ids)
    dense = np.empty(ids.size, dtype=np.int64)
    dense[order] = np.cumsum(first) - 1
    n = int(np.count_nonzero(first))
    keys = np.sort(dense[:raw] * n + dense[raw:])
    keys = keys[_first_of_runs(keys)]
    original_ids = ids[first]
    original_ids.flags.writeable = False
    return ParsedEdgeList(
        graph=DirectedGraph.from_arrays(n, keys // n, keys % n),
        original_ids=original_ids,
        raw_edge_count=raw,
        duplicate_count=raw - keys.size,
    )


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    return np.concatenate(([True], ordered[1:] != ordered[:-1]))[:ordered.size]


def parse_edge_list(text: str | bytes) -> DirectedGraph:
    """Parse edge-list text into a digraph (see parse_edge_list_report)."""
    return parse_edge_list_report(text).graph


def serialize_edge_list(g: DirectedGraph, header: str | None = None) -> str:
    """Serialize to edge-list text: one "src dst" per line, sorted
    lexicographically. ``header`` lines, if given, are emitted first as
    '#' comments."""
    lines: list[str] = []
    if header is not None:
        lines.extend(f"# {h}" if h else "#" for h in header.splitlines())
    lines.extend(f"{src} {dst}" for src, dst in zip(g.src.tolist(), g.dst.tolist()))
    return "\n".join(lines) + "\n" if lines else ""


def to_bipartite(g: DirectedGraph) -> DirectedGraph:
    """``g`` itself: the matching functions read a digraph as its own
    plus/minus split. Kept only as the name bench/tracer.py wraps."""
    return g


def edge_positions(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the edges of the CSR ``rows``, in row order."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    offsets = np.cumsum(counts) - counts
    return np.repeat(starts - offsets, counts) + np.arange(counts.sum())


def to_line_digraph(g: DirectedGraph) -> LineDigraph:
    """Build the edge-space digraph of ``g``: node i is ``g``'s edge i, in
    (source, target) order, and its successors are the out-edges of that
    edge's target, so the edges come out of the CSR arrays already sorted."""
    heads = edge_positions(g.indptr, g.dst)
    tails = np.repeat(np.arange(g.edge_count), np.diff(g.indptr)[g.dst])
    edge_of_node = np.column_stack((g.src, g.dst))
    edge_of_node.flags.writeable = False
    return LineDigraph(DirectedGraph.from_arrays(g.edge_count, tails, heads), edge_of_node)


def compute_stats(g: DirectedGraph) -> GraphStats:
    """Density, mean degree (E/N), reciprocity, and isolated-node count."""
    n, e = g.node_count, g.edge_count
    if n == 0:
        raise EmptyGraphError("statistics are undefined on an empty graph")
    density = e / (n * (n - 1)) if n > 1 else 0.0
    reciprocated = 0
    if e:
        # neither key set repeats a key, so a key shared by an edge and a
        # reversed edge shows up exactly twice in the merged sort
        both = np.concatenate((g.src * n + g.dst, g.dst * n + g.src))
        both.sort()
        reciprocated = int(np.count_nonzero(both[1:] == both[:-1]))
    reciprocity = reciprocated / e if e else 0.0
    outs, ins = g.degree_arrays()
    isolated = int(np.count_nonzero((outs == 0) & (ins == 0)))
    return GraphStats(
        density=density,
        mean_degree=e / n,
        reciprocity=reciprocity,
        isolated_count=isolated,
    )
