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

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import EdgeListParseError, EmptyGraphError, SelfLoopError

Edge = tuple[int, int]


def _checked_csr(rows, cols, row_count: int, col_count: int, noun: str,
                 loops_allowed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one validation of an edge list.

    Returns read-only int64 copies of ``rows`` and ``cols`` sorted by
    (row, col), and the CSR row pointer over them. Raises ValueError for
    an endpoint out of range, a self-loop (unless ``loops_allowed``) or a
    duplicate edge.
    """
    if row_count < 0 or col_count < 0:
        raise ValueError("node counts must be non-negative")
    rows = np.array(rows, dtype=np.int64)
    cols = np.array(cols, dtype=np.int64)
    if rows.ndim != 1 or rows.shape != cols.shape:
        raise ValueError(f"{noun} sources and targets must be 1-D arrays of one length")
    bad = (rows < 0) | (rows >= row_count) | (cols < 0) | (cols >= col_count)
    if bad.any():
        i = int(bad.argmax())
        raise ValueError(
            f"{noun} ({rows[i]}, {cols[i]}) out of range for "
            f"{row_count} x {col_count} nodes"
        )
    if not loops_allowed:
        loops = rows == cols
        if loops.any():
            raise ValueError(f"self-loop at node {rows[loops.argmax()]}")
    keys = rows * col_count + cols
    if not (keys[1:] > keys[:-1]).all():
        order = np.argsort(keys, kind="stable")
        rows, cols, keys = rows[order], cols[order], keys[order]
        repeated = keys[1:] == keys[:-1]
        if repeated.any():
            i = int(repeated.argmax())
            raise ValueError(f"duplicate {noun} ({rows[i]}, {cols[i]})")
    indptr = np.zeros(row_count + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=row_count), out=indptr[1:])
    for array in (rows, cols, indptr):
        array.flags.writeable = False
    return rows, cols, indptr


def _pairs(edges: Iterable[Edge]) -> np.ndarray:
    return np.array(list(edges), dtype=np.int64).reshape(-1, 2)


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
        pairs = _pairs(edges)
        self._init(node_count, pairs[:, 0], pairs[:, 1])

    @classmethod
    def from_arrays(cls, node_count: int, src, dst) -> DirectedGraph:
        """Graph whose edges are ``src[i] -> dst[i]``, in any order."""
        graph = cls.__new__(cls)
        graph._init(node_count, src, dst)
        return graph

    def _init(self, node_count, src, dst) -> None:
        self.node_count = int(node_count)
        self.src, self.dst, self.indptr = _checked_csr(
            src, dst, self.node_count, self.node_count, "edge", loops_allowed=False
        )
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

    def out_adjacency(self) -> list[list[int]]:
        """Successor lists, each sorted ascending."""
        targets, bounds = self.dst.tolist(), self.indptr.tolist()
        return [targets[bounds[u]:bounds[u + 1]] for u in range(self.node_count)]

    def degree_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-node (out-degree, in-degree) int64 arrays."""
        return np.diff(self.indptr), np.bincount(self.dst, minlength=self.node_count)

    def degrees(self) -> tuple[list[int], list[int]]:
        """Per-node (out-degree, in-degree) lists."""
        outs, ins = self.degree_arrays()
        return outs.tolist(), ins.tolist()


class BipartiteGraph:
    """Bipartite graph with ``left_count`` + ``right_count`` nodes.

    For graphs built by :func:`to_bipartite`, left node i is the out-copy
    ("plus" copy) and right node i the in-copy ("minus" copy) of digraph
    node i, so a bipartite edge (i, j) corresponds to the digraph edge
    i -> j. Same layout as :class:`DirectedGraph`: sorted read-only
    arrays ``left`` and ``right`` with the CSR row pointer ``indptr``
    over left nodes. The matching functions also take a DirectedGraph
    directly as its own plus/minus split.
    """

    __slots__ = ("left_count", "right_count", "left", "right", "indptr", "_edges")

    def __init__(self, left_count: int, right_count: int, edges: Iterable[Edge] = ()):
        pairs = _pairs(edges)
        self.left_count, self.right_count = int(left_count), int(right_count)
        self.left, self.right, self.indptr = _checked_csr(
            pairs[:, 0], pairs[:, 1], self.left_count, self.right_count,
            "bipartite edge", loops_allowed=True,
        )
        self._edges = None

    @property
    def edges(self) -> tuple[Edge, ...]:
        if self._edges is None:
            self._edges = tuple(zip(self.left.tolist(), self.right.tolist()))
        return self._edges

    def __eq__(self, other):
        if not isinstance(other, BipartiteGraph):
            return NotImplemented
        return ((self.left_count, self.right_count) == (other.left_count, other.right_count)
                and np.array_equal(self.left, other.left)
                and np.array_equal(self.right, other.right))

    def __hash__(self):
        return hash((self.left_count, self.right_count,
                     self.left.tobytes(), self.right.tobytes()))

    def __repr__(self):
        return f"BipartiteGraph({self.left_count}, {self.right_count}, {self.edges!r})"


@dataclass(frozen=True)
class LineDigraph:
    """Edge-space view of a digraph.

    ``graph`` is a digraph whose nodes are the original edges; its edge
    (e1, e2) exists iff the original edges form a directed path of length
    two (target of e1 equals source of e2). ``edge_of_node`` maps each
    edge-space node id back to the original (source, target) edge and is
    a bijection onto the original edge set.
    """

    graph: DirectedGraph
    edge_of_node: tuple[Edge, ...]

    def __post_init__(self):
        if len(self.edge_of_node) != self.graph.node_count:
            raise ValueError("edge_of_node must have one entry per edge-space node")
        if len(set(self.edge_of_node)) != len(self.edge_of_node):
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


@dataclass(frozen=True)
class ParsedEdgeList:
    """Result of :func:`parse_edge_list_report`.

    Keeps the id remapping and pre-cleaning counts so reports can refer
    to the node ids used in the input file and state how many duplicate
    edges were collapsed.
    """

    graph: DirectedGraph
    original_ids: tuple[int, ...]
    raw_edge_count: int
    duplicate_count: int

    def original_id(self, dense: int) -> int:
        return self.original_ids[dense]


#: Ids of at most this many digits fit in int64 (10**18 - 1 < 2**63).
_INT64_SAFE_DIGITS = 18


def parse_edge_list_report(text: str | bytes | Iterable[str]) -> ParsedEdgeList:
    """Parse edge-list text into a digraph, keeping the remapping table.

    Grammar: the input is UTF-8; lines end with "\\n" (an "\\r" before
    it is dropped). After stripping spaces and tabs, a line is blank, a
    comment (starts with '#'), or two node ids separated by spaces or
    tabs. A node id is one or more ASCII digits 0-9, of any length.
    Anything else - signs, underscores, non-ASCII digits, other
    whitespace, invalid UTF-8 - raises EdgeListParseError naming the
    line; a self-loop raises SelfLoopError.

    Node ids need not be contiguous; they are remapped to dense ids in
    ascending order of the original ids. Duplicate edges are collapsed.
    A vectorised scan reads well-formed input with ids of up to 18
    digits; the line-by-line scan runs otherwise, to name the first bad
    line or to read longer ids as Python integers.
    """
    if isinstance(text, bytes):
        data = text
    else:
        if not isinstance(text, str):
            text = "\n".join(line.rstrip("\n") for line in text)
        data = text.encode("utf-8", "surrogatepass")
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise EdgeListParseError("input is not valid UTF-8", line=line) from None
    ids = _scan_ids(data)
    if ids is None:
        ids = _scan_lines(data.decode("utf-8"))
    return _remap(*ids)


def _scan_ids(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Vectorised scan: (source ids, target ids) as int64 arrays, one
    entry per edge line, or None when ``data`` is not well-formed, has a
    self-loop, or has an id longer than 18 digits."""
    if b"#" in data:
        data = _drop_comment_lines(data)
        if data is None:
            return None
    if b"\r" in data:
        if data.count(b"\r") != data.count(b"\r\n") + data.endswith(b"\r"):
            return None
        data = data.replace(b"\r", b" ")
    if data.translate(None, b"0123456789 \t\n"):
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    # every byte left is a digit or one of " \t\n", which sort below "0"
    digit = np.concatenate(([False], buf >= ord("0"), [False]))
    bounds = np.flatnonzero(digit[1:] != digit[:-1])
    starts, ends = bounds[0::2], bounds[1::2]
    line = np.searchsorted(np.flatnonzero(buf == ord("\n")), starts)
    if (starts.size % 2 or (line[0::2] != line[1::2]).any()
            or (line[2::2] == line[1:-1:2]).any()):
        return None  # some line holds other than two ids
    width = ends - starts
    longest = int(width.max(initial=0))
    if longest > _INT64_SAFE_DIGITS:
        return None
    values = np.zeros(starts.size, dtype=np.int64)
    for k in range(longest):
        more = width > k
        values[more] = values[more] * 10 + (buf[starts[more] + k] - ord("0"))
    src, dst = values[0::2], values[1::2]
    if (src == dst).any():
        return None
    return src, dst


def _drop_comment_lines(data: bytes) -> bytes | None:
    """``data`` without its comment lines (each keeps its "\\n"), or None
    when a '#' appears after an id on some line."""
    kept = []
    copied = 0
    hash_at = data.find(b"#")
    while hash_at != -1:
        start = data.rfind(b"\n", 0, hash_at) + 1
        if data[start:hash_at].strip(b" \t"):
            return None
        end = data.find(b"\n", hash_at)
        end = len(data) if end == -1 else end
        kept.append(data[copied:start])
        copied = end
        hash_at = data.find(b"#", end)
    kept.append(data[copied:])
    return b"".join(kept)


def _scan_lines(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Line-by-line scan with the grammar of parse_edge_list_report.
    Raises on the first bad line; ids of 2**63 and above come back in
    object arrays of Python integers."""
    src: list[int] = []
    dst: list[int] = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line.endswith("\r"):
            line = line[:-1]
        stripped = line.strip(" \t")
        if not stripped or stripped.startswith("#"):
            continue
        parts = [part for part in stripped.replace("\t", " ").split(" ") if part]
        if len(parts) != 2:
            raise EdgeListParseError(
                f"expected 'src dst', got {stripped!r}", line=lineno
            )
        for part in parts:
            if not (part.isascii() and part.isdigit()):
                raise EdgeListParseError(
                    f"node id {part!r} is not a non-negative integer of ASCII "
                    f"digits, in {stripped!r}",
                    line=lineno,
                )
        s, d = int(parts[0]), int(parts[1])
        if s == d:
            raise SelfLoopError(node=s, line=lineno)
        src.append(s)
        dst.append(d)
    dtype = np.int64 if max(src + dst, default=0) < 2**63 else object
    return np.array(src, dtype=dtype), np.array(dst, dtype=dtype)


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
    return ParsedEdgeList(
        graph=DirectedGraph.from_arrays(n, keys // n, keys % n),
        original_ids=tuple(ids[first].tolist()),
        raw_edge_count=raw,
        duplicate_count=raw - keys.size,
    )


def _first_of_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values."""
    return np.concatenate(([True], ordered[1:] != ordered[:-1]))[:ordered.size]


def parse_edge_list(text: str | bytes | Iterable[str]) -> DirectedGraph:
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


def to_bipartite(g: DirectedGraph) -> BipartiteGraph:
    """Split every node into an out-copy (left) and in-copy (right); each
    digraph edge i -> j becomes the bipartite edge (i, j)."""
    return BipartiteGraph(g.node_count, g.node_count, g.edges)


def to_line_digraph(g: DirectedGraph) -> LineDigraph:
    """Build the edge-space digraph of ``g``.

    Edge-space node ids follow the lexicographic order of the original
    (source, target) edges, so the construction is deterministic.
    """
    edge_order = g.edges
    index = {edge: i for i, edge in enumerate(edge_order)}
    by_source: dict[int, list[int]] = {}
    for edge in edge_order:
        by_source.setdefault(edge[0], []).append(index[edge])

    ld_edges: list[Edge] = []
    for edge in edge_order:
        i = index[edge]
        for j in by_source.get(edge[1], ()):
            ld_edges.append((i, j))
    ld_edges.sort()

    return LineDigraph(
        graph=DirectedGraph(len(edge_order), tuple(ld_edges)),
        edge_of_node=tuple(edge_order),
    )


def compute_stats(g: DirectedGraph) -> GraphStats:
    """Density, mean degree (E/N), reciprocity, and isolated-node count."""
    n, e = g.node_count, g.edge_count
    if n == 0:
        raise EmptyGraphError("statistics are undefined on an empty graph")
    density = e / (n * (n - 1)) if n > 1 else 0.0
    reciprocated = 0
    if e:
        keys = g.src * n + g.dst  # ascending, as the edges are sorted
        mirrored = g.dst * n + g.src
        at = np.minimum(np.searchsorted(keys, mirrored), e - 1)
        reciprocated = int(np.count_nonzero(keys[at] == mirrored))
    reciprocity = reciprocated / e if e else 0.0
    outs, ins = g.degree_arrays()
    isolated = int(np.count_nonzero((outs == 0) & (ins == 0)))
    return GraphStats(
        density=density,
        mean_degree=e / n,
        reciprocity=reciprocity,
        isolated_count=isolated,
    )
