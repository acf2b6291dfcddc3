"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own algorithms: matching sizes
come from a bitmask DP over right nodes, maximality from a König vertex
cover, reachability from a plain BFS, and the matrix exponential
reference from mpmath at high precision.
Some references keep a former formulation instead: the pure-Python
Hopcroft-Karp over adjacency lists, the layered-edge filter that
recomputes every edge's layer and sorts the stepping edges by it, the
alternate-matching search that re-solves once per matched pair, edge
control by an explicit matching on the line digraph, the
controllability matrix normalized with ``np.linalg.norm``, the rank
test that builds one whole system per sample, the JSON
reports encoded by ``json.dumps``, and the edge-list scan that parses
every line in Python.
"""

from __future__ import annotations

import json
from collections import deque
from functools import lru_cache

import mpmath
import numpy as np

from netctl.edge_control import EdgeControlAnalysis
from netctl.errors import EdgeListParseError, SelfLoopError
from netctl.graph import DirectedGraph, to_line_digraph
from netctl.kalman import (
    RankVerdict,
    controllability_matrix,
    matrix_rank,
    system_from_graph,
)
from netctl.matching import MatchingResult

_UNSET = -1


def max_matching_size_brute(g: DirectedGraph) -> int:
    """Maximum matching size of ``g``'s plus/minus split by exhaustive DP
    (fine up to ~14 right nodes with in-edges)."""
    left_count = g.node_count
    adj = [[] for _ in range(left_count)]
    for left, right in g.edges:
        adj[left].append(right)

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> int:
        if i == left_count:
            return 0
        result = best(i + 1, used)
        for r in adj[i]:
            if not used >> r & 1:
                result = max(result, 1 + best(i + 1, used | (1 << r)))
        return result

    size = best(0, 0)
    best.cache_clear()
    return size


def reachable_from(g: DirectedGraph, sources) -> set[int]:
    """Plain BFS over out-edges."""
    targets, bounds = g.dst.tolist(), g.indptr.tolist()
    seen = set(sources)
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for v in targets[bounds[u]:bounds[u + 1]]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def controllability_matrix_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unnormalized [B, AB, ..., A^(N-1)B] via matrix powers."""
    n = a.shape[0]
    blocks = [np.linalg.matrix_power(a, k) @ b for k in range(n)]
    return np.hstack(blocks)


def controllability_matrix_reference(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[B, AB, ..., A^(N-1)B] with each block's columns scaled to unit
    norm by ``np.linalg.norm`` (zero columns left as they are)."""
    n, m = b.shape
    q = np.empty((n, n * m))
    block = np.array(b, dtype=float)
    for k in range(n):
        if k:
            block = a @ block
        norms = np.linalg.norm(block, axis=0)
        nonzero = norms > 0.0
        block[:, nonzero] /= norms[nonzero]
        q[:, k * m : (k + 1) * m] = block
    return q


def structural_rank_test_reference(
    g: DirectedGraph, drivers, samples: int = 3, tol: float | None = None, seed: int = 0
) -> RankVerdict:
    """The sampled rank test with one whole system per sample:
    ``system_from_graph`` draws the weights, then ``controllability_matrix``
    and ``matrix_rank``; full rank as soon as one sample reaches N."""
    tol = float(np.finfo(float).eps) if tol is None else tol
    rng = np.random.default_rng(seed)
    drivers = list(drivers)
    best = 0
    for i in range(samples):
        s = system_from_graph(g, drivers, rng=rng)
        best = max(best, matrix_rank(controllability_matrix(s.a, s.b), tol))
        if best == g.node_count:
            return RankVerdict(True, best, i + 1, tol)
    return RankVerdict(False, best, samples, tol)


def _sorted_adjacency(g: DirectedGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.node_count)]
    for left, right in g.edges:
        adj[left].append(right)
    for lst in adj:
        lst.sort()
    return adj


def _bfs_layers(adj, match_left, match_right, dist) -> int:
    queue: deque[int] = deque()
    for u in range(len(adj)):
        if match_left[u] == _UNSET:
            dist[u] = 0
            queue.append(u)
        else:
            dist[u] = _UNSET
    free_dist = _UNSET
    while queue:
        u = queue.popleft()
        if free_dist != _UNSET and dist[u] >= free_dist:
            continue
        for v in adj[u]:
            w = match_right[v]
            if w == _UNSET:
                if free_dist == _UNSET:
                    free_dist = dist[u] + 1
            elif dist[w] == _UNSET:
                dist[w] = dist[u] + 1
                queue.append(w)
    return free_dist


def _augment(root, adj, match_left, match_right, dist, ptr, free_dist) -> bool:
    path: list[tuple[int, int]] = []
    u = root
    while True:
        found = _UNSET
        free = False
        while ptr[u] < len(adj[u]):
            v = adj[u][ptr[u]]
            ptr[u] += 1
            w = match_right[v]
            if w == _UNSET:
                if dist[u] + 1 == free_dist:
                    found = v
                    free = True
                    break
            elif dist[w] == dist[u] + 1:
                found = v
                break
        if found == _UNSET:
            dist[u] = _UNSET
            if not path:
                return False
            u, _ = path.pop()
            continue
        if free:
            match_left[u] = found
            match_right[found] = u
            for pl, pr in path:
                match_left[pl] = pr
                match_right[pr] = pl
            return True
        path.append((u, found))
        u = match_right[found]


def maximum_matching_reference(g: DirectedGraph) -> MatchingResult:
    """Canonical Hopcroft-Karp over Python adjacency lists, on ``g`` as
    its own plus/minus split: queue BFS layering and ascending-order DFS
    over the full edge lists."""
    adj = _sorted_adjacency(g)
    match_left = [_UNSET] * g.node_count
    match_right = [_UNSET] * g.node_count
    dist = [_UNSET] * g.node_count
    size = 0
    while True:
        free_dist = _bfs_layers(adj, match_left, match_right, dist)
        if free_dist == _UNSET:
            break
        ptr = [0] * g.node_count
        for u in range(g.node_count):
            if match_left[u] == _UNSET:
                if _augment(u, adj, match_left, match_right, dist, ptr, free_dist):
                    size += 1
    return MatchingResult(
        match_left=np.array(match_left, dtype=np.int64),
        match_right=np.array(match_right, dtype=np.int64),
        size=size,
    )


def konig_certificate_holds(g: DirectedGraph, m: MatchingResult) -> bool:
    """True iff ``m`` is a matching of ``g``'s plus/minus split with
    consistent mates and size, and a König vertex cover proves it maximum.

    Z_L is the set of left nodes an alternating BFS reaches from the free
    ones, and C = (L minus Z_L) plus the right ends of Z_L's edges. A
    vertex cover is at least as large as any matching (each matched edge
    needs its own cover node), so a cover with |C| = |M| proves M maximum
    however C was found. Plain Python over the edge list: no search of
    the library's is run.
    """
    n, match_left, match_right = g.node_count, m.match_left.tolist(), m.match_right.tolist()
    if len(match_left) != n or len(match_right) != n:
        return False
    edges = set(g.edges)
    matched = [(u, v) for u, v in enumerate(match_left) if v != _UNSET]
    if any((u, v) not in edges or match_right[v] != u for u, v in matched):
        return False
    # with each matched left's right mate pointing back, no other right may be matched
    if n - match_right.count(_UNSET) != len(matched) or m.size != len(matched):
        return False
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
    reached = {u for u in range(n) if match_left[u] == _UNSET}
    queue = deque(reached)
    right_cover: set[int] = set()
    while queue:
        for v in adj[queue.popleft()]:
            right_cover.add(v)
            w = match_right[v]
            if w != _UNSET and w not in reached:
                reached.add(w)
                queue.append(w)
    if any(u in reached and v not in right_cover for u, v in edges):
        return False
    return n - len(reached) + len(right_cover) == m.size


def bfs_layers_reference(g: DirectedGraph, m: MatchingResult) -> tuple[np.ndarray, int]:
    """Queue-BFS distances of the left nodes from the free ones along
    alternating paths, -1 from the layer that first reaches a free right
    node on, and that layer's distance (-1 when no augmenting path
    exists)."""
    dist = [_UNSET] * g.node_count
    adj = _sorted_adjacency(g)
    free_dist = _bfs_layers(adj, m.match_left.tolist(), m.match_right.tolist(), dist)
    dist = np.array(dist, dtype=np.int64)
    if free_dist != _UNSET:
        dist[dist >= free_dist] = _UNSET
    return dist, free_dist


def layered_edges_reference(lefts, right, dist, free_dist, match_right) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the edges a shortest augmenting path can use this phase,
    and which left nodes reach a free right node through them.

    An edge is kept when it steps from the last layer to a right node
    free at phase start, or from one layer to the next along the right
    node's partner, and that partner is alive. A left node is alive when
    a kept path leads from it to a free right node. A node dead at phase
    start stays dead: augmenting only uses up free right nodes, and an
    edge that gains a layered partner by an augmentation shares an edge
    with that augmenting path, so no shortest path can use it.
    """
    from_dist = dist[lefts]
    partner = match_right[right]
    into_free = partner == _UNSET
    into_free &= from_dist == free_dist - 1
    step = dist[partner] == from_dist + 1
    step &= (from_dist >= 0) & (partner != _UNSET)
    alive = np.zeros(dist.size, dtype=bool)
    alive[lefts[into_free]] = True
    # settle layers from the last one down, so a partner's fate is known
    stepping = np.flatnonzero(step)
    stepping = stepping[np.argsort(from_dist[stepping], kind="stable")]
    cuts = np.searchsorted(from_dist[stepping], np.arange(free_dist))
    for level in range(free_dist - 2, -1, -1):
        here = stepping[cuts[level]:cuts[level + 1]]
        here = here[alive[partner[here]]]
        alive[lefts[here]] = True
    step &= alive[partner]
    return into_free | step, alive


def has_alternate_maximum_matching_reference(g: DirectedGraph, m: MatchingResult) -> bool:
    """A distinct maximum matching must avoid at least one pair of ``m``,
    so it exists iff dropping some matched edge leaves the maximum size
    unchanged: one re-solve per matched pair."""
    pairs = [(u, v) for u, v in enumerate(m.match_left.tolist()) if v != _UNSET]
    for pair in pairs:
        reduced = tuple(e for e in g.edges if e != pair)
        if maximum_matching_reference(DirectedGraph(g.node_count, reduced)).size == m.size:
            return True
    return False


def edge_control_via_line_digraph(g: DirectedGraph) -> EdgeControlAnalysis:
    """Edge control from a canonical Hopcroft-Karp matching on the
    bipartite split of the line digraph: unmatched in-copies are the
    driver edges (floor: edge-space node 0, the smallest edge), and the
    alternate-matching flag comes from re-solving without each matched
    pair, at every size."""
    e = g.edge_count
    if e == 0:
        return EdgeControlAnalysis(
            np.empty((0, 2), dtype=np.int64), 0.0, np.empty(0, dtype=np.int64), 0.0, 0, False
        )
    ld = to_line_digraph(g)
    m = maximum_matching_reference(ld.graph)
    unmatched = [v for v, u in enumerate(m.match_right.tolist()) if u == _UNSET] or [0]
    driver_edges = sorted(np.column_stack((g.src, g.dst))[unmatched].tolist())
    driver_nodes = sorted({src for src, _ in driver_edges})
    return EdgeControlAnalysis(
        driver_edges=np.array(driver_edges, dtype=np.int64),
        m_d=len(driver_edges) / e,
        driver_nodes=np.array(driver_nodes, dtype=np.int64),
        n_d=len(driver_nodes) / g.node_count,
        line_matching_size=m.size,
        alternate_matchings=has_alternate_maximum_matching_reference(ld.graph, m),
    )


def scan_lines_reference(text: str) -> tuple[np.ndarray, np.ndarray]:
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


def analysis_json_reference(report: dict) -> str:
    """A JSON report (``analyze``, ``verify`` or the sweep summary) as
    ``json.dumps(indent=2)`` writes it once its id arrays are lists and its
    floats, at any depth, are rounded to 6 significant digits."""

    def plain(obj):
        if isinstance(obj, dict):
            return {key: plain(value) for key, value in obj.items()}
        if isinstance(obj, list):
            return [plain(value) for value in obj]
        if isinstance(obj, np.ndarray):
            return obj.tolist()
        if isinstance(obj, float):
            return float(f"{obj:.6g}")
        return obj

    return json.dumps(plain(report), indent=2) + "\n"


def expm_reference(a: np.ndarray, dps: int = 50) -> np.ndarray:
    """Matrix exponential at ``dps`` decimal digits via mpmath."""
    with mpmath.workdps(dps):
        result = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array(result.tolist(), dtype=float)


def hill_tail_exponent(degrees, k_min: int) -> float:
    """Continuous maximum-likelihood tail-exponent estimate over values
    >= k_min (with the usual -0.5 discreteness shift)."""
    tail = [d for d in degrees if d >= k_min]
    if len(tail) < 10:
        raise ValueError("tail too small for a stable fit")
    log_sum = sum(np.log(d / (k_min - 0.5)) for d in tail)
    return 1.0 + len(tail) / log_sum
