"""Independent brute-force oracles used only by the test suite.

These deliberately avoid the library's own algorithms: matching sizes
come from a bitmask DP over right nodes, reachability from a plain BFS,
and the matrix exponential reference from mpmath at high precision.
Some references keep a former formulation instead: the pure-Python
Hopcroft-Karp over adjacency lists, the alternate-matching search that
re-solves once per matched pair, edge control by an explicit matching
on the line digraph, and the controllability matrix normalized with
``np.linalg.norm``.
"""

from __future__ import annotations

from collections import deque
from functools import lru_cache

import mpmath
import numpy as np

from netctl.edge_control import EdgeControlAnalysis
from netctl.graph import BipartiteGraph, DirectedGraph, to_bipartite, to_line_digraph
from netctl.kalman import LtiSystem
from netctl.matching import MatchingResult

_UNSET = -1


def max_matching_size_brute(left_count: int, right_count: int, edges) -> int:
    """Maximum bipartite matching size by exhaustive DP (right <= ~14)."""
    adj = [[] for _ in range(left_count)]
    for left, right in edges:
        if right not in adj[left]:
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
    adj = g.out_adjacency()
    seen = set(sources)
    queue = deque(seen)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return seen


def controllability_matrix_naive(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Unnormalized [B, AB, ..., A^(N-1)B] via matrix powers."""
    n = a.shape[0]
    blocks = [np.linalg.matrix_power(a, k) @ b for k in range(n)]
    return np.hstack(blocks)


def controllability_matrix_reference(s: LtiSystem) -> np.ndarray:
    """[B, AB, ..., A^(N-1)B] with each block's columns scaled to unit
    norm by ``np.linalg.norm`` (zero columns left as they are)."""
    n, m = s.n, s.m
    q = np.empty((n, n * m))
    block = np.array(s.b, dtype=float)
    for k in range(n):
        if k:
            block = s.a @ block
        norms = np.linalg.norm(block, axis=0)
        nonzero = norms > 0.0
        block[:, nonzero] /= norms[nonzero]
        q[:, k * m : (k + 1) * m] = block
    return q


def _sorted_adjacency(b: BipartiteGraph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(b.left_count)]
    for left, right in b.edges:
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


def maximum_matching_reference(b: BipartiteGraph) -> MatchingResult:
    """Canonical Hopcroft-Karp over Python adjacency lists: queue BFS
    layering and ascending-order DFS over the full edge lists."""
    adj = _sorted_adjacency(b)
    match_left = [_UNSET] * b.left_count
    match_right = [_UNSET] * b.right_count
    dist = [_UNSET] * b.left_count
    size = 0
    while True:
        free_dist = _bfs_layers(adj, match_left, match_right, dist)
        if free_dist == _UNSET:
            break
        ptr = [0] * b.left_count
        for u in range(b.left_count):
            if match_left[u] == _UNSET:
                if _augment(u, adj, match_left, match_right, dist, ptr, free_dist):
                    size += 1
    pairs = frozenset(
        (u, match_left[u]) for u in range(b.left_count) if match_left[u] != _UNSET
    )
    matched_right = frozenset(
        v for v in range(b.right_count) if match_right[v] != _UNSET
    )
    return MatchingResult(
        pairs=pairs,
        matched_right=matched_right,
        unmatched_right=frozenset(range(b.right_count)) - matched_right,
        size=size,
    )


def has_alternate_maximum_matching_reference(b: BipartiteGraph, m: MatchingResult) -> bool:
    """A distinct maximum matching must avoid at least one pair of ``m``,
    so it exists iff dropping some matched edge leaves the maximum size
    unchanged: one re-solve per matched pair."""
    for pair in sorted(m.pairs):
        reduced = tuple(e for e in b.edges if e != pair)
        if maximum_matching_reference(
            BipartiteGraph(b.left_count, b.right_count, reduced)
        ).size == m.size:
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
        return EdgeControlAnalysis(frozenset(), 0.0, frozenset(), 0.0, 0, False)
    ld = to_line_digraph(g)
    b = to_bipartite(ld.graph)
    m = maximum_matching_reference(b)
    unmatched = set(m.unmatched_right) or {0}
    driver_edges = frozenset(ld.edge_of_node[i] for i in unmatched)
    driver_nodes = frozenset(src for src, _ in driver_edges)
    return EdgeControlAnalysis(
        driver_edges=driver_edges,
        m_d=len(driver_edges) / e,
        driver_nodes=driver_nodes,
        n_d=len(driver_nodes) / g.node_count,
        line_matching_size=m.size,
        alternate_matchings=has_alternate_maximum_matching_reference(b, m),
    )


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
