"""Maximum-cardinality bipartite matching (Hopcroft-Karp) over CSR arrays.

The solver is deterministic: BFS layering, the augmenting DFS and the
order in which free left nodes are tried all go by ascending id. Given
the same edge set it always returns the same (canonical) maximum
matching.

Each phase is one level-synchronous numpy BFS that layers the left nodes
by alternating-path distance from the free ones and records the layered
graph as it goes; a sweep from the last layer down that keeps only the
layered edges still leading to a free right node; and the ascending-order
DFS over the kept edges, from the left nodes free at phase start. An edge
the sweep drops leads the DFS only into dead ends, so the matching is the
one the DFS finds over the full edge lists.

Every function takes a :class:`DirectedGraph` as its own plus/minus
split: left node i is node i's out-copy, right node j is node j's
in-copy, and each edge i -> j joins left i to right j. A bipartite
graph on L left and R right nodes is the digraph on L + R nodes with an
edge u -> L + v for each pair (u, v).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .graph import DirectedGraph, edge_positions

_UNSET = -1


@dataclass(frozen=True, eq=False)
class MatchingResult:
    """A matching as read-only int64 mate arrays: ``match_left[u]`` is the
    right node matched to left node u, ``match_right[v]`` the left node
    matched to right node v, -1 where unmatched. Equality is identity."""

    match_left: np.ndarray
    match_right: np.ndarray
    size: int


def _bfs_layers(indptr, right, match_left, match_right) -> tuple:
    """Layer left nodes by alternating-path distance from free left nodes:
    the distances (-1 beyond the last layer searched), the distance at
    which a free right node is first reached (-1 if none), per layer the
    (edges, partners) stepping to the next layer, and the edges from the
    last layer into free right nodes."""
    dist = np.full(match_left.size, _UNSET, dtype=np.int64)
    frontier = np.flatnonzero(match_left == _UNSET)
    dist[frontier] = 0
    steps: list[tuple[np.ndarray, np.ndarray]] = []
    while frontier.size:
        edges = edge_positions(indptr, frontier)
        partners = match_right[right[edges]]
        if (partners == _UNSET).any():
            return dist, len(steps) + 1, steps, edges[partners == _UNSET]
        fresh = dist[partners] == _UNSET
        edges, partners = edges[fresh], partners[fresh]
        dist[partners] = len(steps) + 1
        steps.append((edges, partners))
        frontier = np.flatnonzero(dist == len(steps))
    return dist, _UNSET, steps, frontier


def _live_edges(lefts, left_count, steps, into_free) -> tuple[np.ndarray, np.ndarray]:
    """Mask of the layered edges that lead to a free right node, and the
    left nodes alive through them, settled from the last layer down. A
    node dead at phase start stays dead: augmenting only uses up free
    right nodes, and an edge that gains a layered partner by an
    augmentation shares an edge with that path, so no shortest path can
    use it."""
    keep = np.zeros(lefts.size, dtype=bool)
    keep[into_free] = True
    alive = np.zeros(left_count, dtype=bool)
    alive[lefts[into_free]] = True
    for edges, partners in reversed(steps):
        edges = edges[alive[partners]]
        keep[edges] = True
        alive[lefts[edges]] = True
    return keep, alive


def _augment(root, targets, ptr, end, match_left, match_right, dist, free_dist) -> bool:
    """Iterative DFS for one augmenting path of length ``free_dist``."""
    path: list[tuple[int, int]] = []
    u = root
    while True:
        found = _UNSET
        free = False
        next_dist = dist[u] + 1
        while ptr[u] < end[u]:
            v = targets[ptr[u]]
            ptr[u] += 1
            w = match_right[v]
            if w == _UNSET:
                if next_dist == free_dist:
                    found = v
                    free = True
                    break
            elif dist[w] == next_dist:
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


def maximum_matching(g: DirectedGraph) -> MatchingResult:
    """Compute a canonical maximum matching of ``g``.

    Hopcroft-Karp, O(E * sqrt(V)). Deterministic given the edge set (see
    module docstring); the returned matching is one of possibly many
    maximum matchings.
    """
    n = g.node_count
    match_left = np.full(n, _UNSET, dtype=np.int64)
    match_right = np.full(n, _UNSET, dtype=np.int64)
    while True:
        dist, free_dist, steps, into_free = _bfs_layers(g.indptr, g.dst, match_left, match_right)
        if free_dist == _UNSET:
            break
        keep, alive = _live_edges(g.src, n, steps, into_free)
        bounds = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(g.src[keep], minlength=n), out=bounds[1:])
        roots = np.flatnonzero((match_left == _UNSET) & alive).tolist()
        targets, ptr, end = g.dst[keep].tolist(), bounds[:-1].tolist(), bounds[1:].tolist()
        ml, mr, dl = match_left.tolist(), match_right.tolist(), dist.tolist()
        found = [_augment(u, targets, ptr, end, ml, mr, dl, free_dist) for u in roots]
        if not any(found):  # the BFS saw a path, so a sound sweep keeps one
            raise RuntimeError("a Hopcroft-Karp phase found no augmenting path")
        match_left, match_right = np.array(ml, dtype=np.int64), np.array(mr, dtype=np.int64)

    match_left.flags.writeable = False
    match_right.flags.writeable = False
    return MatchingResult(match_left, match_right, int(np.count_nonzero(match_left != _UNSET)))


def _validate_matching(g: DirectedGraph, m: MatchingResult) -> None:
    match_left, match_right = m.match_left, m.match_right
    if match_left.shape != (g.node_count,) or match_right.shape != (g.node_count,):
        raise ContractViolationError("mate arrays do not fit the graph's node counts")
    # a matched left node must find its mate among the right ends of its edges
    on_edge = np.zeros(g.node_count, dtype=bool)
    on_edge[g.src[match_left[g.src] == g.dst]] = True
    stray = (match_left != _UNSET) & ~on_edge
    if stray.any():
        u = int(stray.argmax())
        raise ContractViolationError(
            f"matching pair ({u}, {match_left[u]}) is not a bipartite edge"
        )
    matched = np.flatnonzero(match_left != _UNSET)
    if ((match_right[match_left[matched]] != matched).any()
            or np.count_nonzero(match_right != _UNSET) != matched.size):
        raise ContractViolationError("mate arrays do not form a matching")
    if m.size != matched.size:
        raise ContractViolationError("size does not match the mate arrays")


def verify_maximality(g: DirectedGraph, m: MatchingResult) -> bool:
    """Certificate check: true iff no augmenting path exists for ``m``,
    i.e. the Hopcroft-Karp BFS from its free left nodes reaches no free
    right node.

    Raises ContractViolationError when ``m`` is not a valid matching
    on ``g``.
    """
    _validate_matching(g, m)
    return _bfs_layers(g.indptr, g.dst, m.match_left, m.match_right)[1] == _UNSET


def has_alternate_maximum_matching(g: DirectedGraph, m: MatchingResult) -> bool:
    """True iff a maximum matching different from ``m`` exists; ``m``
    must be a maximum matching of ``g``.

    One O(V + E) pass. Another maximum matching exists iff (a) some node
    ``m`` leaves unmatched has an edge: its other end is matched, since
    ``m`` is maximum, and swapping that edge in for the other end's pair
    keeps the size; or (b) ``m`` has an alternating cycle, i.e. the
    digraph on left nodes with an arc u -> mate(v) for every non-matching
    edge (u, v) has a directed cycle. Test (a) is one vectorised
    expression over the edge arrays; the cycle search runs only when it
    fails.
    """
    n, match_left = g.node_count, m.match_left
    heads = m.match_right[g.dst]
    if ((match_left[g.src] == _UNSET) | (heads == _UNSET)).any():
        return True
    arc = heads != g.src
    tails, heads = g.src[arc], heads[arc]
    bounds = np.searchsorted(tails, np.arange(n + 1)).tolist()
    heads_list = heads.tolist()
    # Kahn's algorithm: a cycle is what remains after peeling sources.
    in_degree = np.bincount(heads, minlength=n).tolist()
    ready = [u for u, d in enumerate(in_degree) if d == 0]
    peeled = 0
    while ready:
        u = ready.pop()
        peeled += 1
        for w in heads_list[bounds[u]:bounds[u + 1]]:
            in_degree[w] -= 1
            if in_degree[w] == 0:
                ready.append(w)
    return peeled < n
