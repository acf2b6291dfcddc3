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

Every function takes a :class:`BipartiteGraph`, or a
:class:`DirectedGraph` as its own plus/minus split (left node i is the
out-copy and right node i the in-copy of node i).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .graph import BipartiteGraph, DirectedGraph, edge_positions

_UNSET = -1


@dataclass(frozen=True, eq=False)
class MatchingResult:
    """A matching as read-only int64 mate arrays: ``match_left[u]`` is the
    right node matched to left node u, ``match_right[v]`` the left node
    matched to right node v, -1 where unmatched. Equality is identity."""

    match_left: np.ndarray
    match_right: np.ndarray
    size: int


def _csr(b: BipartiteGraph | DirectedGraph) -> tuple:
    """(left count, right count, row pointer, left ends, right ends of the edges)."""
    if isinstance(b, DirectedGraph):
        return b.node_count, b.node_count, b.indptr, b.src, b.dst
    return b.left_count, b.right_count, b.indptr, b.left, b.right


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


def maximum_matching(b: BipartiteGraph | DirectedGraph) -> MatchingResult:
    """Compute a canonical maximum matching of ``b``.

    Hopcroft-Karp, O(E * sqrt(V)). Deterministic given the edge set (see
    module docstring); the returned matching is one of possibly many
    maximum matchings.
    """
    left_count, right_count, indptr, lefts, right = _csr(b)
    match_left = np.full(left_count, _UNSET, dtype=np.int64)
    match_right = np.full(right_count, _UNSET, dtype=np.int64)
    while True:
        dist, free_dist, steps, into_free = _bfs_layers(indptr, right, match_left, match_right)
        if free_dist == _UNSET:
            break
        keep, alive = _live_edges(lefts, left_count, steps, into_free)
        bounds = np.zeros(left_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(lefts[keep], minlength=left_count), out=bounds[1:])
        roots = np.flatnonzero((match_left == _UNSET) & alive).tolist()
        targets, ptr, end = right[keep].tolist(), bounds[:-1].tolist(), bounds[1:].tolist()
        ml, mr, dl = match_left.tolist(), match_right.tolist(), dist.tolist()
        found = [_augment(u, targets, ptr, end, ml, mr, dl, free_dist) for u in roots]
        if not any(found):  # the BFS saw a path, so a sound sweep keeps one
            raise RuntimeError("a Hopcroft-Karp phase found no augmenting path")
        match_left, match_right = np.array(ml, dtype=np.int64), np.array(mr, dtype=np.int64)

    match_left.flags.writeable = False
    match_right.flags.writeable = False
    return MatchingResult(match_left, match_right, int(np.count_nonzero(match_left != _UNSET)))


def _validate_matching(b: BipartiteGraph | DirectedGraph, m: MatchingResult) -> None:
    left_count, right_count, _, lefts, right = _csr(b)
    match_left, match_right = m.match_left, m.match_right
    if match_left.shape != (left_count,) or match_right.shape != (right_count,):
        raise ContractViolationError("mate arrays do not fit the graph's node counts")
    # a matched left node must find its mate among the right ends of its edges
    on_edge = np.zeros(left_count, dtype=bool)
    on_edge[lefts[match_left[lefts] == right]] = True
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


def verify_maximality(b: BipartiteGraph | DirectedGraph, m: MatchingResult) -> bool:
    """Certificate check: true iff no augmenting path exists for ``m``,
    i.e. the Hopcroft-Karp BFS from its free left nodes reaches no free
    right node.

    Raises ContractViolationError when ``m`` is not a valid matching
    on ``b``.
    """
    _validate_matching(b, m)
    _, _, indptr, _, right = _csr(b)
    return _bfs_layers(indptr, right, m.match_left, m.match_right)[1] == _UNSET


def has_alternate_maximum_matching(b: BipartiteGraph | DirectedGraph,
                                   m: MatchingResult) -> bool:
    """True iff a maximum matching different from ``m`` exists; ``m``
    must be a maximum matching of ``b``.

    One O(V + E) pass. Another maximum matching exists iff (a) some node
    ``m`` leaves unmatched has an edge: its other end is matched, since
    ``m`` is maximum, and swapping that edge in for the other end's pair
    keeps the size; or (b) ``m`` has an alternating cycle, i.e. the
    digraph on left nodes with an arc u -> mate(v) for every non-matching
    edge (u, v) has a directed cycle. Test (a) is one vectorised
    expression over the edge arrays; the cycle search runs only when it
    fails.
    """
    left_count, _, _, lefts, right = _csr(b)
    match_left, match_right = m.match_left, m.match_right
    heads = match_right[right]
    if ((match_left[lefts] == _UNSET) | (heads == _UNSET)).any():
        return True
    arc = heads != lefts
    tails, heads = lefts[arc], heads[arc]
    bounds = np.searchsorted(tails, np.arange(left_count + 1)).tolist()
    heads_list = heads.tolist()
    # Kahn's algorithm: a cycle is what remains after peeling sources.
    in_degree = np.bincount(heads, minlength=left_count).tolist()
    ready = [u for u, d in enumerate(in_degree) if d == 0]
    peeled = 0
    while ready:
        u = ready.pop()
        peeled += 1
        for w in heads_list[bounds[u]:bounds[u + 1]]:
            in_degree[w] -= 1
            if in_degree[w] == 0:
                ready.append(w)
    return peeled < left_count
