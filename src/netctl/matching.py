"""Maximum-cardinality bipartite matching (Hopcroft-Karp) over CSR arrays.

The solver is deterministic: BFS layering, the augmenting DFS and the
order in which free left nodes are tried all go by ascending id. Given
the same edge set it always returns the same (canonical) maximum
matching.

Each phase runs in three steps: a level-synchronous numpy BFS that
gives every left node its exact alternating-path distance from the free
left nodes (up to the first layer that reaches a free right node); a
numpy filter that keeps only the edges of that phase's layered graph
that still lead to a free right node; and the ascending-order DFS over
those edges, from the left nodes that are free at phase start. An edge
the filter drops leads the DFS only into dead ends, so the matching is
the one the DFS finds over the full edge lists.

Every function takes a :class:`BipartiteGraph`, or a
:class:`DirectedGraph` as its own plus/minus split (left node i is the
out-copy and right node i the in-copy of node i).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .graph import BipartiteGraph, DirectedGraph

_UNSET = -1


@dataclass(frozen=True)
class MatchingResult:
    """A maximum matching together with the right-side partition it
    induces (matched vs unmatched in-copies)."""

    pairs: frozenset[tuple[int, int]]
    matched_right: frozenset[int]
    unmatched_right: frozenset[int]
    size: int


def _csr(b: BipartiteGraph | DirectedGraph) -> tuple[int, int, np.ndarray, np.ndarray]:
    """(left count, right count, row pointer, right end of each edge)."""
    if isinstance(b, DirectedGraph):
        return b.node_count, b.node_count, b.indptr, b.dst
    return b.left_count, b.right_count, b.indptr, b.right


def _adjacency(b: BipartiteGraph | DirectedGraph) -> list[list[int]]:
    left_count, _, indptr, right = _csr(b)
    targets, bounds = right.tolist(), indptr.tolist()
    return [targets[bounds[u]:bounds[u + 1]] for u in range(left_count)]


def _bfs_layers(indptr, right, match_left, match_right) -> tuple[np.ndarray, int]:
    """Layer left nodes by alternating-path distance from free left nodes.

    Returns the distances (-1 beyond the last layer searched) and the
    distance at which a free right node is first reached, or -1 when no
    augmenting path exists.
    """
    dist = np.full(match_left.size, _UNSET, dtype=np.int64)
    frontier = np.flatnonzero(match_left == _UNSET)
    dist[frontier] = 0
    level = 0
    while frontier.size:
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        offsets = np.cumsum(counts) - counts
        edge_ids = np.repeat(starts - offsets, counts) + np.arange(counts.sum())
        partners = match_right[right[edge_ids]]
        if (partners == _UNSET).any():
            return dist, level + 1
        level += 1
        dist[partners[dist[partners] == _UNSET]] = level
        frontier = np.flatnonzero(dist == level)
    return dist, _UNSET


def _layered_edges(lefts, right, dist, free_dist, match_right) -> tuple[np.ndarray, np.ndarray]:
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
    left_count, right_count, indptr, right = _csr(b)
    lefts = np.repeat(np.arange(left_count), np.diff(indptr))
    match_left = np.full(left_count, _UNSET, dtype=np.int64)
    match_right = np.full(right_count, _UNSET, dtype=np.int64)
    while True:
        dist, free_dist = _bfs_layers(indptr, right, match_left, match_right)
        if free_dist == _UNSET:
            break
        keep, alive = _layered_edges(lefts, right, dist, free_dist, match_right)
        bounds = np.zeros(left_count + 1, dtype=np.int64)
        np.cumsum(np.bincount(lefts[keep], minlength=left_count), out=bounds[1:])
        roots = np.flatnonzero((match_left == _UNSET) & alive).tolist()
        targets, ptr, end = right[keep].tolist(), bounds[:-1].tolist(), bounds[1:].tolist()
        ml, mr, dl = match_left.tolist(), match_right.tolist(), dist.tolist()
        found = [_augment(u, targets, ptr, end, ml, mr, dl, free_dist) for u in roots]
        if not any(found):  # the BFS saw a path, so a sound filter keeps one
            raise RuntimeError("a Hopcroft-Karp phase found no augmenting path")
        match_left, match_right = np.array(ml, dtype=np.int64), np.array(mr, dtype=np.int64)

    matched = np.flatnonzero(match_left != _UNSET)
    return MatchingResult(
        pairs=frozenset(zip(matched.tolist(), match_left[matched].tolist())),
        matched_right=frozenset(np.flatnonzero(match_right != _UNSET).tolist()),
        unmatched_right=frozenset(np.flatnonzero(match_right == _UNSET).tolist()),
        size=matched.size,
    )


def _validate_matching(b: BipartiteGraph | DirectedGraph, m: MatchingResult) -> None:
    _, right_count, _, _ = _csr(b)
    edge_set = set(b.edges)
    lefts: set[int] = set()
    rights: set[int] = set()
    for left, right in m.pairs:
        if (left, right) not in edge_set:
            raise ContractViolationError(
                f"matching pair ({left}, {right}) is not a bipartite edge"
            )
        if left in lefts or right in rights:
            raise ContractViolationError("pairs do not form a matching")
        lefts.add(left)
        rights.add(right)
    if m.size != len(m.pairs):
        raise ContractViolationError("size does not match |pairs|")
    if m.matched_right != frozenset(rights):
        raise ContractViolationError("matched_right inconsistent with pairs")
    if m.unmatched_right != frozenset(range(right_count)) - rights:
        raise ContractViolationError("unmatched_right inconsistent with pairs")


def _mates(b: BipartiteGraph | DirectedGraph, m: MatchingResult) -> tuple[list[int], list[int]]:
    left_count, right_count, _, _ = _csr(b)
    match_left = [_UNSET] * left_count
    match_right = [_UNSET] * right_count
    for left, right in m.pairs:
        match_left[left] = right
        match_right[right] = left
    return match_left, match_right


def verify_maximality(b: BipartiteGraph | DirectedGraph, m: MatchingResult) -> bool:
    """Certificate check: true iff no augmenting path exists for ``m``.

    Raises ContractViolationError when ``m`` is not a valid matching
    on ``b``.
    """
    _validate_matching(b, m)
    adj = _adjacency(b)
    match_left, match_right = _mates(b, m)

    visited = [False] * len(adj)
    queue: deque[int] = deque()
    for u in range(len(adj)):
        if match_left[u] == _UNSET:
            visited[u] = True
            queue.append(u)
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            w = match_right[v]
            if w == _UNSET:
                return False
            if not visited[w]:
                visited[w] = True
                queue.append(w)
    return True


def has_alternate_maximum_matching(b: BipartiteGraph | DirectedGraph,
                                   m: MatchingResult) -> bool:
    """True iff a maximum matching different from ``m`` exists; ``m``
    must be a maximum matching of ``b``.

    One O(V + E) pass. Another maximum matching exists iff (a) some node
    ``m`` leaves unmatched has an edge: its other end is matched, since
    ``m`` is maximum, and swapping that edge in for the other end's pair
    keeps the size; or (b) ``m`` has an alternating cycle, i.e. the
    digraph on left nodes with an arc u -> mate(v) for every non-matching
    edge (u, v) has a directed cycle.
    """
    adj = _adjacency(b)
    match_left, match_right = _mates(b, m)
    successors: list[list[int]] = [[] for _ in adj]
    for u, targets in enumerate(adj):
        for v in targets:
            w = match_right[v]
            if match_left[u] == _UNSET or w == _UNSET:
                return True
            if w != u:
                successors[u].append(w)
    # Kahn's algorithm: a cycle is what remains after peeling sources.
    in_degree = [0] * len(adj)
    for arcs in successors:
        for w in arcs:
            in_degree[w] += 1
    ready = [u for u, d in enumerate(in_degree) if d == 0]
    peeled = 0
    while ready:
        u = ready.pop()
        peeled += 1
        for w in successors[u]:
            in_degree[w] -= 1
            if in_degree[w] == 0:
                ready.append(w)
    return peeled < len(adj)
