from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netctl.generators import GeneratorSpec, generate
from netctl.graph import DirectedGraph, to_line_digraph
from netctl.matching import (
    MatchingResult,
    _bfs_layers,
    _live_edges,
    has_alternate_maximum_matching,
    maximum_matching,
)

from .conftest import bipartite_graphs, directed_graphs
from .oracles import (
    bfs_layers_reference,
    has_alternate_maximum_matching_reference,
    konig_certificate_holds,
    layered_edges_reference,
    max_matching_size_brute,
    maximum_matching_reference,
)


def result_from_pairs(g: DirectedGraph, pairs) -> MatchingResult:
    """Mate arrays holding ``pairs``; when two pairs share an end, the
    later one wins that end's slot, so the arrays disagree."""
    match_left = np.full(g.node_count, -1, dtype=np.int64)
    match_right = np.full(g.node_count, -1, dtype=np.int64)
    for left, right in pairs:
        match_left[left] = right
        match_right[right] = left
    return MatchingResult(match_left, match_right, size=len(pairs))


def pairs_of(m: MatchingResult) -> frozenset[tuple[int, int]]:
    """The (left, right) pairs of ``m``, read from its left mates."""
    return frozenset((u, v) for u, v in enumerate(m.match_left.tolist()) if v != -1)


def mates_of(m: MatchingResult) -> tuple[list[int], list[int], int]:
    """Everything ``m`` holds, as plain values that compare with ==."""
    return m.match_left.tolist(), m.match_right.tolist(), m.size


def unmatched_right(m: MatchingResult) -> set[int]:
    return set(np.flatnonzero(m.match_right == -1).tolist())


class TestMaximumMatching:
    def test_star(self, star):
        m = maximum_matching(star)
        assert m.size == 1
        assert 0 in unmatched_right(m)
        assert len(unmatched_right(m) & {1, 2}) == 1

    def test_cycle_is_perfectly_matched(self, three_cycle):
        m = maximum_matching(three_cycle)
        assert m.size == 3
        assert unmatched_right(m) == set()

    def test_reciprocal_chain_line_digraph(self, reciprocal_chain):
        # independently verified by exhaustive enumeration over the
        # 4-node edge-space graph: every maximum matching has size 2
        ld = to_line_digraph(reciprocal_chain)
        m = maximum_matching(ld.graph)
        assert m.size == 2

    def test_deterministic_canonical_result(self, star):
        b = star
        assert mates_of(maximum_matching(b)) == mates_of(maximum_matching(b))
        # ascending-id exploration matches left 0 to right 1 first
        assert pairs_of(maximum_matching(b)) == frozenset({(0, 1)})

    def test_empty_graph(self):
        m = maximum_matching(DirectedGraph(0, ()))
        assert m.size == 0 and pairs_of(m) == frozenset()

    @given(bipartite_graphs())
    def test_size_matches_brute_force(self, b):
        expected = max_matching_size_brute(b)
        assert maximum_matching(b).size == expected

    @given(bipartite_graphs(max_left=7, max_right=7), st.randoms(use_true_random=False))
    def test_size_invariant_under_edge_permutation(self, b, rnd):
        edges = list(b.edges)
        rnd.shuffle(edges)
        permuted = DirectedGraph(b.node_count, tuple(edges))
        assert maximum_matching(permuted).size == maximum_matching(b).size

    @given(bipartite_graphs())
    def test_result_is_a_valid_matching(self, b):
        m = maximum_matching(b)
        pairs = pairs_of(m)
        lefts = [l for l, _ in pairs]
        rights = [r for _, r in pairs]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        assert pairs <= set(b.edges)
        # the right mates are the same pairs read from the other side
        assert {(l, r) for r, l in enumerate(m.match_right.tolist()) if l != -1} == pairs
        assert m.size == len(pairs)
        for mates in (m.match_left, m.match_right):
            assert mates.dtype == np.int64 and mates.shape == (b.node_count,)
            assert not mates.flags.writeable


    @given(bipartite_graphs())
    def test_same_pairs_as_reference_solver(self, b):
        assert mates_of(maximum_matching(b)) == mates_of(maximum_matching_reference(b))

    @given(directed_graphs(max_nodes=12))
    def test_digraph_is_its_own_split(self, g):
        reference = maximum_matching_reference(g)
        assert mates_of(maximum_matching(g)) == mates_of(reference)

    def test_edgeless_and_isolated_nodes(self):
        # bipartite (5, 0), (0, 4) and (4, 6) graphs on L + R nodes
        for b in (DirectedGraph(5, ()), DirectedGraph(4, ()), DirectedGraph(10, ((3, 9),))):
            assert mates_of(maximum_matching(b)) == mates_of(maximum_matching_reference(b))

    @pytest.mark.parametrize("model, n, k, seed", [
        ("er", 500, 1.0, 1), ("er", 500, 2.5, 2), ("er", 500, 4.0, 3),
        ("er", 500, 8.0, 4), ("sf", 500, 2.0, 5), ("sf", 500, 4.0, 6),
        ("er", 2000, 4.0, 7), ("sf", 2000, 2.0, 8),
    ])
    def test_same_pairs_as_reference_on_generated_graphs(self, model, n, k, seed):
        g = generate(GeneratorSpec(model=model, n=n, mean_degree=k, gamma=2.5, seed=seed))
        reference = maximum_matching_reference(g)
        assert mates_of(maximum_matching(g)) == mates_of(reference)


class TestLayeredGraph:
    """The layered graph the BFS records, swept for liveness, keeps the
    same edges and alive nodes as recomputing every edge's layer."""

    @staticmethod
    def check_against_reference(b, data):
        # any matching: a drawn edge set, minus the edges that share an end
        drawn = data.draw(st.sets(st.sampled_from(b.edges))) if b.edges else set()
        pairs, lefts_used, rights_used = [], set(), set()
        for left, right in sorted(drawn):
            if left not in lefts_used and right not in rights_used:
                pairs.append((left, right))
                lefts_used.add(left)
                rights_used.add(right)
        m = result_from_pairs(b, pairs)
        dist, free_dist, steps, into_free = _bfs_layers(b.indptr, b.dst, m.match_left,
                                                        m.match_right)
        ref_dist, ref_free_dist = bfs_layers_reference(b, m)
        assert free_dist == ref_free_dist
        assert np.array_equal(dist, ref_dist)
        if free_dist == -1:
            assert m.size == maximum_matching_reference(b).size
            return
        keep, alive = _live_edges(b.src, b.node_count, steps, into_free)
        ref_keep, ref_alive = layered_edges_reference(b.src, b.dst, ref_dist, free_dist,
                                                      m.match_right)
        assert np.array_equal(keep, ref_keep)
        assert np.array_equal(alive, ref_alive)

    # a few percent of drawn matchings leave a dead branch in the layered
    # graph, so these run more examples than the suite's default
    @settings(max_examples=300)
    @given(bipartite_graphs(), st.data())
    def test_bipartite_graphs(self, b, data):
        self.check_against_reference(b, data)

    @settings(max_examples=300)
    @given(directed_graphs(max_nodes=12), st.data())
    def test_digraph_splits(self, g, data):
        self.check_against_reference(g, data)

    def test_dead_branch_is_dropped(self):
        # free left 0 reaches matched left 1, whose only edge is its own
        # pair; free left 2 reaches matched left 3, which has a free right.
        # Rights 0-2 are nodes 4-6, free lefts without edges.
        b = DirectedGraph(7, ((0, 4), (1, 4), (2, 5), (3, 5), (3, 6)))
        m = result_from_pairs(b, [(1, 4), (3, 5)])
        dist, free_dist, steps, into_free = _bfs_layers(b.indptr, b.dst, m.match_left,
                                                        m.match_right)
        assert dist.tolist() == [0, 1, 0, 1, 0, 0, 0] and free_dist == 2
        keep, alive = _live_edges(b.src, b.node_count, steps, into_free)
        assert keep.tolist() == [False, False, True, False, True]
        assert alive.tolist() == [False, False, True, True, False, False, False]


class TestVerifyMaximality:
    """Maximality as the König-cover certificate of tests/oracles.py sees
    it: a valid matching plus a vertex cover of the same size."""

    def test_star_canonical_matching_is_maximal(self, star):
        # the only competing matching {(0, 2)} also has size 1
        b = star
        assert konig_certificate_holds(b, result_from_pairs(b, {(0, 1)}))

    def test_star_empty_matching_is_not_maximal(self, star):
        b = star
        assert not konig_certificate_holds(b, result_from_pairs(b, set()))

    def test_perfect_matching_is_maximal(self, three_cycle):
        b = three_cycle
        pairs = {(0, 1), (1, 2), (2, 0)}
        assert konig_certificate_holds(b, result_from_pairs(b, pairs))

    def test_rejects_non_matching(self, star):
        b = star
        assert not konig_certificate_holds(b, result_from_pairs(b, {(0, 1), (0, 2)}))

    def test_rejects_pair_that_is_not_an_edge(self, star):
        b = star
        assert not konig_certificate_holds(b, result_from_pairs(b, {(1, 0)}))

    def test_rejects_inconsistent_bookkeeping(self, star):
        b = star
        m = result_from_pairs(b, {(0, 1)})
        assert not konig_certificate_holds(b, MatchingResult(m.match_left, m.match_right, size=7))
        short = MatchingResult(m.match_left[:-1], m.match_right, size=1)
        assert not konig_certificate_holds(b, short)

    @given(bipartite_graphs(), st.data())
    def test_rejects_any_corrupted_pair(self, b, data):
        m = maximum_matching(b)
        assume(m.size)
        left = data.draw(st.sampled_from(np.flatnonzero(m.match_left != -1).tolist()))
        right = int(m.match_left[left])
        match_left, match_right = m.match_left.copy(), m.match_right.copy()
        strangers = sorted(set(range(b.node_count)) - {r for l, r in b.edges if l == left})
        kinds = ["left only", "right only"]
        if b.node_count > 1:
            kinds.append("other left")
        if strangers:
            kinds.append("non-neighbour")
        how = data.draw(st.sampled_from(kinds))
        if how == "left only":
            match_right[right] = -1
        elif how == "right only":
            match_left[left] = -1
        elif how == "other left":
            match_right[right] = data.draw(st.sampled_from(
                [u for u in range(b.node_count) if u != left]))
        else:
            stranger = data.draw(st.sampled_from(strangers))
            match_left[left], match_right[right] = stranger, -1
            match_right[stranger] = left
        size = int(np.count_nonzero(match_left != -1))  # only the arrays disagree
        assert not konig_certificate_holds(b, MatchingResult(match_left, match_right, size))

    @given(bipartite_graphs())
    def test_canonical_matching_always_verifies(self, b):
        assert konig_certificate_holds(b, maximum_matching(b))

    @given(directed_graphs(max_nodes=12))
    def test_canonical_matching_verifies_on_digraph_splits(self, g):
        assert konig_certificate_holds(g, maximum_matching(g))

    def test_empty_graph_verifies(self):
        empty = DirectedGraph(0, ())
        assert konig_certificate_holds(empty, maximum_matching(empty))

    @given(bipartite_graphs(), st.data())
    def test_dropping_any_pair_is_not_maximal(self, b, data):
        pairs = pairs_of(maximum_matching(b))
        assume(pairs)
        dropped = data.draw(st.sampled_from(sorted(pairs)))
        assert not konig_certificate_holds(b, result_from_pairs(b, pairs - {dropped}))


class TestAlternateMatchings:
    def test_star_has_alternates(self, star):
        b = star
        assert has_alternate_maximum_matching(b, maximum_matching(b)) is True

    def test_cycle_matching_is_unique(self, three_cycle):
        b = three_cycle
        assert has_alternate_maximum_matching(b, maximum_matching(b)) is False

    def test_single_edge_is_unique(self):
        b = DirectedGraph(4, ((0, 3),))  # bipartite (2, 2): left 0 to right 1
        assert has_alternate_maximum_matching(b, maximum_matching(b)) is False

    @given(bipartite_graphs(max_left=7, max_right=7))
    def test_same_answer_as_resolving_without_each_pair(self, b):
        m = maximum_matching(b)
        expected = has_alternate_maximum_matching_reference(b, m)
        assert has_alternate_maximum_matching(b, m) is expected

    @given(directed_graphs(max_nodes=9))
    def test_same_answer_on_digraph_splits(self, g):
        m = maximum_matching(g)
        expected = has_alternate_maximum_matching_reference(g, m)
        assert has_alternate_maximum_matching(g, m) is expected

    def test_alternating_cycle_without_free_nodes(self):
        # K(2, 2), rights 0 and 1 as nodes 2 and 3, is perfectly matched,
        # so no node with an edge is free; the other perfect matching
        # lies along the alternating 4-cycle
        b = DirectedGraph(4, ((0, 2), (0, 3), (1, 2), (1, 3)))
        m = maximum_matching(b)
        assert m.size == 2
        assert has_alternate_maximum_matching(b, m) is True
