from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from netctl.errors import ContractViolationError
from netctl.generators import GeneratorSpec, generate
from netctl.graph import BipartiteGraph, to_bipartite, to_line_digraph
from netctl.matching import (
    MatchingResult,
    has_alternate_maximum_matching,
    maximum_matching,
    verify_maximality,
)

from .conftest import bipartite_graphs, directed_graphs
from .oracles import (
    has_alternate_maximum_matching_reference,
    max_matching_size_brute,
    maximum_matching_reference,
)


def result_from_pairs(b: BipartiteGraph, pairs) -> MatchingResult:
    pairs = frozenset(pairs)
    matched = frozenset(r for _, r in pairs)
    return MatchingResult(
        pairs=pairs,
        matched_right=matched,
        unmatched_right=frozenset(range(b.right_count)) - matched,
        size=len(pairs),
    )


class TestMaximumMatching:
    def test_star(self, star):
        m = maximum_matching(to_bipartite(star))
        assert m.size == 1
        assert 0 in m.unmatched_right
        assert len(m.unmatched_right & {1, 2}) == 1

    def test_cycle_is_perfectly_matched(self, three_cycle):
        m = maximum_matching(to_bipartite(three_cycle))
        assert m.size == 3
        assert m.unmatched_right == frozenset()

    def test_reciprocal_chain_line_digraph(self, reciprocal_chain):
        # independently verified by exhaustive enumeration over the
        # 4-node edge-space graph: every maximum matching has size 2
        ld = to_line_digraph(reciprocal_chain)
        m = maximum_matching(to_bipartite(ld.graph))
        assert m.size == 2

    def test_deterministic_canonical_result(self, star):
        b = to_bipartite(star)
        assert maximum_matching(b) == maximum_matching(b)
        # ascending-id exploration matches left 0 to right 1 first
        assert maximum_matching(b).pairs == frozenset({(0, 1)})

    def test_empty_graph(self):
        m = maximum_matching(BipartiteGraph(0, 0, ()))
        assert m.size == 0 and m.pairs == frozenset()

    @given(bipartite_graphs())
    def test_size_matches_brute_force(self, b):
        expected = max_matching_size_brute(b.left_count, b.right_count, b.edges)
        assert maximum_matching(b).size == expected

    @given(bipartite_graphs(max_left=7, max_right=7), st.randoms(use_true_random=False))
    def test_size_invariant_under_edge_permutation(self, b, rnd):
        edges = list(b.edges)
        rnd.shuffle(edges)
        permuted = BipartiteGraph(b.left_count, b.right_count, tuple(edges))
        assert maximum_matching(permuted).size == maximum_matching(b).size

    @given(bipartite_graphs())
    def test_result_is_a_valid_matching(self, b):
        m = maximum_matching(b)
        lefts = [l for l, _ in m.pairs]
        rights = [r for _, r in m.pairs]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        assert set(m.pairs) <= set(b.edges)
        assert m.matched_right | m.unmatched_right == set(range(b.right_count))
        assert not m.matched_right & m.unmatched_right


    @given(bipartite_graphs())
    def test_same_pairs_as_reference_solver(self, b):
        assert maximum_matching(b) == maximum_matching_reference(b)

    @given(directed_graphs(max_nodes=12))
    def test_digraph_is_its_own_split(self, g):
        assert maximum_matching(g) == maximum_matching_reference(to_bipartite(g))

    def test_edgeless_and_isolated_nodes(self):
        for b in (BipartiteGraph(5, 0, ()), BipartiteGraph(0, 4, ()),
                  BipartiteGraph(4, 6, ((3, 5),))):
            assert maximum_matching(b) == maximum_matching_reference(b)

    @pytest.mark.parametrize("model, n, k, seed", [
        ("er", 500, 1.0, 1), ("er", 500, 2.5, 2), ("er", 500, 4.0, 3),
        ("er", 500, 8.0, 4), ("sf", 500, 2.0, 5), ("sf", 500, 4.0, 6),
        ("er", 2000, 4.0, 7), ("sf", 2000, 2.0, 8),
    ])
    def test_same_pairs_as_reference_on_generated_graphs(self, model, n, k, seed):
        g = generate(GeneratorSpec(model=model, n=n, mean_degree=k, gamma=2.5, seed=seed))
        assert maximum_matching(g) == maximum_matching_reference(to_bipartite(g))


class TestVerifyMaximality:
    def test_star_canonical_matching_is_maximal(self, star):
        # the only competing matching {(0, 2)} also has size 1
        b = to_bipartite(star)
        assert verify_maximality(b, result_from_pairs(b, {(0, 1)})) is True

    def test_star_empty_matching_is_not_maximal(self, star):
        b = to_bipartite(star)
        assert verify_maximality(b, result_from_pairs(b, set())) is False

    def test_perfect_matching_is_maximal(self, three_cycle):
        b = to_bipartite(three_cycle)
        pairs = {(0, 1), (1, 2), (2, 0)}
        assert verify_maximality(b, result_from_pairs(b, pairs)) is True

    def test_rejects_non_matching(self, star):
        b = to_bipartite(star)
        with pytest.raises(ContractViolationError):
            verify_maximality(b, result_from_pairs(b, {(0, 1), (0, 2)}))

    def test_rejects_pair_that_is_not_an_edge(self, star):
        b = to_bipartite(star)
        with pytest.raises(ContractViolationError):
            verify_maximality(b, result_from_pairs(b, {(1, 0)}))

    def test_rejects_inconsistent_bookkeeping(self, star):
        b = to_bipartite(star)
        m = result_from_pairs(b, {(0, 1)})
        broken = MatchingResult(m.pairs, m.matched_right, m.unmatched_right, size=7)
        with pytest.raises(ContractViolationError):
            verify_maximality(b, broken)

    @given(bipartite_graphs())
    def test_canonical_matching_always_verifies(self, b):
        assert verify_maximality(b, maximum_matching(b)) is True


class TestAlternateMatchings:
    def test_star_has_alternates(self, star):
        b = to_bipartite(star)
        assert has_alternate_maximum_matching(b, maximum_matching(b)) is True

    def test_cycle_matching_is_unique(self, three_cycle):
        b = to_bipartite(three_cycle)
        assert has_alternate_maximum_matching(b, maximum_matching(b)) is False

    def test_single_edge_is_unique(self):
        b = BipartiteGraph(2, 2, ((0, 1),))
        assert has_alternate_maximum_matching(b, maximum_matching(b)) is False

    @given(bipartite_graphs(max_left=7, max_right=7))
    def test_same_answer_as_resolving_without_each_pair(self, b):
        m = maximum_matching(b)
        expected = has_alternate_maximum_matching_reference(b, m)
        assert has_alternate_maximum_matching(b, m) is expected

    @given(directed_graphs(max_nodes=9))
    def test_same_answer_on_digraph_splits(self, g):
        m = maximum_matching(g)
        expected = has_alternate_maximum_matching_reference(to_bipartite(g), m)
        assert has_alternate_maximum_matching(g, m) is expected

    def test_alternating_cycle_without_free_nodes(self):
        # K(2, 2) is perfectly matched, so no node is free; the other
        # perfect matching lies along the alternating 4-cycle
        b = BipartiteGraph(2, 2, ((0, 0), (0, 1), (1, 0), (1, 1)))
        m = maximum_matching(b)
        assert m.size == 2
        assert has_alternate_maximum_matching(b, m) is True
