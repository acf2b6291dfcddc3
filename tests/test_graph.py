from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netctl.errors import EdgeListParseError, EmptyGraphError, SelfLoopError
from netctl.graph import (
    BipartiteGraph,
    DirectedGraph,
    _scan_ids,
    _scan_lines,
    compute_stats,
    parse_edge_list,
    parse_edge_list_report,
    serialize_edge_list,
    to_bipartite,
    to_line_digraph,
)

from .conftest import directed_graphs

#: Pieces of edge-list text, valid and not, for the scanner-equivalence test.
TEXT_PIECES = [
    "0", "1", "7", "12", "007", "999999999999999999", "1000000000000000000",
    "18446744073709551616", " ", "  ", "\t", "\n", "\n", "\n", "\r\n", "\r",
    "#", "# note", "x", "-1", "+3", "1_0", "\u0663", "\x0c", "\u2028", "\u00e9",
]


class TestDirectedGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph(2, ((0, 0),))

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph(2, ((0, 1), (0, 1)))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph(2, ((0, 2),))

    def test_degrees(self, star):
        outs, ins = star.degrees()
        assert outs == [2, 0, 0]
        assert ins == [0, 1, 1]

    def test_sorted_read_only_csr_layout(self):
        g = DirectedGraph(3, ((2, 0), (0, 2), (0, 1)))
        assert g.src.tolist() == [0, 0, 2]
        assert g.dst.tolist() == [1, 2, 0]
        assert g.indptr.tolist() == [0, 2, 2, 3]
        assert g.edges == ((0, 1), (0, 2), (2, 0))
        assert g.out_adjacency() == [[1, 2], [], [0]]
        assert DirectedGraph.from_arrays(3, [2, 0, 0], [0, 2, 1]) == g
        with pytest.raises(ValueError):
            g.src[0] = 1

    def test_from_arrays_runs_the_same_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph.from_arrays(2, [0, 1], [1, 1])
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph.from_arrays(2, [1, 0, 1], [0, 1, 0])
        with pytest.raises(ValueError, match="out of range"):
            DirectedGraph.from_arrays(2, [0], [-1])


class TestParse:
    def test_direct_transcription(self):
        g = parse_edge_list("0 1\n0 2")
        assert g.node_count == 3
        assert set(g.edges) == {(0, 1), (0, 2)}

    def test_remap_and_comment_skip(self):
        parsed = parse_edge_list_report("# comment\n5 9\n9 5")
        assert parsed.graph.node_count == 2
        assert set(parsed.graph.edges) == {(0, 1), (1, 0)}
        assert parsed.original_ids == (5, 9)

    def test_self_loop_rejected_with_node_and_line(self):
        with pytest.raises(SelfLoopError) as err:
            parse_edge_list("3 3")
        assert err.value.node == 3
        assert err.value.line == 1

    def test_malformed_line_reports_line_number(self):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list("0 1\n0 1 2")
        assert err.value.line == 2

    def test_non_integer_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 x")

    def test_negative_id_rejected(self):
        with pytest.raises(EdgeListParseError):
            parse_edge_list("0 -1")

    @pytest.mark.parametrize("bad", [
        "1_0 2",        # int() reads node 10
        "+3 4",         # int() reads node 3
        "\u0663 4",     # ARABIC-INDIC DIGIT THREE: int() reads node 3
        "0x1 2",
        "1 2 # trailing comment",
        "1\x0c2",       # form feed is not a separator
        "1 2\u20283 4",  # nor is LINE SEPARATOR
    ])
    def test_only_ascii_digit_ids_are_accepted(self, bad):
        with pytest.raises(EdgeListParseError) as err:
            parse_edge_list(f"0 1\n{bad}\n5 6")
        assert err.value.line == 2

    def test_invalid_utf8_names_the_line(self):
        with pytest.raises(EdgeListParseError, match="UTF-8") as err:
            parse_edge_list(b"# caf\xc3\xa9\n0 1\n2 \xff3\n")
        assert err.value.line == 3

    def test_comments_may_hold_any_utf8(self):
        parsed = parse_edge_list_report("# caf\u00e9 \u0663 1_0\r\n  # x\n4 5\r\n")
        assert parsed.original_ids == (4, 5)
        assert parsed.graph.edges == ((0, 1),)

    def test_ids_beyond_int64_keep_their_order(self):
        parsed = parse_edge_list_report(
            "18446744073709551616 9223372036854775807\n"
            "9223372036854775807 007\n"
            "999999999999999999 18446744073709551616\n"
        )
        assert parsed.original_ids == (
            7, 999999999999999999, 9223372036854775807, 18446744073709551616,
        )
        assert all(type(i) is int for i in parsed.original_ids)
        assert parsed.graph.edges == ((1, 3), (2, 0), (3, 2))

    @settings(max_examples=400)
    @given(st.lists(st.sampled_from(TEXT_PIECES), max_size=30))
    def test_vectorised_and_line_scans_agree(self, pieces):
        text = "".join(pieces)
        fast = _scan_ids(text.encode())
        try:
            expected = _scan_lines(text)
        except EdgeListParseError:
            assert fast is None
            return
        if fast is None:
            # the one well-formed input left to the line scan: a long id
            id_tokens = [
                token
                for line in text.split("\n")
                if not line.strip(" \t\r").startswith("#")
                for token in line.split()
            ]
            assert max(map(len, id_tokens)) > 18
        else:
            assert [a.tolist() for a in fast] == [a.tolist() for a in expected]

    def test_duplicates_collapsed_and_counted(self):
        parsed = parse_edge_list_report("0 1\n0 1\n1 0")
        assert parsed.graph.edge_count == 2
        assert parsed.raw_edge_count == 3
        assert parsed.duplicate_count == 1

    def test_empty_input_gives_empty_graph(self):
        g = parse_edge_list("# nothing here\n")
        assert g.node_count == 0 and g.edge_count == 0

    @given(
        st.sets(
            st.tuples(st.integers(0, 60), st.integers(0, 60)).filter(
                lambda e: e[0] != e[1]
            )
        )
    )
    def test_parse_serialize_parse_round_trips(self, edges):
        text = "\n".join(f"{s} {t}" for s, t in edges)
        first = parse_edge_list(text)
        second = parse_edge_list(serialize_edge_list(first))
        assert first == second

    def test_serialize_sorts_and_honours_header(self, star):
        text = serialize_edge_list(star, header="hello")
        assert text == "# hello\n0 1\n0 2\n"


class TestBipartite:
    def test_star_split(self, star):
        b = to_bipartite(star)
        assert (b.left_count, b.right_count) == (3, 3)
        assert set(b.edges) == {(0, 1), (0, 2)}

    def test_empty_graph_split(self):
        b = to_bipartite(DirectedGraph(4, ()))
        assert (b.left_count, b.right_count) == (4, 4)
        assert b.edges == ()

    def test_cycle_split(self, three_cycle):
        b = to_bipartite(three_cycle)
        assert set(b.edges) == {(0, 1), (1, 2), (2, 0)}

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            BipartiteGraph(1, 1, ((0, 1),))

    @given(directed_graphs())
    def test_split_is_identity_on_edges(self, g):
        assert set(to_bipartite(g).edges) == set(g.edges)


class TestLineDigraph:
    def test_star_gives_isolated_edge_nodes(self, star):
        ld = to_line_digraph(star)
        assert ld.graph.node_count == 2
        assert ld.graph.edges == ()
        assert ld.edge_of_node == ((0, 1), (0, 2))

    def test_reciprocal_chain(self, reciprocal_chain):
        ld = to_line_digraph(reciprocal_chain)
        assert ld.edge_of_node == ((0, 1), (1, 2), (2, 1), (2, 3))
        # adjacent original edges form paths of length two
        assert set(ld.graph.edges) == {(0, 1), (1, 2), (1, 3), (2, 1)}

    def test_cycle_is_self_dual(self, three_cycle):
        ld = to_line_digraph(three_cycle)
        assert ld.graph.node_count == 3
        assert set(ld.graph.edges) == {(0, 1), (1, 2), (2, 0)}

    def test_empty_graph(self):
        ld = to_line_digraph(DirectedGraph(3, ()))
        assert ld.graph.node_count == 0

    @given(directed_graphs())
    def test_node_count_equals_edge_count(self, g):
        assert to_line_digraph(g).graph.node_count == g.edge_count

    @given(directed_graphs())
    def test_edge_count_is_sum_of_degree_products(self, g):
        outs, ins = g.degrees()
        expected = sum(ins[v] * outs[v] for v in range(g.node_count))
        assert to_line_digraph(g).graph.edge_count == expected

    @given(directed_graphs())
    def test_edge_of_node_is_a_bijection(self, g):
        ld = to_line_digraph(g)
        assert sorted(ld.edge_of_node) == sorted(g.edges)


class TestStats:
    def test_star(self, star):
        s = compute_stats(star)
        assert s.density == pytest.approx(1 / 3)
        assert s.mean_degree == pytest.approx(2 / 3)
        assert s.reciprocity == 0.0
        assert s.isolated_count == 0

    def test_reciprocal_chain_reciprocity(self, reciprocal_chain):
        # hand count: of the four edges only 1->2 and 2->1 reciprocate
        assert compute_stats(reciprocal_chain).reciprocity == pytest.approx(0.5)

    def test_mutual_pair_fully_reciprocal(self):
        g = DirectedGraph(2, ((0, 1), (1, 0)))
        assert compute_stats(g).reciprocity == 1.0

    def test_isolated_nodes_counted(self):
        g = DirectedGraph(4, ((0, 1),))
        assert compute_stats(g).isolated_count == 2

    def test_single_node_graph(self):
        s = compute_stats(DirectedGraph(1, ()))
        assert s.density == 0.0 and s.isolated_count == 1

    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraphError):
            compute_stats(DirectedGraph(0, ()))

    @given(directed_graphs())
    def test_ranges(self, g):
        s = compute_stats(g)
        assert 0.0 <= s.density <= 1.0
        assert 0.0 <= s.reciprocity <= 1.0
        assert 0 <= s.isolated_count <= g.node_count
