from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netctl.errors import EdgeListParseError, EmptyGraphError, SelfLoopError
from netctl.graph import (
    DirectedGraph,
    _scan_ids,
    compute_stats,
    parse_edge_list,
    parse_edge_list_report,
    serialize_edge_list,
    to_bipartite,
    to_line_digraph,
)
from netctl.matching import maximum_matching

from .conftest import directed_graphs, needs_digit_limit
from .oracles import scan_lines_reference

#: Pieces of edge-list text, valid and not, for the scanner-equivalence test.
TEXT_PIECES = [
    "0", "1", "7", "12", "007", "999999999999999999", "1000000000000000000",
    "18446744073709551616", " ", "  ", "\t", "\n", "\n", "\n", "\r\n", "\r",
    "#", "# note", "x", "-1", "+3", "1_0", "\u0663", "\x0c", "\u2028", "\u00e9",
]


def _scan_outcome(scan, data):
    """The id arrays and dtypes a scan returns, or the error it raises."""
    try:
        return [(ids.tolist(), ids.dtype) for ids in scan(data)]
    except EdgeListParseError as exc:
        return type(exc), str(exc), exc.line


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
        outs, ins = star.degree_arrays()
        assert outs.tolist() == [2, 0, 0]
        assert ins.tolist() == [0, 1, 1]

    def test_sorted_read_only_csr_layout(self):
        g = DirectedGraph(3, ((2, 0), (0, 2), (0, 1)))
        assert g.src.tolist() == [0, 0, 2]
        assert g.dst.tolist() == [1, 2, 0]
        assert g.indptr.tolist() == [0, 2, 2, 3]
        assert g.edges == ((0, 1), (0, 2), (2, 0))
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
        assert parsed.original_ids.tolist() == [5, 9]
        assert parsed.original_ids.dtype == np.int64
        assert not parsed.original_ids.flags.writeable

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
        assert parsed.original_ids.tolist() == [4, 5]
        assert parsed.graph.edges == ((0, 1),)

    def test_ids_beyond_int64_keep_their_order(self):
        parsed = parse_edge_list_report(
            "18446744073709551616 9223372036854775807\n"
            "9223372036854775807 007\n"
            "999999999999999999 18446744073709551616\n"
        )
        assert parsed.original_ids.tolist() == [
            7, 999999999999999999, 9223372036854775807, 18446744073709551616,
        ]
        assert parsed.original_ids.dtype == object
        assert all(type(i) is int for i in parsed.original_ids)
        assert parsed.graph.edges == ((1, 3), (2, 0), (3, 2))

    @settings(max_examples=400)
    @given(st.lists(st.sampled_from(TEXT_PIECES), max_size=30))
    @example(["  # c\n", "\t# c\n", " \t # c # d\n", "0 1\n"])  # indented comments
    @example(["0 1\n", "2 3 # c\n", "# d\n", "  # e\n", "4 5\n"])  # '#' after an id
    @example(["x # c\n", "# d\r\n", "0 1\n"])  # '#' after a bad byte
    @example(["# c\r\n", "0 1\r\n", "  # d\r\n", "2 3 # e\r\n"])  # CRLF comment lines
    @example(["\r# c\n", "0 1\n"])  # a bare "\r" before a '#'
    def test_vectorised_and_line_scans_agree(self, pieces):
        text = "".join(pieces)
        assert _scan_outcome(_scan_ids, text.encode()) == _scan_outcome(
            scan_lines_reference, text)

    @pytest.mark.parametrize("text, line", [
        ("0 1\n2 2\n3 4 5\n", 2),                    # self-loop before three ids
        ("0 1\n1 2 3\n4 x\n", 2),                    # three ids before a bad byte
        ("0 1\n1 2 3 4\n5 6 7\n", 2),                # four ids: two pairs on one line
        ("# a # b\n  # c\n0 1 2\n", 3),             # comments holding a second '#'
        ("0 1\n2 3 # note", 2),                      # '#' after ids, no last newline
        ("0 1\n2\r3 4\n", 2),                        # bare "\r" inside a line
        ("# caf\u00e9 \u0663\n0 -1\n", 2),           # after a non-ASCII comment
        ("x 1\n0 1\n", 1),                           # bad first line
        ("0 1\n2 y\n18446744073709551616 3\n", 2),   # long id after a bad line
        pytest.param("0 1\n2 y\n" + "1" * 5000 + " 3\n", 2, id="over-limit-id-after-bad-line",
                     marks=needs_digit_limit),
    ])
    def test_the_first_bad_line_is_named(self, text, line):
        outcome = _scan_outcome(_scan_ids, text.encode())
        assert outcome == _scan_outcome(scan_lines_reference, text)
        assert outcome[2] == line

    @needs_digit_limit
    def test_an_id_over_the_digit_limit_names_its_line(self):
        with pytest.raises(EdgeListParseError, match="id of 5000 digits") as err:
            parse_edge_list("0 1\n" + "1" * 5000 + " 2\n3 3\n")
        assert err.value.line == 2

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
    """The matching functions read a digraph as its own plus/minus split,
    and a bipartite (L, R) graph is the digraph on L + R nodes."""

    def test_star_split(self, star):
        assert to_bipartite(star) is star
        assert maximum_matching(star).match_left.tolist() == [1, -1, -1]

    def test_empty_graph_split(self):
        m = maximum_matching(DirectedGraph(4, ()))
        assert m.match_left.tolist() == m.match_right.tolist() == [-1] * 4

    def test_cycle_split(self, three_cycle):
        m = maximum_matching(three_cycle)
        assert m.match_left.tolist() == [1, 2, 0]
        assert m.match_right.tolist() == [2, 0, 1]

    def test_rejects_bad_edges(self):
        # the pair (0, 1) of a bipartite (1, 1) graph: right 1 is node 1 + 1
        with pytest.raises(ValueError, match=r"edge \(0, 2\) out of range for 2 x 2 nodes"):
            DirectedGraph(2, ((0, 2),))

    @given(directed_graphs())
    def test_split_is_identity_on_edges(self, g):
        assert to_bipartite(g) is g


class TestLineDigraph:
    def test_star_gives_isolated_edge_nodes(self, star):
        ld = to_line_digraph(star)
        assert ld.graph.node_count == 2
        assert ld.graph.edges == ()

    def test_reciprocal_chain(self, reciprocal_chain):
        ld = to_line_digraph(reciprocal_chain)
        # edge-space node i is the original edge i
        assert reciprocal_chain.edges == ((0, 1), (1, 2), (2, 1), (2, 3))
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
        outs, ins = g.degree_arrays()
        expected = sum(ins[v] * outs[v] for v in range(g.node_count))
        assert to_line_digraph(g).graph.edge_count == expected

    @given(directed_graphs())
    def test_edges_are_the_paths_of_length_two(self, g):
        expected = {
            (i, j)
            for i, (_, middle) in enumerate(g.edges)
            for j, (source, _) in enumerate(g.edges)
            if middle == source
        }
        assert set(to_line_digraph(g).graph.edges) == expected


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

    @given(directed_graphs())
    def test_reciprocity_counts_edges_whose_reverse_exists(self, g):
        edge_set = set(g.edges)
        reciprocated = sum((v, u) in edge_set for u, v in g.edges)
        expected = reciprocated / g.edge_count if g.edge_count else 0.0
        assert compute_stats(g).reciprocity == expected
