from __future__ import annotations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

import numpy as np

from netctl.errors import EmptyGraphError
from netctl.generators import GeneratorSpec, generate
from netctl.graph import DirectedGraph
from netctl.kalman import structural_rank_test
from netctl.matching import maximum_matching
from netctl.node_control import analyze_node_control

from .conftest import directed_graphs
from .oracles import has_alternate_maximum_matching_reference, max_matching_size_brute


def test_star_needs_hub_and_one_leaf(star):
    a = analyze_node_control(star)
    assert len(a.driver_nodes) == 2
    assert a.driver_nodes.tolist() in ([0, 1], [0, 2])
    assert a.n_d == pytest.approx(2 / 3)
    assert a.alternate_matchings is True
    assert a.method == "node-structural"


def test_reciprocal_chain_single_driver(reciprocal_chain):
    a = analyze_node_control(reciprocal_chain)
    assert a.driver_nodes.tolist() == [0]
    assert a.n_d == 0.25


def test_edgeless_graph_drives_everything():
    a = analyze_node_control(DirectedGraph(5, ()))
    assert a.driver_nodes.tolist() == list(range(5))
    assert a.n_d == 1.0


def test_cycle_floor_driver(three_cycle):
    # perfect matching: the count floors at one canonical driver, and the
    # numerical oracle confirms a single driver suffices
    a = analyze_node_control(three_cycle)
    assert a.driver_nodes.tolist() == [0]
    assert a.n_d == pytest.approx(1 / 3)
    assert structural_rank_test(three_cycle, a.driver_nodes).full_rank


def test_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        analyze_node_control(DirectedGraph(0, ()))


def test_known_theorem_limit_is_reported_as_counted():
    # A perfectly matched component no driver can reach: the matching
    # count follows the unmatched-node rule (here one driver) although a
    # dedicated-input rank test on this graph needs two inputs. The
    # analyzer reports the matching-based count by design.
    g = DirectedGraph(4, ((0, 1), (1, 0), (2, 3)))
    a = analyze_node_control(g)
    assert a.driver_nodes.tolist() == [2]
    assert not structural_rank_test(g, a.driver_nodes).full_rank
    assert structural_rank_test(g, {0, 2}).full_rank


@given(directed_graphs())
def test_count_formula_and_fraction(g):
    a = analyze_node_control(g)
    matching = max_matching_size_brute(g)
    assert a.matching_size == matching
    assert len(a.driver_nodes) == max(g.node_count - matching, 1)
    assert a.n_d == len(a.driver_nodes) / g.node_count
    assert 0.0 < a.n_d <= 1.0
    assert a.driver_nodes.dtype == np.int64 and not a.driver_nodes.flags.writeable


@given(directed_graphs())
def test_isolated_nodes_are_always_drivers(g):
    outs, ins = g.degree_arrays()
    isolated = {v for v in range(g.node_count) if outs[v] == 0 and ins[v] == 0}
    assert isolated <= set(analyze_node_control(g).driver_nodes.tolist())


@given(directed_graphs(max_nodes=7), st.data())
def test_adding_an_edge_never_increases_n_d(g, data):
    present = set(g.edges)
    absent = [
        (i, j)
        for i in range(g.node_count)
        for j in range(g.node_count)
        if i != j and (i, j) not in present
    ]
    assume(absent)
    extra = data.draw(st.sampled_from(absent))
    bigger = DirectedGraph(g.node_count, g.edges + (extra,))
    assert analyze_node_control(bigger).n_d <= analyze_node_control(g).n_d


@given(directed_graphs(max_nodes=6))
def test_driver_nodes_are_unmatched_right_nodes(g):
    from netctl.matching import maximum_matching

    a = analyze_node_control(g)
    m = maximum_matching(g)
    unmatched = [v for v, u in enumerate(m.match_right.tolist()) if u == -1]
    if unmatched:
        assert a.driver_nodes.tolist() == unmatched
    else:
        assert a.driver_nodes.tolist() == [0]


def reference_flag(g: DirectedGraph) -> bool:
    return has_alternate_maximum_matching_reference(g, maximum_matching(g))


@pytest.mark.parametrize("model, n, k, gamma, seed", [
    ("er", 150, 0.5, 3.0, 1), ("er", 200, 1.0, 3.0, 2), ("er", 300, 3.0, 3.0, 3),
    ("sf", 150, 1.0, 2.5, 4), ("sf", 250, 0.6, 3.0, 5), ("sf", 300, 2.0, 2.2, 6),
])
def test_alternate_flag_is_exact_above_100_nodes(model, n, k, gamma, seed):
    g = generate(GeneratorSpec(model=model, n=n, mean_degree=k, gamma=gamma, seed=seed))
    outs, ins = g.degree_arrays()
    assert ((outs == 0) & (ins == 0)).any()  # isolated nodes included
    assert analyze_node_control(g).alternate_matchings is reference_flag(g)


def test_alternate_flag_is_exact_on_matched_cores_above_100_nodes():
    # every node with an edge lies on one Hamiltonian cycle of 80 % of the
    # nodes, so no unmatched node has an edge and only the alternating
    # cycle search decides; random chords make it go either way
    flags = []
    for seed, chord_share in enumerate((0.0, 0.02, 0.1, 0.33, 0.5, 1.0)):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(150, 301))
        core = rng.permutation(n)[: 4 * n // 5].tolist()
        edges = set(zip(core, core[1:] + core[:1]))
        for _ in range(int(chord_share * n)):
            a, b = rng.choice(core, 2, replace=False).tolist()
            edges.add((a, b))
        g = DirectedGraph(n, edges)
        flag = analyze_node_control(g).alternate_matchings
        assert flag is reference_flag(g)
        flags.append(flag)
    assert set(flags) == {True, False}


def test_perfect_matching_flag_at_size():
    n = 1000
    forward = [(i, (i + 1) % n) for i in range(n)]
    assert analyze_node_control(DirectedGraph(n, forward)).alternate_matchings is False
    both = forward + [((i + 1) % n, i) for i in range(n)]
    assert analyze_node_control(DirectedGraph(n, both)).alternate_matchings is True
