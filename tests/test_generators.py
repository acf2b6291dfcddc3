from __future__ import annotations

import dataclasses
import json

import pytest

from netctl.errors import GenerationStallError, InfeasibleSpecError
from netctl.generators import (
    MAX_NODES,
    GeneratorSpec,
    SplitMix64,
    derive_seed,
    generate,
    generate_er,
    generate_sf,
)
from netctl.graph import compute_stats

from .oracles import hill_tail_exponent

# Frozen ensemble for the statistical assertions below.
SF_ENSEMBLE = [
    GeneratorSpec(model="sf", n=500, mean_degree=4.0, gamma=3.0, seed=seed)
    for seed in range(20)
]


class TestSplitMix64:
    def test_reference_sequence(self):
        # published test vector for seed 0
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(4)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
            0xF88BB8A8724C81EC,
        ]

    def test_float_range(self):
        rng = SplitMix64(99)
        values = [rng.next_float() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)

    def test_next_below_range_and_determinism(self):
        a = [SplitMix64(5).next_below(7) for _ in range(1)]
        b = [SplitMix64(5).next_below(7) for _ in range(1)]
        assert a == b and 0 <= a[0] < 7

    def test_next_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            SplitMix64(0).next_below(0)

    def test_derive_seed_spreads(self):
        seeds = {derive_seed(0, i) for i in range(100)}
        assert len(seeds) == 100
        assert all(0 <= s < 2**64 for s in seeds)


class TestSpecValidation:
    def test_unknown_model(self):
        with pytest.raises(InfeasibleSpecError):
            GeneratorSpec(model="ba", n=10, mean_degree=1.0)

    def test_zero_nodes(self):
        with pytest.raises(InfeasibleSpecError):
            GeneratorSpec(model="er", n=0, mean_degree=0.0)

    def test_negative_degree(self):
        with pytest.raises(InfeasibleSpecError):
            GeneratorSpec(model="er", n=10, mean_degree=-1.0)

    def test_infeasible_edge_count(self):
        with pytest.raises(InfeasibleSpecError):
            GeneratorSpec(model="er", n=10, mean_degree=9.5)

    def test_pair_index_beyond_int64(self):
        # n * (n - 1) ordered pairs are numbered in int64; the node cap
        # refuses such n long before the pair index could overflow
        for n in (3_037_000_501, 10**20):
            with pytest.raises(InfeasibleSpecError, match=f"between 1 and {MAX_NODES}"):
                GeneratorSpec(model="er", n=n, mean_degree=0.0)

    @pytest.mark.parametrize("model", ["er", "sf"])
    def test_node_count_cap(self, model):
        assert MAX_NODES * (MAX_NODES - 1) < 2**63
        assert GeneratorSpec(model=model, n=MAX_NODES, mean_degree=0.0).n == MAX_NODES
        for n in (MAX_NODES + 1, 3_037_000_500):
            with pytest.raises(InfeasibleSpecError, match=f"between 1 and {MAX_NODES}, got {n}"):
                GeneratorSpec(model=model, n=n, mean_degree=0.0)

    def test_edge_count_beyond_floats(self):
        with pytest.raises(InfeasibleSpecError, match="not finite"):
            GeneratorSpec(model="er", n=5, mean_degree=1e308)

    def test_shallow_gamma(self):
        with pytest.raises(InfeasibleSpecError):
            GeneratorSpec(model="sf", n=10, mean_degree=1.0, gamma=2.0)

    def test_rounding_half_up(self):
        assert GeneratorSpec(model="er", n=10, mean_degree=0.25).edge_count == 3

    def test_json_serializable(self):
        spec = GeneratorSpec(model="sf", n=5, mean_degree=0.4, gamma=2.5, seed=3)
        rehydrated = GeneratorSpec(**json.loads(json.dumps(dataclasses.asdict(spec))))
        assert rehydrated == spec


class TestUniformModel:
    def test_zero_degree_gives_edgeless_graph(self):
        g = generate_er(GeneratorSpec(model="er", n=100, mean_degree=0.0, seed=1))
        assert g.node_count == 100 and g.edge_count == 0

    def test_saturation_gives_complete_digraph(self):
        g = generate_er(GeneratorSpec(model="er", n=100, mean_degree=99.0, seed=1))
        assert g.edge_count == 100 * 99
        assert compute_stats(g).density == 1.0

    def test_exact_edge_count_and_determinism(self):
        spec = GeneratorSpec(model="er", n=500, mean_degree=4.0, seed=7)
        first, second = generate_er(spec), generate_er(spec)
        assert first.edge_count == 2000
        assert first == second

    def test_seed_changes_graph(self):
        a = generate_er(GeneratorSpec(model="er", n=50, mean_degree=2.0, seed=1))
        b = generate_er(GeneratorSpec(model="er", n=50, mean_degree=2.0, seed=2))
        assert a != b

    def test_frozen_sample(self):
        g = generate_er(GeneratorSpec(model="er", n=8, mean_degree=1.5, seed=42))
        assert g.edges == (
            (0, 3), (0, 7), (1, 6), (2, 7), (3, 5), (4, 0),
            (4, 3), (5, 1), (5, 3), (5, 6), (7, 0), (7, 2),
        )

    def test_model_dispatch_guard(self):
        with pytest.raises(InfeasibleSpecError):
            generate_er(GeneratorSpec(model="sf", n=5, mean_degree=1.0))


class TestScaleFreeModel:
    def test_zero_degree_gives_edgeless_graph(self):
        g = generate_sf(GeneratorSpec(model="sf", n=40, mean_degree=0.0, seed=1))
        assert g.edge_count == 0

    def test_exact_edge_count_and_determinism(self):
        spec = GeneratorSpec(model="sf", n=500, mean_degree=4.0, gamma=3.0, seed=1)
        first, second = generate_sf(spec), generate_sf(spec)
        assert first.edge_count == 2000
        assert first == second

    def test_frozen_sample(self):
        g = generate_sf(GeneratorSpec(model="sf", n=8, mean_degree=1.0, seed=42))
        assert g.edges == (
            (0, 2), (0, 4), (0, 5), (0, 6), (1, 3), (4, 0), (5, 0), (7, 0),
        )

    def test_heavy_tail_versus_uniform_model(self):
        # mean degree 4: hubs should blow far past the uniform model's
        # maximum; at the strict 10x-mean bar most seeds clear it
        hub_sizes = []
        for spec in SF_ENSEMBLE:
            _, ins = generate_sf(spec).degree_arrays()
            hub_sizes.append(max(ins))
        assert all(size >= 7 * 4 for size in hub_sizes)
        assert sum(size > 10 * 4 for size in hub_sizes) >= 14
        _, er_ins = generate_er(
            GeneratorSpec(model="er", n=500, mean_degree=4.0, seed=0)
        ).degree_arrays()
        assert max(er_ins) < 20

    def test_out_degree_tail_exponent(self):
        degrees: list[int] = []
        for spec in SF_ENSEMBLE:
            outs, _ = generate_sf(spec).degree_arrays()
            degrees.extend(outs.tolist())
        assert 2.3 <= hill_tail_exponent(degrees, k_min=6) <= 3.7

    def test_stall_detection(self, monkeypatch):
        # an adversarial stream that repeats one node forces endless
        # self-loop rejections; the stall guard must trip
        monkeypatch.setattr(SplitMix64, "next_float", lambda self: 0.0)
        with pytest.raises(GenerationStallError, match="lower mean_degree"):
            generate_sf(GeneratorSpec(model="sf", n=4, mean_degree=1.0, seed=0))


def test_generate_dispatches_on_model():
    er = generate(GeneratorSpec(model="er", n=10, mean_degree=1.0, seed=0))
    sf = generate(GeneratorSpec(model="sf", n=10, mean_degree=1.0, seed=0))
    assert er.edge_count == sf.edge_count == 10
