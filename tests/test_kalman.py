from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from netctl.errors import (
    ContractViolationError,
    IllConditionedError,
    SizeLimitError,
    UncontrollableError,
)
from netctl.graph import DirectedGraph
from netctl.kalman import (
    LtiSystem,
    brute_force_min_drivers,
    controllability_gramian,
    controllability_matrix,
    matrix_rank,
    simulate,
    steer,
    structural_rank_test,
    system_from_graph,
)

from .conftest import directed_graphs
from .oracles import (
    controllability_matrix_naive,
    controllability_matrix_reference,
    expm_reference,
)


def star_system(a=0.7, b=1.3, drivers=(0,)):
    g = DirectedGraph(3, ((0, 1), (0, 2)))
    return system_from_graph(g, drivers, weights=[a, b])


class TestLtiSystem:
    def test_column_with_two_entries_rejected(self):
        b = np.array([[1.0], [1.0]])
        with pytest.raises(ContractViolationError):
            LtiSystem(a=np.zeros((2, 2)), b=b)

    def test_empty_input_rejected(self):
        with pytest.raises(ContractViolationError):
            LtiSystem(a=np.zeros((2, 2)), b=np.zeros((2, 0)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ContractViolationError):
            LtiSystem(a=np.zeros((2, 2)), b=np.array([[1.0], [0.0], [0.0]]))

    def test_arrays_frozen(self):
        s = star_system()
        with pytest.raises(ValueError):
            s.a[0, 0] = 1.0

    def test_pattern_follows_graph(self):
        s = star_system(a=0.7, b=1.3)
        expected = np.array([[0, 0, 0], [0.7, 0, 0], [1.3, 0, 0]])
        assert np.array_equal(s.a, expected)
        assert s.driver_nodes() == (0,)

    def test_zero_weight_rejected(self):
        g = DirectedGraph(2, ((0, 1),))
        with pytest.raises(ContractViolationError):
            system_from_graph(g, {0}, weights=[0.0])

    def test_damping_hook_lands_on_diagonal(self):
        g = DirectedGraph(2, ((0, 1),))
        s = system_from_graph(g, {0}, weights=[2.0], damping=[0.5, 0.25])
        assert s.a[0, 0] == -0.5 and s.a[1, 1] == -0.25


class TestControllabilityMatrix:
    def test_star_hub_only_has_rank_two(self):
        q = controllability_matrix(star_system(a=0.7, b=1.3))
        assert q.shape == (3, 3)
        assert np.array_equal(q[:, 0], [1.0, 0.0, 0.0])
        np.testing.assert_allclose(
            q[:, 1], np.array([0.0, 0.7, 1.3]) / np.hypot(0.7, 1.3)
        )
        assert np.array_equal(q[:, 2], [0.0, 0.0, 0.0])
        assert matrix_rank(q) == 2

    def test_identity_input_spans_everything(self):
        # B alone spans the space even with no dynamics
        s = LtiSystem(a=np.zeros((3, 3)), b=np.eye(3))
        assert matrix_rank(controllability_matrix(s)) == 3

    def test_two_chain_is_lower_triangular_full_rank(self):
        g = DirectedGraph(2, ((0, 1),))
        s = system_from_graph(g, {0}, weights=[0.9])
        q = controllability_matrix(s)
        np.testing.assert_allclose(q, np.eye(2))
        assert matrix_rank(q) == 2

    @given(directed_graphs(max_nodes=6), st.data())
    def test_rank_invariant_under_block_normalization(self, g, data):
        drivers = data.draw(
            st.sets(st.integers(0, g.node_count - 1), min_size=1)
        )
        rng = np.random.default_rng(11)
        s = system_from_graph(g, drivers, rng=rng)
        normalized = matrix_rank(controllability_matrix(s))
        plain = np.linalg.matrix_rank(controllability_matrix_naive(s.a, s.b))
        assert normalized == plain

    @given(directed_graphs(max_nodes=8), st.data())
    def test_bit_identical_to_norm_reference(self, g, data):
        drivers = data.draw(
            st.sets(st.integers(0, g.node_count - 1), min_size=1)
        )
        seed = data.draw(st.integers(0, 2**32 - 1))
        s = system_from_graph(g, drivers, rng=np.random.default_rng(seed))
        assert np.array_equal(
            controllability_matrix(s), controllability_matrix_reference(s)
        )


class TestStructuralRankTest:
    def test_star_hub_alone_fails(self, star):
        verdict = structural_rank_test(star, {0}, samples=5)
        assert not verdict.full_rank
        assert verdict.rank == 2
        assert verdict.samples_used == 5

    def test_star_hub_plus_leaf_passes(self, star):
        verdict = structural_rank_test(star, {0, 2})
        assert verdict.full_rank and verdict.rank == 3

    def test_cycle_single_driver_passes(self, three_cycle):
        assert structural_rank_test(three_cycle, {0}).full_rank

    def test_empty_driver_set_rejected(self, star):
        with pytest.raises(ContractViolationError, match="M >= 1"):
            structural_rank_test(star, set())

    def test_out_of_range_driver_rejected(self, star):
        with pytest.raises(ContractViolationError):
            structural_rank_test(star, {9})

    def test_damping_does_not_change_verdict(self, three_cycle):
        damped = structural_rank_test(three_cycle, {0}, damping=[0.3, 0.3, 0.3])
        assert damped.full_rank

    def test_single_node_graph(self):
        g = DirectedGraph(1, ())
        assert structural_rank_test(g, {0}).full_rank


class TestBruteForce:
    def test_star_needs_two(self, star):
        size, witness = brute_force_min_drivers(star)
        assert size == 2
        assert structural_rank_test(star, witness).full_rank

    def test_cycle_needs_one(self, three_cycle):
        assert brute_force_min_drivers(three_cycle)[0] == 1

    def test_reciprocal_chain_witness(self, reciprocal_chain):
        size, witness = brute_force_min_drivers(reciprocal_chain)
        assert size == 1 and witness == {0}

    def test_size_limit(self):
        g = DirectedGraph(11, ())
        with pytest.raises(SizeLimitError):
            brute_force_min_drivers(g, max_n=10)


class TestGramian:
    def test_matches_augmented_exponential_route(self):
        # independent closed form: with M = [[-A, BB'], [0, A']],
        # expm(M t) = [[.., F12], [0, F22]] and W = F22' F12
        rng = np.random.default_rng(3)
        g = DirectedGraph(4, ((0, 1), (1, 2), (2, 3), (3, 0), (0, 2)))
        s = system_from_graph(g, {0, 1}, rng=rng)
        tf = 1.0
        w = controllability_gramian(s, tf)
        m = np.block([[-s.a, s.b @ s.b.T], [np.zeros((s.n, s.n)), s.a.T]])
        em = expm(m * tf)
        w_ref = em[s.n :, s.n :].T @ em[: s.n, s.n :]
        np.testing.assert_allclose(w, w_ref, atol=1e-10)

    def test_rejects_odd_panels(self):
        with pytest.raises(ContractViolationError):
            controllability_gramian(star_system(drivers=(0, 2)), 1.0, panels=3)

    def test_singular_for_uncontrollable_pattern(self):
        w = controllability_gramian(star_system(drivers=(0,)), 1.0)
        assert np.linalg.matrix_rank(w) == 2


class TestExpmContract:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_scipy_expm_close_to_high_precision_reference(self, seed, n):
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.5, 1.5, size=(n, n))
        np.fill_diagonal(a, 0.0)
        assert np.linalg.norm(expm(a) - expm_reference(a)) <= 1e-10


class TestSteer:
    def test_star_reaches_target(self):
        s = star_system(drivers=(0, 2))
        result = steer(s, np.zeros(3), np.array([1.0, 2.0, 3.0]), tf=1.0)
        assert result.final_error < 1e-6
        np.testing.assert_allclose(result.states[-1], [1.0, 2.0, 3.0], atol=1e-6)
        assert result.times.shape == (401,)
        assert result.inputs.shape == (401, 2)

    def test_zero_steering_costs_nothing(self):
        s = star_system(drivers=(0, 2))
        result = steer(s, np.zeros(3), np.zeros(3), tf=1.0)
        assert result.input_energy == pytest.approx(0.0, abs=1e-16)
        np.testing.assert_allclose(result.states[-1], 0.0, atol=1e-12)

    def test_uncontrollable_driver_refused(self):
        with pytest.raises(UncontrollableError, match="rank 2 of 3"):
            steer(star_system(drivers=(0,)), np.zeros(3), np.ones(3), tf=1.0)

    def test_ill_conditioned_gramian_refused(self):
        # a long chain driven at its head over a short horizon: signal
        # reaching the tail scales like t^k/k!, so the Gramian is
        # numerically singular
        n = 10
        g = DirectedGraph(n, tuple((i, i + 1) for i in range(n - 1)))
        s = system_from_graph(g, {0}, weights=[1.0] * (n - 1))
        with pytest.raises(IllConditionedError, match="larger tf"):
            steer(s, np.zeros(n), np.ones(n), tf=0.1)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_well_conditioned_instances_hit_tolerance(self, seed):
        rng = np.random.default_rng(seed)
        g = DirectedGraph(3, ((0, 1), (1, 2), (2, 0)))
        s = system_from_graph(g, {0}, rng=rng)
        x0 = rng.normal(size=3)
        xf = rng.normal(size=3)
        result = steer(s, x0, xf, tf=1.0)
        assert result.gramian_condition < 1e6
        assert result.final_error < 1e-6

    def test_shape_validation(self):
        s = star_system(drivers=(0, 2))
        with pytest.raises(ContractViolationError):
            steer(s, np.zeros(2), np.zeros(3), tf=1.0)


class TestSimulate:
    def test_star_children_stay_linearly_dependent(self):
        # driven only through the hub, the two leaves remain locked to
        # a fixed ratio of the cross weights along any trajectory
        s = star_system(a=0.8, b=1.1, drivers=(0,))
        _, states = simulate(
            s, lambda t: np.sin(3.0 * t) + 0.5, np.zeros(3), tf=1.0, steps=400
        )
        gap = np.abs(s.a[2, 0] * states[:, 1] - s.a[1, 0] * states[:, 2])
        assert float(gap.max()) < 1e-8

    def test_matches_closed_form_for_constant_input(self):
        g = DirectedGraph(2, ((0, 1),))
        s = system_from_graph(g, {0}, weights=[1.0])
        _, states = simulate(s, lambda t: 1.0, np.zeros(2), tf=1.0, steps=200)
        # x0(t) = t, x1(t) = t^2/2
        np.testing.assert_allclose(states[-1], [1.0, 0.5], atol=1e-9)
