from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

from netctl.errors import (
    ContractViolationError,
    IllConditionedError,
    SizeLimitError,
    UncontrollableError,
)
from netctl.graph import DirectedGraph
from netctl.kalman import (
    GRAMIAN_PANELS,
    LtiSystem,
    brute_force_min_drivers,
    controllability_gramian,
    controllability_matrix,
    expm,
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
    gramian_reference,
    structural_rank_test_reference,
)


def star_system(a=0.7, b=1.3, drivers=(0,)):
    g = DirectedGraph(3, ((0, 1), (0, 2)))
    return system_from_graph(g, drivers, weights=[a, b])


def random_small_digraph(rng: np.random.Generator) -> DirectedGraph:
    """Up to 8 nodes, each ordered pair an edge with one drawn density."""
    n = int(rng.integers(1, 9))
    adjacent = rng.random((n, n)) < rng.random()
    np.fill_diagonal(adjacent, False)
    heads, tails = np.nonzero(adjacent)
    return DirectedGraph.from_arrays(n, tails, heads)


class TestLtiSystem:
    def test_column_with_two_entries_rejected(self):
        b = np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        with pytest.raises(ContractViolationError, match="input column 1 must"):
            LtiSystem(a=np.zeros((2, 2)), b=b)

    def test_column_check_matches_a_count_per_column(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n, m = rng.integers(1, 6, size=2)
            b = (rng.random((n, m)) < rng.random()).astype(float)
            bad = [j for j in range(m) if np.count_nonzero(b[:, j]) != 1]
            if bad:
                with pytest.raises(ContractViolationError, match=f"input column {bad[0]} must"):
                    LtiSystem(a=np.zeros((n, n)), b=b)
            else:
                assert LtiSystem(a=np.zeros((n, n)), b=b).m == m

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
        s = star_system(a=0.7, b=1.3, drivers=(2, 0))
        expected = np.array([[0, 0, 0], [0.7, 0, 0], [1.3, 0, 0]])
        assert np.array_equal(s.a, expected)
        assert np.array_equal(s.b, np.eye(3)[:, [0, 2]])

    def test_zero_weight_rejected(self):
        g = DirectedGraph(2, ((0, 1),))
        with pytest.raises(ContractViolationError):
            system_from_graph(g, {0}, weights=[0.0])


class TestControllabilityMatrix:
    def test_star_hub_only_has_rank_two(self):
        s = star_system(a=0.7, b=1.3)
        q = controllability_matrix(s.a, s.b)
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
        assert matrix_rank(controllability_matrix(s.a, s.b)) == 3

    def test_two_chain_is_lower_triangular_full_rank(self):
        g = DirectedGraph(2, ((0, 1),))
        s = system_from_graph(g, {0}, weights=[0.9])
        q = controllability_matrix(s.a, s.b)
        np.testing.assert_allclose(q, np.eye(2))
        assert matrix_rank(q) == 2

    @given(directed_graphs(max_nodes=6), st.data())
    def test_rank_invariant_under_block_normalization(self, g, data):
        drivers = data.draw(
            st.sets(st.integers(0, g.node_count - 1), min_size=1)
        )
        rng = np.random.default_rng(11)
        s = system_from_graph(g, drivers, rng=rng)
        normalized = matrix_rank(controllability_matrix(s.a, s.b))
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
            controllability_matrix(s.a, s.b), controllability_matrix_reference(s.a, s.b)
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

    def test_single_node_graph(self):
        g = DirectedGraph(1, ())
        assert structural_rank_test(g, {0}).full_rank


class TestOnePatternPerRankTest:
    """The rank test and steer's refusal draw the same weights as the
    route that builds a whole system per sample."""

    def test_rank_test_equals_one_system_per_sample(self):
        rng = np.random.default_rng(28)
        verdicts = set()
        for _ in range(150):
            g = random_small_digraph(rng)
            # unsorted, possibly repeated driver ids
            drivers = rng.integers(0, g.node_count, size=rng.integers(1, 4)).tolist()
            samples, seed = int(rng.integers(1, 4)), int(rng.integers(0, 2**32))
            # a coarse tolerance makes the rank depend on the weights drawn
            tol = (None, 1e-10, 0.02, 0.1)[int(rng.integers(0, 4))]
            verdict = structural_rank_test(g, drivers, samples=samples, tol=tol, seed=seed)
            assert verdict == structural_rank_test_reference(
                g, drivers, samples=samples, tol=tol, seed=seed
            )
            verdicts.add(verdict.full_rank)
        assert verdicts == {True, False}

    def test_steer_refuses_as_the_rank_test_of_its_source_graph(self, monkeypatch):
        class PastTheRankTest(Exception):
            pass

        def stop(s, tf):  # the Gramian is steer's next step after the rank test
            raise PastTheRankTest

        seen = []

        def recording_rank(q, tol=None):
            seen.append(q.copy())
            return matrix_rank(q, tol)

        monkeypatch.setattr("netctl.kalman.controllability_gramian", stop)
        monkeypatch.setattr("netctl.kalman.matrix_rank", recording_rank)
        rng = np.random.default_rng(29)
        refused = set()
        passed = 0
        for _ in range(150):
            g = random_small_digraph(rng)
            n = g.node_count
            a = np.zeros((n, n))
            a[g.dst, g.src] = rng.choice([-1.3, 0.6, 2.0], size=g.edge_count)
            a[np.diag_indices(n)] = rng.choice([0.0, -1.0, -0.4], size=n)
            rows = rng.integers(0, n, size=rng.integers(1, 4))
            b = np.zeros((n, rows.size))
            b[rows, np.arange(rows.size)] = rng.choice([1.0, 2.5, -0.3], size=rows.size)
            seed = int(rng.integers(0, 2**32))
            seen.clear()
            verdict = structural_rank_test(g, rows.tolist(), seed=seed)
            expected = seen.copy()
            seen.clear()
            s = LtiSystem(a=a, b=b)
            outcome = PastTheRankTest if verdict.full_rank else UncontrollableError
            with pytest.raises(outcome) as raised:
                steer(s, np.zeros(n), np.ones(n), tf=1.0, seed=seed)
            # the same weights land on the same entries: equal matrices per sample
            assert len(seen) == len(expected)
            assert all(np.array_equal(q, r) for q, r in zip(seen, expected))
            if verdict.full_rank:
                passed += 1
                continue
            assert str(raised.value) == (
                f"driver set {sorted(set(rows.tolist()))} fails the rank test "
                f"(rank {verdict.rank} of {n})"
            )
            refused.update(
                kind for kind, present in (
                    ("self-damping diagonal", np.diag(a).any()),
                    ("unsorted columns", (np.diff(rows) < 0).any()),
                    ("non-unit entries", (b[rows, np.arange(rows.size)] != 1.0).any()),
                    ("two columns on one row", len(set(rows.tolist())) < rows.size),
                ) if present
            )
        assert passed and len(refused) == 4


class TestBruteForce:
    def test_star_needs_two(self, star):
        size, witness = brute_force_min_drivers(star)
        assert size == 2
        assert structural_rank_test(star, witness).full_rank

    def test_cycle_needs_one(self, three_cycle):
        assert brute_force_min_drivers(three_cycle)[0] == 1

    def test_reciprocal_chain_witness(self, reciprocal_chain):
        size, witness = brute_force_min_drivers(reciprocal_chain)
        assert size == 1 and witness == (0,)

    def test_size_limit(self):
        g = DirectedGraph(11, ())
        with pytest.raises(SizeLimitError):
            brute_force_min_drivers(g)


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
        em = scipy_expm(m * tf)
        w_ref = em[s.n :, s.n :].T @ em[: s.n, s.n :]
        np.testing.assert_allclose(w, w_ref, atol=1e-10)

    def test_singular_for_uncontrollable_pattern(self):
        w = controllability_gramian(star_system(drivers=(0,)), 1.0)
        assert np.linalg.matrix_rank(w) == 2

    @pytest.mark.parametrize("n, tf, seed", [(2, 0.5, 0), (3, 1.0, 1), (5, 2.0, 2)])
    def test_matches_high_precision_simpson_reference(self, n, tf, seed):
        # the chained nodes step^k B against exact nodes e^(A k h) B
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.5, 1.5, size=(n, n))
        b = np.eye(n)[:, : max(1, n // 2)]
        w = controllability_gramian(LtiSystem(a=a, b=b), tf)
        w_ref = gramian_reference(a, b, tf, GRAMIAN_PANELS)
        assert np.linalg.norm(w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)


def assert_expm_close(a: np.ndarray) -> None:
    """Norm-wise relative error against the 50-digit exponential."""
    ref = expm_reference(a)
    assert np.linalg.norm(expm(a) - ref) <= 1e-12 * np.linalg.norm(ref)


class TestExpmContract:
    THETA_13 = 5.371920351148152  # the largest 1-norm the Pade step takes unscaled

    def test_zero_matrix(self):
        assert_expm_close(np.zeros((3, 3)))

    @pytest.mark.parametrize("x", [-7.5, 0.3, 2.0, 40.0])
    def test_one_by_one(self, x):
        assert_expm_close(np.array([[x]]))

    def test_nilpotent_chain(self):
        a = np.diag([0.7, -1.3, 2.0, 0.9], k=-1)
        assert_expm_close(a)

    def test_norm_needing_no_squaring(self):
        a = np.random.default_rng(4).uniform(-1.0, 1.0, size=(4, 4))
        a *= 0.99 * self.THETA_13 / np.abs(a).sum(axis=0).max()
        assert_expm_close(a)

    def test_norm_needing_eight_squarings(self):
        # a damped rotation by 700 radians: bounded, yet its 1-norm is 701
        a = np.array([[-1.0, 700.0], [-700.0, -1.0]])
        assert np.abs(a).sum(axis=0).max() > self.THETA_13 * 2**7
        assert_expm_close(a)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_scipy_expm_close_to_high_precision_reference(self, seed, n):
        # scipy's expm is TestGramian's independent reference; netctl's own is
        # held to 1e-12 relative on the same matrices
        rng = np.random.default_rng(seed)
        a = rng.uniform(-1.5, 1.5, size=(n, n))
        np.fill_diagonal(a, 0.0)
        ref = expm_reference(a)
        assert np.linalg.norm(scipy_expm(a) - ref) <= 1e-10
        assert np.linalg.norm(expm(a) - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_gives_all_nan(self, bad):
        a = np.eye(3)
        a[1, 2] = bad
        assert np.isnan(expm(a)).all()


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

    def test_self_damping_diagonal_is_allowed(self):
        # the rank test runs on the off-diagonal pattern, the edge 0 -> 1
        s = LtiSystem(a=np.array([[-1.0, 0.0], [0.8, -1.0]]), b=np.array([[1.0], [0.0]]))
        result = steer(s, np.zeros(2), np.array([1.0, -1.0]), tf=1.0)
        assert result.final_error < 1e-6

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
