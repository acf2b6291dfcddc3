"""Numerical controllability oracle for directed networks.

Builds dense LTI systems from graphs (state matrix entry a[i, j] is
nonzero iff the edge j -> i exists), tests the Kalman rank condition
under randomly sampled weights, brute-forces minimal driver sets on
small instances, and steers systems with minimum-energy inputs derived
from the finite-horizon controllability Gramian.

Controllability determined by structure alone is a generic property:
it holds for almost all weight assignments, so a handful of random
samples decides it. Samples are drawn uniformly from [0.5, 1.5] - away
from zero to avoid accidental degeneracy and from large magnitudes to
keep the controllability matrix well scaled.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (
    ContractViolationError,
    IllConditionedError,
    SizeLimitError,
    UncontrollableError,
)
from .graph import DirectedGraph

WEIGHT_LOW = 0.5
WEIGHT_HIGH = 1.5
_EPS = float(np.finfo(float).eps)

#: Gramians with condition number above this refuse to steer.
MAX_GRAMIAN_CONDITION = 1e12

#: Panel count (even) of the composite-Simpson Gramian quadrature.
GRAMIAN_PANELS = 200

#: Exhaustive minimal-driver search refuses above this state size.
BRUTE_FORCE_MAX_STATES = 10


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential via scipy.linalg.expm, imported on first call so
    commands that never steer do not load scipy."""
    from scipy.linalg import expm as scipy_expm

    return scipy_expm(a)


@dataclass(frozen=True)
class LtiSystem:
    """Dense LTI system pair (a, b).

    ``a`` is N x N with a[i, j] != 0 iff node j feeds node i; ``b`` is
    N x M with one column per driver, each column having exactly one
    nonzero entry (a dedicated input per driver node). Arrays are copied
    and frozen at construction.
    """

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ContractViolationError("state matrix must be square")
        if b.ndim != 2 or b.shape[0] != a.shape[0]:
            raise ContractViolationError("input matrix rows must match state size")
        if b.shape[1] < 1:
            raise ContractViolationError("at least one input column is required")
        for j in range(b.shape[1]):
            if np.count_nonzero(b[:, j]) != 1:
                raise ContractViolationError(
                    f"input column {j} must have exactly one nonzero entry"
                )
        a.flags.writeable = False
        b.flags.writeable = False
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def m(self) -> int:
        return self.b.shape[1]

    def driver_nodes(self) -> tuple[int, ...]:
        """Row index of each input column's nonzero entry."""
        return tuple(int(np.flatnonzero(self.b[:, j])[0]) for j in range(self.m))


@dataclass(frozen=True)
class RankVerdict:
    """Outcome of the sampled Kalman rank test. ``rank`` is the best rank
    seen across samples; full_rank means some sample reached N."""

    full_rank: bool
    rank: int
    samples_used: int
    tolerance: float


@dataclass(frozen=True)
class SteerResult:
    """Minimum-energy steering trajectory.

    ``times`` has steps+1 entries; ``states`` and ``inputs`` hold the
    state/input at those times (rows). ``final_error`` is the relative
    final-state error and ``input_energy`` the integral of |u|^2 dt.
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    final_error: float
    input_energy: float
    gramian_condition: float


def system_from_graph(
    g: DirectedGraph,
    drivers: Iterable[int],
    weights: Sequence[float] | np.ndarray | None = None,
    rng: np.random.Generator | None = None,
) -> LtiSystem:
    """Build the dense system for ``g`` with dedicated inputs.

    ``weights`` aligns with the lexicographically sorted edge list; when
    omitted they are drawn from [0.5, 1.5] using ``rng``.
    """
    driver_list = sorted(set(int(d) for d in drivers))
    if not driver_list:
        raise ContractViolationError("Kalman condition requires M >= 1 inputs")
    if driver_list[0] < 0 or driver_list[-1] >= g.node_count:
        raise ContractViolationError("driver ids out of range")
    e = g.edge_count
    if weights is None:
        if rng is None:
            rng = np.random.default_rng(0)
        weights = rng.uniform(WEIGHT_LOW, WEIGHT_HIGH, size=e)
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (e,):
        raise ContractViolationError("need exactly one weight per edge")
    if e and not weights.all():
        raise ContractViolationError("edge weights must be nonzero")

    a = np.zeros((g.node_count, g.node_count))
    a[g.dst, g.src] = weights  # edges are in lexicographic order

    b = np.zeros((g.node_count, len(driver_list)))
    for j, node in enumerate(driver_list):
        b[node, j] = 1.0
    return LtiSystem(a=a, b=b)


def controllability_matrix(s: LtiSystem) -> np.ndarray:
    """Block matrix [B, AB, A^2 B, ..., A^(N-1) B], N x (N*M).

    Computed by iterated multiplication with per-block column
    normalization to curb overflow; rescaling a column by a positive
    factor is an elementary operation, so the rank is unchanged.
    """
    n, m = s.n, s.m
    q = np.empty((n, n * m))
    block = np.array(s.b, dtype=float)
    for k in range(n):
        if k:
            block = s.a @ block
        norms = np.sqrt(np.add.reduce(block * block, axis=0))
        norms[norms == 0.0] = 1.0
        block /= norms
        q[:, k * m : (k + 1) * m] = block
    return q


def matrix_rank(q: np.ndarray, tol: float | None = None) -> int:
    """Numerical rank: singular values above tol * s_max * max(dims)."""
    if tol is None:
        tol = _EPS
    if not 0.0 < tol < np.inf:
        raise ContractViolationError(f"tolerance must be positive and finite, got {tol}")
    if q.size == 0:
        return 0
    sv = np.linalg.svd(q, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0] * max(q.shape)))


def structural_rank_test(
    g: DirectedGraph,
    drivers: Iterable[int],
    samples: int = 3,
    tol: float | None = None,
    seed: int = 0,
) -> RankVerdict:
    """Sampled Kalman rank test for a driver set on ``g``.

    Each sample draws fresh edge weights from [0.5, 1.5]; the verdict is
    full rank as soon as one sample reaches rank N (a generic property),
    and negative only after every sample fails. The default three samples
    guard against unlucky numerical borderline draws.
    """
    drivers = sorted(set(int(d) for d in drivers))
    if not drivers:
        raise ContractViolationError("Kalman condition requires M >= 1 inputs")
    if samples < 1:
        raise ContractViolationError("samples must be positive")
    if tol is None:
        tol = _EPS
    rng = np.random.default_rng(seed)
    n = g.node_count
    best = 0
    for i in range(samples):
        s = system_from_graph(g, drivers, rng=rng)
        rank = matrix_rank(controllability_matrix(s), tol)
        best = max(best, rank)
        if best == n:
            return RankVerdict(True, n, i + 1, tol)
    return RankVerdict(False, best, samples, tol)


def brute_force_min_drivers(
    g: DirectedGraph,
    samples: int = 3,
    tol: float | None = None,
    seed: int = 0,
) -> tuple[int, tuple[int, ...]]:
    """Smallest driver-set size passing the rank test, with one witness.

    Iterates subset sizes 1..N in lexicographic order; guaranteed to
    terminate because driving every node yields B = I. Exhaustive, so
    limited to N <= BRUTE_FORCE_MAX_STATES.
    """
    n = g.node_count
    if n > BRUTE_FORCE_MAX_STATES:
        raise SizeLimitError(
            f"brute force limited to N <= {BRUTE_FORCE_MAX_STATES}, got {n}"
        )
    if n == 0:
        raise ContractViolationError("no drivers exist for an empty graph")
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            verdict = structural_rank_test(g, subset, samples=samples, tol=tol, seed=seed)
            if verdict.full_rank:
                return size, subset
    raise AssertionError("unreachable: driving all nodes is always sufficient")


def controllability_gramian(s: LtiSystem, tf: float) -> np.ndarray:
    """Finite-horizon Gramian int_0^tf e^(At) B B' e^(A't) dt by composite
    Simpson quadrature over GRAMIAN_PANELS panels."""
    if not 0.0 < tf < np.inf:
        raise ContractViolationError(f"horizon tf must be positive and finite, got {tf}")
    h = tf / GRAMIAN_PANELS
    gram = np.zeros((s.n, s.n))
    for k in range(GRAMIAN_PANELS + 1):
        coeff = 1.0 if k in (0, GRAMIAN_PANELS) else (4.0 if k % 2 else 2.0)
        g_k = expm(s.a * (k * h)) @ s.b
        gram += coeff * (g_k @ g_k.T)
    return gram * (h / 3.0)


def _pattern_graph(s: LtiSystem) -> DirectedGraph:
    """Off-diagonal sparsity pattern of ``a`` as a digraph (a[i, j] != 0
    means edge j -> i); the diagonal is ignored."""
    rows, cols = np.nonzero(s.a)
    off = rows != cols
    return DirectedGraph.from_arrays(s.n, cols[off], rows[off])


def _rk4(s: LtiSystem, u_tab: np.ndarray, x0: np.ndarray, h: float) -> np.ndarray:
    """Classical fixed-step RK4 of x' = A x + B u from ``x0``, with u given on
    the half grid (2 * steps + 1 rows of ``u_tab``) so midpoint inputs are exact."""
    steps = len(u_tab) // 2
    bu = [s.b @ u for u in u_tab]
    states = np.empty((steps + 1, x0.size))
    states[0] = x0
    x = x0.astype(float)
    for i in range(steps):
        k1 = s.a @ x + bu[2 * i]
        k2 = s.a @ (x + 0.5 * h * k1) + bu[2 * i + 1]
        k3 = s.a @ (x + 0.5 * h * k2) + bu[2 * i + 1]
        k4 = s.a @ (x + h * k3) + bu[2 * i + 2]
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[i + 1] = x
    return states


def simulate(
    s: LtiSystem,
    u: Callable[[float], np.ndarray | Sequence[float] | float],
    x0: Sequence[float] | np.ndarray,
    tf: float,
    steps: int = 400,
) -> tuple[np.ndarray, np.ndarray]:
    """Integrate x' = A x + B u(t) with RK4; returns (times, states).

    No controllability requirement: this drives the open-loop system with
    whatever input the caller supplies (scalar u is broadcast when M=1).
    """
    if not 0.0 < tf < np.inf or steps < 1:
        raise ContractViolationError(
            f"tf must be positive and finite and steps positive, got {tf} and {steps}"
        )
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (s.n,):
        raise ContractViolationError("x0 must have one entry per state")
    half = np.linspace(0.0, tf, 2 * steps + 1)
    u_tab = np.empty((2 * steps + 1, s.m))
    for i, t in enumerate(half):
        u_tab[i] = np.broadcast_to(np.asarray(u(t), dtype=float), (s.m,))
    return half[::2], _rk4(s, u_tab, x0, tf / steps)


def steer(
    s: LtiSystem,
    x0: Sequence[float] | np.ndarray,
    xf: Sequence[float] | np.ndarray,
    tf: float,
    steps: int = 400,
    seed: int = 0,
) -> SteerResult:
    """Steer from x0 to xf over [0, tf] with the minimum-energy input.

    The input u(t) = B' e^(A'(tf-t)) W^-1 (xf - e^(A tf) x0) uses the
    finite-horizon Gramian W; the closed system is integrated with
    fixed-step RK4 over ``steps`` steps.

    Raises UncontrollableError when the driver pattern fails the sampled
    rank test, and IllConditionedError when W overflows (advice: decrease
    tf) or cond(W) exceeds 1e12 (advice: a smaller tf when W's largest
    eigenvalue exceeds one, else a larger one, or other drivers).
    """
    x0 = np.asarray(x0, dtype=float)
    xf = np.asarray(xf, dtype=float)
    if x0.shape != (s.n,) or xf.shape != (s.n,):
        raise ContractViolationError("x0 and xf must have one entry per state")
    if not 0.0 < tf < np.inf or steps < 1:
        raise ContractViolationError(
            f"tf must be positive and finite and steps positive, got {tf} and {steps}"
        )

    verdict = structural_rank_test(_pattern_graph(s), s.driver_nodes(), seed=seed)
    if not verdict.full_rank:
        raise UncontrollableError(
            f"driver set {sorted(s.driver_nodes())} fails the rank test "
            f"(rank {verdict.rank} of {s.n})"
        )

    with np.errstate(over="ignore", invalid="ignore"):
        gram = controllability_gramian(s, tf)
    if not np.isfinite(gram).all():
        raise IllConditionedError(f"Gramian overflows at tf={tf:g}; try a smaller tf")
    condition = float(np.linalg.cond(gram))
    if condition > MAX_GRAMIAN_CONDITION:
        # a largest eigenvalue above one means growth, which a shorter horizon
        # curbs; below one, directions the inputs barely reach yet need longer
        direction = "smaller" if np.linalg.eigvalsh(gram)[-1] > 1.0 else "larger"
        raise IllConditionedError(
            f"Gramian condition number {condition:.3e} exceeds "
            f"{MAX_GRAMIAN_CONDITION:.0e}; try a {direction} tf or different drivers"
        )
    eta = np.linalg.solve(gram, xf - expm(s.a * tf) @ x0)

    half = np.linspace(0.0, tf, 2 * steps + 1)
    u_tab = np.empty((2 * steps + 1, s.m))
    for i, t in enumerate(half):
        u_tab[i] = s.b.T @ expm(s.a.T * (tf - t)) @ eta
    states = _rk4(s, u_tab, x0, tf / steps)

    norm_target = float(np.linalg.norm(xf))
    err = float(np.linalg.norm(states[-1] - xf))
    final_error = err / norm_target if norm_target > 0.0 else err

    # |u|^2 on the half grid has 2*steps panels, an even count: Simpson.
    sq = np.einsum("ij,ij->i", u_tab, u_tab)
    weights = np.ones(2 * steps + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    energy = float((tf / (2 * steps) / 3.0) * (weights @ sq))

    return SteerResult(
        times=half[::2],
        states=states,
        inputs=u_tab[::2],
        final_error=final_error,
        input_energy=energy,
        gramian_condition=condition,
    )
