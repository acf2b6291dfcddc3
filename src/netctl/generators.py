"""Seeded random digraph generators (uniform and scale-free).

Reproducibility contract: generation uses SplitMix64, a fully specified
64-bit generator, so the same spec yields the same graph on any platform
(and in reimplementations in other languages). The algorithm, per draw:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = ((z XOR (z >> 30)) * 0xBF58476D1CE4E5B9) mod 2^64
    z = ((z XOR (z >> 27)) * 0x94D049BB133111EB) mod 2^64
    output = z XOR (z >> 31)

Bounded integers use rejection below the largest multiple of the bound
(no modulo bias); uniform doubles take the top 53 bits / 2^53. Replicate
seeds come from :func:`derive_seed`, which applies the SplitMix64 output
mixing to seed + (index+1) * 0x9E3779B97F4A7C15 mod 2^64.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .errors import GenerationStallError, InfeasibleSpecError
from .graph import DirectedGraph

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# Largest n a spec accepts: the graph's int64 row pointer alone takes
# 8 * (n + 1) bytes, and the ER pair index n * (n - 1) stays in int64.
MAX_NODES = 10**8


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """The SplitMix64 generator (see module docstring for the algorithm)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def next_below(self, bound: int) -> int:
        """Uniform integer in [0, bound), bias-free by rejection."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % bound

    def next_float(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * 2.0**-53


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-replicate seed (documented mixing, see module
    docstring)."""
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one generated graph.

    ``mean_degree`` counts each edge once (E/N), so the realized edge
    count is round(mean_degree * n), rounding half up. ``gamma`` is the
    scale-free tail exponent, unused by the uniform model.
    """

    model: str
    n: int
    mean_degree: float
    gamma: float = 3.0
    seed: int = 0

    def __post_init__(self):
        if self.model not in ("er", "sf"):
            raise InfeasibleSpecError(f"unknown model {self.model!r}")
        if not 1 <= self.n <= MAX_NODES:
            raise InfeasibleSpecError(f"n must be between 1 and {MAX_NODES}, got {self.n}")
        if not 0.0 <= self.mean_degree < math.inf:
            raise InfeasibleSpecError(
                f"mean_degree must be non-negative and finite, got {self.mean_degree}"
            )
        if self.model == "sf" and not 2.0 < self.gamma < math.inf:
            raise InfeasibleSpecError(f"gamma must be finite and exceed 2, got {self.gamma}")
        if not math.isfinite(self.mean_degree * self.n):
            raise InfeasibleSpecError(f"mean_degree {self.mean_degree} times n is not finite")
        if self.edge_count > self.n * (self.n - 1):
            raise InfeasibleSpecError(
                f"mean_degree {self.mean_degree} needs {self.edge_count} edges, "
                f"but {self.n} nodes admit at most {self.n * (self.n - 1)}"
            )

    @property
    def edge_count(self) -> int:
        # round half up, portably (avoids banker's rounding)
        return int(self.mean_degree * self.n + 0.5)


def generate_er(spec: GeneratorSpec) -> DirectedGraph:
    """Uniform digraph with exactly E = round(mean_degree * n) edges.

    Samples E distinct ordered pairs without replacement using Floyd's
    algorithm (exactly E accepted draws regardless of density), so the
    draw sequence - and hence the graph - is fixed by the seed.
    """
    if spec.model != "er":
        raise InfeasibleSpecError("generate_er requires model='er'")
    rng = SplitMix64(spec.seed)
    population = spec.n * (spec.n - 1)
    target = spec.edge_count
    chosen: set[int] = set()
    for j in range(population - target, population):
        t = rng.next_below(j + 1)
        chosen.add(t if t not in chosen else j)
    # k-th ordered pair of [0, n*(n-1)), row-major with the diagonal skipped
    k = np.array(sorted(chosen), dtype=np.int64)
    src, rem = np.divmod(k, spec.n - 1)
    return DirectedGraph.from_arrays(spec.n, src, rem + (rem >= src))


def generate_sf(spec: GeneratorSpec) -> DirectedGraph:
    """Scale-free digraph via the static model.

    Node i carries weight (i+1)^(-1/(gamma-1)); each edge draws source
    and target independently in proportion to the weights, rejecting
    self-loops and duplicates. More than 100*E consecutive rejections
    abort with advice to lower the density.
    """
    if spec.model != "sf":
        raise InfeasibleSpecError("generate_sf requires model='sf'")
    rng = SplitMix64(spec.seed)
    target = spec.edge_count
    if target == 0:
        return DirectedGraph(spec.n)

    alpha = 1.0 / (spec.gamma - 1.0)
    cumulative = list(accumulate((i + 1) ** -alpha for i in range(spec.n)))
    total = cumulative[-1]

    def draw_node() -> int:
        return bisect_right(cumulative, rng.next_float() * total)

    edges: set[tuple[int, int]] = set()
    stall_limit = 100 * target
    rejections = 0
    while len(edges) < target:
        src, dst = draw_node(), draw_node()
        if src == dst or (src, dst) in edges:
            rejections += 1
            if rejections > stall_limit:
                raise GenerationStallError(
                    f"{rejections} consecutive rejections at {len(edges)}/{target} "
                    "edges; lower mean_degree (hub saturation)"
                )
            continue
        rejections = 0
        edges.add((src, dst))
    return DirectedGraph(spec.n, edges)


def generate(spec: GeneratorSpec) -> DirectedGraph:
    """Dispatch on spec.model."""
    return generate_er(spec) if spec.model == "er" else generate_sf(spec)
