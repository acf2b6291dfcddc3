"""Seeded benchmark inputs, written with numpy alone.

The program under test never generates these files, so a change to
netctl's generators cannot change what the ``analyze-*`` and ``oracle``
workloads measure. The same seed always gives the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class EdgeList:
    """A generated digraph: ``src[i] -> dst[i]``, no self-loops, no
    duplicates, every node 0..n-1 present in at least one edge."""

    n: int
    src: np.ndarray
    dst: np.ndarray

    @property
    def e(self) -> int:
        return int(self.src.size)

    def degrees(self) -> tuple[np.ndarray, np.ndarray]:
        """(in-degree, out-degree) per node."""
        return (np.bincount(self.dst, minlength=self.n),
                np.bincount(self.src, minlength=self.n))

    def edge_space(self) -> int:
        """Edges of the line digraph: sum over nodes of k_in * k_out."""
        k_in, k_out = self.degrees()
        return int(np.dot(k_in.astype(np.int64), k_out.astype(np.int64)))

    def text(self) -> bytes:
        order = np.lexsort((self.dst, self.src))
        pairs = np.column_stack((self.src[order], self.dst[order]))
        return ("\n".join(f"{s} {t}" for s, t in pairs.tolist()) + "\n").encode()

    def write(self, path: Path) -> dict:
        """Write the edge list and return its provenance record."""
        data = self.text()
        path.write_bytes(data)
        return {
            "path": path.name,
            "sha256": hashlib.sha256(data).hexdigest(),
            "nodes": self.n,
            "edges": self.e,
            "edge_space": self.edge_space(),
        }


def _distinct(src: np.ndarray, dst: np.ndarray, n: int, want: int):
    """First ``want`` distinct non-loop pairs, in draw order."""
    keep = src != dst
    src, dst = src[keep], dst[keep]
    _, first = np.unique(src.astype(np.int64) * n + dst, return_index=True)
    first.sort()
    first = first[:want]
    return src[first], dst[first]


def _relabel(n: int, src: np.ndarray, dst: np.ndarray, rng) -> EdgeList:
    """Drop nodes no edge touches, then shuffle the remaining ids."""
    used = np.unique(np.concatenate((src, dst)))
    dense = np.full(n, -1, dtype=np.int64)
    dense[used] = rng.permutation(used.size)
    return EdgeList(int(used.size), dense[src], dense[dst])


def uniform_digraph(n: int, e: int, rng: np.random.Generator) -> EdgeList:
    """E distinct ordered pairs drawn uniformly (Erdos-Renyi G(n, E))."""
    src = np.empty(0, dtype=np.int64)
    dst = np.empty(0, dtype=np.int64)
    while src.size < e:
        batch = 2 * (e - src.size) + 16
        src, dst = _distinct(
            np.concatenate((src, rng.integers(0, n, batch))),
            np.concatenate((dst, rng.integers(0, n, batch))),
            n, e,
        )
    return _relabel(n, src, dst, rng)


def static_scale_free(n: int, e: int, gamma: float,
                      rng: np.random.Generator) -> EdgeList:
    """Static model (Goh, Kahng & Kim 2001): node i has in- and out-weight
    (i+1)^(-1/(gamma-1)); both endpoints of each edge are drawn by weight.

    In- and out-weights sit on the same node, so the hubs of both
    directions coincide and the edge space sum k_in * k_out depends on
    the weights far more than on the seed.
    """
    weights = np.arange(1, n + 1, dtype=float) ** (-1.0 / (gamma - 1.0))
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    src = np.empty(0, dtype=np.int64)
    dst = np.empty(0, dtype=np.int64)
    while src.size < e:
        batch = 2 * (e - src.size) + 16
        draw = np.searchsorted(cdf, rng.random((2, batch)), side="right")
        src, dst = _distinct(
            np.concatenate((src, draw[0])), np.concatenate((dst, draw[1])), n, e
        )
    return _relabel(n, src, dst, rng)


def small_digraph(n: int, e: int, rng: np.random.Generator) -> EdgeList:
    """Uniform digraph on exactly n nodes (redrawn until every node is
    on some edge, so the CLI sees all n states)."""
    while True:
        g = uniform_digraph(n, e, rng)
        if g.n == n:
            return g
