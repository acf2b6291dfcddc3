"""Independent checks of netctl outputs.

Nothing here imports netctl. Node matchings come from scipy's
``maximum_bipartite_matching``, edge control from degree arithmetic
(the line digraph's bipartite split is a disjoint union of complete
blocks K(k_in(v), k_out(v))), controllability from a Krylov-basis rank
test and Lin's structural criterion, and sweep rows from a
reimplementation of the documented SplitMix64 generator.

Every ``check_*`` function returns a list of problems; empty means the
output passed.
"""

from __future__ import annotations

import csv
import json
import statistics
from itertools import combinations

import numpy as np
from scipy.linalg import expm
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import maximum_bipartite_matching

from inputs import EdgeList

CHECK_SAMPLES = 3
#: Largest steering error the check accepts, relative to |xf|.
STEER_MAX_ERROR = 1e-4


def r6(x: float) -> float:
    """The CLI's float rounding: 6 significant digits."""
    return float(f"{x:.6g}")


# ------------------------------------------------------------ structure

def _match_rows(g: EdgeList, rows: np.ndarray) -> np.ndarray:
    """Maximum matching of the in-copies ``rows`` to out-copies of the
    plus/minus split: the matched out-copy of each row, or -1."""
    keep = np.isin(g.dst, rows)
    index = np.full(g.n, -1, dtype=np.int64)
    index[rows] = np.arange(rows.size)
    m = csr_matrix(
        (np.ones(int(keep.sum())), (index[g.dst[keep]], g.src[keep])),
        shape=(rows.size, g.n),
    )
    return maximum_bipartite_matching(m, perm_type="column")


def matching_size(g: EdgeList, rows: np.ndarray | None = None) -> int:
    """Size of a maximum matching; ``rows`` restricts the in-copies used."""
    return int((_match_rows(g, np.arange(g.n) if rows is None else rows) >= 0).sum())


def unmatched_in_copies(g: EdgeList) -> list[int]:
    """In-copies a maximum matching leaves free (a minimum driver set
    when the graph has no unreachable perfectly matched part)."""
    return np.flatnonzero(_match_rows(g, np.arange(g.n)) < 0).tolist()


def reciprocated(g: EdgeList) -> int:
    """Edges whose reverse is also an edge."""
    keys = set((g.src * g.n + g.dst).tolist())
    return sum(1 for s, t in zip(g.src.tolist(), g.dst.tolist()) if t * g.n + s in keys)


def line_digraph(g: EdgeList) -> tuple[EdgeList, list[tuple[int, int]]]:
    """Edge-space digraph; its node i is the i-th edge in lexicographic
    order, and i -> j when edge i ends where edge j starts."""
    edges = sorted(zip(g.src.tolist(), g.dst.tolist()))
    by_source: dict[int, list[int]] = {}
    for i, (s, _) in enumerate(edges):
        by_source.setdefault(s, []).append(i)
    pairs = [(i, j) for i, (_, t) in enumerate(edges) for j in by_source.get(t, ())]
    src = np.array([p[0] for p in pairs], dtype=np.int64)
    dst = np.array([p[1] for p in pairs], dtype=np.int64)
    return EdgeList(len(edges), src, dst), edges


def reachable(g: EdgeList, sources) -> set[int]:
    """Nodes reachable from ``sources`` (sources included)."""
    succ: list[list[int]] = [[] for _ in range(g.n)]
    for s, t in zip(g.src.tolist(), g.dst.tolist()):
        succ[s].append(t)
    seen = set(sources)
    stack = list(seen)
    while stack:
        for v in succ[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def structurally_controllable(g: EdgeList, drivers) -> bool:
    """Lin's criterion: every node reachable from a driver, and the
    non-driver in-copies matched all at once."""
    drivers = sorted(set(drivers))
    if len(reachable(g, drivers)) < g.n:
        return False
    rest = np.setdiff1d(np.arange(g.n), drivers)
    return matching_size(g, rest) == rest.size


def structural_minimum(g: EdgeList) -> tuple[int, tuple[int, ...]]:
    """Smallest structurally controlling driver set, lexicographically
    first among those of that size."""
    for size in range(1, g.n + 1):
        for subset in combinations(range(g.n), size):
            if structurally_controllable(g, subset):
                return size, subset
    raise AssertionError("driving every node always controls")


def kalman_rank(g: EdgeList, drivers, rng: np.random.Generator) -> int:
    """Best rank of [B, AB, ..., A^(n-1) B] over a few weight samples.

    The Krylov space is grown one orthonormal block at a time, so the
    rank is read from well-scaled vectors rather than from powers of A.
    """
    drivers = sorted(set(drivers))
    best = 0
    for _ in range(CHECK_SAMPLES):
        a = np.zeros((g.n, g.n))
        a[g.dst, g.src] = rng.uniform(0.5, 1.5, g.e)
        tol = 1e-9 * max(1.0, float(np.linalg.norm(a, 2)))
        basis = np.zeros((g.n, 0))
        block = np.eye(g.n)[:, drivers]
        while basis.shape[1] < g.n:
            for _ in range(2):
                block = block - basis @ (basis.T @ block)
            u, s, _ = np.linalg.svd(block, full_matrices=False)
            fresh = u[:, s > tol]
            if not fresh.shape[1]:
                break
            basis = np.hstack((basis, fresh))
            block = a @ fresh
        best = max(best, basis.shape[1])
        if best == g.n:
            break
    return best


def gramian_condition(g: EdgeList, drivers, tf: float,
                      rng: np.random.Generator) -> float:
    """Condition number of the finite-horizon Gramian (Van Loan's block
    exponential), for one weight sample."""
    n = g.n
    a = np.zeros((n, n))
    a[g.dst, g.src] = rng.uniform(0.5, 1.5, g.e)
    b = np.eye(n)[:, sorted(set(drivers))]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = b @ b.T
    block[n:, n:] = a.T
    e = expm(block * tf)
    return float(np.linalg.cond(e[n:, n:].T @ e[:n, n:]))


# -------------------------------------------------------------- analyze

def check_analyze(report: dict, g: EdgeList, digest: str) -> list[str]:
    """Check an ``analyze`` report against ``g`` (all ids are dense)."""
    problems: list[str] = []

    def expect(what, got, want):
        if got != want:
            problems.append(f"{what}: got {got!r}, expected {want!r}")

    n, e = g.n, g.e
    inp = report["input"]
    expect("sha256", inp["sha256"], digest)
    expect("node_count", inp["node_count"], n)
    expect("edge_count", inp["edge_count"], e)
    expect("raw_edge_count", inp["raw_edge_count"], e)
    expect("duplicate_edges_collapsed", inp["duplicate_edges_collapsed"], 0)

    k_in, k_out = g.degrees()
    stats = report["stats"]
    expect("density", stats["density"], r6(e / (n * (n - 1))))
    expect("density_unordered_pairs", stats["density_unordered_pairs"],
           r6(2.0 * e / (n * (n - 1))))
    expect("mean_degree", stats["mean_degree"], r6(e / n))
    expect("reciprocity", stats["reciprocity"], r6(reciprocated(g) / e))
    expect("isolated_nodes", stats["isolated_nodes"], 0)

    node = report["node_control"]
    m = matching_size(g)
    count = max(n - m, 1)
    drivers = np.array(node["driver_nodes"], dtype=np.int64)
    expect("node matching_size", node["matching_size"], m)
    expect("node driver_count", node["driver_count"], count)
    expect("node driver list length", drivers.size, count)
    expect("node n_d", node["n_d"], r6(count / n))
    if (drivers.size == 0 or np.unique(drivers).size != drivers.size
            or drivers.min() < 0 or drivers.max() >= n):
        problems.append("node drivers are not distinct node ids")
    else:
        rest = np.setdiff1d(np.arange(n), drivers)
        if matching_size(g, rest) != rest.size:
            problems.append("non-driver in-copies cannot all be matched")
    problems += _check_flag("node", node["alternate_matchings"])

    edge = report["edge_control"]
    line_m = int(np.minimum(k_in, k_out).sum())
    edge_count = max(e - line_m, 1)
    expect("line_matching_size", edge["line_matching_size"], line_m)
    expect("driver_edge_count", edge["driver_edge_count"], edge_count)
    expect("m_d", edge["m_d"], r6(edge_count / e))
    driver_edges = [tuple(p) for p in edge["driver_edges"]]
    expect("driver edge list length", len(driver_edges), edge_count)
    if not set(driver_edges) <= set(zip(g.src.tolist(), g.dst.tolist())):
        problems.append("driver edges are not edges of the input")
    elif len(set(driver_edges)) != len(driver_edges):
        problems.append("driver edges repeat")
    elif e > line_m:
        leaving = np.bincount([s for s, _ in driver_edges], minlength=n)
        if not np.array_equal(leaving, np.maximum(k_out - k_in, 0)):
            problems.append("driver edges per node differ from max(k_out - k_in, 0)")
    sources = sorted({s for s, _ in driver_edges})
    expect("edge driver_nodes", edge["driver_nodes"], sources)
    expect("edge driver_node_count", edge["driver_node_count"], len(sources))
    expect("edge n_d", edge["n_d"], r6(len(sources) / n))
    problems += _check_flag("edge", edge["alternate_matchings"])
    return problems


def _check_flag(method: str, flag) -> list[str]:
    if flag is True or flag is False or flag == "unchecked":
        return []
    return [f"{method} alternate_matchings is {flag!r}"]


# --------------------------------------------------------------- verify

def check_verify(report: dict, system: EdgeList, drivers, labels: list,
                 minimal: bool, exit_code: int, seed: int) -> list[str]:
    """Check a ``verify`` report. ``system`` is the state graph (the
    digraph, or its line digraph in edge mode) and ``labels[i]`` is how
    the report names state i."""
    problems: list[str] = []
    rng = np.random.default_rng(seed)
    full = kalman_rank(system, drivers, rng) == system.n
    if report["state_dimension"] != system.n:
        problems.append("state_dimension differs")
    if report["drivers"] != sorted(labels[d] for d in set(drivers)):
        problems.append("driver labels differ")
    if report["full_rank"] is not full:
        problems.append(f"full_rank {report['full_rank']}, own Kalman test says {full}")
    if report["full_rank"] and report["rank"] != system.n:
        problems.append("full rank reported with rank below the state dimension")
    if exit_code != (0 if report["full_rank"] else 3):
        problems.append(f"exit code {exit_code} does not match the verdict")
    if minimal:
        size, _ = structural_minimum(system)
        reverse = {label: i for i, label in enumerate(labels)}
        witness = [reverse.get(label) for label in report["minimal"]["witness"]]
        if report["minimal"]["size"] != size:
            problems.append(f"minimal size {report['minimal']['size']}, expected {size}")
        if None in witness or len(set(witness)) != size:
            problems.append("minimal witness is not a set of states of that size")
        elif kalman_rank(system, witness, rng) != system.n:
            problems.append("minimal witness fails the own Kalman test")
    return problems


# ---------------------------------------------------------------- steer

def check_steer(csv_text: str, summary: str, n: int, drivers: int,
                x0: np.ndarray, xf: np.ndarray, tf: float, steps: int) -> list[str]:
    """Check a ``steer`` trajectory CSV and its summary line."""
    fields = dict(item.split("=") for item in summary.split())
    error = float(fields["final_state_relative_error"])
    rows = np.loadtxt(csv_text.splitlines(), delimiter=",", skiprows=1, ndmin=2)
    problems: list[str] = []
    if rows.shape != (steps + 1, 1 + n + drivers):
        return [f"trajectory shape {rows.shape}"]
    if not np.allclose(rows[:, 0], np.linspace(0.0, tf, steps + 1), rtol=1e-5):
        problems.append("time column is not the uniform grid")
    if not np.allclose(rows[0, 1:n + 1], x0, rtol=1e-5, atol=1e-9):
        problems.append("trajectory does not start at x0")
    if not error <= STEER_MAX_ERROR:
        problems.append(f"reported final error {error}")
    final = np.linalg.norm(rows[-1, 1:n + 1] - xf) / np.linalg.norm(xf)
    if not final <= STEER_MAX_ERROR + 1e-5:
        problems.append(f"trajectory ends {final:.3g} away from xf")
    if not float(fields["gramian_condition"]) >= 1.0:
        problems.append("gramian_condition below 1")
    return problems


# ---------------------------------------------------------------- sweep

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(seed: int, index: int) -> int:
    return _mix64((seed + (index + 1) * _GOLDEN) & _MASK64)


def splitmix_er(n: int, k: float, seed: int) -> EdgeList:
    """The documented uniform generator: Floyd's sampling of
    round(k * n) ordered pairs with SplitMix64 bounded draws."""
    state = seed & _MASK64
    population = n * (n - 1)
    target = int(k * n + 0.5)
    chosen: set[int] = set()
    for j in range(population - target, population):
        bound = j + 1
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            state = (state + _GOLDEN) & _MASK64
            x = _mix64(state)
            if x < limit:
                break
        t = x % bound
        chosen.add(t if t not in chosen else j)
    keys = np.array(sorted(chosen), dtype=np.int64)
    src, rem = np.divmod(keys, n - 1)
    return EdgeList(n, src, rem + (rem >= src))


def sweep_row(n: int, k: float, seed: int) -> list[str]:
    """CSV fields node_n_d, edge_n_d, edge_m_d, reciprocity for one
    replicate, recomputed from scratch."""
    g = splitmix_er(n, k, seed)
    e = g.e
    node = max(n - matching_size(g), 1)
    if not e:
        return [f"{node / n:.6g}", "0", "0", "0"]
    k_in, k_out = g.degrees()
    surplus = int(np.maximum(k_out - k_in, 0).sum())
    driver_nodes = int((k_out > k_in).sum()) if surplus else 1
    return [f"{x:.6g}" for x in (node / n, driver_nodes / n, max(surplus, 1) / e,
                                 reciprocated(g) / e)]


def check_sweep(csv_text: str, summary_text: str, *, model: str, n: int,
                ks: list[float], replicates: int, seed: int,
                sample: list[int]) -> list[str]:
    """Check a sweep CSV and summary; rows ``sample`` are recomputed."""
    rows = list(csv.reader(csv_text.splitlines()))
    problems: list[str] = []
    header = "model,n,mean_degree,seed,node_n_d,edge_n_d,edge_m_d,reciprocity"
    if ",".join(rows[0]) != header or len(rows) != 1 + len(ks) * replicates:
        return ["sweep CSV header or row count"]
    rows = rows[1:]
    for i, row in enumerate(rows):
        k = ks[i // replicates]
        if row[:4] != [model, str(n), f"{k:.6g}", str(derive_seed(seed, i))]:
            problems.append(f"sweep row {i} spec fields {row[:4]}")
    for i in sample:
        want = sweep_row(n, ks[i // replicates], derive_seed(seed, i))
        if rows[i][4:] != want:
            problems.append(f"sweep row {i}: got {rows[i][4:]}, recomputed {want}")

    summary = json.loads(summary_text)
    if len(summary) != len(ks):
        return problems + ["sweep summary length"]
    for j, entry in enumerate(summary):
        chunk = rows[j * replicates:(j + 1) * replicates]
        for method, field, col in (("node_control", "n_d", 4), ("edge_control", "n_d", 5),
                                   ("edge_control", "m_d", 6)):
            values = [float(r[col]) for r in chunk]
            mean = statistics.fmean(values)
            if abs(entry[method][f"{field}_mean"] - mean) > 1e-5 * max(1.0, abs(mean)):
                problems.append(f"summary {method} {field}_mean at k={ks[j]:.6g}")
    return problems
