"""Command-line interface: analyze, sweep, verify, generate, steer.

Exit codes: 0 success, 2 input error, 3 verification/steering failure,
so scripts can tell "uncontrollable" apart from "broken input". JSON is
the canonical machine output (floats at 6 significant digits); CSV is
used only for tabular sweep/trajectory data. Outputs are deterministic:
identical flags and inputs produce byte-identical files.

Every JSON output goes through one writer, which lays it out as
``json.dumps(indent=2)`` does: scalars go through ``json.dumps``, and
the ``analyze`` driver id lists are written straight from the id arrays.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

# Every dense matrix here is at most 25 x 25, where extra BLAS threads only
# spin; set before numpy (and scipy) load, and a caller's value still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from . import __version__
from .edge_control import analyze_edge_control
from .errors import (
    IllConditionedError,
    NetctlError,
    SizeLimitError,
    UncontrollableError,
)
from .generators import GeneratorSpec, derive_seed, generate
from .graph import (
    ParsedEdgeList,
    compute_stats,
    max_id_digits,
    parse_edge_list_report,
    serialize_edge_list,
    to_line_digraph,
)
from .kalman import (
    BRUTE_FORCE_MAX_STATES,
    brute_force_min_drivers,
    steer,
    structural_rank_test,
    system_from_graph,
)
from .node_control import analyze_node_control

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_VERIFY = 3

#: Dense-rank operations (verify/steer) refuse above this state size to
#: keep the controllability matrix numerically meaningful.
RANK_TEST_MAX_STATES = 25


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _id_list_json(ids: np.ndarray, pad: str) -> str:
    """``json.dumps(ids.tolist(), indent=2)`` for an id array whose key sits
    ``pad`` deep: a 1-D array of ids or the (k, 2) rows of driver edges."""
    if not ids.size:
        return "[]"
    inner = pad + "  "
    items = map(str, ids.ravel().tolist())
    if ids.ndim == 1:
        return f"[\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}]"
    # each row is a two-id list one level deeper; zipping the one iterator
    # with itself pairs consecutive ids
    cell = inner + "  "
    rows = map(f",\n{cell}".join, zip(items, items))
    return (f"[\n{inner}[\n{cell}" + f"\n{inner}],\n{inner}[\n{cell}".join(rows)
            + f"\n{inner}]\n{pad}]")


def _json(obj, pad: str = "") -> str:
    """``json.dumps(obj, indent=2)`` for a value whose line starts ``pad``
    deep, once its floats are rounded to 6 significant digits: dicts and
    lists recurse, id arrays go to ``_id_list_json`` and every other
    scalar through ``json.dumps``."""
    if isinstance(obj, np.ndarray):
        return _id_list_json(obj, pad)
    inner = pad + "  "
    if isinstance(obj, dict):
        brackets = "{}"
        items = [f"{json.dumps(key)}: {_json(value, inner)}" for key, value in obj.items()]
    elif isinstance(obj, list):
        brackets, items = "[]", [_json(value, inner) for value in obj]
    else:
        return json.dumps(float(f"{obj:.6g}") if isinstance(obj, float) else obj)
    if not items:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _load(path: str) -> tuple[ParsedEdgeList, str]:
    data = Path(path).read_bytes()
    return parse_edge_list_report(data), hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------- analyze

def analysis_report(parsed: ParsedEdgeList, source: str, digest: str) -> dict:
    """Full two-method report on one ingested graph.

    Every driver fraction is emitted next to a "controlled" label; node
    ids in the report use the ids from the input file, and the driver
    sets stay id arrays. Density is given under both normalizations
    (ordered pairs, and edges per unordered pair) since published figures
    use either.
    """
    g = parsed.graph
    stats = compute_stats(g)
    node = analyze_node_control(g)
    edge = analyze_edge_control(g)
    orig = parsed.original_ids
    return {
        "tool": {"name": "netctl", "version": __version__},
        "input": {
            "path": source,
            "sha256": digest,
            "node_count": g.node_count,
            "edge_count": g.edge_count,
            "raw_edge_count": parsed.raw_edge_count,
            "duplicate_edges_collapsed": parsed.duplicate_count,
        },
        "stats": {
            "density": stats.density,
            "density_unordered_pairs": 2.0 * stats.density,
            "mean_degree": stats.mean_degree,
            "reciprocity": stats.reciprocity,
            "isolated_nodes": stats.isolated_count,
        },
        "node_control": {
            "method": node.method,
            "controlled": "nodes",
            "n_d": node.n_d,
            "driver_count": len(node.driver_nodes),
            "matching_size": node.matching_size,
            "alternate_matchings": node.alternate_matchings,
            "driver_nodes": orig[node.driver_nodes],
        },
        "edge_control": {
            "method": edge.method,
            "controlled": "edges",
            "n_d": edge.n_d,
            "m_d": edge.m_d,
            "driver_node_count": len(edge.driver_nodes),
            "driver_edge_count": len(edge.driver_edges),
            "line_matching_size": edge.line_matching_size,
            "alternate_matchings": edge.alternate_matchings,
            "driver_nodes": orig[edge.driver_nodes],
            "driver_edges": orig[edge.driver_edges],
        },
    }


def cmd_analyze(args) -> int:
    parsed, digest = _load(args.path)
    if parsed.graph.node_count == 0:
        print("error: input describes an empty graph", file=sys.stderr)
        return EXIT_INPUT
    _write_text(_json(analysis_report(parsed, args.path, digest)) + "\n", args.out)
    return EXIT_OK


# ------------------------------------------------------------------ sweep

def _sweep_task(task: tuple[str, int, float, float, int]) -> tuple[float, float, float, float]:
    """(node n_d, edge n_d, edge m_d, reciprocity) of the task's generated graph."""
    model, n, k, gamma, seed = task
    g = generate(GeneratorSpec(model=model, n=n, mean_degree=k, gamma=gamma, seed=seed))
    node, edge = analyze_node_control(g), analyze_edge_control(g)
    return node.n_d, edge.n_d, edge.m_d, compute_stats(g).reciprocity


def _mean_std(values: tuple[float, ...]) -> tuple[float, float]:
    import statistics  # ~40 ms at start-up that only the sweep needs

    return statistics.fmean(values), statistics.stdev(values) if len(values) > 1 else 0.0


def _worker_count(task_count: int) -> int:
    cap = os.cpu_count() or 1
    env = os.environ.get("NETCTL_THREADS")
    if env:
        try:
            cap = min(cap, int(env))
        except ValueError:
            raise NetctlError(f"NETCTL_THREADS must be an integer, got {env!r}")
    return max(1, min(cap, task_count))


def _summary_path(out: str) -> str:
    return (out[:-4] if out.endswith(".csv") else out) + ".summary.json"


def cmd_sweep(args) -> int:
    # imported here: no other command needs it
    from concurrent.futures import ProcessPoolExecutor

    if args.k_max < args.k_min:
        raise NetctlError("k-max must be at least k-min")
    if args.k_max > args.n - 1:
        raise NetctlError("k-max cannot exceed n - 1")
    if args.k_steps < 1 or args.replicates < 1:
        raise NetctlError("k-steps and replicates must be positive")
    if args.k_steps == 1:
        ks = [args.k_min]
    else:
        span = (args.k_max - args.k_min) / (args.k_steps - 1)
        ks = [args.k_min + i * span for i in range(args.k_steps)]

    tasks = [
        (args.model, args.n, k, args.gamma, derive_seed(args.seed, i * args.replicates + r))
        for i, k in enumerate(ks)
        for r in range(args.replicates)
    ]
    workers = _worker_count(len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_task, tasks, chunksize=1))
    else:
        rows = [_sweep_task(task) for task in tasks]

    lines = ["model,n,mean_degree,seed,node_n_d,edge_n_d,edge_m_d,reciprocity"]
    for (model, n, k, _, seed), row in zip(tasks, rows):
        lines.append(f"{model},{n},{k:.6g},{seed}," + ",".join(f"{v:.6g}" for v in row))
    Path(args.out).write_text("\n".join(lines) + "\n")

    summary = []
    for i, k in enumerate(ks):
        chunk = rows[i * args.replicates : (i + 1) * args.replicates]
        node_n_d, edge_n_d, edge_m_d, _ = zip(*chunk)
        node_mean, node_std = _mean_std(node_n_d)
        edge_mean, edge_std = _mean_std(edge_n_d)
        md_mean, md_std = _mean_std(edge_m_d)
        summary.append({
            "model": args.model,
            "n": args.n,
            "mean_degree": k,
            "replicates": args.replicates,
            "node_control": {
                "controlled": "nodes", "n_d_mean": node_mean, "n_d_std": node_std,
            },
            "edge_control": {
                "controlled": "edges", "n_d_mean": edge_mean, "n_d_std": edge_std,
                "m_d_mean": md_mean, "m_d_std": md_std,
            },
        })
    _write_text(_json(summary) + "\n", _summary_path(args.out))
    return EXIT_OK


# ----------------------------------------------------------------- verify

def _find(ordered: np.ndarray, key: int, lo: int, hi: int) -> int | None:
    """Index of ``key`` in the ascending ``ordered[lo:hi]``, or None. No int64
    array holds a key of 2**63 or more (and numpy < 2 compares one inexactly)."""
    if ordered.dtype != object and key >= 2**63:
        return None
    i = lo + int(np.searchsorted(ordered[lo:hi], key))
    return i if i < hi and ordered[i] == key else None


def _parse_drivers(text: str, parsed: ParsedEdgeList, mode: str) -> list[int]:
    """State indices named by ``--drivers``: node ids '0,2' in node mode,
    edges '0-1,2-3' in edge mode, where an edge's state index is its
    position in the sorted edge list (the line digraph's node order).
    Ids follow the edge-list grammar: ASCII digits, at most max_id_digits() of them."""
    orig, g = parsed.original_ids, parsed.graph
    arity, shape = (1, "a node id") if mode == "node" else (2, "an edge 'src-dst'")
    drivers = []
    for token in text.split(","):
        token = token.strip()
        ids = token.split("-")
        if len(ids) != arity or not all(part.isascii() and part.isdigit() for part in ids):
            raise NetctlError(f"driver {token!r} is not {shape} of ASCII digits")
        if max(map(len, ids)) > max_id_digits():
            raise NetctlError(f"driver id over the limit of {max_id_digits()} digits")
        found = [_find(orig, int(part), 0, orig.size) for part in ids]
        if mode == "edge" and None not in found:
            s, t = found
            found = [_find(g.dst, t, int(g.indptr[s]), int(g.indptr[s + 1]))]
        if None in found:
            raise NetctlError(f"driver {token!r} does not appear in the input")
        drivers.append(found[0])
    return drivers


def _check_seed(seed: int) -> None:
    if seed < 0:  # numpy's generators, which draw the weights, refuse it
        raise NetctlError(f"--seed must be non-negative, got {seed}")


def cmd_verify(args) -> int:
    _check_seed(args.seed)
    parsed, _ = _load(args.path)
    g = parsed.graph
    drivers = _parse_drivers(args.drivers, parsed, args.mode)
    # edge mode has one state per edge: refuse before building edge space
    dim = g.node_count if args.mode == "node" else g.edge_count
    if dim > RANK_TEST_MAX_STATES:
        raise SizeLimitError(
            f"rank test limited to {RANK_TEST_MAX_STATES} states, got {dim}; "
            "use the matching-based analyze command for large networks"
        )
    orig = parsed.original_ids.tolist()
    if args.mode == "node":
        system_graph, labels, controlled = g, orig, "nodes"
    else:
        system_graph, controlled = to_line_digraph(g).graph, "edges"
        labels = [f"{orig[s]}-{orig[t]}" for s, t in zip(g.src.tolist(), g.dst.tolist())]

    def relabel(dense_set):
        return sorted(labels[i] for i in dense_set)

    verdict = structural_rank_test(
        system_graph, drivers, samples=args.samples, tol=args.tol, seed=args.seed
    )
    report = {
        "mode": args.mode,
        "controlled": controlled,
        "state_dimension": dim,
        "drivers": relabel(set(drivers)),
        "full_rank": verdict.full_rank,
        "rank": verdict.rank,
        "samples_used": verdict.samples_used,
        "tolerance": verdict.tolerance,
    }
    if args.minimal:
        if dim > BRUTE_FORCE_MAX_STATES:
            raise SizeLimitError(
                f"--minimal limited to {BRUTE_FORCE_MAX_STATES} states, got {dim}"
            )
        size, witness = brute_force_min_drivers(
            system_graph, samples=args.samples, tol=args.tol, seed=args.seed
        )
        report["minimal"] = {"size": size, "witness": relabel(witness)}
    _write_text(_json(report) + "\n", args.out)
    return EXIT_OK if verdict.full_rank else EXIT_VERIFY


# --------------------------------------------------------------- generate

def cmd_generate(args) -> int:
    spec = GeneratorSpec(
        model=args.model, n=args.n, mean_degree=args.k,
        gamma=args.gamma, seed=args.seed,
    )
    g = generate(spec)
    header = f"model={spec.model} n={spec.n} mean_degree={spec.mean_degree:g}"
    if spec.model == "sf":
        header += f" gamma={spec.gamma:g}"
    header += f" seed={spec.seed} edges={g.edge_count}"
    _write_text(serialize_edge_list(g, header=header), args.out)
    return EXIT_OK


# ------------------------------------------------------------------ steer

def _parse_vector(text: str, n: int, what: str) -> np.ndarray:
    if text == "zeros":
        return np.zeros(n)
    try:
        values = [float(tok) for tok in text.split(",")]
    except ValueError:
        raise NetctlError(f"{what} must be comma-separated numbers or 'zeros'")
    if len(values) != n:
        raise NetctlError(f"{what} needs {n} entries, got {len(values)}")
    vector = np.array(values)
    if not np.isfinite(vector).all():
        raise NetctlError(f"{what} entries must be finite, got {text!r}")
    return vector


def cmd_steer(args) -> int:
    _check_seed(args.seed)
    parsed, _ = _load(args.path)
    g = parsed.graph
    if g.node_count > RANK_TEST_MAX_STATES:
        raise SizeLimitError(
            f"steering limited to {RANK_TEST_MAX_STATES} states, got {g.node_count}"
        )
    drivers = _parse_drivers(args.drivers, parsed, "node")
    x0 = _parse_vector(args.x0, g.node_count, "--x0")
    xf = _parse_vector(args.xf, g.node_count, "--xf")
    system = system_from_graph(g, drivers, rng=np.random.default_rng(args.seed))
    result = steer(system, x0, xf, args.tf, steps=args.steps, seed=args.seed)

    header = ["time", *(f"x_{i}" for i in range(g.node_count)),
              *(f"u_{j}" for j in range(system.m))]
    table = np.column_stack((result.times, result.states, result.inputs)).tolist()
    lines = [",".join(header), *(",".join(f"{v:.6g}" for v in row) for row in table)]
    _write_text("\n".join(lines) + "\n", args.out)

    summary = (
        f"final_state_relative_error={result.final_error:.6g} "
        f"input_energy={result.input_energy:.6g} "
        f"gramian_condition={result.gramian_condition:.6g}"
    )
    print(summary, file=sys.stderr if args.out is None else sys.stdout)
    return EXIT_OK


# ------------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netctl",
        description="Driver-node and driver-edge analysis of directed networks.",
    )
    parser.add_argument("--version", action="version", version=f"netctl {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="node- and edge-control report for an edge list")
    p.add_argument("path")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="driver fractions vs mean degree on random graphs")
    p.add_argument("--model", choices=("er", "sf"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-min", type=float, default=0.0)
    p.add_argument("--k-max", type=float, required=True)
    p.add_argument("--k-steps", type=int, required=True)
    p.add_argument("--replicates", type=int, default=20)
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="CSV path; summary JSON lands beside it")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("verify", help="Kalman rank test for a driver set")
    p.add_argument("path")
    p.add_argument("--drivers", required=True,
                   help="node ids '0,2' (node mode) or edges '0-1,2-3' (edge mode)")
    p.add_argument("--mode", choices=("node", "edge"), default="node")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--minimal", action="store_true",
                   help="also brute-force the minimal driver count "
                        f"(<= {BRUTE_FORCE_MAX_STATES} states)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("generate", help="write a seeded random graph as an edge list")
    p.add_argument("--model", choices=("er", "sf"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=float, required=True, help="mean degree E/N")
    p.add_argument("--gamma", type=float, default=3.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write the edge list here instead of stdout")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("steer", help="minimum-energy steering of a small system")
    p.add_argument("path")
    p.add_argument("--drivers", required=True, help="node ids, e.g. '0,2'")
    p.add_argument("--x0", default="zeros")
    p.add_argument("--xf", required=True)
    p.add_argument("--tf", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write trajectory CSV here instead of stdout")
    p.set_defaults(func=cmd_steer)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UncontrollableError, IllConditionedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except (NetctlError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
