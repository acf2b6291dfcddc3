"""Steadiness check: two sets of benchmark runs of the same code.

Run from the repository root:

    python3 bench/steady.py                      # 2 sets x 10 seeds, every workload
    python3 bench/steady.py --sets 1 --runs 1    # one run each: the metric table
    python3 bench/steady.py --workloads oracle --runs 5

Each run is ``bench/run.py`` with its own seed (set s, run i uses seed
``first_seed + 100 s + i``); the runs of one index go through every
workload in turn, so drift in machine load spreads over all of them.
For each (workload, metric) it prints every set's median and quartile
spread (Q3 - Q1 over the median) and, with two sets, whether the
medians agree within the metric's bound from BENCHMARK.json. A pair in
which either set spreads wider than the bound is "unresolved". Also
prints error_rate (failed / attempted commands). Exits 1 if any run
failed a check or did not finish.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartile_spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict | None:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print(f"  {workload} seed {seed}: no result (exit {proc.returncode})\n"
              + proc.stderr[-2000:], file=sys.stderr)
        return None
    result["exit"] = proc.returncode
    return result


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    specs = bench["per_layer" if args.trace else "end_to_end"]

    results: dict[str, list[list[dict]]] = {w: [[] for _ in range(args.sets)] for w in workloads}
    ok = True
    for s in range(args.sets):
        for i in range(args.runs):
            for w in workloads:
                seed = args.first_seed + 100 * s + i
                result = run_once(w, seed, bench["run_seconds"], args.trace)
                if result is None or result["exit"] != 0 or not result["correct"]:
                    ok = False
                if result is not None:
                    result["seed"] = seed
                    results[w][s].append(result)
                    brief = {k: round(v["value"], 4) for k, v in result["metrics"].items()
                             if k in ("wall_s", "cpu_s", "peak_rss_mb", "setup_s")}
                    print(f"set {s} run {i} {w:10s} seed {seed} correct {result['correct']} "
                          f"{brief}", flush=True)

    for w in workloads:
        runs = [r for set_runs in results[w] for r in set_runs]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, error_rate {failed / max(attempted, 1):.4f} "
              f"({failed} failed of {attempted} commands)")
        for spec in specs:
            name, unit = spec["name"], spec["unit"]
            sets = [[r["metrics"][name]["value"] for r in set_runs if name in r["metrics"]]
                    for set_runs in results[w]]
            if not all(sets):
                print(f"  {name:24s} missing")
                continue
            medians = [statistics.median(v) for v in sets]
            spreads = [quartile_spread(v) for v in sets]
            line = "  ".join(f"median {m:.4f} spread {sp:.3f}" for m, sp in zip(medians, spreads))
            verdict = ""
            if "bound" in spec and len(sets) == 2:
                bound = spec["bound"]
                drift = (medians[1] - medians[0]) / medians[0] if medians[0] else 0.0
                if max(spreads) > bound:
                    verdict = "unresolved"
                else:
                    verdict = "agree" if abs(drift) <= bound else "DIFFER"
                verdict = f"drift {drift:+.3f} bound {bound}: {verdict}"
            elif "bound" in spec:
                verdict = f"bound {spec['bound']}"
            print(f"  {name:24s} {unit:5s} {line}  {verdict}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
