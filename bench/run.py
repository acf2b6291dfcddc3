"""netctl benchmark: the real CLI on seeded inputs, every output checked.

Run from the repository root:

    python3 bench/run.py --workload analyze-er --seed 1 --seconds 24 --trace 0

Each command runs as its own ``python -m netctl.cli`` process with
``PYTHONPATH=src``, one at a time (a closed loop of one client). A pass
is one command for ``analyze-*``, one sweep for ``sweep`` and the whole
batch for ``oracle``; passes repeat until the next one would overrun
``--seconds``. Outputs are checked after each pass, outside the timed
interval, by ``check.py``, which does not import netctl.

``--trace 0`` reports the end-to-end metrics (medians over passes).
``--trace 1`` alternates untraced passes with passes run under
``tracer.py`` and reports per-layer metrics. The last line of standard
output is one JSON object; the lines before it say the same for people,
with sample counts, the inputs and the environment.

Workloads (why each exists):

- ``analyze-er``: uniform digraph, N = 30,000, E = 120,000. The most
  parsing and node matching of any workload; the edge space is only
  about 4 E.
- ``analyze-sf``: static-model scale-free digraph, N = 30,000,
  E = 60,000, gamma = 2.5. Hubs make the edge space about 23 E, so the
  line digraph and its matching dominate time and memory.
- ``sweep``: the README sweep on 2 workers; 100 small generated graphs,
  the only workload where generators and the process pool count.
- ``oracle``: small-state verify (--minimal in node and edge mode, plain
  at 25 states), analyze on the same graphs and one steer; the only
  workload where the Kalman oracle works, and where the fixed cost of
  each process start is most of the wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
from inputs import EdgeList, small_digraph, static_scale_free, uniform_digraph  # noqa: E402

#: A command that runs longer than this counts as failed.
COMMAND_TIMEOUT_S = 120.0
#: One-edge invocations per run; setup_s is their median.
SETUP_REPEATS = 7
#: ``python -X importtime`` invocations per traced run.
IMPORTTIME_REPEATS = 3
#: Sweep parallelism: one worker per core of the 2-core reference box.
SWEEP_WORKERS = 2
#: Steering horizon and the Gramian condition the benchmark aims below
#: (the CLI refuses above 1e12).
STEER_TF = 1.0
STEER_TARGET_CONDITION = 1e6
STEER_STEPS = 400

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


# ------------------------------------------------------------- processes

@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    code: int | None  # None: killed at the timeout
    stdout: Path
    stderr: Path

    def stderr_tail(self, lines: int = 5) -> list[str]:
        return self.stderr.read_text(errors="replace").splitlines()[-lines:]


def run_process(argv: list[str], env: dict, cwd: Path, stdout: Path) -> Proc:
    """Run to completion; CPU and peak RSS come from the child's rusage,
    which includes the children it waited for (sweep pool workers).
    Standard error goes next to ``stdout``, with the suffix ``.err``."""
    stderr = stdout.with_suffix(".err")
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        # own process group, so a timeout also ends the sweep's pool workers
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd,
                                start_new_session=True)
        timed_out = threading.Event()

        def kill():
            timed_out.set()
            os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(COMMAND_TIMEOUT_S, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=None if timed_out.is_set() else proc.returncode,
        stdout=stdout,
        stderr=stderr,
    )


def cli_env(extra: dict | None = None) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), NETCTL_THREADS=str(SWEEP_WORKERS))
    env.update(extra or {})
    return env


# ------------------------------------------------------------- workloads

@dataclass
class Command:
    """One CLI invocation of a pass and the check of its outputs."""

    argv: list[str]
    check: Callable[[Proc], list[str]]
    outputs: list[str] = field(default_factory=list)


@dataclass
class Workload:
    commands: list[Command]
    setup: list[str]  # CLI args of the same command on a one-edge input
    inputs: list[dict]
    traced_env: dict = field(default_factory=dict)


def _json_check(work: Path, name: str, fn, codes=(0,)) -> Callable[[Proc], list[str]]:
    """Read the JSON output ``name`` and check it with ``fn``; an exit
    code outside ``codes`` fails before the output is read."""
    def run(proc: Proc) -> list[str]:
        if proc.code not in codes:
            return [f"exit code {proc.code}"]
        return fn(json.loads((work / name).read_text()), proc)
    return run


def _analyze(work: Path, stem: str, g: EdgeList) -> tuple[Command, dict]:
    record = g.write(work / f"{stem}.txt")
    out = f"{stem}.json"
    return Command(
        ["analyze", f"{stem}.txt", "--out", out],
        _json_check(work, out, lambda r, _: check.check_analyze(r, g, record["sha256"])),
        [out],
    ), record


def analyze_er(work: Path, seed: int) -> Workload:
    g = uniform_digraph(30_000, 120_000, np.random.default_rng(seed))
    command, record = _analyze(work, "er", g)
    return Workload([command], ["analyze", "one.txt", "--out", "setup.json"], [record])


def analyze_sf(work: Path, seed: int) -> Workload:
    g = static_scale_free(30_000, 60_000, 2.5, np.random.default_rng(seed))
    command, record = _analyze(work, "sf", g)
    return Workload([command], ["analyze", "one.txt", "--out", "setup.json"], [record])


def sweep(work: Path, seed: int) -> Workload:
    n, k_max, k_steps, replicates = 500, 8.0, 5, 20
    ks = [i * k_max / (k_steps - 1) for i in range(k_steps)]
    rng = np.random.default_rng(seed)
    # two recomputed rows per mean degree
    sample = sorted(int(i * replicates + r) for i in range(k_steps)
                    for r in rng.choice(replicates, 2, replace=False))

    def verify(proc: Proc) -> list[str]:
        if proc.code != 0:
            return [f"exit code {proc.code}"]
        return check.check_sweep(
            (work / "sweep.csv").read_text(), (work / "sweep.summary.json").read_text(),
            model="er", n=n, ks=ks, replicates=replicates, seed=seed, sample=sample,
        )

    argv = ["sweep", "--model", "er", "--n", str(n), "--k-max", f"{k_max:g}",
            "--k-steps", str(k_steps), "--replicates", str(replicates),
            "--seed", str(seed), "--out", "sweep.csv"]
    return Workload(
        [Command(argv, verify, ["sweep.csv", "sweep.summary.json"])],
        ["sweep", "--model", "er", "--n", "2", "--k-min", "0.5", "--k-max", "0.5",
         "--k-steps", "1", "--replicates", "1", "--out", "setup.csv"],
        [{"sweep": " ".join(argv), "workers": SWEEP_WORKERS}],
        # forked pool workers would lose their spans: trace serially
        traced_env={"NETCTL_THREADS": "1"},
    )


def _with_minimum(draw, state_graph, target: int):
    """Draw graphs until the state graph needs exactly ``target``
    dedicated inputs, so every seed gives the brute force the same
    search depth. Returns (graph, state graph, a minimum driver set)."""
    while True:
        g = draw()
        system = state_graph(g)
        size, witness = check.structural_minimum(system)
        if size == target:
            return g, system, list(witness)


def _controlling(g: EdgeList, drivers: list[int]) -> list[int]:
    """Add the smallest unreachable node until the set controls ``g``.
    Adding drivers never breaks the matching half of Lin's criterion."""
    drivers = sorted(set(drivers))
    while not check.structurally_controllable(g, drivers):
        drivers.append(min(set(range(g.n)) - check.reachable(g, drivers)))
        drivers.sort()
    return drivers


def oracle(work: Path, seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    check_seed = int(rng.integers(2**31))
    commands: list[Command] = []
    records: list[dict] = []

    def add_verify(stem, system, drivers, labels, extra, out=None):
        out = out or f"v_{stem}.json"
        commands.append(Command(
            ["verify", f"{stem}.txt", "--drivers", ",".join(str(labels[d]) for d in drivers),
             *extra, "--out", out],
            # verify exits 3 when the driver set fails the rank test
            _json_check(work, out, lambda r, p: check.check_verify(
                r, system, drivers, labels, "--minimal" in extra, p.code, check_seed),
                codes=(0, 3)),
            [out],
        ))

    # node mode, 10 states, three dedicated inputs needed
    g, _, witness = _with_minimum(lambda: small_digraph(10, 14, rng), lambda h: h, 3)
    command, record = _analyze(work, "node10", g)
    commands.append(command)
    records.append(record)
    add_verify("node10", g, witness, list(range(g.n)), ["--minimal"])
    # one driver short of the minimum: the verdict must be negative (exit 3)
    add_verify("node10", g, witness[:-1], list(range(g.n)), [], out="v_node10_short.json")

    # edge mode, 10 edge states, three driver edges needed
    g, system, witness = _with_minimum(lambda: small_digraph(6, 10, rng),
                                       lambda h: check.line_digraph(h)[0], 3)
    labels = [f"{s}-{t}" for s, t in check.line_digraph(g)[1]]
    command, record = _analyze(work, "edge10", g)
    commands.append(command)
    records.append(record)
    add_verify("edge10", system, witness, labels, ["--mode", "edge", "--minimal"])

    # 25 states: plain verify and one steer
    g = small_digraph(25, 60, rng)
    command, record = _analyze(work, "node25", g)
    commands.append(command)
    records.append(record)
    drivers = _controlling(g, check.unmatched_in_copies(g))
    add_verify("node25", g, drivers, list(range(g.n)), [])

    steer_drivers = list(drivers)
    for v in rng.permutation(g.n).tolist():
        if check.gramian_condition(g, steer_drivers, STEER_TF, rng) < STEER_TARGET_CONDITION:
            break
        steer_drivers = sorted(set(steer_drivers) | {v})
    x0 = np.zeros(g.n)
    xf = np.round(rng.uniform(-1.0, 1.0, g.n), 3)
    commands.append(Command(
        ["steer", "node25.txt", "--drivers", ",".join(map(str, steer_drivers)),
         "--xf=" + ",".join(f"{v:g}" for v in xf), "--tf", f"{STEER_TF:g}",
         "--steps", str(STEER_STEPS), "--out", "steer.csv"],
        lambda p: [f"exit code {p.code}"] if p.code != 0 else check.check_steer(
            (work / "steer.csv").read_text(), p.stdout.read_text(), g.n,
            len(steer_drivers), x0, xf, STEER_TF, STEER_STEPS),
        ["steer.csv"],
    ))
    records.append({"steer_states": g.n, "steer_drivers": len(steer_drivers)})
    return Workload(commands, ["verify", "one.txt", "--drivers", "0", "--out", "setup.json"],
                    records)


WORKLOADS = {"analyze-er": analyze_er, "analyze-sf": analyze_sf, "sweep": sweep,
             "oracle": oracle}


# ---------------------------------------------------------------- passes

@dataclass
class Pass:
    wall: float
    cpu: float
    rss_mb: float
    failed: int
    problems: list[str]
    traces: list[dict]


def run_pass(wl: Workload, work: Path, *, env: dict | None = None,
             traced: bool = False, index: int = 0) -> Pass:
    """Run every command of the workload once, then check the outputs.
    A traced pass runs each command under tracer.py with ``traced_env``."""
    procs: list[Proc] = []
    traces: list[dict] = []
    for i, cmd in enumerate(wl.commands):
        for name in cmd.outputs:
            (work / name).unlink(missing_ok=True)
        stdout = work / f"stdout{i}.txt"
        if traced:
            spans = work / f"spans{index}_{i}.json"
            argv = [sys.executable, str(BENCH / "tracer.py"), str(SRC), str(spans), "--"]
            procs.append(run_process(argv + cmd.argv, cli_env(wl.traced_env), work, stdout))
            if spans.exists():
                traces.append({"pass": index, "command": i, **json.loads(spans.read_text())})
        else:
            argv = [sys.executable, "-m", "netctl.cli"]
            procs.append(run_process(argv + cmd.argv, cli_env(env), work, stdout))
    problems: list[str] = []
    failed = 0
    for cmd, proc in zip(wl.commands, procs):
        found = ["timed out"] if proc.code is None else cmd.check(proc)
        if found:
            failed += 1
            problems += [f"{cmd.argv[0]} {cmd.argv[1]}: {p}" for p in found]
            problems += [f"  stderr: {line}" for line in proc.stderr_tail()]
    return Pass(
        wall=sum(p.wall for p in procs),
        cpu=sum(p.cpu for p in procs),
        rss_mb=max(p.rss_mb for p in procs),
        failed=failed,
        problems=problems,
        traces=traces,
    )


def measure_setup(wl: Workload, work: Path) -> tuple[list[float], int, list[str]]:
    """Wall times of the one-edge command; returns (times, failures, problems)."""
    times, failed, problems = [], 0, []
    for _ in range(SETUP_REPEATS):
        proc = run_process([sys.executable, "-m", "netctl.cli", *wl.setup],
                           cli_env(), work, work / "setup.out")
        times.append(proc.wall)
        if proc.code != 0:
            failed += 1
            problems += [f"setup exit code {proc.code}"]
            problems += [f"  stderr: {line}" for line in proc.stderr_tail()]
    return times, failed, problems


def measure_imports(wl: Workload, work: Path) -> list[dict]:
    samples = []
    for _ in range(IMPORTTIME_REPEATS):
        err = work / "importtime.txt"
        with open(err, "wb") as fh:
            subprocess.run([sys.executable, "-X", "importtime", "-m", "netctl.cli", *wl.setup],
                           stdout=subprocess.DEVNULL, stderr=fh, env=cli_env(), cwd=work,
                           timeout=COMMAND_TIMEOUT_S, check=False)
        samples.append(layers.import_times(err.read_text()))
    return samples


# ----------------------------------------------------------- environment

def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "commit": commit,
        "loadavg": os.getloadavg(),
        "platform": platform.platform(),
    }


# ------------------------------------------------------------------ main

def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "netctl" / "cli.py").is_file():
        print(f"error: {SRC / 'netctl'} not found; run from a netctl checkout",
              file=sys.stderr)
        return 2

    env_record = environment()
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        return measure(args, work, env_record)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, work: Path, env_record: dict) -> int:
    (work / "one.txt").write_text("0 1\n")
    wl = WORKLOADS[args.workload](work, args.seed)
    setup_times, setup_failed, setup_problems = measure_setup(wl, work)

    plain: list[Pass] = []
    baseline: list[Pass] = []
    traced: list[Pass] = []
    elapsed = 0.0
    while True:
        step = [run_pass(wl, work)]
        plain.append(step[0])
        if args.trace:
            if wl.traced_env:
                # untraced under the traced settings: the base of trace_overhead_s
                step.append(run_pass(wl, work, env=wl.traced_env))
                baseline.append(step[-1])
            step.append(run_pass(wl, work, traced=True, index=len(traced)))
            traced.append(step[-1])
        step_wall = sum(p.wall for p in step)
        elapsed += step_wall
        if elapsed + step_wall > args.seconds:
            break

    passes = plain + baseline + traced
    attempted = SETUP_REPEATS + len(wl.commands) * len(passes)
    failed = setup_failed + sum(p.failed for p in passes)
    problems = setup_problems + [p for step in passes for p in step.problems]

    median = statistics.median
    wall = [p.wall for p in plain]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(plain)} untraced, {len(baseline)} untraced serial, "
          f"{len(traced)} traced")
    print("environment " + json.dumps(env_record))
    for record in wl.inputs:
        print("input " + json.dumps(record))
    if args.trace:
        metrics = layers.per_layer(
            [step.traces for step in traced], measure_imports(wl, work),
            untraced_wall=median(wall),
            overhead=median(p.wall for p in traced) - median(p.wall for p in baseline or plain),
            workers=SWEEP_WORKERS,
        )
        for name, (value, unit) in metrics.items():
            print(f"{name:26s} {value:14.6f} {unit}")
        spans = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.json"
        spans.write_text(json.dumps([trace for step in traced for trace in step.traces]))
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        values = {
            "wall_s": [p.wall for p in plain],
            "cpu_s": [p.cpu for p in plain],
            "peak_rss_mb": [p.rss_mb for p in plain],
            "setup_s": setup_times,
        }
        metrics = {name: (median(v), END_TO_END_UNITS[name]) for name, v in values.items()}
        for name, v in values.items():
            print(f"{name:12s} {median(v):10.4f} {END_TO_END_UNITS[name]:3s} "
                  f"median of {len(v)}  (min {min(v):.4f}, max {max(v):.4f})")
    print(f"error_rate   {failed / attempted:10.4f} -   {failed} failed of {attempted} commands")
    for p in problems[:40]:
        print(p if p.startswith("  ") else "FAILED " + p)

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
