#!/usr/bin/env python3
"""Benchmark of the rbsim command line.

    python3 bench/run.py --workload session --seed 1234 --seconds 55 --trace 0

A workload is a fixed list of rbsim commands, each run as a fresh
process (bench/child.py), one at a time, with the program imported from
the src/ directory next to this one.  With --trace 0 every round runs
each command once, and rounds repeat until --seconds have passed (at
least MIN_ROUNDS).  Each time metric takes every command's fastest
repeat and sums these over the workload's commands: the machine's slow
periods only ever add time, so slower repeats measure the neighbours.
Every output is checked (bench/checks.py).  With --trace 1 a separate
run mirrors the workload through the library (bench/traced.py) and
reports the per-layer metrics instead.  The last line printed is the
JSON result; bench/README.md describes the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3
START_PROBES = 3
COMMAND_TIMEOUT_S = 170
SWEEP_POINTS = 3
DEFAULT_POINTS = 20 * 40  # default campaign: lengths 1-20, 40 sequences
# rb simultaneous fails its qubit-1 fit at seed 1234 (exit 2).  It runs
# at that fixed seed, so it fails in every run whatever --seed is.
SIMULTANEOUS_SEED = 1234

CHILD_ENV = {
    "PYTHONPATH": str(SRC),
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    points: int = 0           # decay points, lengths x sequences per campaign
    out: bool = False         # write artifacts with --out
    seed: int | None = None   # fixed seed in place of the workload's

    def args(self, seed: int, out_dir: Path) -> list[str]:
        argv = [*self.argv, "--seed",
                str(seed if self.seed is None else self.seed)]
        return argv + ["--out", str(out_dir)] if self.out else argv


WORKLOADS = {
    "sweep-tau2": (
        Command("sweep tau2", ("sweep", "tau2", "--points", str(SWEEP_POINTS)),
                points=SWEEP_POINTS * 3 * DEFAULT_POINTS),
    ),
    "session": (
        Command("group verify", ("group", "verify"), out=True),
        Command("rb standard", ("rb", "standard"), DEFAULT_POINTS, out=True),
        Command("rb interleaved", ("rb", "interleaved"), 2 * DEFAULT_POINTS,
                out=True),
        Command("rb simultaneous", ("rb", "simultaneous"), 3 * DEFAULT_POINTS,
                out=True, seed=SIMULTANEOUS_SEED),
        Command("qpt", ("qpt", "--shots", "1000"), out=True),
    ),
}


def metric_units() -> dict[str, dict[str, str]]:
    """Units of the end-to-end and per-layer metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    return env


def spawn(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True,
                          timeout=COMMAND_TIMEOUT_S)
    return time.perf_counter() - start, proc


def last_json_line(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float) -> dict:
    sys.path.insert(0, str(SRC))
    import checks

    commands = WORKLOADS[workload]
    scratch = OUT / f"{workload}-{seed}-{os.getpid()}"
    walls = {c.name: [] for c in commands}
    records = {c.name: [] for c in commands}
    attempted = failed = rounds = 0
    problems: list[str] = []
    start = time.perf_counter()
    longest_round = 0.0
    while (rounds < MIN_ROUNDS
           or time.perf_counter() - start + longest_round <= seconds):
        round_start = time.perf_counter()
        for cmd in commands:
            out_dir = scratch / cmd.name.replace(" ", "_")
            shutil.rmtree(out_dir, ignore_errors=True)
            wall, proc = spawn([str(BENCH / "child.py"),
                                *cmd.args(seed, out_dir)])
            record = last_json_line(proc)
            attempted += 1
            walls[cmd.name].append(wall)
            records[cmd.name].append(record)
            if record["exit"] != 0:
                failed += 1
                continue
            try:
                checks.CHECKS[cmd.name](json.loads(record["stdout"]), out_dir)
            except checks.CheckFailed as exc:
                problems.append(f"{cmd.name}: {exc}")
        rounds += 1
        longest_round = max(longest_round, time.perf_counter() - round_start)
    shutil.rmtree(scratch, ignore_errors=True)

    for cmd in commands:
        ws = walls[cmd.name]
        setups = [r["setup_s"] for r in records[cmd.name]]
        mains = [r["main_s"] for r in records[cmd.name]]
        exits = sorted({r["exit"] for r in records[cmd.name]})
        print(f"{cmd.name:16s} x{len(ws)}  wall min {min(ws):.3f} s "
              f"median {statistics.median(ws):.3f} s  setup min "
              f"{min(setups):.3f} s  main min {min(mains):.3f} s  "
              f"exit {exits}")
    for problem in problems:
        print(f"CHECK FAILED {problem}", file=sys.stderr)

    def fastest(key: str, names) -> float:
        return sum(min(r[key] for r in records[n]) for n in names)

    campaigns = [c.name for c in commands if c.points]
    metrics = {
        "wall_s": sum(min(walls[c.name]) for c in commands),
        "setup_s": fastest("setup_s", records),
        "points_per_s": sum(c.points for c in commands)
        / fastest("main_s", campaigns),
        "peak_rss_mb": max(r["peak_rss_mb"]
                           for rs in records.values() for r in rs),
    }
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def trace(workload: str, seed: int) -> dict:
    starts = [spawn(["-c", "import rbsim.cli"])
              for _ in range(START_PROBES)]
    for _, proc in starts:
        if proc.returncode != 0:
            raise RuntimeError(f"import rbsim.cli: {proc.stderr.strip()}")
    _, proc = spawn([str(BENCH / "traced.py"), "--workload", workload,
                     "--seed", str(seed)])
    result = last_json_line(proc)
    result["metrics"]["cli.start_s"] = min(wall for wall, _ in starts)
    for problem in result.pop("problems"):
        print(f"CHECK FAILED {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rbsim" / "cli.py").is_file():
        print(f"error: no rbsim sources under {SRC}", file=sys.stderr)
        return 2

    units = metric_units()["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        result = trace(args.workload, args.seed)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    metrics = result["metrics"]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} != {sorted(units)}")
    for name in units:
        print(f"{name} = {metrics[name]:.6g} {units[name]}")
    result["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
