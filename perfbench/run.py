"""Benchmark of the sector_radius package, measured from outside.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload runs in fresh processes with
one BLAS thread, as a closed loop with one caller.  Set-up (importing the
package plus one warm-up query) is timed in three fresh processes and the
median reported.  Latencies are scaled by reference work timed around each
query (see calibration.py).  Outputs are checked after the timed loop; a
query that raises or fails its check counts in "failed".  See README.md.

With --trace 0 the last line of stdout is the end-to-end result; with
--trace 1 it holds the per-layer metrics: spans around the package's public
functions during a second closed loop, a size sweep over the n grid, the
seconds of each acceptance criterion and the known-defect probes.  The
lines before it print every metric by name with its unit, the tail
latency percentiles with their query counts, and the environment.
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETUP_PROCESSES = 2  # plus the measuring process: three set-up samples
RUN_LIMIT_S = 170  # every process is stopped by then, within the 180 s allowed


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SECTOR_RADIUS_TOL", None)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    return env


def start(role: str, *args: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "perfbench.worker", role, *args], cwd=ROOT,
        env=child_env(), stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen, deadline: float) -> dict:
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{proc.args[3]} process timed out")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{proc.args[3]} process exited {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True)
    return proc.stdout.strip() or "unknown"


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    workdir = ROOT / "perfbench" / ".work" / f"{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    common = ["--workload", name, "--seed", str(seed), "--workdir",
              str(workdir)]
    try:
        setups = [finish(start("setup", *common), deadline)["setup_s"]
                  for _ in range(SETUP_PROCESSES)]
        result = finish(start("loop", *common, "--seconds", str(seconds),
                              "--trace", str(int(trace))), deadline)
        if trace:
            # the two halves run at once, one single-threaded process each
            parts = [start("extras", "--seed", str(seed), "--part", part)
                     for part in ("a", "b")]
            try:
                for proc in parts:
                    extra = finish(proc, deadline)
                    result["metrics"].update(extra["metrics"])
                    result.setdefault("criteria_failed", []).extend(
                        extra["criteria_failed"])
            finally:
                for proc in parts:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another run still uses it
            pass
    setups.append(result["setup_s"])
    result["setup_s"] = statistics.median(setups)
    return result


def report(name: str, result: dict, trace: bool) -> dict:
    """Print a workload's metrics by name and return them for the JSON line."""
    spec = SPEC["per_layer" if trace else "end_to_end"]
    values = result["metrics"] if trace else result
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    print(f"== {name}: {result['attempted']} queries checked, "
          f"{result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.6g})")
    for problem in result["failures"]:
        print(f"   failure: {problem}")
    print(f"   observed over all {result['queries']} queries "
          f"({result['cycles']} cycles): "
          f"{result['observed_items_per_s']:.6g} 1/s, " + ", ".join(
              f"{key[9:]} {result[key]:.6g} ms" for key in (
                  "observed_p50_ms", "observed_p90_ms", "observed_p99_ms")
              if key in result))
    for metric, entry in metrics.items():
        print(f"   {metric} {entry['value']:.6g} {entry['unit']}")
    if result.get("criteria_failed"):
        print(f"   acceptance criteria failed: {result['criteria_failed']}")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "sector_radius" / "__init__.py").is_file():
        print("error: no package at src/sector_radius", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + RUN_LIMIT_S
            results[name] = run_workload(name, args.seed, args.seconds, trace,
                                         deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env = {"commit": commit(), **next(iter(results.values()))["env"]}
    print("env " + json.dumps(env))
    metrics = {}
    for name, result in results.items():
        shown = report(name, result, trace)
        if len(names) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}.{k}": v for k, v in shown.items()})
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
