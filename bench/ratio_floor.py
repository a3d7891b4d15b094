"""Before/after figures of the small-n ratio query: BENCH_ratio_floor.json.

    OPENBLAS_NUM_THREADS=1 python3 bench/ratio_floor.py PARENT_DIR \\
        [--seeds 0 7] [--pairs 10] [--out BENCH_ratio_floor.json]

PARENT_DIR holds the parent commit's files (made with `git archive`).  The
script runs `perfbench/run.py` in PARENT_DIR and in this checkout in turn,
each run a fresh 10 s process: --pairs pairs of `sectorial-small` at every
seed (the parent first in odd pairs, the change first in even ones), and
one pair of every other workload at the first seed, and one traced
`sectorial-small` run of each at the first seed.  Then it times the
stages of one `sectorial-small` query (`ratio_check` + `sector_contains`)
at n = 2..6 in each checkout, three times in turn, each time in a fresh
process, and keeps the smallest of the three figures of each stage.  It
writes every run, the medians, the change's wins and the stage tables as
JSON.

    OPENBLAS_NUM_THREADS=1 python3 bench/ratio_floor.py --stages CHECKOUT

prints the stage table of one checkout as JSON: for each n and stage, the
median over ten seed-0 `sectorial-small` inputs of the best of 30 calls,
in microseconds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("radius-large", "certify-structure", "grid-oracle", "cli-calls")
METRICS = ("items_per_s", "latency_p50_ms", "peak_rss_mb", "setup_s")


def _best_us(fn, repeats: int = 30) -> float:
    best = math.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e6


def stages(root: str) -> dict:
    """Stage table of the package and perfbench inputs under `root`."""
    sys.path[:0] = [os.path.join(root, "src"), root]
    import numpy as np
    from sector_radius import certify, matcore, numrange
    from perfbench.inputs import philox
    from perfbench.workloads import SECTORIAL_SMALL as wl

    rng, inputs = philox(0, wl.name), {n: [] for n in range(2, 7)}
    while min(map(len, inputs.values())) < 10:
        for slot in wl.slots:
            inp = wl.make(rng, slot, None)
            inputs[len(inp["t"])].append(inp)
    table = {}
    for n, batch in inputs.items():
        rows = [_stage_row(inp, np, certify, matcore, numrange)
                for inp in batch[:10]]
        table[n] = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
        if n > 2:
            table[n]["radius: window and set-up"] = table[n][
                "numerical_radius"] - sum(table[n][k] for k in (
                    "radius: Bendixson side", "radius: scan",
                    "radius: peak pick", "radius: Newton"))
    return table


def _stage_row(inp, np, certify, matcore, numrange) -> dict:
    t, alpha = inp["t"], inp["alpha"]
    entry = matcore.scaled_square_matrix(t)
    # what ratio_check hands its routines: the frame with s = 1, or, before
    # the frame, the scaled matrix
    arg = entry._replace(s=1.0) if hasattr(entry, "_replace") else entry[0]
    calls = {
        "query": lambda: (certify.ratio_check(t),
                          numrange.sector_contains(t, alpha)),
        "ratio_check": lambda: certify.ratio_check(t),
        "entry pass": lambda: matcore.scaled_square_matrix(t),
        "operator_norm": lambda: matcore.operator_norm(arg),
        "min_sector_angle": lambda: numrange.min_sector_angle(arg),
        "numerical_radius": lambda: numrange.numerical_radius(arg),
        "sector_contains": lambda: numrange.sector_contains(t, alpha),
    }
    if len(t) > 2:
        seen = _radius_calls(numrange, arg)
        h, g, m, k = seen["_scan"]
        th = 2.0 * math.pi * k / m
        pencils = (h[:, :, None] * np.cos(th)
                   + g[:, :, None] * np.sin(th)).transpose(2, 0, 1).copy()
        calls.update({
            "radius: Bendixson side": lambda: numrange._support_values(
                h, g, [0.0, numrange.HALF_PI]),
            "radius: scan": lambda: numrange._scan(*seen["_scan"]),
            "radius: scan eigvalsh": lambda: np.linalg.eigvalsh(pencils),
            "radius: peak pick": lambda: numrange._scan_peaks(
                *seen["_scan_peaks"]),
            "radius: Newton": lambda: numrange._newton_max(
                *seen["_newton_max"]),
        })
    row = {name: _best_us(fn) for name, fn in calls.items()}
    if len(t) > 2:
        row["radius: Newton sweeps"] = seen["sweeps"]
    return row


def _radius_calls(numrange, arg) -> dict:
    """The arguments of the radius's scan, peak pick and Newton ascent, and
    the number of Newton sweeps, recorded over one call."""
    seen = {"sweeps": 0}
    names = ("_scan", "_scan_peaks", "_newton_max", "_pencils")
    real = {name: getattr(numrange, name) for name in names}

    def recorder(name):
        def call(*args):
            if name == "_pencils":
                seen["sweeps"] += "_scan_peaks" in seen
            else:
                seen[name] = args
            return real[name](*args)
        return call

    for name in names:
        setattr(numrange, name, recorder(name))
    try:
        numrange.numerical_radius(arg)
    finally:
        for name in names:
            setattr(numrange, name, real[name])
    return seen


def _run(root: str, workload: str, seed: int, trace: int = 0) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)], cwd=root, env=env,
        capture_output=True, text=True, check=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    row = {k: result[k] for k in ("correct", "attempted", "failed")}
    row.update((k, v["value"]) for k, v in result["metrics"].items())
    return row


def _pairs(parent: str, workload: str, seed: int, count: int) -> dict:
    runs = []
    for i in range(count):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {side: _run(parent if side == "parent" else HERE, workload,
                           seed) for side in order}
        runs.append({side: pair[side] for side in ("parent", "change")})
        print(workload, seed, i, {s: (round(r["items_per_s"], 1),
                                      r["attempted"], r["peak_rss_mb"])
                                  for s, r in runs[-1].items()},
              file=sys.stderr, flush=True)
    summary = {}
    for name in METRICS:
        sides = {s: [r[s][name] for r in runs] for s in ("parent", "change")}
        med = {s: statistics.median(v) for s, v in sides.items()}
        summary[name] = {"median": med,
                         "change": med["change"] / med["parent"] - 1.0}
        if count >= 4:
            q = statistics.quantiles(sides["parent"], n=4)
            summary[name]["parent_iqr_over_median"] = (
                (q[2] - q[0]) / med["parent"])
    better = {"items_per_s": 1, "latency_p50_ms": -1}
    for name, sign in better.items():
        summary[name]["change_wins"] = sum(
            sign * (r["change"][name] - r["parent"][name]) > 0 for r in runs)
    return {"command": f"OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py "
                       f"--workload {workload} --seed {seed}",
            "runs": runs, "summary": summary}


def _stage_tables(parent: str) -> dict:
    tables = {"parent": [], "change": []}
    for _ in range(3):
        for side, root in (("parent", parent), ("change", HERE)):
            out = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--stages", root],
                env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
                capture_output=True, text=True, check=True).stdout
            tables[side].append(json.loads(out))
    return {side: {n: {k: round(min(r[n][k] for r in runs), 1)
                       for k in runs[0][n]} for n in runs[0]}
            for side, runs in tables.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", nargs="?")
    parser.add_argument("--stages", metavar="CHECKOUT")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 7])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", default=os.path.join(
        HERE, "BENCH_ratio_floor.json"))
    args = parser.parse_args()
    if args.stages:
        print(json.dumps(stages(os.path.abspath(args.stages))))
        return
    import numpy

    parent = os.path.abspath(args.parent)
    doc = {"what": "perfbench runs of the parent commit and of this change "
                   "in alternating pairs, and the stage costs of one "
                   "sectorial-small query at n = 2..6 in each (us; best of "
                   "30 calls, median over ten seed-0 inputs, the smallest "
                   "of three interleaved runs).",
           "command": "OPENBLAS_NUM_THREADS=1 python3 bench/ratio_floor.py "
                      "PARENT_DIR " + " ".join(sys.argv[2:]),
           "environment": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "nproc": os.cpu_count(),
                           "OPENBLAS_NUM_THREADS": "1"},
           "sectorial_small": {str(seed): _pairs(parent, "sectorial-small",
                                                 seed, args.pairs)
                               for seed in args.seeds},
           "other_workloads": {wl: _pairs(parent, wl, args.seeds[0], 1)
                               for wl in WORKLOADS},
           "traced_sectorial_small": {
               side: _run(root, "sectorial-small", args.seeds[0], trace=1)
               for side, root in (("parent", parent), ("change", HERE))},
           "stages_us": _stage_tables(parent)}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
