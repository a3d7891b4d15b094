"""A/B pairs of the benchmark, parent commit against this checkout.

    OPENBLAS_NUM_THREADS=1 python3 bench/ab.py PARENT_DIR LABEL \\
        [--seeds 0] [--pairs 10]

PARENT_DIR holds the parent commit's files (made with `git archive`).  At
every seed the script makes --pairs pairs of `perfbench/run.py --workload
all` runs, one in PARENT_DIR and one in this checkout, each a fresh run of
the benchmark's own length; the parent goes first in pairs 0, 2, 4, ... and
second in the others, so drift in the machine's speed falls on both sides.
It writes BENCH_<LABEL>.json at the root of this checkout: for every
workload and end-to-end metric that BENCHMARK.json declares, both sides'
runs and medians, the change of the median over the parent's, the parent's
interquartile range over its median, the pairs the change won in the
metric's `better` direction and whether the change is within the metric's
`bound`; and each side's attempted and failed query counts per run.  Since
perfbench keeps every query's record until its loop ends, peak RSS grows
with the queries a run completes; `peak_rss_fit` splits it, per side, into
the code's own memory and the memory held per kept record (a least-squares
line over the pairs), and gives the change's RSS at the parent's median
query count.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
# perfbench prints "== NAME: N queries checked, F failed" per workload
COUNTS = re.compile(r"^== (\S+): (\d+) queries checked, (\d+) failed", re.M)


def spec() -> dict:
    """The benchmark's declaration: its workloads and metrics."""
    return json.loads((HERE / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(root: str, seed: int) -> dict:
    """One `perfbench/run.py --workload all` run in checkout `root`: each
    workload's end-to-end metrics and its attempted and failed counts."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "all", "--seed",
         str(seed)], cwd=root, env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        stdout=subprocess.PIPE, text=True, check=True).stdout
    metrics = json.loads(out.strip().splitlines()[-1])["metrics"]
    return {wl: {"attempted": int(n), "failed": int(f), **{
        m["name"]: metrics[f"{wl}.{m['name']}"]["value"]
        for m in spec()["end_to_end"]}} for wl, n, f in COUNTS.findall(out)}


def pairs(parent: str, seed: int, count: int) -> list[dict]:
    """`count` pairs of runs, the parent first in pairs 0, 2, 4, ..."""
    runs = []
    for i in range(count):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {side: run(parent if side == "parent" else HERE, seed)
                for side in order}
        runs.append({side: pair[side] for side in SIDES})
        print(f"seed {seed} pair {i + 1}/{count} done", file=sys.stderr,
              flush=True)
    return runs


def summarize(runs: list[dict]) -> dict:
    """Every workload x end-to-end metric of the pairs in `runs`."""
    out, bench = {}, spec()
    for w in bench["workloads"]:
        wl = w["name"]
        entry = out[wl] = {k: {s: [r[s][wl][k] for r in runs] for s in SIDES}
                           for k in ("attempted", "failed")}
        for m in bench["end_to_end"]:
            vals = {s: [r[s][wl][m["name"]] for r in runs] for s in SIDES}
            med = {s: statistics.median(v) for s, v in vals.items()}
            up = 1.0 if m["better"] == "higher" else -1.0
            change = med["change"] / med["parent"] - 1.0
            q = statistics.quantiles(vals["parent"], n=4) if runs[1:] else None
            entry[m["name"]] = {
                "runs": vals, "median": med, "change": change,
                "parent_iqr_over_median": q and (q[2] - q[0]) / med["parent"],
                "change_wins": sum(up * (c - p) > 0 for p, c in zip(
                    vals["parent"], vals["change"])),
                "pairs": len(runs), "better": m["better"], "bound": m["bound"],
                "within_bound": -up * change <= m["bound"]}
        entry["peak_rss_fit"] = rss_fit(entry["attempted"],
                                        entry["peak_rss_mb"]["runs"])
    return out


def rss_fit(attempted: dict, rss: dict) -> dict | None:
    """Each side's peak RSS = intercept (MB) + slope (KB per query) x
    queries attempted, fitted by least squares over the pairs, and the
    change's line at the parent's median query count; None while the
    counts cannot fix a line."""
    try:
        lines = {s: statistics.linear_regression(attempted[s], rss[s])
                 for s in SIDES}
    except statistics.StatisticsError:  # under two runs, or equal counts
        return None
    out = {s: {"intercept_mb": line.intercept,
               "slope_kb_per_query": line.slope * 1024.0}
           for s, line in lines.items()}
    at = statistics.median(attempted["parent"])
    out["change_mb_at_parent_median_attempted"] = (
        lines["change"].intercept + lines["change"].slope * at)
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", metavar="PARENT_DIR")
    parser.add_argument("label", metavar="LABEL")
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    parent = os.path.abspath(args.parent)
    doc = {"command": "OPENBLAS_NUM_THREADS=1 python3 bench/ab.py PARENT_DIR "
                      + " ".join(sys.argv[2:]),
           "environment": {"python": sys.version.split()[0],
                           "nproc": os.cpu_count()},
           "seeds": {str(seed): summarize(pairs(parent, seed, args.pairs))
                     for seed in args.seeds}}
    (HERE / f"BENCH_{args.label}.json").write_text(
        json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
