"""One benchmark process; run.py starts one per role.

  setup   import the package and answer one warm-up query; print the seconds
  loop    setup, then the closed loop of one workload, then output checks
  extras  one half of the traced run's size sweep and acceptance timings

Only the standard library is imported at module level, so that the timed
import in `setup` also pays for numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time


def setup(name: str, seed: int, workdir: str):
    """Import the package and answer one warm-up query.

    Returns the seconds taken, scaled like every latency to the reference
    machine by the calibration kernel timed right after, the workload and
    its context.
    """
    start = time.perf_counter()
    import sector_radius  # noqa: F401  timed: the package and numpy
    imported = time.perf_counter() - start

    from .calibration import Calibration
    from .inputs import philox
    from .workloads import WORKLOADS, Context

    workload = WORKLOADS[name]
    ctx = Context(workdir, dict(os.environ))
    inp = workload.make(philox(seed, name + "/warmup"), workload.warmup, ctx)
    start = time.perf_counter()
    workload.query(inp)
    seconds = imported + time.perf_counter() - start
    calibration = Calibration()
    speed = statistics.median(calibration.seconds() for _ in range(5))
    return seconds * calibration.reference_s / speed, workload, ctx


def closed_loop(workload, seed: int, seconds: float, ctx, tracer=None):
    """Whole cycles of queries, one at a time, until `seconds` of query time.

    Input generation and calibration run between queries and are not timed.
    The loop also ends once it has run for 4 * seconds + 30 of wall time,
    which only queries that fail at once can cause.  Returns, per cycle,
    (latency, scaled latency) for each slot, and (input, output, error) per
    query.
    """
    from .calibration import Calibration, ProcessCalibration
    from .inputs import philox

    query = workload.query
    if tracer is not None and workload.child_span is not None:
        def query(inp):
            return tracer.span(workload.child_span, workload.query, inp)
    rng = philox(seed, workload.name)
    calibration = ProcessCalibration() if workload.child_span else Calibration()
    timings, records, busy = [], [], 0.0
    give_up = time.monotonic() + 4.0 * seconds + 30.0
    before = calibration.seconds()
    while busy < seconds and time.monotonic() < give_up:
        for slot in workload.slots:
            inp = workload.make(rng, slot, ctx)
            start = time.perf_counter()
            try:
                out, err = query(inp), None
            except Exception as exc:  # a failed query is counted, not fatal
                out, err = None, f"{type(exc).__name__}: {exc}"
            latency = time.perf_counter() - start
            after = calibration.seconds()
            timings.append((latency, latency * calibration.reference_s
                            * 2.0 / (before + after)))
            records.append((inp, out, err))
            before = after
            busy += latency
    k = len(workload.slots)
    return [timings[i:i + k] for i in range(0, len(timings), k)], records


def check_all(workload, records) -> list[str]:
    problems = []
    for inp, out, err in records:
        if err is None:
            try:
                err = workload.check(inp, out)
            except Exception as exc:  # malformed output
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            problems.append(err)
    return problems


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "seed": seed}


def rates(cycles, slots) -> dict:
    """End-to-end rates of one closed loop, from the scaled latencies.

    items_per_s is the cycle's queries over the sum, across slots, of the
    median scaled latency of all queries of that slot (equal slots of a
    cycle pooled); latency_p50_ms is the median scaled latency.  The
    observed figures are kept for the report.
    """
    import numpy as np

    lat = np.array([[q[0] for q in cycle] for cycle in cycles])
    scaled = np.array([[q[1] for q in cycle] for cycle in cycles])
    columns: dict[tuple, list[int]] = {}
    for j, slot in enumerate(slots):
        columns.setdefault(slot, []).append(j)
    cycle_s = sum(len(cols) * float(np.median(scaled[:, cols]))
                  for cols in columns.values())
    out = {"queries": int(lat.size), "cycles": len(cycles),
           "items_per_s": len(slots) / cycle_s,
           "latency_p50_ms": float(np.median(scaled)) * 1e3,
           "observed_items_per_s": lat.size / float(lat.sum()),
           "observed_p50_ms": float(np.median(lat)) * 1e3}
    if lat.size >= 100:
        out["observed_p90_ms"] = float(np.percentile(lat, 90)) * 1e3
    if lat.size >= 1000:
        out["observed_p99_ms"] = float(np.percentile(lat, 99)) * 1e3
    return out


def cli_import_s(repeats: int = 3) -> float:
    """Median wall time of a fresh `python -c "import sector_radius.cli"`."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sector_radius.cli"],
                       check=True, timeout=60)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def loop(args) -> dict:
    setup_s, workload, ctx = setup(args.workload, args.seed, args.workdir)
    if not args.trace:
        cycles, records = closed_loop(workload, args.seed, args.seconds, ctx)
        who = (resource.RUSAGE_CHILDREN if workload.child_span
               else resource.RUSAGE_SELF)
        result = {"setup_s": setup_s,
                  "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
                  **rates(cycles, workload.slots)}
    else:
        from .tracing import Tracer

        half = args.seconds / 2.0
        plain, records = closed_loop(workload, args.seed, half, ctx)
        tracer = Tracer()
        if workload.child_span is None:
            tracer.install()
        try:
            traced, more = closed_loop(workload, args.seed, half, ctx, tracer)
        finally:
            tracer.uninstall()
        records += more
        traced_rate = rates(traced, workload.slots)["items_per_s"]
        result = {"setup_s": setup_s, **rates(plain + traced, workload.slots),
                  "metrics": {
            **tracer.summary(sum(q[0] for cycle in traced for q in cycle)),
            "trace.items_per_s": traced_rate,
            "trace.overhead_items_per_s": (
                traced_rate - rates(plain, workload.slots)["items_per_s"]),
            "cli.import_s": cli_import_s(),
        }}
    problems = check_all(workload, records)
    result.update(attempted=len(records), failed=len(problems),
                  failures=problems[:5], env=environment(args.seed))
    return result


def extras(args) -> dict:
    from .layers import run_part

    metrics, failed = run_part(args.part, args.seed)
    return {"metrics": metrics, "criteria_failed": failed}


def main() -> None:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("role", choices=("setup", "loop", "extras"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--workdir", default=".")
    parser.add_argument("--part")
    args = parser.parse_args()
    if args.role == "setup":
        result = {"setup_s": setup(args.workload, args.seed, args.workdir)[0]}
    elif args.role == "loop":
        result = loop(args)
    else:
        result = extras(args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
