"""Per-layer measurements made only by the traced run.

* a size sweep of single calls over the ROADMAP n grid;
* the seconds each acceptance criterion takes;
* probes of the defects known at the seed commit, kept out of the timed
  workloads so that no timed query fails.

`run_part` splits the work in two halves of similar length, which the
traced run executes in two single-threaded processes at once.
"""

from __future__ import annotations

import statistics
import time

import sector_radius.acceptance as acceptance
import sector_radius.extremal as extremal
import sector_radius.matcore as matcore
import sector_radius.matrixio as matrixio
import sector_radius.numrange as numrange
from sector_radius.errors import ConstructionError

from . import checks
from .inputs import decoy_normal, philox, sectorial

GRID_N = (2, 3, 6, 20, 100, 300)
# commutant_dimension needs O(n^4) memory and grid_radius takes ~9.5 s at
# n = 8, so they stop at n = 30 and n = 8.
SWEEP = {
    "numrange.numerical_radius":
        (GRID_N, lambda m: numrange.numerical_radius(m["t"])),
    "numrange.support_value":
        (GRID_N, lambda m: numrange.support_value(m["t"], 0.7)),
    "matcore.operator_norm":
        (GRID_N, lambda m: matcore.operator_norm(m["t"])),
    "numrange.min_sector_angle":
        (GRID_N, lambda m: numrange.min_sector_angle(m["t"])),
    "numrange.sector_contains":
        (GRID_N, lambda m: numrange.sector_contains(m["t"], 1.0)),
    "matcore.commutant_dimension":
        ((2, 3, 6, 20, 30), lambda m: matcore.commutant_dimension(m["t"])),
    "numrange.grid_radius":
        ((2, 3, 6, 8), lambda m: numrange.grid_radius(m["t"], 1_000_000)),
    "matrixio.parse_matrix_document":
        (GRID_N, lambda m: matrixio.parse_matrix_document(m["text"])),
    "matrixio.to_json":
        (GRID_N, lambda m: matrixio.to_json(m["doc"])),
}
CRITERIA = tuple(range(1, 12))
# Criterion 4 (~50 s) and criterion 7 (~26 s) dominate; the two parts take
# ~60 s each on one core of a 2-core x86 machine.
PARTS = {
    "a": {"criteria": (4, 10, 5, 8, 9, 1, 2, 6),
          "sweep": ("numrange.grid_radius", "matcore.commutant_dimension"),
          "probes": False},
    "b": {"criteria": (7, 3, 11),
          "sweep": tuple(k for k in SWEEP if k not in (
              "numrange.grid_radius", "matcore.commutant_dimension")),
          "probes": True},
}
MIN_SAMPLE_S = 0.2
MAX_REPEATS = 50


def metric_names() -> list[tuple[str, str]]:
    names = [(f"{func}.n{n}_s", "s")
             for func, (sizes, _) in SWEEP.items() for n in sizes]
    names += [(f"acceptance.criterion_{c:02d}_s", "s") for c in CRITERIA]
    names += [("known.decoy_radius_wrong", "count"),
              ("known.chain_n12_raised", "count")]
    return names


def _time_call(fn, arg) -> float:
    """One call's seconds; cheap calls are repeated and the median taken."""
    start = time.perf_counter()
    fn(arg)
    first = time.perf_counter() - start
    if first >= MIN_SAMPLE_S:
        return first
    samples: list[float] = []
    while sum(samples) < MIN_SAMPLE_S and len(samples) < MAX_REPEATS:
        start = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def sweep(seed: int, funcs) -> dict[str, float]:
    rng = philox(seed, "sweep")
    mats = {}
    for n in GRID_N + (8, 30):
        t = sectorial(rng, n, 1.0)
        doc = matrixio.matrix_document(t)
        mats[n] = {"t": t, "doc": doc, "text": matrixio.to_json(doc)}
    out = {}
    for func in funcs:
        sizes, call = SWEEP[func]
        for n in sizes:
            out[f"{func}.n{n}_s"] = _time_call(call, mats[n])
    return out


def criteria(seed: int, numbers) -> tuple[dict[str, float], list[int]]:
    """Seconds per acceptance criterion, and the numbers of those that failed."""
    out, failed = {}, []
    for c in numbers:
        fn = getattr(acceptance, f"criterion_{c:02d}")
        start = time.perf_counter()
        result = fn(seed)
        out[f"acceptance.criterion_{c:02d}_s"] = time.perf_counter() - start
        if not result.passed:
            failed.append(c)
    return out, failed


def known_defects(seed: int) -> dict[str, int]:
    """Probes of the two defects known at the seed commit.

    * numerical_radius refines only its 8 highest scan peaks, so 12 decoy
      peaks on scan angles hide the true maximum (error ~1e-6);
    * irreducible_family(n >= 12) raises ConstructionError.
    """
    rng = philox(seed, "known-defects")
    wrong = 0
    for _ in range(2):
        t = decoy_normal(rng)
        if checks.radius_error(t, numrange.numerical_radius(t)) is not None:
            wrong += 1
    try:
        extremal.irreducible_family(12, 0.05)
        raised = 0
    except ConstructionError:
        raised = 1
    return {"known.decoy_radius_wrong": wrong, "known.chain_n12_raised": raised}


def run_part(part: str, seed: int) -> tuple[dict[str, float], list[int]]:
    spec = PARTS[part]
    metrics = sweep(seed, spec["sweep"])
    timed, failed = criteria(seed, spec["criteria"])
    metrics.update(timed)
    if spec["probes"]:
        metrics.update(known_defects(seed))
    return metrics, failed

