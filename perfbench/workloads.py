"""The five closed-loop workloads: inputs, the timed query and its check.

Each workload repeats a fixed cycle of slots.  The seed changes the matrix
entries, never the sizes or kinds in a cycle, so a run's cost depends on the
code under test and not on which sizes the seed happened to draw.  Runs stop
only at the end of a cycle, so every run has the same mix.
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

import sector_radius.certify as certify
import sector_radius.extremal as extremal
import sector_radius.matcore as matcore
import sector_radius.matrixio as matrixio
import sector_radius.numrange as numrange

from . import checks
from .inputs import (
    complex_gaussian,
    direct_sum,
    extremal_2x2,
    matrix_document_text,
    r_alpha,
    random_unitary,
    sectorial,
    tau,
    three_by_three,
)

HALF_PI = math.pi / 2.0
GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class Workload:
    name: str
    slots: tuple
    warmup: tuple
    make: Callable  # (rng, slot, ctx) -> input dict, untimed
    query: Callable  # (input) -> output, timed
    check: Callable  # (input, output) -> None or a reason it is wrong
    # Set when each query runs in a child process: the name of the span the
    # traced run opens around it; peak RSS is then the children's.
    child_span: str | None = None


@dataclass(frozen=True)
class Context:
    """Where the cli-calls workload writes documents and how it starts Python."""

    workdir: str
    env: dict


# --- sectorial-small and radius-large: ratio_check + sector_contains --------

def _make_ratio(rng, slot, ctx):
    kind, n = slot
    if kind == "mixed":
        kind = ("gauss", "sectorial")[int(rng.integers(0, 2))]
    if kind == "r_alpha":
        alpha = rng.uniform(0.1, 1.45)
        t = r_alpha(rng.uniform(1.0, 3.0), rng.uniform(0.0, alpha), alpha)
    else:
        alpha = rng.uniform(0.05, 1.45)
        t = (sectorial(rng, n, alpha) if kind == "sectorial"
             else complex_gaussian(rng, n) / math.sqrt(n))
    return {"kind": kind, "t": t, "alpha": alpha}


def _query_ratio(inp):
    return (certify.ratio_check(inp["t"]),
            numrange.sector_contains(inp["t"], inp["alpha"]))


def _check_ratio(inp, out):
    rc, contained = out
    t, alpha = inp["t"], inp["alpha"]
    if not rc.ok:
        return f"ratio {rc.ratio} above its bound {rc.bound}"
    if inp["kind"] == "gauss" and checks.hermitian_min(t) < 0.0:
        # an indefinite Hermitian part: no sector, so the bound is 2
        if contained or rc.alpha_min is not None or rc.bound != 2.0:
            return f"indefinite H reported sectorial ({contained}, {rc})"
    else:
        # built inside the sector of half-angle alpha
        if not contained:
            return "W(T) built inside the sector, reported outside"
        if rc.alpha_min is None or rc.alpha_min > alpha + 1e-9:
            return f"min sector angle {rc.alpha_min} above alpha {alpha}"
        if inp["kind"] == "r_alpha" and abs(rc.alpha_min - alpha) > 1e-6:
            return f"W(T) touches both rays, min angle {rc.alpha_min} != {alpha}"
        if abs(rc.bound - tau(rc.alpha_min)) > 1e-12:
            return f"bound {rc.bound} != tau(alpha_min)"
    return checks.radius_error(t, checks.norm2(t) / rc.ratio)


SECTORIAL_SMALL = Workload(
    "sectorial-small",
    tuple(("sectorial", n) for n in range(2, 7)) + (("r_alpha", 2),) * 2,
    ("sectorial", 2), _make_ratio, _query_ratio, _check_ratio)

# n = 100 takes ~2 s a query, so a 10 s run held four or five of them and
# its rate moved 16% between seeds; the traced sweep times n = 100 and 300.
# Five n = 20 slots of seven put the median latency on n = 20, where it is
# taken over ~40 queries a run; the n = 50 slots take ~70% of the time.
# Each query is Gaussian or sectorial at random: both cost the same.
RADIUS_LARGE = Workload(
    "radius-large",
    (("mixed", 20),) * 5 + (("mixed", 50),) * 2,
    ("gauss", 20), _make_ratio, _query_ratio, _check_ratio)


# --- certify-structure: certify_extremal + commutant_dimension -------------

_ALPHAS = (math.pi / 6, math.pi / 4, math.pi / 3, HALF_PI)
_SUM_SIZES = (3, 6, 9, 12, 15, 18, 21, 24)
# irreducible_family raises ConstructionError for n >= 12 at the seed
# commit; those sizes run in the traced run's known-defect probe instead.
_CHAIN_SIZES = tuple(range(4, 12))


def _make_structure(rng, slot, ctx):
    kind = slot[0]
    if kind == "sum":
        _, n, alpha, extremal_sum = slot
        return {"kind": kind, "t": direct_sum(rng, n, alpha, extremal_sum),
                "alpha": alpha, "extremal": extremal_sum, "commutant": n - 1}
    if kind == "3x3":
        return {"kind": kind, "t": three_by_three(rng), "alpha": HALF_PI,
                "extremal": True, "commutant": 1}
    return {"kind": kind, "n": slot[1], "d": rng.uniform(0.02, 0.14),
            "alpha": HALF_PI, "extremal": True, "commutant": 1}


def _query_structure(inp):
    t = inp.get("t")
    if t is None:
        t, _ = extremal.irreducible_family(inp["n"], inp["d"])
    return (t, certify.certify_extremal(t, inp["alpha"]),
            matcore.commutant_dimension(t))


def _check_structure(inp, out):
    t, rep, dim = out
    want = "extremal" if inp["extremal"] else "not_extremal"
    if rep.verdict.value != want:
        return f"verdict {rep.verdict.value}, constructed {want}"
    if dim != inp["commutant"]:
        return f"commutant dimension {dim}, constructed {inp['commutant']}"
    if inp["kind"] != "sum":
        # the 3x3 and chain families have norm 1 and radius 1/sqrt(2)
        if abs(checks.norm2(t) - 1.0) > 1e-8 or abs(
                rep.ratio - math.sqrt(2.0)) > 1e-8:
            return f"norm {checks.norm2(t)} / ratio {rep.ratio} off the family"
    return checks.radius_error(t, checks.norm2(t) / rep.ratio)


CERTIFY_STRUCTURE = Workload(
    "certify-structure",
    tuple(s for i, n in enumerate(_SUM_SIZES)
          for s in (("sum", n, _ALPHAS[i % 4], True),
                    ("sum", n, _ALPHAS[(i + 2) % 4], False)))
    + (("3x3",),) * 4 + tuple(("chain", n) for n in _CHAIN_SIZES),
    ("sum", 3, _ALPHAS[0], True), _make_structure, _query_structure,
    _check_structure)


# --- grid-oracle: grid_radius against numerical_radius ---------------------

def _make_grid(rng, slot, ctx):
    n = slot[1]
    return {"t": complex_gaussian(rng, n)}


def _query_grid(inp):
    return (numrange.grid_radius(inp["t"], GRID_POINTS),
            numrange.numerical_radius(inp["t"]))


def _check_grid(inp, out):
    grid, w = out
    if abs(grid - w) > 1e-6:
        return f"grid radius {grid} and radius {w} differ by more than 1e-6"
    return checks.radius_error(inp["t"], w)


# n = 2 takes the closed form (~30% of a cycle), 3..7 the characteristic
# polynomial; three of its sizes keep the cycle short, so a run holds ~7
# cycles.  n >= 8 takes the eigvalsh fallback at ~9.5 s a call, longer than
# a whole run; the traced run's size sweep times it instead.
GRID_ORACLE = Workload(
    "grid-oracle",
    (("gauss", 2),) * 5 + (("gauss", 3), ("gauss", 5), ("gauss", 7)),
    ("gauss", 2), _make_grid, _query_grid, _check_grid)


# --- cli-calls: one `python -m sector_radius` process per query ------------

def _make_cli(rng, slot, ctx):
    command, n = slot
    alpha = rng.uniform(0.1, 1.45)
    if command == "radius":
        t = sectorial(rng, n, alpha)
    elif n == 2:
        u = random_unitary(rng, 2)
        t = u.conj().T @ extremal_2x2(alpha) @ u
    else:
        t = direct_sum(rng, n, alpha, True)
    text = matrix_document_text(t)
    path = os.path.join(ctx.workdir, f"{command}-{n}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    argv = [sys.executable, "-m", "sector_radius", command, "--in", path]
    if command == "certify":
        argv += ["--alpha", repr(alpha)]
    return {"command": command, "text": text, "alpha": alpha, "argv": argv,
            "env": ctx.env}


def _query_cli(inp):
    proc = subprocess.run(inp["argv"], env=inp["env"], capture_output=True,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def _check_cli(inp, out):
    code, stdout, stderr = out
    if code != 0:
        return f"exit code {code}: {stderr.decode(errors='replace')[-200:]}"
    t = matrixio.parse_matrix_document(inp["text"])
    if inp["command"] == "radius":
        w = numrange.numerical_radius(t)
        payload = {"w": w}
        problem = checks.radius_error(t, w)
        if problem:
            return problem
    else:
        rep = certify.certify_extremal(t, inp["alpha"])
        if rep.verdict.value != "extremal":
            return f"verdict {rep.verdict.value}, constructed extremal"
        payload = {
            "verdict": rep.verdict.value, "alpha": rep.alpha,
            "ratio": rep.ratio, "tau": rep.tau,
            "attaining_vector": (None if rep.attaining_vector is None else
                                 [matrixio.complex_pair(z)
                                  for z in rep.attaining_vector]),
            "compression": (None if rep.compression is None else
                            matrixio.matrix_document(
                                rep.compression)["entries"]),
            "block_offdiag_norm": rep.block_offdiag_norm,
            "tail_radius": rep.tail_radius,
        }
    expected = (matrixio.to_json(payload) + "\n").encode()
    if stdout != expected:
        return f"stdout {stdout[:120]!r} differs from the in-process result"
    return None


CLI_CALLS = Workload(
    "cli-calls",
    tuple((c, n) for n in range(2, 7) for c in ("radius", "certify")),
    ("radius", 2), _make_cli, _query_cli, _check_cli, child_span="cli.main")


WORKLOADS = {w.name: w for w in (SECTORIAL_SMALL, RADIUS_LARGE,
                                 CERTIFY_STRUCTURE, GRID_ORACLE, CLI_CALLS)}
