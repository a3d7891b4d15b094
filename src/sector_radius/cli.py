"""Command-line interface.

Matrices travel as JSON documents (see `matrixio`); ``--in -`` reads stdin
and ``--out -`` writes stdout.  Exit codes: 0 success, 1 computation error
(infeasible parameters, degenerate input), 2 usage error (bad arguments or
malformed JSON).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import tolerances
from .certify import canonical_family_test, certify_extremal, ratio_check
from .errors import SectorRadiusError, UsageError
from .extremal import (canonical_b, extremal_2x2, irreducible_family,
                       r_alpha_matrix, three_by_three)
from .matrixio import (boundary_csv, complex_pair, matrix_document,
                       read_matrix, to_json, write_text)
from .numrange import (boundary_points, ellipse_2x2, min_sector_angle,
                       numerical_radius, sector_contains,
                       validate_sector_angle)
from .matcore import operator_norm


TOL_ENV_VAR = "SECTOR_RADIUS_TOL"


def _print_json(payload) -> None:
    sys.stdout.write(to_json(payload) + "\n")


def _emit_matrix(args, t, extra: dict | None = None) -> None:
    """Write the matrix document to --out when given (any extra fields still
    go to stdout), else print everything as one JSON object."""
    doc = matrix_document(t)
    if args.out is not None:
        write_text(args.out, to_json(doc) + "\n")
        if extra:
            _print_json(extra)
        return
    _print_json({"matrix": doc, **extra} if extra else doc)


def _cmd_radius(args) -> int:
    t = read_matrix(args.infile)
    _print_json({"w": numerical_radius(t)})
    return 0


def _cmd_norm(args) -> int:
    t = read_matrix(args.infile)
    _print_json({"norm": operator_norm(t)})
    return 0


def _cmd_ratio(args) -> int:
    res = ratio_check(read_matrix(args.infile))
    _print_json({"alpha_min": res.alpha_min, "ratio": res.ratio,
                 "bound": res.bound, "ok": res.ok})
    return 0


def _cmd_sector(args) -> int:
    t, alpha = read_matrix(args.infile), validate_sector_angle(args.alpha)
    _print_json({"alpha": alpha, "contained": sector_contains(t, alpha)})
    return 0


def _cmd_sector_angle(args) -> int:
    _print_json({"alpha": min_sector_angle(read_matrix(args.infile))})
    return 0


def _cmd_boundary(args) -> int:
    samples = boundary_points(read_matrix(args.infile), args.m)
    write_text(args.out if args.out is not None else "-",
               boundary_csv(samples))
    return 0


def _cmd_ellipse(args) -> int:
    desc = ellipse_2x2(read_matrix(args.infile))
    _print_json({
        "focus1": complex_pair(desc.focus1),
        "focus2": complex_pair(desc.focus2),
        "minor_axis_length": desc.minor_axis_length,
        "major_axis_length": desc.major_axis_length,
    })
    return 0


def _cmd_extremal(args) -> int:
    _emit_matrix(args, extremal_2x2(args.alpha))
    return 0


def _cmd_canonical_b(args) -> int:
    block = canonical_b(args.alpha)
    _emit_matrix(args, block.matrix, extra={
        "attaining_vector": [float(v) for v in block.vector.real],
        "norm": block.norm,
    })
    return 0


def _cmd_r_family(args) -> int:
    _emit_matrix(args, r_alpha_matrix(args.r, args.theta, args.alpha))
    return 0


def _cmd_three_by_three(args) -> int:
    _emit_matrix(args, three_by_three(args.d, args.b1, args.b2))
    return 0


def _cmd_irreducible(args) -> int:
    t, eps = irreducible_family(args.n, args.d, args.eps)
    _emit_matrix(args, t, extra={"epsilon_used": eps})
    return 0


def _cmd_canonical_family(args) -> int:
    form = canonical_family_test(read_matrix(args.infile), args.alpha)
    if form is None:
        _print_json({"member": False, "r": None, "theta": None})
    else:
        _print_json({"member": True, "r": form.r, "theta": form.theta})
    return 0


def _certify_tol(args) -> float | None:
    """--tol, else the environment's tolerance, else None (the default)."""
    raw = os.environ.get(TOL_ENV_VAR)
    if args.tol is not None or raw is None:
        return args.tol
    try:
        value = float(raw)
    except ValueError as exc:
        raise UsageError(
            f"{TOL_ENV_VAR} must be a positive real, got {raw!r}") from exc
    if not math.isfinite(value) or value <= 0:
        raise UsageError(
            f"{TOL_ENV_VAR} must be finite and positive, got {value}")
    return value


def _cmd_certify(args) -> int:
    t = read_matrix(args.infile)
    rep = certify_extremal(t, args.alpha, _certify_tol(args))
    payload = {
        "verdict": rep.verdict.value,
        "alpha": rep.alpha,
        "ratio": rep.ratio,
        "tau": rep.tau,
        "attaining_vector": (None if rep.attaining_vector is None else
                             [complex_pair(z) for z in rep.attaining_vector]),
        "compression": (None if rep.compression is None else
                        matrix_document(rep.compression)["entries"]),
        "block_offdiag_norm": rep.block_offdiag_norm,
        "tail_radius": rep.tail_radius,
    }
    _print_json(payload)
    return 0


def _cmd_verify(args) -> int:
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    from .acceptance import run_verify  # only verify pays for this import
    text, code = run_verify(args.seed)
    sys.stdout.write(text)
    return code


def _add_matrix_in(sub) -> None:
    sub.add_argument("--in", dest="infile", required=True,
                     help="matrix document path, or - for stdin")


def _add_alpha(sub) -> None:
    sub.add_argument("--alpha", type=float, required=True,
                     help="sector half-angle in radians, in [0, pi/2]")


def _add_out(sub) -> None:
    sub.add_argument("--out", default=None,
                     help="write the matrix document here (- for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sector-radius",
        description=("Numerical range/radius analysis for sectorial "
                     "matrices: sector containment, extremal families, and "
                     "optimal-ratio certification."))
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("radius", help="numerical radius w(T)")
    _add_matrix_in(sub)
    sub.set_defaults(func=_cmd_radius)

    sub = subs.add_parser("norm", help="operator norm ||T||")
    _add_matrix_in(sub)
    sub.set_defaults(func=_cmd_norm)

    sub = subs.add_parser("ratio",
                          help="||T||/w(T) against the sharp sector bound")
    _add_matrix_in(sub)
    sub.set_defaults(func=_cmd_ratio)

    sub = subs.add_parser("sector", help="is W(T) inside the sector?")
    _add_matrix_in(sub)
    _add_alpha(sub)
    sub.set_defaults(func=_cmd_sector)

    sub = subs.add_parser("sector-angle",
                          help="smallest sector half-angle containing W(T)")
    _add_matrix_in(sub)
    sub.set_defaults(func=_cmd_sector_angle)

    sub = subs.add_parser("boundary",
                          help="CSV of boundary points of W(T)")
    _add_matrix_in(sub)
    sub.add_argument("--m", type=int, required=True,
                     help="number of support directions (>= 3)")
    sub.add_argument("--out", default=None, help="CSV path (- for stdout)")
    sub.set_defaults(func=_cmd_boundary)

    sub = subs.add_parser("ellipse",
                          help="elliptical numerical range of a 2x2 matrix")
    _add_matrix_in(sub)
    sub.set_defaults(func=_cmd_ellipse)

    sub = subs.add_parser("extremal",
                          help="unit-norm 2x2 matrix attaining the ratio bound")
    _add_alpha(sub)
    _add_out(sub)
    sub.set_defaults(func=_cmd_extremal)

    sub = subs.add_parser("canonical-b",
                          help="rotation-block form of the extremal matrix")
    _add_alpha(sub)
    _add_out(sub)
    sub.set_defaults(func=_cmd_canonical_b)

    sub = subs.add_parser("r-family",
                          help="two-parameter family member touching both rays")
    sub.add_argument("--r", type=float, required=True, help="r >= 1")
    sub.add_argument("--theta", type=float, required=True,
                     help="rotation angle in [0, alpha]")
    _add_alpha(sub)
    _add_out(sub)
    sub.set_defaults(func=_cmd_r_family)

    sub = subs.add_parser("three-by-three",
                          help="3x3 extremal family for the half-plane sector")
    sub.add_argument("--d", type=float, required=True)
    sub.add_argument("--b1", type=float, required=True)
    sub.add_argument("--b2", type=float, required=True)
    _add_out(sub)
    sub.set_defaults(func=_cmd_three_by_three)

    sub = subs.add_parser("irreducible",
                          help="n x n irreducible chain family (n >= 4)")
    sub.add_argument("--n", type=int, required=True)
    sub.add_argument("--d", type=float, required=True,
                     help="coupling in (0, 1/sqrt(45))")
    sub.add_argument("--eps", type=float, default=None,
                     help="chain strength (found automatically if omitted)")
    _add_out(sub)
    sub.set_defaults(func=_cmd_irreducible)

    sub = subs.add_parser("canonical-family",
                          help="membership of a 2x2 matrix in the touching family")
    _add_matrix_in(sub)
    _add_alpha(sub)
    sub.set_defaults(func=_cmd_canonical_family)

    sub = subs.add_parser("certify",
                          help="certify attainment of the optimal ratio")
    _add_matrix_in(sub)
    _add_alpha(sub)
    sub.add_argument("--tol", type=float, default=None,
                     help=(f"certification tolerance; overrides env "
                           f"{TOL_ENV_VAR} (default "
                           f"{tolerances.DEFAULT_CERTIFY_TOL})"))
    sub.set_defaults(func=_cmd_certify)

    sub = subs.add_parser("verify", help="run the acceptance suite")
    sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SectorRadiusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
