"""Command-line interface.

Each subcommand is declared once, in `_COMMANDS`: its name, help text,
output form, options in order, and the library call, which gets the parsed
arguments and the ``--in`` matrix (None for commands without ``--in``).
`_dispatch` writes the call's result in one of three forms:

* ``json`` -- the result is a dict computed from the ``--in`` matrix,
  printed as one JSON object;
* ``matrix`` -- the result is ``{"matrix": M, **extra}``.  With ``--out``
  the matrix document of M goes there and any extra fields follow on
  stdout as a second object; without it, everything is printed as one
  object (the bare document when there are no extra fields);
* ``text`` -- the result is ``(text, exit code)``, and the text goes to
  ``--out`` (``boundary``'s CSV) or to stdout (``verify``'s report).

Matrices travel as JSON documents (see `matrixio`); ``--in -`` reads stdin
and ``--out -`` writes stdout.  A token that ``float()`` accepts is always
a value, never an option, so ``--alpha -1e-13`` reads as ``--alpha=-1e-13``.
Exit codes: 0 success, 1 computation error (infeasible parameters,
degenerate input), 2 usage error (bad arguments or malformed JSON).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import tolerances
from .certify import canonical_family_test, certify_extremal, ratio_check
from .errors import SectorRadiusError, UsageError
from .extremal import (canonical_b, extremal_2x2, irreducible_family,
                       r_alpha_matrix, three_by_three)
from .matrixio import (boundary_csv, matrix_document, read_matrix, to_json,
                       write_text)
from .numrange import (boundary_points, ellipse_2x2, min_sector_angle,
                       numerical_radius, sector_contains,
                       validate_sector_angle)
from .matcore import operator_norm


TOL_ENV_VAR = "SECTOR_RADIUS_TOL"


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


def _family_member(form) -> dict:
    """canonical-family's answer: the recovered (r, theta), or nulls."""
    r, theta = form or (None, None)
    return {"member": form is not None, "r": r, "theta": theta}


def _verify(args, _) -> tuple[str, int]:
    if args.seed < 0:
        raise UsageError(f"--seed must be nonnegative, got {args.seed}")
    from .acceptance import run_verify  # only verify pays for this import
    return run_verify(args.seed)


def _real(flag: str, text: str | None = None, kind=float):
    """A required numeric option."""
    return flag, {"type": kind, "required": True, "help": text}


_IN = ("--in", {"dest": "infile", "required": True,
                "help": "matrix document path, or - for stdin"})
_ALPHA = _real("--alpha", "sector half-angle in radians, in [0, pi/2]")
_OUT = ("--out", {"help": "write the matrix document here (- for stdout)"})

# (name, help, form, options, call(args, matrix)); certify and ellipse
# print their result's fields in order (a Verdict is a str: its value)
_COMMANDS = (
    ("radius", "numerical radius w(T)", "json", [_IN],
     lambda a, t: {"w": numerical_radius(t)}),
    ("norm", "operator norm ||T||", "json", [_IN],
     lambda a, t: {"norm": operator_norm(t)}),
    ("ratio", "||T||/w(T) against the sharp sector bound", "json", [_IN],
     lambda a, t: ratio_check(t)._asdict()),
    ("sector", "is W(T) inside the sector?", "json", [_IN, _ALPHA],
     lambda a, t: {"alpha": validate_sector_angle(a.alpha),
                   "contained": sector_contains(t, a.alpha)}),
    ("sector-angle", "smallest sector half-angle containing W(T)", "json",
     [_IN], lambda a, t: {"alpha": min_sector_angle(t)}),
    ("boundary", "CSV of boundary points of W(T)", "text",
     [_IN, _real("--m", "number of support directions (>= 3)", int),
      ("--out", {"default": "-", "help": "CSV path (- for stdout)"})],
     lambda a, t: (boundary_csv(boundary_points(t, a.m)), 0)),
    ("ellipse", "elliptical numerical range of a 2x2 matrix", "json", [_IN],
     lambda a, t: vars(ellipse_2x2(t))),
    ("extremal", "unit-norm 2x2 matrix attaining the ratio bound", "matrix",
     [_ALPHA, _OUT], lambda a, t: {"matrix": extremal_2x2(a.alpha)}),
    ("canonical-b", "rotation-block form of the extremal matrix", "matrix",
     [_ALPHA, _OUT],
     lambda a, t: dict(zip(("matrix", "attaining_vector", "norm"),
                           canonical_b(a.alpha)))),
    ("r-family", "two-parameter family member touching both rays", "matrix",
     [_real("--r", "r >= 1"), _real("--theta", "rotation angle in [0, alpha]"),
      _ALPHA, _OUT],
     lambda a, t: {"matrix": r_alpha_matrix(a.r, a.theta, a.alpha)}),
    ("three-by-three", "3x3 extremal family for the half-plane sector",
     "matrix", [_real("--d"), _real("--b1"), _real("--b2"), _OUT],
     lambda a, t: {"matrix": three_by_three(a.d, a.b1, a.b2)}),
    ("irreducible", "n x n irreducible chain family (n >= 4)", "matrix",
     [_real("--n", kind=int), _real("--d", "coupling in (0, 1/sqrt(45))"),
      ("--eps", {"type": float, "help":
                 "chain strength (found automatically if omitted)"}), _OUT],
     lambda a, t: dict(zip(("matrix", "epsilon_used"),
                           irreducible_family(a.n, a.d, a.eps)))),
    ("canonical-family", "membership of a 2x2 matrix in the touching family",
     "json", [_IN, _ALPHA],
     lambda a, t: _family_member(canonical_family_test(t, a.alpha))),
    ("certify", "certify attainment of the optimal ratio", "json",
     [_IN, _ALPHA,
      ("--tol", {"type": float, "help": (
          f"certification tolerance; overrides env {TOL_ENV_VAR} "
          f"(default {tolerances.DEFAULT_CERTIFY_TOL})")})],
     lambda a, t: vars(certify_extremal(t, a.alpha, _certify_tol(a)))),
    ("verify", "run the acceptance suite", "text",
     [("--seed", {"type": int, "default": 0})], _verify),
)


def _dispatch(form: str, call, args) -> int:
    """Run one command's call and write its result in the command's form."""
    result = call(args, read_matrix(args.infile) if "infile" in args else None)
    if form == "text":
        text, code = result
        write_text(getattr(args, "out", "-"), text)
        return code
    if form == "matrix":
        doc = matrix_document(result.pop("matrix"))
        if args.out is not None:
            write_text(args.out, to_json(doc) + "\n")
        else:
            result = {"matrix": doc, **result} if result else doc
    if result:
        write_text("-", to_json(result) + "\n")
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse reads -1e-13 and -inf as options; here a token that
    ``float()`` accepts is a value (no option of this CLI looks like one)."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sector-radius",
        description=("Numerical range/radius analysis for sectorial "
                     "matrices: sector containment, extremal families, and "
                     "optimal-ratio certification."))
    subs = parser.add_subparsers(dest="command", required=True)
    for name, summary, form, options, call in _COMMANDS:
        sub = subs.add_parser(name, help=summary)
        for flag, kwargs in options:
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(func=functools.partial(_dispatch, form, call))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except SectorRadiusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    raise SystemExit(main())
