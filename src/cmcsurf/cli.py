"""Command-line front end.

Subcommands:

* ``cmc curve``    generate a CMC generating curve, write it as CSV;
* ``cmc surface``  generate, rotate, and sample the surface (CSV/OBJ);
* ``cmc validate`` generate and run the full validation battery (JSON);
* ``cmc special``  audit a closed-form special-case phi;
* ``cmc oracle``   compare closed-form curvature against the kernel and
                   finite-difference pipelines for a curve (CSV or generated).

Every curve command gets its curve from ``_load_or_generate``: reloaded
from ``--csv`` where the command takes it, else generated from
``--profile`` on the largest usable piece of ``--interval``.

Exit codes: 0 success (validations passing), 1 validation failure,
2 usage or domain errors, a file that cannot be written among them.
Errors print as ``ERROR[<code>] message`` on stderr.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import io as cio
from .builders import GeneratingCurve, RotationType, build_surface
from .errors import CaseMismatchError, CmcError, NearNullSlopeError, NegativeRadicandError
from .generator import INFEASIBLE, CmcParams, checked_jet
from .geometry import uniform
from .profiles import ProfileFunction
from .quadrature import QuadratureConfig
from .validation import (
    CLOSED_VS_ORACLE_TOL,
    Tolerances,
    closed_vs_oracle,
    compare_special_case,
    scan_and_generate,
    shrunk_grid,
    validate_surface,
)


class _CliError(CmcError):
    code = "usage"


class _EmptyValidityError(CmcError):
    code = "empty-validity"


def _interval(text: str) -> tuple[float, float]:
    try:
        lo_s, hi_s = text.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad interval {text!r}, expected a:b") from exc
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise _CliError(f"interval {text!r} has a bound that is not finite")
    if not hi > lo:
        raise argparse.ArgumentTypeError(f"empty interval {text!r}")
    return lo, hi


def _grid(text: str) -> tuple[int, int]:
    try:
        nu_s, nv_s = text.lower().split("x")
        nu, nv = int(nu_s), int(nv_s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad grid {text!r}, expected NUxNV") from exc
    if nu < 2 or nv < 2:
        raise argparse.ArgumentTypeError("grid must be at least 2x2")
    return nu, nv


def _checked(convert, ok, what: str):
    """Argument type: ``convert`` the text, then reject values failing ``ok``;
    text that does not convert gets the same message."""
    def parse(text: str):
        try:
            if ok(value := convert(text)):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


#: The argument type of the tolerance flags: a finite positive float.
_tolerance = _checked(float, lambda x: 0.0 < x < math.inf, "a finite positive number")
#: The argument type of a constant or scale flag: a finite float.
_finite = _checked(float, math.isfinite, "a finite number")


def _projection(text: str) -> tuple[str, str, str]:
    names = tuple(text.split(","))
    if len(names) != 3 or not set(names) <= set(cio.COORD_NAMES):
        raise argparse.ArgumentTypeError(
            f"bad projection {text!r}, expected three of {','.join(cio.COORD_NAMES)}")
    return names


def _sign(text: str) -> int:
    if text in ("+1", "1", "+"):
        return 1
    if text in ("-1", "-"):
        return -1
    raise argparse.ArgumentTypeError(f"expected +1 or -1, got {text!r}")


def _consts(pairs: list[str]) -> dict[str, float]:
    out: dict[str, float] = {}
    for pair in pairs or []:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise _CliError(f"bad --const {pair!r}, expected name=value")
        try:
            out[name] = _finite(value)
        except argparse.ArgumentTypeError as exc:
            raise _CliError(f"bad --const value in {pair!r}: {exc}") from exc
    return out


def _add_common(sub: argparse.ArgumentParser, grid: tuple[int, int] | None = None):
    """The flags of a curve command.  With a default ``grid`` the command
    also samples a surface: it takes --csv, --grid and --v-window, and
    --profile and --interval are needed only without --csv."""
    sub.add_argument("--type", required=True, choices=[t.value for t in RotationType],
                     help="rotation type")
    sub.add_argument("--profile", required=grid is None,
                     help="profile expression r(u) or f(u)")
    sub.add_argument("--const", action="append", default=[],
                     metavar="NAME=VALUE", help="bind a named constant (repeatable)")
    sub.add_argument("--C", type=float, default=0.5, help="curvature constant C != 0")
    sub.add_argument("--hsign", type=_sign, default=1,
                     help="sign of <H,H> (+1 or -1)")
    sub.add_argument("--eta", type=_sign, default=1, help="orientation of phi")
    sub.add_argument("--interval", type=_interval, required=grid is None,
                     metavar="A:B")
    sub.add_argument("--u0", type=float, default=None,
                     help="quadrature base point (default: interval start)")
    sub.add_argument("--phi0", type=float, default=0.0,
                     help="phi integration constant (the parabolic constant A)")
    sub.add_argument("--c1", type=float, default=0.0)
    sub.add_argument("--c2", type=float, default=0.0)
    sub.add_argument("--rel-tol", type=_tolerance, default=QuadratureConfig.rel_tol,
                     help="quadrature tolerance: a panel is bisected until each integrand's "
                          "Legendre tail times the panel width is below this times the "
                          "interval width times its own max|f| (default %(default)g, floor 1e-16)")
    if grid is not None:
        sub.add_argument("--csv", help="reload the curve from a curve CSV instead of "
                                       "generating it")
        sub.add_argument("--grid", type=_grid, default=grid, metavar="NUxNV")
        sub.add_argument("--v-window", type=_interval, default=None,
                         help="v range (default: the rotation type's window)")


#: Flags that only generation reads.  With --csv a subcommand rejects each
#: of them, and its own extras, set to other than its default; ``validate``
#: still reads --C and --hsign for the target <H,H>.
_GENERATION_ONLY = ("profile", "const", "interval", "eta", "u0", "phi0", "c1", "c2",
                    "rel_tol")


def _reject_with_csv(sub: argparse.ArgumentParser, *dests: str):
    sub.set_defaults(csv_rejects={d: sub.get_default(d) for d in _GENERATION_ONLY + dests})


def _params(args) -> CmcParams:
    try:
        return CmcParams(C=args.C, h_sign=args.hsign, eta=args.eta,
                         u0=args.u0, phi0=args.phi0, c1=args.c1, c2=args.c2)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _load_or_generate(args) -> GeneratingCurve:
    """The curve of every curve command: reloaded from --csv, or generated
    (scaled by --perturb-phi, where the command takes it) on the largest
    usable piece of the validity scan of --interval, by the library's one
    generation step, ``validation.scan_and_generate``.  Without one nothing is
    generated; an all-failed scan raises the preconditions' error at the
    interval start, as empty validity unless structural (wrong case, null
    slope), blaming (h_sign, C) only for a negative radicand, the one
    precondition they decide, and the profile for any other."""
    if getattr(args, "csv", None):
        given = [dest for dest, default in args.csv_rejects.items()
                 if getattr(args, dest) != default]
        if given:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
            raise _CliError(f"--csv reloads the curve without generating it: {flags} "
                            "would be ignored")
        try:
            curve = cio.load_curve(args.csv)
        except (OSError, ValueError) as exc:
            raise _CliError(f"cannot read curve CSV {args.csv!r}: {exc}") from exc
        if curve.rotation.value != args.type:
            raise _CliError(f"--type {args.type} contradicts the "
                            f"{curve.rotation.value} curve in {args.csv!r}")
        return curve
    if not args.profile:
        raise _CliError("need --profile or --csv")
    if args.interval is None:
        raise _CliError("need --interval when generating from --profile")
    rotation = RotationType(args.type)
    profile = ProfileFunction.from_text(args.profile, args.interval, _consts(args.const))
    params = _params(args)
    curve, validity = scan_and_generate(rotation, profile, params, args.interval,
                                        QuadratureConfig(rel_tol=args.rel_tol),
                                        getattr(args, "perturb_phi", 1.0))
    if curve is None:
        if not validity:
            try:
                checked_jet(profile, params, rotation, args.interval[0])
            except (CaseMismatchError, NearNullSlopeError):
                raise
            except NegativeRadicandError as exc:
                raise _EmptyValidityError(
                    f"the (h_sign, C) choice is infeasible on the interval ({exc})") from exc
            except INFEASIBLE as exc:
                raise _EmptyValidityError("the profile fails the generator's preconditions "
                                          f"on the interval ({exc})") from exc
        raise _EmptyValidityError("no usable subinterval inside the requested interval")
    return curve


def _write(write, path: str, *args) -> None:
    """``write(path, *args)``, then the "wrote" line.  A write that fails
    (a missing directory, a path that names a directory) is a usage error
    naming the path, not a failed validation."""
    try:
        write(path, *args)
    except OSError as exc:
        raise _CliError(f"cannot write {path!r}: {exc.strerror}") from exc
    print(f"wrote {path}")


def _print_report(report, path: str | None) -> None:
    """The report's JSON, written to ``path`` (--report) or to stdout."""
    text = report.to_json()
    if path:
        _write(cio._atomic_write, path, text + "\n")
    else:
        print(text)


def _cmd_curve(args) -> int:
    curve = _load_or_generate(args)
    _write(cio.write_curve_csv, args.out, curve, args.samples)
    return 0


def _cmd_surface(args) -> int:
    curve = _load_or_generate(args)
    patch = build_surface(curve, args.v_window)
    nu, nv = args.grid
    us, vs = uniform(*curve.domain, nu), uniform(*patch.v_domain, nv)
    if args.out:
        _write(cio.write_surface_csv, args.out, patch, us, vs)
    if args.obj:
        _write(cio.write_surface_obj, args.obj, patch, us, vs, args.project)
    if not args.out and not args.obj:
        raise _CliError("give --out and/or --obj")
    return 0


def _cmd_validate(args) -> int:
    params = _params(args)
    tols = Tolerances(cmc_analytic=args.cmc_tol, cmc_fd=args.cmc_fd_tol)
    curve = _load_or_generate(args)
    report = validate_surface(curve, params.target_h2,
                              args.csv or f"{args.type}:{args.profile}",
                              *args.grid, args.v_window, tols)
    _print_report(report, args.report)
    return 0 if report.passed(tols) else 1


def _cmd_special(args) -> int:
    try:
        params = CmcParams(C=args.C, eta=args.eta)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc
    consts = {"a": args.a, "b": args.b, "d": args.d, "A": args.A, "B": args.B}
    report = compare_special_case(RotationType(args.type), consts, params, args.interval)
    _print_report(report, args.report)
    return 0


def _cmd_oracle(args) -> int:
    curve = _load_or_generate(args)
    patch = build_surface(curve, args.v_window)
    nu, nv = args.grid
    grid = shrunk_grid(curve, nu, nv, patch.v_domain)
    worst, flagged = closed_vs_oracle(curve, patch, grid)
    print(f"max closed-form vs kernel h2 discrepancy: {worst:.3e}")
    if flagged:
        print(f"{len(flagged)} grid points with a non-finite h2, left out of the maximum")
    return 0 if worst <= args.tol and not flagged else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmc",
        description="Constant-mean-curvature rotational surfaces in the "
                    "neutral pseudo-Euclidean 4-space.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_curve = subs.add_parser("curve", help="generate a generating curve (CSV)")
    _add_common(p_curve)
    p_curve.add_argument("--samples", type=_checked(int, lambda n: n >= 2,
                                                    "an integer of at least 2"),
                         default=401)
    p_curve.add_argument("--out", required=True)
    p_curve.set_defaults(func=_cmd_curve)

    p_surface = subs.add_parser("surface", help="sample the rotated surface")
    _add_common(p_surface, grid=(41, 41))
    p_surface.add_argument("--project", type=_projection, default=("x1", "x3", "x4"))
    p_surface.add_argument("--out")
    p_surface.add_argument("--obj")
    p_surface.set_defaults(func=_cmd_surface)
    _reject_with_csv(p_surface, "C", "hsign")

    p_val = subs.add_parser("validate", help="generate and validate (JSON report)")
    _add_common(p_val, grid=(41, 41))
    p_val.add_argument("--report", help="report path (default: stdout)")
    p_val.add_argument("--perturb-phi", type=_finite, default=1.0,
                       help="scale phi by this factor (negative control)")
    p_val.add_argument("--cmc-tol", type=_tolerance, default=Tolerances.cmc_analytic)
    p_val.add_argument("--cmc-fd-tol", type=_tolerance, default=Tolerances.cmc_fd)
    p_val.set_defaults(func=_cmd_validate)
    _reject_with_csv(p_val, "perturb_phi")

    p_special = subs.add_parser("special", help="audit a special-case closed form")
    p_special.add_argument("--type", required=True, choices=[t.value for t in RotationType])
    p_special.add_argument("--a", type=_finite, required=True)
    p_special.add_argument("--b", type=_finite, required=True)
    p_special.add_argument("--d", type=_finite, default=0.0)
    p_special.add_argument("--B", type=_finite, default=1.0)
    p_special.add_argument("--C", type=float, default=0.5)
    p_special.add_argument("--eta", type=_sign, default=1)
    p_special.add_argument("--A", type=_finite, default=0.0)
    p_special.add_argument("--interval", type=_interval, required=True)
    p_special.add_argument("--report")
    p_special.set_defaults(func=_cmd_special)

    p_oracle = subs.add_parser("oracle",
                               help="closed form vs kernel curvature comparison")
    _add_common(p_oracle, grid=(21, 21))
    p_oracle.add_argument("--tol", type=_tolerance, default=CLOSED_VS_ORACLE_TOL)
    p_oracle.set_defaults(func=_cmd_oracle)
    _reject_with_csv(p_oracle, "C", "hsign")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the try
        return code
    except CmcError as exc:
        print(f"ERROR[{exc.code}] {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader of stdout has gone; send the rest of the output to
        # devnull, or the flush at interpreter exit fails again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
