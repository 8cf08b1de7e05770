"""Cross-checks and machine-readable reports for CMC constructions.

Every generated surface is checked four ways: the CMC residual against
the target constant through two independent pipelines (analytic jets and
the finite-difference oracle), arc-length of the generating curve, frame
orthonormality, and hyperplane degeneracy.  Reports serialize to JSON
with a fixed key order so CI can diff them; identical inputs produce
bit-identical reports.

The grid checks (check_cmc, check_frames, closed_vs_oracle) call the
surface functions once per grid, on the broadcast (u, v) arrays of
``GridSpec.mesh`` (see ``surfaces``), and give the values of a loop over u
and then v bit for bit; check_arclength, h2_closed and the checks of
build_surface and hyperplane_degeneracy take one u column each, and
check_cmc and check_frames share one ``patch.jets`` grid call.  A
generated or reloaded curve answers a u column with one call of its
``column`` function, and ``GeneratingCurve.jets`` memoizes each column, so
one validate_surface makes four column calls: the 201 check samples
(build_surface, check_arclength, hyperplane_degeneracy), the grid's u
column (patch.jets, closed_vs_oracle) and the stencil column of each of
the two FD steps.  A point is never silently dropped from a maximum: it is
flagged with its reason instead.  Each check lists its flagged points in
u-major order, and a report lists those of the CMC check, then those of
the closed-form check (each (u, v, reason) once), then those of the
frames:

* ``fd-richardson-disagreement``: the FD <H,H> at FD_STEP and FD_STEP/2
  differ by more than 10 * ``fd_tol``;
* ``non-finite-h2``: an analytic, FD or closed-form <H,H> at the point is
  NaN or infinite; it enters no maximum;
* ``singular-frame``: no seed pair yields a numeric normal frame there;
* ``non-finite-frame``: the frame residual there is NaN or infinite; it
  enters no maximum.

Errors (NonLorentzMetricError, StencilOutOfDomainError, ...) propagate and
name the first offending point, in u-major order, of the grid call that
raised: the analytic kernel runs before the FD oracles and the frames.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, replace
from functools import reduce
from typing import Callable, Mapping, Sequence

import numpy as np

from .builders import (
    ARC_TOL,
    SPECS,
    GeneratingCurve,
    RotationType,
    build_surface,
    check_samples,
    h2_closed,
    hyperplane_degeneracy,
)
from .errors import InvariantViolationError, StencilOutOfDomainError
from .generator import CmcParams, domain_validity, generate
from .geometry import gram_residual, midpoints, raise_at, uniform
from .profiles import ProfileFunction
from .quadrature import QuadratureConfig
from .surfaces import (
    FD_STEP,
    Frame,
    PatchJets,
    SurfacePatch,
    fd_oracle,
    frame_numeric,
    mean_curvature,
)

#: Maximum flagged points kept in a report; points beyond it are dropped,
#: and the report stores no count of them.
MAX_FLAGGED = 32

#: Pass thresholds of a validation run that no caller sets: the frame
#: residual and the closed-form <H,H> against the oracle's (the arc-length
#: threshold is ``ARC_TOL``).
FRAME_TOL = 1e-10
CLOSED_VS_ORACLE_TOL = 1e-6


@dataclass(frozen=True)
class Tolerances:
    """The settable pass thresholds of a validation run: the analytic and
    the finite-difference CMC residual."""

    cmc_analytic: float = 1e-6
    cmc_fd: float = 1e-4


@dataclass(frozen=True)
class GridSpec:
    nu: int = 41
    nv: int = 41
    u_window: tuple[float, float] = (0.0, 1.0)
    v_window: tuple[float, float] = (0.0, 1.0)

    def u_values(self) -> list[float]:
        return uniform(*self.u_window, self.nu)

    def v_values(self) -> list[float]:
        return uniform(*self.v_window, self.nv)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """The grid as the surface functions take it: u values as an (nu, 1)
        column, v values as a (1, nv) row."""
        return np.array(self.u_values())[:, None], np.array(self.v_values())[None, :]

    def flags(self, *checks: tuple[object, str]) -> list[tuple[float, float, str]]:
        """(u, v, reason) for every point where a (mask, reason) check holds,
        in u-major order; the reasons at one point in the order given."""
        shape = (self.nu, self.nv)
        masks = [np.broadcast_to(mask, shape) for mask, _ in checks]
        us, vs = self.u_values(), self.v_values()
        return [(us[i], vs[j], reason)
                for i, j in np.argwhere(reduce(np.logical_or, masks)).tolist()
                for mask, (_, reason) in zip(masks, checks) if mask[i, j]]


@dataclass
class ValidationReport:
    """Residual summary of one surface; all residual fields are >= 0."""

    surface_id: str
    grid: GridSpec
    target_h2: float
    max_cmc_residual: float
    max_cmc_residual_fd: float
    max_arclength_residual: float
    max_frame_residual: float
    max_closed_vs_oracle: float
    degenerate: bool
    flagged_points: list[tuple[float, float, str]] = field(default_factory=list)

    def passed(self, tols: Tolerances = Tolerances()) -> bool:
        return (self.max_cmc_residual <= tols.cmc_analytic
                and self.max_cmc_residual_fd <= tols.cmc_fd
                and self.max_arclength_residual <= ARC_TOL
                and self.max_frame_residual <= FRAME_TOL
                and self.max_closed_vs_oracle <= CLOSED_VS_ORACLE_TOL
                and not self.flagged_points)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["flagged_points"] = [
            {"u": u, "v": v, "reason": reason}
            for u, v, reason in self.flagged_points
        ]
        return json.dumps(payload, indent=2, sort_keys=True)


@dataclass(frozen=True)
class CmcCheck:
    max_analytic: float
    max_fd: float
    flagged: list[tuple[float, float, str]]
    #: the analytic <H,H> over the grid, which closed_vs_oracle reuses
    analytic_h2: np.ndarray = field(repr=False, compare=False)


def _finite_max(values) -> float:
    """max(0, finite entries of ``values``): NaN and inf enter no maximum."""
    values = np.asarray(values)
    return float(np.max(values, initial=0.0, where=np.isfinite(values)))


def check_cmc(patch: SurfacePatch, target_h2: float, grid: GridSpec,
              fd_tol: float = Tolerances.cmc_fd, jets: PatchJets | None = None) -> CmcCheck:
    """Max |<H,H> - target| over the grid through both pipelines.

    The finite-difference pipeline runs at FD_STEP and FD_STEP/2
    (Richardson consistency); points where the two FD values disagree by
    more than 10 * ``fd_tol`` are flagged singular instead of silently
    entering the maximum, and so are points where any of the three values
    is not finite.  ``jets`` is patch.jets on ``grid.mesh()`` when the
    caller already has it.
    """
    us, vs = grid.mesh()
    analytic = mean_curvature(patch, us, vs, jets).h2
    fd_a = mean_curvature(fd_oracle(patch, FD_STEP), us, vs).h2
    fd_b = mean_curvature(fd_oracle(patch, 0.5 * FD_STEP), us, vs).h2
    finite = np.isfinite(analytic) & np.isfinite(fd_a) & np.isfinite(fd_b)
    flagged = grid.flags((~finite, "non-finite-h2"),
                         (np.abs(fd_a - fd_b) > 10.0 * fd_tol, "fd-richardson-disagreement"))
    return CmcCheck(_finite_max(np.abs(analytic - target_h2)),
                    _finite_max(np.abs(fd_b - target_h2)), flagged, analytic)


def check_arclength(curve: GeneratingCurve) -> float:
    """Max |arc-length expression - 1| over the 201 uniform ``check_samples``
    of the domain, evaluated as one u column (``arclength_residual``, the
    jets that build_surface already read).  A residual that is not finite,
    or an expression that overflows, raises InvariantViolationError."""
    us = check_samples(curve.domain)
    res = curve.arclength_residual(us)
    raise_at(~np.isfinite(res), InvariantViolationError,
             "arc-length residual {!r} at u={!r} is not finite", res, us)
    return float(res.max())


def frame_residual(frame: Frame) -> float:
    """Max deviation of the ten pairwise products from the prescribed table."""
    return gram_residual((frame.X, frame.Y, frame.n1, frame.n2),
                         (1, -1, frame.eps1, frame.eps2))


def check_frames(frames: Callable[[np.ndarray, np.ndarray], Frame],
                 grid: GridSpec) -> tuple[float, list[tuple[float, float, str]]]:
    """Worst frame-table residual over the grid; ``frames`` is called once,
    on ``grid.mesh()``.  Singular points (normal signs 0) are flagged rather
    than raised, and so are points whose residual is not finite."""
    frame = frames(*grid.mesh())
    residual = frame_residual(frame)
    singular = np.asarray(frame.eps1 == 0)
    finite = np.isfinite(residual)
    flagged = grid.flags((singular, "singular-frame"),
                         (~singular & ~finite, "non-finite-frame"))
    return _finite_max(np.where(singular, np.nan, residual)), flagged


def closed_vs_oracle(curve: GeneratingCurve, patch: SurfacePatch, grid: GridSpec,
                     kernel_h2: np.ndarray | None = None
                     ) -> tuple[float, list[tuple[float, float, str]]]:
    """Max |closed-form h2 - kernel h2| over the grid (relative scale), and
    the points where either value is not finite.  ``kernel_h2`` is the
    grid of mean_curvature(patch, ...).h2 when the caller already has it."""
    if kernel_h2 is None:
        kernel_h2 = mean_curvature(patch, *grid.mesh()).h2
    closed = h2_closed(curve, grid.mesh()[0])
    scale = 1.0 + np.maximum(np.abs(closed), np.abs(kernel_h2))
    finite = np.isfinite(closed) & np.isfinite(kernel_h2)
    return (_finite_max(np.where(finite, np.abs(closed - kernel_h2) / scale, np.nan)),
            grid.flags((~finite, "non-finite-h2")))


def shrunk_grid(curve: GeneratingCurve, nu: int, nv: int,
                v_window: tuple[float, float]) -> GridSpec:
    """Default validation grid: the curve domain pulled in by 4 FD steps
    on each side (so every stencil of both Richardson levels stays inside),
    and the v window likewise.  A window narrower than those 8 FD steps
    leaves no grid: a StencilOutOfDomainError."""
    margin = 4.0 * FD_STEP
    windows = []
    for name, (lo, hi) in (("u", curve.domain), ("v", v_window)):
        if not hi - lo >= 2.0 * margin:
            raise StencilOutOfDomainError(f"{name} window ({lo!r}, {hi!r}) is narrower "
                                          f"than 8 FD steps ({2.0 * margin!r})")
        windows.append((lo + margin, hi - margin))
    return GridSpec(nu, nv, *windows)


def validate_surface(curve: GeneratingCurve, target_h2: float,
                     surface_id: str = "",
                     nu: int = 41, nv: int = 41,
                     v_window: tuple[float, float] | None = None,
                     tols: Tolerances = Tolerances()) -> ValidationReport:
    """Run the full check battery on one generating curve."""
    patch = build_surface(curve, v_window)
    grid = shrunk_grid(curve, nu, nv, patch.v_domain)
    jets = patch.jets(*grid.mesh())  # the analytic curvature and the frames share it
    cmc = check_cmc(patch, target_h2, grid, tols.cmc_fd, jets)
    frame_worst, frame_flagged = check_frames(
        lambda u, v: frame_numeric(patch, u, v, jets), grid)
    arclength = check_arclength(curve)
    closed_worst, closed_flagged = closed_vs_oracle(curve, patch, grid, cmc.analytic_h2)
    # a point with a non-finite h2 may be flagged by both h2 checks; list it once
    flagged = list(dict.fromkeys(cmc.flagged + closed_flagged + frame_flagged))
    report = ValidationReport(
        surface_id=surface_id or patch.label,
        grid=grid,
        target_h2=target_h2,
        max_cmc_residual=cmc.max_analytic,
        max_cmc_residual_fd=cmc.max_fd,
        max_arclength_residual=arclength,
        max_frame_residual=frame_worst,
        max_closed_vs_oracle=closed_worst,
        degenerate=hyperplane_degeneracy(curve).degenerate,
        flagged_points=flagged[:MAX_FLAGGED],
    )
    return report


# --- special-case audit -----------------------------------------------------

@dataclass(frozen=True)
class SpecialCaseReport:
    """Outcome of auditing one closed-form phi against the phi-equation."""

    rotation: str
    constants: Mapping[str, float]
    h_sign_used: int
    max_discrepancy: float
    verdict: str  # "consistent" | "probable-misprint"

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)


def compare_special_case(rotation: RotationType,
                         constants: Mapping[str, float],
                         params: CmcParams,
                         interval: tuple[float, float]) -> SpecialCaseReport:
    """Differentiate the quoted closed-form phi (``SPECS[rotation].special_phi``)
    numerically and compare the rate it implies (``special_rate``: phi', or
    psi' for a parabolic profile) with the spec's turning equation
    (``SPECS[rotation].turning``) for the special profile at 201 points;
    relative discrepancies up to 1e-6 count as consistent.

    The inner radical sign is forced to the only feasible choice for the
    special profiles (h_sign = +1 for elliptic/parabolic, the case sign
    for hyperbolic); the additive constants drop out of the comparison.
    A verdict of "probable-misprint" records a discrepancy that no choice
    of integration constant can absorb; it is logged, never corrected.
    A constant that is not finite raises ValueError.
    """
    if not all(map(math.isfinite, constants.values())):
        raise ValueError(f"special-case constants must be finite, got {dict(constants)}")
    spec = SPECS[rotation]
    forced = replace(params, h_sign=spec.special_h_sign)
    profile = ProfileFunction.from_text(
        spec.special_profile, interval,
        {"a": constants["a"], "b": constants["b"]})
    lo, hi = interval
    step = 1e-6 * max(1.0, abs(lo), abs(hi))
    worst = 0.0
    for u in midpoints(lo, hi, 201):
        dphi_closed = (spec.special_phi(constants, forced, u + step)
                       - spec.special_phi(constants, forced, u - step)) / (2 * step)
        f = profile.jet(u)
        got = spec.special_rate(f, spec.special_phi(constants, forced, u), dphi_closed)
        expected = spec.turning(f, forced, u)
        scale = 1.0 + max(abs(expected), abs(got))
        worst = max(worst, abs(got - expected) / scale)
    verdict = "consistent" if worst <= 1e-6 else "probable-misprint"
    return SpecialCaseReport(rotation.value, dict(constants), forced.h_sign,
                             worst, verdict)


# --- orchestration helper for CLI / acceptance --------------------------------

def generation_plan(validity: Sequence[tuple[float, float]], params: CmcParams
                    ) -> tuple[tuple[float, float], CmcParams] | None:
    """The generation interval and the params to generate with.

    The interval is the largest validity piece wider than 24 FD steps (room
    for the validation grid's margins), pulled in by the pad min(1e-7 *
    span, FD_STEP) at each end to keep quadrature off the exact validity
    edge; None when no piece is wide enough.  A base point ``params.u0``
    inside that piece but within the pad of an end snaps to that end; a u0
    farther out is left for generate to reject.
    """
    usable = [(lo, hi) for lo, hi in validity if hi - lo > 24.0 * FD_STEP]
    if not usable:
        return None
    lo, hi = max(usable, key=lambda ab: ab[1] - ab[0])
    pad = min(1e-7 * (hi - lo), FD_STEP)
    interval = lo + pad, hi - pad
    if params.u0 is not None and lo <= params.u0 <= hi:
        params = replace(params, u0=min(max(params.u0, interval[0]), interval[1]))
    return interval, params


def scan_and_generate(rotation: RotationType, profile, params: CmcParams, interval,
                      config: QuadratureConfig | None = None, phi_scale: float = 1.0):
    """The one generation step: scan the validity of ``interval`` and
    generate on its ``generation_plan``.  Returns (curve, validity), the
    curve None when no validity piece is usable.  It calls the
    ``domain_validity`` and ``generate`` of this module's namespace, which
    perfbench's tracer wraps."""
    validity = domain_validity(profile, params, interval, rotation)
    plan = generation_plan(validity, params)  # (interval, params) or None
    if plan is None:
        return None, validity
    return generate(rotation, profile, plan[1], config, plan[0], phi_scale), validity


def generate_and_validate(rotation: RotationType, profile, params: CmcParams,
                          interval: tuple[float, float],
                          config: QuadratureConfig | None = None,
                          nu: int = 41, nv: int = 41,
                          phi_scale: float = 1.0,
                          surface_id: str = "",
                          ) -> tuple[GeneratingCurve | None, ValidationReport | None,
                                     list[tuple[float, float]]]:
    """Generate (``scan_and_generate``) on the largest valid subinterval
    inside ``interval``, and validate.  Returns (curve, report, validity);
    curve and report are None when the parameter choice is infeasible."""
    curve, validity = scan_and_generate(rotation, profile, params, interval, config, phi_scale)
    report = curve and validate_surface(curve, params.target_h2, surface_id, nu, nv)
    return curve, report, validity
