"""Cross-checks and machine-readable reports for CMC constructions.

Every generated surface is checked four ways: the CMC residual against
the target constant through two independent pipelines (analytic jets and
the finite-difference oracle), arc-length of the generating curve, frame
orthonormality, and hyperplane degeneracy.  Reports serialize to JSON
with a fixed key order so CI can diff them; identical inputs produce
bit-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Mapping, Sequence

from .builders import (
    SPECS,
    GeneratingCurve,
    RotationType,
    build_surface,
    h2_closed,
    hyperplane_degeneracy,
)
from .errors import DegenerateFrameError
from .generator import CmcParams, domain_validity, generate
from .geometry import gram_residual
from .profiles import ProfileFunction
from .quadrature import QuadratureConfig
from .surfaces import (
    FD_STEP,
    Frame,
    SurfacePatch,
    fd_oracle,
    frame_numeric,
    mean_curvature,
)

#: Maximum flagged points kept in a report; points beyond it are dropped,
#: and the report stores no count of them.
MAX_FLAGGED = 32


@dataclass(frozen=True)
class Tolerances:
    """Pass thresholds for a validation run."""

    cmc_analytic: float = 1e-6
    cmc_fd: float = 1e-4
    arclength: float = 1e-9
    frames: float = 1e-10
    closed_vs_oracle: float = 1e-6


@dataclass(frozen=True)
class GridSpec:
    nu: int = 41
    nv: int = 41
    u_window: tuple[float, float] = (0.0, 1.0)
    v_window: tuple[float, float] = (0.0, 1.0)

    def u_values(self) -> list[float]:
        lo, hi = self.u_window
        return [lo + (hi - lo) * k / (self.nu - 1) for k in range(self.nu)]

    def v_values(self) -> list[float]:
        lo, hi = self.v_window
        return [lo + (hi - lo) * k / (self.nv - 1) for k in range(self.nv)]


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
                and self.max_arclength_residual <= tols.arclength
                and self.max_frame_residual <= tols.frames
                and self.max_closed_vs_oracle <= tols.closed_vs_oracle
                and not self.flagged_points)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["grid"] = {
            "nu": self.grid.nu,
            "nv": self.grid.nv,
            "u_window": list(self.grid.u_window),
            "v_window": list(self.grid.v_window),
        }
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


def check_cmc(patch: SurfacePatch, target_h2: float, grid: GridSpec,
              fd_tol: float = 1e-4) -> CmcCheck:
    """Max |<H,H> - target| over the grid through both pipelines.

    The finite-difference pipeline runs at FD_STEP and FD_STEP/2
    (Richardson consistency); points where the two FD values disagree by
    more than 10 * ``fd_tol`` are flagged singular instead of silently
    entering the maximum.
    """
    oracle_h = fd_oracle(patch, FD_STEP)
    oracle_h2 = fd_oracle(patch, 0.5 * FD_STEP)
    vs = grid.v_values()
    max_analytic = 0.0
    max_fd = 0.0
    flagged: list[tuple[float, float, str]] = []
    for u in grid.u_values():
        for v in vs:
            analytic = mean_curvature(patch, u, v).h2
            fd_a = mean_curvature(oracle_h, u, v).h2
            fd_b = mean_curvature(oracle_h2, u, v).h2
            max_analytic = max(max_analytic, abs(analytic - target_h2))
            if abs(fd_a - fd_b) > 10.0 * fd_tol:
                flagged.append((u, v, "fd-richardson-disagreement"))
            max_fd = max(max_fd, abs(fd_b - target_h2))
    return CmcCheck(max_analytic, max_fd, flagged)


def check_arclength(curve: GeneratingCurve) -> float:
    """Max |arc-length expression - 1| over 201 uniform samples of the domain."""
    lo, hi = curve.domain
    return max(curve.arclength_residual(lo + (hi - lo) * k / 200) for k in range(201))


def frame_residual(frame: Frame) -> float:
    """Max deviation of the ten pairwise products from the prescribed table."""
    return gram_residual((frame.X, frame.Y, frame.n1, frame.n2),
                         (1, -1, frame.eps1, frame.eps2))


def check_frames(patch: SurfacePatch,
                 frames: Callable[[float, float], Frame],
                 grid: GridSpec) -> tuple[float, list[tuple[float, float, str]]]:
    """Worst frame-table residual over the grid; singular points are
    flagged rather than raised."""
    worst = 0.0
    flagged: list[tuple[float, float, str]] = []
    for u in grid.u_values():
        for v in grid.v_values():
            try:
                worst = max(worst, frame_residual(frames(u, v)))
            except DegenerateFrameError:
                flagged.append((u, v, "singular-frame"))
    return worst, flagged


def closed_vs_oracle(curve: GeneratingCurve, patch: SurfacePatch,
                     grid: GridSpec) -> float:
    """Max |closed-form h2 - kernel h2| over the grid (relative scale)."""
    worst = 0.0
    for u in grid.u_values():
        closed = h2_closed(curve, u)
        for v in grid.v_values():
            oracle = mean_curvature(patch, u, v).h2
            scale = 1.0 + max(abs(closed), abs(oracle))
            worst = max(worst, abs(closed - oracle) / scale)
    return worst


def shrunk_grid(curve: GeneratingCurve, nu: int, nv: int,
                v_window: tuple[float, float]) -> GridSpec:
    """Default validation grid: the curve domain pulled in by 4 FD steps
    on each side (so every stencil of both Richardson levels stays inside),
    and the v window likewise."""
    lo, hi = curve.domain
    margin = 4.0 * FD_STEP
    v_lo, v_hi = v_window
    return GridSpec(nu, nv, (lo + margin, hi - margin),
                    (v_lo + margin, v_hi - margin))


def validate_surface(curve: GeneratingCurve, target_h2: float,
                     surface_id: str = "",
                     nu: int = 41, nv: int = 41,
                     v_window: tuple[float, float] | None = None,
                     tols: Tolerances = Tolerances()) -> ValidationReport:
    """Run the full check battery on one generating curve."""
    patch = build_surface(curve, v_window)
    grid = shrunk_grid(curve, nu, nv, patch.v_domain)
    cmc = check_cmc(patch, target_h2, grid, tols.cmc_fd)
    frame_worst, frame_flagged = check_frames(
        patch, lambda u, v: frame_numeric(patch, u, v), grid)
    report = ValidationReport(
        surface_id=surface_id or patch.label,
        grid=grid,
        target_h2=target_h2,
        max_cmc_residual=cmc.max_analytic,
        max_cmc_residual_fd=cmc.max_fd,
        max_arclength_residual=check_arclength(curve),
        max_frame_residual=frame_worst,
        max_closed_vs_oracle=closed_vs_oracle(curve, patch, grid),
        degenerate=hyperplane_degeneracy(curve).degenerate,
        flagged_points=(cmc.flagged + frame_flagged)[:MAX_FLAGGED],
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
        return json.dumps(
            {
                "rotation": self.rotation,
                "constants": dict(sorted(self.constants.items())),
                "h_sign_used": self.h_sign_used,
                "max_discrepancy": self.max_discrepancy,
                "verdict": self.verdict,
            },
            indent=2, sort_keys=True)


def compare_special_case(rotation: RotationType,
                         constants: Mapping[str, float],
                         params: CmcParams,
                         interval: tuple[float, float]) -> SpecialCaseReport:
    """Differentiate the quoted closed-form phi (``SPECS[rotation].special_phi``)
    numerically and compare it with the spec's turning equation
    (``SPECS[rotation].turning``) for the special profile at 201 points;
    relative discrepancies up to 1e-6 count as consistent.

    The inner radical sign is forced to the only feasible choice for the
    special profiles (h_sign = +1 for elliptic/parabolic, the case sign
    for hyperbolic); the additive constants drop out of the comparison.
    A verdict of "probable-misprint" records a discrepancy that no choice
    of integration constant can absorb; it is logged, never corrected.
    """
    spec = SPECS[rotation]
    forced = replace(params, h_sign=spec.special_h_sign)
    profile = ProfileFunction.from_text(
        spec.special_profile, interval,
        {"a": constants["a"], "b": constants["b"]})
    lo, hi = interval
    step = 1e-6 * max(1.0, abs(lo), abs(hi))
    worst = 0.0
    for k in range(201):
        u = lo + (hi - lo) * (k + 0.5) / 201
        dphi_closed = (spec.special_phi(constants, forced, u + step)
                       - spec.special_phi(constants, forced, u - step)) / (2 * step)
        f = profile.jet(u)
        got = dphi_closed
        if rotation is RotationType.PARABOLIC:
            # Constants live inside phi = f' psi; compare the implied psi'
            # = (phi' f' - phi f'') / (f')^2 against the psi-equation.
            phi_val = spec.special_phi(constants, forced, u)
            got = (dphi_closed * f.d1 - phi_val * f.d2) / (f.d1 * f.d1)
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


def generate_and_validate(rotation: RotationType, profile, params: CmcParams,
                          interval: tuple[float, float],
                          config: QuadratureConfig | None = None,
                          nu: int = 41, nv: int = 41,
                          v_window: tuple[float, float] | None = None,
                          tols: Tolerances = Tolerances(),
                          phi_scale: float = 1.0,
                          surface_id: str = "",
                          ) -> tuple[GeneratingCurve | None, ValidationReport | None,
                                     list[tuple[float, float]]]:
    """Scan validity, generate on the largest valid subinterval inside
    ``interval``, and validate.  Returns (curve, report, validity); curve
    and report are None when the parameter choice is infeasible."""
    validity = domain_validity(profile, params, interval, rotation)
    plan = generation_plan(validity, params)
    if plan is None:
        return None, None, validity
    gen_interval, params = plan
    curve = generate(rotation, profile, params, config, gen_interval, phi_scale)
    report = validate_surface(curve, params.target_h2, surface_id,
                              nu, nv, v_window, tols)
    return curve, report, validity
