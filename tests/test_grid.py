"""The surface functions on a broadcast (u, v) grid agree with their float
calls bit for bit, flag and raise in the order of a loop over u and then v,
and let validation run in a bounded number of grid calls."""

import json
import math
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from cmcsurf import validation
from cmcsurf.builders import (
    RotationType,
    build_surface,
    check_samples,
    elliptic_frame,
    h2_closed,
)
from cmcsurf.errors import DegenerateFrameError, NonLorentzMetricError
from cmcsurf.generator import CmcParams, generate
from cmcsurf.geometry import Vec4, libm
from cmcsurf.profiles import ProfileFunction
from cmcsurf.surfaces import (
    FD_STEP,
    PatchJets,
    SurfacePatch,
    fd_oracle,
    frame_numeric,
    mean_curvature,
)
from cmcsurf.validation import (
    GridSpec,
    check_cmc,
    check_frames,
    closed_vs_oracle,
    frame_residual,
    shrunk_grid,
    validate_surface,
)

from analytic_curves import ALL_CURVES, counted, elliptic_circle
from test_surfaces import degenerate_patch


def _points(grid):
    return [(u, v) for u in grid.u_values() for v in grid.v_values()]


def _full(values, grid):
    return np.broadcast_to(values, (grid.nu, grid.nv)).ravel().tolist()


@pytest.mark.parametrize("name,curve", ALL_CURVES, ids=[n for n, _ in ALL_CURVES])
def test_grid_values_equal_the_scalar_calls(name, curve):
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 41, 41, patch.v_domain)
    points = _points(grid)
    for surface in (patch, fd_oracle(patch, FD_STEP), fd_oracle(patch, 0.5 * FD_STEP)):
        grid_h2 = _full(mean_curvature(surface, *grid.mesh()).h2, grid)
        assert grid_h2 == [mean_curvature(surface, u, v).h2 for u, v in points]
    frames = frame_numeric(patch, *grid.mesh())
    scalar = [frame_numeric(patch, u, v) for u, v in points]
    assert _full(frame_residual(frames), grid) == [frame_residual(f) for f in scalar]
    assert _full(frames.eps1, grid) == [f.eps1 for f in scalar]


U0_AT = 0.37


def generated(rotation, text, interval, C, h_sign):
    """A generated curve with every integration constant nonzero, the base
    point inside the interval at U0_AT of its width, and phi scaled."""
    lo, hi = interval
    params = CmcParams(C=C, h_sign=h_sign, u0=lo + U0_AT * (hi - lo), phi0=0.3,
                       c1=-0.7, c2=1.1)
    return generate(rotation, ProfileFunction.from_text(text, interval), params, None,
                    interval, phi_scale=0.9)


GENERATED_CURVES = [
    ("generated-elliptic", generated(RotationType.ELLIPTIC, "1+u/2", (0.0, 3.0), 0.5, 1)),
    ("generated-hyperbolicA", generated(RotationType.HYPERBOLIC_A, "2*u", (0.5, 2.5), 0.5, 1)),
    ("generated-hyperbolicB", generated(RotationType.HYPERBOLIC_B, "2", (0.0, 2.0), 0.3, -1)),
    ("generated-parabolic", generated(RotationType.PARABOLIC, "u", (0.5, 2.0), 0.5, 1)),
]
CURVES = ALL_CURVES + GENERATED_CURVES


@pytest.mark.parametrize("name,curve", CURVES, ids=[n for n, _ in CURVES])
def test_curve_checks_of_a_column_equal_the_float_calls(name, curve):
    # the squares in h2_closed and the arc-length expressions are libm's
    # pow, which misses x*x in the last bit for about one x in 1000
    lo, hi = curve.domain
    grid_us = shrunk_grid(curve, 41, 2, (0.0, 1.0)).mesh()[0]
    ends = np.array([[lo], [hi], [lo + U0_AT * (hi - lo)]])  # and u0 of a generated curve
    us = np.concatenate([check_samples(curve.domain), grid_us, ends])
    floats = us.ravel().tolist()
    for check in (curve.arclength_residual, curve.twist, partial(h2_closed, curve)):
        assert check(us).ravel().tolist() == [check(u) for u in floats]
    rows = [curve.jets(u) for u in floats]
    for c, jet in enumerate(curve.jets(us)):
        for k, values in enumerate(jet):
            assert values.ravel().tolist() == [row[c][k] for row in rows], (c, k)


def test_closed_form_frames_take_the_grid():
    curve = elliptic_circle(2.0)
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 9, 7, patch.v_domain)
    frames = elliptic_frame(curve, *grid.mesh())
    assert _full(frame_residual(frames), grid) == [
        frame_residual(elliptic_frame(curve, u, v)) for u, v in _points(grid)]


def boosted_patch() -> SurfacePatch:
    """A flat Lorentz plane boosted by 9u and 9v: its normal frame is so
    strongly boosted that at some points no seed pair passes TAU_ORTHO."""
    zero = Vec4(0.0, 0.0, 0.0, 0.0)

    def jets(u, v):
        a, b = 9.0 * u, 9.0 * v
        ca, sa, cb, sb = libm(a).cosh(a), libm(a).sinh(a), libm(b).cosh(b), libm(b).sinh(b)
        return PatchJets(zero, Vec4(ca, 0.0, sa, 0.0), Vec4(0.0, sb, 0.0, cb),
                         zero, zero, zero)

    return SurfacePatch(jets, (0.0, 1.0), (0.0, 1.0))


def test_singular_frames_are_flagged_in_loop_order():
    patch = boosted_patch()
    grid = GridSpec(11, 11)
    worst, flagged = 0.0, []
    for u, v in _points(grid):  # the per-point loop the grid replaces
        try:
            worst = max(worst, frame_residual(frame_numeric(patch, u, v)))
        except DegenerateFrameError:
            flagged.append((u, v, "singular-frame"))
    assert 0 < len(flagged) < grid.nu * grid.nv
    assert check_frames(lambda u, v: frame_numeric(patch, u, v), grid) == (
        worst, flagged)


def partly_degenerate_patch() -> SurfacePatch:
    """z_u = e1 + s e3 with s = u + v + 1/2 and z_v = e4: Lorentz while
    |s| < 1, so the first bad point in u-major order is not the first point,
    nor the first one in v-major order."""
    zero = Vec4(0.0, 0.0, 0.0, 0.0)

    def jets(u, v):
        return PatchJets(zero, Vec4(1.0, 0.0, u + v + 0.5, 0.0), Vec4(0.0, 0.0, 0.0, 1.0),
                         zero, zero, zero)

    return SurfacePatch(jets, (-1.0, 1.0), (-1.0, 1.0))


@pytest.mark.parametrize("make", [partly_degenerate_patch, degenerate_patch])
def test_errors_name_the_first_bad_point_of_the_loop(make):
    patch = make()
    grid = GridSpec(7, 5, (-0.5, 0.5), (-0.25, 0.25))
    with pytest.raises(NonLorentzMetricError) as expected:
        for u, v in _points(grid):
            mean_curvature(patch, u, v)
    for call in (mean_curvature, frame_numeric):
        with pytest.raises(NonLorentzMetricError) as got:
            call(patch, *grid.mesh())
        assert str(got.value) == str(expected.value)


def nan_patch(base: SurfacePatch, at: tuple[float, float]) -> SurfacePatch:
    """``base`` with z_uu NaN at the one point ``at`` and positions intact."""
    def jets(u, v):
        out = base.jets(u, v)
        hit = (u == at[0]) & (v == at[1])
        scale = np.where(hit, math.nan, 1.0) if isinstance(hit, np.ndarray) else (
            math.nan if hit else 1.0)
        return out._replace(z_uu=out.z_uu * scale)

    return SurfacePatch(jets, base.u_domain, base.v_domain, position=base.position)


def test_non_finite_h2_is_flagged_and_left_out_of_the_maxima():
    curve = elliptic_circle(2.0)
    patch = build_surface(curve)
    grid = shrunk_grid(curve, 9, 7, patch.v_domain)
    at = (grid.u_values()[3], grid.v_values()[4])
    broken = nan_patch(patch, at)
    clean, cmc = check_cmc(patch, 0.0, grid), check_cmc(broken, 0.0, grid)
    assert cmc.flagged == [(*at, "non-finite-h2")]
    assert math.isfinite(cmc.max_analytic) and cmc.max_analytic <= clean.max_analytic
    assert cmc.max_fd == clean.max_fd
    worst, flagged = closed_vs_oracle(curve, broken, grid)
    assert flagged == [(*at, "non-finite-h2")] and math.isfinite(worst)


def test_a_non_finite_curve_jet_fails_the_report_with_standard_json():
    curve = elliptic_circle(2.0)
    grid = shrunk_grid(curve, 9, 7, (0.0, 2.0 * math.pi))
    bad_u = grid.u_values()[2]
    x1, x2, r = curve.components

    def r_nan(u):
        jet = r(u)
        return jet._replace(d2=math.nan) if u == bad_u else jet

    broken = replace(curve, components=(x1, x2, r_nan))
    report = validate_surface(broken, 0.25, "nan", nu=9, nv=7)
    assert not report.passed()
    assert {(u, reason) for u, _, reason in report.flagged_points} == {
        (bad_u, "non-finite-h2")}
    assert len(report.flagged_points) == grid.nv  # once per point, not per check

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    json.loads(report.to_json(), parse_constant=reject)


def test_validation_makes_a_bounded_number_of_grid_calls(monkeypatch):
    curve = elliptic_circle(2.0)
    components, counters = counted(curve.components)
    kinds = set()

    def checked(fn):
        def call(u):
            kinds.add(type(u))
            return fn(u)
        return call

    curve = replace(curve, components=tuple(map(checked, components)))
    calls = {"mean_curvature": 0, "frame_numeric": 0, "patch.jets": 0}

    def count(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in ("mean_curvature", "frame_numeric"):
        monkeypatch.setattr(validation, name, count(name, getattr(validation, name)))

    def build(*args, **kwargs):
        patch = build_surface(*args, **kwargs)
        object.__setattr__(patch, "jets", count("patch.jets", patch.jets))
        return patch

    monkeypatch.setattr(validation, "build_surface", build)
    report = validate_surface(curve, h2_closed(curve, 1.0), "counted", nu=41, nv=41)
    assert report.passed()
    # one patch.jets grid serves the analytic curvature and the frames
    assert calls == {"mean_curvature": 3, "frame_numeric": 1, "patch.jets": 1}
    assert kinds == {float}
    assert all(max(counter.values()) == 1 for counter in counters)
