import math
import random
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmcsurf import generator
from cmcsurf.builders import (
    SPECS,
    RotationType,
    build_surface,
    hyperplane_degeneracy,
    phi_integrand,
)
from cmcsurf.errors import (
    CaseMismatchError,
    EvalDomainError,
    NegativeRadicandError,
    NonpositiveProfileError,
)
from cmcsurf.generator import (
    CmcParams,
    domain_validity,
    generate,
    validity_state,
)
from cmcsurf.geometry import collect_faults, uniform
from cmcsurf.profiles import ProfileFunction, parse
from cmcsurf.quadrature import CumulativeIntegral, QuadratureConfig
from cmcsurf.surfaces import fd_oracle, mean_curvature
from cmcsurf.validation import shrunk_grid, validate_surface

from dsl_random import random_expression

CONFIG = QuadratureConfig()


def profile(text, domain, consts=None):
    return ProfileFunction.from_text(text, domain, consts)


def small_grid(curve, v_window=(-1.5, 1.5)):
    return shrunk_grid(curve, 11, 7, v_window)


def round_trip_residuals(rotation, prof, params, interval):
    curve = generate(rotation, prof, params, CONFIG, interval)
    patch = build_surface(curve)
    grid = small_grid(curve, patch.v_domain)
    worst_analytic = 0.0
    worst_fd = 0.0
    oracle = fd_oracle(patch)
    for u in grid.u_values():
        for v in grid.v_values():
            worst_analytic = max(worst_analytic, abs(
                mean_curvature(patch, u, v).h2 - params.target_h2))
            worst_fd = max(worst_fd, abs(
                mean_curvature(oracle, u, v).h2 - params.target_h2))
    return curve, worst_analytic, worst_fd


# --- integrands -------------------------------------------------------------------

def test_phi_integrand_elliptic_constant_profile():
    prof = profile("2", (0.0, 6.28))
    params = CmcParams(C=0.25, h_sign=1)
    for u in (0.5, 3.0, 6.0):
        assert phi_integrand(1.0, 0, prof(u), params, u) == pytest.approx(
            math.sqrt(2.0) / 2.0)
    flipped = CmcParams(C=0.25, h_sign=1, eta=-1)
    assert phi_integrand(1.0, 0, prof(1.0), flipped, 1.0) == pytest.approx(
        -math.sqrt(2.0) / 2.0)


def test_phi_integrand_negative_radicand():
    prof = profile("1", (0.0, 2.0))
    params = CmcParams(C=1.0, h_sign=-1)  # 1 - 4C^2 = -3 < 0
    with pytest.raises(NegativeRadicandError):
        phi_integrand(1.0, 0, prof(1.0), params, 1.0)


def test_phi_integrand_nonpositive_profile():
    prof = ProfileFunction.from_text("u", (0.1, 1.0))
    with pytest.raises(NonpositiveProfileError):
        phi_integrand(1.0, 0, prof(-0.5), CmcParams(C=0.5), -0.5)


def test_phi_integrand_zero_radicand_is_fine():
    # r = 1, C = 1/2, h_sign = -1: radicand exactly 0 -> phi' = 0
    prof = profile("1", (0.0, 2.0))
    params = CmcParams(C=0.5, h_sign=-1)
    assert phi_integrand(1.0, 0, prof(0.7), params, 0.7) == 0.0


# --- elliptic ----------------------------------------------------------------------

def test_elliptic_round_trip_constant_profile():
    params = CmcParams(C=0.25, h_sign=1)
    curve, worst, worst_fd = round_trip_residuals(
        RotationType.ELLIPTIC, profile("2", (0.0, 6.28)), params, (0.0, 6.28))
    assert worst <= 1e-6
    assert worst_fd <= 1e-4
    assert params.target_h2 == pytest.approx(1.0 / 16.0)


def test_elliptic_round_trip_timelike_H():
    params = CmcParams(C=0.1, h_sign=-1)
    curve, worst, worst_fd = round_trip_residuals(
        RotationType.ELLIPTIC, profile("2", (0.0, 4.0)), params, (0.0, 4.0))
    assert worst <= 1e-6
    assert worst_fd <= 1e-4


def test_elliptic_arc_length_and_twist_identities():
    params = CmcParams(C=0.4, h_sign=1)
    prof = profile("1+u/2", (0.0, 3.0))
    curve = generate(RotationType.ELLIPTIC, prof, params, CONFIG, (0.0, 3.0))
    for k in range(9):
        u = 0.1 + 0.35 * k
        assert curve.arclength_residual(u) <= 1e-9
        r = prof.jet(u)
        w2 = 1.0 + r.d1**2
        expected_twist = w2 * phi_integrand(1.0, 0, prof(u), params, u)
        assert curve.twist(u) == pytest.approx(expected_twist, abs=1e-9)


def test_generated_curve_not_degenerate():
    curve = generate(RotationType.ELLIPTIC, profile("2", (0.0, 6.0)), CmcParams(C=0.25),
                     CONFIG, (0.0, 6.0))
    assert not hyperplane_degeneracy(curve).degenerate


# --- hyperbolic --------------------------------------------------------------------

def test_hyperbolic_case_a_round_trip():
    params = CmcParams(C=0.5, h_sign=1)
    curve, worst, worst_fd = round_trip_residuals(
        RotationType.HYPERBOLIC_A, profile("2*u", (0.5, 2.5)), params, (0.5, 2.5))
    assert worst <= 1e-6
    assert worst_fd <= 1e-4
    assert max(curve.arclength_residual(0.6 + 0.2 * k) for k in range(9)) <= 1e-9


def test_hyperbolic_case_b_round_trip():
    params = CmcParams(C=0.3, h_sign=-1)
    curve, worst, worst_fd = round_trip_residuals(
        RotationType.HYPERBOLIC_B, profile("2", (0.0, 2.0)), params, (0.0, 2.0))
    assert worst <= 1e-6
    assert worst_fd <= 1e-4


def test_hyperbolic_case_mismatch():
    with pytest.raises(CaseMismatchError):
        generate(RotationType.HYPERBOLIC_A, profile("u/2", (0.5, 2.0)), CmcParams(C=0.5),
                 CONFIG, (0.5, 2.0))


def test_generate_checks_the_case_at_every_node():
    # (r')^2 dips below 1 in a band about 0.01 wide around u = 0.038424, between
    # two of any 65 evenly spaced points of (0, 6.4); the turning equation sees it
    text = "2*u-1.6*0.01*sinh((u-0.038424)/0.01)/cosh((u-0.038424)/0.01)"
    with pytest.raises(CaseMismatchError, match=r"at u=0\.0384.* contradicts hyperbolicA"):
        generate(RotationType.HYPERBOLIC_A, ProfileFunction(parse(text)),
                 CmcParams(C=0.5), CONFIG, (0.0, 6.4))


def test_generate_refuses_a_curve_it_cannot_evaluate_at_its_ends():
    # (sqrt u)' has no value at u = 0, which no quadrature node reaches
    with pytest.raises(EvalDomainError, match=r"at u=0\.0$"):
        generate(RotationType.HYPERBOLIC_A, profile("2*u+sqrt(u)", (0.0, 2.0)),
                 CmcParams(C=0.5), CONFIG, (0.0, 2.0))


def test_generated_curve_is_validated_a_column_at_a_time(monkeypatch):
    kinds, calls = [], []
    jet = ProfileFunction.jet

    def watched(self, u):
        kinds.append(type(u))
        return jet(self, u)

    monkeypatch.setattr(ProfileFunction, "jet", watched)
    curve = generate(RotationType.ELLIPTIC, profile("1+u/2", (0.0, 3.0)), CmcParams(C=0.5),
                     CONFIG, (0.0, 3.0))
    kinds.clear()
    object.__setattr__(curve, "components", tuple(
        lambda u, c=c: calls.append(u) or c(u) for c in curve.components))
    validate_surface(curve, 0.25, nu=9, nv=7)
    assert kinds == [np.ndarray] * 4  # one profile jet per distinct column
    assert calls == []


# --- parabolic ---------------------------------------------------------------------

def test_parabolic_round_trip():
    params = CmcParams(C=0.5, h_sign=1)  # phi0 (= A) defaults to 0
    curve, worst, worst_fd = round_trip_residuals(
        RotationType.PARABOLIC, profile("u", (0.5, 2.0)), params, (0.5, 2.0))
    assert worst <= 1e-6
    assert worst_fd <= 1e-4


def test_parabolic_arc_identity_exact():
    curve = generate(RotationType.PARABOLIC, profile("u", (0.5, 2.0)), CmcParams(C=0.5),
                     CONFIG, (0.5, 2.0))
    assert max(curve.arclength_residual(0.55 + 0.15 * k) for k in range(9)) <= 1e-12


def test_parabolic_nonzero_A():
    params = CmcParams(C=0.5, h_sign=1, phi0=0.7)
    curve, worst, _ = round_trip_residuals(
        RotationType.PARABOLIC, profile("u", (0.5, 1.8)), params, (0.5, 1.8))
    assert worst <= 1e-6


# --- special profiles ----------------------------------------------------------------

def test_special_profile_identities():
    # elliptic special: r r'' + (r')^2 + 1 == 0
    prof = profile("sqrt(-u^2+2*a*u+b)", (0.3, 1.7), {"a": 1.0, "b": 0.0})
    for k in range(9):
        r = prof.jet(0.4 + 0.15 * k)
        assert abs(r.val * r.d2 + r.d1**2 + 1.0) <= 1e-10
    # hyperbolic special: r r'' + (r')^2 - 1 == 0
    prof = profile("sqrt(u^2+2*a*u+b)", (0.5, 2.0), {"a": 2.0, "b": 1.0})
    for k in range(9):
        r = prof.jet(0.6 + 0.15 * k)
        assert abs(r.val * r.d2 + r.d1**2 - 1.0) <= 1e-10
    # parabolic special: f f'' + (f')^2 == 0
    prof = profile("sqrt(2*a*u+b)", (0.5, 2.0), {"a": 1.0, "b": 0.0})
    for k in range(9):
        f = prof.jet(0.6 + 0.15 * k)
        assert abs(f.val * f.d2 + f.d1**2) <= 1e-10


def test_special_profile_round_trips():
    params = CmcParams(C=0.5, h_sign=1)
    _, worst, _ = round_trip_residuals(
        RotationType.ELLIPTIC,
        profile("sqrt(-u^2+2*a*u+b)", (0.4, 1.6), {"a": 1.0, "b": 0.0}),
        params, (0.4, 1.6))
    assert worst <= 1e-6
    _, worst, _ = round_trip_residuals(
        RotationType.HYPERBOLIC_A,
        profile("sqrt(u^2+2*a*u+b)", (0.5, 2.0), {"a": 2.0, "b": 1.0}),
        params, (0.5, 2.0))
    assert worst <= 1e-6
    _, worst, _ = round_trip_residuals(
        RotationType.PARABOLIC,
        profile("sqrt(2*a*u+b)", (0.5, 2.0), {"a": 1.0, "b": 0.0}),
        params, (0.5, 2.0))
    assert worst <= 1e-6


# --- parameter symmetries --------------------------------------------------------------

def test_eta_flip_reflects_curve_and_preserves_h2():
    prof = profile("2", (0.0, 4.0))
    plus = generate(RotationType.ELLIPTIC, prof, CmcParams(C=0.25, eta=1), CONFIG, (0.0, 4.0))
    minus = generate(RotationType.ELLIPTIC, prof, CmcParams(C=0.25, eta=-1), CONFIG, (0.0, 4.0))
    for k in range(7):
        u = 0.2 + 0.55 * k
        xp, yp, _ = plus.jets(u)
        xm, ym, _ = minus.jets(u)
        assert xm.val == pytest.approx(xp.val, abs=1e-12)   # x1 even in eta
        assert ym.val == pytest.approx(-yp.val, abs=1e-12)  # x2 reflected
    patch_p = build_surface(plus)
    patch_m = build_surface(minus)
    for k in range(5):
        u, v = 0.3 + 0.8 * k, 0.7 + k
        assert mean_curvature(patch_m, u, v).h2 == pytest.approx(
            mean_curvature(patch_p, u, v).h2, abs=1e-8)


def test_integration_constants_only_move_the_curve():
    prof = profile("1+u/4", (0.0, 3.0))
    base = CmcParams(C=0.3, h_sign=1)
    shifted = CmcParams(C=0.3, h_sign=1, u0=1.5, phi0=0.4, c1=5.0, c2=-2.0)
    curve_a = generate(RotationType.ELLIPTIC, prof, base, CONFIG, (0.0, 3.0))
    curve_b = generate(RotationType.ELLIPTIC, prof, shifted, CONFIG, (0.0, 3.0))
    patch_a = build_surface(curve_a)
    patch_b = build_surface(curve_b)
    for k in range(6):
        u, v = 0.25 + 0.5 * k, 0.5 + 0.9 * k
        assert mean_curvature(patch_b, u, v).h2 == pytest.approx(
            mean_curvature(patch_a, u, v).h2, abs=1e-8)
    # c1/c2 really translate the coordinates
    assert curve_b.jets(1.5)[0].val == pytest.approx(5.0, abs=1e-12)
    assert curve_b.jets(1.5)[1].val == pytest.approx(-2.0, abs=1e-12)


def test_quadrature_tolerance_convergence():
    prof = profile("1+u/2", (0.0, 3.0))
    params = CmcParams(C=0.4, h_sign=1)
    rel = 1e-8
    loose = generate(RotationType.ELLIPTIC, prof, params, QuadratureConfig(rel_tol=rel),
                     (0.0, 3.0))
    tight = generate(RotationType.ELLIPTIC, prof, params, QuadratureConfig(rel_tol=rel / 2),
                     (0.0, 3.0))
    worst = 0.0
    for k in range(11):
        u = 0.1 + 0.28 * k
        worst = max(worst,
                    abs(loose.jets(u)[0].val - tight.jets(u)[0].val),
                    abs(loose.jets(u)[1].val - tight.jets(u)[1].val))
    assert worst <= 10.0 * rel


# --- domain validity ----------------------------------------------------------------

def test_fresh_u_evaluates_the_profile_at_most_once():
    # after the build, a curve query runs no quadrature: each fresh u costs
    # at most one profile jet, shared by all three components
    calls = Counter()

    class Counted(ProfileFunction):
        def jet(self, u):
            if not isinstance(u, np.ndarray):  # the build's columns are not queries
                calls[u] += 1
            return super().jet(u)

    prof = Counted(parse("1+u/2"))
    curve = generate(RotationType.ELLIPTIC, prof, CmcParams(C=0.1), CONFIG, (0.0, 3.0))
    calls.clear()
    us = [0.01 + 2.98 * k / 499 for k in range(500)]
    for u in us:
        curve.jets(u)
    assert max(calls.values(), default=0) <= 1
    assert set(calls) <= set(us)


@pytest.mark.parametrize("rotation,text,interval,C", [
    (RotationType.ELLIPTIC, "1+u/2", (0.0, 3.0), 0.5),
    (RotationType.HYPERBOLIC_A, "2*u", (0.5, 2.5), 0.5),
    (RotationType.HYPERBOLIC_B, "2", (0.0, 2.0), 0.1),
    (RotationType.PARABOLIC, "u", (0.5, 2.0), 0.5),
])
def test_fresh_u_makes_one_turning_and_one_slope_call(rotation, text, interval, C,
                                                      monkeypatch):
    calls = Counter()

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            return fn(*args)
        return call

    spec = SPECS[rotation]
    monkeypatch.setitem(SPECS, rotation, replace(
        spec, turning=counted("turning", spec.turning),
        slope_jets=counted("slope_jets", spec.slope_jets)))
    curve = generate(rotation, profile(text, interval), CmcParams(C=C), CONFIG, interval)
    lo, hi = interval
    for k, u in enumerate(uniform(lo + 0.1, hi - 0.1, 5)):
        calls.clear()
        order = [k % 3, (k + 1) % 3, (k + 2) % 3]  # any component may come first
        jets = {c: curve.components[c](u) for c in order}
        assert curve.jets(u) == (jets[0], jets[1], jets[2])
        assert calls == {"turning": 1, "slope_jets": 1}, (u, calls)


@pytest.mark.parametrize("rotation,text,interval,C,nodes", [
    (RotationType.ELLIPTIC, "1+u/2", (0.0, 3.0), 0.3, 135),
    (RotationType.HYPERBOLIC_A, "2*u", (0.5, 2.5), 0.5, None),
    (RotationType.HYPERBOLIC_B, "2", (0.0, 2.0), 0.1, None),
    (RotationType.PARABOLIC, "u", (0.5, 2.0), 0.5, None),
])
def test_generate_builds_t_then_both_coordinates_at_one_slope_call_per_level(
        rotation, text, interval, C, nodes, monkeypatch):
    levels, node_counts, slope_calls = [], [], Counter()

    class Counted(CumulativeIntegral):
        def __init__(self, f, a, b, config=None):
            levels.append(0)
            node_counts.append(0)
            build = len(levels) - 1

            def counted(u):
                assert isinstance(u, np.ndarray)  # a column per level, no float call
                levels[build] += 1
                node_counts[build] += u.size
                return f(u)
            super().__init__(counted, a, b, config)

    def slope_jets(*args):
        slope_calls[type(args[1])] += 1
        return spec.slope_jets(*args)

    spec = SPECS[rotation]
    monkeypatch.setitem(SPECS, rotation, replace(spec, slope_jets=slope_jets))
    monkeypatch.setattr(generator, "CumulativeIntegral", Counted)
    generate(rotation, profile(text, interval), CmcParams(C=C), CONFIG, interval)
    assert len(levels) == 2  # t, then the stacked coordinates
    # one call per coordinate level, and one per end query of generate
    assert slope_calls == {np.ndarray: levels[1], float: 2}
    assert nodes is None or node_counts[1] == nodes


def test_validity_full_interval():
    prof = profile("2", (0.0, 6.28))
    out = domain_validity(prof, CmcParams(C=1.0, h_sign=1), (0.0, 6.28),
                          RotationType.ELLIPTIC)
    assert out == [(0.0, 6.28)]


def test_validity_empty_for_infeasible_sign():
    prof = profile("1", (0.0, 2.0))
    out = domain_validity(prof, CmcParams(C=1.0, h_sign=-1), (0.0, 2.0),
                          RotationType.ELLIPTIC)
    assert out == []


def test_validity_boundary_located_by_bisection():
    prof = ProfileFunction.from_text("u", (0.1, 1.0))
    out = domain_validity(prof, CmcParams(C=0.5, h_sign=1), (-1.0, 1.0),
                          RotationType.ELLIPTIC)
    assert len(out) == 1
    lo, hi = out[0]
    assert abs(lo) <= 1e-9   # r > 0 fails for u <= 0
    assert hi == 1.0


def test_validity_partial_radicand():
    # r = 1 + u/2, h_sign = -1, C = 0.5: radicand 25/16 - 5 C^2 r^2
    # crosses zero at r^2 = 5/4, i.e. u = 2 sqrt(5)/2 - 2 = sqrt(5) - 2
    prof = profile("1+u/2", (0.0, 2.0))
    out = domain_validity(prof, CmcParams(C=0.5, h_sign=-1), (0.0, 2.0),
                          RotationType.ELLIPTIC)
    assert len(out) == 1
    lo, hi = out[0]
    assert lo == 0.0
    assert hi == pytest.approx(math.sqrt(5.0) - 2.0, abs=1e-8)


def test_validity_hyperbolic_case_band():
    prof = profile("u^2/2", (0.1, 3.0))  # r' = u crosses 1 at u = 1
    out_a = domain_validity(prof, CmcParams(C=0.5, h_sign=1), (0.1, 3.0),
                            RotationType.HYPERBOLIC_A)
    assert len(out_a) == 1
    assert out_a[0][0] == pytest.approx(1.0, abs=1e-5)
    out_b = domain_validity(prof, CmcParams(C=0.5, h_sign=-1), (0.1, 3.0),
                            RotationType.HYPERBOLIC_B)
    assert len(out_b) == 1
    assert out_b[0][1] == pytest.approx(1.0, abs=1e-5)


def test_validity_parabolic_fprime_zero():
    # f = (u-1)^2 + 0.5 has f' = 0 at u = 1
    prof = profile("(u-1)^2+0.5", (0.0, 2.0))
    out = domain_validity(prof, CmcParams(C=0.5, h_sign=1), (0.0, 2.0),
                          RotationType.PARABOLIC)
    assert len(out) == 2
    assert out[0][1] == pytest.approx(1.0, abs=1e-8)
    assert out[1][0] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("text, interval, h_sign, eta, zero", [
    # f = 0 between two scan points: the metric G = -2 f^2 degenerates there
    ("sinh(-0.709*u+-0.130)", (-0.4719491037756429, 0.07469876395076991), 1, -1,
     0.130 / -0.709),
    # f' = 0 between two scan points: a pole of psi'
    ("cos(0.823*u+-0.264)", (-0.4348935868064354, 1.9277890762750751), -1, 1,
     0.264 / 0.823),
], ids=["f", "f-prime"])
def test_validity_parabolic_sign_change_between_scan_points(text, interval, h_sign, eta,
                                                            zero):
    out = domain_validity(profile(text, interval), CmcParams(C=1.0, h_sign=h_sign, eta=eta),
                          interval, RotationType.PARABOLIC)
    assert not any(lo < zero < hi for lo, hi in out)
    assert any(hi == pytest.approx(zero, abs=1e-9) for _, hi in out)
    assert any(lo == pytest.approx(zero, abs=1e-9) for lo, _ in out)


def test_validity_parabolic_constant_profile_empty():
    prof = profile("2", (0.0, 2.0))
    assert domain_validity(prof, CmcParams(C=0.5), (0.0, 2.0),
                           RotationType.PARABOLIC) == []


def test_params_validation():
    with pytest.raises(ValueError):
        CmcParams(C=0.0)
    with pytest.raises(ValueError):
        CmcParams(C=1.0, h_sign=0)
    with pytest.raises(ValueError):
        generate(RotationType.ELLIPTIC, profile("2", (0.0, 1.0)), CmcParams(C=0.5, u0=5.0),
                 CONFIG, (0.0, 1.0))


# --- the column scan --------------------------------------------------------------

def counted_profile(text):
    """A ProfileFunction that logs the u of every jet call."""
    calls = []

    class Counted(ProfileFunction):
        def jet(self, u):
            calls.append(u)
            return super().jet(u)

    return Counted(parse(text)), calls


def test_validity_scan_is_one_column_call():
    prof, calls = counted_profile("2")
    assert domain_validity(prof, CmcParams(C=1.0, h_sign=1), (0.0, 6.28),
                           RotationType.ELLIPTIC) == [(0.0, 6.28)]
    assert len(calls) == 1
    assert isinstance(calls[0], np.ndarray) and calls[0].shape == (1025,)


def test_validity_bisection_is_the_only_float_work():
    # the profile of test_validity_partial_radicand: one boundary near sqrt(5) - 2
    prof, calls = counted_profile("1+u/2")
    (_, hi), = domain_validity(prof, CmcParams(C=0.5, h_sign=-1), (0.0, 2.0),
                               RotationType.ELLIPTIC)
    column, floats = calls[0], calls[1:]
    assert isinstance(column, np.ndarray) and column.shape == (1025,)
    assert all(isinstance(u, float) for u in floats)
    # bisection from one scan step (2/1024) down to 1e-10, inside that step
    assert len(floats) == math.ceil(math.log2((2.0 / 1024) / 1e-10))
    assert all(abs(u - hi) < 2.0 / 1024 for u in floats)


#: Profile variants that leave the domain of the grammar's functions: ln
#: across 0, non-integer powers of negative bases, reciprocals of values near
#: 0, and cosh(400 u), which overflows past |u| = 1.78.
VARIANTS = ["{}", "ln(u)+({})", "({})^0.5", "1/({})", "({})*cosh(400*u)", "sqrt(u)*({})"]


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(1, 3),
       variant=st.sampled_from(VARIANTS), rotation=st.sampled_from(list(RotationType)),
       C=st.sampled_from([0.05, 0.5, 1.0, 3.0]), h_sign=st.sampled_from([1, -1]),
       eta=st.sampled_from([1, -1]), lo=st.floats(-1.0, 1.5), width=st.floats(0.5, 2.5))
def test_column_scan_matches_the_float_calls(seed, depth, variant, rotation, C, h_sign,
                                             eta, lo, width):
    text = variant.format(random_expression(random.Random(seed), depth))
    prof = ProfileFunction(parse(text))
    params = CmcParams(C=C, h_sign=h_sign, eta=eta)
    us = uniform(lo, lo + width, 1025)
    column = np.array(us)

    states = validity_state(prof, params, rotation, column)
    assert states.tolist() == [validity_state(prof, params, rotation, u) for u in us], text

    jets, errors = {}, {}
    for k, u in enumerate(us):
        try:
            jets[k] = prof.jet(u)
        except EvalDomainError as exc:
            errors[k] = exc
    with collect_faults():
        jet = prof.jet(column)
    for field in range(3):
        assert _bits([jet[field][k] for k in jets]) == _bits(
            [j[field] for j in jets.values()]), text
    if errors:
        first = errors[min(errors)]
        with pytest.raises(EvalDomainError) as err:
            prof.jet(column)
        assert (str(err.value), err.value.u) == (str(first), first.u)
    else:
        assert _bits(prof.jet(column).val) == _bits(jet.val)
