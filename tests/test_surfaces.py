import pytest

from cmcsurf.builders import (
    RotationType,
    build_surface,
    elliptic_frame,
    hyperbolic_frame,
)
from cmcsurf.errors import NonLorentzMetricError, StencilOutOfDomainError
from cmcsurf.geometry import Vec4, inner
from cmcsurf.surfaces import (
    PatchJets,
    SurfacePatch,
    fd_oracle,
    fd_patch,
    first_fundamental_form,
    frame_numeric,
    mean_curvature,
    normal_frame_numeric,
    second_fundamental_form,
    tangent_frame,
)

from analytic_curves import (
    ELLIPTIC_CURVES,
    HYPERBOLIC_CURVES,
    PARABOLIC_CURVES,
    elliptic_circle,
    elliptic_cosh,
)


def vec_err(a: Vec4, b: Vec4) -> float:
    return max(abs(x - y) for x, y in zip(a, b))


def flat_lorentz_patch() -> SurfacePatch:
    zero = Vec4(0, 0, 0, 0)

    def jets(u, v):
        return PatchJets(Vec4(u, 0.0, v, 0.0), Vec4(1, 0, 0, 0),
                         Vec4(0, 0, 1, 0), zero, zero, zero)

    return SurfacePatch(jets, (-1.0, 1.0), (-1.0, 1.0))


def degenerate_patch() -> SurfacePatch:
    one = Vec4(1, 1, 0, 0)
    zero = Vec4(0, 0, 0, 0)

    def jets(u, v):
        return PatchJets(Vec4(u + v, u + v, 0, 0), one, one, zero, zero, zero)

    return SurfacePatch(jets, (-1.0, 1.0), (-1.0, 1.0))


# --- first fundamental form ----------------------------------------------------

def test_fff_elliptic_circle_r2():
    patch = build_surface(elliptic_circle(2.0))
    form = first_fundamental_form(patch, 1.0, 2.0)
    assert form.E == pytest.approx(1.0, abs=1e-12)
    assert form.F == pytest.approx(0.0, abs=1e-12)
    assert form.G == pytest.approx(-4.0, abs=1e-12)


@pytest.mark.parametrize("name,curve", HYPERBOLIC_CURVES)
def test_fff_hyperbolic_f_zero(name, curve):
    patch = build_surface(curve)
    lo, hi = curve.domain
    for k in range(5):
        u = lo + (hi - lo) * (k + 0.5) / 5
        form = first_fundamental_form(patch, u, 0.8)
        assert abs(form.F) <= 1e-9
        r = curve.components[0](u).val
        assert form.G == pytest.approx(-r * r, rel=1e-12)


def test_fff_degenerate_raises():
    with pytest.raises(NonLorentzMetricError):
        first_fundamental_form(degenerate_patch(), 0.0, 0.0)


def test_parabolic_metric_and_causality():
    curve = PARABOLIC_CURVES[0][1]
    patch = build_surface(curve)
    f = curve.components[1]
    for u, v in [(0.7, -1.0), (1.1, 0.0), (1.6, 1.3)]:
        jets = patch.jets(u, v)
        # <z_v, z_v> = -2 f^2, independent of v
        assert inner(jets.z_v, jets.z_v) == pytest.approx(
            -2.0 * f(u).val ** 2, rel=1e-12)
        assert inner(jets.z_u, jets.z_u) == pytest.approx(1.0, abs=1e-12)
        assert inner(jets.z_u, jets.z_v) == pytest.approx(0.0, abs=1e-12)


# --- tangent frames -------------------------------------------------------------

def test_tangent_frame_elliptic_r2():
    curve = elliptic_circle(2.0)
    patch = build_surface(curve)
    X, Y = tangent_frame(patch, 0.7, 1.9)
    jets = patch.jets(0.7, 1.9)
    assert vec_err(X, jets.z_u) <= 1e-12          # X = z_u
    assert vec_err(Y, jets.z_v * 0.5) <= 1e-12    # Y = z_v / r with r = 2
    assert inner(X, Y) == pytest.approx(0.0, abs=1e-12)
    assert inner(Y, Y) == pytest.approx(-1.0, abs=1e-12)


# --- numeric normal frame --------------------------------------------------------

@pytest.mark.parametrize("name,curve", ELLIPTIC_CURVES[:4] + HYPERBOLIC_CURVES[:2]
                         + PARABOLIC_CURVES[:2])
def test_numeric_normals_orthogonal(name, curve):
    patch = build_surface(curve)
    lo, hi = curve.domain
    u = lo + 0.37 * (hi - lo)
    v = 0.9
    jets = patch.jets(u, v)
    n1, n2, eps1, eps2 = normal_frame_numeric(patch, u, v)
    assert {eps1, eps2} == {1, -1}
    for n in (n1, n2):
        assert abs(inner(n, jets.z_u)) <= 1e-10
        assert abs(inner(n, jets.z_v)) <= 1e-10
    assert abs(inner(n1, n2)) <= 1e-10
    assert inner(n1, n1) == pytest.approx(eps1, abs=1e-10)
    assert inner(n2, n2) == pytest.approx(eps2, abs=1e-10)


def normal_projector(n1, n2, eps1, eps2):
    """Matrix of w -> eps1 <w,n1> n1 + eps2 <w,n2> n2 in the e-basis."""
    signs = (1.0, 1.0, -1.0, -1.0)
    return [
        [eps1 * n1[row] * signs[col] * n1[col] + eps2 * n2[row] * signs[col] * n2[col]
         for col in range(4)]
        for row in range(4)
    ]


def test_numeric_normal_span_matches_closed_elliptic():
    curve = ELLIPTIC_CURVES[2][1]  # helix: nonzero r'
    patch = build_surface(curve)
    for u, v in [(0.5, 0.3), (2.0, 2.4), (3.3, 5.1)]:
        n1, n2, e1, e2 = normal_frame_numeric(patch, u, v)
        closed = elliptic_frame(curve, u, v)
        p_num = normal_projector(n1, n2, e1, e2)
        p_closed = normal_projector(closed.n1, closed.n2, closed.eps1, closed.eps2)
        worst = max(abs(a - b) for ra, rb in zip(p_num, p_closed)
                    for a, b in zip(ra, rb))
        assert worst <= 1e-10


def test_numeric_normal_span_matches_closed_hyperbolic():
    for name, curve in HYPERBOLIC_CURVES[:3] + HYPERBOLIC_CURVES[3:5]:
        patch = build_surface(curve)
        lo, hi = curve.domain
        u = lo + 0.45 * (hi - lo)
        n1, n2, e1, e2 = normal_frame_numeric(patch, u, -0.6)
        closed = hyperbolic_frame(curve, u, -0.6)
        p_num = normal_projector(n1, n2, e1, e2)
        p_closed = normal_projector(closed.n1, closed.n2, closed.eps1, closed.eps2)
        worst = max(abs(a - b) for ra, rb in zip(p_num, p_closed)
                    for a, b in zip(ra, rb))
        assert worst <= 1e-10, name


# --- second fundamental form -----------------------------------------------------

@pytest.mark.parametrize("name,curve",
                         ELLIPTIC_CURVES + HYPERBOLIC_CURVES + PARABOLIC_CURVES)
def test_sigma_mixed_term_vanishes_and_tangency(name, curve):
    patch = build_surface(curve)
    lo, hi = curve.domain
    for k in range(4):
        u = lo + (hi - lo) * (k + 0.5) / 4
        v = -1.0 + 0.8 * k
        if curve.rotation is RotationType.ELLIPTIC:
            v = 0.3 + 1.4 * k
        frame = frame_numeric(patch, u, v)
        sxx, sxy, syy = second_fundamental_form(patch, u, v)
        assert max(abs(c) for c in sxy) <= 1e-9  # sigma(X,Y) = 0
        for sigma in (sxx, syy):
            assert abs(inner(sigma, frame.X)) <= 1e-9
            assert abs(inner(sigma, frame.Y)) <= 1e-9


def test_sigma_circle_r1_value():
    # with r = 1 and r' = 0: sigma(Y,Y) = -sqrt(1+(r')^2)/r * n2 = -n2
    curve = elliptic_circle(1.0)
    patch = build_surface(curve)
    frame = elliptic_frame(curve, 0.8, 1.1)
    sxx, sxy, syy = second_fundamental_form(patch, 0.8, 1.1)
    assert vec_err(syy, -frame.n2) <= 1e-12


def test_sigma_against_fd_oracle():
    curve = elliptic_cosh()
    patch = build_surface(curve)
    oracle = fd_oracle(patch, h=1e-4)
    for u, v in [(0.0, 1.0), (0.8, 2.5), (-0.5, 4.0)]:
        exact = second_fundamental_form(patch, u, v)
        approx = second_fundamental_form(oracle, u, v)
        for a, b in zip(exact, approx):
            assert vec_err(a, b) <= 1e-6


# --- mean curvature ---------------------------------------------------------------

def test_mean_curvature_circle_values():
    patch1 = build_surface(elliptic_circle(1.0))
    assert mean_curvature(patch1, 1.0, 2.0).h2 == pytest.approx(0.0, abs=1e-8)
    patch2 = build_surface(elliptic_circle(2.0))
    assert mean_curvature(patch2, 1.0, 2.0).h2 == pytest.approx(3.0 / 16.0, abs=1e-12)


def test_mean_curvature_frame_independence():
    # H rebuilt from sff components in two different normal frames agrees
    curve = elliptic_cosh()
    patch = build_surface(curve)
    for u, v in [(0.2, 1.0), (1.0, 3.0)]:
        mc = mean_curvature(patch, u, v)
        for frame in (frame_numeric(patch, u, v), elliptic_frame(curve, u, v)):
            sxx, _, syy = second_fundamental_form(patch, u, v)
            half = (sxx - syy) * 0.5
            c1 = frame.eps1 * inner(half, frame.n1)
            c2 = frame.eps2 * inner(half, frame.n2)
            rebuilt = frame.n1 * c1 + frame.n2 * c2
            assert vec_err(rebuilt, mc.H) <= 1e-8
            assert inner(rebuilt, rebuilt) == pytest.approx(mc.h2, abs=1e-8)


@pytest.mark.parametrize("name,curve",
                         ELLIPTIC_CURVES[:3] + HYPERBOLIC_CURVES[:2] + PARABOLIC_CURVES[:2])
def test_mean_curvature_analytic_vs_fd(name, curve):
    patch = build_surface(curve)
    oracle = fd_oracle(patch, h=1e-4)
    lo, hi = curve.domain
    for k in range(3):
        u = lo + (hi - lo) * (k + 1) / 4
        v = 0.5 + 0.4 * k
        exact = mean_curvature(patch, u, v).h2
        approx = mean_curvature(oracle, u, v).h2
        assert abs(exact - approx) <= 1e-5


# --- finite differences ------------------------------------------------------------

def test_fd_patch_linear_map_exact():
    def pos(u, v):
        return Vec4(u, v, 0.0, 0.0)

    # dyadic u, v, h make the stencil arithmetic exact in binary floats
    patch = fd_patch(pos, 0.0078125, (-1.0, 1.0), (-1.0, 1.0))
    jets = patch.jets(0.25, 0.5)
    assert jets.z_u == Vec4(1, 0, 0, 0)
    assert jets.z_v == Vec4(0, 1, 0, 0)
    assert jets.z_uu == Vec4(0, 0, 0, 0)
    # generic points still reproduce the constant derivative to roundoff
    generic = fd_patch(pos, 1e-4, (-1.0, 1.0), (-1.0, 1.0)).jets(0.1, 0.2)
    assert vec_err(generic.z_u, Vec4(1, 0, 0, 0)) <= 1e-11


def test_fd_patch_matches_analytic_partials():
    patch = build_surface(elliptic_cosh())
    oracle = fd_oracle(patch, h=1e-4)
    for u, v in [(0.3, 1.0), (1.2, 4.0)]:
        exact = patch.jets(u, v)
        approx = oracle.jets(u, v)
        for field in ("z_u", "z_v", "z_uu", "z_uv", "z_vv"):
            assert vec_err(getattr(exact, field), getattr(approx, field)) <= 1e-6


def test_fd_patch_second_order_convergence():
    patch = build_surface(elliptic_cosh())
    u, v = 0.6, 2.0
    exact = patch.jets(u, v)

    def err(h):
        jets = fd_oracle(patch, h=h).jets(u, v)
        return max(vec_err(getattr(exact, f), getattr(jets, f))
                   for f in ("z_u", "z_v", "z_uu", "z_uv", "z_vv"))

    e1, e2 = err(2e-3), err(1e-3)
    assert 3.0 <= e1 / e2 <= 5.0  # O(h^2): halving h shrinks error ~4x


def test_fd_patch_stencil_guard():
    def pos(u, v):
        return Vec4(u, v, 0.0, 0.0)

    patch = fd_patch(pos, 1e-2, (0.0, 1.0), (0.0, 1.0))
    with pytest.raises(StencilOutOfDomainError):
        patch.jets(0.005, 0.5)
    with pytest.raises(StencilOutOfDomainError):
        patch.jets(0.5, 0.999)


def test_fd_patch_validates_step():
    with pytest.raises(ValueError):
        fd_patch(lambda u, v: Vec4(u, v, 0, 0), 0.0, (0, 1), (0, 1))


def test_normal_frame_retries_seed_pairs(monkeypatch):
    import cmcsurf.surfaces as surfaces_mod
    from cmcsurf.errors import DegenerateFrameError

    patch = build_surface(elliptic_circle(2.0))
    real = surfaces_mod.orthonormalize_indefinite
    calls = {"n": 0}

    def flaky(basis):
        calls["n"] += 1
        if calls["n"] == 1:
            raise DegenerateFrameError("synthetic first-pair failure")
        return real(basis)

    monkeypatch.setattr(surfaces_mod, "orthonormalize_indefinite", flaky)
    n1, n2, eps1, eps2 = normal_frame_numeric(patch, 0.5, 0.5)
    assert calls["n"] >= 2  # a later seed pair succeeded
    assert {eps1, eps2} == {1, -1}
    jets = patch.jets(0.5, 0.5)
    assert abs(inner(n1, jets.z_u)) <= 1e-10
    assert abs(inner(n2, jets.z_v)) <= 1e-10

    def always_bad(basis):
        raise DegenerateFrameError("synthetic failure")

    monkeypatch.setattr(surfaces_mod, "orthonormalize_indefinite", always_bad)
    with pytest.raises(DegenerateFrameError, match="singular"):
        normal_frame_numeric(patch, 0.5, 0.5)
