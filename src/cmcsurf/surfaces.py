"""Lorentz surface patches: fundamental forms, frames, mean curvature,
and an independent finite-difference oracle.

A patch is a map (u, v) -> position together with all partials up to
second order.  The mean curvature vector is the signed half-trace of the
second fundamental form with respect to an orthonormal (+,-) tangent
frame, H = (sigma(X,X) - sigma(Y,Y)) / 2; the sign-carrying trace is the
one consistent with the closed-form curvature of the rotational builders,
which the test suite asserts.

Grids.  ``SurfacePatch.jets`` and ``position``, the finite-difference
stencil of ``fd_patch``, ``tangent_frame``, ``mean_curvature``,
``second_fundamental_form``, ``normal_frame_numeric`` and ``frame_numeric``
take either a float (u, v) or a broadcast grid: u an ndarray column of
shape (nu, 1), v an ndarray row of shape (1, nv).  On a grid every Vec4
component and every scalar they return is an ndarray that broadcasts to
(nu, nv), and each entry equals the float call at its point bit for bit
(see ``geometry``).  Errors keep their class and name the first offending
(u, v) in u-major order, the order of a loop over u and then v.  A grid
frame does not raise at singular points: there both of its normal signs
(eps1, eps2) are 0, where the float call raises DegenerateFrameError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    DegenerateFrameError,
    NonLorentzMetricError,
    StencilOutOfDomainError,
)
from .geometry import (
    BASIS,
    Vec4,
    inner,
    libm,
    negate,
    orthonormalize_indefinite,
    raise_at,
    require_finite,
)

#: Default step for the finite-difference oracle.
FD_STEP = 1e-4


class PatchJets(NamedTuple):
    """Position and partials of a patch at one (u, v)."""

    position: Vec4
    z_u: Vec4
    z_v: Vec4
    z_uu: Vec4
    z_uv: Vec4
    z_vv: Vec4


@dataclass(frozen=True)
class SurfacePatch:
    """An immutable surface patch over a parameter rectangle.

    ``position`` defaults to the position slot of ``jets``; a patch that
    can place a point without its partials passes that cheaper map, which
    the finite-difference oracle samples.
    """

    jets: Callable[[float, float], PatchJets]
    u_domain: tuple[float, float]
    v_domain: tuple[float, float]
    label: str = ""
    position: Callable[[float, float], Vec4] | None = None

    def __post_init__(self):
        if self.position is None:
            # bound to the jets map, not to self: a closure over self would
            # make every such patch a reference cycle that keeps its curve
            # alive until the cyclic garbage collector runs
            object.__setattr__(self, "position", partial(_position_slot, self.jets))


def _position_slot(jets, u, v) -> Vec4:
    return jets(u, v).position


@dataclass(frozen=True)
class FirstFundamentalForm:
    E: float
    F: float
    G: float

    @property
    def det(self) -> float:
        return self.E * self.G - self.F * self.F


class Frame(NamedTuple):
    """Adapted frame: unit spacelike X, unit timelike Y, normals n1, n2
    with <n_i, n_j> = eps_i * delta_ij.  On a grid eps1 and eps2 are int
    arrays, 0 at the points where no normal frame was found."""

    X: Vec4
    Y: Vec4
    n1: Vec4
    n2: Vec4
    eps1: int
    eps2: int


class MeanCurvature(NamedTuple):
    H: Vec4
    h2: float  # <H, H>


def first_fundamental_form(patch: SurfacePatch, u: float, v: float) -> FirstFundamentalForm:
    """E, F, G at (u, v); raises NonLorentzMetricError unless EG - F^2 < 0."""
    jets = patch.jets(u, v)
    form = FirstFundamentalForm(
        inner(jets.z_u, jets.z_u),
        inner(jets.z_u, jets.z_v),
        inner(jets.z_v, jets.z_v),
    )
    if not form.det < 0.0:
        raise NonLorentzMetricError(
            f"EG - F^2 = {form.det!r} >= 0 at (u, v) = ({u!r}, {v!r})")
    return form


def _tangent_frame(jets: PatchJets, u: float,
                   v: float) -> tuple[Vec4, Vec4, float, float, float]:
    """Unit spacelike X, unit timelike Y, plus E, F/E and G - F^2/E for
    sff scaling."""
    E = inner(jets.z_u, jets.z_u)
    F = inner(jets.z_u, jets.z_v)
    G = inner(jets.z_v, jets.z_v)
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as at a float
        det = E * G - F * F
    lorentz = (det < 0.0) & (E > 0.0)
    if lorentz is not True:
        raise_at(negate(lorentz), NonLorentzMetricError,
                 "no (+,-) tangent frame at (u, v) = ({!r}, {!r}): E={!r}, EG-F^2={!r}",
                 u, v, E, det)
    f_over_e = F / E
    g_red = G - F * f_over_e  # < 0
    sqrt = libm(E).sqrt
    X = jets.z_u * (1.0 / sqrt(E))
    Y = (jets.z_v - jets.z_u * f_over_e) * (1.0 / sqrt(-g_red))
    return X, Y, E, f_over_e, g_red


def tangent_frame(patch: SurfacePatch, u: float, v: float) -> tuple[Vec4, Vec4]:
    """Orthonormal tangent pair (X spacelike, Y timelike) at (u, v).

    For arc-length rotational patches (E = 1, F = 0) this is exactly
    X = z_u, Y = z_v / sqrt(-G).
    """
    return _tangent_frame(patch.jets(u, v), u, v)[:2]


def normal_projection(w: Vec4, X: Vec4, Y: Vec4) -> Vec4:
    """Component of w orthogonal to span{X, Y} (X unit spacelike, Y unit timelike)."""
    return w - X * inner(w, X) + Y * inner(w, Y)


#: The six seed pairs (i, j), i < j, of standard basis vectors, in the
#: order that breaks ties between equal scores.
_SEED_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]
#: The (i, j) rows of _SEED_PAIRS, gathered by a grid of seed-pair indices.
_SEED_INDEX = np.array(_SEED_PAIRS).T


def _normal_pair(X: Vec4, Y: Vec4, u, v) -> tuple[Vec4, Vec4, int, int]:
    """The seed search of normal_frame_numeric, given the tangent pair."""
    norms = []
    for e in BASIS:
        proj = X * inner(e, X) - Y * inner(e, Y)
        square = proj.x1 * proj.x1 + proj.x2 * proj.x2 + proj.x3 * proj.x3 + proj.x4 * proj.x4
        norms.append(libm(square).sqrt(square))
    scores = [norms[i] + norms[j] for i, j in _SEED_PAIRS]
    if isinstance(u, np.ndarray) or isinstance(v, np.ndarray):
        return _normal_pair_grid(X, Y, scores)
    for k in sorted(range(len(_SEED_PAIRS)), key=scores.__getitem__):
        i, j = _SEED_PAIRS[k]
        try:
            units = orthonormalize_indefinite([X, Y, BASIS[i], BASIS[j]])
        except DegenerateFrameError:
            continue
        return _spacelike_first(units[2], units[3])
    raise DegenerateFrameError(
        f"singular point: no seed pair yields a normal frame at ({u!r}, {v!r})")


def _normal_pair_grid(X: Vec4, Y: Vec4, scores):
    """The seed search at every grid point: each point tries its seed pairs
    in the order of a stable argsort of their scores (the order the float
    call's sort gives), and keeps the first pair whose Gram-Schmidt
    succeeds; points where none does keep signs 0.  A later rank runs only
    at the points still unresolved, on their flat indices; Gram-Schmidt is
    entrywise, so each point's values are those of a whole-grid pass."""
    order = np.argsort(np.broadcast_arrays(*scores), axis=0, kind="stable")
    shape = order.shape[1:]
    tangents = [c.ravel() for c in np.broadcast_arrays(*X, *Y)]
    todo, found = slice(None), None  # found: flat (n1, n2, s1, s2)
    for rank in order.reshape(len(order), -1):
        seeds = [Vec4(*e.T) for e in np.eye(4)[_SEED_INDEX[:, rank[todo]]]]  # one-hot
        at = [c[todo] for c in tangents]
        units = orthonormalize_indefinite([Vec4(*at[:4]), Vec4(*at[4:]), *seeds])
        n1, n2, s1, s2 = _spacelike_first(units[2], units[3])
        if found is None:  # signs are 0 where this first pair failed
            found = [*n1, *n2, s1, s2]
        else:
            for column, new in zip(found, (*n1, *n2, s1, s2)):
                column[todo[s1 != 0]] = new[s1 != 0]
        todo = np.flatnonzero(found[8] == 0)
        if not todo.size:
            break
    columns = [c.reshape(shape) for c in found]
    return Vec4(*columns[:4]), Vec4(*columns[4:8]), columns[8], columns[9]


def _take(mask, new: Vec4, old: Vec4) -> Vec4:
    return Vec4(*(np.where(mask, a, b) for a, b in zip(new, old)))


def _spacelike_first(first, second):
    """(n1, n2, s1, s2) from two (unit, sign) pairs, spacelike normal first."""
    (n1, s1), (n2, s2) = first, second
    if isinstance(s1, np.ndarray):
        swap = s1 < s2
        return (_take(swap, n2, n1), _take(swap, n1, n2),
                np.where(swap, s2, s1), np.where(swap, s1, s2))
    if s1 < s2:
        return n2, n1, s2, s1
    return n1, n2, s1, s2


def normal_frame_numeric(patch: SurfacePatch, u: float,
                         v: float) -> tuple[Vec4, Vec4, int, int]:
    """Orthonormal normal pair built without any closed-form frame.

    Runs indefinite Gram-Schmidt on {X, Y, w1, w2} where the seeds w1, w2
    are the standard basis vectors most transverse to the tangent plane
    (smallest Euclidean norm of the tangent projection, ties broken by
    basis index).  Seed pairs are retried in deterministic order; if all
    six fail the point is reported as singular.  The spacelike normal is
    returned first.
    """
    X, Y = tangent_frame(patch, u, v)
    return _normal_pair(X, Y, u, v)


def frame_numeric(patch: SurfacePatch, u: float, v: float,
                  jets: PatchJets | None = None) -> Frame:
    """Full adapted frame with numerically constructed normals; ``jets`` is
    patch.jets(u, v) when the caller already has it."""
    X, Y = _tangent_frame(patch.jets(u, v) if jets is None else jets, u, v)[:2]
    return Frame(X, Y, *_normal_pair(X, Y, u, v))


def _sigma(jets: PatchJets, u: float, v: float):
    """sigma(X,X) and sigma(Y,Y) from the patch jets at (u, v), plus the
    terms sigma(X,Y) is formed from, which mean_curvature does not need.

    sigma is tensorial, so the values follow from the normal projections
    of z_uu, z_uv, z_vv rescaled by the frame coefficients.
    """
    X, Y, E, f_over_e, g_red = _tangent_frame(jets, u, v)
    n_uu = normal_projection(jets.z_uu, X, Y)
    n_uv = normal_projection(jets.z_uv, X, Y)
    n_vv = normal_projection(jets.z_vv, X, Y)
    sxx = n_uu * (1.0 / E)
    syy = (n_vv - n_uv * (2.0 * f_over_e) + n_uu * (f_over_e * f_over_e)) * (1.0 / -g_red)
    return sxx, syy, (n_uu, n_uv, f_over_e, E * -g_red)


def second_fundamental_form(patch: SurfacePatch, u: float,
                            v: float) -> tuple[Vec4, Vec4, Vec4]:
    """sigma(X,X), sigma(X,Y), sigma(Y,Y) as vectors in span{n1, n2}."""
    sxx, syy, (n_uu, n_uv, f_over_e, e_g) = _sigma(patch.jets(u, v), u, v)
    return sxx, (n_uv - n_uu * f_over_e) * (1.0 / libm(e_g).sqrt(e_g)), syy


def mean_curvature(patch: SurfacePatch, u: float, v: float,
                   jets: PatchJets | None = None) -> MeanCurvature:
    """H = (sigma(X,X) - sigma(Y,Y)) / 2 and h2 = <H, H> at (u, v); ``jets``
    is patch.jets(u, v) when the caller already has it.

    Needs only the tangent frame (normal projection is frame-free), so it
    serves as the oracle side against the closed-form expressions.
    """
    sxx, syy, _ = _sigma(patch.jets(u, v) if jets is None else jets, u, v)
    H = (sxx - syy) * 0.5
    return MeanCurvature(H, inner(H, H))


def fd_patch(
    position: Callable[[float, float], Vec4],
    h: float,
    u_domain: tuple[float, float],
    v_domain: tuple[float, float],
) -> SurfacePatch:
    """Patch whose partials come from second-order central differences.

    ``position`` is trusted for values only; all six derivative slots are
    rebuilt from a 9-point stencil with O(h^2) error, which makes the
    result an oracle independent of any analytic jet assembly.  Stencils
    reaching outside ``u_domain`` x ``v_domain`` raise
    StencilOutOfDomainError; the returned patch domain is shrunk by h.
    The nine stencil points index (u - h, u, u + h) x (v - h, v, v + h)
    through one table, ``_STENCIL``.  At a float (u, v) the stencil makes
    nine ``position`` calls, one per entry.  On a grid it makes one, at the
    stacked column (u - h, u, u + h) and row (v - h, v, v + h), and slices
    the nine stencil grids from it by the same entries.
    """
    if not h > 0.0:
        raise ValueError("h must be positive")
    u_lo, u_hi = u_domain
    v_lo, v_hi = v_domain

    def jets(u, v) -> PatchJets:
        outside = ((u - h < u_lo - 1e-12) | (u + h > u_hi + 1e-12)
                   | (v - h < v_lo - 1e-12) | (v + h > v_hi + 1e-12))
        if outside is not False:
            raise_at(outside, StencilOutOfDomainError,
                     "stencil around ({!r}, {!r}) with h={!r} leaves the domain", u, v, h)
        if isinstance(u, np.ndarray) and isinstance(v, np.ndarray):
            points = _stencil_grid(position, u, v, h)
        else:
            us, vs = (u - h, u, u + h), (v - h, v, v + h)
            points = [position(us[i], vs[j]) for i, j in _STENCIL]
        c, pu, mu, pv, mv, pp, pm, mp, mm = points
        require_finite(c, "stencil position")
        inv2h = 0.5 / h
        invh2 = 1.0 / (h * h)
        return PatchJets(
            position=c,
            z_u=(pu - mu) * inv2h,
            z_v=(pv - mv) * inv2h,
            z_uu=(pu - c * 2.0 + mu) * invh2,
            z_uv=(pp - pm - mp + mm) * (0.25 * invh2),
            z_vv=(pv - c * 2.0 + mv) * invh2,
        )

    return SurfacePatch(
        jets=jets,
        u_domain=(u_lo + h, u_hi - h),
        v_domain=(v_lo + h, v_hi - h),
        label="fd-oracle",
    )


#: The nine stencil points of ``fd_patch`` in its order (c, pu, mu, pv, mv,
#: pp, pm, mp, mm), as indices into (u - h, u, u + h) and (v - h, v, v + h).
_STENCIL = ((1, 1), (2, 1), (0, 1), (1, 2), (1, 0), (2, 2), (2, 0), (0, 2), (0, 0))


def _stencil_grid(position, u: np.ndarray, v: np.ndarray, h: float) -> list[Vec4]:
    """The nine stencil grids of ``fd_patch`` in its order (c, pu, mu, pv,
    mv, pp, pm, mp, mm), sliced from one ``position`` call at the stacked
    (3 nu, 1) column (u - h, u, u + h) and (1, 3 nv) row (v - h, v, v + h):
    each entry comes from the same shifted u and v as a call per grid."""
    nu, nv = u.shape[0], v.shape[1]
    stacked = position(np.concatenate([u - h, u, u + h]),
                       np.concatenate([v - h, v, v + h], axis=1))

    def block(x, i: int, j: int):  # i, j = 0, 1, 2 for -h, 0, +h
        if not np.ndim(x):
            return x
        rows = slice(None) if x.shape[0] == 1 else slice(i * nu, (i + 1) * nu)
        cols = slice(None) if x.shape[1] == 1 else slice(j * nv, (j + 1) * nv)
        return x[rows, cols]

    return [Vec4(*(block(x, i, j) for x in stacked)) for i, j in _STENCIL]


def fd_oracle(patch: SurfacePatch, h: float = FD_STEP) -> SurfacePatch:
    """Finite-difference twin of ``patch`` built from its positions only."""
    return fd_patch(patch.position, h, patch.u_domain, patch.v_domain)
