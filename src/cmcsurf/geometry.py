"""Indefinite linear algebra of the neutral pseudo-Euclidean 4-space.

The ambient space is R^4 with the scalar product

    <v, w> = v1*w1 + v2*w2 - v3*w3 - v4*w4,

i.e. signature (+, +, -, -).  Everything downstream (patches, frames,
curvature) reduces to three primitives defined here: the scalar product,
causal classification, and Gram-Schmidt that tracks norm signs.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

from .errors import DegenerateFrameError

#: Default tolerance for deciding whether <v,v> counts as zero.
TAU_CAUSAL = 1e-10
#: Largest |<u_i,u_j> - s_i*delta_ij| accepted in an orthonormal frame.
TAU_ORTHO = 1e-12

_new = tuple.__new__


class Vec4(NamedTuple):
    """Point or vector of the neutral 4-space, components in the e-basis."""

    x1: float
    x2: float
    x3: float
    x4: float

    # tuple.__new__ skips NamedTuple's Python-level __new__ on these hot paths
    def __add__(self, other: "Vec4") -> "Vec4":  # type: ignore[override]
        return _new(Vec4, (self.x1 + other.x1, self.x2 + other.x2,
                           self.x3 + other.x3, self.x4 + other.x4))

    def __sub__(self, other: "Vec4") -> "Vec4":
        return _new(Vec4, (self.x1 - other.x1, self.x2 - other.x2,
                           self.x3 - other.x3, self.x4 - other.x4))

    def __neg__(self) -> "Vec4":
        return _new(Vec4, (-self.x1, -self.x2, -self.x3, -self.x4))

    def __mul__(self, s: float) -> "Vec4":  # type: ignore[override]
        return _new(Vec4, (self.x1 * s, self.x2 * s, self.x3 * s, self.x4 * s))

    __rmul__ = __mul__  # type: ignore[assignment]

    def is_finite(self) -> bool:
        return (math.isfinite(self.x1) and math.isfinite(self.x2)
                and math.isfinite(self.x3) and math.isfinite(self.x4))


E1 = Vec4(1.0, 0.0, 0.0, 0.0)
E2 = Vec4(0.0, 1.0, 0.0, 0.0)
E3 = Vec4(0.0, 0.0, 1.0, 0.0)
E4 = Vec4(0.0, 0.0, 0.0, 1.0)
BASIS = (E1, E2, E3, E4)

_SQRT2 = math.sqrt(2.0)
#: Lightlike pair spanning the degenerate rotation axis: xi1 = (e2+e3)/sqrt2,
#: xi2 = (-e2+e3)/sqrt2, with <xi1,xi1> = <xi2,xi2> = 0 and <xi1,xi2> = -1.
XI1 = Vec4(0.0, 1.0 / _SQRT2, 1.0 / _SQRT2, 0.0)
XI2 = Vec4(0.0, -1.0 / _SQRT2, 1.0 / _SQRT2, 0.0)


class CausalClass(Enum):
    """Causal character of a vector with respect to the neutral metric."""

    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


def inner(v: Vec4, w: Vec4) -> float:
    """Scalar product of signature (+,+,-,-); symmetric and bilinear."""
    return v.x1 * w.x1 + v.x2 * w.x2 - v.x3 * w.x3 - v.x4 * w.x4


def inf_norm(v: Vec4) -> float:
    return max(abs(v.x1), abs(v.x2), abs(v.x3), abs(v.x4))


def require_finite(v: Vec4, context: str = "vector") -> Vec4:
    """Boundary check: reject NaN/inf components before they propagate."""
    if not v.is_finite():
        raise ValueError(f"non-finite {context}: {v}")
    return v


def causal_character(v: Vec4, tau_causal: float = TAU_CAUSAL) -> CausalClass:
    """Classify ``v`` as spacelike/timelike/lightlike/zero.

    A vector counts as lightlike when |<v,v>| <= tau_causal while the
    vector itself is not negligibly small; ``tau_causal`` must be > 0.
    """
    if not tau_causal > 0.0:
        raise ValueError("tau_causal must be positive")
    q = inner(v, v)
    if q > tau_causal:
        return CausalClass.SPACELIKE
    if q < -tau_causal:
        return CausalClass.TIMELIKE
    if inf_norm(v) > tau_causal:
        return CausalClass.LIGHTLIKE
    return CausalClass.ZERO


def normalize_with_sign(v: Vec4, tau_causal: float = TAU_CAUSAL) -> tuple[Vec4, int]:
    """Scale ``v`` to |<v,v>| = 1 and return (unit, sign of <v,v>).

    Raises DegenerateFrameError when ``v`` is lightlike or zero within
    ``tau_causal``: such vectors admit no unit representative.
    """
    q = inner(v, v)
    if abs(q) <= tau_causal:
        raise DegenerateFrameError(
            f"cannot normalize near-lightlike vector (<v,v>={q!r})")
    sign = 1 if q > 0.0 else -1
    return v * (1.0 / math.sqrt(abs(q))), sign


def orthonormalize_indefinite(
    basis: Iterable[Vec4], tau_causal: float = TAU_CAUSAL
) -> list[tuple[Vec4, int]]:
    """Gram-Schmidt with the indefinite scalar product.

    Returns one (unit vector, sign) pair per input, where sign = <u,u> in
    {+1,-1}; the span of each prefix is preserved.  Raises
    DegenerateFrameError as soon as a partial residual becomes lightlike
    (or the inputs are dependent), which signals callers such as the
    numeric normal frame to retry with different seed vectors.  It is also
    raised when the finished frame misses orthonormality by more than
    TAU_ORTHO: nearly null or strongly boosted inputs give unit vectors of
    large Euclidean norm, whose scalar products carry roundoff beyond it.
    """
    units: list[tuple[Vec4, int]] = []
    for v in basis:
        w = v
        # Two subtraction passes: the second removes the roundoff-level
        # contamination left by the first when inputs differ widely in scale.
        for _ in range(2):
            for u, s in units:
                # <u,u> = s, so the projection coefficient is s*<w,u>.
                w = w - u * (s * inner(w, u))
        units.append(normalize_with_sign(w, tau_causal))
    if gram_residual([u for u, _ in units], [s for _, s in units]) > TAU_ORTHO:
        raise DegenerateFrameError(
            f"frame misses orthonormality by more than {TAU_ORTHO!r}")
    return units


def gram_residual(vectors: Sequence[Vec4], signs: Sequence[int]) -> float:
    """Max |<v_i, v_j> - s_i*delta_ij| over all pairs i <= j: how far the
    vectors are from an orthonormal frame with norm signs ``signs``."""
    return max(abs(inner(vi, vj) - (signs[i] if i == j else 0.0))
               for i, vi in enumerate(vectors) for j, vj in enumerate(vectors[i:], i))
