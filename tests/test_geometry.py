import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cmcsurf.errors import DegenerateFrameError
from cmcsurf.geometry import (
    BASIS,
    E1,
    E2,
    E3,
    E4,
    XI1,
    XI2,
    CausalClass,
    Vec4,
    causal_character,
    inner,
    orthonormalize_indefinite,
    require_finite,
    where,
)

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
vectors = st.builds(Vec4, finite, finite, finite, finite)


def test_signature_table():
    signs = (1.0, 1.0, -1.0, -1.0)
    for i, ei in enumerate(BASIS):
        for j, ej in enumerate(BASIS):
            expected = signs[i] if i == j else 0.0
            assert inner(ei, ej) == expected


def test_inner_examples():
    assert inner(Vec4(1, 0, 0, 0), Vec4(1, 0, 0, 0)) == 1.0
    assert inner(Vec4(0, 0, 1, 0), Vec4(0, 0, 1, 0)) == -1.0
    assert inner(XI1, XI2) == pytest.approx(-1.0, abs=1e-15)
    assert inner(XI1, XI1) == pytest.approx(0.0, abs=1e-15)
    assert inner(XI2, XI2) == pytest.approx(0.0, abs=1e-15)


def _exact(v):
    return Vec4(*(Fraction(x) for x in v))


@given(vectors, vectors, vectors, finite, finite)
@example(Vec4(0, 2919, 0, 2919), E4, Vec4(0, 1, 0, 1), 183923.0, 2.0**-24)
@example(Vec4(0, 4444, 0, 4444), E4, Vec4(0, 4444, 0, 4444), 1.0, 1e-10)
def test_inner_bilinear_symmetric(v, w, z, a, b):
    assert inner(v, w) == inner(w, v)
    # Bilinearity is checked in exact rational arithmetic: in floats,
    # rounding v*a + w*b can drop b*w entirely when <v*a, z> cancels, so no
    # bound relative to |left| + |right| holds for every input.
    v, w, z, a, b = _exact(v), _exact(w), _exact(z), Fraction(a), Fraction(b)
    assert inner(v * a + w * b, z) == a * inner(v, z) + b * inner(w, z)


def test_causal_examples():
    assert causal_character(Vec4(1, 0, 1, 0)) is CausalClass.LIGHTLIKE
    assert causal_character(Vec4(0, 0, 0, 2)) is CausalClass.TIMELIKE
    assert causal_character(Vec4(3, 0, 0, 0)) is CausalClass.SPACELIKE
    assert causal_character(Vec4(0, 0, 0, 0)) is CausalClass.ZERO


def test_causal_tolerance_band():
    eps = 1e-12
    assert causal_character(Vec4(1, 0, 1, eps)) is CausalClass.LIGHTLIKE


def test_require_finite():
    require_finite(E1)
    with pytest.raises(ValueError):
        require_finite(Vec4(math.nan, 0, 0, 0))
    with pytest.raises(ValueError):
        require_finite(Vec4(0, math.inf, 0, 0))


def test_where_picks_per_point():
    assert (where(True, 1, -1), where(False, 1, -1)) == (1, -1)
    # a numpy bool scalar is a point: the pick itself, not a 0-d array
    assert where(np.False_, 0.0, 2.5) == 2.5 and type(where(np.True_, 1, -1)) is int
    assert where(np.array([[True], [False]]), 1, np.array([[-1, -2]])).tolist() == [[1, 1],
                                                                                    [-1, -2]]


def test_orthonormalize_already_orthonormal():
    out = orthonormalize_indefinite([E1, E3])
    assert out[0] == (E1, 1)
    assert out[1] == (E3, -1)


def test_orthonormalize_euclidean_plane():
    s = 1 / math.sqrt(2)
    out = orthonormalize_indefinite([E1 + E2, E2])
    (u1, s1), (u2, s2) = out
    assert s1 == 1 and s2 == 1
    assert max(abs(a - b) for a, b in zip(u1, Vec4(s, s, 0, 0))) < 1e-15
    assert max(abs(a - b) for a, b in zip(u2, Vec4(-s, s, 0, 0))) < 1e-15


def test_orthonormalize_lightlike_input_degenerate():
    eps = 5e-11  # below the causal tolerance
    with pytest.raises(DegenerateFrameError):
        orthonormalize_indefinite([E1 + E3 + E2 * eps, E2])


def test_orthonormalize_dependent_input_degenerate():
    with pytest.raises(DegenerateFrameError):
        orthonormalize_indefinite([E1, E1 * 2.0])


@given(st.lists(vectors, min_size=2, max_size=4))
@example([Vec4(0, 622148, 0, 622222), Vec4(0, 1, 0, 0)])
@example([Vec4(0, 74, 74, 1), Vec4(0, 0, 1, 0)])
def test_orthonormalize_output_table(vecs):
    try:
        out = orthonormalize_indefinite(vecs)
    except DegenerateFrameError:
        return  # degenerate input combinations are legitimately rejected
    for i, (ui, si) in enumerate(out):
        for j, (uj, sj) in enumerate(out):
            expected = float(si) if i == j else 0.0
            assert abs(inner(ui, uj) - expected) <= 1e-12
