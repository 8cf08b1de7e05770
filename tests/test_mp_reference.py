"""generate against the 30-digit reference of ``mp_reference.json``.

The reference is the truth to far beyond double precision, so the bound
measures the generator's own error rather than its drift from an earlier
build.  Over the 7 recorded cases the worst error, relative to 1 + |ref|,
was 1.3e-15 (the x1 value of elliptic "2" at C = 0.1, h_sign = +1, u =
5.652); the 5 cases recorded first peak at 8.8e-16.  The bound keeps a
factor of about 1.5 above the worst.
"""

import json

import pytest

from cmcsurf.builders import RotationType
from cmcsurf.generator import CmcParams, generate
from cmcsurf.profiles import ProfileFunction

from mp_reference import CASES, REFERENCE

BOUND = 2e-15


@pytest.mark.parametrize("name", sorted(CASES))
def test_generate_matches_the_mp_reference(name):
    with open(REFERENCE) as handle:
        reference = json.load(handle)[name]
    rotation, text, interval, C, h_sign, eta = CASES[name]
    curve = generate(RotationType(rotation), ProfileFunction.from_text(text, interval),
                     CmcParams(C=C, h_sign=h_sign, eta=eta), None, interval)
    assert len(reference) == 5
    for row in reference:
        for got, ref in zip(curve.jets(row["u"]), row["jets"]):
            for g, r in zip(got, map(float, ref)):
                assert abs(g - r) <= BOUND * (1.0 + abs(r)), (row["u"], g, r)
