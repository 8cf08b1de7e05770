"""Reports, validity lists and curve CSVs, pinned byte for byte.

Each case is one of the criterion-2 runs a performance change must leave
as it is: ``generate_and_validate`` at library defaults (its validity list
and report JSON), or the 33-sample CSV of ``cmc curve`` (the validity
scan, generation on the largest usable piece and ``write_curve_csv``), each
at both orientations eta = +1 and -1.  ``report_digests.json`` holds the
sha256 of the bytes each case produces; a mismatch names the case.

A change that means to move these numbers re-records the file with

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.json

and says why in its log.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import pytest

from cmcsurf.builders import RotationType
from cmcsurf.generator import CmcParams, domain_validity, generate
from cmcsurf.io import write_curve_csv
from cmcsurf.profiles import ProfileFunction
from cmcsurf.validation import generate_and_validate, generation_plan

E, HA, HB, P = (RotationType.ELLIPTIC, RotationType.HYPERBOLIC_A,
                RotationType.HYPERBOLIC_B, RotationType.PARABOLIC)

#: rotation, expression, constants and working interval of each profile
PROFILES = {
    "elliptic:2": (E, "2", None, (0.0, 6.28)),
    "elliptic:1+u/2": (E, "1+u/2", None, (0.0, 3.0)),
    "hyperbolicB:2": (HB, "2", None, (0.0, 2.0)),
    "hyperbolicA:2*u": (HA, "2*u", None, (0.5, 2.5)),
    "hyperbolicA:sqrt": (HA, "sqrt(u^2+2*a*u+b)", {"a": 2.0, "b": 1.0}, (0.3, 1.8)),
    "parabolic:2": (P, "2", None, (0.5, 2.0)),
    "parabolic:u": (P, "u", None, (0.5, 2.0)),
    "parabolic:u^2": (P, "u^2", None, (0.5, 1.8)),
    "parabolic:sqrt": (P, "sqrt(2*a*u+b)", {"a": 1.0, "b": 0.0}, (0.3, 2.0)),
}

#: (profile, C, h_sign) of the validation runs; the last three are infeasible
ROUNDTRIP = [
    ("elliptic:2", 0.1, 1), ("hyperbolicB:2", 0.1, 1), ("hyperbolicA:2*u", 0.5, 1),
    ("parabolic:u", 0.5, 1), ("parabolic:2", 0.5, 1), ("elliptic:1+u/2", 1.0, -1),
    ("hyperbolicA:sqrt", 0.5, -1),
]

#: (profile, C, h_sign) of the curve exports
CURVE_EXPORT = [
    ("elliptic:2", 0.1, 1), ("elliptic:2", 0.1, -1), ("elliptic:1+u/2", 0.1, 1),
    ("hyperbolicB:2", 0.1, 1), ("hyperbolicB:2", 0.1, -1), ("hyperbolicB:2", 0.5, -1),
    ("hyperbolicB:2", 1.0, -1), ("hyperbolicA:2*u", 0.1, 1), ("hyperbolicA:2*u", 0.1, -1),
    ("hyperbolicA:2*u", 0.5, 1), ("hyperbolicA:2*u", 0.5, -1), ("hyperbolicA:2*u", 1.0, 1),
    ("hyperbolicA:sqrt", 0.1, 1), ("parabolic:u", 0.1, 1), ("parabolic:u", 0.1, -1),
    ("parabolic:u", 0.5, 1), ("parabolic:u", 0.5, -1), ("parabolic:u", 1.0, 1),
    ("parabolic:u^2", 0.1, 1), ("parabolic:u^2", 0.1, -1), ("parabolic:u^2", 0.5, 1),
    ("parabolic:u^2", 0.5, -1), ("parabolic:u^2", 1.0, 1), ("parabolic:u^2", 1.0, -1),
    ("parabolic:sqrt", 0.1, 1), ("parabolic:sqrt", 0.5, 1), ("parabolic:sqrt", 1.0, 1),
]

CASES = [(kind, *case, eta)
         for kind, cases in (("roundtrip", ROUNDTRIP), ("curve", CURVE_EXPORT))
         for case in cases for eta in (1, -1)]

DIGESTS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "report_digests.json")


def case_id(kind: str, name: str, C: float, h_sign: int, eta: int) -> str:
    return f"{kind}:{name}:C={C}:h={h_sign}:eta={eta}"


def case_bytes(kind: str, name: str, C: float, h_sign: int, eta: int) -> bytes:
    rotation, text, consts, interval = PROFILES[name]
    profile = ProfileFunction.from_text(text, interval, consts)
    params = CmcParams(C=C, h_sign=h_sign, eta=eta)
    if kind == "roundtrip":
        _, report, validity = generate_and_validate(rotation, profile, params, interval)
        return f"{report.to_json() if report else None}\n{validity!r}".encode()
    plan = generation_plan(domain_validity(profile, params, interval, rotation), params)
    curve = generate(rotation, profile, plan[1], None, plan[0])
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "curve.csv")
        write_curve_csv(path, curve, samples=33)
        with open(path, "rb") as handle:
            return handle.read()


def digest(case) -> str:
    return hashlib.sha256(case_bytes(*case)).hexdigest()


@pytest.fixture(scope="module")
def recorded() -> dict[str, str]:
    with open(DIGESTS) as handle:
        return json.load(handle)


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_bytes_match_the_recorded_digest(case, recorded):
    assert digest(case) == recorded[case_id(*case)], case_id(*case)


if __name__ == "__main__":
    json.dump({case_id(*case): digest(case) for case in CASES}, sys.stdout,
              indent=1, sort_keys=True)
    sys.stdout.write("\n")
