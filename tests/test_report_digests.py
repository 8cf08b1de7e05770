"""Reports, validity lists and curve CSVs, pinned byte for byte.

Each case is one of the criterion-2 runs a performance change must leave
as it is: ``generate_and_validate`` at library defaults (its validity list
and report JSON), or the 33-sample CSV of ``cmc curve`` (the validity
scan, generation on the largest usable piece and ``write_curve_csv``), or
the report of ``cmc validate --csv`` (``load_curve`` and ``validate_surface``
at library defaults) on the CSV of a feasible validation run written at 401
and at 33 samples, each at both orientations eta = +1 and -1; or the report
of one of the four special-case audits of criterion 7
(``compare_special_case`` with the constants of ``test_acceptance``).
``report_digests.json`` holds the sha256 of the bytes each case produces; a
mismatch names the case.
``surface_digests.json`` holds those of the two files ``cmc surface --out
--obj`` writes at a 9x7 grid for the feasible validation runs.

A change that means to move these numbers re-records the files with

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.json
    PYTHONPATH=src python tests/test_report_digests.py surface > tests/surface_digests.json

and says why in its log; before that,

    PYTHONPATH=src python tests/test_report_digests.py diff

prints ``case: old → new`` for every report and surface digest that
differs from the recorded files.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout

import pytest

from cmcsurf.builders import RotationType
from cmcsurf.cli import main
from cmcsurf.generator import CmcParams, domain_validity, generate
from cmcsurf.errors import CmcError
from cmcsurf.io import load_curve, write_curve_csv
from cmcsurf.profiles import ProfileFunction
from cmcsurf.validation import (
    compare_special_case,
    generate_and_validate,
    generation_plan,
    validate_surface,
)

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

#: sample count of each CSV reloaded by ``cmc validate --csv``, by case kind
RELOADED = {"csv401": 401, "csv33": 33}

#: constants and interval of each special-case audit, by rotation type, at C = 0.5
SPECIAL = {
    "elliptic": ({"a": 1.0, "b": 0.0, "d": 0.0}, (0.3, 1.7)),
    "hyperbolicA": ({"a": 2.0, "b": 1.0, "d": 0.0}, (0.5, 2.0)),
    "hyperbolicB": ({"a": 1.0, "b": 2.0, "d": 0.0}, (0.5, 2.0)),
    "parabolic": ({"a": 1.0, "b": 0.0, "A": 0.3, "B": 1.0}, (0.5, 2.0)),
}

CASES = [(kind, *case, eta)
         for kind, cases in (("roundtrip", ROUNDTRIP), ("curve", CURVE_EXPORT),
                             *((kind, ROUNDTRIP[:4]) for kind in RELOADED))
         for case in cases for eta in (1, -1)] + [
    ("special", name, 0.5, 1, 1) for name in SPECIAL]

#: (profile, C, h_sign, eta) of the surface exports: the feasible validation runs
SURFACE_EXPORT = [(*case, eta) for case in ROUNDTRIP[:4] for eta in (1, -1)]

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "report_digests.json")
SURFACE_DIGESTS = os.path.join(HERE, "surface_digests.json")


def case_id(kind: str, name: str, C: float, h_sign: int, eta: int) -> str:
    return f"{kind}:{name}:C={C}:h={h_sign}:eta={eta}"


def case_bytes(kind: str, name: str, C: float, h_sign: int, eta: int) -> bytes:
    if kind == "special":  # the audit forces h_sign itself
        constants, interval = SPECIAL[name]
        return compare_special_case(RotationType(name), constants, CmcParams(C=C, eta=eta),
                                    interval).to_json().encode()
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
        write_curve_csv(path, curve, samples=RELOADED.get(kind, 33))
        if kind == "curve":
            with open(path, "rb") as handle:
                return handle.read()
        try:  # a coarse CSV may fail the arc-length invariant: pin the error
            text = validate_surface(load_curve(path), params.target_h2, "curve.csv").to_json()
        except CmcError as exc:
            text = f"{type(exc).__name__}: {exc}"
        return text.encode()


def surface_digests(name: str, C: float, h_sign: int, eta: int) -> dict[str, str]:
    """The sha256 of the CSV and the OBJ of one ``cmc surface`` call, keyed
    by case id and suffix."""
    rotation, text, _, (lo, hi) = PROFILES[name]
    with tempfile.TemporaryDirectory() as tmp:
        paths = {ext: os.path.join(tmp, f"surface.{ext}") for ext in ("csv", "obj")}
        with redirect_stdout(io.StringIO()):  # its "wrote ..." lines
            code = main(["surface", "--type", rotation.value, "--profile", text,
                         f"--interval={lo!r}:{hi!r}", "--C", repr(C),
                         "--hsign", str(h_sign), "--eta", str(eta), "--grid", "9x7",
                         "--out", paths["csv"], "--obj", paths["obj"]])
        assert code == 0
        key = case_id("surface", name, C, h_sign, eta)
        digests = {}
        for ext, path in paths.items():
            with open(path, "rb") as handle:
                digests[f"{key}:{ext}"] = hashlib.sha256(handle.read()).hexdigest()
        return digests


def digest(case) -> str:
    return hashlib.sha256(case_bytes(*case)).hexdigest()


def _load(path: str) -> dict[str, str]:
    with open(path) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def recorded() -> dict[str, str]:
    return _load(DIGESTS)


def test_every_case_is_recorded(recorded):
    assert sorted(recorded) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case_id(*case) for case in CASES])
def test_bytes_match_the_recorded_digest(case, recorded):
    assert digest(case) == recorded[case_id(*case)], case_id(*case)


@pytest.mark.parametrize("case", SURFACE_EXPORT,
                         ids=[case_id("surface", *case) for case in SURFACE_EXPORT])
def test_surface_files_match_the_recorded_digests(case):
    recorded = {key: value for key, value in _load(SURFACE_DIGESTS).items()
                if key.startswith(case_id("surface", *case) + ":")}
    assert surface_digests(*case) == recorded


def report_table() -> dict[str, str]:
    return {case_id(*case): digest(case) for case in CASES}


def surface_table() -> dict[str, str]:
    return {key: value for case in SURFACE_EXPORT
            for key, value in surface_digests(*case).items()}


def changed(path: str, table: dict[str, str]) -> list[str]:
    """``case: old → new`` for each digest of ``table`` that differs from
    the file at ``path``, by case id, each digest as its first 12 hex digits
    ("-" where one side has none)."""
    old = _load(path)
    return [f"{key}: {old.get(key, '-')[:12]} → {table.get(key, '-')[:12]}"
            for key in sorted(old.keys() | table.keys()) if old.get(key) != table.get(key)]


if __name__ == "__main__":
    if sys.argv[1:] == ["diff"]:
        lines = changed(DIGESTS, report_table()) + changed(SURFACE_DIGESTS, surface_table())
        sys.stdout.write("".join(line + "\n" for line in lines))
    else:
        table = surface_table() if sys.argv[1:] == ["surface"] else report_table()
        json.dump(table, sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
