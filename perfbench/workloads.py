"""The benchmark's three workloads: seeded inputs, op bodies and output checks.

Every workload runs a fixed menu of criterion-2 cases (profile, rotation, C,
h_sign) in passes, at the grid's own C values.  Each pass draws its inputs
from the seed: the order of the menu and the orientation ``eta`` of every
case, which mirrors the curve without changing its cost.  A pass therefore
costs the same on every seed, and throughput over whole passes is steady.

An op is timed around the program calls only; its output is checked
afterwards.  A check that fails, or an exception of any kind, makes the op a
failure, and the run goes on.
"""

from __future__ import annotations

import csv
import math
import os
import random
from dataclasses import dataclass

from cmcsurf import generator, io, validation
from cmcsurf.builders import ARC_TOL, COMPONENT_NAMES, RotationType
from cmcsurf.generator import CmcParams
from cmcsurf.profiles import ProfileFunction
from cmcsurf.validation import Tolerances

E, HA, HB, P = (RotationType.ELLIPTIC, RotationType.HYPERBOLIC_A,
                RotationType.HYPERBOLIC_B, RotationType.PARABOLIC)

#: The criterion-2 profiles of the acceptance suite: rotation, expression,
#: constants and working interval.
PROFILES = {
    "elliptic:2": (E, "2", None, (0.0, 6.28)),
    "elliptic:1+u/2": (E, "1+u/2", None, (0.0, 3.0)),
    "elliptic:sqrt": (E, "sqrt(-u^2+2*a*u+b)", {"a": 1.0, "b": 0.0}, (0.2, 1.8)),
    "hyperbolicB:2": (HB, "2", None, (0.0, 2.0)),
    "hyperbolicA:2*u": (HA, "2*u", None, (0.5, 2.5)),
    "hyperbolicA:sqrt": (HA, "sqrt(u^2+2*a*u+b)", {"a": 2.0, "b": 1.0}, (0.3, 1.8)),
    "parabolic:2": (P, "2", None, (0.5, 2.0)),
    "parabolic:u": (P, "u", None, (0.5, 2.0)),
    "parabolic:u^2": (P, "u^2", None, (0.5, 1.8)),
    "parabolic:sqrt": (P, "sqrt(2*a*u+b)", {"a": 1.0, "b": 0.0}, (0.3, 2.0)),
}

#: Analytic residual budget of a CSV round trip (test_io's rebuilt-curve test).
CSV_BUDGET = 1e-6
#: Validity left over by an infeasible case (tier-1 criterion 2).
INFEASIBLE_SPAN = 1e-2


@dataclass(frozen=True)
class Case:
    """One menu entry: a criterion-2 profile at (C, h_sign), and whether
    the grid yields a report (feasible) or empty validity there."""

    profile: str
    C: float
    h_sign: int
    feasible: bool = True


@dataclass(frozen=True)
class OpInput:
    case: Case
    params: CmcParams


@dataclass
class OpResult:
    ok: bool
    cmc_residual: float | None = None
    arclength_residual: float | None = None
    detail: str = ""


def draw_pass(menu: list[Case], seed: int, pass_index: int) -> list[OpInput]:
    """The seeded inputs of one pass over ``menu``."""
    rng = random.Random(f"{seed}:{pass_index}")
    ops = [OpInput(case, CmcParams(C=case.C, h_sign=case.h_sign,
                                   eta=rng.choice((1, -1))))
           for case in menu]
    rng.shuffle(ops)
    return ops


def parse_profiles(names) -> dict[str, ProfileFunction]:
    out = {}
    for name in names:
        _, text, consts, interval = PROFILES[name]
        out[name] = ProfileFunction.from_text(text, interval, consts)
    return out


def usable_interval(validity) -> tuple[float, float]:
    """Largest validity piece, pulled off its edges the way the CLI does."""
    lo, hi = max(validity, key=lambda ab: ab[1] - ab[0])
    pad = min(1e-7 * (hi - lo), 1e-6)
    return lo + pad, hi - pad


# --- roundtrip -----------------------------------------------------------------

class Roundtrip:
    """``generate_and_validate`` at library defaults on criterion-2 cases."""

    name = "roundtrip"
    menu = [
        Case("elliptic:2", 0.1, 1),
        Case("hyperbolicB:2", 0.1, 1),
        Case("hyperbolicA:2*u", 0.5, 1),
        Case("parabolic:u", 0.5, 1),
        Case("parabolic:2", 0.5, 1, feasible=False),
        Case("elliptic:1+u/2", 1.0, -1, feasible=False),
        Case("hyperbolicA:sqrt", 0.5, -1, feasible=False),
    ]

    def setup(self, workdir: str, seed: int):
        self.profiles = parse_profiles({c.profile for c in self.menu})
        warm = self.menu[1]
        self.call(OpInput(warm, CmcParams(C=warm.C, h_sign=warm.h_sign)), nu=5, nv=5)

    def call(self, op: OpInput, nu: int = 41, nv: int = 41):
        rotation, _, _, interval = PROFILES[op.case.profile]
        return validation.generate_and_validate(
            rotation, self.profiles[op.case.profile], op.params, interval,
            nu=nu, nv=nv)

    def check(self, op: OpInput, out) -> OpResult:
        _, report, validity = out
        if not op.case.feasible:
            tiny = all(hi - lo < INFEASIBLE_SPAN for lo, hi in validity)
            return OpResult(report is None and tiny, detail=f"validity {validity}")
        if report is None:
            return OpResult(False, detail="no report for a feasible case")
        return OpResult(report.passed(Tolerances()), report.max_cmc_residual,
                        report.max_arclength_residual,
                        detail="" if report.passed(Tolerances()) else report.to_json())


# --- csv_revalidate ------------------------------------------------------------

class CsvRevalidate:
    """``io.load_curve`` plus ``validate_surface`` on curve CSVs written in
    set-up, the path of ``cmc validate --csv``."""

    name = "csv_revalidate"
    menu = [
        Case("elliptic:2", 0.1, 1),
        Case("hyperbolicA:2*u", 0.5, 1),
        Case("hyperbolicB:2", 0.1, 1),
        Case("parabolic:u", 0.5, 1),
    ]
    samples = 401

    def setup(self, workdir: str, seed: int):
        profiles = parse_profiles({c.profile for c in self.menu})
        self.paths = {}
        for k, op in enumerate(draw_pass(self.menu, seed, -1)):
            rotation, _, _, interval = PROFILES[op.case.profile]
            profile = profiles[op.case.profile]
            validity = generator.domain_validity(profile, op.params, interval, rotation)
            curve = generator.generate(rotation, profile, op.params, None,
                                       usable_interval(validity))
            path = os.path.join(workdir, f"fixture{k}.csv")
            io.write_curve_csv(path, curve, samples=self.samples)
            self.paths[op.case] = (path, op.params.target_h2)
        path, target = next(iter(self.paths.values()))
        validation.validate_surface(io.load_curve(path), target, path, nu=5, nv=5)

    def call(self, op: OpInput):
        path, target = self.paths[op.case]
        curve = io.load_curve(path)
        return validation.validate_surface(curve, target, path)

    def check(self, op: OpInput, report) -> OpResult:
        ok = (report.max_cmc_residual <= CSV_BUDGET
              and report.max_arclength_residual <= CSV_BUDGET
              and report.max_closed_vs_oracle <= CSV_BUDGET
              and not report.flagged_points)
        return OpResult(ok, report.max_cmc_residual, report.max_arclength_residual,
                        detail="" if ok else report.to_json())


# --- curve_export --------------------------------------------------------------

class CurveExport:
    """``domain_validity`` + ``generate`` + ``write_curve_csv`` at a short
    sample count, the path of ``cmc curve``."""

    name = "curve_export"
    # feasible criterion-2 cases that each build in well under a second
    menu = [
        Case("elliptic:2", 0.1, 1), Case("elliptic:2", 0.1, -1),
        Case("elliptic:1+u/2", 0.1, 1), Case("hyperbolicB:2", 0.1, 1),
        Case("hyperbolicB:2", 0.1, -1), Case("hyperbolicB:2", 0.5, -1),
        Case("hyperbolicB:2", 1.0, -1), Case("hyperbolicA:2*u", 0.1, 1),
        Case("hyperbolicA:2*u", 0.1, -1), Case("hyperbolicA:2*u", 0.5, 1),
        Case("hyperbolicA:2*u", 0.5, -1), Case("hyperbolicA:2*u", 1.0, 1),
        Case("hyperbolicA:sqrt", 0.1, 1), Case("parabolic:u", 0.1, 1),
        Case("parabolic:u", 0.1, -1), Case("parabolic:u", 0.5, 1),
        Case("parabolic:u", 0.5, -1), Case("parabolic:u", 1.0, 1),
        Case("parabolic:u^2", 0.1, 1), Case("parabolic:u^2", 0.1, -1),
        Case("parabolic:u^2", 0.5, 1), Case("parabolic:u^2", 0.5, -1),
        Case("parabolic:u^2", 1.0, 1), Case("parabolic:u^2", 1.0, -1),
        Case("parabolic:sqrt", 0.1, 1), Case("parabolic:sqrt", 0.5, 1),
        Case("parabolic:sqrt", 1.0, 1),
    ]
    samples = 33

    def setup(self, workdir: str, seed: int):
        self.profiles = parse_profiles({c.profile for c in self.menu})
        self.path = os.path.join(workdir, "curve.csv")
        self.call(OpInput(self.menu[0], CmcParams(C=self.menu[0].C)), samples=5)

    def call(self, op: OpInput, samples: int | None = None):
        rotation, _, _, interval = PROFILES[op.case.profile]
        profile = self.profiles[op.case.profile]
        validity = generator.domain_validity(profile, op.params, interval, rotation)
        curve = generator.generate(rotation, profile, op.params, None,
                                   usable_interval(validity))
        io.write_curve_csv(self.path, curve, samples=samples or self.samples)
        return curve.domain

    def check(self, op: OpInput, domain) -> OpResult:
        rotation = PROFILES[op.case.profile][0]
        with open(self.path, newline="") as handle:
            rows = list(csv.reader(handle))
        names = COMPONENT_NAMES[rotation]
        header = ["u", *names, *("d" + n for n in names), *("dd" + n for n in names)]
        if rows[0] != header or len(rows) != self.samples + 1:
            return OpResult(False, detail=f"bad CSV layout {rows[0]} x {len(rows)}")
        data = [[float(x) for x in row] for row in rows[1:]]
        lo, hi = domain
        if data[0][0] != lo or abs(data[-1][0] - hi) > 1e-12 * (hi - lo):
            return OpResult(False, detail="CSV does not span the curve domain")
        target = op.params.target_h2
        cmc = max(abs(h2_from_jets(rotation, row) - target) for row in data)
        arc = max(abs(arclength_from_jets(rotation, row) - 1.0) for row in data)
        ok = cmc <= Tolerances().cmc_analytic and arc <= ARC_TOL
        return OpResult(ok, cmc, arc, detail="" if ok else f"cmc {cmc} arc {arc}")


def _jets(row):
    """(value, d1, d2) of the three components of one CSV row."""
    return [(row[1 + k], row[4 + k], row[7 + k]) for k in range(3)]


def arclength_from_jets(rotation: RotationType, row) -> float:
    (_, a1, _), (_, b1, _), (_, c1, _) = _jets(row)
    if rotation is P:
        return a1 * a1 - 2.0 * b1 * c1
    return a1 * a1 + b1 * b1 - c1 * c1


def h2_from_jets(rotation: RotationType, row) -> float:
    """<H, H> of the rotated surface from the curve jets (the paper's
    closed forms, written out independently of the program)."""
    a, b, c = _jets(row)
    if rotation is E:
        (_, x1d, x1dd), (_, x2d, x2dd), (r, rd, rdd) = a, b, c
        kappa = x1d * x2dd - x1dd * x2d
        w2 = 1.0 + rd * rd
        q = r * rdd + w2
        return (r * r * kappa * kappa - q * q) / (4.0 * r * r * w2)
    if rotation is P:
        (_, x1d, x1dd), (f, fd, fdd), _ = a, b, c
        kappa = x1dd * fd - x1d * fdd
        q = f * fdd + fd * fd
        return (f * f * kappa * kappa - q * q) / (4.0 * f * f * fd * fd)
    (r, rd, rdd), (_, x2d, x2dd), (_, x4d, x4dd) = a, b, c
    m = rd * rd - 1.0
    kappa = x4d * x2dd - x4dd * x2d
    q = r * rdd + m
    return (r * r * kappa * kappa - q * q) / (4.0 * r * r * m)


WORKLOADS = {w.name: w for w in (Roundtrip, CsvRevalidate, CurveExport)}


def digits(residual: float) -> float:
    """-log10 of a residual, clamped to [0, 16]."""
    if residual <= 1e-16:
        return 16.0
    return min(16.0, max(0.0, -math.log10(residual)))
