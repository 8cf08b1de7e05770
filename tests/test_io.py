import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from cmcsurf.builders import RotationType, build_surface
from cmcsurf.generator import CmcParams, generate
from cmcsurf.io import (
    curve_from_samples,
    load_curve,
    read_curve_csv,
    write_curve_csv,
    write_surface_csv,
    write_surface_obj,
)
from cmcsurf.profiles import ProfileFunction
from cmcsurf.quadrature import PiecewiseLegendre, QuadratureConfig
from cmcsurf.validation import check_cmc, shrunk_grid, validate_surface

from analytic_curves import ALL_CURVES, elliptic_circle, hyperbolic_linear_a

CONFIG = QuadratureConfig()


def test_curve_csv_round_trip_values(tmp_path):
    curve = elliptic_circle(2.0)
    path = tmp_path / "curve.csv"
    write_curve_csv(str(path), curve, samples=101)
    rotation, us, jets = read_curve_csv(str(path))
    assert rotation is RotationType.ELLIPTIC
    assert len(us) == 101
    # stored jets are exactly the sampled ones (repr round-trips floats)
    k = 37
    x1, x2, r = curve.jets(us[k])
    assert jets[k, 0, 0] == x1.val and jets[k, 0, 1] == x1.d1
    assert jets[k, 2, 0] == r.val and jets[k, 2, 2] == r.d2


def test_curve_csv_header_names(tmp_path):
    name_cases = [
        (elliptic_circle(1.0), ["u", "x1", "x2", "r"]),
        (hyperbolic_linear_a(2.0, 0.0, 1.0, (0.5, 1.5)), ["u", "r", "x2", "x4"]),
    ]
    for curve, expected in name_cases:
        path = tmp_path / "c.csv"
        write_curve_csv(str(path), curve, samples=11)
        with open(path, newline="") as handle:
            header = next(csv.reader(handle))
        assert header[:4] == expected


def test_hyperbolic_case_recovered_from_data(tmp_path):
    curve = hyperbolic_linear_a(2.0, 0.0, 1.0, (0.5, 1.5))
    path = tmp_path / "hyp.csv"
    write_curve_csv(str(path), curve, samples=51)
    rotation, _, _ = read_curve_csv(str(path))
    assert rotation is RotationType.HYPERBOLIC_A


def test_rebuilt_curve_reproduces_validation(tmp_path):
    prof = ProfileFunction.from_text("2", (0.0, 6.28))
    params = CmcParams(C=0.25)
    curve = generate(RotationType.ELLIPTIC, prof, params, CONFIG, (0.0, 6.28))
    path = tmp_path / "cmc.csv"
    write_curve_csv(str(path), curve, samples=401)
    rebuilt = load_curve(str(path))
    assert rebuilt.rotation is RotationType.ELLIPTIC
    report = validate_surface(rebuilt, params.target_h2, "rebuilt", nu=11, nv=9)
    # round-trip budget: residuals within 1e-6 of the originals
    assert report.max_cmc_residual <= 1e-6
    assert report.max_arclength_residual <= 1e-6
    assert report.max_closed_vs_oracle <= 1e-6


def test_reloaded_curve_is_evaluated_a_column_at_a_time(tmp_path, monkeypatch):
    path = tmp_path / "circle.csv"
    write_curve_csv(str(path), elliptic_circle(2.0), samples=101)
    curve = load_curve(str(path))
    kinds, calls, sweeps = set(), [0, 0, 0], []

    def watched(k, component):
        def call(u):
            kinds.add(type(u))
            calls[k] += 1
            return component(u)
        return call

    def counted(poly, u):
        rows = sweep(poly, u)
        sweeps.append(rows.shape)
        return rows

    def no_float_query(poly, u):
        raise AssertionError(f"float query at u={u!r}")

    object.__setattr__(curve, "components",
                       tuple(watched(k, c) for k, c in enumerate(curve.components)))
    sweep = PiecewiseLegendre._column
    monkeypatch.setattr(PiecewiseLegendre, "_column", counted)
    monkeypatch.setattr(PiecewiseLegendre, "_locate", no_float_query)
    validate_surface(curve, 0.0, "reloaded", nu=9, nv=7)
    assert kinds == {np.ndarray}
    assert calls == [4, 4, 4], calls
    # one Clenshaw sweep of the nine stacked forms per column, not nine
    assert [shape[0] for shape in sweeps] == [9, 9, 9, 9], sweeps


def test_reloaded_components_share_one_panel_search_per_float(monkeypatch):
    us = np.linspace(0.0, 2.0, 9)
    curve = curve_from_samples(RotationType.ELLIPTIC, us, quintic_jets(us))
    searched = []
    locate = PiecewiseLegendre._locate
    monkeypatch.setattr(PiecewiseLegendre, "_locate",
                        lambda poly, u: searched.append(u) or locate(poly, u))
    for k, u in enumerate((0.1, 0.7, 1.3, 1.9)):
        order = [k % 3, (k + 1) % 3, (k + 2) % 3]  # any component may come first
        jets = {c: curve.components[c](u) for c in order}
        assert curve.jets(u) == (jets[0], jets[1], jets[2])
    assert searched == [0.1, 0.7, 1.3, 1.9]


def test_reloaded_components_share_one_sweep_per_column(monkeypatch):
    us = np.linspace(0.0, 2.0, 9)
    curve = curve_from_samples(RotationType.ELLIPTIC, us, quintic_jets(us))
    sweeps = []
    sweep = PiecewiseLegendre._column
    monkeypatch.setattr(PiecewiseLegendre, "_column",
                        lambda poly, u: sweeps.append(u.shape) or sweep(poly, u))
    column = np.linspace(0.1, 1.9, 5)[:, None]
    first = [c(column) for c in curve.components]
    assert sweeps == [(5, 1)]
    column[2, 0] = 0.5  # the same array, new values: a new sweep
    again = [c(column) for c in curve.components]
    assert sweeps == [(5, 1), (5, 1)]
    for u, jets in ((0.1, first), (0.5, again)):
        for component, jet in zip(curve.components, jets):
            assert [field[u == column].tolist() for field in jet] == [
                [field] for field in component(u)]


@pytest.mark.parametrize("name,curve", ALL_CURVES, ids=[n for n, _ in ALL_CURVES])
def test_column_calls_give_the_float_calls_report(name, curve, tmp_path):
    path = tmp_path / "curve.csv"
    write_curve_csv(str(path), curve, samples=201)
    columns = load_curve(str(path))
    floats = replace(columns, column=None)
    reports = [validate_surface(c, 0.0, name, nu=41, nv=41).to_json()
               for c in (columns, floats)]
    assert reports[0] == reports[1]


def test_rebuilt_hyperbolic_case_b(tmp_path):
    prof = ProfileFunction.from_text("2", (0.0, 2.0))
    params = CmcParams(C=0.3, h_sign=-1)
    curve = generate(RotationType.HYPERBOLIC_B, prof, params, CONFIG, (0.0, 2.0))
    path = tmp_path / "hypb.csv"
    write_curve_csv(str(path), curve, samples=301)
    rebuilt = load_curve(str(path))
    assert rebuilt.rotation is RotationType.HYPERBOLIC_B
    patch = build_surface(rebuilt)
    grid = shrunk_grid(rebuilt, 9, 7, patch.v_domain)
    assert check_cmc(patch, params.target_h2, grid).max_analytic <= 1e-6


def test_curve_from_samples_interpolates_jets():
    curve = elliptic_circle(1.5)
    us = [k * 2.0 * math.pi / 200 for k in range(201)]
    jets = np.array([[[j.val, j.d1, j.d2] for j in curve.jets(u)] for u in us])
    rebuilt = curve_from_samples(RotationType.ELLIPTIC, us, jets)
    for u in (0.123, 2.345, 5.67):
        for orig, interp in zip(curve.jets(u), rebuilt.jets(u)):
            assert interp.val == pytest.approx(orig.val, abs=1e-10)
            assert interp.d1 == pytest.approx(orig.d1, abs=1e-8)
            assert interp.d2 == pytest.approx(orig.d2, abs=1e-6)


#: 0.3 - 1.2u + 0.7u^2 + 2u^3 - 0.4u^4 + 0.05u^5, which a quintic Hermite
#: panel reproduces exactly
QUINTIC = np.polynomial.Polynomial([0.3, -1.2, 0.7, 2.0, -0.4, 0.05])


def quintic_jets(us):
    rows = [[QUINTIC(u), QUINTIC.deriv(1)(u), QUINTIC.deriv(2)(u)] for u in us]
    return np.array([[row, row, row] for row in rows])


def test_reloaded_quintic_is_reproduced_with_float_jets():
    us = np.linspace(0.3, 2.1, 13)
    curve = curve_from_samples(RotationType.ELLIPTIC, us, quintic_jets(us))
    assert curve.domain == (0.3, 2.1)
    for u in [0.3 + 1.8 * k / 40 for k in range(41)]:
        jet = curve.jets(u)[1]
        for got, ref in zip(jet, (QUINTIC(u), QUINTIC.deriv(1)(u), QUINTIC.deriv(2)(u))):
            assert type(got) is float
            assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref))


def test_reloaded_curve_does_not_extrapolate():
    us = np.linspace(0.0, 2.0, 9)
    curve = curve_from_samples(RotationType.ELLIPTIC, us, quintic_jets(us))
    x1 = curve.components[0]
    assert x1(2.0 + 1e-13).val == pytest.approx(QUINTIC(2.0), rel=1e-12)
    for u in (5.0, 2.0 + 1e-9, -1e-9):
        with pytest.raises(ValueError):
            x1(u)


@pytest.mark.parametrize("us, bad_jet", [
    ([0.0, 0.5, 0.5, 1.0], None),
    ([0.0, 0.5, 0.25, 1.0], None),
    ([0.0, float("nan"), 0.6, 1.0], None),
    ([0.0, 0.4, 0.6, math.inf], None),
    ([0.0, 0.4, 0.6, 1.0], (2, 1, 2)),
], ids=["repeated-u", "decreasing-u", "nan-u", "inf-u", "nan-dd"])
def test_curve_from_samples_rejects_bad_samples(us, bad_jet):
    jets = quintic_jets([0.0, 0.4, 0.6, 1.0])
    if bad_jet:
        jets[bad_jet] = math.nan
    with pytest.raises(ValueError):
        curve_from_samples(RotationType.ELLIPTIC, us, jets)


def test_unknown_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u,p,q,s\n0,1,2,3\n")
    with pytest.raises(ValueError):
        read_curve_csv(str(path))


@pytest.mark.parametrize("cell", [
    " 1.5", "1_000", "+1e3", "-0", "nan", "inf", "-Infinity", "1e400", "١٢", "\t2",
    "0x10", "", "1,5"])
def test_read_curve_csv_takes_the_cells_float_takes(cell, tmp_path):
    # the sample rows are parsed as one numpy array, which must accept and
    # reject the same cells, with the same values, as float()
    path = tmp_path / "cells.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([
            "u,x1,x2,r,dx1,dx2,dr,ddx1,ddx2,ddr".split(","),
            ["0", cell, *["1"] * 8], ["1"] * 10])
    try:
        expected = float(cell)
    except ValueError:
        with pytest.raises(ValueError):
            read_curve_csv(str(path))
        return
    _, _, jets = read_curve_csv(str(path))
    assert repr(float(jets[0, 0, 0])) == repr(expected)


@pytest.mark.parametrize("row", [["1"] * 9, ["1"] * 11, []], ids=["short", "long", "empty"])
def test_read_curve_csv_rejects_ragged_rows(row, tmp_path):
    path = tmp_path / "ragged.csv"
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows([
            "u,x1,x2,r,dx1,dx2,dr,ddx1,ddx2,ddr".split(","), ["0"] * 10, row])
    with pytest.raises(ValueError):
        read_curve_csv(str(path))


def test_surface_csv(tmp_path):
    patch = build_surface(elliptic_circle(2.0))
    path = tmp_path / "surf.csv"
    us = [0.5, 1.0]
    vs = [0.0, 1.0, 2.0]
    write_surface_csv(str(path), patch, us, vs)
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["u", "v", "x1", "x2", "x3", "x4"]
    assert len(rows) == 1 + len(us) * len(vs)
    u, v = float(rows[1][0]), float(rows[1][1])
    pos = patch.position(u, v)
    assert [float(c) for c in rows[1][2:]] == list(pos)


def test_surface_obj_vertices_and_faces(tmp_path):
    patch = build_surface(elliptic_circle(2.0))
    path = tmp_path / "surf.obj"
    us = [0.2 * k for k in range(5)]
    vs = [0.3 * k for k in range(4)]
    write_surface_obj(str(path), patch, us, vs, project=("x1", "x3", "x4"))
    verts = []
    faces = []
    comments = []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(c) for c in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(c) for c in line.split()[1:]])
        elif line.startswith("#"):
            comments.append(line)
    assert any("projection: x1,x3,x4" in c for c in comments)
    assert len(verts) == len(us) * len(vs)
    assert len(faces) == (len(us) - 1) * (len(vs) - 1)
    # vertex 0 is (u0, v0) projected to (x1, x3, x4)
    pos = patch.position(us[0], vs[0])
    assert verts[0] == [pos.x1, pos.x3, pos.x4]
    assert all(1 <= idx <= len(verts) for face in faces for idx in face)
    assert all(len(face) == 4 for face in faces)


def test_one_sample_is_a_value_error(tmp_path):
    # the sample rule needs both ends: no ZeroDivisionError, no file
    curve = elliptic_circle(2.0)
    with pytest.raises(ValueError, match="n >= 2"):
        write_curve_csv(str(tmp_path / "c.csv"), curve, samples=1)
    assert not (tmp_path / "c.csv").exists()
    with pytest.raises(ValueError, match="n >= 2"):
        validate_surface(curve, -0.25, nu=1)
