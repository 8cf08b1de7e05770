"""CSV and OBJ export plus curve reconstruction from samples.

Curve CSV layout (RFC-4180-style, '.' decimal separator): one header row
naming ``u``, the three type-appropriate components, then their first and
second derivatives with ``d``/``dd`` prefixes, e.g.

    u,x1,x2,r,dx1,dx2,dr,ddx1,ddx2,ddr

The component names identify the rotation type on re-read; for hyperbolic
curves the case (A/B) is recovered from the sign of (r')^2 - 1 in the
data.  Reconstruction uses piecewise quintic Hermite interpolation that
matches value and both stored derivatives at every sample, so a re-read
curve reproduces validation results to the sampling resolution.  The
splines are one ``quadrature.PiecewiseLegendre``, the evaluator of
generated curves, so neither kind of curve extrapolates: nine forms
(value, d1 and d2 of each component) stacked on the sample panels.  A
reloaded curve's jets come from one function that makes one query of the
stacked forms, the same call for a float u (one panel search and nine
Clenshaw sums, as a list) and for a u column (one sweep of all nine
forms), which its three components share (``builders.shared_components``);
its ``GeneratingCurve.column`` calls the components, so validation
evaluates it a column at a time, as it does a generated curve.
``write_curve_csv`` still queries the curve one float sample at a time
(see its docstring).

OBJ export projects the 4-coordinate samples to three viewing axes; the
projection is recorded in a comment and carries no geometric claim.
"""

from __future__ import annotations

import csv
import os
import tempfile
from io import StringIO
from typing import Sequence

import numpy as np

from .builders import SPECS, GeneratingCurve, RotationType, component_columns, shared_components
from .geometry import _new, uniform
from .profiles import Jet2
from .quadrature import PiecewiseLegendre
from .surfaces import SurfacePatch

COORD_NAMES = ("x1", "x2", "x3", "x4")


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _header(names: Sequence[str]) -> list[str]:
    return ["u"] + list(names) + [f"d{c}" for c in names] + [f"dd{c}" for c in names]


def write_curve_csv(path: str, curve: GeneratingCurve, samples: int = 401) -> None:
    """Sample the curve jets on a uniform grid and write them as CSV, one
    float query per sample.  One column query writes the same bytes (all
    27 ``curve_export`` cases of ``perfbench``, 33 samples each) in about
    the same time: generate plus write of the 27 in one process took a
    median 107.6 ms this way and 103.5 ms by column, over 7 alternating
    runs on 2 shared cores, each way spread over 80-150 ms.  But a column
    query goes around a generated curve's components, which
    ``perfbench/spans.py`` wraps only after ``generate`` returns, so its
    ``builders.curve_fresh_u`` counter would read 0."""
    rows = [_header(SPECS[curve.rotation].names)]
    for u in uniform(*curve.domain, samples):
        jets = curve.jets(u)
        rows.append([repr(u)]
                    + [repr(j.val) for j in jets]
                    + [repr(j.d1) for j in jets]
                    + [repr(j.d2) for j in jets])
    out = StringIO()
    csv.writer(out).writerows(rows)
    _atomic_write(path, out.getvalue())


def read_curve_csv(path: str) -> tuple[RotationType, np.ndarray, np.ndarray]:
    """Read a curve CSV; returns (rotation, u samples, jets[n, 3, 3]).

    jets[i, k] holds (value, d1, d2) of component k at u[i].  Raises
    ValueError for a header that is not a rotation type's curve header, for
    fewer than 2 sample rows, and for rows that are not numbers or do not
    match the header.
    """
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    names = tuple(rows[0][1:4]) if rows else ()
    matches = [rot for rot, spec in SPECS.items() if spec.names == names]
    if not matches or rows[0] != _header(names):
        raise ValueError(f"unrecognized curve header {rows[:1]!r} in {path}")
    if len(rows) < 3:
        raise ValueError(f"{path} has {len(rows) - 1} sample rows; need at least 2")
    if any(len(row) != len(rows[0]) for row in rows[1:]):
        raise ValueError(f"sample rows of {path} do not match its header")
    data = np.array(rows[1:], dtype=float)
    rotation = matches[0]
    if len(matches) > 1:  # the hyperbolic cases share names; the slope picks one
        slopes = data[:, 4]  # column "dr"
        case_sign = 1 if float(np.median(slopes * slopes - 1.0)) > 0.0 else -1
        rotation = next(rot for rot in matches if SPECS[rot].case_sign == case_sign)
    # columns (value, d1, d2) x component, read as [n, component, (value, d1, d2)]
    return rotation, data[:, 0], data[:, 1:].reshape(-1, 3, 3).swapaxes(1, 2)


def curve_from_samples(rotation: RotationType, us: Sequence[float],
                       jets: np.ndarray) -> GeneratingCurve:
    """Rebuild a GeneratingCurve from sampled jets.

    Each component becomes a quintic Hermite spline matching value and
    both derivatives at every sample; the jets of the rebuilt curve come
    from the spline and its analytic derivatives (no differencing), all
    nine stacked in one ``PiecewiseLegendre``.  One function gives the
    three jets from one query of it: at a float u the list of all nine
    forms (one panel search, then nine Clenshaw sums), at an ndarray of u
    one sweep of the nine, as Jet2s of arrays of its shape.  The three
    components share its one call per u, and the curve's column is
    ``component_columns``, so a column is one sweep and a fresh float u
    one panel search.
    Raises ValueError unless ``us`` is finite and strictly increasing and
    every jet is finite.
    """
    us = np.asarray(us, dtype=float)
    if not (len(us) >= 2 and np.all(np.diff(us) > 0.0)
            and np.isfinite(us).all() and np.isfinite(jets).all()):
        raise ValueError("curve samples need finite jets at finite, strictly increasing u")
    form = PiecewiseLegendre.hermite(us, jets)

    def curve_jets(u) -> tuple[Jet2, Jet2, Jet2]:
        rows = form(u)
        return tuple(_new(Jet2, tuple(rows[k:k + 3])) for k in (0, 3, 6))

    return GeneratingCurve(rotation, shared_components(curve_jets),
                           (float(us[0]), float(us[-1])), column=component_columns)


def load_curve(path: str) -> GeneratingCurve:
    """read_curve_csv + curve_from_samples in one step."""
    rotation, us, jets = read_curve_csv(path)
    return curve_from_samples(rotation, us, jets)


def _grid_positions(patch: SurfacePatch, us: Sequence[float],
                    vs: Sequence[float]) -> list[list[list[float]]]:
    """For each u the (x1, x2, x3, x4) floats at each v, equal to the float
    calls', from one ``patch.position`` call on the broadcast grid."""
    shape = (len(us), len(vs))
    p = patch.position(np.array(us)[:, None], np.array(vs)[None, :])
    return np.stack([np.broadcast_to(c, shape) for c in p], axis=-1).tolist()


def write_surface_csv(path: str, patch: SurfacePatch,
                      us: Sequence[float], vs: Sequence[float]) -> None:
    """Write grid samples of the patch as u,v,x1,x2,x3,x4 rows."""
    out = StringIO()
    writer = csv.writer(out)
    writer.writerow(["u", "v"] + list(COORD_NAMES))
    for u, row in zip(us, _grid_positions(patch, us, vs)):
        for v, p in zip(vs, row):
            writer.writerow([repr(u), repr(v), *map(repr, p)])
    _atomic_write(path, out.getvalue())


def write_surface_obj(path: str, patch: SurfacePatch,
                      us: Sequence[float], vs: Sequence[float],
                      project: tuple[str, str, str] = ("x1", "x3", "x4")) -> None:
    """Write an OBJ mesh of the sampled patch.

    The three projection axes are a viewing aid only; they are recorded in
    a leading comment.  Faces are the grid quads, 1-indexed.
    """
    idx = [COORD_NAMES.index(name) for name in project]
    lines = ["# cmcsurf surface export", f"# projection: {','.join(project)}"]
    for row in _grid_positions(patch, us, vs):
        for p in row:
            lines.append("v " + " ".join(repr(p[i]) for i in idx))
    nv = len(vs)
    for i in range(len(us) - 1):
        for j in range(nv - 1):
            a = i * nv + j + 1
            b = a + 1
            c = (i + 1) * nv + j + 2
            d = c - 1
            lines.append(f"f {a} {b} {c} {d}")
    _atomic_write(path, "\n".join(lines) + "\n")
