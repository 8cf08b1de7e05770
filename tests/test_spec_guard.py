"""Cross-commit guard for the per-type facts of the rotation-spec table.

One small curve per rotation type is generated at default quadrature
settings and observed at three (u, v) points: the curve jets, the patch
jets, the closed-form <H, H>, the twist, the arc-length residual and (for
the elliptic and hyperbolic types) the closed-form frame.  The reference
values in ``spec_guard_reference.json`` were recorded from the
implementation that branched on the rotation type at every call site,
before the SPECS table replaced those branches; a swapped trig pair, a
wrong sign or a wrong component slot in the table moves them by O(1).

The comparison uses a 1e-13 tolerance rather than equality, so that a
reordering of the arithmetic does not trip it.  To re-record the
reference after an intended numerical change, run this file as a script.
"""

import json
import math
import os

import pytest

from cmcsurf.builders import (
    RotationType,
    build_surface,
    elliptic_frame,
    h2_closed,
    hyperbolic_frame,
)
from cmcsurf.generator import CmcParams, generate
from cmcsurf.profiles import ProfileFunction

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "spec_guard_reference.json")

CASES = {
    "elliptic": (RotationType.ELLIPTIC, "1+u/2", (0.0, 1.0), CmcParams(C=0.5)),
    "hyperbolicA": (RotationType.HYPERBOLIC_A, "u^2", (1.0, 1.5),
                    CmcParams(C=0.5, eta=-1, phi0=0.2)),
    "hyperbolicB": (RotationType.HYPERBOLIC_B, "1+u/4", (0.0, 1.0),
                    CmcParams(C=0.3, h_sign=-1, c1=0.1)),
    "parabolic": (RotationType.PARABOLIC, "u", (0.5, 1.0), CmcParams(C=0.5)),
}
FRAMES = {RotationType.ELLIPTIC: elliptic_frame,
          RotationType.HYPERBOLIC_A: hyperbolic_frame,
          RotationType.HYPERBOLIC_B: hyperbolic_frame}
POINTS = ((0.2, 0.3), (0.5, 1.1), (0.8, 1.7))  # (fraction of the u domain, v)


def observe(name: str) -> list[dict[str, list[float]]]:
    rotation, text, interval, params = CASES[name]
    curve = generate(rotation, ProfileFunction.from_text(text, interval), params,
                     None, interval)
    patch = build_surface(curve)
    out = []
    for frac, v in POINTS:
        u = interval[0] + (interval[1] - interval[0]) * frac
        pj = patch.jets(u, v)
        row = {
            "jets": [x for jet in curve.jets(u) for x in jet],
            "patch": [x for vec in (pj.position, pj.z_u, pj.z_v, pj.z_uu, pj.z_uv, pj.z_vv)
                      for x in vec],
            "scalars": [h2_closed(curve, u), curve.twist(u), curve.arclength_residual(u)],
        }
        if rotation in FRAMES:
            f = FRAMES[rotation](curve, u, v)
            row["frame"] = [x for vec in (f.X, f.Y, f.n1, f.n2) for x in vec] + [
                float(f.eps1), float(f.eps2)]
        out.append(row)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_spec_table_reproduces_reference(name):
    with open(REFERENCE) as handle:
        reference = json.load(handle)[name]
    got = observe(name)
    assert len(got) == len(reference)
    for got_row, ref_row in zip(got, reference):
        assert sorted(got_row) == sorted(ref_row)
        for key, ref_values in ref_row.items():
            assert len(got_row[key]) == len(ref_values)
            for g, r in zip(got_row[key], ref_values):
                assert math.isclose(g, r, rel_tol=1e-13, abs_tol=1e-13), (key, g, r)


if __name__ == "__main__":
    with open(REFERENCE, "w") as handle:  # one line per case
        handle.write("{\n" + ",\n".join(f"{json.dumps(name)}: {json.dumps(observe(name))}"
                                         for name in sorted(CASES)) + "\n}\n")
