"""High-precision reference values of generated curves.

Run as a script to regenerate ``mp_reference.json`` (needs mpmath):

    python3 tests/mp_reference.py

The paper's turning equations are written out again here in mpmath at 30
digits, independently of ``cmcsurf``.  The turning function (phi, or psi
for parabolic curves) is an ``mp.quad`` from the base point u0, and each
non-profile component is an ``mp.quad`` of its slope, whose integrand runs
the inner quadrature at every node: the same nesting as the generator.
Derivatives of the components come from the slope identities, so the
reference holds (value, d1, d2) of all three components at 5 interior
points of each case.  Values are stored as 30-digit strings.
"""

from __future__ import annotations

import json
import os

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "mp_reference.json")
FRACTIONS = (0.1, 0.3, 0.5, 0.7, 0.9)

#: name -> (rotation, profile, interval, C, h_sign, eta): criterion-2 cases,
#: one or more per rotation type, whose validity covers the whole interval;
#: the parabolic "u^2" has f'' != 0.  The four feasible cases of the
#: benchmark's roundtrip workload are among them.
CASES = {
    "elliptic:1+u/2": ("elliptic", "1+u/2", (0.0, 3.0), 0.1, 1, 1),
    "elliptic:2": ("elliptic", "2", (0.0, 6.28), 0.1, -1, 1),
    "elliptic:2,h_sign=+1": ("elliptic", "2", (0.0, 6.28), 0.1, 1, 1),
    "hyperbolicA:2*u": ("hyperbolicA", "2*u", (0.5, 2.5), 0.5, 1, -1),
    "hyperbolicB:2": ("hyperbolicB", "2", (0.0, 2.0), 0.1, 1, 1),
    "parabolic:u": ("parabolic", "u", (0.5, 2.0), 0.5, 1, 1),
    "parabolic:u^2": ("parabolic", "u^2", (0.5, 1.8), 0.5, 1, 1),
}


def _profile_jet(mp, text):
    """(r, r', r'') of the case profiles, differentiated by hand."""
    return {
        "1+u/2": lambda u: (1 + u / 2, mp.mpf(1) / 2, mp.mpf(0)),
        "2": lambda u: (mp.mpf(2), mp.mpf(0), mp.mpf(0)),
        "2*u": lambda u: (2 * u, mp.mpf(2), mp.mpf(0)),
        "u": lambda u: (u, mp.mpf(1), mp.mpf(0)),
        "u^2": lambda u: (u * u, 2 * u, mp.mpf(2)),
    }[text]


def _equations(mp, rotation, jet, C, h_sign, eta):
    """turning(u) and slopes(u, t, dt) -> ((x', x''), (y', y'')) of one type."""
    if rotation == "parabolic":
        def turning(u):
            f, f1, f2 = jet(u)
            log_slope = (f * f2 + f1 * f1) / (f * f1)
            return eta * mp.sqrt(log_slope**2 + 4 * h_sign * C * C) / f1

        def slopes(u, psi, dpsi):
            f, f1, f2 = jet(u)
            p, dp = f1 * psi, f2 * psi + f1 * dpsi
            return ((p, dp), ((p * p - 1) / (2 * f1),
                              p * dp / f1 - (p * p - 1) * f2 / (2 * f1 * f1)))

        return turning, slopes

    s, sw, t1, t2, d1, d2 = {
        "elliptic": (1, 1, mp.cos, mp.sin, lambda x: -mp.sin(x), mp.cos),
        "hyperbolicA": (-1, 1, mp.sinh, mp.cosh, mp.cosh, mp.sinh),
        "hyperbolicB": (-1, -1, mp.cosh, mp.sinh, mp.sinh, mp.cosh),
    }[rotation]

    def turning(u):
        r, r1, r2 = jet(u)
        k = r1 * r1 + s
        q = r * r2 + k
        return eta * mp.sqrt(q * q + 4 * h_sign * C * C * r * r * k) / (r * k)

    def slopes(u, phi, dphi):
        r, r1, r2 = jet(u)
        w = mp.sqrt(sw * (r1 * r1 + s))
        wp = sw * r1 * r2 / w
        return ((w * t1(phi), wp * t1(phi) + w * d1(phi) * dphi),
                (w * t2(phi), wp * t2(phi) + w * d2(phi) * dphi))

    return turning, slopes


def reference_case(name):
    import mpmath

    mp = mpmath.mp
    mp.dps = 30
    rotation, text, (a, b), C, h_sign, eta = CASES[name]
    jet = _profile_jet(mp, text)
    turning, slopes = _equations(mp, rotation, jet, mp.mpf(C), h_sign, eta)
    u0 = mp.mpf(a)
    memo = {}

    def t(u):  # phi0 = 0
        if u not in memo:
            memo[u] = mp.quad(turning, [u0, u])
        return memo[u]

    def component(i, u):  # c1 = c2 = 0
        return mp.quad(lambda x: slopes(x, t(x), turning(x))[i][0], [u0, u])

    profile_slot = {"elliptic": 2, "parabolic": 1}.get(rotation, 0)
    rows = []
    for frac in FRACTIONS:
        u = mp.mpf(a + (b - a) * frac)  # the float the test evaluates at, exactly
        pairs = slopes(u, t(u), turning(u))
        jets = [(component(i, u), *pairs[i]) for i in (0, 1)]
        jets.insert(profile_slot, jet(u))
        rows.append({"u": float(u), "jets": [[mp.nstr(x, 30) for x in j] for j in jets]})
    return rows


if __name__ == "__main__":
    with open(REFERENCE, "w") as handle:  # one line per point
        handle.write("{\n" + ",\n".join(
            f"{json.dumps(name)}: [\n"
            + ",\n".join(json.dumps(row) for row in reference_case(name)) + "]"
            for name in CASES) + "\n}\n")
