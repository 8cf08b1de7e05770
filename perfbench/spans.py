"""Span tracing for the per-layer run of the benchmark.

The traced run wraps the public functions of each ``cmcsurf`` module from
outside the program.  Every wrapped call records a span: its name, start,
end, parent span and the id of the benchmark op it belongs to.  A function
is wrapped at the name its caller looks it up by (``validation.mean_curvature``
rather than ``surfaces.mean_curvature``), and the objects the program hands
back -- generated and reloaded curves, surface patches -- get their jet
functions wrapped in place, so no counted call escapes a span.

Spans are kept in flat arrays while an op runs.  When the op ends they are
folded into per-name call counts and self times (span time minus the time
covered by child spans) and the arrays are cleared, so memory stays bounded
by the largest op.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from contextlib import contextmanager

from cmcsurf import generator, io, profiles, quadrature, validation

# span names
JET = "profiles.jet"
QUERY = "quadrature.query"
BUILD = "quadrature.build"
GAUSS15 = "quadrature.gauss15"
CURVE_EVAL = "builders.curve_eval"
PATCH_JETS = "builders.patch_jets"
SPLINE_JET = "io.spline_jet"


class Tracer:
    """Collects spans for the op in progress and folds them per op."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._clear()
        self._stack: list[int] = []
        self.op_id = -1
        self.ops = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._quadratures: list = []

    def _clear(self):
        self.name = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        return nid

    def wrap(self, name: str, fn, after=None):
        """``fn`` wrapped in a span; ``after(result, args)`` sees each result."""
        nid = self.name_id(name)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.op_id)
            self.child.append(0.0)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                t = time.perf_counter()
                stack.pop()
                self.end[idx] = t
                p = self.parent[idx]
                if p >= 0:
                    self.child[p] += t - self.start[idx]
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def begin_op(self, op_id: int):
        self.op_id = op_id

    def end_op(self):
        """Fold the finished op's spans into the totals."""
        build, gauss, jet, curve = (self.name_id(n) for n in (BUILD, GAUSS15, JET, CURVE_EVAL))
        under_curve = bytearray(len(self.name))
        for i, nid in enumerate(self.name):
            p = self.parent[i]
            under_curve[i] = nid == curve or (p >= 0 and under_curve[p])
            label = self._names[nid]
            self.calls[label] += 1
            self.self_s[label] += self.end[i] - self.start[i] - self.child[i]
            if nid == gauss and p >= 0 and self.name[p] == build:
                self.counts["quadrature.panels"] += 1
            elif nid == jet and under_curve[i]:
                self.counts["profiles.jet_calls_under_curve"] += 1
        self.counts["quadrature.memo_entries"] += sum(len(q._cache) for q in self._quadratures)
        self._quadratures.clear()
        self._clear()
        self.ops += 1
        self.op_id = -1

    def per_layer(self) -> dict[str, float]:
        """Per-op counts and self times of every layer the benchmark names."""
        n = max(self.ops, 1)
        fresh = self.counts["builders.curve_fresh_u"]
        out = {
            "profiles.jet_calls": self.calls[JET] / n,
            "profiles.jet_s": self.self_s[JET] / n,
            "profiles.jet_calls_per_fresh_u":
                self.counts["profiles.jet_calls_under_curve"] / fresh if fresh else 0.0,
        }
        for metric, span in (
            ("quadrature.queries", QUERY),
            ("quadrature.gauss15_calls", GAUSS15),
            ("quadrature.builds", BUILD),
            ("builders.curve_queries", CURVE_EVAL),
            ("generator.generate_calls", "generator.generate"),
            ("generator.validity_scans", "generator.validity_scan"),
            ("surfaces.mean_curvature_calls", "surfaces.mean_curvature"),
            ("surfaces.frame_numeric_calls", "surfaces.frame_numeric"),
            ("builders.patch_jets_calls", PATCH_JETS),
            ("io.spline_jet_calls", SPLINE_JET),
        ):
            out[metric] = self.calls[span] / n
        for span in (
            QUERY, GAUSS15, BUILD, CURVE_EVAL, "generator.generate", "generator.validity_scan",
            "surfaces.mean_curvature", "surfaces.frame_numeric", PATCH_JETS,
            "builders.build_surface", "builders.h2_closed", "builders.degeneracy",
            "validation.check_cmc", "validation.check_arclength",
            "validation.check_frames", "validation.closed_vs_oracle",
            "io.load_curve", SPLINE_JET, "io.write_curve_csv",
        ):
            out[_self_metric(span)] = self.self_s[span] / n
        for counter in ("quadrature.panels", "quadrature.memo_entries",
                        "builders.curve_fresh_u", "validation.flagged_points",
                        "io.bytes_written"):
            out[counter] = self.counts[counter] / n
        return out


def _self_metric(span: str) -> str:
    renamed = {QUERY: "quadrature.query_s", CURVE_EVAL: "builders.curve_eval_s",
               "generator.validity_scan": "generator.validity_s"}
    return renamed.get(span, span + "_s")


@contextmanager
def tracing(tracer: Tracer):
    """Install the wrappers for the duration of the block, then restore."""
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr, name, after=None):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(name, original, after))

    def wrap_components(curve, name, fresh_counter=None):
        seen: set[float] = set()

        def count_fresh(_result, args):
            u = args[0]
            if u not in seen:
                seen.add(u)
                tracer.counts[fresh_counter] += 1

        after = count_fresh if fresh_counter else None
        wrapped = tuple(tracer.wrap(name, c, after) for c in curve.components)
        object.__setattr__(curve, "components", wrapped)

    def generated(curve, _args):
        wrap_components(curve, CURVE_EVAL, "builders.curve_fresh_u")

    def loaded(curve, _args):
        wrap_components(curve, SPLINE_JET)

    def patch_built(patch_obj, _args):
        object.__setattr__(patch_obj, "jets", tracer.wrap(PATCH_JETS, patch_obj.jets))

    def reported(report, _args):
        tracer.counts["validation.flagged_points"] += len(report.flagged_points)

    def written(_result, args):
        tracer.counts["io.bytes_written"] += os.path.getsize(args[0])

    def built(_result, args):
        tracer._quadratures.append(args[0])

    try:
        patch(profiles.ProfileFunction, "jet", JET)
        patch(quadrature, "gauss15", GAUSS15)
        patch(quadrature.CumulativeIntegral, "__init__", BUILD, built)
        patch(quadrature.CumulativeIntegral, "__call__", QUERY)
        for module in (generator, validation):
            patch(module, "generate", "generator.generate", generated)
            patch(module, "domain_validity", "generator.validity_scan")
        patch(validation, "validate_surface", "validation.validate_surface", reported)
        patch(validation, "build_surface", "builders.build_surface", patch_built)
        patch(validation, "h2_closed", "builders.h2_closed")
        patch(validation, "hyperplane_degeneracy", "builders.degeneracy")
        patch(validation, "mean_curvature", "surfaces.mean_curvature")
        patch(validation, "frame_numeric", "surfaces.frame_numeric")
        for check in ("check_cmc", "check_arclength", "check_frames", "closed_vs_oracle"):
            patch(validation, check, "validation." + check)
        patch(io, "load_curve", "io.load_curve", loaded)
        patch(io, "write_curve_csv", "io.write_curve_csv", written)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
