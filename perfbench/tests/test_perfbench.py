"""Tests of the benchmark itself: traced counts repeat exactly for a seed,
and every layer a workload bypasses reads exactly zero there.

    python3 -m pytest perfbench/tests -q

Each workload runs a few cheap entries of its menu, so the module takes
about a minute on two cores.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer, tracing  # noqa: E402

#: Menu entries run per workload; roundtrip's include infeasible cases.
ENTRIES = {"roundtrip": (1, 4, 6), "csv_revalidate": (3,), "curve_export": (3, 4, 6)}
SEED = 7

COUNTS = (
    "profiles.jet_calls", "profiles.jet_calls_per_fresh_u",
    "quadrature.queries", "quadrature.gauss15_calls", "quadrature.builds",
    "quadrature.panels", "quadrature.memo_entries",
    "builders.curve_queries", "builders.curve_fresh_u",
    "generator.generate_calls", "generator.validity_scans",
    "surfaces.mean_curvature_calls", "surfaces.frame_numeric_calls",
    "builders.patch_jets_calls", "validation.flagged_points",
    "io.spline_jet_calls", "io.bytes_written",
)

#: Layers each workload must not touch: the count and self-time metrics
#: that have to read exactly 0.
BYPASSED = {
    "csv_revalidate": (
        "profiles.jet_calls", "profiles.jet_s", "quadrature.queries",
        "quadrature.query_s", "quadrature.gauss15_calls", "quadrature.builds",
        "quadrature.build_s", "builders.curve_queries", "builders.curve_fresh_u",
        "builders.curve_eval_s", "generator.generate_calls", "generator.generate_s",
        "generator.validity_scans", "io.write_curve_csv_s", "io.bytes_written"),
    "curve_export": (
        "surfaces.mean_curvature_calls", "surfaces.mean_curvature_s",
        "surfaces.frame_numeric_calls", "surfaces.frame_numeric_s",
        "builders.patch_jets_calls", "builders.patch_jets_s",
        "builders.build_surface_s", "builders.h2_closed_s", "builders.degeneracy_s",
        "validation.check_cmc_s", "validation.check_arclength_s",
        "validation.check_frames_s", "validation.closed_vs_oracle_s",
        "io.load_curve_s", "io.spline_jet_calls", "io.spline_jet_s"),
    "roundtrip": (
        "io.load_curve_s", "io.spline_jet_calls", "io.spline_jet_s",
        "io.write_curve_csv_s", "io.bytes_written"),
}


def traced_entries(name: str, workdir: str) -> dict[str, float]:
    workload = workloads.WORKLOADS[name]()
    workload.setup(workdir, SEED)
    workload.menu = [workload.menu[k] for k in ENTRIES[name]]
    tracer = Tracer()
    loop = run.Loop(workload, SEED)
    with tracing(tracer):
        loop.run(0.0, passes=1, tracer=tracer)
    assert loop.attempted == len(ENTRIES[name]) and loop.failed == 0
    return tracer.per_layer()


@pytest.fixture(scope="module", params=sorted(ENTRIES))
def twice(request, tmp_path_factory):
    name = request.param
    return name, [traced_entries(name, str(tmp_path_factory.mktemp(name)))
                  for _ in range(2)]


def test_counts_repeat_for_a_seed(twice):
    _, (first, second) = twice
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}


def test_bypassed_layers_read_zero(twice):
    name, (first, _) = twice
    assert {k: first[k] for k in BYPASSED[name]} == dict.fromkeys(BYPASSED[name], 0.0)


def test_exercised_layers_are_counted(twice):
    name, (first, _) = twice
    used = {"roundtrip": ("profiles.jet_calls", "surfaces.mean_curvature_calls",
                          "generator.validity_scans"),
            "csv_revalidate": ("io.spline_jet_calls", "builders.patch_jets_calls",
                               "surfaces.frame_numeric_calls"),
            "curve_export": ("quadrature.panels", "builders.curve_fresh_u",
                             "io.bytes_written")}[name]
    assert all(first[k] > 0 for k in used)


def test_tracing_restores_the_program():
    from cmcsurf import profiles, validation

    before = (profiles.ProfileFunction.jet, validation.mean_curvature)
    with tracing(Tracer()):
        assert validation.mean_curvature is not before[1]
    assert (profiles.ProfileFunction.jet, validation.mean_curvature) == before


def test_tail_keeps_ten_ops_beyond_it_once_there_are_enough():
    assert run.tail([float(k) for k in range(9)]) == (8.0, 100.0)
    assert run.tail([float(k) for k in range(40)]) == (35.0, 90.0)
    assert run.tail([float(k) for k in range(200)]) == (189.0, 95.0)


def test_refuses_a_thread_pool(monkeypatch):
    monkeypatch.setenv("CMC_THREADS", "4")
    assert run.main(["--workload", "roundtrip", "--seed", "1", "--seconds", "1"]) == 2


def test_metric_names_match_benchmark_json(twice):
    _, (first, _) = twice
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    loop = run.Loop(None, SEED)
    loop.times, loop.attempted, loop.cmc, loop.arc = [1.0, 2.0], 2, [1e-12], [1e-13]
    end_to_end, _ = run.summarise(loop, 1.0)
    assert [m["name"] for m in spec["end_to_end"]] == [
        name for name in end_to_end if name != "fail_ratio"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (_, unit) in end_to_end.items() if name != "fail_ratio"}
    assert [m["name"] for m in spec["per_layer"]] == [*first, "trace.overhead_ratio"]
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
