"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/baseline.py --seeds 10 --out perfbench/baseline.json

For every workload in ``BENCHMARK.json`` it runs ``run.py`` once per seed
(seeds 1..N, one process at a time) with tracing off, then once traced on
seed 1, and records each metric's median, quartiles and spread (the
distance between the quartiles as a share of the median), together with
the provenance of the first run.  Later changes compare their own runs of
the same command against these numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0])["provenance"], json.loads(lines[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    out = {"command": spec["command"], "run_seconds": spec["run_seconds"], "workloads": {}}
    for entry in spec["workloads"]:
        name = entry["name"]
        values: dict[str, list[float]] = {}
        for seed in range(1, args.seeds + 1):
            prov, result = run_once(name, seed, spec["run_seconds"], 0)
            if not result["correct"]:
                raise SystemExit(f"{name} seed {seed}: incorrect output")
            out.setdefault("provenance", prov)
            for metric, item in result["metrics"].items():
                values.setdefault(metric, []).append(item["value"])
            print(name, seed, {k: round(v[-1], 4) for k, v in values.items()}, flush=True)
        _, traced = run_once(name, 1, spec["run_seconds"], 1)
        out["workloads"][name] = {
            "why": entry["why"],
            "end_to_end": {k: summary(v) for k, v in values.items()},
            "per_layer_seed_1": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    out["provenance"].pop("seed", None)
    with open(args.out, "w") as handle:
        json.dump(out, handle, indent=1)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
