"""Benchmark of ``cmcsurf`` through its public API.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 20 --trace 0

One process, one thread, one caller in a closed loop: the next op starts
when the previous one has returned.  Times are CPU time of this process
(``time.process_time``): the program runs on one thread, and on a shared
machine wall time mostly measures the other tenants.  The run

1. imports the package from ``src/`` next to this directory, then sets the
   workload up three times (profile parsing, fixture CSVs, one small untimed
   warm-up op) and reports the median as ``setup_s``;
2. runs passes over the workload's menu, each with inputs drawn from the
   seed, until the next pass would end further from ``--seconds`` than
   stopping now;
3. checks every op's output and counts failures instead of raising them.

With ``--trace 0`` it reports the end-to-end metrics.  With ``--trace 1`` it
runs the same passes untraced, then traced (see ``spans.py``), and reports
the per-layer metrics.  Human-readable lines (provenance, a metric table)
come first; the last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``op_tail_s`` is the op time with ``min(10, n // 10)`` of the run's ``n`` ops
above it: from 110 ops on, the highest percentile with ten ops beyond it;
in shorter runs, where that percentile would fall toward the median, p90 by
rank (the slowest op below ten ops).  The table states the percentile.

The run refuses to start when ``CMC_THREADS`` is set to anything but 1 or
when the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3
#: Wall time after start at which a run stops mid-pass, to stay inside the
#: three minutes any one run is allowed.
DEADLINE_S = 150.0


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    def git(*cmd):
        try:
            out = subprocess.run(["git", "-C", ROOT, *cmd], capture_output=True,
                                 text=True, timeout=20, check=True)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip()

    in_repo = git("rev-parse", "--show-toplevel") == ROOT
    digest = hashlib.sha256()
    package = os.path.join(SRC, "cmcsurf")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), "rb") as handle:
                digest.update(name.encode() + b"\0" + handle.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "git_sha": git("rev-parse", "HEAD") if in_repo else None,
        "git_dirty": bool(git("status", "--porcelain")) if in_repo else None,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "seed": seed,
    }


def tail(times: list[float]) -> tuple[float, float]:
    """(op_tail_s, its percentile) -- see the module docstring."""
    ordered = sorted(times)
    n = len(ordered)
    beyond = min(10, n // 10)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n


class Loop:
    """Timed passes over a workload's menu, with every output checked."""

    def __init__(self, workload, seed: int, deadline: float = math.inf):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.cmc: list[float] = []
        self.arc: list[float] = []

    def run(self, seconds: float, passes: int | None = None, tracer=None) -> int:
        """Run ``passes`` passes, or as many as fit ``seconds``; returns the
        number of passes started."""
        from workloads import OpResult, draw_pass

        elapsed = 0.0
        done = 0
        while passes is None or done < passes:
            for op in draw_pass(self.workload.menu, self.seed, done):
                if tracer is not None:
                    tracer.begin_op(self.attempted)
                self.attempted += 1
                start = time.process_time()
                try:
                    out = self.workload.call(op)
                except Exception:
                    took = time.process_time() - start
                    result = OpResult(False, detail=traceback.format_exc())
                else:
                    took = time.process_time() - start
                    try:
                        result = self.workload.check(op, out)
                    except Exception:
                        result = OpResult(False, detail=traceback.format_exc())
                if tracer is not None:
                    tracer.end_op()
                self.times.append(took)
                elapsed += took
                if not result.ok:
                    self.failed += 1
                    print(f"FAILED {op.case} {op.params}: {result.detail}", file=sys.stderr)
                if result.cmc_residual is not None:
                    self.cmc.append(result.cmc_residual)
                    self.arc.append(result.arclength_residual)
                if time.monotonic() >= self.deadline:
                    return done + 1
            done += 1
            if passes is None and elapsed + 0.5 * elapsed / done >= seconds:
                break
        return done


def end_to_end(workload, seed: int, seconds: float, import_s: float, workdir: str,
               deadline: float):
    setups = []
    for k in range(SETUP_REPEATS):
        target = os.path.join(workdir, f"setup{k}")
        os.makedirs(target)
        start = time.process_time()
        workload.setup(target, seed)
        setups.append(import_s + time.process_time() - start)
    gc.collect()
    loop = Loop(workload, seed, deadline)
    loop.run(seconds)
    metrics, notes = summarise(loop, statistics.median(setups))
    notes["setup_s"] = f"median of {SETUP_REPEATS} set-ups, start-up {import_s:.3f} s"
    return loop, metrics, notes


def summarise(loop: Loop, setup_s: float):
    """End-to-end metrics of a finished loop: {name: (value, unit)}, notes."""
    from workloads import digits

    op_tail, pct = tail(loop.times)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((loop.attempted - loop.failed) / sum(loop.times), "1/s"),
        "op_p50_s": (statistics.median(loop.times), "s"),
        "op_tail_s": (op_tail, "s"),
        "fail_ratio": (loop.failed / loop.attempted, "ratio"),
        "cmc_digits": (digits(max(loop.cmc, default=1.0)), "digits"),
        "arclength_digits": (digits(max(loop.arc, default=1.0)), "digits"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, {"op_tail_s": f"p{pct:.1f} of {len(loop.times)} ops"}


def per_layer(workload, seed: int, seconds: float, workdir: str, deadline: float):
    from spans import Tracer, tracing

    workload.setup(workdir, seed)
    gc.collect()
    plain = Loop(workload, seed, deadline)
    passes = plain.run(seconds)
    tracer = Tracer()
    traced = Loop(workload, seed, deadline)
    with tracing(tracer):
        traced.run(seconds, passes=passes, tracer=tracer)
    layers = tracer.per_layer()
    layers["trace.overhead_ratio"] = (sum(traced.times)
                                      / sum(plain.times[:len(traced.times)]))
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    notes = {"trace.overhead_ratio": f"{passes} pass(es) each way, {traced.attempted} ops"}
    loop = plain
    loop.attempted += traced.attempted
    loop.failed += traced.failed
    return loop, metrics, notes


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "io.bytes_written":
        return "B"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name == "profiles.jet_calls_per_fresh_u":
        return "calls/u"
    return "count"


def main(argv: list[str] | None = None) -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if os.environ.get("CMC_THREADS", "1") != "1":
        print("CMC_THREADS must be unset or 1: the thread pool changes timings",
              file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(SRC, "cmcsurf", "__init__.py")):
        print(f"no cmcsurf source under {SRC}", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, SRC)
    import cmcsurf
    import workloads

    import_s = time.process_time()  # interpreter start-up and imports
    if not cmcsurf.__file__.startswith(SRC + os.sep):
        print(f"cmcsurf imported from {cmcsurf.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]()
    print(json.dumps({"provenance": provenance(args.seed),
                      "workload": args.workload, "trace": args.trace}))

    workdir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(workdir)
    try:
        if args.trace:
            loop, metrics, notes = per_layer(workload, args.seed, args.seconds,
                                             workdir, deadline)
        else:
            loop, metrics, notes = end_to_end(workload, args.seed, args.seconds,
                                              import_s, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        print(f"{args.workload:15s} {name:36s} {value:14.6g} {unit:8s} {note}")
    reported = {name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items() if name != "fail_ratio"}
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted,
                      "failed": loop.failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
