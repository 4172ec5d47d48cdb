"""Runs one workload: a closed loop of timed set-ups and passes, checks, metrics.

One caller runs the passes back to back; each starts only after the
previous one and its checks have ended. Every pass runs on inputs set up
afresh just before it, so the set-up times are sampled across the whole
run, like the pass times, and not only at its start. A pass is one
operation: it fails when it raises or when any of its checks fails.

An untraced run reports the end-to-end metrics. A traced run first repeats
the untraced loop for half its time, then traces the other half, and
reports the per-layer metrics together with the gap between the two
loops' median pass times.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy as np

from meemi import retrieval

import tracing
from workloads import WORKLOADS, Checks

MIN_PASSES = 3
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MiB"),
              ("ops_ok_frac", "frac"), ("p1_cos", "frac")]


def _git_sha(root: Path) -> str | None:
    """HEAD of ``root`` when it is the top of a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def _blas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        return None


def environment(root: Path, workload, seed: int) -> dict:
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": _blas_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "MEEMI_THREADS": os.environ.get("MEEMI_THREADS"),
        "worker_count": retrieval.worker_count(),
        "sizes": workload.sizes,
        "seed": seed,
    }


class Runner:
    def __init__(self, workload, seed: int, workdir: Path, tracer=None):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.inputs = None
        self.tracer = tracer
        self.checks = Checks()
        self.quality: dict | None = None
        self.digests: dict | None = None
        self.setup_times: list[float] = []
        self.passes = 0
        self.failed_passes = 0

    def setup(self) -> None:
        self.inputs = None
        gc.collect()
        start = time.perf_counter()
        self.inputs = self.workload.setup(self.seed, self.workdir)
        self.setup_times.append(time.perf_counter() - start)

    def one_pass(self, traced: bool) -> float:
        """Sets up, runs and checks one pass; returns the pass's wall time."""
        self.setup()
        failures = len(self.checks.failures)
        wall = self._run_and_check(traced)
        if len(self.checks.failures) > failures:
            self.failed_passes += 1
        return wall

    def _run_and_check(self, traced: bool) -> float:
        first = self.passes == 0
        self.passes += 1
        gc.collect()  # every pass starts from the same heap, not from the last pass's garbage
        if traced:
            self.tracer.pass_id = self.passes
        start = time.perf_counter()
        try:
            out = self.workload.run_pass(self.inputs)
        except Exception as exc:  # a failing pass is a failed operation, not a crash
            traceback.print_exc()
            self.checks.expect(repr(exc), f"pass {self.passes} ran")
            out = None
        wall = time.perf_counter() - start
        if traced:
            self.tracer.pass_id = None
        if out is None:
            return wall
        try:
            quality, digests = self.workload.check(self.inputs, out, self.checks, first)
        except Exception as exc:  # output too broken to check
            traceback.print_exc()
            self.checks.expect(repr(exc), f"pass {self.passes} checks ran")
            return wall
        if self.digests is None:
            self.quality, self.digests = quality, digests
        else:
            # a workload may compute its quality numbers on the first pass only
            same = digests == self.digests and quality in (None, self.quality)
            self.checks.require(same, f"pass {self.passes} repeats the first pass's outputs")
        return wall

    def loop(self, seconds: float, traced: bool = False) -> list[float]:
        deadline = time.perf_counter() + seconds
        walls: list[float] = []
        while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
            walls.append(self.one_pass(traced))
        return walls


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, workdir: Path) -> tuple[dict, dict]:
    """Returns (result, report): the final JSON line and the detailed record."""
    workload = WORKLOADS[name]()
    runner = Runner(workload, seed, workdir, tracing.Tracer() if trace else None)
    report = {"workload": name, "trace": int(trace), "seconds": seconds,
              "env": environment(root, workload, seed)}
    if not trace:
        walls = runner.loop(seconds)
        metrics = {
            "setup_s": statistics.median(runner.setup_times),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ops_ok_frac": 1.0 - runner.failed_passes / runner.passes,
            "p1_cos": (runner.quality or {}).get(workload.headline, 0.0),
        }
        units = dict(END_TO_END)
        report["pass_wall_s"] = walls
    else:
        untraced = runner.loop(seconds / 2)
        runner.tracer.install()
        try:
            traced = runner.loop(seconds / 2, traced=True)
        finally:
            runner.tracer.uninstall()
        metrics = tracing.layer_metrics(runner.tracer.spans)
        u, t = statistics.median(untraced), statistics.median(traced)
        metrics.update({"trace.untraced_wall_s": u, "trace.traced_wall_s": t,
                        "trace.overhead_s": t - u, "trace.overhead_frac": (t - u) / u})
        units = {n: unit for n, unit, _ in tracing.metric_specs()}
        t0 = runner.tracer.spans[0].start if runner.tracer.spans else 0.0
        report.update(pass_wall_s=untraced, traced_pass_wall_s=traced,
                      span_fields=["id", "name", "parent", "pass", "start_s", "end_s"],
                      spans=[[s.id, s.name, s.parent, s.pass_id, round(s.start - t0, 6),
                              round(s.end - t0, 6)] for s in runner.tracer.spans],
                      gflops_note="gflop, score_mb and gflops are computed from array sizes")
    report["quality"] = {k: {"value": v, "unit": workload.units[k]}
                         for k, v in (runner.quality or {}).items()}
    report["digests"] = runner.digests
    report.update(setup_s=runner.setup_times, checks=runner.checks.attempted,
                  failures=runner.checks.failures)
    result = {
        "correct": not runner.checks.failures,
        "attempted": runner.passes,
        "failed": runner.failed_passes,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    return result, report
