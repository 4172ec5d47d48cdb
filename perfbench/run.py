#!/usr/bin/env python3
"""Benchmark of the meemi pipeline, run from the root of a source checkout.

    python3 perfbench/run.py --workload bli_eval --seed 1 --seconds 36 --trace 0

Makes the workload's inputs from the seed, runs timed passes for the given
seconds, checks every output, prints a detailed report line and then, as
the last line of stdout, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("bli_eval", "self_learn", "cli_roundtrip")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "meemi" / "__init__.py").is_file():
        print(f"error: no meemi sources under {src}; run from a meemi checkout", file=sys.stderr)
        return 2
    # BLAS reads its thread count when numpy loads, so pin it before any import
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(nproc)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))

    import harness

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        result, report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace),
                                     ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"report": report}))
    for failure in report["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
