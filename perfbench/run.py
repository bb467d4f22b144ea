#!/usr/bin/env python3
"""Benchmark of qtextgen's train and eval pipeline on one named workload.

Run from the repository root:

    python3 perfbench/run.py --workload cells --seed 1 --seconds 20 --trace 0

Workloads are ``cells``, ``decode`` and ``wide_cells`` (see README.md).  The
program is imported from ``src/`` beside this directory.  With ``--trace 0``
the last stdout line reports the end-to-end metrics; with ``--trace 1`` the
same workload runs under timing wrappers and the per-layer metrics are
reported.  Program outputs go to ``.perfbench-out/`` under the root.  Times
are in reference seconds (see speed.py).
"""

import os

# Fix the BLAS thread count before numpy loads, rather than leaving it to the library.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

import speed

_T0 = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time when readable."""
    fallback = time.perf_counter() - _T0
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - start_ticks / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return fallback
    return age if fallback <= age < fallback + 60.0 else fallback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cells", "decode", "wide_cells"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measure whole rounds for about this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "qtextgen" / "__init__.py").is_file():
        print(f"error: no qtextgen sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # Set-up runs under a pure-Python probe (numpy is not loaded yet), the rounds under a numpy one.
    setup_probe, probe = speed.SpeedProbe(numpy=False), None
    setup_probe.start()
    probe_started, age_at_start = time.perf_counter(), _process_age()
    try:
        import workloads  # imports numpy and qtextgen

        if not Path(workloads.hb.__file__).resolve().is_relative_to(SRC):
            print(f"error: qtextgen was not imported from {SRC}", file=sys.stderr)
            return 2
        suffix = "-trace" if args.trace else ""
        out_dir = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}{suffix}"
        ctx = workloads.setup(args.workload, args.seed, out_dir)
        setup_end = time.perf_counter()
        setup_probe.stop()
        probe = speed.SpeedProbe()
        probe.start()
        result = workloads.run(ctx, args.seconds, bool(args.trace), probe)
    finally:
        setup_probe.stop()
        if probe is not None:
            probe.stop()
    setup_s = age_at_start + setup_probe.reference_seconds(probe_started, setup_end)

    notes = result.pop("notes")
    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": (setup_s, "s"), **metrics}
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace, **notes}), file=sys.stderr)
    for failure in notes["failures"]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
