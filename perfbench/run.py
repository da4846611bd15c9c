#!/usr/bin/env python3
"""trevex benchmark: one workload through the ``trevex`` CLI, outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  With ``--trace 0`` every job is one CLI process, as users run it:
parameters as flags, input, seed and (for ``lu-cached``) the design cache
read from files, output written to a file.  Jobs run one after another
(a closed loop with one client) in triples x, y, x^y of fresh inputs drawn
from the seed, until another triple would overrun ``--seconds``.  Each
output is checked against ``reference.py``, which does not import trevex.
Times are scaled to a reference host speed sampled beside each job
(``hostspeed.py``).
With ``--trace 1`` the per-layer run of ``layers.py`` runs instead.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` jobs, and ``metrics`` (name -> value, unit).
A job fails on a nonzero exit or a failed check; a failed check also makes
``correct`` false.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

from harness import HERE, Bench, Job, SetupError, WORKLOADS

WORK = HERE / "work"
RESULTS = HERE / "results"


def end_to_end(bench: Bench, seconds: float) -> dict:
    jobs: list[Job] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        jobs += bench.triple()
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            break
    done = [j for j in jobs if j.extract_s is not None]
    if not done:
        raise SetupError(f"all {len(jobs)} jobs failed")
    # Medians of times scaled to the reference host speed: this host's
    # speed moves by up to 2x for seconds to minutes at a time, and raw
    # times follow it (hostspeed.py, README.md "Steadiness").
    metrics = {
        "job_s": (median(j.job_s * j.scale for j in done), "s"),
        "extract_bits_per_s": (
            bench.wl.m / median(j.extract_s * j.scale for j in done), "bit/s"),
        "setup_s": (median((j.job_s - j.extract_s) * j.scale for j in done), "s"),
        "peak_rss_mib": (median(j.rss_mib for j in done), "MiB"),
    }
    for i, j in enumerate(jobs):
        print(f"{bench.name} job {i}: exit {j.exit_code}, {j.job_s:.3f} s "
              f"(scaled {j.job_s * j.scale:.3f} s, speed sample "
              f"{j.speed * 1e3:.3f} ms), extraction {j.extract_s} s, "
              f"{j.rss_mib:.1f} MiB"
              + "".join(f"; FAILED: {p}" for p in j.problems), file=sys.stderr)
    return {
        "correct": all(j.exit_code or not j.problems for j in jobs),
        "attempted": len(jobs),
        "failed": sum(1 for j in jobs if j.problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind: the running job is killed and scratch removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    WORK.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        bench = Bench(args.workload, args.seed, workdir)
        if args.trace:
            import layers
            result = layers.traced(bench, args.seconds, RESULTS)
        else:
            result = end_to_end(bench, args.seconds)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
