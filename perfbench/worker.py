"""One round of a workload in a fresh process: the timed sweep (traced or
not), then, with ``--check 1``, the checks.  Prints one JSON object on its
last stdout line, with a digest of each mesh's solution and outputs so
that ``run.py`` can hold later rounds to the checked one.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 \
        --check 0|1 [--smoke]

Run from the repository root with ``src`` on PYTHONPATH; ``run.py`` does
both.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import sys
import time
import traceback

import numpy as np

import spans as tracing
from workloads import WORKLOADS, check_sweep, run_sweep

SCRATCH = os.path.join(".bench_build", "perfbench")


def digest(out_dir, n, sol):
    """Hash of one mesh's solution vectors and of the active-set file the
    CLI path writes for it, if any."""
    h = hashlib.sha256()
    for vec in (sol.Y, sol.P):
        h.update(vec.tobytes())
    path = os.path.join(out_dir, f"activeset_n{n}.csv")
    if os.path.exists(path):
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--check", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)

    import nxfem_ocp  # noqa: F401  (imported before the clock starts)

    workload = WORKLOADS[args.workload]
    meshes = workload.smoke_meshes if args.smoke else workload.meshes
    out_dir = os.path.join(SCRATCH, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(SCRATCH, exist_ok=True)

    tracer = tracing.Tracer() if args.trace else None
    starts = []
    problem, solutions, error = None, [], None
    if tracer:
        tracer.install()
        tracer.open("sweep")
    t0 = time.perf_counter()
    try:
        problem, solutions = run_sweep(workload, meshes, out_dir, starts)
    except Exception:                       # a failed solve ends the sweep
        error = traceback.format_exc(limit=3)
    t1 = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.close()
        tracer.uninstall()

    record = {
        "sweep_s": t1 - t0,
        "finest_s": t1 - starts[-1] if len(starts) == len(meshes) else t1 - t0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(meshes),
        "iterations": sum(s.iterations for s in solutions),
    }
    if error is not None:
        record["digests"] = [None] * len(meshes)
        record["fails"] = [[error]] * len(meshes)
    else:
        record["digests"] = [digest(out_dir, n, sol)
                             for n, sol in zip(meshes, solutions)]
        if args.check:
            record["fails"] = check_sweep(workload, problem, meshes,
                                          solutions, out_dir,
                                          np.random.default_rng(args.seed))
    if tracer:
        record["layers"] = tracing.summarize(tracer.spans)
        tracer.write(os.path.join(SCRATCH, f"spans-{args.workload}.json"))
    shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
