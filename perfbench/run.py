"""Benchmark of the nxfem_ocp convergence-sweep pipelines.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--smoke]

Run from the repository root.  Without ``--workload`` it runs the workloads
listed in BENCHMARK.json; ``--seconds`` defaults to its ``run_seconds``.
Every round runs in a fresh worker process (``worker.py``) so that each
sweep starts cold, as a CLI run does, and its peak memory is its own.
The first round of a run is checked in full; every later round is held to
it bit for bit (see ``vouch``), which leaves more of the run to timing.
Whole rounds repeat while the next one, as long as the last one, would
end within ``--seconds`` (always at least one); timings are medians over
rounds.  With ``--trace 1`` rounds come in pairs, one untraced and one
traced, and the per-layer figures of the traced rounds are printed
instead of the end-to-end ones.

The last stdout line is one JSON object.  For one workload it has
``correct``, ``attempted``, ``failed`` and ``metrics``; for several it maps
each workload's name to such an object.  See README.md for the layers,
workloads and reference figures.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)

SETUP_PROBES = 3               # per round
LIMIT_S = 170                 # per workload, set-up probes and rounds
PROBE = ("import nxfem_ocp, sys; nxfem_ocp.build_example({example}); "
         "print('ready', flush=True); sys.stdin.read()")

END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
LISTED = [w["name"] for w in SPEC["workloads"]]


def worker_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def measure_setup(example, env):
    """Interpreter start until nxfem_ocp is imported and the problem built,
    in a fresh process, as seen from outside."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c",
                             PROBE.format(example=example)],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            env=env, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.communicate("", timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return elapsed


def run_round(name, seed, trace, check, smoke, env, timeout):
    """One worker round; None if the worker crashed or timed out."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
           name, "--seed", str(seed), "--trace", str(trace), "--check",
           str(check)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        print(f"# {name}: worker timed out", file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"# {name}: worker exited with {proc.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def vouch(record, checked):
    """Per-mesh failures of a round.  A round that ran the checks (or
    raised) has its own; any other round inherits, mesh by mesh, those of
    the checked round when its solution and outputs are bitwise the same,
    and fails that mesh otherwise.  The program is deterministic, so a
    difference is itself a fault."""
    if "fails" not in record:
        record["fails"] = [
            fails if mine == theirs else ["differs from the checked round"]
            for mine, theirs, fails in zip(record["digests"],
                                           checked["digests"],
                                           checked["fails"])]
    record["failed"] = sum(1 for f in record["fails"] if f)
    return record


def summarize(plain, traced, setup, crashed, n_meshes, trace):
    """The result object of one workload from its rounds' records."""
    rounds = plain + traced
    # a crashed worker loses its round's solves and their checks
    attempted = sum(r["attempted"] for r in rounds) + crashed * n_meshes
    failed = sum(r["failed"] for r in rounds) + crashed * n_meshes
    result = {"correct": crashed == 0 and failed == 0,
              "attempted": attempted, "failed": failed}

    def med(rs, key):
        return statistics.median(r[key] for r in rs)

    if trace:
        values = {k: statistics.median(r["layers"][k] for r in traced)
                  for k in PER_LAYER if k in traced[0]["layers"]}
        values["solver.iterations"] = med(traced, "iterations")
        values["trace.overhead_s"] = med(traced, "sweep_s") - med(plain,
                                                                  "sweep_s")
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(setup)}
        values.update({k: med(plain, k) for k in END_TO_END if k != "setup_s"})
        units = END_TO_END
    result["metrics"] = {k: {"value": values[k], "unit": u}
                         for k, u in units.items()}
    return result


def run_workload(name, seed, seconds, trace, smoke, env):
    workload = WORKLOADS[name]
    meshes = workload.smoke_meshes if smoke else workload.meshes
    limit = time.perf_counter() + LIMIT_S
    setup, plain, traced, crashed = [], [], [], 0
    checked = None
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        # set-up probes spread over the run, so that their median does not
        # hang on one moment of the machine
        if not trace:
            setup += [measure_setup(workload.example, env)
                      for _ in range(1 if smoke else SETUP_PROBES)]
        for kind, rounds in ((0, plain), (1, traced))[:1 + trace]:
            record = run_round(name, seed, kind, int(checked is None), smoke,
                               env, limit - time.perf_counter())
            if record is None:
                crashed += 1
                continue
            checked = checked or record
            rounds.append(vouch(record, checked))
        # the next round is taken to last as long as this one; the first
        # is the longest, as only it runs the checks
        now = time.perf_counter()
        if smoke or now + (now - t0) > deadline:
            break
    if not plain or (trace and not traced):
        raise RuntimeError(f"no round of {name} completed")
    result = summarize(plain, traced, setup, crashed, len(meshes), trace)
    rounds = plain + traced
    for r in rounds:
        for n, why in zip(meshes, r["fails"]):
            if why:
                print(f"# {name} N={n} failed: {'; '.join(why)}")
    print(f"# {name}: {len(plain)} round(s)"
          + (f" + {len(traced)} traced" if trace else "")
          + f", {result['failed']}/{result['attempted']} solves failed; "
          + "sweep_s per round " + " ".join(f"{r['sweep_s']:.3f}"
                                            for r in rounds))
    for k, m in result["metrics"].items():
        print(f"#   {k:32s} {m['value']:.6g} {m['unit']}")
    return result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS),
                    help="one workload (default: those in BENCHMARK.json)")
    ap.add_argument("--seed", type=int, default=0,
                    help="draws the sample points of the variational-"
                         "inequality check")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measuring time per workload (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny meshes, one round per workload")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "nxfem_ocp", "__init__.py")):
        print("error: run from the repository root (src/nxfem_ocp missing)",
              file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else LISTED
    env = worker_env()
    results = {name: run_workload(name, args.seed, args.seconds, args.trace,
                                  args.smoke, env)
               for name in names}
    print(json.dumps(results[args.workload] if args.workload else results),
          flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
