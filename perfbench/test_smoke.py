"""Tests of the benchmark itself: the smoke mode runs every workload and
every check on tiny meshes, untraced and traced, and prints what
BENCHMARK.json declares; a failed check makes a result incorrect; later
rounds are held to the checked one; the checks reject a perturbed
solution.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, check_sweep, run_sweep  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _last_json(*args):
    proc = _run(ROOT, "--smoke", *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _check_result(result, section, trace):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("trace,section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_the_listed_workloads(trace, section):
    results = _last_json("--trace", str(trace))
    assert list(results) == [w["name"] for w in SPEC["workloads"]]
    for result in results.values():
        _check_result(result, section, trace)


@pytest.mark.parametrize("trace,section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_runs_an_unlisted_workload(trace, section):
    unlisted = sorted(set(WORKLOADS) - {w["name"] for w in SPEC["workloads"]})
    for name in unlisted:
        _check_result(_last_json("--workload", name, "--trace", str(trace)),
                      section, trace)


def test_a_failed_check_makes_the_result_incorrect():
    record = {"attempted": 4, "failed": 0, "sweep_s": 1.0, "finest_s": 0.5,
              "peak_rss_mb": 100.0}
    ok = run.summarize([record, record], [], [0.5], 0, 4, 0)
    assert ok["correct"] and (ok["attempted"], ok["failed"]) == (8, 0)
    bad = run.summarize([record, dict(record, failed=1)], [], [0.5], 0, 4, 0)
    assert not bad["correct"] and bad["failed"] == 1
    crashed = run.summarize([record], [], [0.5], 1, 4, 0)
    assert not crashed["correct"] and crashed["failed"] == 4


def test_later_rounds_are_held_to_the_checked_round():
    checked = run.vouch({"digests": ["a", "b", "c"],
                         "fails": [[], [], ["u L2 order 1.2"]]}, None)
    assert checked["failed"] == 1
    same = run.vouch({"digests": ["a", "b", "c"]}, checked)
    assert same["fails"] == checked["fails"] and same["failed"] == 1
    other = run.vouch({"digests": ["a", "x", "c"]}, checked)
    assert other["fails"][1] and other["failed"] == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", SPEC["workloads"][0]["name"],
                "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("name,field", [("unconstrained-line", "Y"),
                                        ("unconstrained-circle", "Y"),
                                        ("constrained-fixed-point", "P"),
                                        ("constrained-ssn", "Y")])
def test_checks_reject_a_perturbed_solution(tmp_path, name, field):
    workload = WORKLOADS[name]
    meshes = workload.smoke_meshes
    problem, solutions = run_sweep(workload, meshes, str(tmp_path), [])
    assert check_sweep(workload, problem, meshes, solutions, str(tmp_path),
                       np.random.default_rng(0)) == [[] for _ in meshes]
    vec = getattr(solutions[-1], field)
    vec[len(vec) // 2] += 1e-4 * np.abs(vec).max()
    fails = check_sweep(workload, problem, meshes, solutions, str(tmp_path),
                        np.random.default_rng(0))
    assert fails[0] == [] and fails[-1]


def test_variational_inequality_rejects_a_control_off_the_costate(tmp_path):
    """The control carried by the solution must be the projection of the
    co-state of its own state; a control 1e-6 off fails this check alone."""
    from nxfem_ocp import study
    workload = WORKLOADS["constrained-fixed-point"]
    n = workload.smoke_meshes[-1]
    problem, (sol,) = run_sweep(workload, (n,), str(tmp_path), [])
    disc = study.discretize(problem, n)
    p_h = checks.costate(disc.A, disc.M, disc.F2, sol.Y,
                         disc.space.dirichlet_dofs)

    def vi(P):
        return checks.variational_inequality(
            problem, disc.mesh, disc.cut_info.classes, disc.space, P, p_h,
            np.random.default_rng(0))

    assert vi(sol.P) >= -1e-9
    assert vi(sol.P * (1.0 + 1e-6)) < -1e-9
