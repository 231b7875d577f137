"""Smoke tests of the benchmark itself.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
from pimin.rcg import RcgConfig  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_SECONDS = "16"   # 10 cg_deep trials: enough for a median ordering


def run(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    report = json.loads((HERE / "out" / f"{workload}-seed{seed}-trace{trace}.json")
                        .read_text())
    return result, report


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_with_its_unit(workload, trace):
    result, report = run(workload, trace)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == declared
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    if trace:
        samples = report["samples"]
        assert samples["self_time_sum_s"] == pytest.approx(samples["trial_wall_sum_s"],
                                                           rel=1e-9)
        assert samples["trial_wall_sum_s"] <= samples["wall_s"]["traced"]


def test_counts_repeat_at_one_seed():
    counted = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
    first, _ = run("nulling", 1, seed=5)
    second, _ = run("nulling", 1, seed=5)
    for name in counted | {"rcg.obj_evals_per_iter", "rcg.grad_evals_per_iter"}:
        assert first["metrics"][name] == second["metrics"][name], name
    e2e = [run("nulling", 0, seed=5)[0] for _ in range(2)]
    assert (e2e[0]["metrics"]["constraints_met_frac"]
            == e2e[1]["metrics"]["constraints_met_frac"])


def test_sdp_path_rule():
    problem = SimpleNamespace(obj=[[1.0, 0.0], [0.0, 0.0]], trace_budget=2.0)

    def sol(status, value, iters):
        return SimpleNamespace(status=status, objective_value=value, iterations=iters)

    assert spans.sdp_path(problem, sol("infeasible", 1.0, 0)) == "certificate"
    assert spans.sdp_path(problem, sol("optimal", 1e-17, 12)) == "nullspace"
    assert spans.sdp_path(problem, sol("optimal", 0.3, 400)) == "full"
    assert spans.sdp_path(problem, sol("max_iters", 0.0, 100)) == "full"


def test_rcg_stop_rule():
    cfg = RcgConfig(max_iters=10)     # grad_tol resolves to 1e-8 * free dim

    def result(norm, iters):
        return SimpleNamespace(grad_norm=norm, iterations=iters, x=SimpleNamespace(dim=4))

    free = [True, True, False, False]
    assert spans.rcg_stop(result(1.5e-8, 3), cfg, free) == "grad_tol"
    assert spans.rcg_stop(result(1.5e-8, 3), cfg, None) == "grad_tol"
    assert spans.rcg_stop(result(3e-8, 3), cfg, free) == "stalled"
    assert spans.rcg_stop(result(1.0, 10), cfg, None) == "max_iters"
