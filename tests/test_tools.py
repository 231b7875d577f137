"""``tools/same_rows.py`` and ``tools/bench_ab.py`` on small sweeps, with this checkout as
its own ``BASE``; ``tools/mutants.py`` on a checkout of two sites."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pimin.bench
from pimin import BccdConfig, Method, RcgConfig, SweepSpec, desk_scenario

ROOT = Path(__file__).resolve().parents[1]
SOLVER = BccdConfig(n_iter=2, rcg=RcgConfig(max_iters=15))


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(ROOT / "tools")    # main's own insertion is undone too
    import same_rows
    monkeypatch.setattr(same_rows, "families", lambda: [
        ("small", s, SweepSpec(base=desk_scenario(seed=s), axis="M", values=(4,),
                               trials_per_point=2, methods=tuple(Method), solver=SOLVER))
        for s in (1, 2)])
    return same_rows


def test_this_checkout_as_its_own_base_is_equal(tool, capsys):
    assert tool.main([str(ROOT)]) == 0
    assert capsys.readouterr().out == "small seed 1: 8 rows equal\nsmall seed 2: 8 rows equal\n"
    assert tool.same(np.nan, np.nan) and not tool.same(np.nan, 0.0)


def test_one_ulp_in_one_cell_is_reported_and_runtime_is_not(tool, monkeypatch, capsys):
    real = pimin.bench.run_sweep

    def skewed(spec, parallelism):
        rows = [replace(r, runtime_ms=r.runtime_ms + 1.0) for r in real(spec, parallelism)[0]]
        if spec.base.seed == 2:
            rows[5] = replace(rows[5], sndr_dB=float(np.nextafter(rows[5].sndr_dB, np.inf)))
        return rows, []

    monkeypatch.setattr(pimin.bench, "run_sweep", skewed)
    assert tool.main([str(ROOT)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "small seed 1: 8 rows equal",
        "small seed 2: 1 of 8 rows differ; first: trial 1 bench1_random_phase sndr_dB"]


def test_parallelism_2_rows_that_differ_from_parallelism_1_exit_1(tool, monkeypatch, capsys):
    real = pimin.bench.run_sweep

    def skewed(spec, parallelism):
        rows = real(spec, parallelism)[0]
        if parallelism == 2 and spec.base.seed == 1:
            rows[2] = replace(rows[2], P_PI_dB=rows[2].P_PI_dB + 1.0)
        return rows, []

    monkeypatch.setattr(pimin.bench, "run_sweep", skewed)
    assert tool.main([str(ROOT)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "small seed 1: 8 rows equal; parallelism-2 rows differ: "
        "1 of 8 rows differ; first: trial 0 bench2_equal_phase P_PI_dB",
        "small seed 2: 8 rows equal"]


def test_a_base_without_src_pimin_exits_1(tool, tmp_path, capsys):
    assert tool.main([str(tmp_path)]) == 1
    assert str(tmp_path) in capsys.readouterr().err


def test_bench_ab_times_equal_rows_and_writes_the_record(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(ROOT / "tools")
    import bench_ab
    monkeypatch.setattr(bench_ab, "families", lambda: [
        (name, 1, SweepSpec(base=desk_scenario(seed=1), axis="M", values=(4,),
                            trials_per_point=2, methods=tuple(Method), solver=SOLVER))
        for name in ("nulling", "small")])
    out = tmp_path / "bench.json"
    assert bench_ab.main([str(ROOT), str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "nulling seed 1: 8 rows equal" and lines[2] == "small seed 1: 8 rows equal"
    record = json.loads(out.read_text())
    assert record["rows"] == {"nulling": {"1": "8 rows equal"}, "small": {"1": "8 rows equal"}}
    assert (record["base"], record["passes"]) == (str(ROOT), bench_ab.PASSES)
    assert set(record["host"]) == {"python", "numpy", "blas", "OPENBLAS_CORETYPE", "nproc"}
    timed = record["timed"]["nulling"]["1"]     # the untimed family has only its rows
    assert list(record["timed"]) == ["nulling"]
    methods = [m.value for m in Method]
    for figures in (timed, timed["null"]):
        lo, hi = figures["interval"]
        assert 0.0 < lo <= hi and figures["ratio"] > 0.0
        assert list(figures["methods"]) == methods
        assert sum(figures["wins"].values()) <= 8
    assert sum(timed["sdp_status"].values()) == 8
    assert list(timed["median_P_PI_dB"]) == list(timed["median_sndr_dB"]) == methods


def test_mutants_of_a_two_site_checkout(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(ROOT / "tools")
    import mutants
    checkout = tmp_path / "checkout"
    files = {"src/pimin/__init__.py": "",
             "src/pimin/calc.py": "def add(a, b):\n    return a + b\n\n\n"
                                  "def sub(a, b):\n    return a - b\n",
             "tests/test_calc.py": "from pimin.calc import add\n\n\n"
                                   "def test_add():\n    assert add(2, 3) == 5\n"}
    for name, text in files.items():
        (checkout / name).parent.mkdir(parents=True, exist_ok=True)
        (checkout / name).write_text(text)
    monkeypatch.setattr(mutants, "ROOT", checkout)
    monkeypatch.setattr(mutants, "COUNT", 2)
    monkeypatch.setattr(mutants, "PYTEST_ARGS", [*mutants.PYTEST_ARGS, "tests/test_calc.py"])
    report = tmp_path / "report.jsonl"
    assert mutants.main([str(report)]) == 0
    *entries, summary = map(json.loads, report.read_text().splitlines())
    assert entries == [
        {"module": "calc.py", "function": "add", "line": 2, "operator": "+ -> -",
         "source": "return a + b", "status": "killed", "failed": ["tests/test_calc.py::test_add"]},
        {"module": "calc.py", "function": "sub", "line": 6, "operator": "- -> +",
         "source": "return a - b", "status": "survived", "failed": []}]
    assert summary["summary"].startswith(
        "2 mutants of 2 sites: 1 killed, 1 survived, 0 timeout, 0 equivalent; clean tier-1 ")
    assert {str(p.relative_to(checkout)): p.read_text()
            for p in checkout.rglob("*") if p.is_file()} == files


def test_every_equivalent_mutant_is_a_site(monkeypatch):
    monkeypatch.syspath_prepend(ROOT / "tools")
    import mutants
    sites = {m.key for m in mutants.mutants(ROOT / "src" / "pimin")}
    assert sorted(set(mutants.EQUIVALENT) - sites) == []
