"""``tools/same_rows.py`` on small sweeps, with this checkout as its own ``BASE``;
``tools/mutants.py`` on a checkout of two sites."""

import json
import math
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import pimin.bench
from pimin import BccdConfig, Method, RcgConfig, SweepSpec, desk_scenario

ROOT = Path(__file__).resolve().parents[1]
SOLVER = BccdConfig(n_iter=2, rcg=RcgConfig(max_iters=15))


def small(name: str, seed: int):
    return name, seed, SweepSpec(base=desk_scenario(seed=seed), axis="M", values=(4,),
                                 trials_per_point=2, methods=tuple(Method), solver=SOLVER)


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.syspath_prepend(ROOT / "tools")    # main's own insertion is undone too
    import same_rows
    monkeypatch.setattr(same_rows, "families", lambda: [small("small", 1), small("small", 2)])
    return same_rows


@pytest.fixture
def timed(tool, monkeypatch):
    """The tool on a 2-trial family that it times, then on one that it does not."""
    monkeypatch.setattr(tool, "families", lambda: [small("nulling", 1), small("small", 2)])
    return tool


def patch_every_tree(tool, monkeypatch, patch):
    """``patch(name, bench)`` on this checkout's ``bench`` and on each tree ``tool`` loads."""
    load_tree = tool.load_tree

    def loading(name, root):
        tree = load_tree(name, root)
        patch(name, tree.bench)
        return tree

    patch("pimin", pimin.bench)
    monkeypatch.setattr(tool, "load_tree", loading)


def test_this_checkout_as_its_own_base_is_equal(tool, tmp_path, capsys):
    assert tool.main([str(ROOT), str(tmp_path / "out.json")]) == 0
    assert capsys.readouterr().out == "small seed 1: 8 rows equal\nsmall seed 2: 8 rows equal\n"
    assert tool.same(np.nan, np.nan) and not tool.same(np.nan, 0.0)


def test_one_ulp_in_one_cell_is_reported_and_runtime_is_not(tool, monkeypatch, tmp_path, capsys):
    real = pimin.bench.run_sweep

    def skewed(spec, parallelism):
        rows = [replace(r, runtime_ms=r.runtime_ms + 1.0) for r in real(spec, parallelism)[0]]
        if spec.base.seed == 2:
            rows[5] = replace(rows[5], sndr_dB=float(np.nextafter(rows[5].sndr_dB, np.inf)))
        return rows, []

    monkeypatch.setattr(pimin.bench, "run_sweep", skewed)
    assert tool.main([str(ROOT), str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "small seed 1: 8 rows equal",
        "small seed 2: 1 of 8 rows differ; first: trial 1 bench1_random_phase sndr_dB"]


def test_parallelism_2_rows_that_differ_from_parallelism_1_exit_1(tool, monkeypatch, tmp_path,
                                                                  capsys):
    real = pimin.bench.run_sweep

    def skewed(spec, parallelism):
        rows = real(spec, parallelism)[0]
        if parallelism == 2 and spec.base.seed == 1:
            rows[2] = replace(rows[2], P_PI_dB=rows[2].P_PI_dB + 1.0)
        return rows, []

    monkeypatch.setattr(pimin.bench, "run_sweep", skewed)
    assert tool.main([str(ROOT), str(tmp_path / "out.json")]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "small seed 1: 8 rows equal; parallelism-2 rows differ: "
        "1 of 8 rows differ; first: trial 0 bench2_equal_phase P_PI_dB",
        "small seed 2: 8 rows equal"]


@pytest.mark.parametrize("argv", [["{base}"], ["{base}", "{out}", "{out}"], ["{tmp}", "{out}"]],
                         ids=["no_out", "extra_argument", "base_without_src_pimin"])
def test_anything_but_base_and_out_exits_1(tool, tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    args = [a.format(base=ROOT, out=out, tmp=tmp_path) for a in argv]
    assert tool.main(args) == 1
    assert str(args) in capsys.readouterr().err and not out.exists()


def test_equal_rows_are_timed_and_written_to_the_record(timed, tmp_path, capsys):
    out = tmp_path / "bench.json"
    assert timed.main([str(ROOT), str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "nulling seed 1: 8 rows equal" and lines[2] == "small seed 2: 8 rows equal"
    assert lines[1].startswith("nulling seed 1: ratio ")
    record = json.loads(out.read_text())
    assert list(record) == ["commit", "base", "passes", "host", "rows", "timed"]
    assert record["rows"] == {"nulling": {"1": "8 rows equal"}, "small": {"2": "8 rows equal"}}
    assert (record["base"], record["passes"]) == (str(ROOT), timed.PASSES)
    assert set(record["host"]) == {"python", "numpy", "blas", "OPENBLAS_CORETYPE", "nproc"}
    figures = record["timed"]["nulling"]["1"]     # the untimed family has only its rows
    assert list(record["timed"]) == ["nulling"]
    assert list(figures) == ["ratio", "interval", "methods", "wins", "null", "sdp_status",
                             "median_P_PI_dB", "median_sndr_dB"]
    methods = [m.value for m in Method]
    for side in (figures, figures["null"]):
        lo, hi = side["interval"]
        assert 0.0 < lo <= hi and side["ratio"] > 0.0
        assert list(side["methods"]) == methods
        assert sum(side["wins"].values()) <= 8
    assert sum(figures["sdp_status"].values()) == 8
    assert list(figures["median_P_PI_dB"]) == list(figures["median_sndr_dB"]) == methods


def test_each_family_sweeps_once_per_tree_and_the_null_never(timed, monkeypatch, tmp_path):
    sweeps = Counter()

    def counting(name, bench):
        real = bench.run_sweep

        def run_sweep(spec, parallelism):
            sweeps[name, spec.base.seed, parallelism] += 1
            return real(spec, parallelism)
        monkeypatch.setattr(bench, "run_sweep", run_sweep)

    patch_every_tree(timed, monkeypatch, counting)
    assert timed.main([str(ROOT), str(tmp_path / "out.json")]) == 0
    assert sweeps == {("pimin", 1, 1): 1, ("pimin", 1, 2): 1, ("pimin_base", 1, 1): 1,
                      ("pimin", 2, 1): 1, ("pimin", 2, 2): 1, ("pimin_base", 2, 1): 1}


def test_an_error_row_in_a_timed_family_leaves_the_record_valid_json(timed, monkeypatch,
                                                                     tmp_path):
    # trial 0 runs in the calling process at parallelism 2 too, so the fault
    # reaches every sweep under any start method
    def failing(name, bench):
        real = bench.run_trial

        def run_trial(scen, method, cfg, seed, trial_id=0):
            if (trial_id, method.value) == (0, "bench3_no_ris"):
                raise RuntimeError("injected")
            return real(scen, method, cfg, seed, trial_id)
        monkeypatch.setattr(bench, "run_trial", run_trial)

    patch_every_tree(timed, monkeypatch, failing)
    out = tmp_path / "bench.json"
    assert timed.main([str(ROOT), str(out)]) == 0

    def bare(constant):
        raise ValueError(f"{constant} is not JSON")

    figures = json.loads(out.read_text(), parse_constant=bare)["timed"]["nulling"]["1"]
    assert figures["sdp_status"]["error:RuntimeError"] == 1
    assert sum(figures["wins"].values()) <= 7      # the error row is not timed
    medians = [*figures["median_P_PI_dB"].values(), *figures["median_sndr_dB"].values()]
    assert len(medians) == 8 and all(math.isfinite(m) for m in medians)


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
