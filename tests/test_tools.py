"""The scripts under ``tools/``, loaded by path as they run from a checkout."""

import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from pimin.bench import run_sweep

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRowsDigest:
    def test_two_runs_print_the_same_lines(self, monkeypatch, capsys):
        tool = load_tool("rows_digest")
        monkeypatch.setattr(sys, "path", list(sys.path))
        assert tool.main([]) == 0
        first = capsys.readouterr().out
        assert tool.main([]) == 0
        assert capsys.readouterr().out == first
        lines = [line.split() for line in first.splitlines()]
        assert [(w, s, n) for w, s, n, _ in lines] == (
            [("cg_deep", str(s), "8") for s in range(1, 6)]
            + [("nulling", str(s), "16") for s in range(1, 6)])

    def test_parallel_rows_that_differ_fail_the_run(self, monkeypatch, capsys):
        import pimin.bench

        tool = load_tool("rows_digest")
        monkeypatch.setattr(sys, "path", list(sys.path))
        real = pimin.bench.run_sweep

        def skewed(spec, parallelism):
            records, aggregates = real(spec, 1)
            if parallelism == 2 and spec.base.seed == 3:
                records = [replace(records[0], outer_iterations=records[0].outer_iterations + 1),
                           *records[1:]]
            return records, aggregates

        monkeypatch.setattr(pimin.bench, "run_sweep", skewed)
        assert tool.main([]) == 1
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 10
        assert err.splitlines() == [
            f"{w} seed 3: parallelism-2 rows differ from parallelism-1 rows"
            for w in ("cg_deep", "nulling")]

    def test_one_ulp_in_one_cell_changes_the_digest(self):
        tool = load_tool("rows_digest")
        records, _ = run_sweep(tool.load_workloads(ROOT).WORKLOADS["cg_deep"].spec(1, 3.2), 1)
        base = tool.digest(records)
        same = [replace(r, sndr_dB=float(r.sndr_dB), runtime_ms=r.runtime_ms + 1.0)
                for r in records]
        assert tool.digest(same) == base
        bumped = list(records)
        bumped[3] = replace(bumped[3], sndr_dB=float(np.nextafter(bumped[3].sndr_dB, np.inf)))
        assert bumped[3].sndr_dB != records[3].sndr_dB
        assert tool.digest(bumped) != base
