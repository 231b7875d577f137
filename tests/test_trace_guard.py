"""The benchmark's layer trace (``perfbench/spans.py``) still fits the package.

The trace wraps package functions by name and reads their arguments and
results, so a rename or a signature change would otherwise show only in the
benchmark's own smoke run. The trace module is loaded from its file, unchanged.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from pimin import bccd
from pimin.rcg import RcgConfig
from pimin.scenario import desk_bench_scenario, generate_channels

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    for module, attr in spans.TRACED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"


def test_traced_solve_counts_one_of_each_block_per_solved_iteration(spans):
    scen = desk_bench_scenario(seed=2)
    start = bccd.seeded_start(2, scen, generate_channels(scen, np.random.default_rng(2)))
    cfg = bccd.BccdConfig(n_iter=3, rcg=RcgConfig(max_iters=3, grad_tol=0.0))
    with spans.Tracer() as tracer:
        bccd.bccd_solve(cfg, scen, start)
    calls = {name: entry["calls"] for name, entry in tracer.by_name().items()}
    assert calls["bccd.build_effective_channels"] == calls["bccd.assemble_p2"] \
        == calls["bccd.power_breakdown"] == calls["bccd.solve_sdp"] == 3
    assert sum(n for key, n in tracer.counts.items() if key.startswith("sdp.path_")) == 3
