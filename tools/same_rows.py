"""Compare this checkout's sweep rows with those of the tree at ``BASE``, time its trials
against BASE's where the rows are equal, and write the record to ``OUT``; exit 1 if any
rows differ::

    git archive <rev> src/pimin | tar -x -C <dir> && python tools/same_rows.py <dir> BENCH_<pr>.json

``BASE/src/pimin`` imports only relatively, so it loads as ``pimin_base`` beside this
checkout's ``pimin``, and a second copy of this checkout loads as ``pimin_self`` (the
null). Each spec of ``families`` runs once on this checkout and once on BASE at
parallelism 1, and once more on this checkout at parallelism 2. One line per family and
seed says ``equal`` or where cells other than ``runtime_ms`` differ (NaN equals NaN), and
``parallelism-2 rows differ`` and where, if those rows are not its parallelism-1 rows.

For each workload of ``TIMED`` at each seed of ``SEEDS`` whose rows are equal, each row
but an error row gives one item: the ``run_trial`` call that replays it from its ``seed``,
``trial_id`` and ``method``, with the point and solver of the spec as each tree builds it.
Each item is timed on both trees in turn: which tree goes first flips per item and per
pass, and ``_trial_start`` is cleared before each call. Each item keeps its best of
``PASSES`` calls. The figures are the ratio of summed bests (this checkout over the other
tree), its bootstrap 95% interval over items, the ratio per method and the items each tree
wins, for BASE and again for ``pimin_self``: a ratio means something only beyond the
null's interval.

The record holds this checkout's commit (``-dirty`` for uncommitted changes), the path of
``BASE`` as given, the host, each family's line, and per timed workload and seed the
figures, the rows' final SDP status counts and the sweep's median ``P_PI_dB`` and
``sndr_dB`` per method over finite cells (the timed workloads are one-point sweeps).
"""

import importlib.util
import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
TIMED = ("nulling", "cg_deep")
SEEDS = (1, 2)
PASSES = 6
RESAMPLES = 2000


def load(name: str, path: Path, package: bool = False):
    """The module at ``path`` as ``name``, registered first: dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load_tree(name: str, root: Path):
    """``root/src/pimin`` as the package ``name``, in place of a tree loaded as ``name``
    earlier in this process; None, after naming each module of ``pimin`` or ``name`` that
    resolves outside its tree, if any does."""
    for module in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[module]
    tree = load(name, root / "src" / "pimin" / "__init__.py", package=True)
    strays = [f"{n} resolves to {m.__file__}, outside {r}" for n, m in sys.modules.items()
              for top, r in (("pimin", ROOT), (name, root))
              if n.split(".")[0] == top and r not in Path(m.__file__).resolve().parents]
    if strays:
        print("\n".join(strays), file=sys.stderr)
        return None
    return tree


def families():
    """``(family, seed, spec)``, seeds 1-5: the benchmark's workloads at its ``run_seconds``,
    then 20 trials of every method on ``desk_scenario(seed)`` with a binding sensing target
    (nested multiplier and max-margin searches), an obstacle, a zero gradient tolerance (LM
    solves that stop ``stalled``), the binding target at SDP caps of 1 (the capped
    whole-space exit) and 4 (the nested search's own ``max_iters`` exit), and the binding
    target beside a 40 dB communication target (the whole-space certificate of joint
    infeasibility)."""
    from pimin import BccdConfig, Method, RcgConfig, SweepSpec, desk_scenario

    workloads = load("perfbench_workloads", ROOT / "perfbench" / "workloads.py").WORKLOADS
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    for name, workload in workloads.items():
        yield from ((name, s, workload.spec(s, seconds)) for s in range(1, 6))
    nulling, binding = workloads["nulling"].solver, {"gamma_sense_dB": 25.0}
    for name, extra, solver in (
            ("binding", binding, nulling),
            ("obstacle", {"obstacles": ((40.0, 60.0, 1.0),)}, nulling),
            ("stalled", {}, BccdConfig(n_iter=4, rcg=RcgConfig(max_iters=300, grad_tol=0.0))),
            ("capped", binding, replace(nulling, sdp_max_iters=1)),
            ("sdp_cap_4", binding, replace(nulling, sdp_max_iters=4)),
            ("joint", {**binding, "gamma_comm_dB": 40.0}, nulling)):
        for s in range(1, 6):
            base = desk_scenario(seed=s, **extra)
            yield name, s, SweepSpec(base=base, axis="M", values=(base.M,), trials_per_point=20,
                                     methods=tuple(Method), solver=solver)


def same(a, b) -> bool:
    return a == b or (a != a and b != b)


def compare(ours, theirs) -> str:
    """``equal``, or how many rows differ and where the first of them does."""
    if len(ours) != len(theirs):
        return f"{len(ours)} rows here, {len(theirs)} in BASE"
    diffs = [(a, cols) for a, b in zip(map(asdict, ours), map(asdict, theirs))
             if (cols := [k for k in a if k != "runtime_ms" and not same(a[k], b.get(k))])]
    if not diffs:
        return f"{len(ours)} rows equal"
    a, cols = diffs[0]
    return (f"{len(diffs)} of {len(ours)} rows differ; first: trial {a['trial_id']} "
            f"{a['method']} {', '.join(cols)}")


def items(tree, spec, rows) -> list[tuple]:
    """``tree``'s ``run_trial`` arguments that replay each row but an error row; rows come
    in (point, trial, method) order."""
    spec = tree.SweepSpec.from_json_dict(spec.to_json_dict())
    per_point = spec.trials_per_point * len(spec.methods)
    return [(spec.points[i // per_point], tree.Method(r.method), spec.solver, r.seed, r.trial_id)
            for i, r in enumerate(rows) if not r.sdp_status_final.startswith("error:")]


def best_times(sides) -> np.ndarray:
    """``(2, items)`` best call times in seconds of two ``(bench, items)`` sides."""
    best = np.full((2, len(sides[0][1])), np.inf)
    for p in range(PASSES):
        for i in range(best.shape[1]):
            for k in ((0, 1) if (i + p) % 2 == 0 else (1, 0)):
                bench, args = sides[k][0], sides[k][1][i]
                bench._trial_start.cache_clear()
                start = time.perf_counter()
                bench.run_trial(*args)
                best[k, i] = min(best[k, i], time.perf_counter() - start)
    return best


def figures(best: np.ndarray, methods: list[str]) -> dict:
    """The ratio of summed bests, first side over second, with its bootstrap interval,
    the ratio per method and the items each side wins."""
    picks = np.random.default_rng(0).integers(0, best.shape[1], (RESAMPLES, best.shape[1]))
    sums = best[:, picks].sum(axis=2)
    methods = np.array(methods)

    def ratio(ours: np.ndarray, theirs: np.ndarray) -> float:
        return round(float(ours.sum() / theirs.sum()), 5)

    return {"ratio": ratio(*best),
            "interval": [round(float(q), 5) for q in np.percentile(sums[0] / sums[1], [2.5, 97.5])],
            "methods": {m: ratio(*best[:, methods == m]) for m in dict.fromkeys(methods)},
            "wins": {"checkout": int((best[0] < best[1]).sum()),
                     "other": int((best[1] < best[0]).sum())}}


def quality(rows, aggregates) -> dict:
    """The final SDP status counts, and the median ``P_PI_dB`` and ``sndr_dB`` per method
    of a one-point sweep's ``aggregates``: None where a method has no finite cell."""
    return {"sdp_status": dict(Counter(r.sdp_status_final for r in rows)),
            **{f"median_{col}": {a["method"]: a[col]["median"] for a in aggregates}
               for col in ("P_PI_dB", "sndr_dB")}}


def host() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE"), "nproc": os.cpu_count()}


def commit() -> str | None:
    out = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"], cwd=ROOT,
                         capture_output=True, text=True)
    return out.stdout.strip() or None


def main(argv: list[str]) -> int:
    base_root = Path(argv[0]).resolve() if len(argv) == 2 else None
    if base_root is None or not (base_root / "src" / "pimin" / "__init__.py").is_file():
        print(f"usage: same_rows.py BASE OUT, BASE a tree holding src/pimin; got {argv}",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    import pimin

    base, twin = load_tree("pimin_base", base_root), load_tree("pimin_self", ROOT)
    if base is None or twin is None:
        return 1
    record = {"commit": commit(), "base": argv[0], "passes": PASSES, "host": host(),
              "rows": {}, "timed": {}}
    for family, seed, spec in families():
        ours, aggregates = pimin.bench.run_sweep(spec, 1)
        theirs = base.bench.run_sweep(base.SweepSpec.from_json_dict(spec.to_json_dict()), 1)[0]
        line = compare(ours, theirs)
        par2 = compare(pimin.bench.run_sweep(spec, 2)[0], ours)
        if not par2.endswith(" equal"):
            line += f"; parallelism-2 rows differ: {par2}"
        record["rows"].setdefault(family, {})[str(seed)] = line
        print(f"{family} seed {seed}: {line}", flush=True)
        if family not in TIMED or seed not in SEEDS or not line.endswith(" equal"):
            continue
        mine = items(pimin, spec, ours)
        methods = [args[1].value for args in mine]
        ab = figures(best_times(((pimin.bench, mine), (base.bench, items(base, spec, ours)))),
                     methods)
        null = figures(best_times(((pimin.bench, mine), (twin.bench, items(twin, spec, ours)))),
                       methods)
        record["timed"].setdefault(family, {})[str(seed)] = {
            **ab, "null": null, **quality(ours, aggregates)}
        print(f"{family} seed {seed}: ratio {ab['ratio']} {ab['interval']}, "
              f"null {null['ratio']} {null['interval']}", flush=True)
    Path(argv[1]).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return int(not all(line.endswith(" equal") for seeds in record["rows"].values()
                       for line in seeds.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
