"""Time this checkout's trials against those of the tree at ``BASE``, in one process,
and write the record to ``OUT``; exit 1 if any rows differ.

    git archive <rev> src/pimin | tar -x -C <dir> && python tools/bench_ab.py <dir> BENCH_<pr>.json

Every spec of ``same_rows.families`` runs first on both trees, at parallelism 1, and
its rows are compared. Then, for each workload of ``TIMED`` at each seed of ``SEEDS``
whose rows are equal, every ``bench.run_trial`` call of its sweep (an item) is timed
on both trees in turn: which tree goes first flips per item and per pass, and
``_trial_start`` is cleared before each call. Each item keeps its best of ``PASSES``
calls. The figures are the ratio of summed bests (this checkout over the other tree),
its bootstrap 95% interval over items, the ratio per method and the items each tree
wins, for ``BASE`` and again for a second copy of this checkout (the null): a ratio
means something only beyond the null's interval.

The record holds this checkout's commit (``-dirty`` for uncommitted changes), the path
of ``BASE`` as given, the host, each family's row comparison, and per timed workload and seed
the figures, the final SDP status counts and the median ``P_PI_dB`` and ``sndr_dB``
per method.
"""

import json
import os
import platform
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

from same_rows import ROOT, compare, families, load_tree

TIMED = ("nulling", "cg_deep")
SEEDS = (1, 2)
PASSES = 6
RESAMPLES = 2000


def recorded(bench, spec):
    """The rows of ``spec``'s sweep on ``bench``'s tree and the arguments of each
    ``run_trial`` call it made."""
    inner, items = bench.run_trial, []

    def recording(*args):
        items.append(args)
        return inner(*args)

    bench.run_trial = recording
    try:
        return bench.run_sweep(spec, 1)[0], items
    finally:
        bench.run_trial = inner


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


def quality(rows) -> dict:
    """The final SDP status counts and the median ``P_PI_dB`` and ``sndr_dB`` per method."""
    methods = list(dict.fromkeys(r.method for r in rows))
    return {"sdp_status": dict(Counter(r.sdp_status_final for r in rows)),
            **{f"median_{col}": {m: float(np.median([getattr(r, col) for r in rows
                                                     if r.method == m])) for m in methods}
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
        print(f"usage: bench_ab.py BASE OUT, BASE a tree holding src/pimin; got {argv}",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    import pimin.bench

    base, twin = load_tree("pimin_base", base_root), load_tree("pimin_self", ROOT)
    if base is None or twin is None:
        return 1
    record = {"commit": commit(), "base": argv[0], "passes": PASSES, "host": host(),
              "rows": {}, "timed": {}}
    for family, seed, spec in families():
        ours, items = recorded(pimin.bench, spec)
        theirs, base_items = recorded(base.bench,
                                      base.SweepSpec.from_json_dict(spec.to_json_dict()))
        line = record["rows"].setdefault(family, {})[str(seed)] = compare(ours, theirs)
        print(f"{family} seed {seed}: {line}", flush=True)
        if family not in TIMED or seed not in SEEDS or not line.endswith(" equal"):
            continue
        twin_items = recorded(twin.bench, twin.SweepSpec.from_json_dict(spec.to_json_dict()))[1]
        methods = [args[1].value for args in items]
        ab = figures(best_times(((pimin.bench, items), (base.bench, base_items))), methods)
        null = figures(best_times(((pimin.bench, items), (twin.bench, twin_items))), methods)
        record["timed"].setdefault(family, {})[str(seed)] = {**ab, "null": null, **quality(ours)}
        print(f"{family} seed {seed}: ratio {ab['ratio']} {ab['interval']}, "
              f"null {null['ratio']} {null['interval']}", flush=True)
    Path(argv[1]).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return int(not all(line.endswith(" equal") for seeds in record["rows"].values()
                       for line in seeds.values()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
