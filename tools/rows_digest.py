"""Print a digest of the benchmark workloads' sweep rows, one line per seed.

For each workload in ``perfbench/workloads.py`` and each of seeds 1 to 5 it
runs ``run_sweep(WORKLOADS[w].spec(seed, 3.2), 1)`` and prints
``workload seed rows sha256``. The hash covers the ``repr`` of every column
except ``runtime_ms``. Two checkouts whose solvers give the same rows print
the same lines, so a change's digests can be compared with its parent's.
Each spec also runs at parallelism 2; if those rows have another digest, the
workload and seed go to stderr and the script exits 1.

Usage::

    python tools/rows_digest.py [ROOT]

``ROOT`` is the checkout to run, by default the one that holds this script.
Its ``src`` goes first on the path, and the script exits 1 if ``pimin`` is
imported from anywhere else.
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from dataclasses import astuple, fields
from pathlib import Path

SEEDS = range(1, 6)
SECONDS = 3.2


def load_workloads(root: Path):
    """``root/perfbench/workloads.py`` as a module, registered before it runs,
    since building its frozen dataclass looks the module up."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def digest(records) -> str:
    """SHA-256 over the ``repr`` of each row without its ``runtime_ms``."""
    h = hashlib.sha256()
    for rec in records:
        cells = tuple(v for f, v in zip(fields(rec), astuple(rec)) if f.name != "runtime_ms")
        h.update(repr(cells).encode() + b"\n")
    return h.hexdigest()


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    sys.path.insert(0, str(root / "src"))
    import pimin
    from pimin.bench import run_sweep

    if Path(pimin.__file__).resolve().parent != root / "src" / "pimin":
        print(f"pimin resolves to {pimin.__file__}, not under {root}", file=sys.stderr)
        return 1
    workloads = load_workloads(root).WORKLOADS
    status = 0
    for name, workload in workloads.items():
        for seed in SEEDS:
            spec = workload.spec(seed, SECONDS)
            records, _ = run_sweep(spec, 1)
            rows = digest(records)
            print(name, seed, len(records), rows)
            if digest(run_sweep(spec, 2)[0]) != rows:
                print(f"{name} seed {seed}: parallelism-2 rows differ from parallelism-1 rows",
                      file=sys.stderr)
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
