"""Compare this checkout's sweep rows with those of the tree at ``BASE``; exit 1 if any differ.

``BASE/src/pimin`` imports only relatively, so it loads as ``pimin_base`` beside
this checkout's ``pimin``. At parallelism 1 both run every spec of ``families``;
one line per family and seed says ``equal`` or where cells other than
``runtime_ms`` differ (NaN equals NaN)::

    git archive <rev> src/pimin | tar -x -C <dir> && python tools/same_rows.py <dir>
"""

import importlib.util
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(name: str, path: Path, package: bool = False):
    """The module at ``path`` as ``name``, registered first: dataclasses look it up."""
    spec = importlib.util.spec_from_file_location(
        name, path, submodule_search_locations=[str(path.parent)] if package else None)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def families():
    """``(family, seed, spec)``, seeds 1-5: the benchmark's workloads at its ``run_seconds``,
    then 20 trials of every method on ``desk_scenario(seed)`` with a binding sensing target
    (nested multiplier and max-margin searches), an obstacle, a zero gradient tolerance (LM
    solves that stop ``stalled``), and the binding target at SDP caps of 1 (the capped
    whole-space exit) and 4 (the nested search's own ``max_iters`` exit)."""
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
            ("sdp_cap_4", binding, replace(nulling, sdp_max_iters=4))):
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


def main(argv: list[str]) -> int:
    base_root = Path(argv[0]).resolve() if len(argv) == 1 else None
    if base_root is None or not (base_root / "src" / "pimin" / "__init__.py").is_file():
        print(f"usage: same_rows.py BASE, a tree holding src/pimin; got {argv}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(ROOT / "src"))
    import pimin.bench

    for name in [m for m in sys.modules if m.split(".")[0] == "pimin_base"]:
        del sys.modules[name]   # a tree loaded earlier in this process
    base = load("pimin_base", base_root / "src" / "pimin" / "__init__.py", package=True)
    strays = [f"{n} resolves to {m.__file__}, outside {root}" for n, m in sys.modules.items()
              for top, root in (("pimin", ROOT), ("pimin_base", base_root))
              if n.split(".")[0] == top and root not in Path(m.__file__).resolve().parents]
    if strays:
        print("\n".join(strays), file=sys.stderr)
        return 1
    status = 0
    for family, seed, spec in families():
        ours = pimin.bench.run_sweep(spec, 1)[0]
        theirs = base.bench.run_sweep(base.SweepSpec.from_json_dict(spec.to_json_dict()), 1)[0]
        line = compare(ours, theirs)
        status |= not line.endswith(" equal")
        print(f"{family} seed {seed}: {line}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
