"""pimin sweep benchmark: throughput, per-trial latency and a per-layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cg_deep --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics through the public API
(``run_sweep`` at parallelism 1 and 2, with each ``run_trial`` call timed by
the benchmark). ``--trace 1`` runs the same inputs once untraced and once
traced at parallelism 1, then untraced at parallelism 2, and reports the
per-layer metrics. Every run checks its outputs; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. A full report and, for traced runs, the spans go to
``perfbench/out/``.

Exit codes: 0 every check passed, 1 an output check failed, 2 pimin could not
be imported from ``src/`` next to this directory, or the process pool's
workers were not forked and so could not time their items.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads, so that the two pool workers do not
# each start BLAS threads on a two-core machine.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
sys.path.insert(0, str(SRC))

GAP_TOL_DB = 0.01       # constraint slack, as in the acceptance suite


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: import and build the spec, print 'ready', exit")
    return p.parse_args(argv)


def import_program():
    """Import numpy and pimin from this checkout's ``src/``, or exit with 2."""
    try:
        import numpy
        import pimin
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        raise SystemExit(2)
    if Path(pimin.__file__).resolve().parent.parent != SRC:
        print(f"perfbench: pimin resolved to {pimin.__file__}, not to {SRC}",
              file=sys.stderr)
        raise SystemExit(2)
    return numpy, pimin


# ---------------------------------------------------------------------------
# Measurements

def measure_setup(args) -> float:
    """Wall time from spawning a fresh interpreter to a built spec."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        if proc.wait() != 0 or line.strip() != "ready":
            raise SystemExit(2)
    return elapsed


class ItemTimer:
    """Times each ``bench.run_trial`` call that ``run_sweep`` makes.

    Calls in this process are kept in memory. The pool workers of a
    parallelism-2 sweep are forked while the wrapper is installed, so they run
    it too; each appends its times to a file of its own under ``spool``, which
    ``collect`` reads back once the pool has shut down.
    """

    def __init__(self, bench, spool: Path | None = None) -> None:
        self.bench = bench
        self.spool = spool
        self.pid = os.getpid()
        self.items: dict[tuple[int, str], list[float]] = {}

    def __enter__(self) -> "ItemTimer":
        self.inner = inner = self.bench.run_trial

        def timed(scen, method, cfg, seed, trial_id=0):
            start = time.perf_counter()
            try:
                return inner(scen, method, cfg, seed, trial_id)
            finally:
                self._record(trial_id, method.value, time.perf_counter() - start)

        self.bench.run_trial = timed
        return self

    def __exit__(self, *exc) -> None:
        self.bench.run_trial = self.inner

    def _record(self, trial_id: int, method: str, elapsed: float) -> None:
        if os.getpid() == self.pid:
            self.items.setdefault((trial_id, method), []).append(elapsed)
        else:
            with open(self.spool / f"{os.getpid()}.txt", "a", encoding="utf-8") as fh:
                fh.write(f"{trial_id} {method} {elapsed!r}\n")

    def collect(self) -> None:
        for path in sorted(self.spool.glob("*.txt")):
            for line in path.read_text(encoding="utf-8").splitlines():
                trial_id, method, elapsed = line.split()
                self.items.setdefault((int(trial_id), method), []).append(float(elapsed))
            path.unlink()

    def count(self) -> int:
        return sum(len(times) for times in self.items.values())

    def busy(self) -> float:
        return sum(t for times in self.items.values() for t in times)


def timed_sweep(pimin, spec, parallelism: int, out_csv: Path):
    start = time.perf_counter()
    records, _ = pimin.run_sweep(spec, parallelism=parallelism, out_path=str(out_csv))
    return records, time.perf_counter() - start


# ---------------------------------------------------------------------------
# Output checks

def _same(a, b) -> bool:
    return a == b or (isinstance(a, float) and isinstance(b, float)
                      and math.isnan(a) and math.isnan(b))


def rows_match(left, right) -> bool:
    """Equal in every column except ``runtime_ms``."""
    keep = [i for i, f in enumerate(fields(left[0])) if f.name != "runtime_ms"] \
        if left else []
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        ta, tb = astuple(a), astuple(b)
        if not all(_same(ta[i], tb[i]) for i in keep):
            return False
    return True


def is_error(rec) -> bool:
    return rec.sdp_status_final.startswith("error:")


def median_by_method(records, column: str) -> dict[str, float]:
    out = {}
    for method in sorted({r.method for r in records}):
        vals = [getattr(r, column) for r in records
                if r.method == method and math.isfinite(getattr(r, column))]
        out[method] = statistics.median(vals) if vals else math.nan
    return out


def ordering_holds(records, gap_db: float) -> bool:
    """Criterion 8: proposed median P_PI at least ``gap_db`` below bench1 and bench2."""
    med = median_by_method(records, "P_PI_dB")
    prop = med.get("proposed", math.nan)
    return all(prop <= med.get(m, math.nan) - gap_db
               for m in ("bench1_random_phase", "bench2_equal_phase"))


def constraint_checks(records, scen) -> tuple[int, int]:
    """(checks met, checks made): two per row, sensing SNDR and comm SNR."""
    met = 0
    for r in records:
        met += r.sndr_dB >= scen.gamma_sense_dB - GAP_TOL_DB
        met += r.comm_snr_dB >= scen.gamma_comm_dB - GAP_TOL_DB
    return met, 2 * len(records)


# ---------------------------------------------------------------------------
# The two kinds of run

METHOD_KEYS = {"proposed": "proposed", "bench1_random_phase": "bench1",
               "bench2_equal_phase": "bench2", "bench3_no_ris": "bench3"}


def end_to_end(pimin, np, workload, args, report) -> tuple[dict, list, list[str]]:
    spec = workload.spec(args.seed, args.seconds)
    setup, walls1, walls2, outside, outside2, rows = [], [], [], [], [], []
    problems = []
    timer = ItemTimer(pimin.bench)
    spool = OUT / "par2-items"
    spool.mkdir(exist_ok=True)
    for stale in spool.glob("*.txt"):
        stale.unlink()
    timer2 = ItemTimer(pimin.bench, spool)
    for i in range(workload.passes):
        setup.append(measure_setup(args))
        busy = timer.busy()
        with timer:
            rows1, wall1 = timed_sweep(pimin, spec, 1, OUT / "par1.csv")
        walls1.append(wall1)
        outside.append(wall1 - (timer.busy() - busy))
        if rows and not rows_match(rows[0], rows1):
            problems.append("a repeated pass gave different rows")
        rows.append(rows1)
        if i % workload.par2_every:
            continue
        count, busy = timer2.count(), timer2.busy()
        with timer2:
            rows2, wall2 = timed_sweep(pimin, spec, 2, OUT / "par2.csv")
        timer2.collect()
        if timer2.count() - count != len(rows2):
            print("perfbench: the pool workers did not report their item times; "
                  "they must be forked", file=sys.stderr)
            raise SystemExit(2)
        walls2.append(wall2)
        outside2.append(wall2 - (timer2.busy() - busy) / 2)
        if not rows_match(rows1, rows2):
            problems.append("parallelism-2 rows differ from parallelism-1 rows")
        rows.append(rows2)
    if workload.min_gap_dB is not None and not ordering_holds(rows[0], workload.min_gap_dB):
        problems.append(f"proposed median P_PI_dB is not {workload.min_gap_dB} dB "
                        "below bench1 and bench2")

    # Each CPU of a shared host moves between two speeds about 1.5x apart, in
    # phases of one to tens of seconds, so a pass rarely runs wholly at the
    # fast one. Each item counts at its fastest pass, and the parallelism-1
    # sweep time is those plus the least time any pass spent outside the
    # trials. The parallelism-2 sweep is built the same way from the items'
    # fastest times in the two workers, halved, plus the least time a sweep's
    # wall exceeded half its workers' summed item times (dispatch, start-up,
    # imbalance).
    best = {key: min(times) * 1e3 for key, times in timer.items.items()}
    ms = np.asarray(list(best.values()))
    sweep1_s = ms.sum() / 1e3 + min(outside)
    sweep2_s = sum(min(times) for times in timer2.items.values()) / 2 + min(outside2)
    met, checks = constraint_checks(rows[0], spec.base)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "sweep_trials_per_s": (len(rows[0]) / sweep1_s, "1/s"),
        "sweep_trials_per_s_par2": (len(rows[0]) / sweep2_s, "1/s"),
        "trial_ms_p50": (float(np.percentile(ms, 50)), "ms"),
        "trial_ms_p90": (float(np.percentile(ms, 90)), "ms"),
    }
    for method, key in METHOD_KEYS.items():
        vals = [t for (_, m), t in best.items() if m == method]
        metrics[f"{key}_ms_p50"] = (statistics.median(vals), "ms")
    metrics["constraints_met_frac"] = (met / checks, "frac")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")

    report["samples"] = {
        "passes": workload.passes,
        "setup_probes_s": setup,
        "items": len(ms),
        "items_beyond_p90": int(np.count_nonzero(ms > np.percentile(ms, 90))),
        "items_per_method": {m: sum(1 for _, n in best if n == m) for m in METHOD_KEYS},
        "par1": {"trials": spec.trials_per_point, "rows": len(rows[0]), "wall_s": walls1,
                 "outside_trials_s": outside, "best_sweep_s": sweep1_s},
        "par2": {"rows": len(rows[1]), "wall_s": walls2, "outside_trials_s": outside2,
                 "best_sweep_s": sweep2_s},
        "constraint_checks": {"met": met, "made": checks},
        "item_ms": {f"{t}:{m}": [x * 1e3 for x in times]
                    for (t, m), times in timer.items.items()},
    }
    return metrics, [r for group in rows for r in group], problems


def traced(pimin, np, workload, args, report) -> tuple[dict, list, list[str]]:
    import spans

    spec = workload.spec(args.seed, args.seconds)
    with ItemTimer(pimin.bench) as timer:
        rows_u, wall_u = timed_sweep(pimin, spec, 1, OUT / "untraced.csv")
    with spans.Tracer() as tr:
        start = time.perf_counter()
        rows_t, _ = pimin.run_sweep(spec, parallelism=1, out_path=str(OUT / "traced.csv"))
        sweep_end = time.perf_counter()
    wall_t = sweep_end - start
    rows_p, wall_p = timed_sweep(pimin, spec, 2, OUT / "par2.csv")

    problems = []
    if not rows_match(rows_u, rows_t):
        problems.append("traced rows differ from untraced rows")
    if not rows_match(rows_u, rows_p):
        problems.append("parallelism-2 rows differ from parallelism-1 rows")
    if workload.min_gap_dB is not None and not ordering_holds(rows_u, workload.min_gap_dB):
        problems.append(f"proposed median P_PI_dB is not {workload.min_gap_dB} dB "
                        "below bench1 and bench2")
    inside, trial_total = tr.trial_self_sum()
    if not math.isclose(inside, trial_total, rel_tol=1e-9) or trial_total > wall_t:
        problems.append(f"layer self times {inside} s do not add up to trial "
                        f"wall time {trial_total} s")

    by = tr.by_name()
    n = len(rows_t)

    def get(name: str, key: str) -> float:
        return by.get(name, {}).get(key, 0)

    def per_item(name: str) -> float:
        return get(name, "self_s") * 1e3 / n

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tr.counts
    rcg_iters, sdp_iters = c["rcg.iters"], c["sdp.iters"]
    rcg_total, sdp_total = get("bccd.rcg_solve", "total_s"), get("bccd.solve_sdp", "total_s")
    csv_start = [s for name, s in zip(tr.names, tr.starts)
                 if name == "bench.write_records_csv"][-1]

    m = {
        "scenario.channels_ms": (per_item("bench.generate_channels"), "ms/item"),
        "scenario.channels_calls": (get("bench.generate_channels", "calls"), "count"),
        "linalg.evd_ms": (per_item("bccd.hermitian_evd"), "ms/item"),
        "rcg.forms_ms": (per_item("bccd.precompute_forms"), "ms/item"),
        "rcg.solve_ms": (rcg_total * 1e3 / n, "ms/item"),
        "rcg.solve_calls": (get("bccd.rcg_solve", "calls"), "count"),
        "rcg.iters": (rcg_iters, "count"),
        "rcg.us_per_iter": (ratio(rcg_total * 1e6, rcg_iters), "us"),
        "rcg.obj_evals_per_iter": (ratio(get("rcg.objective", "calls"), rcg_iters), "ratio"),
        "rcg.grad_evals_per_iter": (ratio(get("rcg.euclid_grad", "calls"), rcg_iters), "ratio"),
        "rcg.stop_max_iters": (c["rcg.stop_max_iters"], "count"),
        "rcg.stop_grad_tol": (c["rcg.stop_grad_tol"], "count"),
        "rcg.stop_stalled": (c["rcg.stop_stalled"], "count"),
        "rcg.share": (rcg_total / trial_total, "frac"),
        "sysmodel.effective_ms": (per_item("bccd.build_effective_channels"), "ms/item"),
        "sdp.assemble_ms": (per_item("bccd.assemble_p2"), "ms/item"),
        "sdp.solve_ms": (sdp_total * 1e3 / n, "ms/item"),
        "sdp.solve_calls": (get("bccd.solve_sdp", "calls"), "count"),
        "sdp.iters": (sdp_iters, "count"),
        "sdp.us_per_iter": (ratio(sdp_total * 1e6, sdp_iters), "us"),
        "sdp.status_optimal": (c["sdp.status_optimal"], "count"),
        "sdp.status_infeasible": (c["sdp.status_infeasible"], "count"),
        "sdp.status_max_iters": (c["sdp.status_max_iters"], "count"),
        "sdp.path_certificate": (c["sdp.path_certificate"], "count"),
        "sdp.path_nullspace": (c["sdp.path_nullspace"], "count"),
        "sdp.path_full": (c["sdp.path_full"], "count"),
        "sdp.share": (sdp_total / trial_total, "frac"),
        "metrics.breakdown_ms": (per_item("bccd.power_breakdown"), "ms/item"),
        "bccd.self_ms": (per_item("bench.bccd_solve"), "ms/item"),
        "bccd.outer_iters_mean": (statistics.mean(tr.outer_iters), "count"),
        "bccd.converged_frac": (sum(tr.converged) / len(tr.converged), "frac"),
        "bench.trial_self_ms": (per_item("bench.run_trial"), "ms/item"),
        "bench.write_ms": ((sweep_end - csv_start) * 1e3, "ms"),
        "bench.pool_efficiency_par2": (timer.busy() / (wall_p * 2), "frac"),
        "bench.trace_overhead_frac": ((wall_t - wall_u) / wall_u, "frac"),
    }
    for column, tag in (("P_PI_dB", "ppi"), ("sndr_dB", "sndr")):
        for method, value in median_by_method(rows_t, column).items():
            m[f"bench.{tag}_median_dB.{method}"] = (value, "dB")

    report["samples"] = {
        "trials": spec.trials_per_point, "rows": n, "spans": len(tr.names),
        "wall_s": {"untraced": wall_u, "traced": wall_t, "par2": wall_p},
        "self_time_sum_s": inside, "trial_wall_sum_s": trial_total,
        "spans_by_name": by,
    }
    tr.write(str(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"))
    return m, rows_u + rows_t + rows_p, problems


# ---------------------------------------------------------------------------

def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    np, pimin = import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.spec(args.seed, args.seconds)
        print("ready", flush=True)
        return 0

    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(np)}
    run = traced if args.trace else end_to_end
    metrics, rows, problems = run(pimin, np, workload, args, report)

    failed = sum(1 for r in rows if is_error(r))
    result = {
        "correct": not problems,
        "attempted": len(rows),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(problems=problems, result=result)
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, default=str)

    env = report["environment"]
    print(f"# {args.workload} seed={args.seed} python {env['python']} numpy {env['numpy']} "
          f"{env['blas']['name']} {env['blas']['version']} "
          f"OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']} nproc={env['nproc']}")
    print(f"# samples: {json.dumps({k: v for k, v in report['samples'].items() if k not in ('spans_by_name', 'item_ms')}, default=str)}")
    print(f"# attempted {result['attempted']} items, failed {failed} "
          f"(failed_frac {failed / result['attempted']:.4f})")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
