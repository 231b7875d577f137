"""Monte Carlo harness: seeded trials, method benchmarks, parameter sweeps.

Every benchmark re-optimizes the radar weights and the transmit covariance
with the same machinery as the proposed design; only the RIS reflection
coefficients differ (optimized, frozen random, frozen equal, or every element
off), so sweep results isolate the phase design. A benchmark passes its
coefficients to ``bccd_solve`` as ``frozen_phi``: the start's random phases,
all ones, or all zeros, which is the system without an RIS. All methods spend
the same transmit power: the covariance trace always equals the budget.

A sweep's unit of work is one trial: every method runs from the trial's one
``BccdStart`` (channel draw, seeded covariance, its eigendecomposition, random
state and their forms), which ``run_trial`` takes from a one-entry memo keyed
by (scenario, seed). The first method's call pays for it; later calls at the
same (scenario, seed) reuse it. Every array of a start is read-only, so no
method can change what another method sees. A parallel sweep splits its trials
into contiguous shares, one per process: the calling process runs the first,
and each other share goes to a worker process that sends its rows back as one
message.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import multiprocessing
import time
import zlib
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .bccd import BccdConfig, BccdStart, bccd_solve, seeded_start
from .errors import DomainError
from .rcg import RcgConfig
from .scenario import (ScenarioConfig, check_count, generate_channels, known_fields,
                       linear_to_db)

BELOW_NOISE_SENTINEL = "below_noise"


class Method(str, Enum):
    PROPOSED = "proposed"
    BENCH1_RANDOM_PHASE = "bench1_random_phase"
    BENCH2_EQUAL_PHASE = "bench2_equal_phase"
    BENCH3_NO_RIS = "bench3_no_ris"

    @classmethod
    def _missing_(cls, value):
        raise DomainError(f"unknown method {value!r}; choose from "
                          f"{[m.value for m in cls]}")


@dataclass(frozen=True)
class TrialRecord:
    """One solved trial; field order defines the CSV column order."""

    trial_id: int
    method: str
    M_t: int
    M_r: int
    M: int
    N_x: int
    N_y: int
    L: int
    P_PI_dB: float
    P_sense_dB: float
    P_obs_dB: float
    P_noise_dB: float
    sndr_dB: float
    comm_snr_dB: float
    dr_dB: float
    outer_iterations: int
    sdp_status_final: str
    runtime_ms: float
    seed: int


TRIAL_FIELDS = [f.name for f in fields(TrialRecord)]
_DB_FIELDS = {name for name in TRIAL_FIELDS if name.endswith("_dB")}


@functools.lru_cache(maxsize=1)
def _trial_start(scen: ScenarioConfig, seed: int) -> BccdStart:
    """The channel draw and seeded solver start of the last (scenario, seed) asked for."""
    return seeded_start(seed, scen, generate_channels(scen, np.random.default_rng(seed)))


def run_trial(scen: ScenarioConfig, method: Method, cfg: BccdConfig,
              seed: int, trial_id: int = 0) -> TrialRecord:
    """Solve one seeded channel realization with one method.

    The seed drives both the channel draw and the seeded solver start
    (``seeded_start``), so a record is reproducible from its own row.
    Consecutive calls at the same scenario and seed share one draw and one
    start, made by the first of them and counted in its ``runtime_ms``. Every
    method solves from that start; it chooses only the reflection coefficients
    that stay fixed: none (the proposed design optimizes them), the start's
    random phases, ones, or zeros (no RIS). Absolute received powers are
    reported after the radar's LNA gain; the ratio metrics are gain-invariant.
    """
    method = Method(method)
    t0 = time.perf_counter()
    start = _trial_start(scen, seed)
    frozen_phi = {
        Method.PROPOSED: None,
        Method.BENCH1_RANDOM_PHASE: start.x.phi,
        Method.BENCH2_EQUAL_PHASE: np.ones(scen.N),
        Method.BENCH3_NO_RIS: np.zeros(scen.N),
    }[method]
    result = bccd_solve(cfg, scen, start, frozen_phi=frozen_phi)

    runtime_ms = (time.perf_counter() - t0) * 1e3
    p = result.final_powers
    lna = scen.g_lna_lin
    return TrialRecord(
        trial_id=trial_id,
        method=method.value,
        M_t=scen.M_t, M_r=scen.M_r, M=scen.M, N_x=scen.N_x, N_y=scen.N_y, L=scen.L,
        P_PI_dB=linear_to_db(p.p_pi * lna),
        P_sense_dB=linear_to_db(p.p_sense * lna),
        P_obs_dB=linear_to_db(p.p_obs * lna),
        P_noise_dB=linear_to_db(p.p_noise * lna),
        sndr_dB=p.sndr_db,
        comm_snr_dB=p.comm_snr_db,
        dr_dB=p.dr_db,
        outer_iterations=result.outer_iterations,
        sdp_status_final=p.sdp_status,
        runtime_ms=runtime_ms,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSpec:
    """A one-axis parameter sweep over seeded Monte Carlo trials."""

    base: ScenarioConfig
    axis: str
    values: tuple
    trials_per_point: int = 50
    methods: tuple[Method, ...] = (Method.PROPOSED,)
    solver: BccdConfig = field(default_factory=BccdConfig)
    # the scenario of each axis value, built and validated with the spec
    points: tuple[ScenarioConfig, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.axis not in ScenarioConfig.__dataclass_fields__:
            raise DomainError(f"axis {self.axis!r} is not a scenario field")
        for name in ("values", "methods"):     # a string would be split into letters
            if isinstance(getattr(self, name), str):
                raise DomainError(f"{name} must be a list, got {getattr(self, name)!r}")
        # numpy scalars become Python ones, so that the sidecar is valid JSON;
        # no array cast, which would turn [1, 2.5] into floats
        values = tuple(v.item() if isinstance(v, np.generic) else v for v in self.values)
        check_count("trials_per_point", self.trials_per_point, 1)
        points = []
        for value in values:
            try:
                points.append(replace(self.base, **{self.axis: value}))
            except (TypeError, ValueError) as exc:
                raise DomainError(f"axis value {self.axis}={value!r} is invalid: {exc}") from exc
        object.__setattr__(self, "points", tuple(points))
        # each value as its scenario holds it (40 becomes 40.0 on a float
        # field), so that equal points give equal trial seeds and are found
        # as repeats, and the sidecar loads back the same values
        object.__setattr__(self, "values", tuple(getattr(p, self.axis) for p in points))
        object.__setattr__(self, "methods", tuple(Method(m) for m in self.methods))
        # a sweep that would run nothing, or run the same work twice
        for what, items in (("axis value", self.values),
                            ("method", [m.value for m in self.methods])):
            if not items:
                raise DomainError(f"sweep needs at least one {what}")
            repeats = [v for i, v in enumerate(items) if v in items[:i]]
            if repeats:
                raise DomainError(f"sweep lists {what} {repeats[0]!r} twice")

    def to_json_dict(self) -> dict:
        return {
            "base": self.base.to_json_dict(),
            "axis": self.axis,
            "values": list(self.values),
            "trials_per_point": self.trials_per_point,
            "methods": [m.value for m in self.methods],
            "solver": asdict(self.solver),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SweepSpec":
        d = known_fields(cls, d, "sweep")
        d["base"] = ScenarioConfig.from_json_dict(d["base"])
        if "solver" in d:
            d["solver"] = _bccd_from_dict(d["solver"])
        return cls(**d)


def _bccd_from_dict(d: dict) -> BccdConfig:
    d = known_fields(BccdConfig, d, "solver")
    rcg = d.pop("rcg", None)
    if rcg is not None:
        d["rcg"] = RcgConfig(**known_fields(RcgConfig, rcg, "rcg"))
    return BccdConfig(**d)


def load_sweep_spec(path: str) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return SweepSpec.from_json_dict(json.load(fh))


def trial_seed(base_seed: int, axis_value, trial_id: int) -> int:
    """Deterministic per-trial seed shared by all methods at one sweep point."""
    tag = zlib.crc32(repr(axis_value).encode())
    ss = np.random.SeedSequence([base_seed, tag, trial_id])
    return int(ss.generate_state(1)[0])


def _trial_task(args: tuple) -> list[TrialRecord]:
    """Every method of one trial, in order, one row each: an error row for a
    method that raises."""
    scen, methods, cfg, seed, trial_id = args
    records = []
    for method in methods:
        try:
            records.append(run_trial(scen, method, cfg, seed, trial_id))
        except Exception as exc:     # partial failures become per-row diagnostics
            records.append(TrialRecord(
                trial_id=trial_id, method=method.value,
                M_t=scen.M_t, M_r=scen.M_r, M=scen.M, N_x=scen.N_x, N_y=scen.N_y,
                L=scen.L, **dict.fromkeys(_DB_FIELDS, math.nan), outer_iterations=0,
                sdp_status_final=f"error:{type(exc).__name__}",
                runtime_ms=0.0, seed=seed,
            ))
    return records


def _run_share(conn, tasks: list[tuple]) -> None:
    """A worker process's share of a sweep: its trials' rows, sent as one message."""
    conn.send([_trial_task(t) for t in tasks])


def _format_db(value: float) -> str:
    """A dB cell: the sentinel for minus infinity, else ``repr`` (``nan`` included)."""
    if value == -math.inf:
        return BELOW_NOISE_SENTINEL
    return repr(value)


def write_records_csv(records: list[TrialRecord], path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_FIELDS)
        for rec in records:
            row = []
            for name in TRIAL_FIELDS:
                value = getattr(rec, name)
                row.append(_format_db(value) if name in _DB_FIELDS else value)
            writer.writerow(row)


def _aggregate(values: list[float]) -> dict:
    """Statistics of the finite cells; minus infinity (below noise) and NaN
    (a failed row) are counted apart."""
    finite = [v for v in values if math.isfinite(v)]
    counts = {"count": len(finite),
              "below_noise": sum(v == -math.inf for v in values),
              "failed": sum(math.isnan(v) for v in values)}
    if not finite:
        return {"mean": None, "median": None, "p10": None, "p90": None, **counts}
    arr = np.asarray(finite)
    return {
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "p10": float(np.percentile(arr, 10)),
        "p90": float(np.percentile(arr, 90)),
        **counts,
    }


def run_sweep(spec: SweepSpec, parallelism: int = 1,
              out_path: str | None = None) -> tuple[list[TrialRecord], list[dict]]:
    """Run every (value, trial, method) item and aggregate per point.

    A trial runs every method on the trial's one channel draw, and each method
    gives its own row, an error row if it raised. Rows are ordered by (axis
    point, trial, method). ``parallelism`` is the number of processes, at
    least 1. The trials are split into shares of ``ceil(trials / workers)``
    consecutive trials, with ``workers = min(parallelism, trials)``: this
    process runs the first share, and a worker process, started by
    ``multiprocessing``'s default start method, runs each other one. A worker
    that exits without sending its rows raises ``RuntimeError``, and an
    exception in this process's own share terminates the workers. No worker
    outlives the call. When ``out_path`` is given and every share came back, the records go
    to that CSV and a JSON sidecar ``<out_path>.meta.json`` carries the spec
    and per-point aggregate statistics.
    """
    check_count("parallelism", parallelism, 1)
    tasks = []
    for value, scen in zip(spec.values, spec.points):
        for trial_id in range(spec.trials_per_point):
            seed = trial_seed(spec.base.seed, value, trial_id)
            tasks.append((scen, spec.methods, spec.solver, seed, trial_id))

    size = -(-len(tasks) // min(parallelism, len(tasks)))
    shares = [tasks[i:i + size] for i in range(0, len(tasks), size)]
    started = []
    try:
        for share in shares[1:]:
            conn, child_conn = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_run_share, args=(child_conn, share))
            proc.start()
            child_conn.close()      # so that a worker that dies gives EOFError, not a hang
            started.append((proc, conn))
        trials = [_trial_task(t) for t in shares[0]]
        for proc, conn in started:
            try:
                trials += conn.recv()
            except EOFError:
                proc.join()
                raise RuntimeError(f"a sweep worker exited with code {proc.exitcode} "
                                   "before sending its rows") from None
    except BaseException:
        for proc, _ in started:
            proc.terminate()
        raise
    finally:
        for proc, conn in started:
            conn.close()
            proc.join()
    records = [rec for trial in trials for rec in trial]

    aggregates = []
    per_point = spec.trials_per_point * len(spec.methods)
    for p_idx, value in enumerate(spec.values):
        point = records[p_idx * per_point:(p_idx + 1) * per_point]
        for method in spec.methods:
            subset = [r for r in point if r.method == method.value]
            entry = {"axis": spec.axis, "value": value, "method": method.value}
            for name in sorted(_DB_FIELDS):
                entry[name] = _aggregate([getattr(r, name) for r in subset])
            aggregates.append(entry)

    if out_path is not None:
        write_records_csv(records, out_path)
        sidecar = {
            "spec": spec.to_json_dict(),
            "parallelism": parallelism,
            "aggregates": aggregates,
        }
        with open(out_path + ".meta.json", "w", encoding="utf-8") as fh:
            json.dump(sidecar, fh, indent=2)
            fh.write("\n")
    return records, aggregates
