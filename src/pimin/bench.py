"""Monte Carlo harness: seeded trials, method benchmarks, parameter sweeps.

Every benchmark re-optimizes the radar weights and the transmit covariance
with the same machinery as the proposed design; only the RIS phase treatment
differs (optimized, frozen random, frozen equal, or absent), so sweep results
isolate the phase design. All methods spend the same transmit power: the
covariance trace always equals the budget.
"""

from __future__ import annotations

import csv
import json
import math
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum

import numpy as np

from .bccd import BccdConfig, bccd_solve
from .errors import DomainError
from .rcg import RcgConfig
from .scenario import ScenarioConfig, generate_channels, linear_to_db

BELOW_NOISE_SENTINEL = "below_noise"


class Method(str, Enum):
    PROPOSED = "proposed"
    BENCH1_RANDOM_PHASE = "bench1_random_phase"
    BENCH2_EQUAL_PHASE = "bench2_equal_phase"
    BENCH3_NO_RIS = "bench3_no_ris"

    @classmethod
    def parse(cls, name: str) -> "Method":
        for member in cls:
            if member.value == name:
                return member
        raise DomainError(f"unknown method {name!r}; choose from "
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
_DB_FIELDS = {"P_PI_dB", "P_sense_dB", "P_obs_dB", "P_noise_dB",
              "sndr_dB", "comm_snr_dB", "dr_dB"}


def run_trial(scen: ScenarioConfig, method: Method, cfg: BccdConfig,
              seed: int, trial_id: int = 0) -> TrialRecord:
    """Generate one channel realization, solve it with one method.

    The seed drives both the channel draw and the solver streams, so a record
    is reproducible from its own row. Absolute received powers are reported
    after the radar's LNA gain; the ratio metrics are gain-invariant.
    """
    start = time.perf_counter()
    ch = generate_channels(scen, np.random.default_rng(seed))
    solver_cfg = replace(cfg, seed=seed)

    if method is Method.PROPOSED:
        result = bccd_solve(solver_cfg, scen, ch)
    elif method is Method.BENCH1_RANDOM_PHASE:
        # phases stay at their seeded random draw
        result = bccd_solve(solver_cfg, scen, ch, optimize_phi=False)
    elif method is Method.BENCH2_EQUAL_PHASE:
        ones = np.ones(scen.N, dtype=np.complex128)
        result = bccd_solve(solver_cfg, scen, ch, phi_init=ones, optimize_phi=False)
    elif method is Method.BENCH3_NO_RIS:
        ones = np.ones(scen.N, dtype=np.complex128)
        result = bccd_solve(solver_cfg, scen, ch.without_ris(), phi_init=ones,
                            optimize_phi=False)
    else:   # pragma: no cover
        raise DomainError(f"unhandled method {method}")

    runtime_ms = (time.perf_counter() - start) * 1e3
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
        sdp_status_final=result.history[-1].sdp_status,
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

    def __post_init__(self) -> None:
        if self.axis not in ScenarioConfig.__dataclass_fields__:
            raise DomainError(f"axis {self.axis!r} is not a scenario field")
        if not self.values:
            raise DomainError("sweep needs at least one axis value")
        if self.trials_per_point < 1:
            raise DomainError("trials_per_point must be >= 1")
        object.__setattr__(self, "values", tuple(self.values))
        object.__setattr__(self, "methods",
                           tuple(Method.parse(m) if isinstance(m, str) else m
                                 for m in self.methods))

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
        known = {"base", "axis", "values", "trials_per_point", "methods", "solver"}
        unknown = set(d) - known
        if unknown:
            raise DomainError(f"unknown sweep fields: {sorted(unknown)}")
        kwargs = dict(
            base=ScenarioConfig.from_json_dict(d["base"]),
            axis=d["axis"],
            values=tuple(d["values"]),
        )
        if "trials_per_point" in d:
            kwargs["trials_per_point"] = d["trials_per_point"]
        if "methods" in d:
            kwargs["methods"] = tuple(d["methods"])
        if "solver" in d:
            kwargs["solver"] = _bccd_from_dict(d["solver"])
        return cls(**kwargs)


def _bccd_from_dict(d: dict) -> BccdConfig:
    d = dict(d)
    rcg = d.pop("rcg", None)
    cfg = BccdConfig(**d) if rcg is None else BccdConfig(rcg=RcgConfig(**rcg), **d)
    return cfg


def load_sweep_spec(path: str) -> SweepSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return SweepSpec.from_json_dict(json.load(fh))


def trial_seed(base_seed: int, axis_value, trial_id: int) -> int:
    """Deterministic per-trial seed shared by all methods at one sweep point."""
    tag = zlib.crc32(repr(axis_value).encode())
    ss = np.random.SeedSequence([base_seed & 0xFFFFFFFF, tag, trial_id])
    return int(ss.generate_state(1)[0])


def _sweep_task(args: tuple) -> TrialRecord:
    scen, method, cfg, seed, trial_id = args
    try:
        return run_trial(scen, method, cfg, seed, trial_id)
    except Exception as exc:     # partial failures become per-row diagnostics
        nan = float("nan")
        return TrialRecord(
            trial_id=trial_id, method=method.value,
            M_t=scen.M_t, M_r=scen.M_r, M=scen.M, N_x=scen.N_x, N_y=scen.N_y,
            L=scen.L,
            P_PI_dB=nan, P_sense_dB=nan, P_obs_dB=nan, P_noise_dB=nan,
            sndr_dB=nan, comm_snr_dB=nan, dr_dB=nan,
            outer_iterations=0,
            sdp_status_final=f"error:{type(exc).__name__}",
            runtime_ms=0.0, seed=seed,
        )


def _format_db(value: float) -> str:
    if isinstance(value, float) and not math.isfinite(value):
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
    finite = [v for v in values if math.isfinite(v)]
    if not finite:
        return {"mean": None, "median": None, "p10": None, "p90": None,
                "count": 0, "suppressed": len(values)}
    arr = np.asarray(finite)
    return {
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "p10": float(np.percentile(arr, 10)),
        "p90": float(np.percentile(arr, 90)),
        "count": len(finite),
        "suppressed": len(values) - len(finite),
    }


def run_sweep(spec: SweepSpec, parallelism: int = 1,
              out_path: str | None = None) -> tuple[list[TrialRecord], list[dict]]:
    """Run every (value, trial, method) work item and aggregate per point.

    Rows are ordered by (axis point, trial, method) regardless of completion
    order. When ``out_path`` is given the records go to that CSV and a JSON
    sidecar ``<out_path>.meta.json`` carries the spec and per-point aggregate
    statistics. ``parallelism`` is the number of worker processes, at least 1.
    """
    if parallelism < 1:
        raise DomainError(f"parallelism must be >= 1, got {parallelism}")
    tasks = []
    keys = []
    for p_idx, value in enumerate(spec.values):
        scen = replace(spec.base, **{spec.axis: value})
        for trial_id in range(spec.trials_per_point):
            seed = trial_seed(spec.base.seed, value, trial_id)
            for m_idx, method in enumerate(spec.methods):
                tasks.append((scen, method, spec.solver, seed, trial_id))
                keys.append((p_idx, trial_id, m_idx))

    if parallelism > 1:
        with ProcessPoolExecutor(max_workers=parallelism) as pool:
            results = list(pool.map(_sweep_task, tasks, chunksize=1))
    else:
        results = [_sweep_task(t) for t in tasks]

    order = sorted(range(len(results)), key=lambda i: keys[i])
    records = [results[i] for i in order]
    sorted_keys = [keys[i] for i in order]

    aggregates = []
    for p_idx, value in enumerate(spec.values):
        for method in spec.methods:
            subset = [r for k, r in zip(sorted_keys, records)
                      if k[0] == p_idx and r.method == method.value]
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
            json.dump(sidecar, fh, indent=2, default=_json_fallback)
            fh.write("\n")
    return records, aggregates


def _json_fallback(value):
    if isinstance(value, float) and not math.isfinite(value):
        return BELOW_NOISE_SENTINEL
    raise TypeError(f"not JSON serializable: {value!r}")
