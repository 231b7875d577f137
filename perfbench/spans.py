"""Per-layer trace taken from outside the program.

``Tracer`` replaces the public names that ``pimin.bench``, ``pimin.bccd`` and
``pimin.rcg`` look up at run time with wrappers that record one span per call
(name, start, end, parent span, trial key) and collect the counts behind each
layer's time from the calls' own results. Spans stay in memory until the run
ends. Nothing under ``pimin`` changes; the wrappers are removed on exit from
the ``with`` block, so a process pool started afterwards forks clean modules.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter, defaultdict

import numpy as np

from pimin import bccd, bench, rcg

# (module, attribute) pairs wrapped by the trace, named "<module>.<attribute>".
TRACED = (
    (bench, "run_trial"),
    (bench, "generate_channels"),
    (bench, "bccd_solve"),
    (bench, "write_records_csv"),
    (bccd, "hermitian_evd"),
    (bccd, "precompute_forms"),
    (bccd, "rcg_solve"),
    (bccd, "build_effective_channels"),
    (bccd, "assemble_p2"),
    (bccd, "solve_sdp"),
    (bccd, "power_breakdown"),
    (rcg, "objective"),
    (rcg, "euclid_grad"),
)

# An "optimal" SDP answer whose objective is below this share of
# ||obj||_F * trace budget came from the null-space feasibility solve.
NULLSPACE_REL_OBJ = 1e-9


def sdp_path(problem, sol) -> str:
    """Which branch of ``solve_sdp`` produced ``sol``; it is not reported.

    * ``certificate``: ``iterations == 0``. The spectral or Farkas test (or
      the one-dimensional case) answered before any ADMM iteration.
    * ``nullspace``: ``optimal`` with a zero objective, i.e. below
      ``NULLSPACE_REL_OBJ`` relative to ``||obj||_F * trace_budget``. The
      null-space solve returns a covariance supported on the objective's null
      space; its objective measured 1e-17 or less in these units.
    * ``full``: anything else, the ADMM on the whole problem.
    """
    if sol.iterations == 0:
        return "certificate"
    scale = float(np.linalg.norm(problem.obj)) * problem.trace_budget
    if sol.status == "optimal" and sol.objective_value <= NULLSPACE_REL_OBJ * scale:
        return "nullspace"
    return "full"


def rcg_stop(result, cfg, free) -> str:
    """Why ``rcg_solve`` returned, worked out from its ``RcgResult``.

    The tolerance is resolved for the free dimension, as the solver does.
    ``grad_tol``: the final gradient norm meets it; ``max_iters``: the
    iteration budget ran out first; ``stalled``: the line search found no
    admissible step.
    """
    dim = int(np.count_nonzero(free)) if free is not None else result.x.dim
    if result.grad_norm <= cfg.resolved_grad_tol(dim):
        return "grad_tol"
    if result.iterations >= cfg.max_iters:
        return "max_iters"
    return "stalled"


class Tracer:
    """Span recorder installed over the traced names while in a ``with``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.keys: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.outer_iters: list[int] = []
        self.converged: list[bool] = []
        self._stack: list[int] = []
        self._key: tuple | None = None
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        hooks = {"rcg_solve": self._on_rcg, "solve_sdp": self._on_sdp,
                 "bccd_solve": self._on_bccd}
        for module, attr in TRACED:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            name = f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
            setattr(module, attr, self._wrap(name, fn, hooks.get(attr)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, hook):
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            if name == "bench.run_trial":
                self._key = (args[4] if len(args) > 4 else kwargs.get("trial_id", 0),
                             args[1].value)
            self.keys.append(self._key)
            self.ends.append(math.nan)
            self._stack.append(idx)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()
                if name == "bench.run_trial":
                    self._key = None
            if hook is not None:
                hook(args, kwargs, out)
            return out
        return traced

    def _on_rcg(self, args, kwargs, result) -> None:
        cfg = args[2]
        free = args[3] if len(args) > 3 else kwargs.get("free")
        self.counts["rcg.iters"] += result.iterations
        self.counts[f"rcg.stop_{rcg_stop(result, cfg, free)}"] += 1

    def _on_sdp(self, args, kwargs, sol) -> None:
        self.counts["sdp.iters"] += sol.iterations
        self.counts[f"sdp.status_{sol.status}"] += 1
        self.counts[f"sdp.path_{sdp_path(args[0], sol)}"] += 1

    def _on_bccd(self, args, kwargs, result) -> None:
        self.outer_iters.append(result.outer_iterations)
        self.converged.append(result.converged)

    # ------------------------------------------------------------------
    # Summaries

    def durations(self) -> np.ndarray:
        return np.asarray(self.ends) - np.asarray(self.starts)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the durations of its direct children."""
        dur = self.durations()
        child = np.zeros_like(dur)
        parents = np.asarray(self.parents, dtype=np.int64)
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], dur[has_parent])
        return dur - child

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, total duration and total self time (s)."""
        dur, own = self.durations(), self.self_times()
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                    "self_s": 0.0})
        for name, d, s in zip(self.names, dur, own):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += float(d)
            entry["self_s"] += float(s)
        return dict(out)

    def trial_self_sum(self) -> tuple[float, float]:
        """(sum of self times of spans inside trials, sum of trial durations)."""
        own = self.self_times()
        inside = sum(float(s) for s, k in zip(own, self.keys) if k is not None)
        trials = sum(float(d) for n, d in zip(self.names, self.durations())
                     if n == "bench.run_trial")
        return inside, trials

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end, parent, trial key."""
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps([i, name, round(self.starts[i] - t0, 9),
                                     round(self.ends[i] - t0, 9), self.parents[i],
                                     self.keys[i]]))
                fh.write("\n")
