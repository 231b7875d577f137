"""The benchmark's named workloads.

Each workload is a one-point sweep over every method. The benchmark's seed
becomes the scenario seed, from which ``run_sweep`` derives every trial seed,
so the program only ever receives the generated ``SweepSpec``. The number of
trials is a nominal rate times the run's ``--seconds``: it is fixed for a
given seed and length, so the count metrics repeat exactly, whatever the
machine's speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from pimin.bccd import BccdConfig
from pimin.bench import Method, SweepSpec
from pimin.rcg import RcgConfig
from pimin.scenario import ScenarioConfig, desk_bench_scenario, desk_scenario


# Bounds a full ADMM solve that runs to its cap: at the default of 50 000
# iterations one such call takes about 17 s, and a run must end in minutes.
ADMM_CAP = 100


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int], ScenarioConfig]
    solver: BccdConfig
    trials_per_s: float     # nominal trials per second of a run, sets the size
    passes: int             # timed passes over the inputs in an end-to-end run
    par2_every: int         # a parallelism-2 sweep on every this many passes
    min_gap_dB: float | None = None  # proposed median P_PI below bench1/bench2

    def spec(self, seed: int, seconds: float) -> SweepSpec:
        base = self.scenario(seed)
        trials = max(1, round(self.trials_per_s * seconds))
        return SweepSpec(base=base, axis="M", values=(base.M,),
                         trials_per_point=trials, methods=tuple(Method),
                         solver=self.solver)


WORKLOADS = {w.name: w for w in (
    # Criterion 8's deployment and gradient tolerance; nearly every SDP call
    # exits at the certificate, so the manifold CG is most of the work. Under the
    # acceptance settings (8 outer iterations, 800 CG iterations) one trial
    # takes 0.8 to 2.8 s depending on its seed, too few fit a run for steady
    # medians. Two outer iterations (the stall rule needs four) of at most
    # 200 CG iterations give every item nearly the same work. At 100 CG
    # iterations the median gap of criterion 8 averaged 16 dB with a standard
    # deviation of 2.6 dB over seeds and fell below 10 dB at some; at 200 it averaged 30 dB
    # and stayed above 20 dB. A few seeds reach an SDP call that the
    # certificate does not settle. Ten passes give each item enough chances
    # at the host's fast phase; a parallelism-2 sweep on every other pass
    # keeps a run near 65 s, and its best of five spreads little more than
    # its best of ten.
    Workload(
        name="cg_deep",
        scenario=lambda seed: desk_bench_scenario(seed=seed),
        solver=BccdConfig(n_iter=2, rcg=RcgConfig(max_iters=200, grad_tol=1e-10),
                          sdp_max_iters=ADMM_CAP),
        trials_per_s=0.625,
        passes=10,
        par2_every=2,
        min_gap_dB=10.0,
    ),
    # Short trials on the null-space SDP path, whose ADMM converges in one
    # iteration here: fixed per-trial costs and process-pool dispatch show.
    # The default CG's first solve in a trial stops at its gradient tolerance
    # after anywhere from a few to hundreds of iterations, which spreads the
    # per-method medians by 10% from seed to seed at this size. That solve
    # always reaches a cap of 15, so every item does nearly the same work.
    Workload(
        name="nulling",
        scenario=lambda seed: desk_scenario(seed=seed),
        solver=BccdConfig(rcg=RcgConfig(max_iters=15), sdp_max_iters=ADMM_CAP),
        trials_per_s=1.25,
        passes=12,
        par2_every=1,
    ),
)}
