"""Block-cyclic coordinate descent over the beamformer/phase and covariance blocks.

Each outer iteration reduces the interference objective to per-eigenpair forms
of the current transmit covariance, runs the manifold Levenberg–Marquardt
solver for the stacked unit-modulus variable, then re-optimizes the covariance
by the SDP at the new operating point. The covariance is eigendecomposed once
each time it changes, and that decomposition also serves the figures of merit.
A stall rule on the relative interference-power change declares convergence;
when the covariance subproblem is infeasible the previous covariance is kept
and the iteration is flagged.

Once a later outer iteration's manifold solve takes no step, the loop has
reached an exact fixed point: the SDP would be solved again at the point it
was last solved at, and every later iteration would repeat the last one. From
there the loop repeats the last record, without calling any block, until the
stall rule or ``n_iter`` ends it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import hermitian_evd
from .metrics import PowerBreakdown, power_breakdown
from .rcg import (BeamformerState, RcgConfig, precompute_forms, random_state,
                  rcg_solve)
from .scenario import ChannelSet, ScenarioConfig
from .sdp import TransmitCovariance, assemble_p2, solve_sdp
from .sysmodel import build_effective_channels

# Interference below this fraction of the noise power counts as fully
# suppressed when measuring relative change; it keeps the stall rule
# meaningful once the solver reaches its numerical floor.
STALL_FLOOR_REL_NOISE = 1e-3
# The loop has converged once each of the last STALL_WINDOW steps changed the
# interference power by less than STALL_TOL relative.
STALL_TOL = 1e-5
STALL_WINDOW = 3


@dataclass(frozen=True)
class BccdConfig:
    """Outer-loop controls."""

    n_iter: int = 20
    rcg: RcgConfig = field(default_factory=RcgConfig)
    sdp_max_iters: int = 50_000  # SDP dual evaluations before it gives up
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_iter < 1:
            raise DomainError(f"n_iter must be >= 1, got {self.n_iter}")
        if self.sdp_max_iters < 1:
            raise DomainError(f"sdp_max_iters must be >= 1, got {self.sdp_max_iters}")


@dataclass(frozen=True)
class BccdIteration:
    """One outer iteration's figures of merit."""

    p_pi: float
    p_sense: float
    sndr_db: float
    comm_snr_db: float
    dr_db: float
    sdp_status: str


@dataclass(frozen=True)
class BccdResult:
    w: np.ndarray
    phi: np.ndarray
    R_ss: TransmitCovariance
    history: tuple[BccdIteration, ...]
    converged: bool
    final_powers: PowerBreakdown

    @property
    def outer_iterations(self) -> int:
        return len(self.history)


def init_rss(dim: int, budget: float, rng: np.random.Generator) -> TransmitCovariance:
    """Random PSD start: a uniform-entry Gram matrix rescaled to the budget."""
    u = rng.random((dim, dim)) + 1j * rng.random((dim, dim))
    r = u.conj().T @ u
    r *= budget / float(np.trace(r).real)
    return TransmitCovariance(matrix=0.5 * (r + r.conj().T), budget=budget)


def relative_change(new: float, old: float, floor: float) -> float:
    """Relative step of a non-negative sequence, floored for tiny values."""
    return abs(new - old) / max(old, floor)


def bccd_solve(cfg: BccdConfig, scen: ScenarioConfig, ch: ChannelSet, *,
               phi_init: np.ndarray | None = None,
               optimize_phi: bool = True) -> BccdResult:
    """Alternate the manifold block and the covariance SDP block.

    ``phi_init`` overrides the random initial RIS phases; with
    ``optimize_phi=False`` the phases stay frozen for the whole run (the
    benchmark designs), leaving only the radar weights on the manifold.
    """
    m_r, m_t, m, n = ch.dims
    if (m_t, m_r, m, n) != (scen.M_t, scen.M_r, scen.M, scen.N):
        raise DimensionError(
            f"channel dims (M_r={m_r}, M_t={m_t}, M={m}, N={n}) do not match scenario")
    lm = scen.L * m
    dim = scen.L * m_t

    rng = np.random.default_rng(cfg.seed)
    r_cov = init_rss(dim, scen.P_B, rng)
    x = random_state(lm, n, rng)
    if phi_init is not None:
        phi_init = np.asarray(phi_init, dtype=np.complex128)
        if phi_init.shape != (n,):
            raise DimensionError(f"phi_init has shape {phi_init.shape}, expected ({n},)")
        x = BeamformerState(x=np.concatenate([x.w, phi_init]), num_bf=lm)
    free = None
    if not optimize_phi:
        free = np.concatenate([np.ones(lm, dtype=bool), np.zeros(n, dtype=bool)])

    stall_floor = STALL_FLOOR_REL_NOISE * scen.sigma_r2_W * lm
    history: list[BccdIteration] = []
    powers: PowerBreakdown | None = None
    converged = False

    # The covariance changes only when the SDP is solved, so its
    # eigendecomposition and forms carry over an infeasible or stalled call.
    evd = hermitian_evd(r_cov.matrix)
    forms = None
    fixed = False
    for _ in range(cfg.n_iter):
        if not fixed:
            if forms is None:
                forms = precompute_forms(evd, ch, scen.L)
            rcg_out = rcg_solve(forms, x, cfg.rcg, free=free)
            # A 0-step solve returns x itself, the point at which the last
            # iteration solved the SDP. The SDP reads only (w, phi), so it
            # would give the same answer, hence the same covariance, its
            # eigendecomposition, the same forms and the same record. The
            # next solve would then start from the same x on the same forms
            # and take 0 steps again; by induction every later iteration
            # repeats the last record, so no block needs to run again.
            fixed = bool(history) and rcg_out.iterations == 0
        if fixed:
            history.append(history[-1])
        else:
            x = rcg_out.x
            eff = build_effective_channels(ch, x.phi)
            sol = solve_sdp(assemble_p2(x.w, x.phi, ch, eff, scen),
                            max_iters=cfg.sdp_max_iters)
            if sol.status == "optimal":
                r_cov = sol.R_ss
                evd = hermitian_evd(r_cov.matrix)
                forms = None

            powers = power_breakdown(eff, x.w, r_cov.matrix, scen.sigma_r2_W,
                                     scen.sigma_c2_W, scen.M_r, evd=evd)
            history.append(BccdIteration(
                p_pi=powers.p_pi,
                p_sense=powers.p_sense,
                sndr_db=powers.sndr_db,
                comm_snr_db=powers.comm_snr_db,
                dr_db=powers.dr_db,
                sdp_status=sol.status,
            ))

        if len(history) > STALL_WINDOW:
            recent = [
                relative_change(history[-k].p_pi, history[-k - 1].p_pi, stall_floor)
                for k in range(1, STALL_WINDOW + 1)
            ]
            if max(recent) < STALL_TOL:
                converged = True
                break

    assert powers is not None
    return BccdResult(
        w=x.w.copy(),
        phi=x.phi.copy(),
        R_ss=r_cov,
        history=tuple(history),
        converged=converged,
        final_powers=powers,
    )
