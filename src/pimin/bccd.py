"""Block-cyclic coordinate descent over the beamformer/phase and covariance blocks.

Each outer iteration reduces the interference objective to per-eigenpair forms
of the current transmit covariance, runs the manifold Levenberg–Marquardt
solver for the stacked unit-modulus variable, then re-optimizes the covariance
by the SDP at the new operating point. The covariance is eigendecomposed once
each time it changes, and that decomposition also serves the figures of merit.
A stall rule on the relative interference-power change declares convergence;
when the covariance subproblem is infeasible the previous covariance is kept
and the iteration is flagged.

A run starts from a ``BccdStart`` that the caller passes in: the channel set,
the ``init_rss`` covariance, its eigendecomposition, the random state and the
forms of that start, all read-only, so the runs of one trial can share one
start. ``seeded_start`` builds it from a seed. A run given ``frozen_phi``
keeps the RIS reflection coefficients there (the benchmark designs): each set
of forms is folded at them once, and the manifold block moves only the radar
weights. Every RIS-coupled path is linear in the coefficients, so frozen
zeros are the system without an RIS, on the same start.

The loop ends at an exact fixed point: once a later manifold solve takes no
step, or right after a record whose restart solve provably takes none (the
covariance is kept after a ``grad_tol`` stop, or after an optimal SDP a bound
on the restart's first gradient is below the tolerance). Every later
iteration would repeat the last record, so a tail repeats it, without calling
any block, until the stall rule or ``n_iter`` ends the run.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DimensionError
from .linalg import EvdResult, _frobenius, _hermitian_part, hermitian_evd
from .metrics import PowerBreakdown, power_breakdown
from .rcg import (BeamformerState, PrecomputedForms, RcgConfig, precompute_forms,
                  random_state, rcg_solve)
from .scenario import ChannelSet, ScenarioConfig, check_count, dbm_to_watt
from .sdp import TransmitCovariance, assemble_p2, solve_sdp
from .sysmodel import beam_products, build_effective_channels, check_phases

# Interference below this fraction of the noise power counts as fully
# suppressed when measuring relative change; it keeps the stall rule
# meaningful once the solver reaches its numerical floor.
STALL_FLOOR_REL_NOISE = 1e-3
# The loop has converged once each of the last STALL_WINDOW steps changed the
# interference power by less than STALL_TOL relative.
STALL_TOL = 1e-5
STALL_WINDOW = 3
# Round-off allowance of the idle-restart bound, in units of eps per entry of
# the inner-product lengths summed along the way (see _idle_rule).
IDLE_ROUNDOFF = 8.0
# The radar noise power (-80 dBm, the desk scenarios' floor) at which
# bccd_solve reads RcgConfig.grad_tol as watts.
REF_NOISE_W = dbm_to_watt(-80.0)


@dataclass(frozen=True)
class BccdConfig:
    """Outer-loop controls."""

    n_iter: int = 20
    rcg: RcgConfig = field(default_factory=RcgConfig)
    sdp_max_iters: int = 50_000  # SDP dual evaluations before it gives up

    def __post_init__(self) -> None:
        check_count("n_iter", self.n_iter, 1)
        check_count("sdp_max_iters", self.sdp_max_iters, 1)


@dataclass(frozen=True)
class BccdIteration(PowerBreakdown):
    """One outer iteration's record: the ``power_breakdown`` of its operating
    point and the status of its covariance step."""

    sdp_status: str


@dataclass(frozen=True)
class BccdResult:
    w: np.ndarray
    phi: np.ndarray
    R_ss: TransmitCovariance
    history: tuple[BccdIteration, ...]
    converged: bool

    @property
    def outer_iterations(self) -> int:
        return len(self.history)

    @property
    def final_powers(self) -> BccdIteration:
        return self.history[-1]


def init_rss(dim: int, budget: float, rng: np.random.Generator) -> TransmitCovariance:
    """Random PSD start: a uniform-entry Gram matrix rescaled to the budget."""
    u = rng.random((dim, dim)) + 1j * rng.random((dim, dim))
    r = u.conj().T @ u
    r *= budget / float(np.trace(r).real)
    return TransmitCovariance(matrix=_hermitian_part(r), budget=budget)


def relative_change(new: float, old: float, floor: float) -> float:
    """Relative step of a non-negative sequence, floored for tiny values."""
    return abs(new - old) / max(old, floor)


@dataclass(frozen=True)
class BccdStart:
    """The point every method of a trial runs from; every array is read-only."""

    ch: ChannelSet
    R_ss: TransmitCovariance
    evd: EvdResult              # eigendecomposition of R_ss
    x: BeamformerState
    forms: PrecomputedForms     # forms of evd on ch


def seeded_start(seed: int, scen: ScenarioConfig, ch: ChannelSet) -> BccdStart:
    """The start drawn from ``default_rng(seed)``: ``init_rss``, then ``random_state``."""
    rng = np.random.default_rng(seed)
    r_cov = init_rss(scen.L * scen.M_t, scen.P_B, rng)
    x = random_state(scen.L * scen.M, scen.N, rng)
    r_cov.matrix.flags.writeable = False
    x.x.flags.writeable = False
    evd = hermitian_evd(r_cov.matrix)
    forms = precompute_forms(evd, ch, scen.L)
    forms.b.flags.writeable = False
    forms.c.flags.writeable = False
    return BccdStart(ch=ch, R_ss=r_cov, evd=evd, x=x, forms=forms)


def _idle_rule(ch: ChannelSet, scen: ScenarioConfig, optimize_phi: bool,
               grad_tol: float) -> Callable[[float, np.ndarray], bool]:
    """``idle(p_pi, ac_block)``: whether the manifold solve after an optimal SDP
    provably takes no step. A run builds the rule once, so the channel norms of
    the bound are computed once per run.

    The restart would run from the current ``x`` on the forms of the new
    covariance, whose clipped eigenpairs ``(lam_i, v_i)`` have
    ``sum lam_i <= P_B``. Those forms give ``t_i = b_i + c_i phi =
    sqrt(lam_i) (I kron Ac) v_i`` and ``e_i = w^H t_i = sqrt(lam_i) u^H v_i``
    with ``u = (I kron Ac)^H w``, so ``sum |e_i|^2 = p_pi``, the power just
    reported. The solver stops before its first step when the gradient in
    theta, ``Im(conj(x) * egrad)`` over the state's coordinates, has norm at
    most ``grad_tol``; that norm is at most ``||egrad||``. By Cauchy-Schwarz:

    * the radar part ``2 sum conj(e_i) t_i`` has norm at most
      ``2 sqrt(p_pi) sqrt(sum ||t_i||^2) <= 2 sqrt(p_pi P_B) ||Ac||_F``;
    * the phase part ``sum e_i 2 conj(c_i)^T w`` has norm at most
      ``2 sqrt(p_pi) sqrt(sum ||c_i||_F^2 ||w||^2)``, where ``||w||^2 = L M``
      and ``||c_i||_F <= sqrt(lam_i) |gamma_RPI| ||G_rR||_F ||H_cR||_F``; it
      counts only when the state holds the phases (``optimize_phi``).

    So ``||g|| <= K sqrt(p_pi)`` with ``K = 2 sqrt(P_B) (||Ac||_F +
    |gamma_RPI| ||H_cR||_F ||G_rR||_F sqrt(L M))``. In floating point the
    solver's ``e_i`` and the reported ``p_pi`` each carry an error of at most
    about ``eps`` times the inner-product lengths summed along the way
    (``L M_t + L M + N``, with ``IDLE_ROUNDOFF`` to spare) times the size of
    the summands, which is at most ``sqrt(lam_i) sqrt(L M) A`` with ``A =
    |gamma_DPI| ||H_DPI||_F + |gamma_RPI| ||G_rR||_F ||H_cR||_F``, a bound on
    ``||Ac||_F`` for every coefficient vector whose entries have modulus at
    most 1, zeros included. That adds ``c eps sqrt(P_B L M) A``
    to ``sqrt(p_pi)``; the halved tolerance covers the relative round-off of
    the gradient's own sums and of ``sum lam_i``. With ``grad_tol = 0`` the
    restart is never skipped.
    """
    lm = scen.L * scen.M
    ris = abs(ch.gamma_RPI) * _frobenius(ch.H_cR) * _frobenius(ch.G_rR)
    phase_term = ris * math.sqrt(lm) if optimize_phi else 0.0
    a = abs(ch.gamma_DPI) * _frobenius(ch.H_DPI) + ris
    c = IDLE_ROUNDOFF * (scen.L * scen.M_t + lm + scen.N)
    roundoff = c * sys.float_info.epsilon * math.sqrt(scen.P_B * lm) * a
    scale = 2.0 * math.sqrt(scen.P_B)

    def idle(p_pi: float, ac_block: np.ndarray) -> bool:
        k = scale * (_frobenius(ac_block) + phase_term)
        return grad_tol > 0.0 and k * (math.sqrt(p_pi) + roundoff) <= 0.5 * grad_tol

    return idle


def bccd_solve(cfg: BccdConfig, scen: ScenarioConfig, start: BccdStart, *,
               frozen_phi: np.ndarray | None = None) -> BccdResult:
    """Alternate the manifold block and the covariance SDP block from ``start``.

    With ``frozen_phi`` the RIS reflection coefficients stay there for the
    whole run (the benchmark designs; all zeros is no RIS) in place of the
    start's phases, and the manifold block solves the forms folded at them
    from the start's radar weights alone.

    ``cfg.rcg.grad_tol`` is read as watts at ``REF_NOISE_W`` and scaled with
    ``scen.sigma_r2_W``; ``rcg_solve`` gets that absolute tolerance. The
    interference terms scale with the transmit power and ``rcg_solve`` is
    equivariant to that scaling, so shifting the powers and both noise floors
    by the same number of dB leaves the design unchanged.
    """
    ch, r_cov, evd, x, forms = start.ch, start.R_ss, start.evd, start.x, start.forms
    m_r, m_t, m, n = ch.dims
    lm = scen.L * m
    if ((m_r, m_t, m, n, evd.dim, x.num_bf, x.dim)
            != (scen.M_r, scen.M_t, scen.M, scen.N, scen.L * m_t, lm, lm + n)):
        raise DimensionError(
            f"start (M_r={m_r}, M_t={m_t}, M={m}, N={n}, covariance dim {evd.dim}, "
            f"state {x.num_bf} + {x.dim - x.num_bf}) does not match scenario")
    optimize_phi = frozen_phi is None
    phi = x.phi
    if not optimize_phi:
        phi = check_phases(frozen_phi, n)
        x = BeamformerState(x=x.w, num_bf=lm)
        forms = forms.fold(phi)

    stall_floor = STALL_FLOOR_REL_NOISE * scen.sigma_r2_W * lm
    grad_tol = cfg.rcg.resolved_grad_tol(x.dim) * (scen.sigma_r2_W / REF_NOISE_W)
    rcg_cfg = RcgConfig(cfg.rcg.max_iters, grad_tol)
    restart_is_idle = _idle_rule(ch, scen, optimize_phi, grad_tol)
    history: list[BccdIteration] = []

    def stalled() -> bool:
        """Each of the last STALL_WINDOW records moved p_pi by less than STALL_TOL."""
        return len(history) > STALL_WINDOW and max(
            relative_change(history[-k].p_pi, history[-k - 1].p_pi, stall_floor)
            for k in range(1, STALL_WINDOW + 1)) < STALL_TOL

    # The covariance changes only when the SDP is solved, so its
    # eigendecomposition and forms carry over an infeasible or stalled call.
    for _ in range(cfg.n_iter):
        if forms is None:
            forms = precompute_forms(evd, ch, scen.L)
            if not optimize_phi:
                forms = forms.fold(phi)
        rcg_out = rcg_solve(forms, x, rcg_cfg)
        # A 0-step solve returns x itself, where the last SDP was solved. The
        # SDP reads only (w, phi), so it would give the same covariance, forms
        # and record, and the next solve would take 0 steps again: by
        # induction every later iteration repeats the last record.
        if history and rcg_out.iterations == 0:
            break
        x = rcg_out.x
        if optimize_phi:
            phi = x.phi
        eff = build_effective_channels(ch, phi)
        beams = beam_products(eff, x.w)
        sol = solve_sdp(assemble_p2(beams, scen), max_iters=cfg.sdp_max_iters)
        if sol.status == "optimal":
            r_cov = sol.R_ss
            evd = hermitian_evd(r_cov.matrix)
            forms = None

        powers = power_breakdown(beams, r_cov.matrix, scen.sigma_r2_W,
                                 scen.sigma_c2_W, scen.M_r, evd)
        history.append(BccdIteration(**vars(powers), sdp_status=sol.status))
        # The next solve would take no step, so the loop is at the fixed point
        # above, in two cases. The covariance, hence the forms, are kept and
        # this solve stopped at grad_tol: the next would run the same kernels
        # on the same forms from the same x and stop at once. Or the SDP gave
        # a new covariance and the rule of _idle_rule proves that the first
        # gradient on its forms is below grad_tol; its docstring holds the proof.
        idle = (restart_is_idle(powers.p_pi, eff.Ac_block)
                if sol.status == "optimal" else rcg_out.stop_reason == "grad_tol")
        if idle or stalled():
            break

    # From the fixed point every later iteration repeats the last record.
    while len(history) < cfg.n_iter and not stalled():
        history.append(history[-1])

    return BccdResult(
        w=x.w.copy(),
        phi=phi.copy(),
        R_ss=r_cov,
        history=tuple(history),
        converged=stalled(),
    )
