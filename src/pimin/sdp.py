"""Transmit-covariance subproblem: a small semidefinite program.

Given the radar weights and RIS phases, the covariance step minimizes the
path-interference trace form ``<C, R>`` over Hermitian PSD matrices with a
fixed trace ``P``, one communication-SNR trace inequality ``<A_1, R> >= b_1``
and one sensing-ratio trace inequality ``<A_2, R> >= b_2``.

The solver works on the exact Lagrange dual, a concave maximization over the
two inequality multipliers (Vandenberghe & Boyd, SIAM Review 1996)::

    max_{mu >= 0}  g(mu) = P * lambda_min(C - mu_1 A_1 - mu_2 A_2) + mu . b

Three trace constraints admit a rank-one optimum (Huang & Palomar, IEEE TSP
2010), so a minimum eigenvector ``v`` of the dual matrix gives the primal
answer ``P v v^H``. A point is feasible when each inequality holds within
``TOL``, relative to a positive right-hand side, and every answer carries its
evidence at that tolerance:

* a spectral certificate declares infeasibility at once when even the best
  rank-one covariance cannot reach a right-hand side;
* the dual is first read at ``mu = 0``: any feasible point in the minimum
  eigenspace of ``C`` is optimal. The objective that ``assemble_p2`` builds is
  rank one, so this eigenspace is its null space and the answer is the
  interference-nulling one. The uniform covariance on the eigenspace is kept
  when it is feasible, and otherwise mixed with the fewest weight toward the
  max-margin point of the eigenspace;
* a max-margin point of the whole space that misses by more than ``TOL``
  proves the two constraints jointly out of reach;
* otherwise a projected Newton ascent climbs ``g``. Its gradient is
  ``b_i - v^H A_i v`` and its Hessian follows from eigenvalue perturbation.
  The duality gap ``<C, P v v^H> - g(mu)`` certifies optimality, and by weak
  duality any ``g(mu)`` above ``P * lambda_max(C)`` certifies infeasibility.

The public contract stays complex Hermitian; problems are scaled internally
to unit trace and unit-norm coefficient matrices for conditioning. An
``SdpProblem`` built by its constructor is checked and stores the Hermitian
part of each matrix; ``assemble_p2`` builds those parts itself and skips the
checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import _frobenius, _hermitian_part, check_hermitian, eigh, eigvalsh, solve
from .scenario import ScenarioConfig
from .sysmodel import BeamProducts

# Eigenvalues of the unit-norm objective within this distance of the smallest
# span the minimum eigenspace searched at zero multipliers.
EIG_CLUSTER = 1e-10

# The feasibility tolerance, relative to each positive right-hand side, and
# the duality gap that certifies an optimum, relative to the objective.
TOL = 1e-7


# ---------------------------------------------------------------------------
# Problem and solution containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpProblem:
    """Trace-form covariance subproblem data, all matrices Hermitian."""

    dim: int
    obj: np.ndarray         # minimized: <obj, R>
    comm_mat: np.ndarray    # <comm_mat, R> >= comm_rhs
    comm_rhs: float
    sense_mat: np.ndarray   # <sense_mat, R> >= sense_rhs
    sense_rhs: float
    trace_budget: float

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise DimensionError(f"dim must be >= 1, got {self.dim}")
        if self.trace_budget <= 0.0:
            raise DomainError(f"trace budget must be > 0, got {self.trace_budget}")
        for name in ("obj", "comm_mat", "sense_mat"):
            mat = np.asarray(getattr(self, name), dtype=np.complex128)
            if mat.shape != (self.dim, self.dim):
                raise DimensionError(f"{name} has shape {mat.shape}, expected "
                                     f"({self.dim}, {self.dim})")
            object.__setattr__(self, name, check_hermitian(mat, rel_tol=1e-10, name=name))

    @classmethod
    def _unchecked(cls, **fields) -> "SdpProblem":
        """The problem with ``fields`` as they stand, without ``__post_init__``.

        For fields that it would store unchanged: a positive ``dim`` and trace
        budget, and exactly Hermitian complex128 ``(dim, dim)`` matrices.
        """
        problem = object.__new__(cls)
        problem.__dict__.update(fields)
        return problem


@dataclass(frozen=True)
class SdpSolution:
    R_ss: np.ndarray            # Hermitian PSD covariance of trace ``trace_budget``
    objective_value: float
    kkt_residual: float         # duality gap over ||obj||_F * trace budget, >= 0; inf when
                                # R_ss misses a constraint by more than TOL
    status: str                 # "optimal", "infeasible" (certified) or "max_iters"
    constraint_violation: float  # worst shortfall, relative to each rhs > 0 (infeasible: proven)
    iterations: int             # dual evaluations; 0 for a spectral or zero-matrix certificate


# ---------------------------------------------------------------------------
# Problem assembly from the system model
# ---------------------------------------------------------------------------

def assemble_p2(beams: BeamProducts, cfg: ScenarioConfig) -> SdpProblem:
    """Build the covariance subproblem from the beam products of ``w`` at the phases.

    The interference and echo trace coefficients are rank-one Gram matrices of
    the stacked adjoint channel-beamformer products; the communication
    coefficient is block diagonal in the per-sample channel Gram. Each matrix
    is stored as its Hermitian part, the one that ``SdpProblem`` would store;
    products round asymmetrically, so they are not Hermitian before that.
    Built Hermitian, the problem skips ``SdpProblem``'s checks.
    """
    u, a, o, n_samples = beams.u, beams.a, beams.o, beams.n_samples
    obj = np.outer(u, u.conj())
    m_t = beams.gram.shape[0]
    comm_mat = np.zeros((n_samples * m_t, n_samples * m_t), dtype=np.complex128)
    block = np.arange(n_samples)
    # the Hermitian part of a block diagonal is that of each block
    comm_mat.reshape(n_samples, m_t, n_samples, m_t)[block, :, block] = \
        _hermitian_part(beams.gram)
    gamma_s = cfg.gamma_sense
    sense_mat = np.outer(a, a.conj()) - gamma_s * (obj + np.outer(o, o.conj()))

    return SdpProblem._unchecked(
        dim=len(u),
        obj=_hermitian_part(obj),
        comm_mat=comm_mat,
        comm_rhs=cfg.gamma_comm * cfg.M_r * n_samples * cfg.sigma_c2_W,
        sense_mat=_hermitian_part(sense_mat),
        sense_rhs=gamma_s * cfg.sigma_r2_W * len(beams.w),
        trace_budget=cfg.P_B,
    )


# ---------------------------------------------------------------------------
# Solver (scaled units: trace 1, unit-norm coefficient matrices)
# ---------------------------------------------------------------------------

def _max_margin(mats: np.ndarray, b: np.ndarray):
    """Trace-one PSD ``Y`` maximizing ``min_i <A_i, Y> - b_i``.

    The maximum equals the minimum over ``d = (theta, 1 - theta)`` of the
    convex ``h(d) = lambda_max(d . A) - d . b``, searched by safeguarded
    Newton steps on ``h'``; the top eigenvectors at the bracket's ends are
    then mixed so that both margins agree. Returns ``Y``, the weights ``d``
    of the least ``h`` met, and that ``h``: ``h < 0`` proves that no point of
    the space meets both constraints.
    """
    theta, lo, hi, best = 1.0, None, None, (np.inf, b)
    for _ in range(64):
        d = np.array([theta, 1.0 - theta])[:len(b)]
        lam, v = eigh(np.tensordot(d, mats, axes=1))
        y = v[:, -1]
        ay = mats @ y
        margins = (ay @ y.conj()).real - b
        h, slope = float(lam[-1] - d @ b), float(margins[0] - margins[-1])
        best = min(best, (h, d), key=lambda t: t[0])
        if h < 0.0 or (theta == 1.0 and slope <= 0.0) or (theta == 0.0 and slope >= 0.0):
            return np.outer(y, y.conj()), d, h
        if slope < 0.0:
            lo = (theta, slope, y)
        else:
            hi = (theta, slope, y)
        if lo is None:
            theta = 0.0
            continue
        if hi[0] - lo[0] <= 1e-15 or abs(slope) <= 1e-15:
            break
        dy = v[:, :-1].conj().T @ (ay[0] - ay[1])
        curv = 2.0 * np.sum(np.abs(dy) ** 2 / np.maximum(lam[-1] - lam[:-1], 1e-300))
        theta = theta - slope / curv if curv > 0.0 else -1.0
        if not lo[0] < theta < hi[0]:
            theta = 0.5 * (lo[0] + hi[0])
    mix = hi[1] / (hi[1] - lo[1])
    y_mat = mix * np.outer(lo[2], lo[2].conj()) + (1.0 - mix) * np.outer(hi[2], hi[2].conj())
    return y_mat, best[1], best[0]


def solve_sdp(problem: SdpProblem, max_iters: int = 100) -> SdpSolution:
    """Solve the covariance subproblem through its two-multiplier dual.

    ``optimal``: each inequality holds within ``TOL`` (relative to a positive
    right-hand side) and the duality gap is at most ``TOL`` relative to the
    objective. ``infeasible``: a certificate proves that every point falls
    short by at least ``constraint_violation``. ``max_iters``: the last primal
    point, after ``max_iters`` dual evaluations or an ascent stalled at
    round-off.
    """
    if max_iters < 1:
        raise DomainError(f"max_iters must be >= 1, got {max_iters}")
    n, s = problem.dim, problem.trace_budget

    def finish(r_scaled: np.ndarray, status: str, gap: float, violation: float,
               iterations: int) -> SdpSolution:
        r = s * r_scaled
        return SdpSolution(
            R_ss=r,
            objective_value=float(np.vdot(problem.obj, r).real),
            # a gap at a point that misses a constraint bounds nothing
            kkt_residual=max(gap, 0.0) if violation <= TOL else np.inf,
            status=status,
            constraint_violation=violation,
            iterations=iterations,
        )

    def infeasible(violation: float, iterations: int) -> SdpSolution:
        """The uniform covariance, with a certified shortfall."""
        return finish(np.eye(n, dtype=np.complex128) / n, "infeasible", np.inf, violation,
                      iterations)

    # Scale: R = s * R_tilde with trace(R_tilde) = 1; unit-norm coefficients.
    mats: list[np.ndarray] = []
    rhs: list[float] = []
    for mat, b in ((problem.comm_mat, problem.comm_rhs),
                   (problem.sense_mat, problem.sense_rhs)):
        f = _frobenius(mat)
        if f == 0.0:
            if b > 0.0:
                return infeasible(1.0, 0)
            continue    # vacuous constraint
        mats.append(mat / f)
        rhs.append(b / (s * f))
    a = np.array(mats).reshape(len(mats), n, n)
    b = np.array(rhs)
    rel = np.where(b > 0.0, b, 1.0)

    def shortfall(vals: np.ndarray) -> float:
        """Worst violation of ``vals >= b``: relative where ``b_i > 0``, else absolute."""
        return float((np.maximum(b - vals, 0.0) / rel).max(initial=0.0))

    f_obj = _frobenius(problem.obj)
    c = problem.obj / f_obj if f_obj > 0.0 else np.zeros((n, n), dtype=np.complex128)

    # Spectral certificate: every Y has <A_i, Y> <= lambda_max(A_i).
    worst_gap = shortfall(eigvalsh(a)[:, -1])
    if worst_gap > TOL:
        return infeasible(worst_gap, 0)

    # Iteration 1, mu = 0: any feasible point of the minimum eigenspace E of C
    # attains the lower bound g(0) = lambda_min(C).
    lam_c, vec_c = eigh(c)
    e = vec_c[:, lam_c <= lam_c[0] + EIG_CLUSTER]
    red = e.conj().T @ a @ e
    x = np.eye(e.shape[1]) / e.shape[1]
    margin = np.einsum("mii->m", red).real / e.shape[1] - b
    step = np.zeros(len(b))
    if (margin < 0.0).any():
        y_mat, step, _ = _max_margin(red, b)
        y_margin = np.einsum("mij,ji->m", red, y_mat).real - b
        beta = np.max(margin / np.minimum(margin - y_margin, -1e-300),
                      where=margin < 0.0, initial=0.0)
        x = (1.0 - min(beta, 1.0)) * x + min(beta, 1.0) * y_mat
    r = e @ x @ e.conj().T
    violation = shortfall(np.einsum("mij,ji->m", a, r).real)
    if violation <= TOL:
        return finish(r, "optimal", float(np.vdot(c, r).real) - lam_c[0], violation, 1)

    # Every Y has some margin <A_i, Y> - b_i <= h: a shortfall of -h / scale.
    _, _, h = _max_margin(a, b)
    scale = float(rel.max())
    if h < -TOL * scale:
        return infeasible(-h / scale, 1)

    # Projected Newton ascent on g from mu = 0 (each evaluation counts once).
    mu, g, gap = np.zeros(len(b)), float(lam_c[0]), np.inf
    for it in range(2, max_iters + 1):
        t = 1.0
        for _ in range(60):
            trial = np.maximum(mu + t * step, 0.0)
            lam, v = eigh(c - np.tensordot(trial, a, axes=1))
            g_trial = float(lam[0] + trial @ b)
            if g_trial >= g - 1e-14 * (1.0 + trial.sum()):    # g's round-off
                break
            t *= 0.5
        else:
            trial = mu
        if np.array_equal(trial, mu):
            return finish(r, "max_iters", gap, violation, it - 1)
        mu, g = trial, g_trial
        y = v[:, 0]
        ay = a @ y
        vals = (ay @ y.conj()).real
        violation = shortfall(vals)
        # weak duality: every Y has sum_i mu_i (<A_i, Y> - b_i) <= -excess
        excess = g - lam_c[-1]
        if excess > 1e-14 * (1.0 + mu.sum()):    # g's round-off
            return infeasible(excess / (mu.sum() * scale), it)
        r = np.outer(y, y.conj())
        primal = float(lam[0] + mu @ vals)
        gap = primal - g
        if violation <= TOL and gap <= TOL * abs(primal):
            return finish(r, "optimal", gap, violation, it)

        # Hessian by eigenvalue perturbation: negative semidefinite.
        grad = b - vals
        w = v[:, 1:].conj().T @ ay.T
        hess = 2.0 * (w.conj().T @ (w / np.minimum(lam[0] - lam[1:], -1e-300)[:, None])).real
        free = (mu > 0.0) | (grad > 0.0)
        neg = -hess[np.ix_(free, free)]
        step = np.zeros(len(b))
        reg = 1e-12 * np.trace(neg) + 1e-15
        step[free] = solve(neg + reg * np.eye(len(neg)), grad[free])
    return finish(r, "max_iters", gap, violation, max_iters)
