"""Transmit-covariance subproblem: a small semidefinite program.

Given the radar weights and RIS phases, the covariance step minimizes the
path-interference trace form ``<C, R>`` over Hermitian PSD matrices with a
fixed trace ``P``, one communication-SNR trace inequality ``<A_1, R> >= b_1``
and one sensing-ratio trace inequality ``<A_2, R> >= b_2``.

The solver works on the exact Lagrange dual, a concave maximization over the
two inequality multipliers (Vandenberghe & Boyd, SIAM Review 1996)::

    max_{mu >= 0}  g(mu) = P * lambda_min(C - mu_1 A_1 - mu_2 A_2) + mu . b

Its minimum eigenvectors give the primal points, mixed where the eigenvalue
repeats (a kink of ``g``). Each inequality must hold within ``TOL``, relative
to a positive right-hand side, and every answer carries its evidence:

* a spectral certificate proves infeasibility when even the best rank-one
  covariance cannot reach a right-hand side (a zero matrix reaches only 0);
* at ``mu = 0`` any feasible point of the minimum eigenspace of ``C`` (for
  ``assemble_p2``'s rank-one objective, its null space) is optimal: the
  uniform one, or else its least mix toward the eigenspace's max-margin point;
* a max-margin point of the whole space that misses by more than ``TOL``
  proves the constraints jointly infeasible; else its margin bounds ``mu``;
* otherwise nested line searches over the two multipliers maximize ``g``, and
  the duality gap certifies the optimum. ``_line_max`` runs every search.

Problems are scaled internally to unit trace and unit-norm coefficients. A
zero constraint matrix is an ordinary constraint, kept as it is, so the dual
always has two multipliers. The constructor checks an ``SdpProblem``;
``assemble_p2`` builds one unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import _frobenius, _hermitian_part, check_hermitian, eigh, eigvalsh
from .scenario import ScenarioConfig, check_count
from .sysmodel import BeamProducts

# Eigenvalues of the unit-norm objective within this distance of the smallest
# span the minimum eigenspace searched at zero multipliers.
EIG_CLUSTER = 1e-10

# The feasibility tolerance, relative to each positive right-hand side, and
# the duality gap that certifies an optimum, relative to the objective.
TOL = 1e-7

# The default cap on dual evaluations, for ``solve_sdp`` and ``BccdConfig``.
MAX_ITERS = 100


# ---------------------------------------------------------------------------
# Problem and solution containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SdpProblem:
    """Trace-form covariance subproblem data: Hermitian matrices of the
    objective's size. The constructor checks the shapes, a positive finite
    budget, finite right-hand sides and each matrix Hermitian within 1e-10
    relative, and stores its Hermitian part."""

    obj: np.ndarray         # minimized: <obj, R>
    comm_mat: np.ndarray    # <comm_mat, R> >= comm_rhs
    comm_rhs: float
    sense_mat: np.ndarray   # <sense_mat, R> >= sense_rhs
    sense_rhs: float
    trace_budget: float

    @property
    def dim(self) -> int:
        return self.obj.shape[0]

    def __post_init__(self) -> None:
        shape = np.shape(self.obj)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise DimensionError(f"obj must be a non-empty square matrix, got shape {shape}")
        if not self.trace_budget > 0.0:
            raise DomainError(f"trace budget must be > 0, got {self.trace_budget}")
        for name in ("trace_budget", "comm_rhs", "sense_rhs"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("obj", "comm_mat", "sense_mat"):
            mat = np.asarray(getattr(self, name), dtype=np.complex128)
            if mat.shape != shape:
                raise DimensionError(f"{name} has shape {mat.shape}, expected {shape}")
            object.__setattr__(self, name, check_hermitian(mat, rel_tol=1e-10, name=name))

    @classmethod
    def _unchecked(cls, **fields) -> "SdpProblem":
        """The problem with ``fields`` as they stand, without ``__post_init__``.

        For fields that it would store unchanged: a positive finite trace
        budget, finite right-hand sides and exactly Hermitian complex128
        matrices of one non-empty square shape.
        """
        problem = object.__new__(cls)
        problem.__dict__.update(fields)
        return problem


@dataclass(frozen=True)
class SdpSolution:
    R_ss: np.ndarray            # PSD, trace trace_budget; rank 1, up to 4 at kinks, any at mu = 0
    objective_value: float
    kkt_residual: float         # duality gap over ||obj||_F * trace budget, >= 0; inf when
                                # R_ss misses a constraint by more than TOL
    status: str                 # "optimal", "infeasible" (certified) or "max_iters"
    constraint_violation: float  # worst shortfall, relative to each rhs > 0 (infeasible: proven)
    iterations: int             # dual evaluations; 0 for a spectral certificate,
                                # max_iters for a whole-space max-margin search cut at that cap


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

def _line_max(evaluate, t: float, hi: float, tol: float, feas: float = np.inf):
    """Maximize a concave ``phi`` over ``[0, hi]`` from ``t``, kinks included.

    ``evaluate(t)`` gives ``(low, p, s, curv, y)``, or None past its budget:
    ``low <= phi(t)``, a primal point ``y`` whose line ``p + s u`` is ``low`` at
    ``t`` and bounds ``phi`` above, and ``phi''(t)`` or 0. As ``s`` is linear in
    ``y``, the bracket's ends mix into a point of slope 0: the answer at a kink.
    A point with ``s <= feas`` is accepted when its line, plus ``hi`` times a
    positive ``s`` (the box's exact penalty), is within ``tol * |p|`` of the best
    ``low``. Steps are Newton's unless they leave the bracket or the last did not
    halve the slope; else the meeting point of the ends' lines, superlinear at a
    kink, or the far end. Returns the last pick (None if none) and the best ``low``.
    """
    lo = up = pick = None   # bracket ends (t, p, s, y) with s > 0 and with s < 0
    best, newton, s = -np.inf, False, 0.0
    while (out := evaluate(t)) is not None:
        last, (low, p, s, curv, y) = s, out
        best = max(best, low)
        if s != 0.0:
            lo, up = ((t, p, s, y), up) if s > 0.0 else (lo, (t, p, s, y))
        picks = [(p, s, y)]
        if lo and up:
            w = lo[2] / (lo[2] - up[2])
            picks.append(((1.0 - w) * lo[1] + w * up[1], 0.0, (1.0 - w) * lo[3] + w * up[3]))
        gaps = [max(q - best, 0.0) + hi * max(r, 0.0) - tol * abs(q) if r <= feas else np.inf
                for q, r, _ in picks]
        a, z = lo[0] if lo else 0.0, up[0] if up else hi
        newton = curv < 0.0 and not (newton and abs(s) > 0.5 * abs(last))
        nxt = t - s / curv if newton else np.nan
        if not a < nxt < z and lo and up:   # exact lines meet inside; clip round-off
            nxt = min(max((up[1] - lo[1]) / (lo[2] - up[2]), a), z)
        elif not a < nxt < z:
            nxt = z if s > 0.0 else a
        pick = picks[0 if gaps[0] <= 0.0 else int(np.argmin(gaps))][2]  # rank one first
        if min(gaps) <= 0.0 or nxt == t:
            break
        t = nxt
    return pick, best


def _margin_line(mats: np.ndarray, b: np.ndarray, theta: float):
    """``_line_max``'s ``(low, p, s, curv, y)`` for ``-h`` at ``d = (theta, 1 - theta)``,
    ``h(d) = lambda_max(d . A) - d . b``, with ``y`` the top eigenvector's projector."""
    d = np.array([theta, 1.0 - theta])
    lam, v = eigh(np.tensordot(d, mats, axes=1))
    ay = mats @ v[:, -1]
    m = (ay @ v[:, -1].conj()).real - b
    dy = v[:, :-1].conj().T @ (ay[0] - ay[-1])
    curv = -2.0 * np.sum(np.abs(dy) ** 2 / np.maximum(lam[-1] - lam[:-1], 1e-150))
    return d @ b - lam[-1], -m[-1], m[-1] - m[0], curv, np.outer(v[:, -1], v[:, -1].conj())


def _max_margin(mats: np.ndarray, b: np.ndarray, max_iters: int):
    """Trace-one PSD ``Y`` maximizing ``min_i <A_i, Y> - b_i``; ``miss``, minus the
    least ``h`` met over ``d = (theta, 1 - theta)`` from ``theta = 1``; and whether
    the search was cut at ``max_iters`` evaluations, its ``Y`` then its last pick.
    Every point misses some constraint by at least ``miss``."""
    evals, capped = 0, False

    def evaluate(theta: float):
        nonlocal evals, capped
        capped = evals == max_iters
        evals += 1
        return None if capped else _margin_line(mats, b, theta)

    y, miss = _line_max(evaluate, 1.0, 1.0, 1e-12)
    return y, miss, capped


def solve_sdp(problem: SdpProblem, max_iters: int = MAX_ITERS) -> SdpSolution:
    """Solve the covariance subproblem through its two-multiplier dual; a zero
    constraint matrix is an ordinary constraint with its own multiplier.

    ``optimal``: each inequality holds within ``TOL`` (relative to a positive
    right-hand side) and the duality gap is at most ``TOL`` relative to the
    objective. ``infeasible``: a certificate proves that every point falls
    short by at least ``constraint_violation``. ``max_iters``: the search's
    best point after ``max_iters`` dual evaluations, or once it has no step; or
    the last pick of a whole-space max-margin search cut at ``max_iters`` evaluations.
    """
    check_count("max_iters", max_iters, 1)
    n, s = problem.dim, problem.trace_budget

    def finish(r_scaled: np.ndarray, status: str, gap: float, violation: float,
               iterations: int) -> SdpSolution:
        r = s * r_scaled
        return SdpSolution(R_ss=r, objective_value=float(np.vdot(problem.obj, r).real),
                           # a gap at a point that misses a constraint bounds nothing
                           kkt_residual=max(gap, 0.0) if violation <= TOL else np.inf,
                           status=status, constraint_violation=violation, iterations=iterations)

    def infeasible(violation: float, iterations: int) -> SdpSolution:
        """The uniform covariance, with a certified shortfall."""
        return finish(np.eye(n, dtype=np.complex128) / n, "infeasible", np.inf, violation,
                      iterations)

    # Scale: R = s * R_tilde with trace(R_tilde) = 1; unit-norm coefficients, a zero one as is.
    f = (_frobenius(problem.comm_mat) or 1.0, _frobenius(problem.sense_mat) or 1.0)
    a = np.array([problem.comm_mat / f[0], problem.sense_mat / f[1]])
    b = np.array([problem.comm_rhs / (s * f[0]), problem.sense_rhs / (s * f[1])])
    rel = np.where(b > 0.0, b, 1.0)

    def shortfall(vals: np.ndarray) -> float:
        """Worst violation of ``vals >= b``: relative where ``b_i > 0``, else absolute."""
        return float((np.maximum(b - vals, 0.0) / rel).max(initial=0.0))

    c = problem.obj / (_frobenius(problem.obj) or 1.0)

    # Spectral certificate: every Y has <A_i, Y> <= lambda_max(A_i), 0 for a zero A_i.
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
    if (margin < 0.0).any():
        y_mat, _, _ = _max_margin(red, b, max_iters)
        y_margin = np.einsum("mij,ji->m", red, y_mat).real - b
        beta = np.max(margin / np.minimum(margin - y_margin, -1e-300),
                      where=margin < 0.0, initial=0.0)
        x = (1.0 - min(beta, 1.0)) * x + min(beta, 1.0) * y_mat
    r = e @ x @ e.conj().T
    violation = shortfall(np.einsum("mij,ji->m", a, r).real)
    if violation <= TOL:
        return finish(r, "optimal", float(np.vdot(c, r).real) - lam_c[0], violation, 1)

    # Every Y has some margin <A_i, Y> - b_i <= -miss: a shortfall of miss / scale.
    y0, miss, capped = _max_margin(a, b, max_iters)
    scale = float(rel.max())
    if miss > TOL * scale:
        return infeasible(float(miss) / scale, 1)
    if capped:
        return finish(y0, "max_iters", float(np.vdot(c, y0).real) - lam_c[0],
                      shortfall(np.einsum("mij,ji->m", a, y0).real), max_iters)

    # Weak duality at y0, whose margins are at least m0 > 0: g(mu) <= lambda_max(C)
    # - m0 sum(mu), and g >= lambda_min(C) at the optimum, so no optimal multiplier
    # exceeds `bound`. Where no point clears the constraints by TOL * scale they
    # can be unbounded: m0 is then TOL * scale, and an answer cut short reads max_iters.
    m0 = max(float((np.einsum("mij,ji->m", a, y0).real - b).min()), TOL * scale)
    bound = (lam_c[-1] - lam_c[0]) / m0

    # Nested line searches, over mu_1 at each mu_0: psi(mu_0) = max_{mu_1} g is concave with
    # slope b_0 - <A_0, Y> at the inner answer Y (envelope theorem). They aim 1e-14 inside each
    # constraint, past <A_i, Y>'s round-off, so a tight one holds relative to a tiny b_i.
    mu, hess, evals, g_best = np.zeros(2), None, 0, float(lam_c[0])
    bs = b + 1e-14

    def dual(t: float):
        """g's line in the last multiplier at ``t``, None past the cap; its Hessian."""
        nonlocal evals, hess, g_best
        if evals == max_iters:
            return None
        mu[-1], evals = t, evals + 1
        lam, v = eigh(c - np.tensordot(mu, a, axes=1))
        ay = a @ v[:, 0]
        grad = bs - (ay @ v[:, 0].conj()).real
        w = v[:, 1:].conj().T @ ay.T     # eigenvalue perturbation
        hess = 2.0 * (w.conj().T @ (w / np.minimum(lam[0] - lam[1:], -1e-150)[:, None])).real
        g, g_best = float(lam[0] + mu @ bs), max(g_best, float(lam[0] + mu @ b))
        return g, g - t * grad[-1], grad[-1], hess[-1, -1], np.outer(v[:, 0], v[:, 0].conj())

    def psi(t: float):
        """The inner search at mu_0 = t, from the last inner optimum."""
        mu[0] = t
        y, low = _line_max(dual, mu[1], bound, TOL / 4, TOL / 4 * rel[1])
        if y is None:
            return None
        h = hess    # psi'' is the Schur complement of the Hessian where mu_1 > 0
        curv = h[0, 0] - (h[0, 1] * (h[0, 1] / h[1, 1]) if mu[1] > 0.0 and h[1, 1] < 0.0 else 0.0)
        grad = bs - np.einsum("mij,ji->m", a, y).real    # the line adds mu_1's exact penalty
        return low, float(np.vdot(c, y).real) + bound * max(grad[1], 0.0), grad[0], curv, y

    r, _ = _line_max(psi, 0.0, bound, TOL, TOL * rel[0])
    violation, primal = shortfall(np.einsum("mij,ji->m", a, r).real), float(np.vdot(c, r).real)
    optimal = violation <= TOL and primal - g_best <= TOL * abs(primal)
    return finish(r, "optimal" if optimal else "max_iters", primal - g_best, violation, evals)
