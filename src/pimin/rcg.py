"""Conjugate-gradient descent on the product-of-circles manifold.

Minimizes the path-interference power over the stacked unit-modulus variable
``x = [w; phi]`` (radar space-time weights first, RIS phases last). The
objective is the eigen-reduced sum of squared bilinear terms; its Euclidean
gradient is projected onto the tangent space of the complex circle manifold,
steps are taken by entrywise renormalization, and previous directions are
carried over by tangent-space projection at the new point.

An optional boolean mask freezes coordinates (used by the benchmark designs
that keep the RIS phases fixed); frozen entries get zero gradient and zero
step, which keeps every formula below unchanged.

The loop runs on raw arrays and validates its inputs once. Every objective
evaluation also returns the terms ``t[i] = b_i + c_i phi`` and
``e[i] = w^H t[i]``, and the gradient at an accepted trial point reuses them.
The terms are one gemv of the flattened ``c`` with ``phi``; the phase block
of the gradient is one gemv of a precomputed ``2 conj(c)`` with ``w``,
contracted with ``e``. The new gradient, the old gradient and the old
direction are projected onto the tangent space in one stacked operation. When
the mask freezes every phase, ``t = b + c phi0`` is folded once per solve and
the loop runs on the radar block alone, in the conjugate form
``conj(e) = conj(t) w``; its results are stacked back with the frozen phases.
The public functions below are validating wrappers over the same private
kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DegenerateStepError, DimensionError, DomainError
from .linalg import EvdResult
from .scenario import ChannelSet

# Line-search constants: the Armijo sufficient-decrease factor, the step
# shrink per backtrack, the first trial step and the backtrack budget.
ARMIJO_C1 = 1e-4
ARMIJO_SHRINK = 0.5
ALPHA_INIT = 1.0
MAX_BACKTRACKS = 50
# The CG direction restarts at steepest descent every max(dim, this) steps.
MIN_RESTART_PERIOD = 10

# ---------------------------------------------------------------------------
# State and precomputed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BeamformerState:
    """Stacked unit-modulus variable: ``num_bf`` radar weights then RIS phases."""

    x: np.ndarray
    num_bf: int     # length of the radar space-time block (L*M)

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=np.complex128)
        object.__setattr__(self, "x", x)
        if x.ndim != 1 or not (0 <= self.num_bf <= x.shape[0]):
            raise DimensionError(
                f"state of length {x.shape} cannot split at {self.num_bf}")

    @property
    def w(self) -> np.ndarray:
        return self.x[: self.num_bf]

    @property
    def phi(self) -> np.ndarray:
        return self.x[self.num_bf:]

    @property
    def dim(self) -> int:
        return self.x.shape[0]

    def max_modulus_error(self) -> float:
        return float(np.max(np.abs(np.abs(self.x) - 1.0)))


def random_state(num_bf: int, num_phases: int, rng: np.random.Generator) -> BeamformerState:
    """Independent uniform phases on every coordinate."""
    angles = rng.uniform(0.0, 2.0 * np.pi, size=num_bf + num_phases)
    return BeamformerState(x=np.exp(1j * angles), num_bf=num_bf)


@dataclass(frozen=True)
class PrecomputedForms:
    """Per-eigenpair linear and bilinear coefficients of the reduced objective.

    ``b[i]`` is the direct-leakage vector and ``c[i]`` the reflected-leakage
    matrix of term ``i``; the objective is ``sum_i |w^H b[i] + w^H c[i] phi|^2``.
    One term per eigenpair of the transmit covariance, zero rows for
    eigenvalues clipped at zero.
    """

    b: np.ndarray   # (terms, LM)
    c: np.ndarray   # (terms, LM, N)

    @property
    def num_terms(self) -> int:
        return self.b.shape[0]

    @property
    def num_bf(self) -> int:
        return self.b.shape[1]

    @property
    def num_phases(self) -> int:
        return self.c.shape[2]

    def __len__(self) -> int:
        return self.num_terms


def precompute_forms(evd: EvdResult, ch: ChannelSet, n_samples: int) -> PrecomputedForms:
    """Reduce the covariance quadratic form to per-eigenpair coefficients.

    For eigenpair ``(lam_i, v_i)`` of the transmit covariance:
    ``b_i = sqrt(lam_i) gamma_DPI (I_L kron H_DPI) v_i`` and ``c_i`` stacks the
    per-sample blocks ``sqrt(lam_i) gamma_RPI G_rR^H diag(H_cR v_i_block)``
    vertically into an (LM, N) matrix, which is the unique shape that makes
    the reduced objective well formed.
    """
    m, m_t = ch.H_DPI.shape
    n = ch.H_cR.shape[0]
    dim = evd.dim
    if dim != n_samples * m_t:
        raise DimensionError(
            f"covariance dim {dim} does not match n_samples*M_t = {n_samples * m_t}")
    # Row i of V is eigenvector i split into its L per-sample blocks.
    v = evd.eigenvectors.T.reshape(dim, n_samples, m_t)
    root = np.sqrt(evd.clipped_eigenvalues())
    b = (root * ch.gamma_DPI)[:, None] * (v @ ch.H_DPI.T).reshape(dim, n_samples * m)
    # A stacked matvec per block keeps the sums of H_cR @ v_block in order; a
    # gemm over all blocks reorders them, and the CG amplifies that drift.
    d = (ch.H_cR @ v[..., None])[..., 0]                     # (dim, L, N)
    g_rr_h = ch.G_rR.conj().T                                 # (M, N)
    c = (root * ch.gamma_RPI)[:, None, None, None] * (g_rr_h * d[:, :, None, :])
    return PrecomputedForms(b=b, c=c.reshape(dim, n_samples * m, n))


# ---------------------------------------------------------------------------
# Kernels on raw arrays
#
# ``x`` is the stacked vector and ``nb`` the length of its radar block. The
# public functions further down validate their arguments and call these;
# ``rcg_solve`` validates once at entry and then calls them directly. At these
# sizes a numpy call costs more than its arithmetic, so products use
# ``ndarray.dot``, which dispatches faster than ``@``, and gemvs write into
# fixed scratch arrays so that no result needs a reshape.
# ---------------------------------------------------------------------------

def _check_state(x: BeamformerState, forms: PrecomputedForms) -> None:
    if np.ndim(forms.c) != 3 or np.shape(forms.c)[:2] != np.shape(forms.b):
        raise DimensionError(
            f"forms b {np.shape(forms.b)} and c {np.shape(forms.c)} do not stack")
    if x.num_bf != forms.num_bf or x.dim - x.num_bf != forms.num_phases:
        raise DimensionError(
            f"state split ({x.num_bf}, {x.dim - x.num_bf}) does not match forms "
            f"({forms.num_bf}, {forms.num_phases})")


def _as_vector(v, x: BeamformerState, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.shape != x.x.shape:
        raise DimensionError(f"{what} shape {v.shape} != state shape {x.x.shape}")
    return v


def _norm(v: np.ndarray) -> float:
    """``np.linalg.norm`` of a complex vector, computed as numpy computes it."""
    re, im = v.real, v.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _re_inner(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.vdot(a, b).real)


def _sumsq(e: np.ndarray) -> float:
    """``sum_i |e_i|^2`` as one real dot of ``e`` viewed as float64."""
    v = e.view(np.float64)
    return float(v.dot(v))


def _egrad_w(t: np.ndarray, e_conj: np.ndarray) -> np.ndarray:
    """Radar block of the Euclidean gradient, ``2 sum_i conj(e_i) t_i``."""
    return 2.0 * e_conj.dot(t)


def _kernels(forms: PrecomputedForms):
    """The objective and Euclidean-gradient kernels of one problem, as closures.

    ``evaluate(x)`` returns the objective and the terms ``(t, e, conj(x))``
    with ``t[i] = b_i + c_i phi`` and ``e[i] = w^H t[i]``: the terms are one
    ``(terms*LM, N)`` gemv. ``egrad(x, terms)`` returns the gradient's radar
    and phase blocks from the terms of the same point; the phase block
    ``2 sum_i e_i conj(c_i)^T w`` contracts the radar index first, as one
    ``(terms*N, LM)`` gemv with ``w``, then the terms with ``e``.
    """
    b = np.asarray(forms.b, dtype=np.complex128)
    c = np.asarray(forms.c, dtype=np.complex128)
    n_terms, nb, n = c.shape
    c_flat = c.reshape(n_terms * nb, n)
    c_phase = (2.0 * c.conj()).transpose(0, 2, 1).reshape(n_terms * n, nb)
    c_phi = np.empty((n_terms, nb), dtype=np.complex128)
    c_phi_flat = c_phi.reshape(-1)
    c_w = np.empty((n_terms, n), dtype=np.complex128)
    c_w_flat = c_w.reshape(-1)

    def evaluate(x):
        xc = x.conj()
        c_flat.dot(x[nb:], out=c_phi_flat)
        t = b + c_phi
        e = t.dot(xc[:nb])
        return _sumsq(e), (t, e, xc)

    def egrad(x, terms):
        t, e, _ = terms
        c_phase.dot(x[:nb], out=c_w_flat)
        return _egrad_w(t, e.conj()), e.dot(c_w)

    return evaluate, egrad


def _project(x: np.ndarray, xc: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project ``v``, one vector or a stack of rows, onto the tangent space at ``x``.

    ``xc`` is ``conj(x)``, computed once by the caller.
    """
    return v - (v * xc).real * x


def _retract(x: np.ndarray, step: np.ndarray) -> np.ndarray:
    moved = x + step
    mags = np.abs(moved)
    if np.count_nonzero(mags) < mags.shape[0]:
        raise DegenerateStepError("retraction hit a zero entry; shrink the step")
    return moved / mags


def _search(evaluate: Callable, x: np.ndarray, direction: np.ndarray, f_x: float,
            slope: float, alpha: float, free: np.ndarray | None):
    """Backtracking Armijo search from ``alpha`` down; see ``line_search``.

    ``evaluate(z)`` returns the objective and the terms the gradient needs.
    Returns ``(alpha, x_new, f_new, terms, rejected)``: the terms at ``x_new``
    and the number of trial evaluations that failed the Armijo test. Trials
    copy the coordinates that ``free`` marks False from ``x``, so those stay
    bit-identical. ``alpha = 0`` means no admissible step (``x`` unchanged).
    """
    rejected = 0
    for _ in range(MAX_BACKTRACKS + 1):
        try:
            trial = _retract(x, alpha * direction)
        except DegenerateStepError:
            alpha *= ARMIJO_SHRINK
            continue
        if free is not None:
            trial = np.where(free, trial, x)
        f_trial, terms = evaluate(trial)
        if f_trial <= f_x + ARMIJO_C1 * alpha * slope:
            return alpha, trial, f_trial, terms, rejected
        rejected += 1
        alpha *= ARMIJO_SHRINK
    return 0.0, x, f_x, None, rejected


# ---------------------------------------------------------------------------
# Objective, gradients and manifold operations
# ---------------------------------------------------------------------------

def objective(x: BeamformerState, forms: PrecomputedForms) -> float:
    """Path-interference power at ``x`` in reduced form."""
    _check_state(x, forms)
    return _kernels(forms)[0](x.x)[0]


def euclid_grad(x: BeamformerState, forms: PrecomputedForms) -> np.ndarray:
    """Euclidean gradient of the reduced objective at ``x``.

    Uses the standard real-inner-product convention for complex variables:
    the directional derivative of the objective along a perturbation ``delta``
    equals ``Re(grad^H delta)``.
    """
    _check_state(x, forms)
    evaluate, egrad = _kernels(forms)
    return np.concatenate(egrad(x.x, evaluate(x.x)[1]))


def riem_grad(x: BeamformerState, egrad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at ``x``."""
    return _project(x.x, x.x.conj(), _as_vector(egrad, x, "gradient"))


def transport(x_new: BeamformerState, vec: np.ndarray) -> np.ndarray:
    """Carry a tangent vector into the tangent space at ``x_new``."""
    return _project(x_new.x, x_new.x.conj(), _as_vector(vec, x_new, "vector"))


def retract(x: BeamformerState, step: np.ndarray) -> BeamformerState:
    """Entrywise renormalization of ``x + step`` back onto the circles."""
    return BeamformerState(x=_retract(x.x, _as_vector(step, x, "step")), num_bf=x.num_bf)


# ---------------------------------------------------------------------------
# Line search and the CG loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RcgConfig:
    """Loop controls for the manifold conjugate-gradient solver."""

    max_iters: int = 300
    grad_tol: float | None = None   # default 1e-8 * (problem dimension)

    def __post_init__(self) -> None:
        if self.max_iters < 0:
            raise DomainError(f"max_iters must be >= 0, got {self.max_iters}")
        if self.grad_tol is not None and self.grad_tol < 0.0:
            raise DomainError(f"grad_tol must be >= 0, got {self.grad_tol}")

    def resolved_grad_tol(self, dim: int) -> float:
        return self.grad_tol if self.grad_tol is not None else 1e-8 * dim


@dataclass(frozen=True)
class LineSearchResult:
    alpha: float
    x_new: BeamformerState
    f_new: float


def line_search(x: BeamformerState, direction: np.ndarray,
                forms: PrecomputedForms) -> LineSearchResult:
    """Backtracking Armijo search along a tangent direction.

    Returns the largest ``ALPHA_INIT * ARMIJO_SHRINK^k`` satisfying the
    sufficient decrease condition, or ``alpha = 0`` (with ``x`` unchanged)
    when the direction is zero or no admissible step exists within
    ``MAX_BACKTRACKS``; the resulting objective never increases.
    """
    _check_state(x, forms)
    direction = _as_vector(direction, x, "direction")
    f_x = objective(x, forms)
    if not direction.any():
        return LineSearchResult(alpha=0.0, x_new=x, f_new=f_x)
    slope = _re_inner(riem_grad(x, euclid_grad(x, forms)), direction)
    alpha, x_new, f_new, _, _ = _search(
        _kernels(forms)[0], x.x, direction, f_x, slope, ALPHA_INIT, None)
    if alpha == 0.0:
        return LineSearchResult(alpha=0.0, x_new=x, f_new=f_x)
    return LineSearchResult(alpha=alpha, x_new=BeamformerState(x=x_new, num_bf=x.num_bf),
                            f_new=f_new)


@dataclass(frozen=True)
class RcgResult:
    x: BeamformerState
    history: np.ndarray     # objective value at x0 and after each iteration
    grad_norm: float
    iterations: int
    stop_reason: str        # "grad_tol", "max_iters" or "stalled" (no admissible step)
    objective_evals: int    # the start point, every accepted step and every backtrack
    backtracks: int         # trial points rejected by the Armijo test


def _radar_block_only(free: np.ndarray | None, nb: int) -> bool:
    """Whether ``free`` freezes every phase, so the loop runs on the radar block alone."""
    return free is not None and not free[nb:].any()


def rcg_solve(forms: PrecomputedForms, x0: BeamformerState, cfg: RcgConfig,
              free: np.ndarray | None = None,
              callback: "Callable[[BeamformerState, np.ndarray, np.ndarray], None] | None" = None,
              ) -> RcgResult:
    """Run the manifold conjugate-gradient loop from ``x0``.

    ``free`` optionally marks which coordinates may move (True = optimized);
    anything else stays frozen at its initial value. The recorded history is
    non-increasing: each step is accepted only under the Armijo condition.
    ``callback`` observes ``(iterate, gradient, direction)`` once per
    accepted step.
    """
    _check_state(x0, forms)
    nb = x0.num_bf
    if free is not None:
        free = np.asarray(free, dtype=bool)
        if free.shape != x0.x.shape:
            raise DimensionError(f"mask shape {free.shape} != state shape {x0.x.shape}")

    # Frozen coordinates are not part of the problem: scale-aware knobs see
    # only the free dimension (a no-RIS run must not depend on the RIS size).
    dim = int(free.sum()) if free is not None else x0.dim
    grad_tol = cfg.resolved_grad_tol(dim)
    restart_every = max(dim, MIN_RESTART_PERIOD)
    # Steps are searched along the normalized direction so alpha measures
    # displacement in x-space; a half-turn per entry bounds any useful step.
    alpha_cap = float(np.pi * np.sqrt(dim))

    evaluations = 0
    if _radar_block_only(free, nb):
        # Every phase is frozen, so t = b + c phi0 is fixed and the loop runs
        # on the radar block alone. In conjugate form conj(e) = conj(t) w, so
        # an evaluation is one matvec with no conjugation.
        phi0 = x0.phi
        t = forms.b + forms.c @ phi0
        t_conj = t.conj()
        mask = None if free[:nb].all() else free[:nb]
        x = x0.w

        def evaluate(w):
            nonlocal evaluations
            evaluations += 1
            e_conj = t_conj.dot(w)
            return _sumsq(e_conj), e_conj

        def project(w, e_conj, g, direction):
            np.concatenate([_egrad_w(t, e_conj), g, direction], out=s_flat)
            return _project(w, w.conj(), s)

        phase_zeros = np.zeros_like(phi0)

        def stacked(v, phases=phase_zeros):
            return np.concatenate([v, phases])
    else:
        kernel, egrad = _kernels(forms)
        mask = free
        x = x0.x

        def evaluate(z):
            nonlocal evaluations
            evaluations += 1
            return kernel(z)

        def project(z, terms, g, direction):
            np.concatenate([*egrad(z, terms), g, direction], out=s_flat)
            return _project(z, terms[2], s)

        def stacked(v, phases=None):
            return v

    # ``project`` stacks the Euclidean gradient at its point, the old gradient
    # and the old direction in ``s`` and projects all three onto the tangent
    # space there with one conj of the point.
    s = np.empty((3, x.shape[0]), dtype=np.complex128)
    s_flat = s.reshape(-1)
    f_x, terms = evaluate(x)
    zero = np.zeros_like(x)
    g = project(x, terms, zero, zero)[0]
    if mask is not None:
        g = np.where(mask, g, 0.0)
    g_norm = _norm(g)
    direction = -g
    history = [f_x]
    iterations = backtracks = 0
    alpha_warm = ALPHA_INIT

    for it in range(cfg.max_iters):
        if g_norm <= grad_tol:
            break

        d_norm = _norm(direction)
        slope = _re_inner(g, direction) / d_norm if d_norm > 0.0 else 0.0
        if slope >= 0.0:
            direction = -g
            d_norm = g_norm
            slope = -g_norm
        alpha, x_new, f_new, terms, rejected = _search(
            evaluate, x, direction / d_norm, f_x, slope, alpha_warm, mask)
        backtracks += rejected
        if alpha == 0.0 and not np.array_equal(direction, -g):
            direction = -g
            alpha, x_new, f_new, terms, rejected = _search(
                evaluate, x, -g / g_norm, f_x, -g_norm, alpha_warm, mask)
            backtracks += rejected
        if alpha == 0.0:
            break   # stationary within line-search resolution

        alpha_warm = min(2.0 * alpha, alpha_cap)
        p = project(x_new, terms, g, direction)
        g_new = p[0] if mask is None else np.where(mask, p[0], 0.0)
        g_new_norm = _norm(g_new)
        if (it + 1) % restart_every == 0:
            direction = -g_new
        else:
            denom = _norm(p[1]) ** 2
            beta = g_new_norm ** 2 / denom if denom > 0.0 else 0.0
            direction = beta * p[2] - g_new

        x, g, g_norm, f_x = x_new, g_new, g_new_norm, f_new
        history.append(f_x)
        iterations = it + 1
        if callback is not None:
            callback(BeamformerState(x=stacked(x, x0.phi), num_bf=nb), stacked(g),
                     stacked(direction))

    stop = ("grad_tol" if g_norm <= grad_tol
            else "max_iters" if iterations == cfg.max_iters else "stalled")
    x_out = x0 if iterations == 0 else BeamformerState(x=stacked(x, x0.phi), num_bf=nb)
    return RcgResult(x=x_out, history=np.asarray(history), grad_norm=g_norm,
                     iterations=iterations, stop_reason=stop,
                     objective_evals=evaluations, backtracks=backtracks)
