"""Riemannian Levenberg–Marquardt on the product-of-circles manifold.

Minimizes the path-interference power over the stacked unit-modulus variable
``x = [w; phi]`` (radar space-time weights first, RIS phases last). The
objective ``f = sum_i |e_i|^2`` with ``e_i = w^H (b_i + c_i phi)`` is a
nonlinear least-squares problem, so each step is a damped Gauss–Newton step in
phase coordinates ``x = exp(j theta)`` (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008, §8.4):

* the Jacobian of ``e`` in ``theta`` is closed-form from the terms the
  objective already computes;
* a step solves ``(Re(J^H J) + mu I) delta = -grad_theta(f) / 2``, with
  ``grad_theta(f) = Im(conj(x) * egrad)`` from the Euclidean gradient;
* the trial point ``x * exp(j delta)`` is unit-modulus by construction;
* a trial is accepted only when it lowers ``f``, and the damping ``mu`` then
  shrinks by Nielsen's gain-ratio rule; otherwise it grows by a factor that
  doubles with each rejection in a row (Madsen, Nielsen & Tingleff, "Methods
  for non-linear least squares problems", 2004, §3.2).

An optional boolean mask freezes coordinates (used by the benchmark designs
that keep the RIS phases fixed); the step uses only the free columns of the
Jacobian, so frozen entries never move. When the mask freezes every phase,
``b + c phi0`` is folded into ``b`` once per solve and the same loop runs on
the radar block alone; its results are stacked back with the frozen phases.

The loop runs on raw arrays and validates its inputs once. Every objective
evaluation also returns the terms ``t[i] = b_i + c_i phi`` and
``e[i] = w^H t[i]``, and the gradient and Jacobian at an accepted trial point
reuse them. The public functions below are validating wrappers over the same
private kernels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import EvdResult
from .scenario import ChannelSet, check_count

# The first damping is this fraction of the largest diagonal entry of
# Re(J^H J) at the start point.
DAMPING_INIT = 1e-3

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
    # gemm over all blocks reorders them, and the solver amplifies that drift.
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


def _sumsq(e: np.ndarray) -> float:
    """``sum_i |e_i|^2`` as one real dot of ``e`` viewed as float64."""
    v = e.view(np.float64)
    return float(v.dot(v))


def _kernels(forms: PrecomputedForms):
    """The objective and derivative kernels of one problem, as closures.

    ``evaluate(x)`` returns the objective and the terms ``(t, e, conj(x))``
    with ``t[i] = b_i + c_i phi`` and ``e[i] = w^H t[i]``: the terms are one
    ``(terms*LM, N)`` gemv. ``derivatives(x, terms)`` returns, from the terms
    of the same point, the Euclidean gradient and ``j`` times the Jacobian of
    ``e`` in phase coordinates. Both use ``u_i = 2 conj(c_i)^T w``, one
    ``(terms*N, LM)`` gemv with ``w``: the gradient is
    ``[2 sum_i conj(e_i) t_i; sum_i e_i u_i]``, and row ``i`` of the Jacobian
    is ``[-j conj(w) * t_i, j phi * (w^H c_i)]`` with ``w^H c_i = conj(u_i)/2``.
    With no phase block (the phases folded into ``b``) the terms are ``b``
    itself and both kernels skip the empty phase products.
    """
    b = np.asarray(forms.b, dtype=np.complex128)
    c = np.asarray(forms.c, dtype=np.complex128)
    n_terms, nb, n = c.shape
    c_flat = c.reshape(n_terms * nb, n)
    c_phase = (2.0 * c.conj()).transpose(0, 2, 1).reshape(n_terms * n, nb)
    c_phi = np.empty((n_terms, nb), dtype=np.complex128)
    c_phi_flat = c_phi.reshape(-1)
    u = np.empty((n_terms, n), dtype=np.complex128)
    u_flat = u.reshape(-1)

    def evaluate(x):
        xc = x.conj()
        t = b
        if n:
            c_flat.dot(x[nb:], out=c_phi_flat)
            t = b + c_phi
        e = t.dot(xc[:nb])
        return _sumsq(e), (t, e, xc)

    def derivatives(x, terms):
        t, e, xc = terms
        grad, jac = 2.0 * e.conj().dot(t), t * xc[:nb]
        if n:
            c_phase.dot(x[:nb], out=u_flat)
            grad = np.concatenate([grad, e.dot(u)])
            jac = np.concatenate([jac, (-0.5 * x[nb:]) * u.conj()], axis=1)
        return grad, jac

    return evaluate, derivatives


def _project(x: np.ndarray, xc: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project ``v`` onto the tangent space at ``x``; ``xc`` is ``conj(x)``."""
    return v - (v * xc).real * x


# ---------------------------------------------------------------------------
# Objective and gradients
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
    evaluate, derivatives = _kernels(forms)
    return derivatives(x.x, evaluate(x.x)[1])[0]


def riem_grad(x: BeamformerState, egrad: np.ndarray) -> np.ndarray:
    """Project a Euclidean gradient onto the tangent space at ``x``."""
    return _project(x.x, x.x.conj(), _as_vector(egrad, x, "gradient"))


# ---------------------------------------------------------------------------
# The Levenberg–Marquardt loop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RcgConfig:
    """Loop controls for the manifold Levenberg–Marquardt solver."""

    max_iters: int = 300            # accepted steps
    grad_tol: float | None = None   # default 1e-8 * (problem dimension)

    def __post_init__(self) -> None:
        check_count("max_iters", self.max_iters, 0)
        if self.grad_tol is not None and self.grad_tol < 0.0:
            raise DomainError(f"grad_tol must be >= 0, got {self.grad_tol}")

    def resolved_grad_tol(self, dim: int) -> float:
        return self.grad_tol if self.grad_tol is not None else 1e-8 * dim


@dataclass(frozen=True)
class RcgResult:
    x: BeamformerState
    history: np.ndarray     # objective value at x0 and after each iteration
    grad_norm: float        # Riemannian gradient norm over the free coordinates
    iterations: int
    stop_reason: str        # "grad_tol", "max_iters" or "stalled" (a rejected trial equal
                            # to x or not finite)
    objective_evals: int    # the start point, every accepted step and every rejected trial
    backtracks: int         # trial points rejected because they did not lower the objective


def _radar_block_only(free: np.ndarray | None, nb: int) -> bool:
    """Whether ``free`` freezes every phase, so the loop runs on the radar block alone."""
    return free is not None and not free[nb:].any()


def rcg_solve(forms: PrecomputedForms, x0: BeamformerState, cfg: RcgConfig,
              free: np.ndarray | None = None,
              callback: "Callable[[BeamformerState, np.ndarray, np.ndarray], None] | None" = None,
              ) -> RcgResult:
    """Run the Riemannian Levenberg–Marquardt loop from ``x0``.

    ``free`` optionally marks which coordinates may move (True = optimized);
    anything else stays frozen at its initial value. The recorded history
    decreases strictly: a trial is accepted only when it lowers the
    objective. ``callback`` observes ``(iterate, gradient, step)`` once per
    accepted step: the masked Riemannian gradient at the new iterate and the
    step ``j x * delta``, tangent there.
    """
    _check_state(x0, forms)
    nb = x0.num_bf
    if free is not None:
        free = np.asarray(free, dtype=bool)
        if free.shape != x0.x.shape:
            raise DimensionError(f"mask shape {free.shape} != state shape {x0.x.shape}")

    # Frozen coordinates are not part of the problem: the tolerance sees only
    # the free dimension (a no-RIS run must not depend on the RIS size).
    grad_tol = cfg.resolved_grad_tol(int(free.sum()) if free is not None else x0.dim)

    x = x0.x
    if _radar_block_only(free, nb):
        # Every phase is frozen, so only t = b + c phi0 matters: fold it into
        # b and drop the phase block, leaving a problem in w alone.
        forms = PrecomputedForms(b=forms.b + forms.c @ x0.phi,
                                 c=np.empty((len(forms), nb, 0), dtype=np.complex128))
        x, free = x0.w, free[:nb]
    folded = x0.x[x.shape[0]:]      # the frozen phases when folded, else empty
    zeros = np.zeros_like(folded)
    cols = None if free is None or free.all() else np.flatnonzero(free)
    eye = np.eye(x.shape[0] if cols is None else cols.shape[0])
    evaluate, derivatives = _kernels(forms)

    f, terms = evaluate(x)
    history = [f]
    evaluations, iterations, backtracks = 1, 0, 0
    mu, nu = None, 2.0
    accepted = True
    while True:
        if accepted:
            grad, jac = derivatives(x, terms)
            g = (terms[2] * grad).imag      # the gradient in theta
            if cols is not None:
                g, jac = g[cols], jac[:, cols]
            g_norm = math.sqrt(g.dot(g))
            if callback is not None and iterations:
                rg = _project(x, terms[2], grad)
                if cols is not None:
                    rg = np.where(free, rg, 0.0)
                callback(BeamformerState(x=np.concatenate([x, folded]), num_bf=nb),
                         np.concatenate([rg, zeros]),
                         np.concatenate([1j * x * step, zeros]))
            if g_norm <= grad_tol or iterations == cfg.max_iters:
                break
            gram = jac.conj().T.dot(jac).real
            if mu is None:
                mu = DAMPING_INIT * float(gram.diagonal().max())
            rhs = -0.5 * g

        delta = np.linalg.solve(gram + mu * eye, rhs)
        step = delta
        if cols is not None:
            step = np.zeros(x.shape[0])
            step[cols] = delta
        trial = x * np.exp(1j * step)
        f_new, terms_new = evaluate(trial)
        evaluations += 1
        accepted = f_new < f
        if accepted:
            # Gain ratio: the actual decrease over the model's,
            # delta . (mu delta - g/2), which is positive for any delta != 0.
            # Above 1 the factor is already 1/3, so clamping rho there keeps
            # the cube finite.
            rho = (f - f_new) / float(delta.dot(mu * delta + rhs))
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
            nu = 2.0
            x, f, terms = trial, f_new, terms_new
            history.append(f)
            iterations += 1
        else:
            backtracks += 1
            if not math.isfinite(f_new) or np.array_equal(trial, x):
                break   # no finite trial moves x any more: stationary at round-off
            mu *= nu
            nu *= 2.0

    stop = ("grad_tol" if g_norm <= grad_tol
            else "max_iters" if iterations == cfg.max_iters else "stalled")
    x_out = x0 if iterations == 0 else BeamformerState(
        x=np.concatenate([x, folded]), num_bf=nb)
    return RcgResult(x=x_out, history=np.asarray(history), grad_norm=g_norm,
                     iterations=iterations, stop_reason=stop,
                     objective_evals=evaluations, backtracks=backtracks)
