"""Riemannian Levenberg–Marquardt on the product-of-circles manifold.

Minimizes the path-interference power over the stacked unit-modulus variable
``x = [w; phi]`` (radar space-time weights first, RIS phases last). The
objective ``f = sum_i |e_i|^2`` with ``e_i = w^H (b_i + c_i phi)`` is a
nonlinear least-squares problem, so each step is a damped Gauss–Newton step in
phase coordinates ``x = exp(j theta)`` (Absil, Mahony & Sepulchre,
*Optimization Algorithms on Matrix Manifolds*, 2008, §8.4):

* the Jacobian of ``e`` in ``theta`` is closed-form from the terms the
  objective already computes. It is kept as a real matrix ``A``, one row of
  ``2 * terms`` per coordinate, with the residual ``r = -j e`` as one more
  row, so one gemm of that stack gives both ``Re(J^H J) = A A^T`` and
  ``A r = -grad_theta(f) / 2``;
* a step solves ``(A A^T + mu I) delta = A r``. ``A A^T`` has rank at most
  ``2 * terms``, so when the state's dimension exceeds that, the step solves
  the smaller ``(A^T A + mu I) y = r`` instead and takes ``delta = A y`` (the
  push-through identity). The side depends only on that dimension and the
  number of terms;
* the trial point ``x * exp(j delta)`` is unit-modulus by construction;
* a trial is accepted only when it lowers ``f``, and the damping ``mu`` then
  shrinks by Nielsen's gain-ratio rule; otherwise it grows by a factor that
  doubles with each rejection in a row (Madsen, Nielsen & Tingleff, "Methods
  for non-linear least squares problems", 2004, §3.2).

Every coordinate moves. A run that keeps the RIS phases fixed (the benchmark
designs) solves ``PrecomputedForms.fold(phi)``, whose ``b`` holds
``b + c phi`` and whose phase block is empty, from a state that holds only the
radar weights.

The loop runs on raw arrays and validates its inputs once. Every objective
evaluation also returns the terms ``t[i] = b_i + c_i phi`` and
``e[i] = w^H t[i]``, and the Jacobian at an accepted trial point reuses them.
The Jacobian, the Gauss–Newton matrix and its right-hand side live in
buffers allocated once per solve; each trial adds ``mu`` to the saved
diagonal in place. ``objective`` and ``euclid_grad`` validate their
arguments and run the same private kernels at one point; the oracles in
``pimin.selfcheck`` call them, and the tangent projection ``_project``, which
the loop applies to every gradient it reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import EvdResult, solve
from .scenario import ChannelSet, check_count, check_real

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

    def fold(self, phi: np.ndarray) -> "PrecomputedForms":
        """The forms of the radar block alone at the fixed phases ``phi``.

        Only ``t = b + c phi`` enters the objective, so ``b`` becomes ``t`` and
        the phase block is empty.
        """
        return PrecomputedForms(
            b=self.b + self.c @ phi,
            c=np.empty((self.num_terms, self.num_bf, 0), dtype=np.complex128))


def precompute_forms(evd: EvdResult, ch: ChannelSet) -> PrecomputedForms:
    """Reduce the covariance quadratic form to per-eigenpair coefficients.

    The sample count ``L`` is the covariance dimension over ``M_t``, which
    must divide it. For eigenpair ``(lam_i, v_i)`` of the transmit covariance:
    ``b_i = sqrt(lam_i) gamma_DPI (I_L kron H_DPI) v_i`` and ``c_i`` stacks the
    per-sample blocks ``sqrt(lam_i) gamma_RPI G_rR^H diag(H_cR v_i_block)``
    vertically into an (LM, N) matrix, which is the unique shape that makes
    the reduced objective well formed.
    """
    m, m_t = ch.H_DPI.shape
    n = ch.H_cR.shape[0]
    dim = evd.dim
    n_samples, rest = divmod(dim, m_t)
    if rest or not n_samples:
        raise DimensionError(
            f"covariance dim {dim} is not a positive multiple of M_t = {m_t}")
    # Row i of V is eigenvector i split into its L per-sample blocks.
    v = evd.eigenvectors.T.reshape(dim, n_samples, m_t)
    root = np.sqrt(evd.clipped_eigenvalues)
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
# ``x`` is the stacked vector and ``nb`` the length of its radar block.
# ``objective`` and ``euclid_grad`` validate their arguments and call these;
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


def _kernels(forms: PrecomputedForms):
    """The objective, gradient and Jacobian kernels of one problem, as closures.

    ``evaluate(x)`` returns the objective and the terms ``(t, e, conj(w))``
    with ``t[i] = b_i + c_i phi`` and ``e[i] = w^H t[i]``: the terms are one
    ``(terms*LM, N)`` gemv, and the objective is one real dot of ``e`` viewed
    as float64. ``linearize(x, terms)`` reads the terms of the same point and
    ``v[k, i] = -(w^H c_i)_k``, one ``(N*terms, LM)`` gemv with ``conj(w)``.
    It writes ``j`` times the Jacobian of ``e`` in phase coordinates,
    transposed, into the first ``LM + N`` rows of the complex buffer ``jac``
    (row ``k`` of the radar block is ``conj(w_k) t[:, k]``, of the phase
    block ``phi_k v[k]``) and the scaled residual ``-j e`` into its last row.
    Viewed as float64, ``jac`` is the real Jacobian ``A`` of ``[Re e; Im e]``,
    one row of ``2*terms`` per coordinate, over the residual ``r``:
    ``A A^T = Re(J^H J)``, and ``A r = -grad_theta(f) / 2`` is the step's
    right-hand side. ``egrad(x, terms)`` reads the Euclidean gradient off the
    rows ``linearize`` wrote at the same unit-modulus ``x``: with
    ``z = jac[:-1] conj(e)``, it is ``2 w z`` on the radar block and
    ``-2 phi conj(z)`` on the phase block. With no phase block (folded forms)
    the terms are ``b`` itself and the kernels skip the empty phase products.
    """
    b = np.asarray(forms.b, dtype=np.complex128)
    c = np.asarray(forms.c, dtype=np.complex128)
    n_terms, nb, n = c.shape
    c_flat = c.reshape(n_terms * nb, n)
    c_phase = -c.transpose(2, 0, 1).reshape(n * n_terms, nb)
    c_phi = np.empty((n_terms, nb), dtype=np.complex128)
    c_phi_flat = c_phi.reshape(-1)
    jac = np.empty((nb + n + 1, n_terms), dtype=np.complex128)
    jac_w, jac_p, res = jac[:nb].T, jac[nb:-1], jac[-1]
    jac_p_flat, jac_p_cols = jac_p.reshape(-1), jac_p.T

    def evaluate(x):
        xw = x[:nb].conj()
        t = b
        if n:
            c_flat.dot(x[nb:], out=c_phi_flat)
            t = b + c_phi
        e = t.dot(xw)
        v = e.view(np.float64)
        return float(v.dot(v)), (t, e, xw)

    def linearize(x, terms):
        t, e, xw = terms
        np.multiply(t, xw, out=jac_w)
        if n:
            c_phase.dot(xw, out=jac_p_flat)
            np.multiply(jac_p_cols, x[nb:], out=jac_p_cols)
        np.multiply(e, -1j, out=res)

    def egrad(x, terms):
        z = jac[:-1].dot(terms[1].conj())
        z[nb:] = -z[nb:].conj()
        return 2.0 * x * z

    return evaluate, egrad, linearize, jac.view(np.float64)


def _project(x: np.ndarray, xc: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project ``v`` onto the tangent space at ``x``; ``xc`` is ``conj(x)``."""
    return v - (v * xc).real * x


# ---------------------------------------------------------------------------
# Objective and gradient
# ---------------------------------------------------------------------------

def objective(x: BeamformerState, forms: PrecomputedForms) -> float:
    """Path-interference power at ``x`` in reduced form."""
    _check_state(x, forms)
    return _kernels(forms)[0](x.x)[0]


def euclid_grad(x: BeamformerState, forms: PrecomputedForms) -> np.ndarray:
    """Euclidean gradient of the reduced objective at ``x``.

    Uses the standard real-inner-product convention for complex variables:
    the directional derivative of the objective along a perturbation ``delta``
    equals ``Re(grad^H delta)``. It is read off the Jacobian the solver steps
    with, so ``x`` must have unit modulus, as every iterate of the solver has.
    """
    _check_state(x, forms)
    evaluate, egrad, linearize = _kernels(forms)[:3]
    terms = evaluate(x.x)[1]
    linearize(x.x, terms)
    return egrad(x.x, terms)


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
        if self.grad_tol is not None:
            check_real("grad_tol", self.grad_tol)
            if not self.grad_tol >= 0.0:
                raise DomainError(f"grad_tol must be >= 0, got {self.grad_tol}")

    def resolved_grad_tol(self, dim: int) -> float:
        return self.grad_tol if self.grad_tol is not None else 1e-8 * dim


@dataclass(frozen=True)
class RcgResult:
    x: BeamformerState
    history: np.ndarray     # objective value at x0 and after each iteration
    grad_norm: float        # Riemannian gradient norm at x
    stop_reason: str        # "grad_tol", "max_iters" or "stalled" (a rejected trial equal
                            # to x or not finite)
    backtracks: int         # trial points rejected because they did not lower the objective

    @property
    def iterations(self) -> int:        # accepted steps, one per history entry after x0
        return len(self.history) - 1

    @property
    def objective_evals(self) -> int:   # the start point, every step and every backtrack
        return len(self.history) + self.backtracks


def _dual_side(dim: int, n_terms: int) -> bool:
    """Whether a step solves the ``2*terms`` residual system, not the ``dim`` one."""
    return dim > 2 * n_terms


def rcg_solve(forms: PrecomputedForms, x0: BeamformerState, cfg: RcgConfig,
              callback: "Callable[[BeamformerState, np.ndarray, np.ndarray], None] | None" = None,
              ) -> RcgResult:
    """Run the Riemannian Levenberg–Marquardt loop from ``x0``.

    Every coordinate moves; to keep the phases fixed, solve
    ``forms.fold(phi)`` from the radar weights alone. The recorded history
    decreases strictly: a trial is accepted only when it lowers the
    objective. ``callback`` observes ``(iterate, gradient, step)`` once per
    accepted step: the Riemannian gradient at the new iterate and the step
    ``j x * delta``, tangent there.
    """
    _check_state(x0, forms)
    nb, d = x0.num_bf, x0.dim
    grad_tol = cfg.resolved_grad_tol(d)

    x = x0.x
    evaluate, egrad, linearize, a_res = _kernels(forms)
    # Re(J^H J) = A A^T has rank at most 2*terms. When the dimension is
    # larger, the step solves (A^T A + mu I) y = r and is delta = A y, by
    # (A A^T + mu I)^-1 A = A (A^T A + mu I)^-1: the same step from the
    # smaller system. Either system lives in a fixed buffer; each trial adds
    # mu to its saved diagonal in place.
    n_res = a_res.shape[1]
    dual = _dual_side(d, n_res // 2)
    if dual:
        a, r = a_res[:-1], a_res[-1]
        buffer = system = np.empty((n_res, n_res))
    else:
        # one gemm gives Re(J^H J) and, in its last column, the step's rhs
        buffer = gram_rhs = np.empty((d + 1, d + 1))
        system, rhs = gram_rhs[:-1, :-1], gram_rhs[:-1, -1]
    diagonal = buffer.reshape(-1)[::buffer.shape[0] + 1][:system.shape[0]]

    f, terms = evaluate(x)
    history = [f]
    iterations, backtracks = 0, 0
    mu, nu = None, 2.0
    accepted = True
    while True:
        if accepted:
            linearize(x, terms)
            if dual:
                np.dot(a.T, a, out=system)
                rhs = a.dot(r)
            else:
                np.dot(a_res, a_res.T, out=gram_rhs)
            g_norm = 2.0 * math.sqrt(rhs.dot(rhs))
            if callback is not None and iterations:
                callback(BeamformerState(x=x, num_bf=nb),
                         _project(x, x.conj(), egrad(x, terms)), 1j * x * delta)
            if g_norm <= grad_tol or iterations == cfg.max_iters:
                break
            if mu is None:
                gn_diagonal = np.einsum("ij,ij->i", a, a) if dual else diagonal
                mu = DAMPING_INIT * float(gn_diagonal.max())
            saved = diagonal.copy()

        np.add(saved, mu, out=diagonal)
        delta = solve(system, r if dual else rhs)
        if dual:
            delta = a.dot(delta)
        trial = x * np.exp(1j * delta)
        f_new, terms_new = evaluate(trial)
        accepted = f_new < f
        if accepted:
            # Gain ratio: the actual decrease over the model's,
            # delta . (mu delta - g/2), which is positive for any delta != 0.
            # Above 1 the factor is already 1/3, so clamping rho there keeps
            # the cube finite.
            rho = (f - f_new) / (mu * float(delta.dot(delta)) + float(delta.dot(rhs)))
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
    return RcgResult(x=BeamformerState(x=x, num_bf=nb), history=np.asarray(history),
                     grad_norm=g_norm, stop_reason=stop, backtracks=backtracks)
