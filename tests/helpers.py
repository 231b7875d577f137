"""Test-only oracles and generators.

The oracles that `pimin check` also runs, and the random instances they
draw, live in :mod:`pimin.selfcheck`. What stays here is used by the tests
alone: a dense rebuild of the forms, an exact oracle for the 2x2 covariance
subproblem, plain reference loops for the manifold solver and the outer
iteration, the transmit-covariance check, and small generators.
"""

import math
from types import SimpleNamespace

import numpy as np

from pimin import ScenarioConfig
from pimin.bccd import (REF_NOISE_W, STALL_FLOOR_REL_NOISE, STALL_TOL, STALL_WINDOW,
                        BccdIteration, BccdResult, init_rss, relative_change)
from pimin.errors import DimensionError
from pimin.linalg import hermitian_evd
from pimin.metrics import power_breakdown
from pimin.rcg import (DAMPING_INIT, BeamformerState, PrecomputedForms, RcgConfig,
                       precompute_forms, random_state, rcg_solve)
from pimin.sdp import assemble_p2, solve_sdp
from pimin.selfcheck import dense_kron_block
from pimin.sysmodel import beam_products, build_effective_channels


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call appends its result to the returned list."""
    results = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(module, name, wrapper)
    return results


def assert_covariance(r: np.ndarray, budget: float) -> None:
    """``r`` is a transmit covariance of trace ``budget``: Hermitian within 1e-10
    relative (Frobenius), PSD within 1e-8 budget, trace within 1e-6 budget."""
    asym = np.linalg.norm(r - r.conj().T)
    assert asym <= 1e-10 * max(np.linalg.norm(r), 1e-300), f"not Hermitian: {asym:.3e}"
    eig_min = np.linalg.eigvalsh(0.5 * (r + r.conj().T)).min()
    assert eig_min >= -1e-8 * budget, f"not PSD: min eigenvalue {eig_min:.3e}"
    trace = np.trace(r).real
    assert abs(trace - budget) <= 1e-6 * budget, f"trace {trace:.9e} vs budget {budget:.9e}"


def random_unit_modulus(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=n))


def dense_forms(evd, ch, n_samples: int) -> PrecomputedForms:
    """Reduced-objective forms from dense Kronecker products, one eigenpair at a time.

    ``b_i = sqrt(lam_i) gamma_DPI (I_L kron H_DPI) v_i`` and
    ``c_i = sqrt(lam_i) gamma_RPI (I_L kron G_rR^H) diag((I_L kron H_cR) v_i)
    (1_L kron I_N)``, which sums the per-sample blocks over the shared phases.
    """
    n = ch.H_cR.shape[0]
    h_dpi = dense_kron_block(ch.H_DPI, n_samples)
    g_rr_h = dense_kron_block(ch.G_rR.conj().T, n_samples)
    h_cr = dense_kron_block(ch.H_cR, n_samples)
    fold = np.kron(np.ones((n_samples, 1)), np.eye(n))
    b, c = [], []
    for lam, v in zip(evd.clipped_eigenvalues, evd.eigenvectors.T):
        b.append(np.sqrt(lam) * ch.gamma_DPI * (h_dpi @ v))
        c.append(np.sqrt(lam) * ch.gamma_RPI * (g_rr_h @ np.diag(h_cr @ v) @ fold))
    return PrecomputedForms(b=np.array(b), c=np.array(c))


def tiny_scenario(**overrides) -> ScenarioConfig:
    """Minimal-footprint configuration for fast structural tests."""
    base = dict(M_t=2, M_r=2, M=3, N_x=2, N_y=1, L=2, seed=0)
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# Exact oracle for the 2x2 covariance subproblem
# ---------------------------------------------------------------------------

_PAULI = np.array([
    [[0.0, 1.0], [1.0, 0.0]],
    [[0.0, -1.0j], [1.0j, 0.0]],
    [[1.0, 0.0], [0.0, -1.0]],
])


def sdp2_exact_oracle(prob):
    """Exact optimum of a 2x2 covariance subproblem; ``None`` when it is infeasible.

    A trace-``P_B`` PSD matrix is ``P_B/2 (I + r . sigma)`` with ``|r| <= 1``
    (the Bloch ball): minimize ``c . r + o`` over the ball cut by two
    half-spaces. Two planes share a line, so no point inside the ball is
    extreme, and a minimizer lies on the sphere: at ``-c/|c|``, at the least
    point ``p_i - rho_i c_perp/|c_perp|`` of a circle that an active plane
    cuts, or where the line of both planes meets it. If ``c_perp`` is zero
    or rounding noise, the objective is constant on the plane, and that
    circle point may be any point of it: the circle's centre ``p_i`` stands
    in for it when the whole circle is feasible, and an end of its feasible
    arc (a line point) otherwise. Only feasible candidates count, so these
    seven suffice, and extra ones do no harm.
    """
    assert prob.dim == 2
    half = prob.trace_budget / 2.0

    def affine(mat):
        # trace(mat @ sigma_k) for each k, and trace(mat)
        coeffs = np.einsum("ij,kji->k", mat, _PAULI).real * half
        return coeffs, float(np.trace(mat).real) * half

    c, o = affine(prob.obj)
    assert c.any(), "the objective is a multiple of the identity"
    n1, off1 = affine(prob.comm_mat)
    n2, off2 = affine(prob.sense_mat)
    d1, d2 = prob.comm_rhs - off1, prob.sense_rhs - off2
    # each plane n . r = d, with the right-hand side that scales its tolerance
    planes = [(n1, d1, prob.comm_rhs), (n2, d2, prob.sense_rhs)]

    def on_ball_and_feasible(r):
        if r @ r > 1.0 + 1e-12:
            return False
        for n, d, rhs in planes:
            if n @ r - d < -1e-12 * max(1.0, abs(rhs)):
                return False
        return True

    candidates = [-c / np.linalg.norm(c)]
    for n, d, _ in planes:      # n = 0 yields the centre or -c/|c|
        nn = max(n @ n, 1e-300)
        centre = d * n / nn
        perp = c - (c @ n) / nn * n
        perp -= (perp @ n) / nn * n     # a second pass keeps rounding noise in the plane
        rho = np.sqrt(max(1.0 - d * d / nn, 0.0))
        candidates += [centre, centre - rho * perp / max(np.linalg.norm(perp), 1e-300)]
    p0 = np.linalg.lstsq(np.array([n1, n2]), np.array([d1, d2]), rcond=None)[0]
    u = np.cross(n1, n2)
    u *= np.sqrt(max(1.0 - p0 @ p0, 0.0) / max(u @ u, 1e-300))
    candidates += [p0 + u, p0 - u]
    values = [c @ r + o for r in candidates if on_ball_and_feasible(r)]
    return float(min(values)) if values else None


# ---------------------------------------------------------------------------
# Plain Levenberg–Marquardt loop in phase coordinates
# ---------------------------------------------------------------------------

def reference_lm(forms, x0, cfg, free=None):
    """``rcg_solve``'s damped Gauss–Newton loop, written out plainly.

    A test-only oracle: the complex Jacobian ``J`` of ``e_i = w^H (b_i + c_i
    phi)`` in the phases ``theta`` of ``x = exp(j theta)``, restricted to the
    free columns, the gradient ``2 Re(J^H e)``, and one ``d_free x d_free``
    ``np.linalg.solve`` of ``(Re(J^H J) + mu I) delta = -g/2`` per trial,
    with the same acceptance, damping and stop rules. Returns the final
    point, the counters and the accepted steps ``delta`` (full length, zero
    on frozen coordinates).
    """
    b = np.asarray(forms.b, dtype=complex)
    c = np.asarray(forms.c, dtype=complex)
    nb, dim = x0.num_bf, x0.dim
    cols = np.flatnonzero(np.ones(dim, dtype=bool) if free is None else free)
    grad_tol = cfg.resolved_grad_tol(len(cols))

    def residual(x):
        t = b + c @ x[nb:]
        e = t @ x[:nb].conj()
        return t, e, float(np.vdot(e, e).real)

    x = x0.x.copy()
    t, e, f = residual(x)
    iterations = backtracks = 0
    mu, nu, accepted, steps = None, 2.0, True, []
    while True:
        if accepted:
            w, phi = x[:nb], x[nb:]
            jac = np.concatenate([-1j * t * w.conj(), 1j * (w.conj() @ c) * phi], axis=1)
            jac = jac[:, cols]
            g = 2.0 * (jac.conj().T @ e).real
            g_norm = float(np.linalg.norm(g))
            if g_norm <= grad_tol or iterations == cfg.max_iters:
                break
            gauss_newton = (jac.conj().T @ jac).real
            if mu is None:
                mu = DAMPING_INIT * float(gauss_newton.diagonal().max())
        delta = np.linalg.solve(gauss_newton + mu * np.eye(len(cols)), -0.5 * g)
        step = np.zeros(dim)
        step[cols] = delta
        trial = x * np.exp(1j * step)
        t_new, e_new, f_new = residual(trial)
        accepted = f_new < f
        if accepted:
            rho = (f - f_new) / float(delta @ (mu * delta - 0.5 * g))
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(rho, 1.0) - 1.0) ** 3)
            nu = 2.0
            x, t, e, f = trial, t_new, e_new, f_new
            iterations += 1
            steps.append(step)
        else:
            backtracks += 1
            if not math.isfinite(f_new) or np.array_equal(trial, x):
                break
            mu *= nu
            nu *= 2.0
    stop = ("grad_tol" if g_norm <= grad_tol
            else "max_iters" if iterations == cfg.max_iters else "stalled")
    return SimpleNamespace(x=x, iterations=iterations, backtracks=backtracks,
                           stop_reason=stop, steps=steps)


# ---------------------------------------------------------------------------
# Outer loop that runs every block in every iteration
# ---------------------------------------------------------------------------

def reference_bccd_solve(cfg, scen, ch, seed, *, frozen_phi=None):
    """``bccd_solve`` from ``seeded_start(seed, scen, ch)``, without its shortcuts.

    A test-only oracle: it draws its own start from ``default_rng(seed)``
    instead of taking a ``BccdStart``, folds ``frozen_phi`` into the forms by
    its own ``b + c phi``, and every outer iteration runs the manifold block,
    the SDP and the figures of merit, even when the manifold solve takes no
    step or provably would take none, so the production loop must return a
    bit-identical result.
    """
    m_r, m_t, m, n = ch.dims
    if (m_t, m_r, m, n) != (scen.M_t, scen.M_r, scen.M, scen.N):
        raise DimensionError(
            f"channel dims (M_r={m_r}, M_t={m_t}, M={m}, N={n}) do not match scenario")
    lm = scen.L * m
    dim = scen.L * m_t

    rng = np.random.default_rng(seed)
    r_cov = init_rss(dim, scen.P_B, rng)
    x = random_state(lm, n, rng)
    phi = x.phi
    if frozen_phi is not None:
        phi = np.asarray(frozen_phi, dtype=np.complex128)
        x = BeamformerState(x=x.w, num_bf=lm)

    stall_floor = STALL_FLOOR_REL_NOISE * scen.sigma_r2_W * lm
    # the tolerance is read in watts at REF_NOISE_W, as bccd_solve reads it
    rcg_cfg = RcgConfig(cfg.rcg.max_iters, cfg.rcg.resolved_grad_tol(x.dim)
                        * (scen.sigma_r2_W / REF_NOISE_W))
    history = []
    pi_trace = []
    converged = False

    evd = hermitian_evd(r_cov)
    forms = None
    for _ in range(cfg.n_iter):
        if forms is None:
            forms = precompute_forms(evd, ch)
            if frozen_phi is not None:
                forms = PrecomputedForms(b=forms.b + forms.c @ phi,
                                         c=np.empty((forms.num_terms, lm, 0), dtype=np.complex128))
        rcg_out = rcg_solve(forms, x, rcg_cfg)
        x = rcg_out.x
        if frozen_phi is None:
            phi = x.phi

        beams = beam_products(build_effective_channels(ch, phi), x.w)
        sol = solve_sdp(assemble_p2(beams, scen), max_iters=cfg.sdp_max_iters)
        if sol.status == "optimal":
            r_cov = sol.R_ss
            evd = hermitian_evd(r_cov)
            forms = None

        powers = power_breakdown(beams, r_cov, scen.sigma_r2_W,
                                 scen.sigma_c2_W, scen.M_r, evd=evd)
        history.append(BccdIteration(**vars(powers), sdp_status=sol.status))
        pi_trace.append(powers.p_pi)

        if len(pi_trace) > STALL_WINDOW:
            recent = [
                relative_change(pi_trace[-k], pi_trace[-k - 1], stall_floor)
                for k in range(1, STALL_WINDOW + 1)
            ]
            if max(recent) < STALL_TOL:
                converged = True
                break

    assert history
    return BccdResult(
        w=x.w.copy(),
        phi=phi.copy(),
        R_ss=r_cov,
        history=tuple(history),
        converged=converged,
    )
