"""Built-in invariant suite runnable from the CLI (`pimin check`).

Each check returns (passed, detail). Structural checks cover the numeric
kernels, the gradient, the manifold loop and the covariance solver on
synthetic instances; scenario checks validate the reduced objective and the
power metrics on generated channel realizations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import rcg
from .linalg import hermitian_evd, kron_identity_apply
from .metrics import power_quadratic
from .rcg import BeamformerState, PrecomputedForms, RcgConfig, random_state
from .scenario import ScenarioConfig, desk_scenario, generate_channels
from .sdp import SdpProblem, solve_sdp
from .sysmodel import build_pi_channel


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class CheckReport:
    results: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}"
                for r in self.results]


def _random_forms(rng: np.random.Generator, terms: int, lm: int, n: int,
                  scale: float = 1.0) -> PrecomputedForms:
    shape_b = (terms, lm)
    shape_c = (terms, lm, n)
    b = scale * (rng.standard_normal(shape_b) + 1j * rng.standard_normal(shape_b))
    c = scale * (rng.standard_normal(shape_c) + 1j * rng.standard_normal(shape_c))
    return PrecomputedForms(b=b, c=c)


def _check_kron(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        a, b, blocks = rng.integers(1, 7, size=3)
        h = rng.standard_normal((a, b)) + 1j * rng.standard_normal((a, b))
        v = rng.standard_normal(blocks * b) + 1j * rng.standard_normal(blocks * b)
        dense = np.kron(np.eye(blocks), h) @ v
        worst = max(worst, float(np.max(np.abs(
            kron_identity_apply(h, v, int(blocks)) - dense))))
    return CheckResult("kron_identity_apply_matches_dense", worst <= 1e-12,
                       f"max entry error {worst:.2e}")


def _check_evd(rng: np.random.Generator) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 8))
        b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = b.conj().T @ b
        evd = hermitian_evd(a)
        rel = np.linalg.norm(a - evd.reconstruct()) / np.linalg.norm(a)
        ortho = np.max(np.abs(evd.eigenvectors.conj().T @ evd.eigenvectors - np.eye(n)))
        worst = max(worst, float(rel), float(ortho))
    return CheckResult("hermitian_evd_reconstruction", worst <= 1e-10,
                       f"max residual {worst:.2e}")


def _check_gradient(rng: np.random.Generator,
                    grad_fn: Callable | None = None) -> CheckResult:
    grad_fn = grad_fn or rcg.euclid_grad
    worst = 0.0
    for _ in range(10):
        lm, n = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        forms = _random_forms(rng, int(rng.integers(1, 5)), lm, n)
        x = random_state(lm, n, rng)
        delta = rng.standard_normal(lm + n) + 1j * rng.standard_normal(lm + n)
        g = grad_fn(x, forms)
        h = 1e-6
        f_plus = rcg.objective(BeamformerState(x=x.x + h * delta, num_bf=lm), forms)
        f_minus = rcg.objective(BeamformerState(x=x.x - h * delta, num_bf=lm), forms)
        fd = (f_plus - f_minus) / (2.0 * h)
        analytic = float(np.real(np.vdot(g, delta)))
        rel = abs(fd - analytic) / max(abs(fd), 1e-12)
        worst = max(worst, rel)
    return CheckResult("euclidean_gradient_matches_finite_difference",
                       worst <= 1e-6, f"max relative error {worst:.2e}")


def _check_manifold(rng: np.random.Generator) -> CheckResult:
    forms = _random_forms(rng, 4, 3, 3)
    x0 = random_state(3, 3, rng)
    out = rcg.rcg_solve(forms, x0, RcgConfig(max_iters=60))
    mod_err = out.x.max_modulus_error()
    g = rcg.riem_grad(out.x, rcg.euclid_grad(out.x, forms))
    tangency = float(np.max(np.abs(np.real(g * out.x.x.conj()))))
    monotone = bool(np.all(np.diff(out.history) <= 1e-12))
    ok = mod_err <= 1e-12 and tangency <= 1e-10 and monotone
    return CheckResult(
        "manifold_iterates_and_descent",
        ok,
        f"modulus error {mod_err:.2e}, tangency {tangency:.2e}, monotone={monotone}")


def _check_sdp(rng: np.random.Generator) -> CheckResult:
    # scalar case is analytic
    p1 = SdpProblem(dim=1, obj=np.array([[2.0 + 0j]]),
                    comm_mat=np.array([[1.0 + 0j]]), comm_rhs=0.5,
                    sense_mat=np.array([[1.0 + 0j]]), sense_rhs=0.0,
                    trace_budget=3.0)
    sol1 = solve_sdp(p1)
    scalar_ok = sol1.status == "optimal" and abs(sol1.objective_value - 6.0) <= 1e-8

    # random feasible-by-construction instance must never beat the solver
    n = 3
    h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    obj = h.conj().T @ h
    c1 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c1 = c1.conj().T @ c1
    c2 = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    c2 = 0.5 * (c2 + c2.conj().T)
    witness = np.eye(n, dtype=np.complex128) / n
    prob = SdpProblem(dim=n, obj=obj,
                      comm_mat=c1, comm_rhs=0.5 * float(np.trace(c1 @ witness).real),
                      sense_mat=c2, sense_rhs=min(0.0, float(np.trace(c2 @ witness).real)),
                      trace_budget=1.0)
    sol = solve_sdp(prob)
    dominated = True
    if sol.status == "optimal":
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((n, n))
                                + 1j * rng.standard_normal((n, n)))
            lam = rng.dirichlet(np.ones(n))
            r = (q * lam) @ q.conj().T
            if float(np.trace(prob.comm_mat @ r).real) < prob.comm_rhs:
                continue
            if float(np.trace(prob.sense_mat @ r).real) < prob.sense_rhs:
                continue
            if float(np.trace(prob.obj @ r).real) < sol.objective_value - 1e-6:
                dominated = False
    ok = scalar_ok and sol.status == "optimal" and dominated
    return CheckResult(
        "sdp_scalar_exact_and_dominates_samples", ok,
        f"scalar={scalar_ok}, status={sol.status}, dominates={dominated}")


def _check_reduced_objective(scen: ScenarioConfig,
                             rng: np.random.Generator) -> CheckResult:
    ch = generate_channels(scen, rng)
    dim = scen.L * scen.M_t
    u = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    r_ss = u.conj().T @ u
    r_ss *= scen.P_B / np.trace(r_ss).real
    forms = rcg.precompute_forms(hermitian_evd(r_ss), ch, scen.L)
    x = random_state(scen.L * scen.M, scen.N, rng)
    reduced = rcg.objective(x, forms)
    direct = power_quadratic(build_pi_channel(ch, x.phi), x.w, r_ss)
    rel = abs(reduced - direct) / max(direct, 1e-300)
    return CheckResult(f"reduced_objective_matches_power[{scen.M_t}x{scen.M}x{scen.N}]",
                       rel <= 1e-10, f"relative error {rel:.2e}")


def self_check(scenarios: Sequence[ScenarioConfig] | None = None,
               euclid_grad_fn: Callable | None = None,
               seed: int = 2024) -> CheckReport:
    """Run the invariant suite; scenario-dependent checks run per scenario.

    ``euclid_grad_fn`` exists to let tests inject a corrupted gradient and
    confirm the finite-difference check catches it.
    """
    rng = np.random.default_rng(seed)
    results = [
        _check_kron(rng),
        _check_evd(rng),
        _check_gradient(rng, euclid_grad_fn),
        _check_manifold(rng),
        _check_sdp(rng),
    ]
    if scenarios is None:
        scenarios = [desk_scenario()]
    for scen in scenarios:
        results.append(_check_reduced_objective(scen, rng))
    return CheckReport(results=tuple(results))
