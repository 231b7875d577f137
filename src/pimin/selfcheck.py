"""The solver's oracles and the random instances they draw, kept once for both
`pimin check` and the test suite.

Each oracle returns the worst error it measured over draws from the given
generator, without judging it. :func:`self_check` (the `pimin check` command)
runs each once on one seeded stream and compares each figure with its bound;
the tests run the same functions at their own sizes and bounds. The oracles
call the kernels the solver runs (``linalg._kron_apply``, ``rcg._project``,
the blocks of ``build_effective_channels``) and compare them with references
that do not run through them: dense Kronecker products and power forms,
finite differences, the matrix an eigendecomposition must rebuild,
``numpy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg, rcg
from .linalg import _hermitian_part, hermitian_evd
from .rcg import BeamformerState, PrecomputedForms, RcgConfig, random_state
from .scenario import ChannelSet, ScenarioConfig, desk_scenario, generate_channels
from .sdp import SdpProblem, solve_sdp
from .sysmodel import build_effective_channels


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def cplx(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng: np.random.Generator, n: int) -> np.ndarray:
    return _hermitian_part(cplx(rng, n, n))


def random_psd(rng: np.random.Generator, n: int, trace: float | None = None) -> np.ndarray:
    a = cplx(rng, n, n)
    p = a.conj().T @ a
    if trace is not None:
        p *= trace / np.trace(p).real
    return p


def random_forms(rng: np.random.Generator, terms: int, lm: int, n: int) -> PrecomputedForms:
    return PrecomputedForms(b=cplx(rng, terms, lm), c=cplx(rng, terms, lm, n))


def dense_kron_block(block: np.ndarray, blocks: int) -> np.ndarray:
    """The full ``I_blocks kron block`` matrix, the reference for the blockwise paths."""
    return np.kron(np.eye(blocks), block)


def dense_power_quadratic(block: np.ndarray, w: np.ndarray, r_ss: np.ndarray) -> float:
    """``w^H (I_L kron block) R_ss (I_L kron block)^H w`` through the dense
    Kronecker matrix, with no eigendecomposition: the power forms' reference."""
    a = dense_kron_block(block, r_ss.shape[0] // block.shape[1])
    return float(np.real(w.conj() @ a @ r_ss @ a.conj().T @ w))


def random_sdp_problem(gen: np.random.Generator, n: int) -> SdpProblem:
    """A covariance subproblem with a full-rank objective, a positive definite
    communication form and an indefinite sensing form, whose right-hand sides
    sit below their values at a random trace-budget witness."""
    h = cplx(gen, n, n)
    obj = h.conj().T @ h
    c1 = cplx(gen, n, n)
    c1 = c1.conj().T @ c1 + 0.5 * np.eye(n)
    c2 = random_hermitian(gen, n)
    budget = float(gen.uniform(0.5, 3.0))
    witness = random_psd(gen, n, trace=budget)
    sense_at_witness = float(np.trace(c2 @ witness).real)
    return SdpProblem(
        obj=obj, comm_mat=c1,
        comm_rhs=0.7 * float(np.trace(c1 @ witness).real),
        sense_mat=c2,
        sense_rhs=sense_at_witness - 0.3 * abs(sense_at_witness) - 0.1,
        trace_budget=budget)


def diagonal_problem(obj_diag) -> SdpProblem:
    """A diagonal objective under ``diag(1, 0) >= 0.3`` and ``I >= 0.5`` at unit
    trace: the dual's minimum eigenvalue repeats at the optimum, a kink of the
    dual. The exact optimum of ``diag(1, 0)`` is 0.3, that of ``diag(2, 1)`` 1.3."""
    return SdpProblem(obj=np.diag(obj_diag).astype(complex),
                      comm_mat=np.diag([1.0, 0.0]).astype(complex), comm_rhs=0.3,
                      sense_mat=np.eye(2, dtype=complex), sense_rhs=0.5, trace_budget=1.0)


def sample_feasible_points(prob: SdpProblem, rng: np.random.Generator,
                           count: int) -> list[np.ndarray]:
    """The first ``count`` PSD trace-budget matrices, or fewer, that satisfy both
    inequalities among at most 200 batches of 1000 Haar-rotated Dirichlet
    spectra, each batch drawn at once."""
    n, out = prob.dim, []
    for _ in range(200):
        q, _ = np.linalg.qr(cplx(rng, 1000, n, n))
        lam = rng.dirichlet(np.ones(n), size=1000) * prob.trace_budget
        r = (q * lam[:, None, :]) @ q.conj().transpose(0, 2, 1)
        comm = np.einsum("ij,kji->k", prob.comm_mat, r).real
        sense = np.einsum("ij,kji->k", prob.sense_mat, r).real
        out.extend(r[(comm >= prob.comm_rhs) & (sense >= prob.sense_rhs)])
        if len(out) >= count:
            break
    return out[:count]


def kron_error(rng: np.random.Generator) -> float:
    """Largest entry error of ``linalg._kron_apply`` against the dense product,
    over 20 draws."""
    worst = 0.0
    for _ in range(20):
        a, b, blocks = (int(v) for v in rng.integers(1, 7, size=3))
        h = cplx(rng, a, b)
        v = cplx(rng, blocks * b)
        dense = dense_kron_block(h, blocks) @ v
        worst = max(worst, float(np.max(np.abs(linalg._kron_apply(h, v) - dense))))
    return worst


def evd_error(rng: np.random.Generator) -> float:
    """Largest reconstruction or orthogonality error of ``hermitian_evd`` on ten
    Gram matrices."""
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 8))
        a = random_psd(rng, n)
        evd = hermitian_evd(a)
        v = evd.eigenvectors
        rel = np.linalg.norm(a - (v * evd.eigenvalues) @ v.conj().T) / np.linalg.norm(a)
        ortho = np.max(np.abs(v.conj().T @ v - np.eye(n)))
        worst = max(worst, float(rel), float(ortho))
    return worst


def gradient_error(rng: np.random.Generator, count: int) -> float:
    """Largest relative error of ``rcg.euclid_grad`` against a central difference,
    over ``count`` draws of sizes 1 to 6. A draw whose difference is below 1e-3
    is drawn again, which keeps the relative error well posed."""
    worst, checked = 0.0, 0
    while checked < count:
        lm, n = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        forms = random_forms(rng, int(rng.integers(1, 7)), lm, n)
        x = random_state(lm, n, rng)
        delta = cplx(rng, lm + n)
        g = rcg.euclid_grad(x, forms)
        h = 1e-6
        f_plus = rcg.objective(BeamformerState(x=x.x + h * delta, num_bf=lm), forms)
        f_minus = rcg.objective(BeamformerState(x=x.x - h * delta, num_bf=lm), forms)
        fd = (f_plus - f_minus) / (2.0 * h)
        if abs(fd) < 1e-3:
            continue
        worst = max(worst, abs(fd - float(np.real(np.vdot(g, delta)))) / abs(fd))
        checked += 1
    return worst


def lapack_error(rng: np.random.Generator, count: int) -> float:
    """Largest entry difference between the ``pimin.linalg`` LAPACK wrappers and
    ``numpy.linalg`` over ``count`` draws of sizes 1 to 17: a real ``solve``,
    and ``eigh`` and ``eigvalsh`` of a complex Hermitian matrix; then
    ``eigvalsh`` of one stacked pair. The wrappers call the same LAPACK
    routine on the same input, so anything but 0.0 is a fault."""
    def hermitian(*shape):
        z = cplx(rng, *shape)
        return z + np.swapaxes(z, -1, -2).conj()

    pairs = []
    for _ in range(count):
        n = int(rng.integers(1, 18))
        a, b, h = rng.standard_normal((n, n)), rng.standard_normal(n), hermitian(n, n)
        pairs += [(linalg.solve(a, b), np.linalg.solve(a, b)),
                  (linalg.eigvalsh(h), np.linalg.eigvalsh(h))]
        pairs += zip(linalg.eigh(h), np.linalg.eigh(h))
    n = int(rng.integers(1, 18))
    stack = hermitian(2, n, n)
    pairs.append((linalg.eigvalsh(stack), np.linalg.eigvalsh(stack)))
    return max(float(np.max(np.abs(got - ref))) for got, ref in pairs)


def _tangency(v: np.ndarray, x: BeamformerState) -> float:
    return float(np.max(np.abs(np.real(v * x.x.conj()))))


def _riem_grad_norm(x: BeamformerState, forms: PrecomputedForms) -> float:
    return float(np.linalg.norm(rcg._project(x.x, x.x.conj(), rcg.euclid_grad(x, forms))))


def manifold_errors(forms: PrecomputedForms, x0: BeamformerState,
                    max_iters: int) -> tuple[float, float, float, float, float]:
    """The largest modulus error, gradient and step tangency over the accepted
    steps of one ``rcg_solve`` run, the largest rise of its history, and the
    Riemannian gradient norm at its last iterate over that at ``x0``, both
    from ``rcg.euclid_grad`` (so a wrong Levenberg–Marquardt Jacobian fails
    the ratio); all NaN, failing any bound, when the run takes no step."""
    seen = []

    def watch(x, g, d):
        seen.append((np.max(np.abs(np.abs(x.x) - 1.0)), _tangency(g, x), _tangency(d, x)))

    out = rcg.rcg_solve(forms, x0, RcgConfig(max_iters=max_iters), callback=watch)
    if not seen:
        return (math.nan,) * 5
    mod, grad_tan, step_tan = (float(v) for v in np.max(seen, axis=0))
    return (mod, grad_tan, step_tan, float(np.max(np.diff(out.history))),
            _riem_grad_norm(out.x, forms) / _riem_grad_norm(x0, forms))


def reduced_objective_error(scen: ScenarioConfig, ch: ChannelSet,
                            rng: np.random.Generator) -> float:
    """Relative error of the reduced objective against the dense power quadratic
    of the path-interference block, at a random covariance and state."""
    r_ss = random_psd(rng, scen.L * scen.M_t, trace=scen.P_B)
    forms = rcg.precompute_forms(hermitian_evd(r_ss), ch)
    x = random_state(scen.L * scen.M, scen.N, rng)
    reduced = rcg.objective(x, forms)
    direct = dense_power_quadratic(build_effective_channels(ch, x.phi).Ac_block, x.w, r_ss)
    return abs(reduced - direct) / max(direct, 1e-300)


def _check_sdp(rng: np.random.Generator) -> CheckResult:
    # scalar case is analytic
    p1 = SdpProblem(obj=np.array([[2.0 + 0j]]),
                    comm_mat=np.array([[1.0 + 0j]]), comm_rhs=0.5,
                    sense_mat=np.array([[1.0 + 0j]]), sense_rhs=0.0,
                    trace_budget=3.0)
    sol1 = solve_sdp(p1)
    scalar_ok = sol1.status == "optimal" and abs(sol1.objective_value - 6.0) <= 1e-8

    # at a kink of the dual the answer mixes eigenvectors and is still exact
    kinks = [(solve_sdp(diagonal_problem(d)), exact) for d, exact in (([1.0, 0.0], 0.3),
                                                                       ([2.0, 1.0], 1.3))]
    kinks_ok = all(sol.status == "optimal" and abs(sol.objective_value - exact) <= 1e-9 * exact
                   for sol, exact in kinks)

    # no feasible sample may beat the solver's optimum
    prob = random_sdp_problem(rng, 3)
    sol = solve_sdp(prob)
    values = [float(np.trace(prob.obj @ r).real) for r in sample_feasible_points(prob, rng, 200)]
    dominated = (bool(values) and sol.status == "optimal"
                 and sol.objective_value <= min(values) + 1e-6 * abs(min(values)))
    return CheckResult(
        "sdp_scalar_and_kinks_exact_and_dominates_samples", scalar_ok and kinks_ok and dominated,
        f"scalar={scalar_ok}, kinks={kinks_ok}, status={sol.status}, "
        f"dominates {len(values)} samples={dominated}")


def self_check() -> tuple[CheckResult, ...]:
    """Run every oracle once on draws from ``default_rng(2024)`` and judge each figure."""
    rng = np.random.default_rng(2024)
    kron = kron_error(rng)
    evd = evd_error(rng)
    grad = gradient_error(rng, 10)
    mod, grad_tan, step_tan, rise, grad_ratio = manifold_errors(
        random_forms(rng, 4, 3, 3), random_state(3, 3, rng), 60)
    tangency = max(grad_tan, step_tan)
    sdp = _check_sdp(rng)
    scen = desk_scenario()
    rel = reduced_objective_error(scen, generate_channels(scen, rng), rng)
    lapack = lapack_error(rng, 20)
    return (
        CheckResult("kron_apply_matches_dense", kron <= 1e-12,
                    f"max entry error {kron:.2e}"),
        CheckResult("hermitian_evd_reconstruction", evd <= 1e-10,
                    f"max residual {evd:.2e}"),
        CheckResult("euclidean_gradient_matches_finite_difference", grad <= 1e-6,
                    f"max relative error {grad:.2e}"),
        CheckResult("manifold_iterates_and_descent",
                    mod <= 1e-12 and tangency <= 1e-10 and rise <= 1e-12
                    and grad_ratio <= 1e-6,
                    f"modulus error {mod:.2e}, tangency {tangency:.2e}, max rise {rise:.2e}, "
                    f"gradient ratio {grad_ratio:.2e}"),
        sdp,
        CheckResult(f"reduced_objective_matches_power[{scen.M_t}x{scen.M}x{scen.N}]",
                    rel <= 1e-10, f"relative error {rel:.2e}"),
        CheckResult("lapack_wrappers_match_numpy_linalg", lapack == 0.0,
                    f"max entry difference {lapack:.2e}"),
    )
