import math
import time
from dataclasses import replace

import numpy as np
import pytest

from pimin import sdp
from pimin.errors import DomainError, HermitianError
from pimin.metrics import comm_snr
from pimin.scenario import generate_channels
from pimin.sdp import MAX_ITERS, TOL, SdpProblem, assemble_p2, solve_sdp
from pimin.sysmodel import beam_products, build_effective_channels

from pimin.selfcheck import (cplx, dense_power_quadratic, diagonal_problem, random_hermitian,
                             random_psd, random_sdp_problem, sample_feasible_points)

from helpers import (assert_covariance, count_calls, random_unit_modulus, sdp2_exact_oracle,
                     tiny_scenario)


def dependent_constraints_problem():
    """Each constraint alone is reachable, but they need more than the budget."""
    e1 = np.diag([1.0, 0.0]).astype(complex)
    e2 = np.diag([0.0, 1.0]).astype(complex)
    return SdpProblem(obj=np.eye(2, dtype=complex), comm_mat=e1,
                      comm_rhs=0.9, sense_mat=e2, sense_rhs=0.9, trace_budget=1.0)


def slow_problem():
    """A 2x2 draw whose exact solve takes 29 dual evaluations, after a 6-step
    max-margin search; after 6 its point misses a constraint by more than a
    third of the right-hand side."""
    return random_sdp_problem(np.random.default_rng(57), 2)


def tiny_rhs_problem():
    """The null space of obj holds feasible points, but its uniform covariance
    misses a right-hand side far below the matrix scale."""
    return SdpProblem(obj=np.diag([1.0, 0.0, 0.0]).astype(complex),
                      comm_mat=np.eye(3, dtype=complex), comm_rhs=0.1,
                      sense_mat=np.diag([0.0, 1.0, -1.0]).astype(complex),
                      sense_rhs=1e-9, trace_budget=1.0)


def parallel_objective_problem(gen):
    """A 2x2 objective parallel to a constraint, ``comm_mat + 3I``, and right-hand
    sides of either sign: the dual's minimum eigenvalue can repeat at the optimum."""
    c1, c2 = random_hermitian(gen, 2), random_hermitian(gen, 2)
    b1, b2 = gen.standard_normal(2)
    return SdpProblem(obj=c1 + 3.0 * np.eye(2), comm_mat=c1, comm_rhs=b1, sense_mat=c2,
                      sense_rhs=b2, trace_budget=1.0)


def contradictory_problem():
    """``comm_mat + sense_mat = 0``: no point has both margins positive, however
    small the right-hand sides are against the matrix scale."""
    return SdpProblem(obj=np.array([[2.0, 0.3], [0.3, 1.0]], dtype=complex),
                      comm_mat=np.diag([1.0, -1.0]).astype(complex), comm_rhs=5e-10,
                      sense_mat=np.diag([-1.0, 1.0]).astype(complex), sense_rhs=5e-10,
                      trace_budget=1.0)


class TestAssembleP2:
    @pytest.fixture
    def setup(self, rng):
        scen = tiny_scenario(obstacles=((40.0, 60.0, 1.0),), gamma_sense_dB=3.0)
        ch = generate_channels(scen, np.random.default_rng(7))
        phi = random_unit_modulus(rng, scen.N)
        w = random_unit_modulus(rng, scen.L * scen.M)
        return scen, w, build_effective_channels(ch, phi)

    def test_trace_forms_match_metric_powers(self, setup, rng):
        scen, w, eff = setup
        prob = assemble_p2(beam_products(eff, w), scen)
        for _ in range(20):
            r = random_psd(rng, prob.dim, trace=scen.P_B)
            p_pi = dense_power_quadratic(eff.Ac_block, w, r)
            p_sense = dense_power_quadratic(eff.Ar_block, w, r)
            p_obs = dense_power_quadratic(eff.Ao_block, w, r)
            assert abs(np.trace(prob.obj @ r).real - p_pi) <= 1e-10 * max(p_pi, 1e-300)
            snr = comm_snr(eff.Hc_block.conj().T @ eff.Hc_block, r, scen.M_r,
                           scen.sigma_c2_W)
            comm_lhs = np.trace(prob.comm_mat @ r).real
            assert abs(comm_lhs - snr * scen.M_r * scen.L * scen.sigma_c2_W) \
                <= 1e-10 * max(comm_lhs, 1e-300)
            sense_lhs = np.trace(prob.sense_mat @ r).real
            expect = p_sense - scen.gamma_sense * (p_pi + p_obs)
            assert abs(sense_lhs - expect) <= 1e-10 * max(abs(expect), 1e-300)

    def test_matrices_are_what_the_checked_problem_stores(self, setup):
        # assemble_p2 skips SdpProblem's checks, so it must store, bit for
        # bit, what the checked constructor stores from the raw products
        scen, w, eff = setup
        beams = beam_products(eff, w)
        prob = assemble_p2(beams, scen)
        u, a, o, m_t = beams.u, beams.a, beams.o, beams.gram.shape[0]
        obj = np.outer(u, u.conj())
        comm = np.zeros((prob.dim, prob.dim), dtype=complex)
        for ell in range(scen.L):
            comm[ell * m_t:(ell + 1) * m_t, ell * m_t:(ell + 1) * m_t] = beams.gram
        sense = np.outer(a, a.conj()) - scen.gamma_sense * (obj + np.outer(o, o.conj()))
        checked = SdpProblem(obj=obj, comm_mat=comm, comm_rhs=prob.comm_rhs,
                             sense_mat=sense, sense_rhs=prob.sense_rhs,
                             trace_budget=prob.trace_budget)
        for name in ("obj", "comm_mat", "sense_mat"):
            got = getattr(prob, name)
            assert np.array_equal(got, got.conj().T), name
            assert got.dtype == np.complex128 and got.tobytes() == getattr(checked, name).tobytes()

    def test_sense_rhs_is_noise_term(self, setup):
        scen, w, eff = setup
        prob = assemble_p2(beam_products(eff, w), scen)
        assert abs(prob.sense_rhs
                   - scen.gamma_sense * scen.sigma_r2_W * len(w)) <= 1e-18
        assert abs(prob.comm_rhs
                   - scen.gamma_comm * scen.M_r * scen.L * scen.sigma_c2_W) <= 1e-18

    def test_clear_scene_drops_obstacle_term(self, rng):
        scen = tiny_scenario(gamma_sense_dB=3.0)
        ch = generate_channels(scen, np.random.default_rng(8))
        phi = random_unit_modulus(rng, scen.N)
        w = random_unit_modulus(rng, scen.L * scen.M)
        eff = build_effective_channels(ch, phi)
        prob = assemble_p2(beam_products(eff, w), scen)
        expect = -scen.gamma_sense * prob.obj
        a_gram = prob.sense_mat - expect
        # sense matrix minus the interference penalty is exactly the echo Gram
        stacked = np.concatenate([eff.Ar_block.conj().T @ w[ell * scen.M:(ell + 1) * scen.M]
                                  for ell in range(scen.L)])
        assert np.max(np.abs(a_gram - np.outer(stacked, stacked.conj()))) <= 1e-12

    def test_zero_sense_target(self, rng):
        scen = tiny_scenario(gamma_sense_dB=-300.0)   # effectively zero
        ch = generate_channels(scen, np.random.default_rng(9))
        phi = random_unit_modulus(rng, scen.N)
        w = random_unit_modulus(rng, scen.L * scen.M)
        eff = build_effective_channels(ch, phi)
        prob = assemble_p2(beam_products(eff, w), scen)
        assert prob.sense_rhs <= 1e-40
        evals = np.linalg.eigvalsh(prob.sense_mat)
        assert evals.min() >= -1e-12 * max(evals.max(), 1e-300)  # pure echo Gram

    @pytest.mark.parametrize("rel_asym,hermitian", [(0.5e-10, True), (2e-10, False)])
    def test_near_hermitian_input_symmetrized_at_the_tolerance(self, rng, rel_asym, hermitian):
        # ||A - A^H|| / ||A|| against the 1e-10 tolerance: the Hermitian part
        # is kept below it, and the matrix is rejected above it
        h = random_hermitian(rng, 4)
        k = cplx(rng, 4, 4)
        k = k - k.conj().T                  # anti-Hermitian: a - a^H = s k
        s = rel_asym * np.linalg.norm(h) / np.linalg.norm(k)
        a = h + 0.5 * s * k

        def problem():
            return SdpProblem(obj=a, comm_mat=np.eye(4), comm_rhs=0.0,
                              sense_mat=np.eye(4), sense_rhs=0.0, trace_budget=1.0)

        if not hermitian:
            with pytest.raises(HermitianError):
                problem()
            return
        obj = problem().obj
        assert np.array_equal(obj, 0.5 * (a + a.conj().T))
        assert np.array_equal(obj, obj.conj().T)

    def test_outer_products_are_symmetrized(self, rng):
        # u u^H rounds asymmetrically in general; the problem stores its
        # exactly Hermitian part
        u = cplx(rng, 6)
        outer = np.outer(u, u.conj())
        prob = SdpProblem(obj=outer, comm_mat=np.eye(6), comm_rhs=0.0,
                          sense_mat=outer, sense_rhs=0.0, trace_budget=1.0)
        for mat in (prob.obj, prob.sense_mat):
            assert np.array_equal(mat, mat.conj().T)
            assert np.max(np.abs(mat - outer)) <= 1e-15 * np.max(np.abs(outer))


class TestSolveSdp:
    def test_scalar_analytic(self):
        p = SdpProblem(obj=np.array([[2.0 + 0j]]),
                       comm_mat=np.array([[1.0 + 0j]]), comm_rhs=1.0,
                       sense_mat=np.array([[1.0 + 0j]]), sense_rhs=0.0,
                       trace_budget=3.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value - 6.0) <= 1e-9
        assert abs(sol.R_ss[0, 0].real - 3.0) <= 1e-9

    def test_scalar_infeasible(self):
        p = SdpProblem(obj=np.array([[1.0 + 0j]]),
                       comm_mat=np.array([[1.0 + 0j]]), comm_rhs=10.0,
                       sense_mat=np.array([[0.0 + 0j]]), sense_rhs=0.0,
                       trace_budget=3.0)
        assert solve_sdp(p).status == "infeasible"

    def test_flat_objective_returns_feasible(self, rng):
        p = SdpProblem(obj=np.zeros((3, 3), dtype=complex),
                       comm_mat=np.eye(3, dtype=complex), comm_rhs=0.5,
                       sense_mat=random_hermitian(rng, 3), sense_rhs=-5.0,
                       trace_budget=1.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert sol.constraint_violation <= 1e-6
        assert_covariance(sol.R_ss, 1.0)

    def test_matches_exact_oracle(self, rng):
        # full-rank objectives keep the optimum away from zero, so the relative
        # bound means something; the rank-one regime is tested below on the
        # objective's scale
        for _ in range(6):
            prob = random_sdp_problem(rng, 2)
            sol = solve_sdp(prob)
            assert sol.status == "optimal"
            exact = sdp2_exact_oracle(prob)
            assert exact is not None
            assert abs(sol.objective_value - exact) <= 1e-6 * abs(exact)

    def test_matches_exact_oracle_rank_one(self, rng):
        # a rank-one optimum is often zero, so the gap is read on the objective's scale
        for _ in range(3):
            h = cplx(rng, 2)
            prob = replace(random_sdp_problem(rng, 2), obj=np.outer(h, h.conj()))
            sol = solve_sdp(prob)
            assert sol.status == "optimal"
            exact = sdp2_exact_oracle(prob)
            obj_scale = float(np.linalg.eigvalsh(prob.obj).max()) * prob.trace_budget
            assert -1e-12 * obj_scale <= sol.objective_value
            assert abs(sol.objective_value - exact) <= 1e-9 * obj_scale

    def test_exact_oracle_with_objective_parallel_to_a_constraint(self):
        # obj = comm_mat + 3I is constant on the communication plane, and a
        # witness on that plane meets the sensing constraint, so the optimum
        # is comm_rhs + 3 P_B; the oracle's circle point is then any point
        # of its circle and may miss the feasible arc
        gen = np.random.default_rng(3)
        for _ in range(100):
            budget = float(gen.uniform(0.5, 3.0))
            c1, c2 = random_hermitian(gen, 2), random_hermitian(gen, 2)
            witness = random_psd(gen, 2, trace=budget)
            b1 = float(np.trace(c1 @ witness).real)
            prob = SdpProblem(obj=c1 + 3.0 * np.eye(2), comm_mat=c1, comm_rhs=b1,
                              sense_mat=c2, sense_rhs=float(np.trace(c2 @ witness).real) - 0.1,
                              trace_budget=budget)
            exact = sdp2_exact_oracle(prob)
            assert exact is not None
            assert abs(exact - (b1 + 3.0 * budget)) <= 1e-9 * max(1.0, abs(b1 + 3.0 * budget))

    def test_solution_invariants(self, rng):
        for _ in range(5):
            prob = random_sdp_problem(rng, 2)
            sol = solve_sdp(prob)
            assert sol.status == "optimal"
            r = sol.R_ss
            budget = prob.trace_budget
            assert abs(np.trace(r).real - budget) <= 1e-6 * budget
            assert np.linalg.eigvalsh(r).min() >= -1e-8 * budget
            assert np.trace(prob.comm_mat @ r).real >= prob.comm_rhs \
                - 1e-6 * max(abs(prob.comm_rhs), 1.0)
            assert np.trace(prob.sense_mat @ r).real >= prob.sense_rhs \
                - 1e-6 * max(abs(prob.sense_rhs), 1.0)
            assert sol.kkt_residual <= 1e-7

    def test_dominates_random_feasible_points(self, rng):
        prob = random_sdp_problem(rng, 2)
        sol = solve_sdp(prob)
        pts = sample_feasible_points(prob, rng, 300)
        assert len(pts) >= 100
        vals = [float(np.trace(prob.obj @ r).real) for r in pts]
        assert sol.objective_value <= min(vals) + 1e-6 * max(abs(min(vals)), 1.0)

    def test_objective_scaling_invariance(self, rng):
        prob = random_sdp_problem(rng, 2)
        sol1 = solve_sdp(prob)
        scaled = SdpProblem(obj=5.0 * prob.obj, comm_mat=prob.comm_mat,
                            comm_rhs=prob.comm_rhs, sense_mat=prob.sense_mat,
                            sense_rhs=prob.sense_rhs,
                            trace_budget=prob.trace_budget)
        sol5 = solve_sdp(scaled)
        assert abs(sol5.objective_value - 5.0 * sol1.objective_value) \
            <= 1e-4 * max(abs(sol1.objective_value), 1e-9)
        assert np.max(np.abs(sol5.R_ss - sol1.R_ss)) \
            <= 1e-5 * prob.trace_budget

    def test_dependent_constraints_infeasible(self):
        sol = solve_sdp(dependent_constraints_problem())
        assert sol.status == "infeasible"
        assert sol.constraint_violation > 0.0

    def test_cone_only_infeasible(self):
        offd = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        e1 = np.diag([1.0, 0.0]).astype(complex)
        p = SdpProblem(obj=np.eye(2, dtype=complex), comm_mat=offd,
                       comm_rhs=0.8, sense_mat=e1, sense_rhs=0.9, trace_budget=1.0)
        assert solve_sdp(p).status == "infeasible"

    def test_exhausted_budget_returns_best_iterate(self):
        prob = slow_problem()
        sol = solve_sdp(prob, max_iters=6)
        assert sol.status == "max_iters"
        assert sol.iterations == 6
        assert_covariance(sol.R_ss, prob.trace_budget)  # the best iterate honors trace and cone
        assert sol.constraint_violation > 0.0 and sol.kkt_residual == np.inf

    @pytest.mark.parametrize("cap", [0, -5, 5.5, math.inf, True])
    def test_cap_below_one_rejected(self, cap):
        with pytest.raises(DomainError, match="max_iters"):
            solve_sdp(diagonal_problem([2.0, 1.0]), max_iters=cap)

    def test_cap_of_one_reports_the_first_evaluation(self):
        sol = solve_sdp(slow_problem(), max_iters=1)
        assert sol.status == "max_iters"
        assert sol.iterations == 1

    @pytest.mark.parametrize("problem, status, iterations",
                             [(tiny_rhs_problem, "optimal", 1), (slow_problem, "max_iters", 7)],
                             ids=["null_space", "whole_space"])
    def test_max_margin_search_stops_at_the_cap(self, problem, status, iterations,
                                                monkeypatch):
        # on 2x2 searches h's slope stays positive while each Newton step only
        # halves theta, which uncapped takes 1076 evaluations to underflow; the
        # null space of tiny_rhs_problem is 2-D, so its capped pick goes on to
        # the whole space and the dual, whose first read is optimal; the null
        # space of slow_problem is 1-D, and its capped whole-space search ends
        # the solve
        real, calls = sdp._margin_line, []

        def stalled(mats, b, theta):
            if mats.shape[-1] != 2:
                return real(mats, b, theta)
            calls.append(theta)
            return -1.0, 0.0, -theta, -2.0, np.eye(2) / 2

        monkeypatch.setattr(sdp, "_margin_line", stalled)
        prob = problem()
        sol = solve_sdp(prob, max_iters=7)
        assert calls == [0.5 ** k for k in range(7)]
        assert (sol.status, sol.iterations) == (status, iterations)
        assert_covariance(sol.R_ss, prob.trace_budget)

    def test_null_space_shortcut_nulls_objective(self, rng):
        # rank-one objective with a roomy feasible set: optimum is exactly zero
        u = cplx(rng, 3)
        p = SdpProblem(obj=np.outer(u, u.conj()),
                       comm_mat=np.eye(3, dtype=complex), comm_rhs=0.2,
                       sense_mat=np.zeros((3, 3), dtype=complex), sense_rhs=0.0,
                       trace_budget=1.0)
        sol = solve_sdp(p)
        assert sol.status == "optimal" and sol.iterations == 1    # the mu = 0 exit
        assert sol.objective_value <= 1e-15 * np.linalg.norm(u) ** 2
        assert_covariance(sol.R_ss, 1.0)

    def test_face_step_meets_a_constraint_the_face_centre_misses(self, rng):
        # obj vanishes on a 2-D face whose centre has half the budget on the
        # communication direction, short of 0.8; the mix with the face's
        # max-margin point goes just far enough to meet it: the mu = 0 exit
        q = np.linalg.qr(cplx(rng, 3, 3))[0]

        def rotated(diag):
            return (q * np.array(diag, dtype=complex)) @ q.conj().T

        p = SdpProblem(obj=rotated([0.0, 0.0, 1.0]), comm_mat=rotated([1.0, 0.0, 0.0]),
                       comm_rhs=0.8, sense_mat=np.zeros((3, 3)), sense_rhs=0.0,
                       trace_budget=1.0)
        sol = solve_sdp(p)
        assert (sol.status, sol.iterations) == ("optimal", 1)
        assert abs(sol.objective_value) <= 1e-15
        assert abs(np.vdot(p.comm_mat, sol.R_ss).real - 0.8) <= 1e-12
        assert_covariance(sol.R_ss, 1.0)


class TestDualCertificates:
    def test_strictly_feasible_recipe_is_optimal(self):
        # criterion 6's recipe always has a strictly feasible witness
        prob = random_sdp_problem(np.random.default_rng(9), 8)
        sol = solve_sdp(prob)
        assert sol.status == "optimal" and sol.iterations >= 1
        r = sol.R_ss
        assert prob.comm_rhs > 0.0
        assert np.vdot(prob.comm_mat, r).real >= prob.comm_rhs * (1.0 - 1e-6)
        assert np.vdot(prob.sense_mat, r).real \
            >= prob.sense_rhs - 1e-6 * abs(prob.sense_rhs)
        assert 0.0 <= sol.kkt_residual <= 1e-7
        assert_covariance(sol.R_ss, prob.trace_budget)

    def test_feasible_min_eigenvector_attains_lower_bound(self):
        # <obj, R> >= trace_budget * lambda_min(obj) for every feasible R, with
        # equality here because the minimum eigenvector meets both constraints
        prob = random_sdp_problem(np.random.default_rng(39), 7)
        sol = solve_sdp(prob)
        bound = prob.trace_budget * float(np.linalg.eigvalsh(prob.obj)[0])
        assert sol.status == "optimal"
        assert abs(sol.objective_value - bound) <= 1e-9 * bound

    def test_tiny_rhs_met_relative_to_itself(self):
        p = tiny_rhs_problem()
        sol = solve_sdp(p)
        assert sol.status == "optimal"
        assert abs(sol.objective_value) <= 1e-15
        lhs = np.vdot(p.sense_mat, sol.R_ss).real
        assert lhs >= p.sense_rhs * (1.0 - 1e-6)
        assert sol.constraint_violation <= 1e-6

    def test_iterations_zero_only_for_certificates(self, rng):
        spectral = SdpProblem(obj=np.eye(2, dtype=complex),
                              comm_mat=np.eye(2, dtype=complex), comm_rhs=2.0,
                              sense_mat=np.zeros((2, 2), dtype=complex),
                              sense_rhs=0.0, trace_budget=1.0)
        sol = solve_sdp(spectral)
        assert sol.status == "infeasible" and sol.iterations == 0
        # a zero constraint matrix misses a positive right-hand side by all of it
        zero = replace(spectral, comm_mat=np.zeros((2, 2), dtype=complex), comm_rhs=0.5)
        sol = solve_sdp(zero)
        assert sol.status == "infeasible" and sol.iterations == 0
        assert sol.constraint_violation == 1.0
        assert solve_sdp(random_sdp_problem(rng, 2)).iterations >= 1

    def test_dual_value_certifies_infeasibility(self):
        # each constraint alone is reachable, both together are not: only the
        # max-margin point of the whole space, at weights (1/2, 1/2), proves it
        e1 = np.diag([1.0, 0.0]).astype(complex)
        e2 = np.diag([0.0, 1.0]).astype(complex)
        u = np.array([1.0, 1j]) / np.sqrt(2.0)
        p = SdpProblem(obj=np.outer(u, u.conj()), comm_mat=e1,
                       comm_rhs=0.6, sense_mat=e2, sense_rhs=0.6, trace_budget=1.0)
        sol = solve_sdp(p)
        assert sol.status == "infeasible" and sol.iterations == 1
        assert np.isinf(sol.kkt_residual) and sol.constraint_violation > 0.0

    def test_joint_certificate_is_relative_to_the_rhs(self):
        # the max-margin point misses both right-hand sides by all of their
        # size, though they are 1e-9 of the matrix scale
        times = []
        for _ in range(3):
            start = time.perf_counter()
            sol = solve_sdp(contradictory_problem())
            times.append(time.perf_counter() - start)
        assert sol.status == "infeasible" and sol.iterations == 1
        assert abs(sol.constraint_violation - 1.0) <= 1e-12
        assert min(times) < 0.01

    @pytest.mark.parametrize("excess,status", [(5e-8, "optimal"), (5e-7, "infeasible")])
    def test_scalar_shortfall_judged_at_tol(self, excess, status):
        # the only point misses a right-hand side of 1 + excess by excess
        p = SdpProblem(obj=np.ones((1, 1), dtype=complex),
                       comm_mat=np.ones((1, 1), dtype=complex), comm_rhs=1.0 + excess,
                       sense_mat=np.zeros((1, 1), dtype=complex), sense_rhs=0.0,
                       trace_budget=1.0)
        sol = solve_sdp(p)
        assert sol.status == status
        assert sol.constraint_violation == pytest.approx(excess, rel=1e-6)

    def test_status_is_scale_invariant(self):
        # raising both right-hand sides to 50-95% of their spectral reach
        # makes some draws jointly infeasible
        gen = np.random.default_rng(0)
        drawn = [random_sdp_problem(gen, int(gen.integers(2, 6))) for _ in range(20)]

        def reach(mat, budget):
            return float(np.linalg.eigvalsh(mat)[-1]) * budget

        raised = [replace(p, comm_rhs=u1 * reach(p.comm_mat, p.trace_budget),
                          sense_rhs=u2 * reach(p.sense_mat, p.trace_budget))
                  for p, (u1, u2) in zip(drawn[:10], gen.uniform(0.5, 0.95, size=(10, 2)))]
        problems = drawn + raised + [dependent_constraints_problem(), contradictory_problem()]
        statuses = set()
        for prob in problems:
            status = solve_sdp(prob).status
            statuses.add(status)
            for f in 10.0 ** np.array([-12, -6, 6, 12]):
                scaled = replace(prob, obj=f * prob.obj, comm_mat=f * prob.comm_mat,
                                 comm_rhs=f * prob.comm_rhs, sense_mat=f * prob.sense_mat,
                                 sense_rhs=f * prob.sense_rhs)
                assert solve_sdp(scaled).status == status
        assert statuses == {"optimal", "infeasible"}

    def test_status_and_value_agree_with_exact_oracle(self):
        # indefinite forms and right-hand sides of either sign: about 60% of
        # the draws are feasible; a draw whose feasibility flips within
        # 1e-5 of its right-hand sides is too close to the boundary to judge
        gen = np.random.default_rng(7)
        counts = {"optimal": 0, "infeasible": 0, "skipped": 0}
        for k in range(400):
            h = cplx(gen, 2, 2)
            obj = h.conj().T @ h if k % 2 else np.outer(h[0], h[0].conj())
            budget = float(gen.uniform(0.5, 3.0))
            b1, b2 = gen.standard_normal(2) * budget
            prob = SdpProblem(obj=obj, comm_mat=random_hermitian(gen, 2), comm_rhs=b1,
                              sense_mat=random_hermitian(gen, 2), sense_rhs=b2,
                              trace_budget=budget)
            looser, tighter = (sdp2_exact_oracle(replace(
                prob, comm_rhs=b1 + t * 1e-5 * max(1.0, abs(b1)),
                sense_rhs=b2 + t * 1e-5 * max(1.0, abs(b2)))) is None for t in (-1.0, 1.0))
            if looser != tighter:
                counts["skipped"] += 1
                continue
            exact = sdp2_exact_oracle(prob)
            sol = solve_sdp(prob)
            assert sol.status == ("infeasible" if exact is None else "optimal")
            counts[sol.status] += 1
            if exact is not None:
                assert abs(sol.objective_value - exact) \
                    <= 1e-5 * np.linalg.norm(prob.obj) * budget
        assert min(counts["optimal"], counts["infeasible"]) >= 100
        assert counts["skipped"] <= 4

    def test_kinked_duals_are_solved_exactly(self):
        # an objective parallel to a constraint, or a diagonal problem, gives
        # the dual a repeated minimum eigenvalue at the optimum, a kink: the
        # search mixes eigenvectors there, and each answer is exact within the
        # default cap; an infeasible answer has no duality gap to report. A
        # diagonal problem's dual Hessian is exactly 0, so the outer search's
        # curvature must not divide by it
        gen = np.random.default_rng(5)
        problems = [parallel_objective_problem(gen) for _ in range(30)]
        problems += [diagonal_problem([1.0, 0.0]), diagonal_problem([2.0, 1.0])]
        for _ in range(20):
            o, c1, c2 = gen.uniform(0.0, 1.0, 2), gen.uniform(0.0, 1.0, 2), gen.standard_normal(2)
            witness = gen.dirichlet(np.ones(2))
            problems.append(SdpProblem(
                obj=np.diag(o).astype(complex), comm_mat=np.diag(c1).astype(complex),
                comm_rhs=0.99 * float(c1 @ witness), sense_mat=np.diag(c2).astype(complex),
                sense_rhs=float(c2 @ witness) - 0.01, trace_budget=1.0))
        start = time.perf_counter()
        for prob in problems:
            exact = sdp2_exact_oracle(prob)
            sol = solve_sdp(prob)
            assert sol.iterations <= 100
            if exact is None:
                assert sol.status == "infeasible" and np.isinf(sol.kkt_residual)
            else:
                assert sol.status == "optimal"
                assert abs(sol.objective_value - exact) <= 1e-6 * max(1.0, abs(exact))
                assert sol.constraint_violation <= TOL and 0.0 <= sol.kkt_residual <= TOL
        assert time.perf_counter() - start < 5.0


    def test_tight_constraints_with_tiny_rhs_are_met(self):
        # right-hand sides of 1e-10 to 1e-2 of the matrix scale: a constraint
        # tight at the optimum still holds relative to its own right-hand
        # side, which round-off allows only from the feasible side
        gen = np.random.default_rng(4)
        searched = missed = 0
        for _ in range(60):
            n = int(gen.integers(2, 5))
            h = cplx(gen, n, n)
            b1, b2 = 10.0 ** -gen.uniform(2, 10, size=2)
            prob = SdpProblem(obj=h.conj().T @ h, comm_mat=random_hermitian(gen, n),
                              comm_rhs=b1, sense_mat=random_hermitian(gen, n), sense_rhs=b2,
                              trace_budget=float(gen.uniform(0.5, 3.0)))
            sol = solve_sdp(prob)
            assert sol.status in ("optimal", "infeasible")
            if sol.status == "optimal" and sol.iterations > 1:
                searched += 1
                missed += sol.constraint_violation > 0.0
            if n == 2:
                exact = sdp2_exact_oracle(prob)
                assert sol.status == ("infeasible" if exact is None else "optimal")
                if exact is not None:
                    assert abs(sol.objective_value - exact) <= 1e-6 * abs(exact)
        # the search aims 1e-14 inside each constraint, past the round-off of
        # <A_i, Y>, so nearly every searched answer meets both exactly: 2 of 47
        # miss by at most 6e-10 relative, against 15 to 22 without the aim
        assert searched >= 40 and missed <= 4

    def test_binding_draws_take_few_dual_evaluations(self):
        # the outer search's curvature, the Schur complement of the dual's
        # Hessian, keeps the nested search short: these 70 draws take 308
        # evaluations, at most 26 each; with h[0, 0] alone 406, up to 68
        gen = np.random.default_rng(7)
        sols = [solve_sdp(random_sdp_problem(gen, n)) for n in range(2, 9) for _ in range(10)]
        assert {sol.status for sol in sols} == {"optimal"}
        iterations = [sol.iterations for sol in sols]
        assert sum(iterations) <= 320 and max(iterations) <= 30

    def test_reported_gap_bounds_the_true_gap(self):
        # a finite kkt_residual, at any cap and whatever the status, is at
        # least the answer's excess over the exact optimum, on its own scale
        # of ||obj||_F times the budget
        smooth, kinked = np.random.default_rng(7), np.random.default_rng(5)
        problems = [random_sdp_problem(smooth, 2) for _ in range(60)]
        problems += [parallel_objective_problem(kinked) for _ in range(60)]
        checks = 0
        for prob in problems:
            exact = sdp2_exact_oracle(prob)
            if exact is None:
                continue
            scale = np.linalg.norm(prob.obj) * prob.trace_budget
            for cap in (1, 2, 3, 4, MAX_ITERS):
                sol = solve_sdp(prob, max_iters=cap)
                if math.isfinite(sol.kkt_residual):
                    assert sol.kkt_residual >= (sol.objective_value - exact) / scale - 1e-12
                    checks += 1
        assert checks >= 400

    @pytest.mark.parametrize("cap", [6, 12, 20])
    def test_capped_nested_search_reports_its_evaluations(self, cap, monkeypatch):
        # each reported evaluation factorized c - mu . a once: every eigh call
        # but the read of c and those of the max-margin searches
        factorizations = count_calls(monkeypatch, sdp, "eigh")
        margin_reads = count_calls(monkeypatch, sdp, "_margin_line")
        sol = solve_sdp(slow_problem(), max_iters=cap)
        assert (sol.status, sol.iterations) == ("max_iters", cap)
        assert len(factorizations) - 1 - len(margin_reads) == cap


class TestSampleFeasiblePoints:
    def test_points_are_feasible_covariances_and_count_caps_them(self, rng):
        # about a quarter of the draws are feasible: far more than 50 in a batch
        prob = random_sdp_problem(rng, 3)
        pts = sample_feasible_points(prob, rng, 50)
        assert len(pts) == 50
        for r in pts:
            assert_covariance(r, prob.trace_budget)
            for mat, rhs in ((prob.comm_mat, prob.comm_rhs), (prob.sense_mat, prob.sense_rhs)):
                assert np.trace(mat @ r).real >= rhs - 1e-12 * np.linalg.norm(mat)

    def test_contradictory_constraints_give_nothing_once_the_cap_is_spent(self, rng):
        start = time.perf_counter()
        assert sample_feasible_points(contradictory_problem(), rng, 1) == []
        assert time.perf_counter() - start < 1.0


class TestAssertCovariance:
    def test_accepts_good(self, rng):
        assert_covariance(random_psd(rng, 3, trace=2.0), 2.0)

    def test_rejects_bad_trace(self, rng):
        with pytest.raises(AssertionError, match="trace"):
            assert_covariance(random_psd(rng, 3, trace=2.0), 1.0)

    def test_rejects_indefinite(self):
        with pytest.raises(AssertionError, match="not PSD"):
            assert_covariance(np.diag([2.0, -1.0]).astype(complex), 1.0)
