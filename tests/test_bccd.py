import dataclasses
import math

import numpy as np
import pytest

from pimin.bccd import (IDLE_ROUNDOFF, STALL_TOL, STALL_WINDOW, BccdConfig, _idle_rule,
                        bccd_solve, init_rss, relative_change, seeded_start)
from pimin.errors import DimensionError, DomainError
from pimin.linalg import hermitian_evd
from pimin.metrics import power_breakdown
from pimin.rcg import (BeamformerState, RcgConfig, precompute_forms, random_state,
                       rcg_solve)
from pimin.scenario import desk_bench_scenario, desk_scenario, generate_channels
from pimin.sysmodel import beam_products, build_effective_channels

from helpers import assert_covariance, count_calls, reference_bccd_solve, tiny_scenario


def desk_channels(scen, seed=3):
    return generate_channels(scen, np.random.default_rng(seed))


def pi_power(ch, scen, phi, w, r):
    """The interference power and block at one point, read as ``bccd_solve`` reads them."""
    eff = build_effective_channels(ch, phi)
    powers = power_breakdown(beam_products(eff, w), r, scen.sigma_r2_W, scen.sigma_c2_W,
                             scen.M_r, hermitian_evd(r))
    return powers.p_pi, eff.Ac_block


class TestInitRss:
    def test_scalar_dimension(self, rng):
        r = init_rss(1, 2.5, rng)
        assert abs(r[0, 0].real - 2.5) <= 1e-12
        assert_covariance(r, 2.5)

    def test_trace_and_psd(self, rng):
        for dim in (2, 5, 8):
            r = init_rss(dim, 3.0, rng)
            assert abs(np.trace(r).real - 3.0) <= 1e-12 * 3.0
            assert np.linalg.eigvalsh(r).min() >= -1e-12
            assert_covariance(r, 3.0)

    def test_the_draw_is_the_budget_scaled_gram_matrix_of_one_stream(self):
        # the real parts, then the imaginary parts, of one generator's draws
        r = init_rss(3, 2.0, np.random.default_rng(4))
        gen = np.random.default_rng(4)
        u = gen.random((3, 3)) + 1j * gen.random((3, 3))
        gram = u.conj().T @ u
        np.testing.assert_allclose(r, 2.0 / np.trace(gram).real * gram, rtol=1e-12, atol=0)

    def test_different_seeds_differ(self):
        a = init_rss(4, 1.0, np.random.default_rng(1))
        b = init_rss(4, 1.0, np.random.default_rng(2))
        assert np.linalg.norm(a - b) > 1e-3


class TestRelativeChange:
    def test_floor_suppresses_noise_at_zero(self):
        assert relative_change(1e-30, 2e-30, floor=1e-12) <= 1e-17

    def test_plain_ratio_above_floor(self):
        assert abs(relative_change(1.1, 1.0, floor=1e-12) - 0.1) <= 1e-12


class TestBccdSolve:
    def test_no_interference_converges_immediately(self):
        scen = desk_scenario(seed=4)
        ch = desk_channels(scen)
        ch = dataclasses.replace(ch, gamma_DPI=0j, gamma_RPI=0j)
        cfg = BccdConfig(n_iter=20)
        out = bccd_solve(cfg, scen, seeded_start(4, scen, ch))
        assert all(h.p_pi == 0.0 for h in out.history)
        assert out.converged
        assert out.outer_iterations == STALL_WINDOW + 1

    def test_single_outer_iteration(self):
        scen = desk_scenario(seed=5)
        cfg = BccdConfig(n_iter=1)
        out = bccd_solve(cfg, scen, seeded_start(5, scen, desk_channels(scen)))
        assert out.outer_iterations == 1
        assert not out.converged

    def test_descends_from_initial_point(self):
        scen = desk_scenario(seed=6)
        ch = desk_channels(scen)
        cfg = BccdConfig(n_iter=20)
        out = bccd_solve(cfg, scen, seeded_start(6, scen, ch))
        # rebuild the seeded starting point the solver used
        gen = np.random.default_rng(6)
        r0 = init_rss(scen.L * scen.M_t, scen.P_B, gen)
        x0 = random_state(scen.L * scen.M, scen.N, gen)
        p_start = pi_power(ch, scen, x0.phi, x0.w, r0)[0]
        assert out.final_powers.p_pi <= p_start

    @pytest.mark.parametrize("setup", ["joint", "no_ris"])
    def test_history_records_are_the_power_breakdowns(self, monkeypatch, setup):
        # each record is what power_breakdown gave at its iteration, obstacle
        # and noise powers included; the tail repeats the last record, and the
        # final powers are that record itself
        import pimin.bccd
        scen = desk_scenario(seed=2, obstacles=((40.0, 60.0, 1.0),))
        start, kwargs = method_setup(setup, scen, desk_channels(scen, 2), 2)
        seen = []
        breakdown = pimin.bccd.power_breakdown

        def spy(*args, **kw):
            seen.append(breakdown(*args, **kw))
            return seen[-1]

        monkeypatch.setattr(pimin.bccd, "power_breakdown", spy)
        out = bccd_solve(BccdConfig(n_iter=8), scen, start, **kwargs)
        assert out.final_powers is out.history[-1]
        assert 1 <= len(seen) <= len(out.history)
        for rec, powers in zip(out.history, seen):
            assert rec.p_obs > 0.0 and rec.p_noise > 0.0
            assert vars(rec) == dict(vars(powers), sdp_status=rec.sdp_status)
        assert all(rec is out.history[len(seen) - 1] for rec in out.history[len(seen):])

    def test_stall_criterion_on_history(self):
        scen = desk_scenario(seed=7)
        cfg = BccdConfig(n_iter=20)
        out = bccd_solve(cfg, scen, seeded_start(7, scen, desk_channels(scen)))
        assert out.converged
        floor = 1e-3 * scen.sigma_r2_W * scen.L * scen.M
        pis = [h.p_pi for h in out.history]
        tail = [relative_change(pis[-k], pis[-k - 1], floor) for k in (1, 2, 3)]
        assert max(tail) < STALL_TOL

    def test_constraints_met_when_optimal(self):
        scen = desk_scenario(seed=8)
        cfg = BccdConfig(n_iter=10)
        out = bccd_solve(cfg, scen, seeded_start(8, scen, desk_channels(scen)))
        final = out.history[-1]
        if final.sdp_status == "optimal":
            assert final.comm_snr_db >= scen.gamma_comm_dB - 0.01
            assert final.sndr_db >= scen.gamma_sense_dB - 0.01

    def test_reproducible(self):
        scen = desk_scenario(seed=9)
        ch = desk_channels(scen)
        cfg = BccdConfig(n_iter=6)
        a = bccd_solve(cfg, scen, seeded_start(9, scen, ch))
        b = bccd_solve(cfg, scen, seeded_start(9, scen, ch))
        assert np.max(np.abs(a.w - b.w)) <= 1e-12
        assert np.max(np.abs(a.phi - b.phi)) <= 1e-12
        assert np.max(np.abs(a.R_ss - b.R_ss)) <= 1e-12
        assert [h.p_pi for h in a.history] == [h.p_pi for h in b.history]

    def test_final_covariance_invariants(self):
        scen = desk_scenario(seed=10)
        cfg = BccdConfig(n_iter=8)
        out = bccd_solve(cfg, scen, seeded_start(10, scen, desk_channels(scen)))
        assert_covariance(out.R_ss, scen.P_B)

    def test_unit_modulus_outputs(self):
        scen = desk_scenario(seed=11)
        cfg = BccdConfig(n_iter=5)
        out = bccd_solve(cfg, scen, seeded_start(11, scen, desk_channels(scen)))
        assert np.max(np.abs(np.abs(out.w) - 1.0)) <= 1e-12
        assert np.max(np.abs(np.abs(out.phi) - 1.0)) <= 1e-12

    def test_infeasible_keeps_previous_covariance(self):
        # a sensing target far beyond the echo budget forces infeasibility,
        # so the covariance never moves off its seeded start
        scen = desk_scenario(seed=12, gamma_sense_dB=60.0)
        ch = desk_channels(scen)
        cfg = BccdConfig(n_iter=4)
        out = bccd_solve(cfg, scen, seeded_start(12, scen, ch))
        assert all(h.sdp_status == "infeasible" for h in out.history)
        gen = np.random.default_rng(12)
        r0 = init_rss(scen.L * scen.M_t, scen.P_B, gen)
        assert np.max(np.abs(out.R_ss - r0)) <= 1e-15

    def test_kept_covariance_is_decomposed_once(self, monkeypatch):
        # both SDP calls are certified infeasible, so the covariance, its
        # eigendecomposition and its forms serve both outer iterations
        import pimin.bccd
        scen = desk_bench_scenario(seed=1)
        ch = generate_channels(scen, np.random.default_rng(1))
        evds = count_calls(monkeypatch, pimin.bccd, "hermitian_evd")
        forms = count_calls(monkeypatch, pimin.bccd, "precompute_forms")
        out = bccd_solve(BccdConfig(n_iter=2), scen, seeded_start(1, scen, ch))
        assert [h.sdp_status for h in out.history] == ["infeasible", "infeasible"]
        assert (len(evds), len(forms)) == (1, 1)

    def test_one_eigendecomposition_per_covariance(self, monkeypatch):
        # every optimal SDP answer is a new covariance: one decomposition each,
        # forms only for the solves that run on one
        # (the SDP nulls the interference, so the restart on the new forms is
        # certified idle: iterations 2 and 3 repeat iteration 1, and neither
        # builds forms nor solves anything)
        import pimin.bccd
        scen = desk_scenario(seed=2)
        evds = count_calls(monkeypatch, pimin.bccd, "hermitian_evd")
        forms = count_calls(monkeypatch, pimin.bccd, "precompute_forms")
        sdp_calls = count_calls(monkeypatch, pimin.bccd, "solve_sdp")
        solves = count_calls(monkeypatch, pimin.bccd, "rcg_solve")
        out = bccd_solve(BccdConfig(n_iter=3), scen, seeded_start(2, scen, desk_channels(scen)))
        assert [h.sdp_status for h in out.history] == ["optimal"] * 3
        assert (len(evds), len(forms), len(sdp_calls), len(solves)) == (2, 1, 1, 1)

    @pytest.mark.parametrize("make_scen, cfg, solved", [
        (desk_bench_scenario, BccdConfig(n_iter=4, rcg=RcgConfig(max_iters=3, grad_tol=0.0)),
         4),
        (desk_scenario, BccdConfig(n_iter=3), 1),
    ], ids=["moving", "fixed_point"])
    def test_one_beam_product_record_per_solved_iteration(self, monkeypatch, make_scen, cfg,
                                                          solved):
        # both consumers of a solved iteration read the one record formed for it
        import pimin.bccd
        scen = make_scen(seed=2)
        start = seeded_start(2, scen, desk_channels(scen))
        beams = count_calls(monkeypatch, pimin.bccd, "beam_products")
        assembled = first_args(monkeypatch, pimin.bccd, "assemble_p2")
        evaluated = first_args(monkeypatch, pimin.bccd, "power_breakdown")
        out = bccd_solve(cfg, scen, start)
        assert out.outer_iterations == cfg.n_iter and len(beams) == solved
        for seen in (assembled, evaluated):
            assert len(seen) == solved and all(a is b for a, b in zip(seen, beams))

    def test_frozen_phases(self):
        scen = desk_scenario(seed=13)
        ch = desk_channels(scen)
        phi = np.ones(scen.N, dtype=complex)
        cfg = BccdConfig(n_iter=4)
        out = bccd_solve(cfg, scen, seeded_start(13, scen, ch), frozen_phi=phi)
        assert np.array_equal(out.phi, phi)

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_design_does_not_depend_on_power_units(self, seed):
        # the transmit power and both noise floors move by the same number of
        # dB, so every ratio is physically unchanged and so must the design be
        base = desk_bench_scenario(seed=seed)
        cfg = BccdConfig(n_iter=8)
        ratios = []
        for shift in (-30.0, 0.0, 30.0, 60.0):
            scen = dataclasses.replace(base, P_T_dBm=base.P_T_dBm + shift,
                                       sigma_c2_dBm=base.sigma_c2_dBm + shift,
                                       sigma_r2_dBm=base.sigma_r2_dBm + shift)
            out = bccd_solve(cfg, scen, seeded_start(seed, scen, desk_channels(scen, seed)))
            p = out.final_powers
            ratios.append((p.sndr_db, p.comm_snr_db, p.dr_db))
        for shifted in ratios[1:]:
            assert np.allclose(shifted, ratios[0], rtol=0.0, atol=0.01), ratios

    @pytest.mark.parametrize("bad, error", [
        (lambda n: np.ones(n + 1), DimensionError),
        (lambda n: np.ones((n, 1)), DimensionError),
        (lambda n: np.full(n, 1.5), DomainError),
        (lambda n: np.r_[np.nan, np.ones(n - 1)], DomainError),
        (lambda n: np.r_[np.inf, np.ones(n - 1)], DomainError),
    ], ids=["long", "column", "not_unit", "nan", "inf"])
    def test_bad_frozen_phases_rejected_before_any_block(self, monkeypatch, bad, error):
        import pimin.bccd
        scen = desk_scenario(seed=1)
        start = seeded_start(1, scen, desk_channels(scen, 1))
        solves = count_calls(monkeypatch, pimin.bccd, "rcg_solve")
        with pytest.raises(error, match="phase vector"):
            bccd_solve(BccdConfig(n_iter=2), scen, start, frozen_phi=bad(scen.N))
        assert not solves

    def test_inner_histories_monotone(self, monkeypatch):
        # the manifold solver's guarantee carries into every outer iteration
        import pimin.bccd
        scen = tiny_scenario()
        ch = generate_channels(scen, np.random.default_rng(20))
        solves = count_calls(monkeypatch, pimin.bccd, "rcg_solve")
        out = bccd_solve(BccdConfig(n_iter=3), scen, seeded_start(20, scen, ch))
        # the restart after the first SDP is certified idle, so the second
        # and third iterations repeat the first without solving again
        assert len(solves) == 1
        assert out.history[2] == out.history[1] == out.history[0]
        for res in solves:
            assert np.all(np.diff(res.history) <= 1e-12)


def first_args(monkeypatch, module, name):
    """Wrap ``module.name`` so that each call appends its first argument to the returned list."""
    seen = []
    fn = getattr(module, name)

    def wrapper(first, *args, **kwargs):
        seen.append(first)
        return fn(first, *args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return seen


def method_setup(name, scen, ch, seed):
    """The seeded start and ``bccd_solve`` keywords of one of the four method set-ups."""
    start = seeded_start(seed, scen, ch)
    return start, {
        "joint": {},
        "frozen_random": {"frozen_phi": start.x.phi},
        "frozen_ones": {"frozen_phi": np.ones(scen.N, dtype=np.complex128)},
        "no_ris": {"frozen_phi": np.zeros(scen.N, dtype=np.complex128)},
    }[name]


SETUPS = ["joint", "frozen_random", "frozen_ones", "no_ris"]


def assert_same_result(out, ref):
    """Bit-identical outputs, records, convergence flag and final powers."""
    assert np.array_equal(out.w, ref.w)
    assert np.array_equal(out.phi, ref.phi)
    assert np.array_equal(out.R_ss, ref.R_ss)
    assert out.history == ref.history
    assert out.converged == ref.converged
    assert out.final_powers == ref.final_powers


class TestFixedPointShortCircuit:
    """``bccd_solve`` returns what the loop that runs every block returns."""

    @pytest.mark.parametrize("make_scen", [desk_scenario, desk_bench_scenario])
    @pytest.mark.parametrize("setup", SETUPS)
    # with a cap of 5 steps, desk_bench_scenario runs move for one to four
    # outer iterations before a solve takes no step
    @pytest.mark.parametrize("cfg", [BccdConfig(n_iter=1), BccdConfig(n_iter=2),
                                     BccdConfig(n_iter=20),
                                     BccdConfig(rcg=RcgConfig(max_iters=0)),
                                     BccdConfig(rcg=RcgConfig(max_iters=5))],
                             ids=["n_iter1", "n_iter2", "n_iter20", "rcg_max_iters0",
                                  "rcg_max_iters5"])
    def test_bit_identical_to_reference(self, make_scen, setup, cfg):
        for seed in range(10):
            scen = make_scen(seed=seed)
            start, kwargs = method_setup(setup, scen, desk_channels(scen, seed), seed)
            assert_same_result(bccd_solve(cfg, scen, start, **kwargs),
                               reference_bccd_solve(cfg, scen, start.ch, seed, **kwargs))

    @pytest.mark.parametrize("setup", SETUPS)
    def test_moving_iterate_solves_every_iteration(self, monkeypatch, setup):
        # three capped steps with no gradient tolerance: every solve moves
        # the iterate, so the short-circuit never fires and every outer
        # iteration solves the SDP
        import pimin.bccd
        for seed in range(10):
            scen = desk_bench_scenario(seed=seed)
            start, kwargs = method_setup(setup, scen, desk_channels(scen, seed), seed)
            cfg = BccdConfig(n_iter=6, rcg=RcgConfig(max_iters=3, grad_tol=0.0))
            solves = count_calls(monkeypatch, pimin.bccd, "rcg_solve")
            sdps = count_calls(monkeypatch, pimin.bccd, "solve_sdp")
            out = bccd_solve(cfg, scen, start, **kwargs)
            monkeypatch.undo()
            assert [r.iterations for r in solves] == [3] * cfg.n_iter
            assert len(sdps) == cfg.n_iter
            assert_same_result(out, reference_bccd_solve(cfg, scen, start.ch, seed, **kwargs))


class TestIdleRestartSkips:
    """The restart solves that ``bccd_solve`` leaves out could not have moved."""

    def test_kept_covariance_after_grad_tol_stop(self, monkeypatch):
        # every SDP is certified infeasible and the first solve stops at
        # grad_tol, so the second solve would run the same kernels on the same
        # forms from the same x: it is not run, and the rows do not change
        import pimin.bccd
        for seed in range(4):
            scen = desk_bench_scenario(seed=seed)
            ch = desk_channels(scen, seed)
            cfg = BccdConfig(n_iter=3)
            solves = count_calls(monkeypatch, pimin.bccd, "rcg_solve")
            out = bccd_solve(cfg, scen, seeded_start(seed, scen, ch))
            monkeypatch.undo()
            assert [h.sdp_status for h in out.history] == ["infeasible"] * 3
            assert [r.stop_reason for r in solves] == ["grad_tol"]
            assert_same_result(out, reference_bccd_solve(cfg, scen, ch, seed))

    @pytest.mark.parametrize("setup", SETUPS)
    def test_nulled_sdp_certifies_idle_restart(self, monkeypatch, setup):
        # the SDP nulls the interference, so the bound puts the restart's
        # first gradient below the tolerance: no forms, no second solve
        import pimin.bccd
        for seed in range(4):
            scen = desk_scenario(seed=seed)
            cfg = BccdConfig(n_iter=4)
            forms = count_calls(monkeypatch, pimin.bccd, "precompute_forms")
            solves = count_calls(monkeypatch, pimin.bccd, "rcg_solve")
            start, kwargs = method_setup(setup, scen, desk_channels(scen, seed), seed)
            out = bccd_solve(cfg, scen, start, **kwargs)
            monkeypatch.undo()
            assert out.history[0].sdp_status == "optimal"
            assert (len(forms), len(solves)) == (1, 1)
            assert_same_result(out, reference_bccd_solve(cfg, scen, start.ch, seed, **kwargs))

    @pytest.mark.parametrize("no_interference", [False, True])
    @pytest.mark.parametrize("setup", ["joint", "frozen_random"])
    def test_zero_grad_tol_never_skips_after_optimal_sdp(self, monkeypatch, setup,
                                                         no_interference):
        # without interference the bound is 0, but even a 0 bound does not
        # skip a restart whose tolerance is 0
        import pimin.bccd
        for seed in range(4):
            scen = desk_scenario(seed=seed)
            ch = desk_channels(scen, seed)
            if no_interference:
                ch = dataclasses.replace(ch, gamma_DPI=0j, gamma_RPI=0j)
            start, kwargs = method_setup(setup, scen, ch, seed)
            cfg = BccdConfig(n_iter=3, rcg=RcgConfig(max_iters=15, grad_tol=0.0))
            solves = count_calls(monkeypatch, pimin.bccd, "rcg_solve")
            out = bccd_solve(cfg, scen, start, **kwargs)
            monkeypatch.undo()
            assert out.history[0].sdp_status == "optimal"
            assert len(solves) >= 2
            assert_same_result(out, reference_bccd_solve(cfg, scen, start.ch, seed, **kwargs))

    @staticmethod
    def least_skipping_tol(p_pi, ac, ch, scen, optimize_phi):
        """The least ``grad_tol`` at which the rule skips, by bisection."""
        lo, hi = 0.0, 1.0
        while not _idle_rule(ch, scen, optimize_phi, hi)(p_pi, ac):
            lo, hi = hi, 2.0 * hi
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (lo, mid) if _idle_rule(ch, scen, optimize_phi, mid)(p_pi, ac) \
                else (mid, hi)
        return hi

    @pytest.mark.parametrize("make_scen", [desk_scenario, desk_bench_scenario])
    @pytest.mark.parametrize("phases", ["joint", "frozen", "off"])
    def test_bound_holds_away_from_nulling(self, rng, make_scen, phases):
        # at random points and covariances the first gradient is far from 0;
        # wherever the rule skips, the gradient the restart would see is at
        # most half the tolerance, with the RIS elements off too
        optimize_phi = phases == "joint"
        for seed in range(6):
            scen = make_scen(seed=seed)
            ch = desk_channels(scen, seed)
            x = random_state(scen.L * scen.M, scen.N, rng)
            r = init_rss(scen.L * scen.M_t, scen.P_B, rng)
            phi = np.zeros(scen.N) if phases == "off" else x.phi
            p_pi, ac = pi_power(ch, scen, phi, x.w, r)
            forms = precompute_forms(hermitian_evd(r), ch)
            if not optimize_phi:
                forms, x = forms.fold(phi), BeamformerState(x=x.w, num_bf=x.num_bf)
            g = rcg_solve(forms, x, RcgConfig(max_iters=0)).grad_norm
            assert 0.0 < g <= 0.5 * self.least_skipping_tol(p_pi, ac, ch, scen, optimize_phi)

    def test_phase_term_covers_a_reflection_nulled_point(self):
        # no direct path, and two equal reflected paths that cancel but for a
        # 1e-3 rad offset: ||Ac|| is of order 1e-3 and e of order 1e-3, so the
        # radar gradient is of order 1e-6 while the phase gradient is of order
        # 1e-3; only the phase term of the bound covers it
        scen = tiny_scenario(M_t=1, M=1, N_x=2, N_y=1, L=1)
        ones = np.ones((2, 1), dtype=np.complex128)
        ch = dataclasses.replace(desk_channels(scen), gamma_DPI=0j, G_rR=ones, H_cR=ones)
        x = BeamformerState(x=np.array([1.0, np.exp(1e-3j), -1.0]), num_bf=1)
        r = np.full((1, 1), scen.P_B, dtype=np.complex128)
        p_pi, ac = pi_power(ch, scen, x.phi, x.w, r)
        g = rcg_solve(precompute_forms(hermitian_evd(r), ch), x,
                      RcgConfig(max_iters=0)).grad_norm
        assert g > 1e2 * 2.0 * math.sqrt(scen.P_B * p_pi) * np.linalg.norm(ac)
        assert g <= 0.5 * self.least_skipping_tol(p_pi, ac, ch, scen, True)

    @pytest.mark.parametrize("optimize_phi", [True, False])
    def test_roundoff_allowance_sets_the_threshold_at_zero_power(self, rng, optimize_phi):
        # at p_pi = 0 the rule skips once grad_tol reaches 2 K allowance, with
        # the bound K and the round-off allowance of _idle_rule's docstring
        scen = desk_scenario(seed=2, P_B_dB=3.0)
        ch = desk_channels(scen, 2)
        ac = build_effective_channels(ch, random_state(scen.L * scen.M, scen.N, rng).phi).Ac_block
        lm = scen.L * scen.M
        ris = abs(ch.gamma_RPI) * np.linalg.norm(ch.H_cR) * np.linalg.norm(ch.G_rR)
        k = 2.0 * math.sqrt(scen.P_B) * (np.linalg.norm(ac) + optimize_phi * ris * math.sqrt(lm))
        a = abs(ch.gamma_DPI) * np.linalg.norm(ch.H_DPI) + ris
        allowance = (IDLE_ROUNDOFF * (scen.L * scen.M_t + lm + scen.N) * np.finfo(float).eps
                     * math.sqrt(scen.P_B * lm) * a)
        for factor, idle in ((1.0 - 1e-9, False), (1.0 + 1e-9, True)):
            rule = _idle_rule(ch, scen, optimize_phi, factor * 2.0 * k * allowance)
            assert rule(0.0, ac) == idle

    def test_shared_start_is_read_only(self):
        scen = desk_scenario(seed=1)
        start = seeded_start(1, scen, desk_channels(scen, 1))
        bccd_solve(BccdConfig(n_iter=2), scen, start)
        bccd_solve(BccdConfig(n_iter=2), scen, start, frozen_phi=np.zeros(scen.N))
        for arr in (start.R_ss, start.evd.eigenvalues, start.evd.eigenvectors,
                    start.evd.clipped_eigenvalues, start.x.x, start.forms.b, start.forms.c):
            with pytest.raises(ValueError):
                arr[...] = 0

    def test_start_of_another_scenario_rejected(self):
        scen = desk_scenario(seed=1)
        start = seeded_start(1, scen, desk_channels(scen, 1))
        with pytest.raises(DimensionError, match="start"):
            bccd_solve(BccdConfig(n_iter=1), desk_scenario(seed=1, L=scen.L + 1), start)


class TestBccdConfig:

    def test_sdp_cap_of_one_accepted(self):
        assert BccdConfig(sdp_max_iters=1).sdp_max_iters == 1
