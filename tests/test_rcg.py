import numpy as np
import pytest

from pimin import linalg, rcg
from pimin.bccd import init_rss
from pimin.errors import DimensionError
from pimin.linalg import hermitian_evd
from pimin.rcg import (BeamformerState, PrecomputedForms, RcgConfig, euclid_grad,
                       objective, precompute_forms, random_state, rcg_solve)
from pimin.scenario import desk_bench_scenario, generate_channels
from pimin.selfcheck import (cplx, gradient_error, manifold_errors, random_forms, random_psd,
                             reduced_objective_error)

from helpers import dense_forms, random_unit_modulus, reference_lm, tiny_scenario


def tangent(x, v):
    """``v`` projected onto the tangent space at ``x``, as the loop projects."""
    return rcg._project(x.x, x.x.conj(), v)


def zero_forms(terms=2, lm=3, n=2):
    return PrecomputedForms(b=np.zeros((terms, lm), dtype=complex),
                            c=np.zeros((terms, lm, n), dtype=complex))


class TestPrecomputeForms:
    def test_zero_covariance(self, rng):
        scen = tiny_scenario()
        ch = generate_channels(scen, np.random.default_rng(1))
        dim = scen.L * scen.M_t
        forms = precompute_forms(hermitian_evd(np.zeros((dim, dim), dtype=complex)), ch)
        assert forms.num_terms == dim
        assert not np.any(forms.b) and not np.any(forms.c)

    def test_basis_vector_case(self):
        from pimin.linalg import EvdResult
        scen = tiny_scenario(L=1)
        ch = generate_channels(scen, np.random.default_rng(2))
        evd = EvdResult(eigenvalues=np.array([1.0] + [0.0] * (scen.M_t - 1)),
                        eigenvectors=np.eye(scen.M_t, dtype=complex))
        forms = precompute_forms(evd, ch)
        assert np.allclose(forms.b[0], ch.gamma_DPI * ch.H_DPI[:, 0])
        expect_c = ch.gamma_RPI * (ch.G_rR.conj().T * (ch.H_cR[:, 0])[None, :])
        assert np.max(np.abs(forms.c[0] - expect_c)) <= 1e-12

    @pytest.mark.parametrize("n_samples", [1, 2, 3])
    def test_dense_kron_oracle_rank_deficient(self, rng, n_samples):
        scen = tiny_scenario(L=n_samples, M_t=3)
        ch = generate_channels(scen, np.random.default_rng(10 + n_samples))
        dim = n_samples * scen.M_t
        basis = cplx(rng, dim, 2)
        evd = hermitian_evd(basis @ basis.conj().T)     # rank 2 of dim >= 3
        forms = precompute_forms(evd, ch)
        expect = dense_forms(evd, ch, n_samples)
        clipped = evd.clipped_eigenvalues == 0.0
        assert clipped.sum() == dim - 2
        assert not np.any(forms.b[clipped]) and not np.any(forms.c[clipped])
        for got, ref in ((forms.b, expect.b), (forms.c, expect.c)):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_term_count_matches_covariance_dim(self, rng):
        scen = tiny_scenario(L=3)
        ch = generate_channels(scen, np.random.default_rng(3))
        r = random_psd(rng, 3 * scen.M_t)
        forms = precompute_forms(hermitian_evd(r), ch)
        assert forms.num_terms == 3 * scen.M_t
        assert forms.c.shape == (3 * scen.M_t, 3 * scen.M, scen.N)

    def test_reduction_matches_covariance_quadratic(self, rng):
        # the eigen-reduced objective reproduces the blockwise power for any
        # random channel set, covariance and unit-modulus point
        for seed in range(8):
            scen = tiny_scenario(L=int(1 + seed % 3))
            ch = generate_channels(scen, np.random.default_rng(seed))
            assert reduced_objective_error(scen, ch, rng) <= 1e-10

    def test_reduction_oracle_sees_a_wrong_decomposition(self, monkeypatch):
        # an eigensolver that decomposes the conjugate matrix breaks the forms;
        # the oracle's reference makes no decomposition, so it must see that
        scen = tiny_scenario()
        ch = generate_channels(scen, np.random.default_rng(0))
        eigh = linalg.eigh
        monkeypatch.setattr(linalg, "eigh", lambda a: eigh(a.conj()))
        assert reduced_objective_error(scen, ch, np.random.default_rng(1)) > 1e-6


class TestObjective:
    def test_zero_forms(self, rng):
        x = random_state(3, 2, rng)
        assert objective(x, zero_forms()) == 0.0

    def test_hand_computed_single_term(self):
        forms = PrecomputedForms(b=np.array([[1.0 + 0j]]),
                                 c=np.array([[[1.0 + 0j]]]))
        x = BeamformerState(x=np.array([1.0 + 0j, 1.0 + 0j]), num_bf=1)
        assert abs(objective(x, forms) - 4.0) <= 1e-15

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionError):
            objective(random_state(2, 2, rng), zero_forms(lm=3, n=2))


class TestEuclidGrad:
    def test_zero_forms(self, rng):
        x = random_state(3, 2, rng)
        assert not np.any(euclid_grad(x, zero_forms()))

    def test_finite_difference_oracle(self, rng):
        assert gradient_error(rng, 12) <= 1e-6

    def test_small_difference_is_drawn_again(self, monkeypatch):
        # the first draw at this seed has a central difference below 1e-3, so
        # one checked draw takes two pairs of objective calls
        calls = []
        objective_fn = rcg.objective
        monkeypatch.setattr(rcg, "objective", lambda *a: calls.append(a) or objective_fn(*a))
        assert gradient_error(np.random.default_rng(11436), 1) <= 1e-6
        assert len(calls) == 4

    def test_quadratic_scaling(self, rng):
        forms = random_forms(rng, 3, 2, 2)
        x = random_state(2, 2, rng)
        g1 = euclid_grad(x, forms)
        scaled = PrecomputedForms(b=3.0 * forms.b, c=3.0 * forms.c)
        assert np.max(np.abs(euclid_grad(x, scaled) - 9.0 * g1)) <= 1e-12 * np.max(np.abs(g1))


class TestTangentOps:
    def test_radial_gradient_projects_to_zero(self, rng):
        x = random_state(3, 2, rng)
        radial = rng.standard_normal(5) * x.x
        assert np.max(np.abs(tangent(x, radial))) <= 1e-14

    def test_tangent_fixed_point(self, rng):
        x = random_state(3, 2, rng)
        v = tangent(x, cplx(rng, 5))
        assert np.max(np.abs(tangent(x, v) - v)) <= 1e-14

    def test_tangency(self, rng):
        x = random_state(4, 3, rng)
        g = tangent(x, cplx(rng, 7))
        assert np.max(np.abs(np.real(g * x.x.conj()))) <= 1e-12


class TestRcgSolve:
    def test_descent_and_monotone_history(self, rng):
        for seed in range(5):
            gen = np.random.default_rng(seed)
            forms = random_forms(gen, 4, 4, 3)
            x0 = random_state(4, 3, gen)
            out = rcg_solve(forms, x0, RcgConfig(max_iters=150))
            assert out.history[-1] <= out.history[0]
            assert np.all(np.diff(out.history) <= 1e-12)

    def test_iterate_invariants_via_callback(self, rng):
        modulus, grad_tangency, step_tangency, rise, grad_ratio = manifold_errors(
            random_forms(rng, 4, 4, 3), random_state(4, 3, rng), 80)
        assert modulus <= 1e-12
        assert grad_tangency <= 1e-10 and step_tangency <= 1e-10
        assert rise <= 1e-12
        assert grad_ratio <= 1e-8     # measured 4.4e-9

    def test_invariants_are_nan_when_no_step_is_taken(self, rng):
        # zero forms have a zero gradient: the solve stops before its first step
        assert np.isnan(manifold_errors(zero_forms(4, 4, 3), random_state(4, 3, rng), 80)).all()

    def test_single_term_grid_oracle(self):
        # scalar instance: the optimum aligns the phase product against the
        # direct term; a full phase grid bounds the attainable minimum
        for seed in range(3):
            gen = np.random.default_rng(seed)
            b = (gen.standard_normal() + 1j * gen.standard_normal())
            c = (gen.standard_normal() + 1j * gen.standard_normal())
            forms = PrecomputedForms(b=np.array([[b]]), c=np.array([[[c]]]))
            x0 = random_state(1, 1, gen)
            out = rcg_solve(forms, x0, RcgConfig(max_iters=200, grad_tol=1e-14))
            angles = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
            pw, pp = np.meshgrid(angles, angles, indexing="ij")
            vals = np.abs(np.exp(-1j * pw) * (b + c * np.exp(1j * pp))) ** 2
            assert out.history[-1] <= vals.min() + 1e-3

    def test_folded_solve_moves_only_the_radar_weights(self, rng):
        forms = random_forms(rng, 3, 3, 4)
        x0 = random_state(3, 4, rng)
        out = solve(forms, x0, RcgConfig(max_iters=60), "phases_frozen")
        assert (out.x.num_bf, out.x.dim) == (3, 3) and out.iterations > 0
        assert out.history[-1] < out.history[0]
        final = objective(stacked(out.x, x0.phi), forms)
        assert abs(final - out.history[-1]) <= 1e-12 * out.history[-1]

    def test_phase_gauge_when_reflected_terms_vanish(self, rng):
        # with no reflected coupling the objective ignores the phase block
        forms = random_forms(rng, 3, 3, 2)
        forms = PrecomputedForms(b=forms.b, c=np.zeros_like(forms.c))
        w = random_unit_modulus(rng, 3)
        f_vals = {objective(BeamformerState(
            x=np.concatenate([w, random_unit_modulus(rng, 2)]), num_bf=3), forms)
            for _ in range(5)}
        assert max(f_vals) - min(f_vals) == 0.0

    def test_exactly_singular_step_raises(self, rng, monkeypatch):
        # a zero column of b: that radar weight moves no residual, so its row of
        # Re(J^H J) is zero, and with no damping the step system is singular
        b = cplx(rng, 3, 3)
        b[:, 1] = 0.0
        forms = PrecomputedForms(b=b, c=np.empty((3, 3, 0), dtype=complex))
        monkeypatch.setattr(rcg, "DAMPING_INIT", 0.0)
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            rcg_solve(forms, random_state(3, 0, rng), RcgConfig())


class TestRcgCounters:
    @pytest.mark.parametrize("grad_tol", [None, 0.0])    # a zero gradient meets a zero tol
    def test_zero_forms_stop_at_grad_tol_without_iterating(self, rng, grad_tol):
        x0 = random_state(3, 2, rng)
        out = rcg_solve(zero_forms(), x0, RcgConfig(grad_tol=grad_tol))
        assert out.stop_reason == "grad_tol" and np.array_equal(out.x.x, x0.x)
        assert out.iterations == 0 and out.history.tolist() == [0.0]
        assert (out.objective_evals, out.backtracks) == (1, 0)

    def test_single_iteration_budget(self, rng):
        forms = random_forms(rng, 3, 4, 3)
        out = rcg_solve(forms, random_state(4, 3, rng), RcgConfig(max_iters=1))
        assert out.stop_reason == "max_iters"
        assert out.iterations == 1

    def test_stalled_when_no_step_is_admissible(self):
        # with a zero tolerance the search runs out of resolution first
        gen = np.random.default_rng(0)
        forms = random_forms(gen, 3, 3, 2)
        cfg = RcgConfig(max_iters=5000, grad_tol=0.0)
        out = rcg_solve(forms, random_state(3, 2, gen), cfg)
        assert out.stop_reason == "stalled"
        assert out.iterations < cfg.max_iters and out.grad_norm > 0.0

    @pytest.mark.parametrize("seed", range(5))
    def test_a_run_of_rejections_ends_stalled(self, seed, monkeypatch):
        # every trial is worse than the start, so each one is rejected; the
        # damping grows by 2, 4, 8, ... until the step no longer moves x, a
        # few dozen rejections at most, so 200 evaluations mean the run of
        # rejections never ends
        kernels = rcg._kernels

        def worse_kernels(forms):
            evaluate, *rest = kernels(forms)
            evaluations = []

            def worse(x):
                evaluations.append(x)
                if len(evaluations) > 200:
                    raise RuntimeError("the run of rejected trials does not end")
                f, terms = evaluate(x)
                return (f if len(evaluations) == 1 else f + 1e9), terms

            return (worse, *rest)

        monkeypatch.setattr(rcg, "_kernels", worse_kernels)
        gen = np.random.default_rng(seed)
        out = rcg_solve(random_forms(gen, 3, 3, 2), random_state(3, 2, gen), RcgConfig())
        assert (out.stop_reason, out.iterations) == ("stalled", 0)
        assert 0 < out.backtracks <= 20

    def test_every_evaluation_is_the_start_a_step_or_a_backtrack(self, rng, monkeypatch):
        # every call of the solver's objective kernel is counted where it runs
        evaluations = []
        kernels = rcg._kernels

        def counted_kernels(forms):
            evaluate, *rest = kernels(forms)

            def counted(x):
                evaluations.append(x)
                return evaluate(x)

            return (counted, *rest)

        monkeypatch.setattr(rcg, "_kernels", counted_kernels)
        total_backtracks = 0
        for max_iters in (0, 1, 7, 60):
            for kind in ("none", "phases_frozen"):
                forms = random_forms(rng, 3, 3, 2)
                evaluations.clear()
                out = solve(forms, random_state(3, 2, rng), RcgConfig(max_iters=max_iters),
                            kind)
                assert out.objective_evals == len(evaluations)
                assert out.objective_evals == out.iterations + out.backtracks + 1
                total_backtracks += out.backtracks
        assert total_backtracks > 0


class TestFrozenPhasePath:
    def test_fold_keeps_the_objective(self):
        for seed in range(6):
            gen = np.random.default_rng(seed)
            lm, n = int(gen.integers(1, 6)), int(gen.integers(1, 6))
            forms = random_forms(gen, int(gen.integers(1, 5)), lm, n)
            x = random_state(lm, n, gen)
            folded = forms.fold(x.phi)
            assert folded.c.shape == (forms.num_terms, lm, 0)
            full = objective(x, forms)
            assert abs(objective(radar_only(x), folded) - full) <= 1e-12 * full

    def test_fold_keeps_the_radar_gradient(self):
        # the folded problem's gradient is the radar part of the full one
        for seed in range(6):
            gen = np.random.default_rng(seed)
            lm, n = int(gen.integers(1, 6)), int(gen.integers(0, 6))
            forms = random_forms(gen, int(gen.integers(1, 5)), lm, n)
            x = random_state(lm, n, gen)
            full = euclid_grad(x, forms)[:lm]
            folded = euclid_grad(radar_only(x), forms.fold(x.phi))
            assert np.max(np.abs(folded - full)) <= 1e-12 * np.max(np.abs(full))

    def test_fold_without_phases_keeps_b(self, rng):
        forms = random_forms(rng, 3, 4, 0)
        folded = forms.fold(np.empty(0, dtype=complex))
        assert np.array_equal(folded.b, forms.b) and folded.c.shape == (3, 4, 0)

    def test_fold_with_every_element_off_keeps_b(self, rng):
        # zero coefficients add exact zeros: the no-RIS forms are b itself
        forms = random_forms(rng, 3, 4, 5)
        folded = forms.fold(np.zeros(5, dtype=complex))
        assert np.array_equal(folded.b, forms.b) and folded.c.shape == (3, 4, 0)

    def test_history_is_the_objective_at_the_iterates(self, rng):
        forms = random_forms(rng, 4, 4, 3)
        x0 = random_state(4, 3, rng)
        values = []
        out = solve(forms, x0, RcgConfig(max_iters=30), "phases_frozen",
                    callback=lambda x, g, d: values.append(objective(stacked(x, x0.phi), forms)))
        assert len(values) == out.iterations > 0
        assert np.allclose(out.history[1:], values, rtol=1e-12, atol=0.0)

    def test_iterate_invariants_via_callback(self, rng):
        # test_history_is_the_objective_at_the_iterates pins the iterates'
        # length: their stacked state must have the forms' dimension
        forms = random_forms(rng, 4, 4, 3)
        x0 = random_state(4, 3, rng)
        modulus, grad_tangency, step_tangency, rise, grad_ratio = manifold_errors(
            forms.fold(x0.phi), radar_only(x0), 80)
        assert modulus <= 1e-12
        assert grad_tangency <= 1e-10 and step_tangency <= 1e-10
        assert rise <= 1e-12
        assert grad_ratio <= 1e-8     # measured 4.2e-9


def radar_only(x):
    """The radar weights of ``x`` alone, the state of a solve with its phases folded."""
    return BeamformerState(x=x.w, num_bf=x.num_bf)


def stacked(x, phi):
    """The stacked state of radar weights ``x`` and phases ``phi``."""
    return BeamformerState(x=np.concatenate([x.x, phi]), num_bf=x.num_bf)


def solve(forms, x0, cfg, kind, callback=None):
    """``rcg_solve`` on every coordinate, or, for ``"phases_frozen"``, on the
    forms folded at ``x0``'s phases from its radar weights alone."""
    if kind == "phases_frozen":
        forms, x0 = forms.fold(x0.phi), radar_only(x0)
    return rcg_solve(forms, x0, cfg, callback=callback)


def loop_mask(kind, lm, n):
    """No mask, or every phase frozen: the reference loop's ``free`` for ``kind``."""
    return None if kind == "none" else np.arange(lm + n) < lm


def loop_problem(terms, lm, n, kind, draw=0):
    gen = np.random.default_rng(100 * terms + 10 * lm + n + 1000 * draw)
    return random_forms(gen, terms, lm, n), random_state(lm, n, gen), loop_mask(kind, lm, n)


def full_state(x, x0, kind):
    """An iterate of ``solve`` with ``x0``'s phases stacked back when they were folded."""
    return stacked(x, x0.phi) if kind == "phases_frozen" else x


# Stops well above the objective's round-off, where a reassociated sum can flip
# a trial's acceptance and two exact-arithmetic-equal runs part ways.
LOOP_CFG = RcgConfig(max_iters=60, grad_tol=1e-4)
LOOP_SHAPES = [(1, 1, 1), (3, 4, 3), (2, 5, 2), (4, 3, 6)]


def moves(out, lm, kind):
    # with one radar weight and frozen phases the objective is |t|^2, a constant
    return out.iterations > 0 or (lm == 1 and kind == "phases_frozen")


@pytest.mark.parametrize("kind", ["none", "phases_frozen"])
@pytest.mark.parametrize("terms,lm,n", LOOP_SHAPES)
class TestLoopAgainstWrappers:
    """The loop's private kernels against the validating public functions."""

    def test_callback_gradient_is_the_riemannian_gradient(self, terms, lm, n, kind):
        # with the phases folded, the gradient is the radar part of the full one
        forms, x0, _ = loop_problem(terms, lm, n, kind)
        errors = []

        def watch(x, g, d):
            full = full_state(x, x0, kind)
            ref = tangent(full, euclid_grad(full, forms))[:x.dim]
            errors.append(np.max(np.abs(g - ref)) / np.max(np.abs(ref)))

        out = solve(forms, x0, LOOP_CFG, kind, callback=watch)
        assert len(errors) == out.iterations and moves(out, lm, kind)
        assert max(errors, default=0.0) <= 1e-12

    def test_history_is_the_objective_at_the_iterates(self, terms, lm, n, kind):
        forms, x0, _ = loop_problem(terms, lm, n, kind)
        values = []
        out = solve(forms, x0, LOOP_CFG, kind, callback=lambda x, g, d: values.append(
            objective(full_state(x, x0, kind), forms)))
        assert len(values) == out.iterations and moves(out, lm, kind)
        assert out.history[0] == objective(x0, forms)
        assert np.allclose(out.history[1:], values, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("kind", ["none", "phases_frozen"])
@pytest.mark.parametrize("terms,lm,n", LOOP_SHAPES)
def test_loop_matches_the_plain_reference_loop(terms, lm, n, kind):
    # a complex Jacobian and a d_free x d_free solve per trial take the same
    # steps up to round-off, which stays far below the stop tolerance; the
    # reference freezes the phases with its mask, the loop solves folded forms
    for draw in range(20):
        forms, x0, free = loop_problem(terms, lm, n, kind, draw)
        out = solve(forms, x0, LOOP_CFG, kind)
        ref = reference_lm(forms, x0, LOOP_CFG, free=free)
        assert (out.iterations, out.backtracks, out.stop_reason) == (
            ref.iterations, ref.backtracks, ref.stop_reason)
        assert np.max(np.abs(full_state(out.x, x0, kind).x - ref.x)) <= 1e-7


# More free coordinates than the 2*terms real residuals: d_free > 2 terms for
# both kinds below, so the loop solves the residual-sized system.
WIDE_SHAPES = [(1, 3, 2), (2, 5, 4), (3, 7, 5), (2, 9, 0)]


@pytest.mark.parametrize("kind", ["none", "phases_frozen"])
@pytest.mark.parametrize("terms,lm,n", WIDE_SHAPES)
def test_residual_side_step_equals_the_full_step(terms, lm, n, kind, monkeypatch):
    sides, dual_side = [], rcg._dual_side

    def spy(dim, n_terms):
        sides.append(dual_side(dim, n_terms))
        return sides[-1]

    monkeypatch.setattr(rcg, "_dual_side", spy)
    one_step = RcgConfig(max_iters=1, grad_tol=0.0)
    for draw in range(5):
        forms, x0, free = loop_problem(terms, lm, n, kind, draw)
        steps = []
        solve(forms, x0, one_step, kind,
              callback=lambda x, g, d: steps.append((d * x.x.conj()).imag))
        ref = reference_lm(forms, x0, one_step, free=free)
        assert len(steps) == len(ref.steps) == 1
        ref_step = ref.steps[0][:len(steps[0])]
        err = np.linalg.norm(steps[0] - ref_step) / np.linalg.norm(ref_step)
        assert err <= 1e-12
    assert sides and all(sides)


@pytest.mark.parametrize("kind", ["none", "phases_frozen"])
@pytest.mark.parametrize("exponent", [100, -100])
def test_power_of_two_scaling_leaves_the_run_unchanged(kind, exponent):
    # scaling the forms by 2^k scales every quantity of the loop exactly, the
    # objective by 2^2k; with no tolerance to cross, the runs must agree to
    # the bit all the way to their stop
    cfg = RcgConfig(max_iters=200, grad_tol=0.0)
    scale = 2.0 ** exponent
    for seed in range(20):
        gen = np.random.default_rng(700 + seed)
        terms, lm, n = (int(v) for v in gen.integers(1, 7, size=3))
        forms = random_forms(gen, terms, lm, n)
        x0 = random_state(lm, n, gen)
        ref = solve(forms, x0, cfg, kind)
        out = solve(PrecomputedForms(b=scale * forms.b, c=scale * forms.c), x0, cfg, kind)
        assert np.array_equal(out.x.x, ref.x.x)
        assert (out.iterations, out.stop_reason) == (ref.iterations, ref.stop_reason)
        assert np.array_equal(out.history, scale ** 2 * ref.history)


@pytest.mark.parametrize("seed", range(4))
def test_desk_bench_solves_stop_at_the_gradient_tolerance(seed):
    # the benchmark's deep solver settings on criterion 8's deployment: the
    # joint and the phases-frozen solve both converge inside the budget, so a
    # larger budget returns the same run
    scen = desk_bench_scenario(seed=seed)
    ch = generate_channels(scen, np.random.default_rng(seed))
    gen = np.random.default_rng(seed)
    r = init_rss(scen.L * scen.M_t, scen.P_B, gen)
    forms = precompute_forms(hermitian_evd(r), ch)
    lm, n = scen.L * scen.M, scen.N
    x0 = random_state(lm, n, gen)
    for kind in ("none", "phases_frozen"):
        out = solve(forms, x0, RcgConfig(max_iters=200, grad_tol=1e-10), kind)
        assert out.stop_reason == "grad_tol" and out.iterations > 0
        more = solve(forms, x0, RcgConfig(max_iters=400, grad_tol=1e-10), kind)
        assert np.array_equal(more.x.x, out.x.x)
        assert np.array_equal(more.history, out.history)
