import numpy as np
import pytest

from pimin.linalg import _kron_apply, hermitian_evd
from pimin.metrics import (_power, adc_snr, comm_snr, dynamic_range, power_breakdown,
                           power_noise, sndr)
from pimin.scenario import dbm_to_watt, generate_channels
from pimin.sysmodel import beam_products, build_effective_channels

from pimin.selfcheck import cplx, dense_kron_block, dense_power_quadratic, random_psd

from helpers import random_unit_modulus, tiny_scenario


def path_power(block, w, r):
    """One path's power as ``power_breakdown`` reads it, for any block shape."""
    evd = hermitian_evd(r)
    u = _kron_apply(block.conj().T, w)
    return _power(u, evd.eigenvectors.conj().T, evd.clipped_eigenvalues)


class TestPowerQuadratic:
    def test_zero_block(self, rng):
        r = random_psd(rng, 4)
        w = random_unit_modulus(rng, 6)
        assert path_power(np.zeros((3, 2), dtype=complex), w, r) == 0.0

    def test_scalar_case(self):
        out = path_power(np.array([[1.0 + 0j]]), np.array([1.0 + 0j]),
                         np.array([[2.0 + 0j]]))
        assert abs(out - 2.0) <= 1e-15

    def test_dense_oracle_random(self, rng):
        for _ in range(30):
            rows, cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            blocks = int(rng.integers(1, 4))
            block = cplx(rng, rows, cols)
            r = random_psd(rng, blocks * cols)
            w = random_unit_modulus(rng, blocks * rows)
            got = path_power(block, w, r)
            expect = dense_power_quadratic(block, w, r)
            assert abs(got - expect) <= 1e-10 * max(expect, 1e-30)
            assert got >= 0.0

    def test_specific_shape(self, rng):
        block = cplx(rng, 3, 2)
        r = random_psd(rng, 4)
        w = random_unit_modulus(rng, 6)
        got = path_power(block, w, r)
        assert abs(got - dense_power_quadratic(block, w, r)) <= 1e-10 * got


class TestPowerNoise:
    def test_exact_product(self):
        assert power_noise(np.ones(10, dtype=complex), 1.0) == 10.0
        assert power_noise(np.ones(5, dtype=complex), 0.0) == 0.0

    def test_dbm_case(self):
        sigma = dbm_to_watt(-80.0)
        assert abs(power_noise(np.ones(20, dtype=complex), sigma) - 2e-10) <= 1e-24

    def test_phase_rotation_invariance(self, rng):
        w = random_unit_modulus(rng, 8)
        assert power_noise(w, 0.3) == power_noise(np.exp(1j * 1.1) * w, 0.3)


class TestSndr:
    def test_unity(self):
        assert sndr(1.0, 0.0, 0.0, 1.0) == 1.0

    def test_scale_invariance(self, rng):
        vals = rng.uniform(0.1, 5.0, size=4)
        c = 13.7
        assert abs(sndr(*vals) - sndr(*(c * vals))) <= 1e-12 * sndr(*vals)

    def test_random_arithmetic(self, rng):
        ps, pi, po, pn = rng.uniform(0.1, 2.0, size=4)
        assert abs(sndr(ps, pi, po, pn) - ps / (pi + po + pn)) <= 1e-15


def gram(h):
    return h.conj().T @ h


class TestCommSnr:
    def test_zero_covariance(self, rng):
        hc = cplx(rng, 2, 3)
        assert comm_snr(gram(hc), np.zeros((6, 6), dtype=complex), 2, 1.0) == 0.0

    def test_quadratic_homogeneity(self, rng):
        hc = cplx(rng, 2, 3)
        r = random_psd(rng, 6)
        c = 2.7 - 1.1j
        base = comm_snr(gram(hc), r, 2, 1e-3)
        assert abs(comm_snr(gram(c * hc), r, 2, 1e-3) - abs(c) ** 2 * base) <= 1e-9 * base

    def test_dense_trace_oracle(self, rng):
        hc = cplx(rng, 3, 2)
        r = random_psd(rng, 6)
        got = comm_snr(gram(hc), r, m_r=3, sigma_c2=2e-4)
        dense_h = dense_kron_block(hc, 3)
        expect = np.trace(r @ dense_h.conj().T @ dense_h).real / (3 * 3 * 2e-4)
        assert abs(got - expect) <= 1e-10 * abs(expect)

    def test_linearity_in_covariance(self, rng):
        g = gram(cplx(rng, 2, 2))
        r1, r2 = random_psd(rng, 4), random_psd(rng, 4)
        a, b = 0.3, 1.9
        lhs = comm_snr(g, a * r1 + b * r2, 2, 1.0)
        rhs = a * comm_snr(g, r1, 2, 1.0) + b * comm_snr(g, r2, 2, 1.0)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)


class TestDynamicRange:
    def test_20db(self):
        assert abs(10 * np.log10(dynamic_range(100.0, 1.0)) - 20.0) <= 1e-12

    def test_suppressed_interference(self):
        assert dynamic_range(0.0, 1e-11) == 0.0


class TestAdcFormulas:
    @pytest.mark.parametrize("bits,expect", [(0, 1.76), (11, 67.98), (1, 7.78)])
    def test_adc_snr(self, bits, expect):
        assert abs(adc_snr(bits) - expect) <= 1e-12


class TestPowerBreakdown:
    def test_consistent_ratios(self, rng):
        scen = tiny_scenario(obstacles=((40.0, 60.0, 1.0),))
        ch = generate_channels(scen, np.random.default_rng(4))
        phi = random_unit_modulus(rng, scen.N)
        w = random_unit_modulus(rng, scen.L * scen.M)
        r = random_psd(rng, scen.L * scen.M_t, trace=scen.P_B)
        beams = beam_products(build_effective_channels(ch, phi), w)
        p = power_breakdown(beams, r, scen.sigma_r2_W, scen.sigma_c2_W, scen.M_r,
                            hermitian_evd(r))
        assert p.p_pi >= 0 and p.p_sense >= 0 and p.p_obs >= 0 and p.p_noise > 0
        lin_sndr = p.p_sense / (p.p_pi + p.p_obs + p.p_noise)
        assert abs(p.sndr_db - 10 * np.log10(lin_sndr)) <= 1e-9
        assert abs(p.dr_db - 10 * np.log10(p.p_pi / p.p_noise)) <= 1e-9
        scale_free = sndr(p.p_sense * 3.0, p.p_pi * 3.0, p.p_obs * 3.0, p.p_noise * 3.0)
        assert abs(scale_free - lin_sndr) <= 1e-12 * lin_sndr

    def test_given_eigendecomposition_matches_power_quadratic(self, rng):
        # power_breakdown reads every path through the decomposition it is
        # given, and each power matches the dense form
        scen = tiny_scenario(L=2, obstacles=((40.0, 60.0, 1.0),))
        ch = generate_channels(scen, np.random.default_rng(7))
        eff = build_effective_channels(ch, random_unit_modulus(rng, scen.N))
        w = random_unit_modulus(rng, scen.L * scen.M)
        r = random_psd(rng, scen.L * scen.M_t, trace=scen.P_B)
        expect = [dense_power_quadratic(block, w, r)
                  for block in (eff.Ac_block, eff.Ar_block, eff.Ao_block)]
        evd = hermitian_evd(r)
        p = power_breakdown(beam_products(eff, w), r, scen.sigma_r2_W, scen.sigma_c2_W,
                            scen.M_r, evd)
        for got, ref in zip((p.p_pi, p.p_sense, p.p_obs), expect):
            assert abs(got - ref) <= 1e-12 * ref
        # one conjugate transpose serves all three paths: each power equals,
        # bit for bit, the form that projects its vector alone
        beams = beam_products(eff, w)
        for got, u in zip((p.p_pi, p.p_sense, p.p_obs), (beams.u, beams.a, beams.o)):
            proj = evd.eigenvectors.conj().T @ u
            assert got == float(evd.clipped_eigenvalues @ (proj.real**2 + proj.imag**2))

    def test_nulled_design_keeps_a_finite_dynamic_range(self, rng):
        # R spans only the null space of u u^H, so the interference is zero up
        # to round-off; the power must stay >= 0 and its dB value finite
        scen = tiny_scenario(L=3)
        ch = generate_channels(scen, np.random.default_rng(6))
        eff = build_effective_channels(ch, random_unit_modulus(rng, scen.N))
        beams = beam_products(eff, random_unit_modulus(rng, scen.L * scen.M))
        u = beams.u
        dim = u.shape[0]
        q, _ = np.linalg.qr(np.column_stack([u, cplx(rng, dim, dim - 1)]))
        null = q[:, 1:]
        r = scen.P_B * (null @ null.conj().T) / (dim - 1)
        r = 0.5 * (r + r.conj().T)
        p = power_breakdown(beams, r, scen.sigma_r2_W, scen.sigma_c2_W, scen.M_r,
                            hermitian_evd(r))
        assert np.isfinite(p.dr_db)
        assert 0.0 <= p.p_pi <= 1e-20 * scen.P_B * float(np.vdot(u, u).real)
