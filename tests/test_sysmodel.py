import dataclasses

import numpy as np
import pytest

from pimin.errors import DimensionError, DomainError
from pimin.linalg import kron_identity_apply
from pimin.scenario import generate_channels
from pimin.sysmodel import (_comm_block, _pi_block, _sensing_block, beam_products,
                            build_effective_channels, build_pi_channel, check_phases)

from pimin.selfcheck import dense_kron_block

from helpers import random_unit_modulus, tiny_scenario


@pytest.fixture
def channels(rng):
    return generate_channels(tiny_scenario(obstacles=((40.0, 60.0, 1.0),) * 3),
                             np.random.default_rng(11))


def dense_comm(ch, phi):
    return ch.gamma_c_d * ch.H_k + ch.gamma_c_r * ch.H_Rk @ np.diag(phi) @ ch.H_cR


def dense_pi(ch, phi):
    return ch.gamma_DPI * ch.H_DPI + ch.gamma_RPI * ch.G_rR.conj().T @ np.diag(phi) @ ch.H_cR


def comm_block(ch, phi):
    return build_effective_channels(ch, phi).Hc_block


def sensing_block(ch, phi):
    return build_effective_channels(ch, phi).Ar_block


def obstacle_block(ch):
    return build_effective_channels(ch, np.ones(ch.H_cR.shape[0])).Ao_block


def dense_sensing(ch, phi):
    Phi = np.diag(phi)
    ht = ch.h_t.conj()[None, :]
    return (ch.gamma_s1 * ch.g_t[:, None] @ ht
            + ch.gamma_s2 * (ch.G_rR.conj().T @ Phi @ ch.g_Rt)[:, None] @ ht
            + ch.gamma_s3 * ch.g_t[:, None] @ (ch.g_Rt.conj()[None, :] @ Phi @ ch.H_cR)
            + ch.gamma_s4 * (ch.G_rR.conj().T @ Phi @ ch.g_Rt)[:, None]
            @ (ch.g_Rt.conj()[None, :] @ Phi @ ch.H_cR))


class TestCommChannel:
    def test_no_ris_path(self, channels, rng):
        ch = dataclasses.replace(channels, gamma_c_r=0j)
        phi = random_unit_modulus(rng, ch.H_cR.shape[0])
        assert np.array_equal(comm_block(ch, phi), ch.gamma_c_d * ch.H_k)

    def test_blocked_ris_user_link(self, channels, rng):
        ch = dataclasses.replace(channels, H_Rk=np.zeros_like(channels.H_Rk))
        phi = random_unit_modulus(rng, ch.H_cR.shape[0])
        assert np.allclose(comm_block(ch, phi), ch.gamma_c_d * ch.H_k)

    def test_dense_oracle(self, channels, rng):
        phi = random_unit_modulus(rng, channels.H_cR.shape[0])
        out = comm_block(channels, phi)
        assert np.max(np.abs(out - dense_comm(channels, phi))) <= 1e-12

    def test_rejects_non_unit_phases(self, channels):
        with pytest.raises(DomainError):
            comm_block(channels, 2.0 * np.ones(channels.H_cR.shape[0]))


class TestPiChannel:
    def test_pure_direct_leakage(self, channels, rng):
        ch = dataclasses.replace(channels, gamma_RPI=0j)
        phi = random_unit_modulus(rng, ch.H_cR.shape[0])
        assert np.array_equal(build_pi_channel(ch, phi), ch.gamma_DPI * ch.H_DPI)

    def test_linearity_sign_flip(self, channels, rng):
        phi = random_unit_modulus(rng, channels.H_cR.shape[0])
        diff = build_pi_channel(channels, phi) - build_pi_channel(channels, -phi)
        expect = 2.0 * channels.gamma_RPI * channels.G_rR.conj().T @ np.diag(phi) \
            @ channels.H_cR
        assert np.max(np.abs(diff - expect)) <= 1e-12

    def test_dense_oracle(self, channels, rng):
        phi = random_unit_modulus(rng, channels.H_cR.shape[0])
        out = build_pi_channel(channels, phi)
        assert np.max(np.abs(out - dense_pi(channels, phi))) <= 1e-12


class TestSensingChannel:
    def test_direct_echo_only_is_rank_one(self, channels, rng):
        ch = dataclasses.replace(channels, gamma_s2=0j, gamma_s3=0j, gamma_s4=0j)
        phi = random_unit_modulus(rng, ch.H_cR.shape[0])
        out = sensing_block(ch, phi)
        assert np.allclose(out, ch.gamma_s1 * np.outer(ch.g_t, ch.h_t.conj()))
        assert np.linalg.matrix_rank(out) <= 1

    def test_double_bounce_quadratic_phase(self, channels, rng):
        ch = dataclasses.replace(channels, gamma_s1=0j, gamma_s2=0j, gamma_s3=0j)
        phi = random_unit_modulus(rng, ch.H_cR.shape[0])
        theta = 0.7331
        a = sensing_block(ch, phi)
        b = sensing_block(ch, np.exp(1j * theta) * phi)
        assert np.max(np.abs(b - np.exp(2j * theta) * a)) <= 1e-12 * np.max(np.abs(a))

    def test_dense_oracle(self, channels, rng):
        phi = random_unit_modulus(rng, channels.H_cR.shape[0])
        out = sensing_block(channels, phi)
        assert np.max(np.abs(out - dense_sensing(channels, phi))) <= 1e-12


class TestObstacleChannel:
    def test_clear_scene(self, rng):
        ch = generate_channels(tiny_scenario(), np.random.default_rng(0))
        assert np.array_equal(obstacle_block(ch),
                              np.zeros((3, 2), dtype=complex))

    def test_single_obstacle_rank(self, rng):
        ch = generate_channels(tiny_scenario(obstacles=((40.0, 60.0, 1.0),)),
                               np.random.default_rng(0))
        assert np.linalg.matrix_rank(obstacle_block(ch)) <= 1

    def test_three_obstacles_sum(self, channels):
        expect = sum(g * go[:, None] @ ho.conj()[None, :]
                     for go, ho, g in channels.obstacles)
        assert np.max(np.abs(obstacle_block(channels) - expect)) <= 1e-12


class TestEffectiveChannels:
    def test_nan_phase_rejected(self, channels):
        phi = np.ones(channels.H_cR.shape[0], dtype=complex)
        phi[0] = np.nan
        with pytest.raises(DomainError, match="unit modulus"):
            build_effective_channels(channels, phi)

    def test_empty_phase_vector_accepted(self):
        assert check_phases(np.empty(0), 0).shape == (0,)

    @pytest.mark.parametrize("phi", [np.zeros(4), np.array([1.0, 0.0, -1j, 0.0])],
                             ids=["all_off", "mixed"])
    def test_elements_off_accepted(self, phi):
        assert np.array_equal(check_phases(phi, 4), phi)

    @pytest.mark.parametrize("modulus", [0.5, 2.0, np.nan])
    def test_other_moduli_rejected(self, modulus):
        phi = np.array([1.0, 0.0, modulus, 1j])
        with pytest.raises(DomainError, match="unit modulus"):
            check_phases(phi, 4)


class TestElementsOff:
    """Zero coefficients give exactly the channels whose RIS path gains are zero."""

    @pytest.mark.parametrize("block", ["Hc_block", "Ac_block", "Ar_block"])
    def test_zero_coefficients_are_zero_ris_gains(self, channels, block):
        n = channels.H_cR.shape[0]
        bare = dataclasses.replace(channels, gamma_c_r=0j, gamma_RPI=0j, gamma_s2=0j,
                                   gamma_s3=0j, gamma_s4=0j)
        off = getattr(build_effective_channels(channels, np.zeros(n)), block)
        assert off.tobytes() == getattr(build_effective_channels(bare, np.ones(n)),
                                        block).tobytes()


class TestBlockStructure:
    def test_block_equals_dense_kron_diagonal_block(self, channels, rng):
        # the block builders are the (l, l) diagonal block of the full
        # space-time channel for every sample index l
        phi = random_unit_modulus(rng, channels.H_cR.shape[0])
        eff = build_effective_channels(channels, phi)
        m, m_t = eff.Ac_block.shape
        for blocks in (1, 2, 4):
            dense = dense_kron_block(eff.Ac_block, blocks)
            for ell in range(blocks):
                sub = dense[ell * m:(ell + 1) * m, ell * m_t:(ell + 1) * m_t]
                assert np.max(np.abs(sub - eff.Ac_block)) <= 1e-12

    def test_polynomial_degree_in_phi(self, channels, rng):
        # third differences along a ray vanish for the quadratic sensing
        # kernel, second differences for the affine ones; the rays leave the
        # unit circle, so the kernels run on unchecked coefficients
        n = channels.H_cR.shape[0]
        phi0 = random_unit_modulus(rng, n)
        step = (rng.standard_normal(n) + 1j * rng.standard_normal(n))

        def sample(kernel, t):
            return kernel(channels, phi0 + t * step)

        for kernel in (_comm_block, _pi_block):
            d2 = sample(kernel, 0.0) - 2.0 * sample(kernel, 1.0) + sample(kernel, 2.0)
            assert np.max(np.abs(d2)) <= 1e-10
        vals = [sample(_sensing_block, t) for t in (0.0, 1.0, 2.0, 3.0)]
        d3 = vals[3] - 3.0 * vals[2] + 3.0 * vals[1] - vals[0]
        scale = np.max(np.abs(vals[0])) + 1e-30
        assert np.max(np.abs(d3)) <= 1e-9 * scale
        # with the double-bounce gain set to unit scale the second difference
        # must be visibly nonzero (the kernel is genuinely quadratic)
        boosted = dataclasses.replace(channels, gamma_s4=1.0 + 0j)
        vals = [_sensing_block(boosted, phi0 + t * step) for t in (0.0, 1.0, 2.0)]
        d2 = vals[2] - 2.0 * vals[1] + vals[0]
        assert np.max(np.abs(d2)) > 1e-6 * np.max(np.abs(vals[0]))


class TestBeamProducts:
    def test_products_match_dense(self, channels, rng):
        scen = tiny_scenario()
        eff = build_effective_channels(channels, random_unit_modulus(rng, scen.N))
        w = random_unit_modulus(rng, scen.L * scen.M)
        beams = beam_products(eff, w)
        for block, got in zip((eff.Ac_block, eff.Ar_block, eff.Ao_block),
                              (beams.u, beams.a, beams.o)):
            dense = dense_kron_block(block, scen.L)
            assert np.max(np.abs(got - dense.conj().T @ w)) <= 1e-12 * np.max(np.abs(got))
            # the unchecked kernel gives what the checked product gives
            assert got.tobytes() == kron_identity_apply(block.conj().T, w, scen.L).tobytes()
        assert np.allclose(beams.gram, eff.Hc_block.conj().T @ eff.Hc_block)
        assert beams.w is w and beams.n_samples == scen.L

    def test_w_of_wrong_shape_rejected(self, channels, rng):
        scen = tiny_scenario()
        eff = build_effective_channels(channels, random_unit_modulus(rng, scen.N))
        for w in (random_unit_modulus(rng, scen.L * scen.M + 1),
                  random_unit_modulus(rng, scen.L * scen.M).reshape(scen.L, scen.M)):
            with pytest.raises(DimensionError, match="w has shape"):
                beam_products(eff, w)

    def test_effective_blocks_read_only(self, channels, rng):
        eff = build_effective_channels(channels, random_unit_modulus(rng, 2))
        for block in (eff.Hc_block, eff.Ac_block, eff.Ar_block, eff.Ao_block):
            with pytest.raises(ValueError):
                block[0, 0] = 0
