import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimin.errors import DimensionError, DomainError
from pimin.scenario import (RisSpec, ScenarioConfig, db_to_linear,
                            dbm_to_watt, desk_scenario, generate_channels,
                            higher_order_gain, linear_to_db, pathloss_direct,
                            pathloss_reflected, ris_rcs)

from helpers import tiny_scenario

FOUR_PI = 4.0 * math.pi


class TestConversions:
    @given(st.floats(-180.0, 180.0))
    @settings(max_examples=50, deadline=None)
    def test_db_roundtrip(self, x_db):
        assert abs(linear_to_db(db_to_linear(x_db)) - x_db) <= 1e-12 * max(abs(x_db), 1.0)

    def test_dbm(self):
        assert abs(dbm_to_watt(-80.0) - 1e-11) <= 1e-26

    def test_zero_power(self):
        assert linear_to_db(0.0) == float("-inf")


class TestPathloss:
    def test_unit_inputs(self):
        assert abs(pathloss_direct(1.0, 1.0, 1.0, 1.0, 1.0) - 1.0 / FOUR_PI) <= 1e-15

    def test_distance_halving(self):
        one = pathloss_direct(1.0, 1.0, 1.0, 1.0, 1.0)
        assert abs(pathloss_direct(1.0, 1.0, 1.0, 1.0, 2.0) - one / 2.0) <= 1e-15

    def test_table_parameters(self):
        # 28 GHz, 40 dBm, 25 dBi both ends, 500 m; frozen from a high
        # precision evaluation of the link-budget formula
        lam = 299792458.0 / 28e9
        val = pathloss_direct(lam, dbm_to_watt(40.0), db_to_linear(25.0),
                              db_to_linear(25.0), 500.0)
        assert abs(val - 1.70405184258462e-3) <= 1e-15

    def test_reflected_unit_inputs(self):
        val = pathloss_reflected(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert abs(val - FOUR_PI**-1.5) <= 1e-15
        assert abs(val - 0.0224483902656458) <= 1e-15

    def test_reflected_halves_per_hop(self):
        base = pathloss_reflected(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
        assert abs(pathloss_reflected(1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 1.0) - base / 2) <= 1e-15

    def test_reflected_refactors_through_direct(self, rng):
        for _ in range(10):
            lam, p, gt, gr, sig, d1, d2 = rng.uniform(0.1, 5.0, size=7)
            lhs = pathloss_reflected(lam, p, gt, gr, sig, d1, d2)
            rhs = pathloss_direct(lam, p, gt, gr, d1) * math.sqrt(sig / FOUR_PI) / d2
            assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            pathloss_direct(1.0, 1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            pathloss_reflected(1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0)

    def test_strictly_decreasing_in_distance(self, rng):
        for _ in range(20):
            d = rng.uniform(1.0, 100.0)
            assert pathloss_direct(1.0, 1.0, 1.0, 1.0, d * 1.01) \
                < pathloss_direct(1.0, 1.0, 1.0, 1.0, d)


class TestRisRcs:
    def test_wavelength_sized_element(self):
        lam = 0.3
        spec = RisSpec(a_ris=1.0, d_x=lam, d_y=lam)
        assert abs(ris_rcs(spec, lam) - FOUR_PI * lam**2) <= 1e-12

    def test_small_element(self):
        lam = 0.0107
        spec = RisSpec(a_ris=1.0, d_x=0.4 * lam, d_y=0.4 * lam)
        expect = 0.321699087727595 * lam**2
        assert abs(ris_rcs(spec, lam) - expect) <= 1e-12 * expect

    def test_null_pattern_direction(self):
        spec = RisSpec(d_x=0.1, d_y=0.1, pattern_t=0.0)
        assert ris_rcs(spec, 0.1) == 0.0


class TestHigherOrderGain:
    def test_order2_matches_reflected_with_target_rcs(self):
        val = higher_order_gain(2, 1.0, 1.0, 1.0, 1.0, sigma_ris=7.0, sigma_t=1.0,
                                distances=[1.0, 1.0])
        assert abs(val - FOUR_PI**-1.5) <= 1e-15

    def test_order_chain_decreases(self):
        # sigma_ris below 4 pi: each extra bounce attenuates at unit distances
        kw = dict(wavelength=1.0, p_t=1.0, g_t=1.0, g_r=1.0, sigma_ris=2.0, sigma_t=1.0)
        g2 = higher_order_gain(2, distances=[1.0] * 2, **kw)
        g3 = higher_order_gain(3, distances=[1.0] * 3, **kw)
        g4 = higher_order_gain(4, distances=[1.0] * 4, **kw)
        assert g4 <= g3 <= g2

    def test_order3_per_hop_distance(self):
        kw = dict(wavelength=1.0, p_t=1.0, g_t=1.0, g_r=1.0, sigma_ris=1.0, sigma_t=1.0)
        base = higher_order_gain(3, distances=[1.0, 1.0, 1.0], **kw)
        tenth = higher_order_gain(3, distances=[10.0, 1.0, 1.0], **kw)
        assert abs(tenth - base / 10.0) <= 1e-15

    def test_wrong_distance_count(self):
        with pytest.raises(DimensionError):
            higher_order_gain(3, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, distances=[1.0, 2.0])

    def test_bad_order(self):
        with pytest.raises(DomainError):
            higher_order_gain(5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, distances=[1.0] * 5)


class TestGenerateChannels:
    def test_seed_determinism(self):
        scen = tiny_scenario()
        a = generate_channels(scen, np.random.default_rng(5))
        b = generate_channels(scen, np.random.default_rng(5))
        assert np.array_equal(a.H_k, b.H_k)
        assert np.array_equal(a.G_rR, b.G_rR)
        assert a.gamma_DPI == b.gamma_DPI
        assert a.gamma_s4 == b.gamma_s4

    def test_unit_entry_variance(self):
        scen = tiny_scenario(M_r=100, M_t=500, seed=1)
        ch = generate_channels(scen, np.random.default_rng(1))
        second_moment = np.mean(np.abs(ch.H_k) ** 2)  # 5e4 draws
        assert 0.98 <= second_moment <= 1.02
        ch2 = generate_channels(tiny_scenario(M=250, M_t=400),
                                np.random.default_rng(2))
        assert 0.98 <= np.mean(np.abs(ch2.H_DPI) ** 2) <= 1.02

    def test_no_obstacles(self):
        ch = generate_channels(tiny_scenario(), np.random.default_rng(0))
        assert ch.obstacles == ()

    def test_obstacles_generated(self):
        scen = tiny_scenario(obstacles=((50.0, 80.0, 2.0), (60.0, 90.0, 1.0)))
        ch = generate_channels(scen, np.random.default_rng(0))
        assert len(ch.obstacles) == 2
        g_ob, h_ob, gamma_ob = ch.obstacles[0]
        assert g_ob.shape == (scen.M,) and h_ob.shape == (scen.M_t,)
        assert abs(gamma_ob) > 0

    def test_every_array_read_only(self):
        ch = generate_channels(desk_scenario(obstacles=((50.0, 30.0, 1.0),)),
                               np.random.default_rng(0))
        arrays = [getattr(ch, name) for name in ("H_k", "H_Rk", "H_cR", "H_DPI",
                                                 "G_rR", "g_t", "h_t", "g_Rt")]
        arrays += [a for g_ob, h_ob, _ in ch.obstacles for a in (g_ob, h_ob)]
        assert len(arrays) == 10
        for arr in arrays:
            with pytest.raises(ValueError):
                arr[...] = 0
            with pytest.raises(ValueError):
                arr *= 2

    @settings(max_examples=25, deadline=None)
    @given(m_t=st.integers(1, 5), m_r=st.integers(1, 5), m=st.integers(1, 5),
           n_x=st.integers(1, 4), n_y=st.integers(1, 4), samples=st.integers(1, 4),
           seed=st.integers(0, 10_000))
    def test_dimensions_match_config(self, m_t, m_r, m, n_x, n_y, samples, seed):
        scen = ScenarioConfig(M_t=m_t, M_r=m_r, M=m, N_x=n_x, N_y=n_y, L=samples)
        ch = generate_channels(scen, np.random.default_rng(seed))
        n = n_x * n_y
        assert ch.H_k.shape == (m_r, m_t)
        assert ch.H_Rk.shape == (m_r, n)
        assert ch.H_cR.shape == (n, m_t)
        assert ch.H_DPI.shape == (m, m_t)
        assert ch.G_rR.shape == (n, m)
        assert ch.g_t.shape == (m,) and ch.h_t.shape == (m_t,) and ch.g_Rt.shape == (n,)

    def test_reflected_weaker_than_direct_under_premise(self):
        # premise: d_Rk * d_cR >= d_k * sqrt(sigma_RIS / 4 pi)
        scen = desk_scenario(d_k=100.0, d_Rk=120.0, d_cR=150.0)
        sigma = ris_rcs(scen.ris_spec(), scen.wavelength)
        assert scen.d_Rk * scen.d_cR >= scen.d_k * math.sqrt(sigma / FOUR_PI)
        ch = generate_channels(scen, np.random.default_rng(3))
        assert abs(ch.gamma_c_r) <= abs(ch.gamma_c_d)

    def test_without_ris_zeroes_coupled_gains(self):
        ch = generate_channels(tiny_scenario(), np.random.default_rng(0))
        bare = ch.without_ris()
        assert bare.gamma_c_r == 0 and bare.gamma_RPI == 0
        assert bare.gamma_s2 == bare.gamma_s3 == bare.gamma_s4 == 0
        assert bare.gamma_DPI == ch.gamma_DPI and bare.gamma_s1 == ch.gamma_s1


class TestConfigSerialization:
    def test_roundtrip(self, tmp_path):
        scen = desk_scenario(M_t=3, obstacles=((40.0, 50.0, 1.5),), seed=9)
        path = tmp_path / "scen.json"
        with open(path, "w") as fh:
            json.dump(scen.to_json_dict(), fh)
        with open(path) as fh:
            back = ScenarioConfig.from_json_dict(json.load(fh))
        assert back == scen

    def test_db_suffixed_field_names(self):
        d = desk_scenario().to_json_dict()
        for name in ("P_T_dBm", "G_T_dBi", "G_R_c_dBi", "G_R_PR_dBi", "G_LNA_dB",
                     "sigma_c2_dBm", "sigma_r2_dBm", "P_B_dB", "gamma_comm_dB",
                     "gamma_sense_dB"):
            assert name in d

    def test_unknown_field_rejected(self):
        with pytest.raises(DomainError):
            ScenarioConfig.from_json_dict({"M_t": 2, "bogus": 1})
        with pytest.raises(DomainError, match="scenario must be a JSON object, got list"):
            ScenarioConfig.from_json_dict([["M_t", 2]])

    def test_invalid_values_rejected(self):
        with pytest.raises(DomainError):
            ScenarioConfig(M_t=0)
        with pytest.raises(DomainError):
            ScenarioConfig(d_k=-1.0)
        with pytest.raises(DomainError):
            ScenarioConfig(A_ris=1.5)

    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
    def test_non_integer_size_rejected(self, value):
        with pytest.raises(DomainError, match="M must be an integer"):
            ScenarioConfig(M=value)

    def test_numpy_integer_size_accepted(self):
        assert ScenarioConfig(M=np.int64(3)).M == 3
