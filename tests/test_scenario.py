import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pimin import scenario
from pimin.errors import DimensionError, DomainError
from pimin.scenario import (ScenarioConfig, _link_gain, db_to_linear, dbm_to_watt,
                            desk_bench_scenario, desk_scenario, generate_channels,
                            linear_to_db)

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


def unit_gain(distances, cross=1.0):
    """The link gain at unit wavelength, power and antenna gains."""
    return _link_gain(1.0, 1.0, 1.0, 1.0, cross, distances, 2.0)


class TestLinkGain:
    def test_unit_inputs(self):
        assert abs(unit_gain([1.0]) - 1.0 / FOUR_PI) <= 1e-15

    def test_distance_halving(self):
        assert abs(unit_gain([2.0]) - unit_gain([1.0]) / 2.0) <= 1e-15

    def test_table_parameters(self):
        # 28 GHz, 40 dBm, 25 dBi both ends, 500 m; frozen from a high
        # precision evaluation of the link-budget formula
        lam = 299792458.0 / 28e9
        val = _link_gain(lam, dbm_to_watt(40.0), db_to_linear(25.0), db_to_linear(25.0),
                         1.0, [500.0], 2.0)
        assert abs(val - 1.70405184258462e-3) <= 1e-15

    def test_two_hop_unit_inputs(self):
        val = unit_gain([1.0, 1.0])
        assert abs(val - FOUR_PI**-1.5) <= 1e-15
        assert abs(val - 0.0224483902656458) <= 1e-15

    def test_two_hop_halves_per_hop(self):
        base = unit_gain([1.0, 1.0])
        assert abs(unit_gain([2.0, 1.0]) - base / 2) <= 1e-15
        assert abs(unit_gain([1.0, 2.0]) - base / 2) <= 1e-15

    def test_three_hop_per_hop_distance(self):
        assert abs(unit_gain([10.0, 1.0, 1.0]) - unit_gain([1.0] * 3) / 10.0) <= 1e-15

    def test_reflected_refactors_through_direct(self, rng):
        for _ in range(10):
            lam, p, gt, gr, sig, d1, d2 = rng.uniform(0.1, 5.0, size=7)
            lhs = _link_gain(lam, p, gt, gr, sig, [d1, d2], 2.0)
            rhs = _link_gain(lam, p, gt, gr, 1.0, [d1], 2.0) * math.sqrt(sig / FOUR_PI) / d2
            assert abs(lhs - rhs) <= 1e-12 * lhs

    def test_strictly_decreasing_in_distance(self, rng):
        for _ in range(20):
            d = rng.uniform(1.0, 100.0)
            assert unit_gain([d * 1.01]) < unit_gain([d])
            assert unit_gain([3.0, d * 1.01, 2.0]) < unit_gain([3.0, d, 2.0])

    def test_each_bounce_attenuates(self):
        # sigma_ris below 4 pi: each extra bounce attenuates at unit distances
        sigma_ris = 2.0
        g2 = unit_gain([1.0] * 2)
        g3 = unit_gain([1.0] * 3, cross=sigma_ris)
        g4 = unit_gain([1.0] * 4, cross=sigma_ris**2)
        assert g4 < g3 < g2


class TestRisCrossSection:
    @staticmethod
    def at_wavelength(lam, **fields):
        return ScenarioConfig(f_c_Hz=299792458.0 / lam, **fields)

    def test_wavelength_sized_element(self):
        scen = self.at_wavelength(0.3, d_x_m=0.3, d_y_m=0.3)
        assert abs(scen.sigma_ris_m2 - FOUR_PI * scen.wavelength**2) <= 1e-12

    def test_small_element(self):
        lam = 0.0107
        scen = self.at_wavelength(lam, d_x_m=0.4 * lam, d_y_m=0.4 * lam)
        expect = 0.321699087727595 * lam**2
        assert abs(scen.sigma_ris_m2 - expect) <= 1e-12 * expect

    def test_cos_q_pattern_scales_both_directions(self):
        unity = desk_scenario().sigma_ris_m2
        tilted = desk_scenario(pattern_q=2.0,
                               ris_elevation_r_rad=math.pi / 3, ris_elevation_t_rad=math.pi / 4)
        expect = unity * math.cos(math.pi / 3) ** 2 * math.cos(math.pi / 4) ** 2
        assert abs(tilted.sigma_ris_m2 - expect) <= 1e-12 * expect

    @pytest.mark.parametrize("elevation", [0.0, 0.3, math.pi / 2, 2.0, math.pi, -math.pi])
    def test_zero_q_is_isotropic_bit_for_bit(self, elevation):
        # cos^0 is 1 at every elevation, behind the panel too (0.0 ** 0.0 == 1.0),
        # so the default element is the isotropic one
        scen = desk_scenario()
        isotropic = (FOUR_PI * scen.A_ris**2 * (scen.d_x_m * scen.d_y_m)**2
                     / scen.wavelength**2 * 1.0 * 1.0)
        assert scen.pattern_q == 0.0 and scen.sigma_ris_m2 == isotropic
        tilted = desk_scenario(pattern_q=0.0, ris_elevation_r_rad=elevation,
                               ris_elevation_t_rad=elevation)
        assert tilted.sigma_ris_m2 == scen.sigma_ris_m2


def no_call(*args):
    raise AssertionError("the path gains were recomputed")


GAMMAS = ("gamma_c_d", "gamma_c_r", "gamma_DPI", "gamma_RPI",
          "gamma_s1", "gamma_s2", "gamma_s3", "gamma_s4")


class TestGenerateChannels:
    # frozen from the three path-loss functions that _link_gain replaced, at
    # np.random.default_rng(0); the magnitudes carry the phase draws' rounding
    @pytest.mark.parametrize("scen, sigma_ris, gammas", [
        (desk_scenario(), "0x1.79a33411acb33p+6",
         ("0x1.90055bbf73a86p-12", "0x1.87960de133e11p-14", "0x1.81179b390455bp-8",
          "0x1.b549ab4311fb7p-10", "0x1.0c5b7b5b4529ep-14", "0x1.40f85db2562c4p-16",
          "0x1.abf5d2431d905p-19", "0x1.ffdd3107788e3p-21")),
        (desk_bench_scenario(), "0x1.79a33411acb33p+6",
         ("0x1.90055bbf73a86p-12", "0x1.87960de133e11p-14", "0x1.81179b390455bp-8",
          "0x1.b549ab4311fb7p-10", "0x1.555ed71dc3637p-20", "0x1.7ac84a3f79f3ap-22",
          "0x1.cfd0ae81f897fp-26", "0x1.0152b6702b8afp-27")),
        (desk_bench_scenario(d_rR=5.0), "0x1.79a33411acb33p+6",
         ("0x1.90055bbf73a86p-12", "0x1.87960de133e11p-14", "0x1.81179b390455bp-8",
          "0x1.b549ab4311fb7p-9", "0x1.555ed71dc3637p-20", "0x1.7ac84a3f79f3ap-21",
          "0x1.cfd0ae81f897fp-26", "0x1.0152b6702b8afp-26")),
        (ScenarioConfig(), "0x1.356edd54162e1p-15",
         ("0x1.90055bbf73a86p-12", "0x1.f549f75af8f3ep-25", "0x1.81179b390455bp-8",
          "0x1.17e59ce522c3bp-20", "0x1.0c5b7b5b4529ep-14", "0x1.9ae3d1397cc12p-27",
          "0x1.11ed3626532b6p-29", "0x1.a36acb584db12p-42")),
    ], ids=["desk", "desk_bench", "desk_bench_d_rR_5", "default"])
    def test_path_gains_pinned(self, scen, sigma_ris, gammas, monkeypatch):
        assert scen.sigma_ris_m2 == float.fromhex(sigma_ris)
        # the draw reads the gains that the config computed when it was built
        monkeypatch.setattr(scenario, "_path_gains", no_call)
        ch = generate_channels(scen, np.random.default_rng(0))
        assert [abs(getattr(ch, name)) for name in GAMMAS] \
            == [float.fromhex(g) for g in gammas]

    def test_obstacle_gains_pinned(self, monkeypatch):
        scen = desk_scenario(obstacles=((50.0, 30.0, 1.0), (80.0, 120.0, 2.5)))
        monkeypatch.setattr(scenario, "_path_gains", no_call)
        ch = generate_channels(scen, np.random.default_rng(0))
        assert [abs(gamma_ob) for _, _, gamma_ob in ch.obstacles] \
            == [float.fromhex("0x1.50095bc14c55dp-13"), float.fromhex("0x1.4c134587dd415p-15")]

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
        sigma = scen.sigma_ris_m2
        assert scen.d_Rk * scen.d_cR >= scen.d_k * math.sqrt(sigma / FOUR_PI)
        ch = generate_channels(scen, np.random.default_rng(3))
        assert abs(ch.gamma_c_r) <= abs(ch.gamma_c_d)


PANEL = 16 * ScenarioConfig().wavelength     # the desk presets' element pitch


@pytest.mark.parametrize("preset, fields", [
    (desk_scenario, dict(M_t=2, M=4, N_x=2, N_y=2, d_x_m=PANEL, d_y_m=PANEL)),
    (desk_bench_scenario, dict(M_t=4, M=8, N_x=4, N_y=4, d_x_m=PANEL, d_y_m=PANEL,
                               d_Bt=450.0, d_tPR=420.0, d_tR=415.0, sigma_t_m2=1.0,
                               gamma_sense_dB=10.0)),
], ids=["desk", "desk_bench"])
def test_preset_sets_its_fields_and_keeps_every_other_default(preset, fields):
    assert preset() == ScenarioConfig(**fields)


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

    @pytest.mark.parametrize("fields, message", [
        ({"d_k": math.nan}, "d_k must be finite"),
        ({"obstacles": [(100.0, math.nan, 1.0)]}, "obstacle parameters"),
        ({"obstacles": [(100.0, 50.0, math.inf)]}, "obstacle parameters"),
        ({"sigma_r2_dBm": math.nan}, "sigma_r2_dBm must be finite"),
        ({"P_T_dBm": math.inf}, "P_T_dBm must be finite"),
    ], ids=["d_k_nan", "obstacle_nan", "obstacle_inf", "sigma_r2_nan", "P_T_inf"])
    def test_non_finite_values_rejected(self, fields, message):
        with pytest.raises(DomainError, match=message):
            ScenarioConfig(**fields)

    @pytest.mark.parametrize("fields, error, message", [
        ({"sigma_t_m2": -1.0}, DomainError, "sigma_t_m2 must be > 0"),
        ({"sigma_t_m2": 0.0}, DomainError, "sigma_t_m2 must be > 0"),
        ({"d_tR": 0.0}, DomainError, "d_tR must be > 0"),
        ({"pattern_q": -1.0, "ris_elevation_r_rad": math.pi / 3}, DomainError,
         "pattern_q must be >= 0"),
        ({"pattern_q": -0.5}, DomainError, "pattern_q must be >= 0"),
        ({"pattern_q": 2.0, "ris_elevation_t_rad": math.pi}, DomainError,
         "sigma_ris_m2 must be > 0"),
        ({"pattern_q": 2.0, "ris_elevation_r_rad": -math.pi}, DomainError,
         "sigma_ris_m2 must be > 0"),
        ({"P_T_dBm": -4000.0}, DomainError, "P_T_W must be > 0"),
        ({"G_R_PR_dBi": -4000.0}, DomainError, "g_r_pr_lin must be > 0"),
        ({"P_T_dBm": 4000.0}, DomainError, "link-budget factor overflows"),
        ({"sigma_r2_dBm": -4000.0}, DomainError, "sigma_r2_W must be > 0"),
        ({"sigma_c2_dBm": -4000.0}, DomainError, "sigma_c2_W must be > 0"),
        ({"P_B_dB": -4000.0}, DomainError, "P_B must be > 0"),
        ({"gamma_comm_dB": -4000.0}, DomainError, "gamma_comm must be > 0"),
        ({"sigma_r2_dBm": 4000.0}, DomainError, "link-budget factor overflows"),
        ({"P_B_dB": 4000.0}, DomainError, "link-budget factor overflows"),
        ({"gamma_sense_dB": 4000.0}, DomainError, "link-budget factor overflows"),
        ({"G_LNA_dB": 4000.0}, DomainError, "link-budget factor overflows"),
        ({"obstacles": [(50.0, 30.0)]}, DimensionError, "obstacle entries"),
        ({"obstacles": [(50.0, 30.0, 0.0)]}, DomainError, "obstacle parameters"),
        ({"d_k": 1e200}, DomainError, "path gain is out of float range"),
        ({"pathloss_exponent": 400.0}, DomainError, "path gain is out of float range"),
        ({"d_x_m": 1e100}, DomainError, "path gain is out of float range"),
        ({"obstacles": [(1e300, 1e300, 1.0)]}, DomainError, "path gain is out of float range"),
        ({"d_k": 1e-200}, DomainError, "path gain is out of float range"),
        ({"d_cR": 1e-160, "d_rR": 1e-160}, DomainError, "path gain is out of float range"),
        ({"sigma_t_m2": 1e300, "d_x_m": 1.0, "d_y_m": 1.0}, DomainError, "out of float range"),
        ({"seed": "x"}, DomainError, "seed must be an integer"),
        ({"seed": 1.5}, DomainError, "seed must be an integer"),
        ({"seed": True}, DomainError, "seed must be an integer"),
        ({"seed": -1}, DomainError, "seed must be >= 0"),
    ], ids=["sigma_t_negative", "sigma_t_zero", "distance_zero", "tilted_negative_q",
            "negative_q", "reflection_behind_panel", "incidence_behind_panel",
            "power_underflow", "gain_underflow", "power_overflow",
            "radar_noise_underflow", "comm_noise_underflow", "budget_underflow",
            "comm_target_underflow", "radar_noise_overflow", "budget_overflow",
            "sense_target_overflow", "lna_overflow",
            "obstacle_two_values", "obstacle_zero_rcs", "distance_power_overflow",
            "exponent_overflow", "ris_cross_section_squared_overflow",
            "obstacle_distance_overflow", "distance_power_underflow",
            "ris_hop_product_underflow", "cross_section_product_inf", "seed_string",
            "seed_float", "seed_bool", "seed_negative"])
    def test_invalid_link_budget_rejected(self, fields, error, message):
        with pytest.raises(error, match=message):
            ScenarioConfig(**fields)

    @pytest.mark.parametrize("fields, name", [
        ({"d_k": True}, "d_k"),
        ({"P_T_dBm": False}, "P_T_dBm"),
        ({"d_k": "500"}, "d_k"),
        ({"pattern_q": None}, "pattern_q"),
        ({"obstacles": [(50.0, True, 1.0)]}, "obstacle parameters"),
    ], ids=["d_k_bool", "P_T_bool", "d_k_string", "pattern_q_none", "obstacle_bool"])
    def test_non_number_float_field_rejected(self, fields, name):
        with pytest.raises(DomainError, match=f"{name} must be a real number"):
            ScenarioConfig(**fields)

    def test_int_and_numpy_float_fields_accepted(self):
        scen = ScenarioConfig(d_k=500, P_T_dBm=np.float64(40.0), obstacles=[(50, 30, 1)])
        assert scen.P_T_W == ScenarioConfig().P_T_W and scen.d_k == 500.0
        # stored as Python floats, so that the config prints as the float one does
        assert type(scen.d_k) is float and type(scen.P_T_dBm) is float
        assert all(type(v) is float for v in scen.obstacles[0])
        assert repr(scen) == repr(ScenarioConfig(d_k=500.0, obstacles=((50.0, 30.0, 1.0),)))

    @pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
    def test_non_integer_size_rejected(self, value):
        with pytest.raises(DomainError, match="M must be an integer"):
            ScenarioConfig(M=value)

    def test_numpy_integer_size_accepted(self):
        assert ScenarioConfig(M=np.int64(3)).M == 3
