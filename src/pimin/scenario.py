"""Physical parameters, path-loss physics and seeded channel realizations.

A :class:`ScenarioConfig` owns every knob of one simulated deployment: array
sizes, node distances, antenna gains, RIS element geometry, noise levels and
the optimization targets. :func:`generate_channels` turns a config plus a
seeded random stream into one :class:`ChannelSet` realization with Rayleigh
small-scale fading and path-loss-scaled complex gains.

Distances are consumed directly; no coordinate geometry is modeled. All dB
valued config fields carry their unit in the field name (``_dB``, ``_dBm``,
``_dBi``) and are converted to linear scale on use.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields, replace
from typing import Sequence

import numpy as np

from .errors import DimensionError, DomainError

SPEED_OF_LIGHT = 299792458.0
FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------------------
# Unit conversions
# ---------------------------------------------------------------------------

def db_to_linear(x_db: float) -> float:
    """Power ratio from dB."""
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    """dB from a positive power ratio; ``-inf`` for zero."""
    if x < 0.0:
        raise DomainError(f"cannot express negative power {x} in dB")
    if x == 0.0:
        return float("-inf")
    return 10.0 * math.log10(x)


def dbm_to_watt(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


# ---------------------------------------------------------------------------
# Input checks shared by the configs and their JSON loaders
# ---------------------------------------------------------------------------

def check_count(name: str, value, minimum: int) -> None:
    """Raise ``DomainError`` unless ``value`` is an integer, not a bool, ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


def known_fields(cls, d, what: str) -> dict:
    """A copy of the JSON object ``d`` whose keys are all ``init`` fields of ``cls``."""
    if not isinstance(d, dict):
        raise DomainError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - {f.name for f in fields(cls) if f.init}
    if unknown:
        raise DomainError(f"unknown {what} fields: {sorted(unknown)}")
    return dict(d)


# ---------------------------------------------------------------------------
# RIS element description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RisSpec:
    """Geometry and radiation pattern of a single RIS element.

    ``pattern_r``/``pattern_t`` are the normalized power radiation pattern
    values in the incidence and reflection directions, both in [0, 1].
    """

    a_ris: float = 1.0          # reflection coefficient, 1 for a passive RIS
    d_x: float = 0.004283       # element size along x (m)
    d_y: float = 0.004283       # element size along y (m)
    elevation_r: float = 0.0    # incidence elevation (rad)
    elevation_t: float = 0.0    # reflection elevation (rad)
    pattern_r: float = 1.0
    pattern_t: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.a_ris <= 1.0):
            raise DomainError(f"a_ris must lie in (0, 1], got {self.a_ris}")
        for name in ("pattern_r", "pattern_t"):
            val = getattr(self, name)
            if not (0.0 <= val <= 1.0):
                raise DomainError(f"{name} must lie in [0, 1], got {val}")


def pattern_value(kind: str, elevation: float, q: float) -> float:
    """Normalized element power pattern at the given elevation angle.

    ``unity`` ignores the angle; ``cos_q`` is ``max(cos(elevation), 0)**q``.
    """
    if kind == "unity":
        return 1.0
    if kind == "cos_q":
        return max(math.cos(elevation), 0.0) ** q
    raise DomainError(f"unknown radiation pattern {kind!r}")


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScenarioConfig:
    """All physical and solver-facing parameters of one deployment."""

    # array sizes
    M_t: int = 4            # BS transmit antennas
    M_r: int = 2            # user receive antennas
    M: int = 8              # passive-radar receive antennas
    N_x: int = 4            # RIS columns
    N_y: int = 4            # RIS rows
    L: int = 2              # time samples per block

    # carrier and power
    f_c_Hz: float = 28e9
    P_T_dBm: float = 40.0
    G_T_dBi: float = 25.0
    G_R_c_dBi: float = 12.0
    G_R_PR_dBi: float = 25.0
    G_LNA_dB: float = 40.0

    # node distances (m)
    d_k: float = 500.0      # BS -> user
    d_Rk: float = 40.0      # RIS -> user
    d_cR: float = 140.0     # BS -> RIS
    d_DPI: float = 145.0    # BS -> PR
    d_rR: float = 10.0      # RIS -> PR
    d_Bt: float = 140.0     # BS -> target
    d_tPR: float = 60.0     # target -> PR
    d_tR: float = 55.0      # target -> RIS

    pathloss_exponent: float = 2.0

    # RIS element geometry and pattern
    A_ris: float = 1.0
    d_x_m: float = 0.004283     # 0.4 wavelengths at 28 GHz
    d_y_m: float = 0.004283
    radiation_pattern: str = "unity"    # "unity" or "cos_q"
    pattern_q: float = 2.0
    ris_elevation_r_rad: float = 0.0
    ris_elevation_t_rad: float = 0.0

    # target and clutter
    sigma_t_m2: float = 5.0
    obstacles: tuple[tuple[float, float, float], ...] = ()
    # each obstacle: (d_B_ob, d_ob_PR, rcs_m2)

    # noise and optimization targets
    sigma_c2_dBm: float = -80.0
    sigma_r2_dBm: float = -80.0
    P_B_dB: float = 0.0
    gamma_comm_dB: float = 0.0
    gamma_sense_dB: float = 0.0

    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("M_t", "M_r", "M", "N_x", "N_y", "L"):
            check_count(name, getattr(self, name), 1)
        for name in ("d_k", "d_Rk", "d_cR", "d_DPI", "d_rR", "d_Bt", "d_tPR", "d_tR",
                     "f_c_Hz", "d_x_m", "d_y_m"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (0.0 < self.A_ris <= 1.0):
            raise DomainError(f"A_ris must lie in (0, 1], got {self.A_ris}")
        pattern_value(self.radiation_pattern, 0.0, self.pattern_q)  # validates kind
        object.__setattr__(self, "obstacles", tuple(tuple(ob) for ob in self.obstacles))
        for ob in self.obstacles:
            if len(ob) != 3:
                raise DimensionError(f"obstacle entries are (d_B_ob, d_ob_PR, rcs_m2), got {ob}")
            if any(v <= 0 for v in ob):
                raise DomainError(f"obstacle parameters must be > 0, got {ob}")

    # derived quantities -----------------------------------------------------

    @property
    def N(self) -> int:
        return self.N_x * self.N_y

    @property
    def Q(self) -> int:
        return len(self.obstacles)

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / self.f_c_Hz

    @property
    def P_T_W(self) -> float:
        return dbm_to_watt(self.P_T_dBm)

    @property
    def sigma_c2_W(self) -> float:
        return dbm_to_watt(self.sigma_c2_dBm)

    @property
    def sigma_r2_W(self) -> float:
        return dbm_to_watt(self.sigma_r2_dBm)

    @property
    def P_B(self) -> float:
        return db_to_linear(self.P_B_dB)

    @property
    def gamma_comm(self) -> float:
        return db_to_linear(self.gamma_comm_dB)

    @property
    def gamma_sense(self) -> float:
        return db_to_linear(self.gamma_sense_dB)

    @property
    def g_t_lin(self) -> float:
        return db_to_linear(self.G_T_dBi)

    @property
    def g_r_c_lin(self) -> float:
        return db_to_linear(self.G_R_c_dBi)

    @property
    def g_r_pr_lin(self) -> float:
        return db_to_linear(self.G_R_PR_dBi)

    @property
    def g_lna_lin(self) -> float:
        return db_to_linear(self.G_LNA_dB)

    def ris_spec(self) -> RisSpec:
        return RisSpec(
            a_ris=self.A_ris,
            d_x=self.d_x_m,
            d_y=self.d_y_m,
            elevation_r=self.ris_elevation_r_rad,
            elevation_t=self.ris_elevation_t_rad,
            pattern_r=pattern_value(self.radiation_pattern, self.ris_elevation_r_rad,
                                    self.pattern_q),
            pattern_t=pattern_value(self.radiation_pattern, self.ris_elevation_t_rad,
                                    self.pattern_q),
        )

    # serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["obstacles"] = [list(ob) for ob in self.obstacles]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScenarioConfig":
        d = known_fields(cls, d, "scenario")
        if "obstacles" in d:
            d = dict(d, obstacles=tuple(tuple(ob) for ob in d["obstacles"]))
        return cls(**d)


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ScenarioConfig.from_json_dict(json.load(fh))


def save_config(cfg: ScenarioConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg.to_json_dict(), fh, indent=2)
        fh.write("\n")


# ---------------------------------------------------------------------------
# Path-loss and RCS formulas
# ---------------------------------------------------------------------------

def _check_positive(**kwargs: float) -> None:
    for name, val in kwargs.items():
        if not val > 0.0:
            raise DomainError(f"{name} must be > 0, got {val}")


def pathloss_direct(wavelength: float, p_t: float, g_t: float, g_r: float,
                    d: float, exponent: float = 2.0) -> float:
    """Amplitude gain of a single-bounce (direct) link.

    ``sqrt(lambda^2 P G_T G_R / ((4 pi)^2 d^exponent))``; at the free-space
    exponent of 2 the output halves when the distance doubles.
    """
    _check_positive(wavelength=wavelength, p_t=p_t, g_t=g_t, g_r=g_r, d=d)
    return math.sqrt(wavelength**2 * p_t * g_t * g_r / (FOUR_PI**2 * d**exponent))


def pathloss_reflected(wavelength: float, p_t: float, g_t: float, g_r: float,
                       sigma_ris: float, d1: float, d2: float,
                       exponent: float = 2.0) -> float:
    """Amplitude gain of a two-hop link through a reflector of RCS ``sigma_ris``.

    ``sqrt(lambda^2 P G_T G_R sigma / ((4 pi)^3 d1^exponent d2^exponent))``.
    """
    _check_positive(wavelength=wavelength, p_t=p_t, g_t=g_t, g_r=g_r,
                    sigma_ris=sigma_ris, d1=d1, d2=d2)
    return math.sqrt(
        wavelength**2 * p_t * g_t * g_r * sigma_ris
        / (FOUR_PI**3 * d1**exponent * d2**exponent)
    )


def ris_rcs(spec: RisSpec, wavelength: float) -> float:
    """Radar cross-section of one RIS element in the far field (m^2)."""
    _check_positive(wavelength=wavelength)
    s_sub = spec.d_x * spec.d_y
    return FOUR_PI * spec.a_ris**2 * s_sub**2 / wavelength**2 * spec.pattern_r * spec.pattern_t


def higher_order_gain(order: int, wavelength: float, p_t: float, g_t: float,
                      g_r: float, sigma_ris: float, sigma_t: float,
                      distances: Sequence[float], exponent: float = 2.0) -> float:
    """Amplitude gain of a multi-hop sensing path of the given bounce order.

    Extends the one- and two-hop formulas multiplicatively: one ``(4 pi)`` and
    one ``d^exponent`` per hop, one cross-section per scatterer. Order 2 is the
    direct echo (target RCS only), order 3 adds one RIS bounce, order 4 two.
    """
    if order not in (2, 3, 4):
        raise DomainError(f"order must be 2, 3 or 4, got {order}")
    if len(distances) != order:
        raise DimensionError(f"order {order} path needs {order} distances, got {len(distances)}")
    _check_positive(wavelength=wavelength, p_t=p_t, g_t=g_t, g_r=g_r,
                    sigma_ris=sigma_ris, sigma_t=sigma_t)
    for i, d in enumerate(distances):
        _check_positive(**{f"distance_{i}": d})
    cross = {2: sigma_t, 3: sigma_t * sigma_ris, 4: sigma_t * sigma_ris**2}[order]
    dist_prod = 1.0
    for d in distances:
        dist_prod *= d**exponent
    return math.sqrt(wavelength**2 * p_t * g_t * g_r * cross
                     / (FOUR_PI ** (order + 1) * dist_prod))


# ---------------------------------------------------------------------------
# Channel generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelSet:
    """One realization of every channel matrix and complex path gain.

    Small-scale matrices hold i.i.d. unit-variance circularly-symmetric
    Gaussian entries; large-scale path gains carry the path-loss magnitude
    with a uniform random phase.
    """

    H_k: np.ndarray     # (M_r, M_t) BS -> user
    H_Rk: np.ndarray    # (M_r, N) RIS -> user
    H_cR: np.ndarray    # (N, M_t) BS -> RIS
    H_DPI: np.ndarray   # (M, M_t) BS -> PR
    G_rR: np.ndarray    # (N, M) PR -> RIS
    g_t: np.ndarray     # (M,)   target -> PR
    h_t: np.ndarray     # (M_t,) BS -> target
    g_Rt: np.ndarray    # (N,)   target -> RIS
    obstacles: tuple[tuple[np.ndarray, np.ndarray, complex], ...]
    # per obstacle: (g_ob (M,), h_ob (M_t,), gain)

    gamma_c_d: complex
    gamma_c_r: complex
    gamma_DPI: complex
    gamma_RPI: complex
    gamma_s1: complex
    gamma_s2: complex
    gamma_s3: complex
    gamma_s4: complex

    @property
    def dims(self) -> tuple[int, int, int, int]:
        """(M_r, M_t, M, N)."""
        return (self.H_k.shape[0], self.H_k.shape[1], self.H_DPI.shape[0], self.H_cR.shape[0])

    def without_ris(self) -> "ChannelSet":
        """Copy with every RIS-coupled path gain zeroed (no-RIS baseline)."""
        return replace(self, gamma_c_r=0j, gamma_RPI=0j, gamma_s2=0j,
                       gamma_s3=0j, gamma_s4=0j)


def _cn_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """i.i.d. CN(0, 1) entries, read-only."""
    out = (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) \
        / math.sqrt(2.0)
    out.flags.writeable = False
    return out


def _cn_vector(rng: np.random.Generator, n: int) -> np.ndarray:
    return _cn_matrix(rng, n, 1)[:, 0]


def generate_channels(config: ScenarioConfig, rng: np.random.Generator) -> ChannelSet:
    """Draw one Rayleigh channel realization with path-loss-scaled gains.

    Each matrix is drawn from its own child stream of ``rng``, so a given seed
    reproduces a given matrix regardless of the sizes of the other arrays.
    Every returned array is read-only, so one realization can be shared by
    several solves.
    """
    lam = config.wavelength
    p_t = config.P_T_W
    exp = config.pathloss_exponent
    sigma_ris = ris_rcs(config.ris_spec(), lam)

    children = rng.spawn(10 + config.Q)
    (rng_hk, rng_hrk, rng_hcr, rng_hdpi, rng_grr,
     rng_gt, rng_ht, rng_grt, rng_phase, rng_ob_phase) = children[:10]

    def gain(magnitude: float, stream: np.random.Generator) -> complex:
        phase = stream.uniform(0.0, 2.0 * math.pi)
        return magnitude * complex(math.cos(phase), math.sin(phase))

    gamma_c_d = gain(pathloss_direct(lam, p_t, config.g_t_lin, config.g_r_c_lin,
                                     config.d_k, exp), rng_phase)
    gamma_c_r = gain(pathloss_reflected(lam, p_t, config.g_t_lin, config.g_r_c_lin,
                                        sigma_ris, config.d_Rk, config.d_cR, exp), rng_phase)
    gamma_dpi = gain(pathloss_direct(lam, p_t, config.g_t_lin, config.g_r_pr_lin,
                                     config.d_DPI, exp), rng_phase)
    gamma_rpi = gain(pathloss_reflected(lam, p_t, config.g_t_lin, config.g_r_pr_lin,
                                        sigma_ris, config.d_rR, config.d_cR, exp), rng_phase)
    g_pr = config.g_r_pr_lin
    sigma_t = config.sigma_t_m2
    gamma_s1 = gain(higher_order_gain(2, lam, p_t, config.g_t_lin, g_pr, sigma_ris, sigma_t,
                                      [config.d_Bt, config.d_tPR], exp), rng_phase)
    gamma_s2 = gain(higher_order_gain(3, lam, p_t, config.g_t_lin, g_pr, sigma_ris, sigma_t,
                                      [config.d_Bt, config.d_tR, config.d_rR], exp), rng_phase)
    gamma_s3 = gain(higher_order_gain(3, lam, p_t, config.g_t_lin, g_pr, sigma_ris, sigma_t,
                                      [config.d_cR, config.d_tR, config.d_tPR], exp), rng_phase)
    gamma_s4 = gain(higher_order_gain(4, lam, p_t, config.g_t_lin, g_pr, sigma_ris, sigma_t,
                                      [config.d_cR, config.d_tR, config.d_tR, config.d_rR],
                                      exp), rng_phase)

    obstacles = []
    for i, (d_b_ob, d_ob_pr, rcs) in enumerate(config.obstacles):
        ob_rng = children[10 + i]
        g_ob = _cn_vector(ob_rng, config.M)
        h_ob = _cn_vector(ob_rng, config.M_t)
        gamma_ob = gain(higher_order_gain(2, lam, p_t, config.g_t_lin, g_pr, sigma_ris, rcs,
                                          [d_b_ob, d_ob_pr], exp), rng_ob_phase)
        obstacles.append((g_ob, h_ob, gamma_ob))

    return ChannelSet(
        H_k=_cn_matrix(rng_hk, config.M_r, config.M_t),
        H_Rk=_cn_matrix(rng_hrk, config.M_r, config.N),
        H_cR=_cn_matrix(rng_hcr, config.N, config.M_t),
        H_DPI=_cn_matrix(rng_hdpi, config.M, config.M_t),
        G_rR=_cn_matrix(rng_grr, config.N, config.M),
        g_t=_cn_vector(rng_gt, config.M),
        h_t=_cn_vector(rng_ht, config.M_t),
        g_Rt=_cn_vector(rng_grt, config.N),
        obstacles=tuple(obstacles),
        gamma_c_d=gamma_c_d,
        gamma_c_r=gamma_c_r,
        gamma_DPI=gamma_dpi,
        gamma_RPI=gamma_rpi,
        gamma_s1=gamma_s1,
        gamma_s2=gamma_s2,
        gamma_s3=gamma_s3,
        gamma_s4=gamma_s4,
    )


# ---------------------------------------------------------------------------
# Canned desk-scale scenarios
# ---------------------------------------------------------------------------

def desk_scenario(**overrides) -> ScenarioConfig:
    """Small-footprint scenario with a comfortably feasible sensing target.

    The RIS sits near the radar with panel-sized elements so the reflected
    interference path is within a few dB of the direct one, which is the
    regime where phase optimization has leverage. The target sits close
    enough that the sensing constraint at 0 dB is satisfiable with margin.
    """
    lam = SPEED_OF_LIGHT / 28e9
    base = dict(
        M_t=2, M_r=2, M=4, N_x=2, N_y=2, L=2,
        d_x_m=16 * lam, d_y_m=16 * lam,
        d_k=500.0, d_Rk=40.0, d_cR=140.0, d_DPI=145.0, d_rR=10.0,
        d_Bt=140.0, d_tPR=60.0, d_tR=55.0,
        sigma_t_m2=5.0,
        sigma_c2_dBm=-80.0, sigma_r2_dBm=-80.0,
        P_B_dB=0.0, gamma_comm_dB=0.0, gamma_sense_dB=0.0,
        seed=0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def desk_bench_scenario(**overrides) -> ScenarioConfig:
    """Desk-scale scenario with a demanding sensing target.

    The target is distant and small, so the sensing constraint binds hard:
    random or equal RIS phases leave the covariance subproblem infeasible and
    the transmit covariance stays at its seeded initialization, which makes
    method comparisons isolate the phase design, mirroring the benchmark
    behavior seen at full scale where unoptimized designs sit far below the
    required sensing ratio.
    """
    base = dict(
        M_t=4, M_r=2, M=8, N_x=4, N_y=4, L=2,
        d_Bt=450.0, d_tPR=420.0, d_tR=415.0,
        sigma_t_m2=1.0,
        gamma_sense_dB=10.0,
    )
    base.update(overrides)
    return desk_scenario(**base)
