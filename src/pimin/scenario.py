"""Physical parameters, the link budget and seeded channel realizations.

A :class:`ScenarioConfig` owns every knob of one simulated deployment: array
sizes, node distances, antenna gains, RIS element geometry, noise levels and
the optimization targets. Its ``__post_init__`` is the one place that decides
whether a scenario is valid, so the formulas below never check their
arguments. :func:`generate_channels` turns a config plus a seeded random
stream into one :class:`ChannelSet` realization with Rayleigh small-scale
fading and complex path gains. Every path gain, direct, RIS-reflected or
echoed, comes from the one list of paths :func:`_path_gains` through the one
link budget :func:`_link_gain`; a config evaluates that list when it is
built and keeps it, so a gain out of float range is rejected there and a draw
reads the list rather than recomputing it. The RIS element's
cross-section ``ScenarioConfig.sigma_ris_m2`` follows the far-field model of
Tang et al., "Wireless Communications With Reconfigurable Intelligent
Surface: Path Loss Modeling and Experimental Measurement", IEEE TWC 2021.

Distances are consumed directly; no coordinate geometry is modeled. All dB
valued config fields carry their unit in the field name (``_dB``, ``_dBm``,
``_dBi``) and are converted to linear scale on use.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass, fields
from functools import cached_property
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
    if not x >= 0.0:
        raise DomainError("cannot express a NaN power in dB" if math.isnan(x)
                          else f"cannot express negative power {x} in dB")
    if x == 0.0:
        return float("-inf")
    return 10.0 * math.log10(x)


def dbm_to_watt(x_dbm: float) -> float:
    return db_to_linear(x_dbm - 30.0)


# ---------------------------------------------------------------------------
# Input checks shared by the configs and their JSON loaders
# ---------------------------------------------------------------------------

def check_count(name: str, value, minimum: int) -> None:
    """Raise ``DomainError`` unless ``value`` is an integer, not a bool, ``>= minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise DomainError(f"{name} must be >= {minimum}, got {value}")


def check_real(name: str, value) -> None:
    """Raise ``DomainError`` unless ``value`` is a real number, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")


def known_fields(cls, d, what: str) -> dict:
    """A copy of the JSON object ``d`` whose keys are all ``init`` fields of ``cls``."""
    if not isinstance(d, dict):
        raise DomainError(f"{what} must be a JSON object, got {type(d).__name__}")
    unknown = set(d) - {f.name for f in fields(cls) if f.init}
    if unknown:
        raise DomainError(f"unknown {what} fields: {sorted(unknown)}")
    return dict(d)


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
    pattern_q: float = 0.0      # element power pattern cos^q; 0 is isotropic
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
        check_count("seed", self.seed, 0)
        # a float field holds a Python float, so that equal configs print alike
        for f in fields(self):
            if f.type == "float":
                value = getattr(self, f.name)
                check_real(f.name, value)
                if not math.isfinite(value):
                    raise DomainError(f"{f.name} must be finite, got {value}")
                object.__setattr__(self, f.name, float(value))
        for name in ("d_k", "d_Rk", "d_cR", "d_DPI", "d_rR", "d_Bt", "d_tPR", "d_tR",
                     "f_c_Hz", "d_x_m", "d_y_m", "sigma_t_m2"):
            if not getattr(self, name) > 0.0:
                raise DomainError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (0.0 < self.A_ris <= 1.0):
            raise DomainError(f"A_ris must lie in (0, 1], got {self.A_ris}")
        if not self.pattern_q >= 0.0:
            raise DomainError(f"pattern_q must be >= 0, got {self.pattern_q}")
        obstacles = tuple(tuple(ob) for ob in self.obstacles)
        for ob in obstacles:
            if len(ob) != 3:
                raise DimensionError(f"obstacle entries are (d_B_ob, d_ob_PR, rcs_m2), got {ob}")
            for v in ob:
                check_real("obstacle parameters", v)
            if not all(0 < v < math.inf for v in ob):
                raise DomainError(f"obstacle parameters must be finite and > 0, got {ob}")
        object.__setattr__(self, "obstacles",
                           tuple(tuple(float(v) for v in ob) for ob in obstacles))
        # the link-budget factors, noise powers and targets that a dB field or
        # the element size can take out of float range
        try:
            budget = {name: getattr(self, name) for name in
                      ("P_T_W", "g_t_lin", "g_r_c_lin", "g_r_pr_lin", "g_lna_lin",
                       "sigma_ris_m2", "sigma_c2_W", "sigma_r2_W", "P_B", "gamma_comm",
                       "gamma_sense")}
        except OverflowError as exc:
            raise DomainError(f"a link-budget factor overflows: {exc}") from exc
        for name, value in budget.items():
            if not value > 0.0:
                raise DomainError(f"{name} must be > 0, got {value}")
        # a distance power or a product of cross-sections can still leave float range
        try:
            magnitudes = self.path_gains
        except (OverflowError, ZeroDivisionError) as exc:
            raise DomainError(f"a path gain is out of float range: {exc}") from exc
        if not all(0.0 < g < math.inf for g in magnitudes):
            raise DomainError(f"a path gain is out of float range: {list(magnitudes)}")

    # derived quantities -----------------------------------------------------

    @cached_property
    def path_gains(self) -> tuple[float, ...]:
        """The path-gain magnitudes of ``_path_gains``, evaluated once, when the
        config is built; every channel draw reads them from here."""
        return tuple(_path_gains(self))

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

    @property
    def sigma_ris_m2(self) -> float:
        """Far-field radar cross-section of one RIS element (m^2), after Tang et al.

        The element's power pattern is ``max(cos(elevation), 0)**pattern_q`` at the
        incidence and at the reflection elevation; at the default ``pattern_q = 0``
        it is 1 everywhere (``0.0**0.0 == 1.0``), the isotropic element.
        """
        pattern_r, pattern_t = (max(math.cos(e), 0.0) ** self.pattern_q
                                for e in (self.ris_elevation_r_rad, self.ris_elevation_t_rad))
        s_sub = self.d_x_m * self.d_y_m
        return FOUR_PI * self.A_ris**2 * s_sub**2 / self.wavelength**2 * pattern_r * pattern_t

    # serialization ------------------------------------------------------------

    def to_json_dict(self) -> dict:
        d = asdict(self)
        d["obstacles"] = [list(ob) for ob in self.obstacles]
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "ScenarioConfig":
        return cls(**known_fields(cls, d, "scenario"))


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return ScenarioConfig.from_json_dict(json.load(fh))


# ---------------------------------------------------------------------------
# Link budget
# ---------------------------------------------------------------------------

def _link_gain(wavelength: float, p_t: float, g_t: float, g_r: float, cross: float,
               distances: Sequence[float], exponent: float) -> float:
    """Amplitude gain of a path of ``len(distances)`` hops.

    ``sqrt(lambda^2 P G_T G_R cross / ((4 pi)^(hops+1) prod d^exponent))``:
    one ``(4 pi)`` and one ``d^exponent`` per hop, and ``cross`` the product
    of the scatterers' cross-sections, 1 for a direct link. At the free-space
    exponent of 2 the gain halves when any one distance doubles.
    """
    return math.sqrt(wavelength**2 * p_t * g_t * g_r * cross
                     / (FOUR_PI ** (len(distances) + 1)
                        * math.prod(d**exponent for d in distances)))


def _path_gains(config: ScenarioConfig) -> list[float]:
    """The magnitudes of ``gamma_c_d, gamma_c_r, gamma_DPI, gamma_RPI,
    gamma_s1..gamma_s4`` and of each obstacle's gain, in that order."""
    g_c, g_pr = config.g_r_c_lin, config.g_r_pr_lin
    sigma_ris, sigma_t = config.sigma_ris_m2, config.sigma_t_m2
    d_cR, d_rR, d_tR, d_tPR = config.d_cR, config.d_rR, config.d_tR, config.d_tPR
    paths = [
        (g_c, 1.0, (config.d_k,)),
        (g_c, sigma_ris, (config.d_Rk, d_cR)),
        (g_pr, 1.0, (config.d_DPI,)),
        (g_pr, sigma_ris, (d_rR, d_cR)),
        (g_pr, sigma_t, (config.d_Bt, d_tPR)),
        (g_pr, sigma_t * sigma_ris, (config.d_Bt, d_tR, d_rR)),
        (g_pr, sigma_t * sigma_ris, (d_cR, d_tR, d_tPR)),
        (g_pr, sigma_t * sigma_ris**2, (d_cR, d_tR, d_tR, d_rR)),
    ]
    paths += [(g_pr, rcs, (d_b_ob, d_ob_pr)) for d_b_ob, d_ob_pr, rcs in config.obstacles]
    lam, p_t, g_t = config.wavelength, config.P_T_W, config.g_t_lin
    return [_link_gain(lam, p_t, g_t, g_r, cross, distances, config.pathloss_exponent)
            for g_r, cross, distances in paths]


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
    children = rng.spawn(10 + config.Q)
    (rng_hk, rng_hrk, rng_hcr, rng_hdpi, rng_grr,
     rng_gt, rng_ht, rng_grt, rng_phase, rng_ob_phase) = children[:10]

    def with_phase(magnitude: float, stream: np.random.Generator) -> complex:
        phase = stream.uniform(0.0, 2.0 * math.pi)
        return magnitude * complex(math.cos(phase), math.sin(phase))

    magnitudes = config.path_gains
    # the eight phases are drawn from one stream in path order, the
    # obstacles' from another
    (gamma_c_d, gamma_c_r, gamma_dpi, gamma_rpi,
     gamma_s1, gamma_s2, gamma_s3, gamma_s4) = (with_phase(g, rng_phase) for g in magnitudes[:8])
    obstacles = [(_cn_vector(ob_rng, config.M), _cn_vector(ob_rng, config.M_t),
                  with_phase(g, rng_ob_phase))
                 for ob_rng, g in zip(children[10:], magnitudes[8:])]

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
    Every field it does not set keeps its ``ScenarioConfig`` default.
    """
    lam = SPEED_OF_LIGHT / ScenarioConfig.f_c_Hz
    base = dict(M_t=2, M=4, N_x=2, N_y=2, d_x_m=16 * lam, d_y_m=16 * lam)
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
        M_t=4, M=8, N_x=4, N_y=4,
        d_Bt=450.0, d_tPR=420.0, d_tR=415.0,
        sigma_t_m2=1.0,
        gamma_sense_dB=10.0,
    )
    base.update(overrides)
    return desk_scenario(**base)
