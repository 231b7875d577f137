"""Figures of merit: received powers, SNDR, communication SNR, dynamic range.

Every quadratic power form ``w^H (I_L kron A) R_ss (I_L kron A)^H w`` is read
through one eigendecomposition of the covariance ``R_ss``: with
``u = (I_L kron A)^H w`` it is ``sum_i lam_i |v_i^H u|^2`` over the clipped
eigenpairs, a sum of non-negative terms, so a nulled design reports a tiny
positive power rather than round-off of either sign. The direct form
``u^H R_ss u`` is not used for that reason: on nulled designs it rounds to
values of either sign near 1e-32, and a negative power has no dB value.
``power_breakdown`` reads all three paths through the decomposition of
``R_ss`` that its caller already holds, and reads ``u`` for each path from
the ``BeamProducts`` record that ``sdp.assemble_p2`` also reads. The public
functions check their arguments (``power_breakdown`` through ``comm_snr``);
the unchecked kernel ``_power`` reads one path, and ``power_breakdown`` runs
it for all three on one conjugate transpose of the eigenvectors. Dense
Kronecker matrices are never formed here: ``selfcheck.dense_power_quadratic``
forms them as the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import EvdResult
from .scenario import check_count, linear_to_db
from .sysmodel import BeamProducts


@dataclass(frozen=True)
class PowerBreakdown:
    """The four received-power components at the radar plus derived ratios."""

    p_pi: float
    p_sense: float
    p_obs: float
    p_noise: float
    sndr_db: float
    comm_snr_db: float
    dr_db: float


def _power(u: np.ndarray, vh: np.ndarray, lam: np.ndarray) -> float:
    """``sum_i lam_i |v_i^H u|^2`` for ``u = (I_L kron block)^H w``, with ``vh``
    the conjugate transpose of the eigenvectors and ``lam`` the clipped
    eigenvalues."""
    proj = vh @ u
    return float(lam @ (proj.real**2 + proj.imag**2))


def _reject_nan(**values: float) -> None:
    """Raise ``DomainError`` naming the first of ``values`` that is NaN."""
    for name, value in values.items():
        if math.isnan(value):
            raise DomainError(f"{name} is NaN")


def power_noise(w: np.ndarray, sigma_r2: float) -> float:
    """Noise power after unit-modulus beamforming: exactly ``sigma_r2 * len(w)``."""
    _reject_nan(sigma_r2=sigma_r2)
    return float(sigma_r2) * len(w)


def sndr(p_sense: float, p_pi: float, p_obs: float, p_noise: float) -> float:
    """Sensing power over interference-plus-noise power (linear ratio)."""
    _reject_nan(p_sense=p_sense, p_pi=p_pi, p_obs=p_obs, p_noise=p_noise)
    denom = p_pi + p_obs + p_noise
    if not denom > 0.0:
        raise DomainError("SNDR denominator must be positive")
    return p_sense / denom


def comm_snr(gram: np.ndarray, r_ss: np.ndarray, m_r: int, sigma_c2: float) -> float:
    """Communication SNR: trace form of ``R_ss`` with ``I_L kron gram``, ``gram = Hc^H Hc``;
    ``L`` is the size of ``R_ss`` over ``M_t``, the size of ``gram``."""
    gram = np.asarray(gram, dtype=np.complex128)
    r_ss = np.asarray(r_ss, dtype=np.complex128)
    if gram.ndim != 2 or gram.shape[0] != gram.shape[1] or not gram.size:
        raise DimensionError(f"gram must be a non-empty square matrix, got shape {gram.shape}")
    m_t = gram.shape[0]
    dim = r_ss.shape[0] if r_ss.ndim == 2 else 0
    n_samples, rest = divmod(dim, m_t)
    if rest or not n_samples or r_ss.shape != (dim, dim):
        raise DimensionError(f"covariance has shape {r_ss.shape}, expected a square "
                             f"matrix of a positive multiple of M_t = {m_t}")
    check_count("m_r", m_r, 1)
    _reject_nan(sigma_c2=sigma_c2)
    if not sigma_c2 > 0.0:
        raise DomainError("sigma_c2 must be positive")
    blocks = r_ss.reshape(n_samples, m_t, n_samples, m_t)
    num = np.einsum("lilj,ji->", blocks, gram).real
    return float(num) / (m_r * n_samples * sigma_c2)


def dynamic_range(p_pi: float, p_noise: float) -> float:
    """Interference-to-noise ratio the ADC must span (linear)."""
    _reject_nan(p_pi=p_pi, p_noise=p_noise)
    if not p_noise > 0.0:
        raise DomainError("noise power must be positive")
    return p_pi / p_noise


def adc_snr(n_enob: float) -> float:
    """Peak ADC SNR in dBFS for a given effective number of bits."""
    _reject_nan(n_enob=n_enob)
    if not n_enob >= 0:
        raise DomainError("effective bit count must be >= 0")
    return 6.02 * n_enob + 1.76


def power_breakdown(beams: BeamProducts, r_ss: np.ndarray, sigma_r2: float,
                    sigma_c2: float, m_r: int, evd: EvdResult) -> PowerBreakdown:
    """Evaluate every figure of merit at one (w, phi, R_ss) operating point.

    ``evd`` is the eigendecomposition of ``r_ss`` (``hermitian_evd``).
    """
    snr = comm_snr(beams.gram, r_ss, m_r, sigma_c2)   # checks r_ss
    vh, lam = evd.eigenvectors.conj().T, evd.clipped_eigenvalues
    p_pi, p_sense, p_obs = (_power(u, vh, lam) for u in (beams.u, beams.a, beams.o))
    p_noise = power_noise(beams.w, sigma_r2)
    return PowerBreakdown(
        p_pi=p_pi,
        p_sense=p_sense,
        p_obs=p_obs,
        p_noise=p_noise,
        sndr_db=linear_to_db(sndr(p_sense, p_pi, p_obs, p_noise)),
        comm_snr_db=linear_to_db(snr),
        dr_db=linear_to_db(dynamic_range(p_pi, p_noise)),
    )
