"""Effective per-block channels as functions of the RIS phase vector.

Every receive-side channel in the model is block-diagonal over the time
samples (an identity-Kronecker structure), so only the repeated diagonal
block is ever materialized here. Phase-shift products ``diag(phi) @ v`` are
Hadamard products throughout. The blocks that ``build_effective_channels``
returns are read-only. ``beam_products`` forms the products of radar weights
with these blocks that both the covariance step and the figures of merit read,
so one outer iteration forms them once and hands the same record to both.
``build_effective_channels`` checks the phase vector once and runs the four
private block kernels on the raw arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .linalg import _kron_apply
from .scenario import ChannelSet

UNIT_MODULUS_TOL = 1e-9


def check_phases(phi: np.ndarray, n: int) -> np.ndarray:
    """``phi`` as a complex vector of ``n`` reflection coefficients, each of unit
    modulus or exactly 0, an RIS element that is off; anything else raises."""
    phi = np.asarray(phi, dtype=np.complex128)
    if phi.shape != (n,):
        raise DimensionError(f"phase vector has shape {phi.shape}, expected ({n},)")
    # written so that a NaN entry fails it and an empty vector passes it
    if not ((np.abs(np.abs(phi) - 1.0) <= UNIT_MODULUS_TOL) | (phi == 0)).all():
        raise DomainError("phase vector entries must have unit modulus or be exactly 0")
    return phi


@dataclass(frozen=True)
class EffectiveChannels:
    """Diagonal blocks of the four effective channels at a fixed phase vector."""

    Hc_block: np.ndarray    # (M_r, M_t) user-side composite channel
    Ac_block: np.ndarray    # (M, M_t) path interference (direct + reflected)
    Ar_block: np.ndarray    # (M, M_t) four-path target echo
    Ao_block: np.ndarray    # (M, M_t) obstacle returns, zero when no obstacles


@dataclass(frozen=True)
class BeamProducts:
    """Products of one radar weight vector ``w`` with one set of effective channels."""

    w: np.ndarray       # (L M,) radar weights
    u: np.ndarray       # (L M_t,) (I_L kron Ac)^H w
    a: np.ndarray       # (L M_t,) (I_L kron Ar)^H w
    o: np.ndarray       # (L M_t,) (I_L kron Ao)^H w
    gram: np.ndarray    # (M_t, M_t) Hc^H Hc

    @property
    def n_samples(self) -> int:
        return len(self.u) // self.gram.shape[0]


def beam_products(eff: EffectiveChannels, w: np.ndarray) -> BeamProducts:
    """The beam products of ``w``, a stack of ``L`` per-sample weight vectors."""
    w = np.asarray(w, dtype=np.complex128)
    m = eff.Ac_block.shape[0]
    if w.ndim != 1 or len(w) % m != 0:
        raise DimensionError(f"w has shape {w.shape}, expected (L * {m},)")
    u, a, o = (_kron_apply(b.conj().T, w) for b in (eff.Ac_block, eff.Ar_block, eff.Ao_block))
    return BeamProducts(w=w, u=u, a=a, o=o, gram=eff.Hc_block.conj().T @ eff.Hc_block)


# Block kernels: ``phi`` is a complex vector of length N, not checked.

def _comm_block(ch: ChannelSet, phi: np.ndarray) -> np.ndarray:
    return ch.gamma_c_d * ch.H_k + ch.gamma_c_r * ((ch.H_Rk * phi[None, :]) @ ch.H_cR)


def _pi_block(ch: ChannelSet, phi: np.ndarray) -> np.ndarray:
    return ch.gamma_DPI * ch.H_DPI \
        + ch.gamma_RPI * ((ch.G_rR.conj().T * phi[None, :]) @ ch.H_cR)


def _sensing_block(ch: ChannelSet, phi: np.ndarray) -> np.ndarray:
    ht_row = ch.h_t.conj()[None, :]
    ris_to_pr = ch.G_rR.conj().T @ (phi * ch.g_Rt)          # (M,)
    ris_from_bs = (ch.g_Rt.conj() * phi) @ ch.H_cR          # (M_t,)
    return (
        ch.gamma_s1 * ch.g_t[:, None] @ ht_row
        + ch.gamma_s2 * ris_to_pr[:, None] @ ht_row
        + ch.gamma_s3 * ch.g_t[:, None] @ ris_from_bs[None, :]
        + ch.gamma_s4 * ris_to_pr[:, None] @ ris_from_bs[None, :]
    )


def _obstacle_block(ch: ChannelSet) -> np.ndarray:
    """Sum of rank-one obstacle returns; a zero block when the scene is clear."""
    m, m_t = ch.H_DPI.shape
    out = np.zeros((m, m_t), dtype=np.complex128)
    for g_ob, h_ob, gamma_ob in ch.obstacles:
        out += gamma_ob * g_ob[:, None] @ h_ob.conj()[None, :]
    return out


def build_effective_channels(ch: ChannelSet, phi: np.ndarray) -> EffectiveChannels:
    """The four blocks at ``phi``, each read-only; ``phi`` is checked once."""
    phi = check_phases(phi, ch.H_cR.shape[0])
    blocks = (_comm_block(ch, phi), _pi_block(ch, phi), _sensing_block(ch, phi),
              _obstacle_block(ch))
    for block in blocks:
        block.flags.writeable = False
    return EffectiveChannels(*blocks)
