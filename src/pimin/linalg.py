"""Dense complex linear-algebra kernels.

Everything downstream funnels its matrix work through the two operations
here: Hermitian eigendecomposition and block-structured products with
identity-Kronecker matrices. All functions are
pure and operate on immutable inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, HermitianError

# Eigenvalues smaller than this fraction of the largest magnitude are treated
# as zero wherever a square root is taken.
EIG_ZERO_REL = 1e-12


def _as_complex_matrix(a: np.ndarray, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def _frobenius(flat: np.ndarray) -> float:
    """The 2-norm of a contiguous complex vector, as one real dot of its float64 view."""
    v = flat.view(np.float64)
    return math.sqrt(v.dot(v))


def check_hermitian(a: np.ndarray, rel_tol: float = 1e-8, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square and Hermitian within ``rel_tol`` (Frobenius)."""
    a = _as_complex_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    scale, asym = _frobenius(np.ravel(a)), _frobenius((a - a.conj().T).ravel())
    if asym > rel_tol * max(scale, 1e-300):
        raise HermitianError(
            f"{name} is not Hermitian: ||A - A^H|| = {asym:.3e} vs ||A|| = {scale:.3e}"
        )
    return a


@dataclass(frozen=True)
class EvdResult:
    """Eigendecomposition of a Hermitian matrix.

    Attributes
    ----------
    eigenvalues : (n,) real array, sorted descending.
    eigenvectors : (n, n) complex array with orthonormal columns; column i
        pairs with ``eigenvalues[i]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T

    def clipped_eigenvalues(self) -> np.ndarray:
        """Eigenvalues with near-zero entries snapped to exactly zero, read-only.

        Guards the square roots taken downstream against tiny negative
        round-off from the factorization. Computed once per decomposition:
        the forms and every power form of one covariance read the same array.
        """
        return self._clipped

    @cached_property
    def _clipped(self) -> np.ndarray:
        lam = self.eigenvalues.copy()
        cutoff = EIG_ZERO_REL * max(float(np.max(np.abs(lam))), 0.0) if lam.size else 0.0
        lam[np.abs(lam) < cutoff] = 0.0
        lam[lam < 0.0] = 0.0
        lam.flags.writeable = False
        return lam


def hermitian_evd(a: np.ndarray) -> EvdResult:
    """Eigendecomposition of a Hermitian matrix, eigenvalues sorted descending.

    Both arrays are read-only, so one decomposition can be shared.

    Raises
    ------
    DimensionError
        If ``a`` is not square.
    HermitianError
        If ``||a - a^H||_F > 1e-8 ||a||_F``.
    """
    a = check_hermitian(a)
    # Symmetrize before factorizing so round-off asymmetry cannot leak into
    # complex eigenvalues.
    lam, v = np.linalg.eigh(0.5 * (a + a.conj().T))
    # eigh returns ascending eigenvalues, so reversing sorts them descending
    lam, v = lam[::-1].copy(), v[:, ::-1].copy()
    lam.flags.writeable = False
    v.flags.writeable = False
    return EvdResult(eigenvalues=lam, eigenvectors=v)


def kron_identity_apply(h: np.ndarray, v: np.ndarray, blocks: int) -> np.ndarray:
    """Apply ``(I_blocks kron h)`` to ``v`` without forming the Kronecker product.

    ``h`` is (a, b); ``v`` has length ``blocks * b``; the result has length
    ``blocks * a`` with block ``l`` equal to ``h @ v_block_l``.
    """
    h = _as_complex_matrix(h, "h")
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionError(f"v must be 1-D, got shape {v.shape}")
    if blocks < 1:
        raise DimensionError(f"blocks must be >= 1, got {blocks}")
    a, b = h.shape
    if v.shape[0] != blocks * b:
        raise DimensionError(
            f"v has length {v.shape[0]}, expected blocks*cols = {blocks}*{b} = {blocks * b}"
        )
    return (v.reshape(blocks, b) @ h.T).reshape(blocks * a)
