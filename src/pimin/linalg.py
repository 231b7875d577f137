"""Dense complex linear-algebra kernels, and the package's only LAPACK calls.

Everything downstream funnels its matrix work through the operations here:
Hermitian eigendecomposition, block-structured products with
identity-Kronecker matrices, and three thin LAPACK wrappers:

* ``solve(a, b)``: one real square system with a vector right-hand side;
* ``eigh(a)`` and ``eigvalsh(a)``: complex Hermitian input, read from its
  lower triangle, eigenvalues ascending; a stack of matrices is allowed.

Each calls the gufunc that ``numpy.linalg`` itself calls (``solve1``,
``eigh_lo``, ``eigvalsh_lo`` of the private ``numpy.linalg._umath_linalg``)
with a fixed signature, so the LAPACK routine, its inputs and its bits are
those of ``numpy.linalg``'s ``solve``, ``eigh`` and ``eigvalsh``. They skip
numpy's per-call validation and type resolution, which at the solvers' sizes
cost as much as the factorization: every caller passes a float64 (``solve``) or
complex128 (``eigh``, ``eigvalsh``) array it built itself. They keep numpy's
error contract: a singular system or an eigensolver that does not converge
raises ``numpy.linalg.LinAlgError``, under the error state ``numpy.linalg``
uses. There is no fallback: if a numpy release drops these names, importing
the package fails, and ``pimin check`` compares the wrappers with
``numpy.linalg`` bit for bit.

``check_hermitian`` and ``hermitian_evd`` validate their arguments and then
run the private kernel ``_hermitian_part`` on the raw arrays. The other
modules call that kernel, ``_frobenius`` and the identity-Kronecker product
``_kron_apply`` on arrays that they built themselves.

All functions are pure and operate on immutable inputs, so they are safe to
call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import DimensionError, DomainError, HermitianError

_solve1 = _umath_linalg.solve1
_eigh_lo = _umath_linalg.eigh_lo
_eigvalsh_lo = _umath_linalg.eigvalsh_lo


def _raise_singular(err, flag):
    raise LinAlgError("Singular matrix")


def _raise_nonconvergence(err, flag):
    raise LinAlgError("Eigenvalues did not converge")


def _lapack_errors(handler):
    """The error state ``numpy.linalg`` calls its gufuncs in: LAPACK failure
    sets the invalid flag, which calls ``handler``."""
    return np.errstate(call=handler, invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``x`` with ``a x = b``: ``a`` (m, m) and ``b`` (m,), both float64.

    Raises ``LinAlgError`` when ``a`` is exactly singular.
    """
    with _lapack_errors(_raise_singular):
        return _solve1(a, b, signature="dd->d")


def eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors (columns) of complex128
    Hermitian ``a`` (..., n, n), read from its lower triangle."""
    with _lapack_errors(_raise_nonconvergence):
        return _eigh_lo(a, signature="D->dD")


def eigvalsh(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of complex128 Hermitian ``a`` (..., n, n), read
    from its lower triangle."""
    with _lapack_errors(_raise_nonconvergence):
        return _eigvalsh_lo(a, signature="D->d")


# Eigenvalues smaller than this fraction of the largest magnitude are treated
# as zero wherever a square root is taken.
EIG_ZERO_REL = 1e-12


def _frobenius(a: np.ndarray) -> float:
    """The Frobenius norm of complex128 ``a``, bit for bit that of
    ``numpy.linalg.norm``: one real dot of the real parts plus one of the
    imaginary parts, in memory order."""
    flat = a.ravel(order="K")
    re, im = flat.real, flat.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    """``0.5 (a + a^H)`` of a square complex128 ``a``: exactly Hermitian."""
    return 0.5 * (a + a.conj().T)


def check_hermitian(a: np.ndarray, rel_tol: float = 1e-8, name: str = "matrix") -> np.ndarray:
    """The Hermitian part ``0.5 (a + a^H)`` of ``a``, once ``a`` is checked to be
    square and Hermitian within ``rel_tol`` (Frobenius).

    Symmetrizing drops the round-off asymmetry the check allows, so it cannot
    leak into complex eigenvalues downstream.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {a.shape}")
    if a.shape[0] != a.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {a.shape}")
    scale = _frobenius(a)
    if not math.isfinite(scale):    # before the subtraction, which would warn
        raise DomainError(f"{name} has a non-finite entry")
    asym = _frobenius(a - a.conj().T)
    if asym > rel_tol * max(scale, 1e-300):
        raise HermitianError(
            f"{name} is not Hermitian: ||A - A^H|| = {asym:.3e} vs ||A|| = {scale:.3e}"
        )
    return _hermitian_part(a)


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

    @cached_property
    def clipped_eigenvalues(self) -> np.ndarray:
        """Eigenvalues with near-zero entries snapped to exactly zero, read-only.

        Guards the square roots taken downstream against tiny negative
        round-off from the factorization. Computed once per decomposition:
        the forms and every power form of one covariance read the same array.
        """
        lam = self.eigenvalues.copy()
        cutoff = EIG_ZERO_REL * float(np.abs(lam).max()) if lam.size else 0.0
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
    DomainError
        If an entry of ``a`` is NaN or infinite, or its norm overflows.
    HermitianError
        If ``||a - a^H||_F > 1e-8 ||a||_F``.
    """
    lam, v = eigh(check_hermitian(a))
    # eigh returns ascending eigenvalues, so reversing sorts them descending
    lam, v = lam[::-1].copy(), v[:, ::-1].copy()
    lam.flags.writeable = False
    v.flags.writeable = False
    return EvdResult(eigenvalues=lam, eigenvectors=v)


def _kron_apply(h: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``(I_L kron h) v`` without forming the Kronecker product: complex128
    ``h`` (a, b) and ``v`` (L * b,), so ``L`` is read off ``v``; block ``l`` of
    the result is ``h @ v_block_l``."""
    return (v.reshape(-1, h.shape[1]) @ h.T).reshape(-1)
