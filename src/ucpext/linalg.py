"""Dense complex matrix kernel.

Matrix validation, the matrix exponential, the PSD clip the feasibility solver
calls once per iteration, and validated Hermitian eigendecomposition, PSD
projection and spectral norm (``herm_eig``, ``psd_project``, ``spectral_norm``:
public API, unused inside the package, where ``maps``, ``dynamics`` and
``systems`` call ``np.linalg.eigvalsh`` / ``eigvals`` directly).  All matrices
are dense complex ``numpy`` arrays; Hermitian inputs are validated, never
assumed, except by ``psd_clip``, the unvalidated kernel behind ``psd_project``.

Eigendecomposition and the exponential are delegated to LAPACK via
``numpy.linalg.eigh`` / ``scipy.linalg.expm`` (the latter is the usual
scaling-and-squaring Pade-13 scheme).
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InputError, NumericalError
from .tolerances import SINGULAR_COND, STRUCTURAL_TOL

__all__ = [
    "as_matrix",
    "dagger",
    "frob",
    "hermitian_part",
    "hermiticity_defect",
    "ensure_square",
    "ensure_hermitian",
    "check_nonsingular",
    "herm_eig",
    "expm",
    "psd_project",
    "psd_clip",
    "spectral_norm",
    "random_hermitian",
    "random_unitary",
]


def as_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InputError(f"expected a matrix, got array with ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix contains NaN or Inf entries")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(np.swapaxes(m, -1, -2))


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


def hermiticity_defect(m: np.ndarray) -> float:
    """max |m - m*| entrywise; zero exactly for Hermitian matrices."""
    return float(np.max(np.abs(m - dagger(m)))) if m.size else 0.0


def ensure_square(m, name: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    return a


def ensure_hermitian(m, tol: float = STRUCTURAL_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry (tolerance scaled by 1 + max|entry|) and
    return the exactly Hermitian part."""
    a = ensure_square(m, name)
    scale = 1.0 + (float(np.max(np.abs(a))) if a.size else 0.0)
    defect = hermiticity_defect(a)
    if defect > tol * scale:
        raise InputError(
            f"{name} is not Hermitian: defect {defect:.3e} exceeds {tol * scale:.3e}"
        )
    return hermitian_part(a)


def check_nonsingular(m: np.ndarray, message: str) -> None:
    """Raise :class:`NumericalError` when m's condition number is not finite
    or exceeds ``SINGULAR_COND``; ``message`` is formatted with ``cond``."""
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > SINGULAR_COND:
        raise NumericalError(message.format(cond=cond))


def herm_eig(h, tol: float = STRUCTURAL_TOL):
    """Eigendecomposition of a Hermitian matrix.

    Returns ``(w, u)`` with eigenvalues ``w`` real ascending and ``u`` unitary
    such that ``h = u @ diag(w) @ u*``.  Non-Hermitian input raises
    :class:`InputError`.
    """
    a = ensure_hermitian(h, tol=tol)
    w, u = np.linalg.eigh(a)
    return w, u


def expm(m, scale: float = 1.0) -> np.ndarray:
    """exp(scale * m) for a square matrix."""
    a = ensure_square(m)
    return scipy.linalg.expm(scale * a)


def psd_project(h, tol: float = STRUCTURAL_TOL) -> np.ndarray:
    """Frobenius-nearest positive semidefinite matrix: clip negative eigenvalues.

    Input must be Hermitian; the result is exactly Hermitian with spectrum
    >= 0 up to roundoff.
    """
    return psd_clip(ensure_hermitian(h, tol=tol))


def psd_clip(h: np.ndarray) -> np.ndarray:
    """:func:`psd_project` without input validation, for hot loops.

    ``h`` must already be a Hermitian array (``eigh`` reads only its lower
    triangle); the result is exactly Hermitian.
    """
    w, u = np.linalg.eigh(h)
    out = (u * np.maximum(w, 0.0)) @ np.conj(u.T)
    return 0.5 * (out + np.conj(out.T))


def spectral_norm(m) -> float:
    """Largest singular value, via the Hermitian spectrum of m* m."""
    a = as_matrix(m)
    if a.size == 0:
        return 0.0
    w = np.linalg.eigvalsh(dagger(a) @ a)
    return float(np.sqrt(max(float(w[-1]), 0.0)))


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> np.ndarray:
    """Gaussian Hermitian matrix: Hermitian part of a complex Ginibre sample."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return hermitian_part(g) * scale


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish unitary from the QR decomposition of a Ginibre sample."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
