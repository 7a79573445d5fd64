"""Dense complex matrix kernel.

The two matrix gates the other modules call: :func:`as_matrix` (a finite
2-d complex array, of an expected shape when one is given) and
:func:`ensure_hermitian` (Hermitian symmetry to a tolerance scaled by the
entries, of one matrix or of each matrix of a stack).  Besides them: the
matrix exponential and the spectral norm.  All matrices are dense complex
``numpy`` arrays; Hermitian inputs are validated, never assumed.  The PSD clip
of the feasibility solver's hot loop is part of its cone projection
(``extension._FeasibilitySolver._cone_point``).

The exponential is delegated to ``scipy.linalg.expm`` (the usual
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
    "ensure_square",
    "ensure_hermitian",
    "check_nonsingular",
    "expm",
    "spectral_norm",
    "random_hermitian",
    "random_unitary",
]


def as_matrix(m, shape=None, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-d complex array, reject non-finite entries and, when
    ``shape`` is given, any other shape."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise InputError(f"expected a matrix, got array with ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise InputError("matrix contains NaN or Inf entries")
    if shape is not None and a.shape != shape:
        raise InputError(f"{name} has shape {a.shape}, expected {shape}")
    return a


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.conj(m.swapaxes(-1, -2))


def frob(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


def ensure_square(m, name: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    return a


def ensure_hermitian(m, tol: float = STRUCTURAL_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry, max |m - m*| entrywise against a tolerance
    scaled by 1 + max|entry|, and return the exactly Hermitian part.  A stack
    of matrices (shape (..., n, n)) is checked matrix by matrix, each against
    its own entries."""
    a = np.asarray(m, dtype=complex)
    if a.ndim <= 2 or a.shape[-2] != a.shape[-1]:
        a = ensure_square(a, name)
    elif a.size:  # a stack of square matrices
        as_matrix(a.reshape(-1, a.shape[-1]), name=name)  # finite entries
    if not a.size:
        return a
    axes = (-2, -1) if a.ndim > 2 else None
    bound = tol * (1.0 + np.abs(a).max(axis=axes))
    defect = np.abs(a - dagger(a)).max(axis=axes)
    bad = defect > bound
    if np.count_nonzero(bad):
        i = np.flatnonzero(bad)[0]
        raise InputError(
            f"{name} is not Hermitian: defect {defect.flat[i]:.3e} exceeds {bound.flat[i]:.3e}"
        )
    return hermitian_part(a)


def check_nonsingular(m: np.ndarray, message: str) -> None:
    """Raise :class:`NumericalError` when m's condition number is not finite
    or exceeds ``SINGULAR_COND``; ``message`` is formatted with ``cond``."""
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > SINGULAR_COND:
        raise NumericalError(message.format(cond=cond))


def expm(m, scale: float = 1.0) -> np.ndarray:
    """exp(scale * m) for a square matrix; an exponential that overflowed
    raises :class:`NumericalError`."""
    e = scipy.linalg.expm(scale * ensure_square(m))
    if not np.all(np.isfinite(e)):
        raise NumericalError(f"the matrix exponential overflowed at scale {scale:.3e}")
    return e


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
