"""Dense complex matrix kernel.

The two matrix gates the other modules call: :func:`as_matrix` (a finite
2-d complex array, of an expected shape when one is given) and
:func:`ensure_hermitian` (Hermitian symmetry to a tolerance scaled by the
entries, of one matrix or of each matrix of a stack).  Besides them: the
checked inverse :func:`inverse`, the one place the resolvent computations
decide that a matrix is too ill-conditioned to invert (``SINGULAR_COND``),
:func:`solve_each` for the solver's stacks of Newton systems, the matrix
exponential :func:`expm` and the spectral norm.  :func:`inverse` and
:func:`expm` take one matrix or a stack (..., n, n) and act on each matrix
of a stack alone, so each result is bit-identical to the one its matrix
gets by itself: LAPACK and ``scipy.linalg.expm`` run slice by slice.  All
matrices are dense complex ``numpy`` arrays; Hermitian inputs are
validated, never assumed.  The PSD clip of the feasibility solver's hot
loop is part of its cone projection
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
    "frob_each",
    "hermitian_part",
    "ensure_square",
    "ensure_hermitian",
    "inverse",
    "solve_each",
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


def frob_each(m: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each matrix of a stack, over the last two axes:
    the real dot products of :func:`frob`, so each is bit-identical to
    ``frob`` of its matrix."""
    flat = m.reshape(m.shape[:-2] + (m.shape[-2] * m.shape[-1],))
    if np.iscomplexobj(flat):
        return np.sqrt(np.vecdot(flat.real, flat.real) + np.vecdot(flat.imag, flat.imag))
    return np.sqrt(np.vecdot(flat, flat))


def hermitian_part(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + dagger(m))


def ensure_square(m, name: str = "matrix") -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InputError(f"{name} must be square, got shape {a.shape}")
    return a


def _square_stack(m, name: str = "matrix") -> np.ndarray:
    """A finite square matrix, or a finite stack of them (shape (..., n, n)),
    as a complex array."""
    a = np.asarray(m, dtype=complex)
    if a.ndim <= 2 or a.shape[-2] != a.shape[-1]:
        return ensure_square(a, name)
    if a.size:
        as_matrix(a.reshape(-1, a.shape[-1]), name=name)  # finite entries
    return a


def ensure_hermitian(m, tol: float = STRUCTURAL_TOL, name: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry, max |m - m*| entrywise against a tolerance
    scaled by 1 + max|entry|, and return the exactly Hermitian part.  A stack
    of matrices (shape (..., n, n)) is checked matrix by matrix, each against
    its own entries, and a failure names the matrix's index in ``name``.  A
    finite matrix whose Hermitian part overflows raises
    :class:`NumericalError`."""
    a = _square_stack(m, name)
    if not a.size:
        return a
    axes = (-2, -1) if a.ndim > 2 else None
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is checked below
        bound = tol * (1.0 + np.abs(a).max(axis=axes))
        defect = np.abs(a - dagger(a)).max(axis=axes)
        bad = defect > bound
        if np.count_nonzero(bad):
            i = np.flatnonzero(bad)[0]
            index = ", ".join(map(str, np.unravel_index(i, bad.shape)))
            raise InputError(
                f"{name}{f'[{index}]' if index else ''} is not Hermitian: "
                f"defect {defect.flat[i]:.3e} exceeds {bound.flat[i]:.3e}"
            )
        h = hermitian_part(a)
    if not np.isfinite(h).all():
        raise NumericalError(f"the Hermitian part of {name} overflows")
    return h


def inverse(m: np.ndarray, message) -> np.ndarray:
    """The inverse of a square matrix, or of each matrix of a stack (shape
    (..., n, n)).  Raises :class:`NumericalError` when the condition number
    of a matrix is not finite or exceeds ``SINGULAR_COND``: ``message``, a
    format string, is formatted with the ``cond`` of the first such matrix.
    For a stack, ``message`` may also be a sequence of format strings, one
    per matrix in the order of ``m.reshape(-1, n, n)``; the first bad
    matrix's own is raised."""
    cond = np.linalg.cond(m)
    bad = ~(np.isfinite(cond) & (cond <= SINGULAR_COND))
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        template = message if isinstance(message, str) else message[k]
        raise NumericalError(template.format(cond=float(cond.flat[k])))
    return np.linalg.inv(m)


def solve_each(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solution x of a x = b for each square matrix of the stack ``a``
    (shape (..., m, m)) and its own right-hand side (shape (..., m)), by one
    LU factorisation each.  Each solution is the one its system gets alone.
    Unlike :func:`inverse` it checks no condition number: its caller, the
    Newton step of the feasibility solver, solves systems whose eigenvalues
    are bounded below by their regularisation."""
    return np.linalg.solve(a, b[..., None])[..., 0]


def expm(m, scale=1.0) -> np.ndarray:
    """exp(scale * m) for a square matrix, or for each matrix of a stack
    (shape (..., n, n)).  ``scale`` is a number or an array of them, one per
    matrix: its shape broadcasts against the stack's leading axes, so one
    matrix with k scales gives a stack of k exponentials.  An exponential
    that overflowed raises :class:`NumericalError` naming the first
    overflowing matrix's scale."""
    scales = np.asarray(scale)
    e = scipy.linalg.expm(scales[..., None, None] * _square_stack(m))
    overflowed = ~np.isfinite(e).all(axis=(-2, -1))
    if overflowed.any():
        k = np.flatnonzero(overflowed)[0]
        bad = np.broadcast_to(scales, overflowed.shape).flat[k]
        raise NumericalError(f"the matrix exponential overflowed at scale {bad:.3e}")
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
