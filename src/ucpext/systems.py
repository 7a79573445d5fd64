"""Matricial systems: unital self-adjoint subspaces V of the d x d matrices.

A system is given by a Hermitian basis whose first element is the identity.
Positivity at matrix level k is concrete: an element of M_k(V) is positive
exactly when it is positive semidefinite as a (k*d) x (k*d) matrix, since the
cone of the system is span(V) intersected with the PSD cone.

This module is the one place V's basis is orthonormalized: one QR
factorisation of the stacked basis (Hermitian matrices as real vectors, so
the Hilbert-Schmidt inner product is the dot product) gives the orthonormal
basis and its coefficients on the user basis, the inverse Cholesky factor of
the Gram matrix, which the extension solver reuses.  Coordinates against the
orthonormal basis are taken of one matrix or of a whole stack at once.

Two norms are exposed, both computed by bisection on PSD tests against the
system's cone:

  order_norm_h(v)  -- inf { r > 0 : -r*I <= v <= r*I }        (Hermitian v)
  matrix_norm(el)  -- inf { r > 0 : [[r*I, m], [m*, r*I]] is positive }

On concrete systems both coincide with the spectral norm; the toolkit keeps
the cone-based computation and uses the spectral identity as a self-test.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from . import linalg
from .errors import InputError
from .tolerances import FEASIBILITY_TOL, STRUCTURAL_TOL

__all__ = [
    "MatricialSystem",
    "LevelElement",
    "project_onto",
    "contains",
    "level_membership_residual",
    "project_level",
    "is_positive_element",
    "matrix_norm",
    "order_norm_h",
]

_BISECTION_STEPS = 60
_GRAM_INDEPENDENCE_TOL = 1e-10


@dataclass(frozen=True)
class MatricialSystem:
    """A unital self-adjoint subspace of M_d, with an orthonormalized basis.

    ``basis`` is the user-supplied Hermitian basis (``basis[0]`` must be the
    identity); ``onb`` is its orthonormalization under the Hilbert-Schmidt
    inner product, from one QR factorisation of the stacked basis, and
    ``onb_coeffs`` expresses ``onb[j] = sum_k onb_coeffs[j, k] * basis[k]``.
    ``onb_coeffs`` is real and lower-triangular with positive diagonal, so
    with G the Gram matrix of the basis, ``onb_coeffs @ G @ onb_coeffs.T = I``
    makes it the inverse Cholesky factor of G.
    """

    dim: int
    basis: tuple
    onb: np.ndarray = field(repr=False)
    onb_coeffs: np.ndarray = field(repr=False)

    @classmethod
    def from_basis(cls, basis) -> "MatricialSystem":
        mats = [linalg.ensure_hermitian(b, name=f"basis[{k}]") for k, b in enumerate(basis)]
        if not mats:
            raise InputError("basis must be nonempty")
        d = mats[0].shape[0]
        for k, m in enumerate(mats):
            if m.shape != (d, d):
                raise InputError(f"basis[{k}] has shape {m.shape}, expected ({d}, {d})")
        if not np.allclose(mats[0], np.eye(d), atol=STRUCTURAL_TOL):
            raise InputError("basis[0] must be the identity matrix")

        # Hermitian matrices as real vectors (real and imaginary parts): the
        # Hilbert-Schmidt inner product is the plain dot product of the rows.
        m = len(mats)
        rows = np.array(mats).reshape(m, d * d).view(float)
        gram = rows @ rows.T
        # Linear independence via the smallest Gram eigenvalue.
        gmin = float(np.linalg.eigvalsh(gram)[0])
        if gmin <= _GRAM_INDEPENDENCE_TOL:
            raise InputError(
                f"basis is numerically dependent: smallest Gram eigenvalue {gmin:.3e}"
            )

        # rows^T = Q R with R's diagonal made positive, so rows = R^T Q^T and
        # the orthonormal rows Q^T = R^-T rows.
        q, r = np.linalg.qr(rows.T)
        signs = np.sign(np.diag(r))
        q, r = q * signs, r * signs[:, None]
        coeffs = scipy.linalg.solve_triangular(r, np.eye(m)).T
        onb = linalg.hermitian_part(np.ascontiguousarray(q.T).view(complex).reshape(m, d, d))
        return cls(dim=d, basis=tuple(mats), onb=onb, onb_coeffs=coeffs)

    def __len__(self) -> int:
        return len(self.basis)

    def same_basis(self, other: "MatricialSystem") -> bool:
        """Whether ``other`` carries this basis, entrywise to ``STRUCTURAL_TOL``."""
        return other is self or (
            other.dim == self.dim and len(other) == len(self)
            and np.allclose(other.basis, self.basis, rtol=0.0, atol=STRUCTURAL_TOL))

    def coords(self, m) -> np.ndarray:
        """Hilbert-Schmidt coordinates against the orthonormal basis, of one
        d x d matrix (shape (|V|,)) or of a stack (shape (..., |V|))."""
        a = np.asarray(m, dtype=complex)
        flat = np.conj(self.onb).reshape(len(self), -1)
        return a.reshape(a.shape[:-2] + (-1,)) @ flat.T

    def from_coords(self, c) -> np.ndarray:
        """The matrix sum_j c[..., j] onb[j], for one coordinate vector or a stack."""
        c = np.asarray(c, dtype=complex)
        d = self.dim
        return (c @ self.onb.reshape(len(self), -1)).reshape(c.shape[:-1] + (d, d))


@dataclass(frozen=True)
class LevelElement:
    """An element of M_k(V): a (k*d) x (k*d) matrix whose d x d blocks lie in V."""

    level: int
    matrix: np.ndarray

    @classmethod
    def wrap(cls, system: MatricialSystem, matrix) -> "LevelElement":
        m = linalg.as_matrix(matrix)
        d = system.dim
        if m.shape[0] != m.shape[1] or m.shape[0] % d != 0:
            raise InputError(f"level element shape {m.shape} is not a multiple of ambient dim {d}")
        k = m.shape[0] // d
        resid = level_membership_residual(system, m)
        if resid > FEASIBILITY_TOL * (1.0 + linalg.frob(m)):
            raise InputError(
                f"matrix is not in M_{k}(V): membership residual {resid:.3e}"
            )
        return cls(level=k, matrix=m)


def project_onto(system: MatricialSystem, m) -> np.ndarray:
    """Orthogonal projection of an ambient matrix onto span(V)."""
    a = linalg.as_matrix(m, (system.dim, system.dim), "input")
    return system.from_coords(system.coords(a))


def contains(system: MatricialSystem, m, tol: float = FEASIBILITY_TOL) -> bool:
    """Membership test, relative: ||m - proj(m)||_F <= tol * (1 + ||m||_F)."""
    a = linalg.as_matrix(m)
    if a.shape != (system.dim, system.dim):
        return False
    resid = linalg.frob(a - project_onto(system, a))
    return resid <= tol * (1.0 + linalg.frob(a))


def project_level(system: MatricialSystem, m) -> np.ndarray:
    """Blockwise projection onto M_k(V): project every d x d block onto span(V)."""
    a = linalg.as_matrix(m)
    d = system.dim
    k = a.shape[0] // d
    blocks = a.reshape(k, d, k, d).transpose(0, 2, 1, 3)
    out = system.from_coords(system.coords(blocks))
    return out.transpose(0, 2, 1, 3).reshape(k * d, k * d)


def level_membership_residual(system: MatricialSystem, m) -> float:
    a = linalg.as_matrix(m)
    return linalg.frob(a - project_level(system, a))


def is_positive_element(system: MatricialSystem, el: LevelElement, tol: float = FEASIBILITY_TOL) -> bool:
    """Positivity in the system's cone: membership plus PSD in the ambient space."""
    resid = level_membership_residual(system, el.matrix)
    if resid > tol * (1.0 + linalg.frob(el.matrix)):
        raise InputError(f"element violates membership: residual {resid:.3e}")
    h = linalg.ensure_hermitian(el.matrix, tol=max(tol, STRUCTURAL_TOL))
    return float(np.linalg.eigvalsh(h)[0]) >= -tol


def _bisect_cone_radius(is_feasible, upper: float) -> float:
    """Smallest r in [0, upper] passing a monotone PSD feasibility predicate."""
    lo, hi = 0.0, max(upper, 0.0)
    if is_feasible(lo):
        return 0.0
    for _ in range(_BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if is_feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def matrix_norm(system: MatricialSystem, el: LevelElement) -> float:
    """Matrix norm of el in M_k(V) from the cone of M_2k(V):

        ||m||_k = inf { r : [[r*I, m], [m*, r*I]] positive in M_2k(V) }.

    Bisection over r with a PSD test of the doubled block matrix.
    """
    m = el.matrix
    n = m.shape[0]
    eye = np.eye(n)
    md = linalg.dagger(m)
    slack = 1e-13 * (1.0 + linalg.frob(m))

    def feasible(r: float) -> bool:
        block = np.block([[r * eye, m], [md, r * eye]])
        return float(np.linalg.eigvalsh(linalg.hermitian_part(block))[0]) >= -slack

    return _bisect_cone_radius(feasible, linalg.frob(m))


def order_norm_h(system: MatricialSystem, v) -> float:
    """Order norm of a Hermitian member of V:

        ||v||_h = inf { r > 0 : -r*I <= v <= r*I }

    computed by bisection with PSD tests of r*I - v and r*I + v.
    """
    h = linalg.ensure_hermitian(v, name="v")
    if not contains(system, h):
        raise InputError("v is not a member of the system")
    eye = np.eye(system.dim)
    slack = 1e-13 * (1.0 + linalg.frob(h))

    def feasible(r: float) -> bool:
        lo = float(np.linalg.eigvalsh(r * eye - h)[0])
        hi = float(np.linalg.eigvalsh(r * eye + h)[0])
        return min(lo, hi) >= -slack

    return _bisect_cone_radius(feasible, linalg.frob(h))
