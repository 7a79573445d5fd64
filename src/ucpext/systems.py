"""Matricial systems: unital self-adjoint subspaces V of the d x d matrices.

A system is given by a Hermitian basis whose first element is the identity.
Positivity at matrix level k is concrete: an element of M_k(V) is positive
exactly when it is positive semidefinite as a (k*d) x (k*d) matrix, since the
cone of the system is span(V) intersected with the PSD cone.

This module is the one place V's basis is orthonormalized: one QR
factorisation of the stacked basis (Hermitian matrices as real vectors, so
the Hilbert-Schmidt inner product is the dot product) gives the orthonormal
basis and its coefficients on the user basis, the inverse Cholesky factor of
the Gram matrix, which the extension solver reuses.  A basis with no
imaginary part at all is stacked as its real parts alone, so its orthonormal
basis is exactly real too; the system records that it is ``real``, and the
extension solver reads the flag to solve in real arithmetic.  Coordinates
against the orthonormal basis are taken of one matrix or of a whole stack at
once.

Membership in M_k(V) has one test, blockwise projection onto span(V) of a
stack of one level followed by a relative residual bound
(``_first_outside``, which names the first matrix outside); :func:`contains`,
``LevelElement.wrap``, :func:`positive_elements` and
``dynamics.SubsystemGenerator.from_action`` (all the images at once) go
through it.

Two norms are exposed, both computed by bisection on PSD tests against the
system's cone:

  order_norm_h(v)  -- inf { r > 0 : -r*I <= v <= r*I }        (Hermitian v)
  matrix_norm(el)  -- inf { r > 0 : [[r*I, m], [m*, r*I]] is positive }

On concrete systems both coincide with the spectral norm; the toolkit keeps
the cone-based computation and uses the spectral identity as a self-test.

The commutant V' = { x : xv = vx for all v in V } is the null space of the
stacked commutators x -> q x - x q over the orthonormal basis, read off one
SVD (:func:`commutant`).  V is self-adjoint, so V' is a C*-algebra: V is
irreducible exactly when V' = C I, and the bicommutant V'' is C*(V), the
C*-algebra V generates (von Neumann's bicommutant theorem).

A system is a fixed, shared object: its arrays are read-only, and the SVDs
behind its commutant and bicommutant are computed on first use and kept with
it, since they depend on V alone.  The catalog builds each of its systems
once per process (``catalog``), so scenarios naming one, and every scenario
of a ``--batch`` run, reuse the same system and its SVDs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np
import scipy.linalg

from . import linalg
from .errors import InputError
from .tolerances import (BISECTION_SLACK, FEASIBILITY_TOL, GRAM_INDEPENDENCE_TOL,
                         STRUCTURAL_TOL)

__all__ = [
    "MatricialSystem",
    "LevelElement",
    "Commutant",
    "commutant",
    "cstar_dim",
    "is_commutative",
    "project_onto",
    "contains",
    "project_level",
    "is_positive_element",
    "positive_elements",
    "matrix_norm",
    "order_norm_h",
]

_BISECTION_STEPS = 60


@dataclass(frozen=True, eq=False)
class MatricialSystem:
    """A unital self-adjoint subspace of M_d, with an orthonormalized basis.

    ``basis`` is the user-supplied Hermitian basis (``basis[0]`` must be the
    identity); ``onb`` is its orthonormalization under the Hilbert-Schmidt
    inner product, from one QR factorisation of the stacked basis, and
    ``onb_coeffs`` expresses ``onb[j] = sum_k onb_coeffs[j, k] * basis[k]``.
    ``onb_coeffs`` is real and lower-triangular with positive diagonal, so
    with G the Gram matrix of the basis, ``onb_coeffs @ G @ onb_coeffs.T = I``
    makes it the inverse Cholesky factor of G.  ``real`` says whether the
    basis has no imaginary part at all; then ``onb`` has none either.

    The three arrays are read-only, so a system can be shared: the catalog
    hands the same object to every caller.  Systems compare and hash by
    identity; :meth:`same_basis` compares bases.
    """

    dim: int
    basis: tuple
    onb: np.ndarray = field(repr=False)
    onb_coeffs: np.ndarray = field(repr=False)
    real: bool

    @classmethod
    def from_basis(cls, basis) -> "MatricialSystem":
        mats = [np.asarray(b, dtype=complex) for b in basis]
        if not mats:
            raise InputError("basis must be nonempty")
        d = linalg.ensure_square(mats[0], "basis[0]").shape[0]
        for k, m in enumerate(mats):
            if m.shape != (d, d):
                raise InputError(f"basis[{k}] has shape {m.shape}, expected ({d}, {d})")
        mats = linalg.ensure_hermitian(np.array(mats), name="basis")  # one stacked gate
        if not np.allclose(mats[0], np.eye(d), atol=STRUCTURAL_TOL):
            raise InputError("basis[0] must be the identity matrix")

        # Hermitian matrices as real vectors (real and imaginary parts, or the
        # real parts alone of a real basis): the Hilbert-Schmidt inner product
        # is the plain dot product of the rows.
        m = len(mats)
        stacked = mats.reshape(m, d * d)
        real = not np.any(stacked.imag)
        rows = np.ascontiguousarray(stacked.real) if real else stacked.view(float)
        gram = rows @ rows.T
        # Linear independence via the smallest Gram eigenvalue.
        gmin = float(np.linalg.eigvalsh(gram)[0])
        if gmin <= GRAM_INDEPENDENCE_TOL:
            raise InputError(
                f"basis is numerically dependent: smallest Gram eigenvalue {gmin:.3e}"
            )

        # rows^T = Q R with R's diagonal made positive, so rows = R^T Q^T and
        # the orthonormal rows Q^T = R^-T rows.
        q, r = np.linalg.qr(rows.T)
        signs = np.sign(np.diag(r))
        q, r = q * signs, r * signs[:, None]
        coeffs = scipy.linalg.solve_triangular(r, np.eye(m)).T
        onb_rows = np.ascontiguousarray(q.T)
        onb = linalg.hermitian_part(
            (onb_rows.astype(complex) if real else onb_rows.view(complex)).reshape(m, d, d))
        for a in (mats, onb, coeffs):
            a.flags.writeable = False
        return cls(dim=d, basis=tuple(mats), onb=onb, onb_coeffs=coeffs, real=real)

    @cached_property
    def commutator_svd(self) -> tuple:
        """``(singular values, right singular vectors, rank)`` of the stacked
        commutators over the orthonormal basis (:func:`commutant`), computed
        on first use and kept: they depend on V alone, not on a tolerance."""
        return _commutator_svd(self.onb)

    @cached_property
    def bicommutant_svd(self) -> tuple:
        """:func:`_commutator_svd` of the commutant's basis, the right singular
        vectors of :attr:`commutator_svd` past its rank: computed on first use
        and kept, since that rank is read off the roundoff floor and no
        tolerance enters it."""
        d = self.dim
        _, vh, rank = self.commutator_svd
        return _commutator_svd(np.conj(vh[rank:]).reshape(-1, d, d))

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
        outside = _first_outside(system, m[None], FEASIBILITY_TOL)
        if outside is not None:
            raise InputError(
                f"matrix is not in M_{k}(V): membership residual {outside[1]:.3e}"
            )
        return cls(level=k, matrix=m)


@dataclass(frozen=True)
class Commutant:
    """The commutant of a set of d x d matrices, from one SVD.

    ``basis`` holds ``dim`` orthonormal d x d matrices spanning it (right
    singular vectors of the stacked commutators).  ``gap`` is the smallest
    singular value counted nonzero, ``None`` when there is none (the set is
    scalar and the commutant is all of M_d).  Singular values at most the
    roundoff floor count as zero; the rank, and so ``dim``, is ``decided`` when
    the gap exceeds ``tol``, so no singular value lies in between.
    """

    dim: int
    basis: np.ndarray = field(repr=False)
    gap: Optional[float]
    decided: bool

    def projection(self) -> Optional[np.ndarray]:
        """A projection Q != 0, I in the commutant, or None when it is C I.

        The commutant of a self-adjoint set is a C*-algebra, so the spectral
        projections of its Hermitian elements lie in it: Q projects onto the
        eigenvectors above the widest eigenvalue gap of the traceless
        Hermitian part of a basis element, the one farthest from the scalars.
        """
        if self.dim < 2:
            return None
        d = self.basis.shape[-1]
        parts = np.concatenate([linalg.hermitian_part(self.basis),
                                linalg.hermitian_part(-1j * self.basis)])
        parts = parts - np.einsum("kii->k", parts)[:, None, None] * np.eye(d) / d
        h = parts[int(np.argmax(np.linalg.norm(parts, axis=(1, 2))))]
        w, u = np.linalg.eigh(h)
        upper = u[:, int(np.argmax(np.diff(w))) + 1:]
        return upper @ linalg.dagger(upper)


def _commutator_svd(mats) -> tuple:
    """The SVD of the stacked commutators of a stack of d x d matrices, and
    its rank (module docstring).

    Row-major vec(q x - x q) = (q (x) I - I (x) q^T) vec(x); the null space of
    those maps stacked is the commutant.  The rank counts the singular values
    above the roundoff floor, the usual rank threshold
    max(shape) * eps * max(1, largest singular value).
    """
    mats = np.asarray(mats, dtype=complex)
    m, d = mats.shape[0], mats.shape[-1]
    eye = np.eye(d)
    # [k, i, a, j, b] = q_k[i, j] delta_ab - delta_ij q_k[b, a]
    stack = (mats[:, :, None, :, None] * eye[None, None, :, None, :]
             - eye[None, :, None, :, None] * np.swapaxes(mats, 1, 2)[:, None, :, None, :])
    stack = stack.reshape(m * d * d, d * d)
    _, sing, vh = np.linalg.svd(stack, full_matrices=False)
    floor = max(stack.shape) * np.finfo(float).eps * max(1.0, float(sing[0]))
    sing.flags.writeable = vh.flags.writeable = False
    return sing, vh, int(np.count_nonzero(sing > floor))


def _commutant_of(svd: tuple, d: int, tol: float) -> Commutant:
    """The commutant of d x d matrices read off their :func:`_commutator_svd`;
    ``tol`` decides whether its rank is certain."""
    sing, vh, rank = svd
    gap = float(sing[rank - 1]) if rank else None
    basis = np.conj(vh[rank:]).reshape(-1, d, d)
    return Commutant(dim=d * d - rank, basis=basis, gap=gap,
                     decided=gap is None or gap > tol)


def commutant(system: MatricialSystem, tol: float = FEASIBILITY_TOL) -> Commutant:
    """V' from the orthonormal basis, so its singular values, and the gap,
    do not depend on the scale of the user's basis.  The SVD is the system's
    own (``MatricialSystem.commutator_svd``); only the verdict reads ``tol``."""
    return _commutant_of(system.commutator_svd, system.dim, tol)


def cstar_dim(system: MatricialSystem, tol: float = FEASIBILITY_TOL) -> int:
    """dim C*(V) = dim V'': the commutant of the commutant's basis, from the
    system's kept SVD of that basis (``MatricialSystem.bicommutant_svd``)."""
    return _commutant_of(system.bicommutant_svd, system.dim, tol).dim


def is_commutative(system: MatricialSystem, tol: float = FEASIBILITY_TOL) -> bool:
    """Whether C*(V) is commutative: the basis elements commute pairwise."""
    onb = system.onb
    products = onb[:, None] @ onb[None, :]
    return linalg.frob(products - np.swapaxes(products, 0, 1)) <= tol


def project_onto(system: MatricialSystem, m) -> np.ndarray:
    """Orthogonal projection of an ambient matrix onto span(V)."""
    return project_level(system, linalg.as_matrix(m, (system.dim, system.dim), "input"))


def contains(system: MatricialSystem, m, tol: float = FEASIBILITY_TOL) -> bool:
    """Whether a d x d matrix lies in span(V) (:func:`_first_outside`)."""
    a = linalg.as_matrix(m)
    return a.shape == (system.dim, system.dim) and _first_outside(system, a[None], tol) is None


def project_level(system: MatricialSystem, m) -> np.ndarray:
    """Blockwise projection onto M_k(V): project every d x d block onto span(V),
    of one (k*d) x (k*d) matrix or of each matrix of a stack."""
    a = linalg.as_matrix(m) if np.ndim(m) == 2 else np.asarray(m, dtype=complex)
    d = system.dim
    k = a.shape[-1] // d
    blocks = a.reshape(a.shape[:-2] + (k, d, k, d)).swapaxes(-3, -2)
    out = system.from_coords(system.coords(blocks))
    return out.swapaxes(-3, -2).reshape(a.shape)


def _first_outside(system: MatricialSystem, a: np.ndarray, tol: float) -> Optional[tuple]:
    """The one membership test of M_k(V), relative: a matrix m of the stack
    ``a`` (shape (n, k*d, k*d)) lies in M_k(V) when
    ||m - proj(m)||_F <= tol * (1 + ||m||_F).  Returns ``(index, residual)``
    of the first matrix outside, or None when every matrix lies in M_k(V).
    Each verdict is the one its matrix gets in a stack of one."""
    resid = np.linalg.norm(a - project_level(system, a), axis=(-2, -1))
    outside = resid > tol * (1.0 + np.linalg.norm(a, axis=(-2, -1)))
    if not outside.any():
        return None
    k = int(np.flatnonzero(outside)[0])
    return k, float(resid[k])


def positive_elements(system: MatricialSystem, matrices,
                      tol: float = FEASIBILITY_TOL) -> np.ndarray:
    """Positivity in the system's cone of each matrix of a stack of one level
    (shape (n, k*d, k*d)): membership plus PSD in the ambient space, from one
    projection and one ``eigvalsh`` of the whole stack.  An element outside
    M_k(V) raises :class:`InputError`.  Membership and Hermiticity are
    structure, tested at max(tol, STRUCTURAL_TOL): a ``tol`` below the
    projection's roundoff refuses no element that lies in M_k(V)."""
    a = np.asarray(matrices, dtype=complex)
    structural = max(tol, STRUCTURAL_TOL)
    outside = _first_outside(system, a, structural)
    if outside is not None:
        raise InputError(f"element violates membership: residual {outside[1]:.3e}")
    h = linalg.ensure_hermitian(a, tol=structural)
    return np.linalg.eigvalsh(h)[..., 0] >= -tol


def is_positive_element(system: MatricialSystem, el: LevelElement, tol: float = FEASIBILITY_TOL) -> bool:
    """Positivity in the system's cone: :func:`positive_elements` of one element."""
    return bool(positive_elements(system, np.asarray(el.matrix)[None], tol)[0])


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
    slack = BISECTION_SLACK * (1.0 + linalg.frob(m))

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
    slack = BISECTION_SLACK * (1.0 + linalg.frob(h))

    def feasible(r: float) -> bool:
        lo = float(np.linalg.eigvalsh(r * eye - h)[0])
        hi = float(np.linalg.eigvalsh(r * eye + h)[0])
        return min(lo, hi) >= -slack

    return _bisect_cone_radius(feasible, linalg.frob(h))
