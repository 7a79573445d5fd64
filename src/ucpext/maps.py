"""Linear maps on M_d in Choi representation.

Convention (fixed once, serialization is tied to it bit-exactly): the Choi
matrix of a map phi is the d^2 x d^2 matrix

    choi = sum_{i,j} E_ij (x) phi(E_ij),

i.e. viewed as a d x d grid of d x d blocks, block (i, j) holds phi(E_ij),
with row-major (i, j) ordering.  Equivalently, choi is the image of the
unnormalized maximally entangled projector under the d-th amplification of
phi.  The map is completely positive exactly when choi is PSD, and
hermiticity-preserving exactly when choi is Hermitian.

Maps act in the Heisenberg picture: Kraus data (k_ops, weights) represents
phi(B) = sum_k w_k K_k* B K_k, and unitality (phi(I) = I) is the relevant
normalization; trace preservation plays no role here.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import linalg
from .errors import InputError, NumericalError
from .systems import LevelElement
from .tolerances import FEASIBILITY_TOL

__all__ = [
    "SuperOp",
    "CPReport",
    "identity_map",
    "zero_map",
    "from_kraus",
    "from_action",
    "conjugation_map",
    "transpose_map",
    "amplification_apply",
    "apply_each",
    "chois_of_transfers",
    "is_completely_positive",
    "is_unital",
    "is_ucp",
    "is_hermiticity_preserving",
    "maximally_entangled_vector",
    "maximally_entangled_projector",
    "ccp_projector",
]


@dataclass(frozen=True)
class SuperOp:
    """A linear map on M_d stored as its Choi matrix."""

    d: int
    choi: np.ndarray

    def __post_init__(self):
        n = self.d * self.d
        object.__setattr__(self, "choi", linalg.as_matrix(self.choi, (n, n), "choi"))

    # -- representations ---------------------------------------------------

    @cached_property
    def _choi4(self) -> np.ndarray:
        d = self.d
        return self.choi.reshape(d, d, d, d)  # indices [i, a, j, b]

    @cached_property
    def transfer(self) -> np.ndarray:
        """Matrix acting on row-major vectorized inputs: vec(phi(M)) = transfer @ vec(M)."""
        d = self.d
        return np.ascontiguousarray(self._choi4.transpose(1, 3, 0, 2).reshape(d * d, d * d))

    @classmethod
    def from_transfer(cls, d: int, transfer) -> "SuperOp":
        t = linalg.as_matrix(transfer, (d * d, d * d), "transfer")
        return cls(d=d, choi=chois_of_transfers(t))

    # -- action ------------------------------------------------------------

    def apply(self, m) -> np.ndarray:
        a = linalg.as_matrix(m, (self.d, self.d), "input")
        return np.einsum("ij,iajb->ab", a, self._choi4)

    def compose(self, other: "SuperOp") -> "SuperOp":
        if other.d != self.d:
            raise InputError(f"dimension mismatch: {self.d} vs {other.d}")
        return SuperOp.from_transfer(self.d, self.transfer @ other.transfer)

    # -- linear structure (Choi matrices combine entrywise) -----------------

    def __add__(self, other: "SuperOp") -> "SuperOp":
        if other.d != self.d:
            raise InputError(f"dimension mismatch: {self.d} vs {other.d}")
        return SuperOp(self.d, self.choi + other.choi)

    def __sub__(self, other: "SuperOp") -> "SuperOp":
        if other.d != self.d:
            raise InputError(f"dimension mismatch: {self.d} vs {other.d}")
        return SuperOp(self.d, self.choi - other.choi)

    def __neg__(self) -> "SuperOp":
        return SuperOp(self.d, -self.choi)

    def __mul__(self, scalar) -> "SuperOp":
        return SuperOp(self.d, complex(scalar) * self.choi)

    __rmul__ = __mul__

    def distance(self, other: "SuperOp") -> float:
        """Frobenius distance between Choi matrices (= distance of transfer matrices)."""
        return linalg.frob(self.choi - other.choi)


def chois_of_transfers(transfers: np.ndarray) -> np.ndarray:
    """The Choi matrix of the map of each transfer matrix of a stack (shape
    (..., d^2, d^2)), or of one: the entries relaid, [a, b, i, j] ->
    [i, a, j, b]."""
    n = transfers.shape[-1]
    d = math.isqrt(n)
    t4 = transfers.reshape(transfers.shape[:-2] + (d, d, d, d))  # [..., a, b, i, j]
    return np.ascontiguousarray(np.moveaxis(t4, (-4, -3, -2, -1), (-3, -1, -4, -2))
                                .reshape(transfers.shape))


@dataclass(frozen=True)
class CPReport:
    is_cp: bool
    min_choi_eigenvalue: float
    witness: Optional[LevelElement]


def identity_map(d: int) -> SuperOp:
    return SuperOp(d, maximally_entangled_projector(d))


def zero_map(d: int) -> SuperOp:
    return SuperOp(d, np.zeros((d * d, d * d), dtype=complex))


def from_kraus(d: int, kraus_ops, weights=None) -> SuperOp:
    """Heisenberg-picture Kraus construction phi(B) = sum_k w_k K_k* B K_k.

    The Choi matrix is assembled as a nonnegative sum of rank-one projectors
    sum_k w_k |v_k><v_k| with v_k = conj(vec(K_k)), so it is PSD by
    construction.
    """
    ops = [linalg.as_matrix(k, (d, d), "Kraus operator") for k in kraus_ops]
    if weights is None:
        weights = [1.0] * len(ops)
    weights = [float(w) for w in weights]
    if len(weights) != len(ops):
        raise InputError(f"{len(ops)} Kraus operators but {len(weights)} weights")
    if any(w < 0 for w in weights):
        raise InputError("Kraus weights must be nonnegative")
    choi = np.zeros((d * d, d * d), dtype=complex)
    for k, w in zip(ops, weights):
        v = np.conj(k).reshape(d * d)
        choi += w * np.outer(v, np.conj(v))
    return SuperOp(d, choi)


def from_action(d: int, action) -> SuperOp:
    """Build a SuperOp from a callable on d x d matrices (applied to matrix units)."""
    choi4 = np.empty((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            unit = np.zeros((d, d), dtype=complex)
            unit[i, j] = 1.0
            choi4[i, :, j, :] = linalg.as_matrix(action(unit), (d, d), "action image")
    return SuperOp(d, choi4.reshape(d * d, d * d))


def conjugation_map(u) -> SuperOp:
    """The map B -> u* B u."""
    m = linalg.ensure_square(u, "u")
    return from_kraus(m.shape[0], [m])


def transpose_map(d: int) -> SuperOp:
    """The transpose map B -> B^T (positive but not completely positive for d >= 2)."""
    return from_action(d, lambda b: b.T)


def amplification_apply(phi: SuperOp, k: int, m) -> np.ndarray:
    """Apply the k-th amplification id_k (x) phi blockwise to a (k*d) x (k*d) matrix."""
    d = phi.d
    m4 = linalg.as_matrix(m, (k * d, k * d), "input").reshape(k, d, k, d)
    out = np.einsum("iajb,piqj->paqb", phi._choi4, m4)
    return out.reshape(k * d, k * d)


def apply_each(chois: np.ndarray, mats) -> np.ndarray:
    """phi_C(m_k) for each Choi matrix C of ``chois`` (one, shape (d^2, d^2),
    or a stack (..., d^2, d^2)) and each m_k of the stack ``mats`` (shape
    (K, d, d)): shape (..., K, d, d), in one einsum.  Each image is
    bit-identical to ``SuperOp.apply`` of its map to its matrix."""
    mats = np.asarray(mats)
    d = mats.shape[-1]
    return np.einsum("kij,...iajb->...kab", mats, chois.reshape(chois.shape[:-2] + (d, d, d, d)))


def maximally_entangled_vector(d: int) -> np.ndarray:
    """Normalized vector sum_i e_i (x) e_i / sqrt(d)."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return v / np.sqrt(d)


def maximally_entangled_projector(d: int) -> np.ndarray:
    """Unnormalized projector sum_ij E_ij (x) E_ij (the Choi matrix of the identity)."""
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0
    return np.outer(v, v)


@functools.cache
def ccp_projector(d: int) -> np.ndarray:
    """P = I - omega omega*, projecting orthogonally to the normalized maximally
    entangled vector omega: a hermiticity-preserving map is ccp iff P choi P >= 0.
    Built once per d and shared read-only."""
    omega = maximally_entangled_vector(d)
    proj = np.eye(d * d) - np.outer(omega, np.conj(omega))
    proj.setflags(write=False)
    return proj


def is_completely_positive(phi: SuperOp, tol: float = FEASIBILITY_TOL) -> CPReport:
    """Complete positivity from the Choi spectrum.

    Level-d certification decides complete positivity for maps on M_d, and the
    Choi matrix is exactly the image of the unnormalized maximally entangled
    projector under the d-th amplification; that projector is returned as a
    PSD witness whenever the check fails.  A Choi matrix whose Hermitian part
    overflows leaves no verdict and raises :class:`NumericalError`, before
    any spectrum is computed.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        hermitized = linalg.hermitian_part(phi.choi)
    if not np.isfinite(hermitized).all():
        raise NumericalError("the Hermitian part of the Choi matrix is not finite: "
                             "no complete-positivity verdict")
    min_eig = float(np.linalg.eigvalsh(hermitized)[0])
    defect = linalg.frob(phi.choi - hermitized)
    if not (math.isfinite(min_eig) and math.isfinite(defect)):
        raise NumericalError("the Choi spectrum is not finite: no complete-positivity verdict")
    # A non-Hermitian Choi can hide negativity from eigvalsh; fold the defect in.
    effective = min_eig - defect
    threshold = -tol * (1.0 + linalg.frob(phi.choi))
    is_cp = effective >= threshold
    witness = None
    if not is_cp:
        witness = LevelElement(level=phi.d, matrix=maximally_entangled_projector(phi.d))
    return CPReport(is_cp=is_cp, min_choi_eigenvalue=min_eig, witness=witness)


def is_unital(phi: SuperOp, tol: float = FEASIBILITY_TOL) -> bool:
    """||phi(I) - I||_F <= tol."""
    image = phi.apply(np.eye(phi.d))
    return linalg.frob(image - np.eye(phi.d)) <= tol


def is_ucp(phi: SuperOp, tol: float = FEASIBILITY_TOL) -> bool:
    return is_unital(phi, tol) and is_completely_positive(phi, tol).is_cp


def is_hermiticity_preserving(phi: SuperOp, tol: float = FEASIBILITY_TOL) -> bool:
    """Hermiticity preservation is Hermitian symmetry of the Choi matrix."""
    return linalg.frob(phi.choi - linalg.dagger(phi.choi)) <= tol * (1.0 + linalg.frob(phi.choi))
