"""Exact constructors for the 2 x 2 worked examples used as ground truth.

The four matricial systems inside M_2 (up to the obvious symmetries), keyed by
dimension of the span:

  1  span{I}          envelope C        (trivial)
  2  span{I, Z}       envelope C^2      (diagonal matrices, no quantumness)
  3  span{I, X, Z}    envelope M_2      (the rebit: real symmetric matrices)
  4  span{I, X, Y, Z} envelope M_2      (the full qubit algebra)

On the rebit, a*I + b*X + c*Z is positive iff b^2 + c^2 <= a^2.  Two
one-parameter dynamics on the rebit are provided: the rotation group
(extended uniquely by the commutator generator with Hamiltonian (omega/2) Y)
and the pure dissipation semigroup, whose extensions to M_2 are not unique --
g1 and g2 below agree on the rebit but act differently on Y.

The systems are built once per process and shared: each constructor returns
the same read-only object on every call (``systems.MatricialSystem``), so the
rebit dynamics sit on the one rebit system, and scenarios naming a catalog
system, and every scenario of a ``--batch`` run, reuse it and its commutant.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .dynamics import Generator, SubsystemGenerator, gksl_generator
from .errors import InputError
from .systems import MatricialSystem

__all__ = [
    "PauliBasis",
    "pauli_basis",
    "EnvelopeInfo",
    "trivial_system",
    "diagonal_system",
    "rebit_system",
    "qubit_system",
    "four_case_catalog",
    "rebit_rotation",
    "rebit_dissipative",
    "g1",
    "g2",
    "rotation_extension_generator",
    "real_symmetric_system",
]

# real_symmetric_system keeps this many dimensions built.
_REAL_SYMMETRIC_CACHED = 8
# The largest d of real_symmetric_system.  The largest arrays built on
# real_symmetric_d are the stacked commutators behind the commutant, d^5 (d + 1) / 2
# complex numbers, and extend-group's multiplicativity defects, d^6: 143 MB and
# 268 MB at d = 16, but 8.9 GB and 17 GB at d = 32.
_REAL_SYMMETRIC_MAX_DIM = 16
# g2's default prefactor, which demo-rebit reports when none is given.
G2_DEFAULT_PREFACTOR = "derived"


@dataclass(frozen=True)
class PauliBasis:
    I: np.ndarray
    X: np.ndarray
    Y: np.ndarray
    Z: np.ndarray


def pauli_basis() -> PauliBasis:
    return PauliBasis(
        I=np.eye(2, dtype=complex),
        X=np.array([[0, 1], [1, 0]], dtype=complex),
        Y=np.array([[0, -1j], [1j, 0]], dtype=complex),
        Z=np.array([[1, 0], [0, -1]], dtype=complex),
    )


@dataclass(frozen=True)
class EnvelopeInfo:
    """Descriptor of the injective envelope, typed in by hand.

    For the four systems of :func:`four_case_catalog` the envelope is C*(V);
    ``demo-rebit`` computes its dimension (``systems.cstar_dim``) and
    commutativity (``systems.is_commutative``) and compares them with these.
    """

    name: str
    dim: int
    commutative: bool


@functools.cache
def trivial_system() -> MatricialSystem:
    """span{I} inside M_2."""
    p = pauli_basis()
    return MatricialSystem.from_basis([p.I])


@functools.cache
def diagonal_system() -> MatricialSystem:
    """span{I, Z}: the diagonal 2 x 2 matrices."""
    p = pauli_basis()
    return MatricialSystem.from_basis([p.I, p.Z])


@functools.cache
def rebit_system() -> MatricialSystem:
    """span{I, X, Z}: the real symmetric 2 x 2 matrices."""
    p = pauli_basis()
    return MatricialSystem.from_basis([p.I, p.X, p.Z])


@functools.cache
def qubit_system() -> MatricialSystem:
    """The full matrix algebra M_2, with the Pauli basis."""
    p = pauli_basis()
    return MatricialSystem.from_basis([p.I, p.X, p.Y, p.Z])


def four_case_catalog():
    """The four systems inside M_2 with their envelope descriptors."""
    return [
        (trivial_system(), EnvelopeInfo(name="C", dim=1, commutative=True)),
        (diagonal_system(), EnvelopeInfo(name="C^2", dim=2, commutative=True)),
        (rebit_system(), EnvelopeInfo(name="M2", dim=4, commutative=False)),
        (qubit_system(), EnvelopeInfo(name="M2", dim=4, commutative=False)),
    ]


def rebit_rotation(omega: float) -> SubsystemGenerator:
    """Rotation dynamics on the rebit: A(I) = 0, A(X) = omega Z, A(Z) = -omega X.

    The state-space picture is rotation of the rebit disk at angular speed
    omega; the unique extension generator on M_2 is i (omega/2) [Y, . ].
    """
    p = pauli_basis()
    system = rebit_system()
    omega = float(omega)
    action = [np.zeros((2, 2), dtype=complex), omega * p.Z, -omega * p.X]
    return SubsystemGenerator.from_action(system, action)


def rebit_dissipative(delta: float) -> SubsystemGenerator:
    """Pure dissipation on the rebit: A(I) = 0, A(X) = -delta X, A(Z) = -delta Z."""
    delta = float(delta)
    if delta <= 0:
        raise InputError(f"dissipation constant must be positive, got {delta}")
    p = pauli_basis()
    system = rebit_system()
    action = [np.zeros((2, 2), dtype=complex), -delta * p.X, -delta * p.Z]
    return SubsystemGenerator.from_action(system, action)


def g1(delta: float) -> Generator:
    """First dissipative extension generator:

        G1(B) = delta * ((1/2) X B X + (1/2) Z B Z - B),

    i.e. jump operators X and Z, each at rate delta / 2.  On the rebit it acts
    as -delta on X and Z; on Y it acts as -2 delta.
    """
    delta = float(delta)
    if delta <= 0:
        raise InputError(f"dissipation constant must be positive, got {delta}")
    p = pauli_basis()
    return gksl_generator(2, jumps=[(p.X, delta / 2.0), (p.Z, delta / 2.0)])


def g2(delta: float, prefactor: str = G2_DEFAULT_PREFACTOR) -> Generator:
    """Second dissipative extension generator:

        G2(B) = c * delta * ((1/3) X B X + (1/3) Y B Y + (1/3) Z B Z - B).

    With ``prefactor="derived"`` the constant is c = 3/4, which is the unique
    value making the action equal -delta on each of X, Y, Z (the depolarizing
    bracket scales each Pauli by -4/3, so c must be 3/4); G2 then agrees with
    G1 on the rebit while acting as -delta instead of -2 delta on Y.
    ``prefactor="paper"`` reproduces the value c = 4/3 printed in some
    references; that variant scales the rebit action by 16/9 and is kept only
    for comparison.
    """
    delta = float(delta)
    if delta <= 0:
        raise InputError(f"dissipation constant must be positive, got {delta}")
    if prefactor == "derived":
        c = 3.0 / 4.0
    elif prefactor == "paper":
        c = 4.0 / 3.0
    else:
        raise InputError(f"prefactor must be 'derived' or 'paper', got {prefactor!r}")
    p = pauli_basis()
    rate = c * delta / 3.0
    return gksl_generator(2, jumps=[(p.X, rate), (p.Y, rate), (p.Z, rate)])


def rotation_extension_generator(omega: float) -> Generator:
    """The commutator generator i (omega/2) [Y, . ]: the unique extension of
    the rebit rotation to M_2."""
    p = pauli_basis()
    return gksl_generator(2, hamiltonian=(float(omega) / 2.0) * p.Y)


@functools.lru_cache(maxsize=_REAL_SYMMETRIC_CACHED)
def real_symmetric_system(d: int) -> MatricialSystem:
    """The span of real symmetric matrices inside M_d (dimension d(d+1)/2).

    For d = 2 this is the rebit in another basis.  No envelope descriptor is
    attached for d > 2.  d is at most ``_REAL_SYMMETRIC_MAX_DIM``; a larger d
    is refused before anything is allocated.
    """
    d = int(d)
    if d < 1:
        raise InputError("d must be positive")
    if d > _REAL_SYMMETRIC_MAX_DIM:
        raise InputError(f"d must be at most {_REAL_SYMMETRIC_MAX_DIM}, got {d}")
    basis = [np.eye(d, dtype=complex)]
    for i in range(d - 1):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            e[j, i] = 1.0
            basis.append(e)
    return MatricialSystem.from_basis(basis)
