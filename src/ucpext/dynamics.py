"""Generators, semigroup evolution, and resolvents on M_d.

A generator is a SuperOp A together with three derived certificates:

  hermiticity_preserving -- Choi matrix of A is Hermitian,
  unital_kernel          -- A(I) = 0,
  ccp                    -- conditional complete positivity (below).

The three together say exp(t*A) is a unital completely positive semigroup.
Conditional complete positivity is decided at the Choi level: with P the
projector orthogonal to the normalized maximally entangled vector, A is ccp
iff it preserves hermiticity and P choi(A) P >= 0.  This one-shot eigenvalue
test is cross-validated in the test suite against the small-time behaviour of
exp(t*A).

Certificates are always recomputed from the map; they are never accepted from
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import linalg, maps
from .errors import InputError, NumericalError
from .maps import SuperOp
from .systems import MatricialSystem, contains
from .tolerances import FEASIBILITY_TOL, VALIDATE_MAX_ITER

__all__ = [
    "GeneratorCertificates",
    "Generator",
    "SubsystemGenerator",
    "certify",
    "gksl_generator",
    "is_conditionally_completely_positive",
    "has_group_certificate",
    "evolve",
    "resolvent",
    "hilbert_identity_residual",
    "laplace_resolvent",
    "spectral_bound",
    "subsystem_resolvent_images",
    "subsystem_evolve_images",
    "validate_subsystem_semigroup",
    "SubsystemValidationReport",
]


@dataclass(frozen=True)
class GeneratorCertificates:
    hermiticity_preserving: bool
    unital_kernel: bool
    ccp: bool

    @property
    def certified(self) -> bool:
        """All three hold: exp(t * A) is a UCP semigroup."""
        return self.hermiticity_preserving and self.unital_kernel and self.ccp


@dataclass(frozen=True)
class Generator:
    """An infinitesimal generator with re-derived certificates."""

    op: SuperOp
    certificates: GeneratorCertificates

    @property
    def d(self) -> int:
        return self.op.d


def is_conditionally_completely_positive(op: SuperOp, tol: float = FEASIBILITY_TOL) -> bool:
    """Choi-level conditional complete positivity.

    True iff op preserves hermiticity and P choi(op) P >= -tol * (1 + ||choi||_F),
    where P projects orthogonally to the normalized maximally entangled vector.
    """
    if not maps.is_hermiticity_preserving(op, tol):
        return False
    d = op.d
    omega = maps.maximally_entangled_vector(d)
    proj = np.eye(d * d) - np.outer(omega, np.conj(omega))
    compressed = proj @ linalg.hermitian_part(op.choi) @ proj
    min_eig = float(np.linalg.eigvalsh(linalg.hermitian_part(compressed))[0])
    return min_eig >= -tol * (1.0 + linalg.frob(op.choi))


def certify(op: SuperOp, tol: float = FEASIBILITY_TOL) -> Generator:
    """Wrap a SuperOp as a Generator, computing all certificates from scratch."""
    kernel_defect = linalg.frob(op.apply(np.eye(op.d)))
    certs = GeneratorCertificates(
        hermiticity_preserving=maps.is_hermiticity_preserving(op, tol),
        unital_kernel=kernel_defect <= tol,
        ccp=is_conditionally_completely_positive(op, tol),
    )
    return Generator(op=op, certificates=certs)


def has_group_certificate(gen: Generator, tol: float = FEASIBILITY_TOL) -> bool:
    """Both +A and -A generate UCP semigroups, so exp(t*A) is defined for all real t."""
    return gen.certificates.certified and is_conditionally_completely_positive(-gen.op, tol)


def gksl_generator(d: int, hamiltonian=None, jumps: Sequence = ()) -> Generator:
    """Heisenberg-picture GKSL generator

        A(B) = i [H, B] + sum_k r_k (V_k* B V_k - (1/2) {V_k* V_k, B}),

    with nonnegative rates r_k.  A(I) = 0 holds exactly by construction and
    all three certificates are true.
    """
    if hamiltonian is None:
        ham = np.zeros((d, d), dtype=complex)
    else:
        ham = linalg.ensure_hermitian(hamiltonian, name="hamiltonian")
        if ham.shape != (d, d):
            raise InputError(f"hamiltonian has shape {ham.shape}, expected ({d}, {d})")
    terms = []
    for k, (op, rate) in enumerate(jumps):
        rate = float(rate)
        if rate < 0:
            raise InputError(f"jump rate {k} is negative: {rate}")
        v = linalg.as_matrix(op)
        if v.shape != (d, d):
            raise InputError(f"jump operator {k} has shape {v.shape}, expected ({d}, {d})")
        terms.append((v, linalg.dagger(v), rate))

    def action(b):
        out = 1j * (ham @ b - b @ ham)
        for v, vd, rate in terms:
            vv = vd @ v
            out = out + rate * (vd @ b @ v - 0.5 * (vv @ b + b @ vv))
        return out

    return certify(maps.from_action(d, action))


def evolve(gen: Generator, t: float) -> SuperOp:
    """The semigroup element exp(t * A) as a SuperOp.

    Negative t requires the group certificate (both +A and -A ccp).
    """
    t = float(t)
    if t < 0 and not has_group_certificate(gen):
        raise InputError("t < 0 requires a group certificate (both +A and -A ccp)")
    return SuperOp.from_transfer(gen.d, linalg.expm(gen.op.transfer, scale=t))


def resolvent(gen: Generator, lam: complex) -> SuperOp:
    """R(lam, A) = (lam - A)^{-1} as a SuperOp (solve at the transfer level)."""
    n = gen.d * gen.d
    system = complex(lam) * np.eye(n) - gen.op.transfer
    linalg.check_nonsingular(
        system, f"resolvent system is singular at lam={lam}: condition estimate {{cond:.3e}}")
    return SuperOp.from_transfer(gen.d, np.linalg.solve(system, np.eye(n, dtype=complex)))


def hilbert_identity_residual(gen: Generator, lam: complex, mu: complex) -> float:
    """Frobenius residual of (R(lam) - R(mu)) / (lam - mu) + R(lam) R(mu)."""
    if lam == mu:
        raise InputError("resolvent identity requires lam != mu")
    r_lam = resolvent(gen, lam).transfer
    r_mu = resolvent(gen, mu).transfer
    residual = (r_lam - r_mu) / (complex(lam) - complex(mu)) + r_lam @ r_mu
    return linalg.frob(residual)


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def laplace_resolvent(gen: Generator, lam: float, horizon: Optional[float] = None,
                      panels: int = 400):
    """Resolvent via the Laplace integral of the semigroup,

        R(lam, A) ~ integral_0^T exp(-lam t) exp(t A) dt,

    by composite 16-point Gauss-Legendre quadrature over ``panels`` equal
    panels.  Returns ``(superop, truncation_bound)`` where the bound
    exp(-lam T) / lam controls the discarded tail (the integrand has norm
    at most 1 for certified generators).

    The default horizon is chosen so exp(-lam T) <= 1e-8.
    """
    lam = float(lam)
    if lam <= 0:
        raise InputError(f"laplace_resolvent requires lam > 0, got {lam}")
    if horizon is None:
        horizon = np.log(1e8) / lam
    horizon = float(horizon)
    panels = int(panels)
    if horizon <= 0 or panels <= 0:
        raise InputError("horizon and panels must be positive")

    n = gen.d * gen.d
    h = horizon / panels
    offsets = 0.5 * h * (_GL_NODES + 1.0)  # node positions inside one panel
    weights = 0.5 * h * _GL_WEIGHTS
    # At t = p*h + o_j the integrand is q^p times a node term, q = exp(-lam h) exp(h A):
    # total = (sum_p q^p) @ (sum_j w_j exp(-lam o_j) exp(o_j A)), q^p as a running power.
    node_sum = sum(w * np.exp(-lam * off) * linalg.expm(gen.op.transfer, scale=off)
                   for off, w in zip(offsets, weights))
    q = np.exp(-lam * h) * linalg.expm(gen.op.transfer, scale=h)
    power_sum = np.zeros((n, n), dtype=complex)
    power = np.eye(n, dtype=complex)
    for _ in range(panels):
        power_sum += power
        power = power @ q
    total = power_sum @ node_sum
    bound = float(np.exp(-lam * horizon) / lam)
    return SuperOp.from_transfer(gen.d, total), bound


def spectral_bound(gen: Generator) -> float:
    """Largest real part of the transfer-matrix spectrum, s(A) = sup Re sigma(A).

    For certified generators the unital kernel puts 0 in the spectrum (with
    eigenvector vec(I)) and complete positivity caps the real parts, so the
    result is 0 up to roundoff; s(A) also equals the growth bound of the
    semigroup in this finite-dimensional setting.  The unital kernel itself is
    decided by :func:`certify` alone.
    """
    return float(np.max(np.linalg.eigvals(gen.op.transfer).real))


# ---------------------------------------------------------------------------
# Generators given only on a matricial system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubsystemGenerator:
    """A generator A specified on a matricial system V by images of its basis.

    ``action[k]`` is A(basis[k]); each image must lie in span(V), the unit must
    be annihilated (A(I) = 0), and the induced matrix on the orthonormalized
    coordinates must be real (A preserves hermiticity on V).
    """

    system: MatricialSystem
    action: tuple
    coordinate_matrix: np.ndarray = field(repr=False)

    @classmethod
    def from_action(cls, system: MatricialSystem, action,
                    tol: float = FEASIBILITY_TOL) -> "SubsystemGenerator":
        images = [linalg.as_matrix(a) for a in action]
        if len(images) != len(system):
            raise InputError(f"{len(images)} images for {len(system)} basis elements")
        for k, img in enumerate(images):
            if img.shape != (system.dim, system.dim):
                raise InputError(f"action[{k}] has shape {img.shape}")
            if not contains(system, img, tol):
                raise InputError(f"action[{k}] does not lie in span(V)")
        if linalg.frob(images[0]) > tol:
            raise InputError("A(basis[0]) must vanish: the unit is not annihilated")

        # Images of the orthonormalized basis follow linearly from the
        # orthonormalization coefficients; their coordinates, as columns, give
        # the matrix of A on V.
        coord = system.coords(images).T @ system.onb_coeffs.T
        imag_defect = float(np.max(np.abs(coord.imag))) if coord.size else 0.0
        if imag_defect > tol * (1.0 + float(np.max(np.abs(coord.real)))):
            raise InputError(
                f"induced coordinate matrix is not real (defect {imag_defect:.3e}): "
                "A does not preserve hermiticity on V"
            )
        return cls(system=system, action=tuple(images),
                   coordinate_matrix=coord.real.copy())

    def apply(self, m) -> np.ndarray:
        """A(m) for m in span(V), through the coordinate matrix."""
        c = self.system.coords(linalg.as_matrix(m))
        return self.system.from_coords(self.coordinate_matrix @ c)

    def __neg__(self) -> "SubsystemGenerator":
        return SubsystemGenerator(system=self.system,
                                  action=tuple(-a for a in self.action),
                                  coordinate_matrix=-self.coordinate_matrix)


def _basis_images(sub: SubsystemGenerator, step: np.ndarray):
    """Images of the user basis under the map with matrix ``step`` on V's coordinates."""
    system = sub.system
    return list(system.from_coords(system.coords(system.basis) @ step.T))


def subsystem_resolvent_images(sub: SubsystemGenerator, lam: float):
    """Images of the user basis under lam * R(lam, A), computed on V's coordinates."""
    m = len(sub.system)
    system_matrix = float(lam) * np.eye(m) - sub.coordinate_matrix
    linalg.check_nonsingular(
        system_matrix,
        f"subsystem resolvent singular at lam={lam}: condition estimate {{cond:.3e}}")
    return _basis_images(sub, float(lam) * np.linalg.inv(system_matrix))


def subsystem_evolve_images(sub: SubsystemGenerator, t: float):
    """Images of the user basis under exp(t * A) on V's coordinates."""
    return _basis_images(sub, linalg.expm(sub.coordinate_matrix, scale=float(t)))


@dataclass(frozen=True)
class SubsystemValidationReport:
    valid: bool
    checks: tuple
    message: str

    def failures(self):
        return [c for c in self.checks if not c["feasible"]]


def validate_subsystem_semigroup(sub: SubsystemGenerator,
                                 sample_ts: Sequence[float] = (0.5, 1.5),
                                 sample_lambdas: Sequence[float] = (1.0, 4.0),
                                 tol: float = FEASIBILITY_TOL,
                                 max_iter: int = VALIDATE_MAX_ITER) -> SubsystemValidationReport:
    """Certify that A generates a UCP semigroup on V.

    For each sampled lambda the map lam * R(lam, A) and for each sampled t the
    map exp(t * A), both computed on V's coordinates, must extend to a UCP map
    on the full matrix algebra; feasibility of the extension problem is the
    certificate, and each check records the feasibility residuals.
    """
    from . import extension  # local import: extension builds on this module

    samples = ([("resolvent", lam, subsystem_resolvent_images) for lam in sample_lambdas]
               + [("evolution", t, subsystem_evolve_images) for t in sample_ts])
    checks = []
    for kind, parameter, images_of in samples:
        check = {"kind": kind, "parameter": float(parameter)}
        try:
            images = images_of(sub, parameter)
        except NumericalError as exc:  # a singular resolvent sample
            checks.append({**check, "feasible": False, "residuals": None, "error": str(exc)})
            continue
        feasible, residuals = extension.ucp_extension_feasible(
            sub.system, images, tol=tol, max_iter=max_iter)
        checks.append({**check, "feasible": feasible, "residuals": residuals})
    valid = all(check["feasible"] for check in checks)
    message = "UCP subsystem semigroup" if valid else "not a UCP subsystem semigroup"
    return SubsystemValidationReport(valid=valid, checks=tuple(checks), message=message)
