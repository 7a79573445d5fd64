"""Extension of UCP maps, generators, semigroups, and groups from V to M_d.

Every extension problem here is convex feasibility in the real vector space of
Hermitian d^2 x d^2 Choi matrices:

  map case        find C with  C PSD,             phi_C(v_k) = target_k  for all k,
  generator case  find C with  P C P PSD,         phi_C(v_k) = A(v_k)    for all k,

where phi_C is the map with Choi matrix C, v_k runs over the system's basis
(v_0 = I, so unitality / kernel-of-unit is the k = 0 constraint), and
P = I - omega omega* (``maps.ccp_projector``) projects orthogonally to the
maximally entangled vector omega.  Both cones are the PSD cone seen through a
frame: an orthonormal set F of columns, F = I for maps and F an orthonormal
basis of the range of P for generators (F F* = P).  C -> F (F* C F) F* is an
orthogonal projection, and the rest of C is unconstrained, so

  Pi_K(C) = C + F (Pi_+(F* C F) - F* C F) F*,   Pi_+ the PSD clip,

is the exact cone projection of both problems, and the toolkit's one PSD
clip: with m = F* C F = U diag(w) U*, the point C + F (U max(w, 0) U* - m) F*
is made exactly Hermitian once.  It keeps the difference with the same m that
eigh read (one triangle of it), which cancels the anti-Hermitian part that
roundoff leaves in m.  The affine projection also returns exactly Hermitian
matrices, so every extension returned is exactly Hermitian.

The solver aims at the projection of a starting point x0 onto the feasible
set.  That makes multi-start behaviour meaningful: distinct randomized starts
project to distinct feasible points exactly when the feasible set is not a
singleton, which is how non-uniqueness of extensions is detected.  Groups and
rigidity are decided by certificates instead; randomized starts only cross-check.

``converged`` is the residual check alone: the polished point's cone, affine
and restriction residuals are all at most ``tol``.  A run stopped by budget or
plateau can still pass it after the polish; it then returns a feasible point
that need not be the projection of its start, and the uniqueness diagnostics
need only feasible points.

The affine projection is matrix-free.  The agreement map is
A(C)_k = sum_ij (v_k)_ij C[(i,.),(j,.)], its adjoint is
A*(Y) = sum_k conj(v_k) (x) Y_k (the conj matters for complex bases such as
Pauli Y), and A A* = G (x) id with G_kl = tr(v_k v_l) the real Gram matrix of
the linearly independent Hermitian basis.  Hence

  P(C) = C - sum_k conj(D_k) (x) (A(C)_k - target_k),   D = G^-1 basis,

two (|V| x d^2) @ (d^2 x d^2) products after relaying C out as
[(i,j),(a,b)].  No d^4 x d^4 matrix is ever formed.

The projection is computed through its dual (Malick, SIAM J. Matrix Anal.
Appl. 26, 2004; Henrion & Malick, Projection methods in conic optimization,
2012).  The system's orthonormal basis Q = R^-T basis comes with R^-T, its
``onb_coeffs``: lower-triangular with positive diagonal and R^-T G R^-1 = I,
so G = R^T R is the Cholesky factorisation of G.  The map
L(W) = A*(R^-1 W) = sum_k conj(Q_k) (x) W_k is an isometry, and in the
|V| d^2 real variables W (rows Hermitian d x d) the dual

  f(W) = 1/2 ||Pi_K(x0 + L W)||^2 - <R^-T T, W>,  grad f(W) = R^-T (A(X) - T),
  X = Pi_K(x0 + L W),

is convex, with Hessian the identity wherever Pi_K is locally the identity,
so unit steps are natural.  At the minimiser X is the projection of x0 (the
limit of Dykstra's alternating projections).  X lies exactly in the cone and
L is an isometry, so ||grad f|| is the distance from X to the affine
subspace; the run stops when it reaches 0.2 tol, or the roundoff of grad f
(d^2 eps ||X||), below which no direction computed from it can be trusted.

f is minimised by a regularised semismooth Newton-CG method (Qi & Sun, SIAM
J. Matrix Anal. Appl. 28, 2006; Zhao, Sun & Toh, SIAM J. Optim. 20, 2010).
The PSD clip at Z = U diag(w) U* has the generalized Jacobian element
H -> U (Omega o U* H U) U*, Omega the divided differences
(w_i+ - w_j+) / (w_i - w_j): 1 where both eigenvalues are positive, 0 where
both are not.  Pi_K clips Z = F* C F, whose eigendecomposition the cone
projection already computed, so H -> H + E ((Omega - 1) o E* H E) E*, with
E = F U, is an element J for Pi_K.  V = L* J L is then a generalized Hessian
of f, with spectrum in [0, 1], and CG solves (V + eps I) p = -grad f with
eps = min(c, ||grad f||^1.5) to the relative tolerance min(eta, ||grad f||^tau),
in at most the dual dimension of steps; each CG step applies L, the
conjugation by E there and back, and L*.  The exponent 1.5
matters when the feasible set has no positive-definite point: then f has no
minimiser and decreases along flat directions (along f ~ a/s, f'' ~ |f'|^1.5),
and eps ~ ||grad f|| would hold the steps along them to unit length.  A step
is accepted by backtracking from the unit step, halving it, on the Armijo
test for f or on <grad f(W + t p), p> <= c <grad f(W), p>, which for convex f
implies it and, unlike it, is not hidden by the roundoff of f (about
1e-16 ||X||^2) once the residual is near 1e-8.  A run also stops at once on a
non-finite dual value or gradient, and on a plateau: when, after 50 Newton
steps, a residual still above 100 tol has not halved its best over the last
50, the sets look disjoint or the problem is degenerate, and the verdict is
left to the polish.  A dual that is not finite already at the start leaves
no point to polish and raises :class:`NumericalError`.

``iterations`` counts evaluations of f, line-search trials included; each is
one cone projection (one d^2 x d^2 eigh) plus O(|V| d^4), so ``max_iter`` is
a budget of cone projections; CG steps are not counted.  In a batch (below)
each member counts its own evaluations against its own budget.  Set-up
factorises nothing: Q and R^-T are the system's own.  The best point found is
projected onto the affine subspace, then onto the cone, and the residuals are
measured on the result.

Starting points.  The generator problem starts from the affine projection of
zero.  The map problem starts from the affine projection of the identity
map's Choi matrix: scaled resolvents of UCP semigroups cluster around the
identity as the spectral parameter grows, and the projection of the identity
selects the extension compatible with that limit (the projection of zero
instead selects the minimum-norm extension, which in general fails the
conditional-positivity recovery of the resolvent-family route).  Randomized
starts add a seeded Hermitian Gaussian perturbation before the first
projection; ``ExtensionOptions.seed`` chooses the start, ``None`` the
deterministic one and an int the randomized one it seeds.  :func:`multi_start`
solves one problem from a list of seeds on one set-up: the seed ``None``
solves with the problem's options as given, and an int ``s`` solves from the
randomized start with ``seed = s``, so equal seeds give bit-identical
extensions.

Multi-start.  All the starts of :func:`multi_start` are solved as one batch,
in one lockstep Newton-CG loop: the start points, each dual evaluation (one
stacked eigh and stacked lift and relayout products), the CG steps, the line
search and the polish act on arrays with a leading member axis.  Each member
keeps its own stopping rules, step length, best point, ``iterations`` and
report (``restriction_error`` is measured on its returned map).  A member
leaves the batch at one place, the top of each Newton step, where every
member that stopped is dropped.  Within a step no member leaves: a row whose
CG has converged leaves only the CG arrays, and a member that stops
backtracking keeps its step, accepted or 0, while the others backtrack, so
each trial of the line search evaluates the whole batch.  Every operation acts
on each member alone, so a member's extension and report are bit-identical to
those of the batch of one from its seed; a single solve is such a batch,
with the same (B, 1) per-member columns as any other.  At d = 2 the arrays
are 3 x 3 or 4 x 4, so numpy's per-call cost, not arithmetic, sets the time
of a step: eight seeded starts of the rebit rotation or dissipation take
about 2.5 times as long as one.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import dynamics, linalg, maps, systems
from .dynamics import SubsystemGenerator
from .errors import (ExtensionInfeasible, GroupExtensionError, InputError,
                     NumericalError, ResolventFamilyError)
from .maps import SuperOp
from .systems import MatricialSystem
from .tolerances import FEASIBILITY_TOL, SOLVE_MAX_ITER, VALIDATE_MAX_ITER

__all__ = [
    "ExtensionOptions",
    "ExtensionProblem",
    "ExtensionReport",
    "multi_start",
    "ResolventFamily",
    "RigidityCertificate",
    "GroupCertificate",
    "GroupExtensionReport",
    "RigidityReport",
    "extend_ucp_map",
    "ucp_extension_feasible",
    "rescale_resolvent",
    "extend_generator",
    "extend_via_resolvent_family",
    "extend_group",
    "rigidity_probe",
    "rigidity_witness",
    "extend_discrete",
]


# ---------------------------------------------------------------------------
# Problem and report types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExtensionOptions:
    tol: float = FEASIBILITY_TOL
    max_iter: int = SOLVE_MAX_ITER
    seed: Optional[int] = None  # None: deterministic start; an int: seeded random start

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0) or self.max_iter <= 0:
            raise InputError("tol must be finite and positive, and max_iter positive")


@dataclass(frozen=True)
class ExtensionReport:
    iterations: int
    cone_residual: float
    affine_residual: float
    restriction_error: float
    converged: bool


@dataclass(frozen=True)
class ExtensionProblem:
    """A map- or generator-extension problem on a matricial system."""

    system: MatricialSystem
    map_targets: Optional[tuple] = None
    generator: Optional[SubsystemGenerator] = None
    options: ExtensionOptions = field(default_factory=ExtensionOptions)

    def __post_init__(self):
        if (self.map_targets is None) == (self.generator is None):
            raise InputError("exactly one of map_targets / generator must be given")
        if self.generator is not None and not self.system.same_basis(self.generator.system):
            raise InputError("generator is defined on a different system")

    @classmethod
    def for_map(cls, system: MatricialSystem, images,
                options: Optional[ExtensionOptions] = None) -> "ExtensionProblem":
        d = system.dim
        mats = [linalg.ensure_hermitian(linalg.as_matrix(m, (d, d), f"image {k}"),
                                        tol=1e-10, name=f"image {k}")
                for k, m in enumerate(images)]
        if len(mats) != len(system):
            raise InputError(f"{len(mats)} images for {len(system)} basis elements")
        if linalg.frob(mats[0] - np.eye(d)) > FEASIBILITY_TOL * d:
            raise InputError("map must be unital on V: image of the identity must be I")
        return cls(system=system, map_targets=tuple(mats),
                   options=options or ExtensionOptions())

    @classmethod
    def for_generator(cls, system: MatricialSystem, generator: SubsystemGenerator,
                      options: Optional[ExtensionOptions] = None) -> "ExtensionProblem":
        return cls(system=system, generator=generator,
                   options=options or ExtensionOptions())


@dataclass(frozen=True)
class ResolventFamily:
    """A family F(lam) of UCP maps extending lam * R(lam, A) on (0, omega]."""

    omega: float
    f_omega: SuperOp
    grid: tuple
    members: tuple  # pairs (lam, SuperOp), ascending in lam

    def at(self, lam: float) -> SuperOp:
        """F(lam) for any lam in (0, omega], transported from F(omega)."""
        if not 0.0 < lam <= self.omega + 1e-12:
            raise InputError(f"lam must lie in (0, {self.omega}], got {lam}")
        return rescale_resolvent(self.f_omega, lam / self.omega)


@dataclass(frozen=True)
class RigidityCertificate:
    """The commutant V' behind a rigidity verdict (``systems.Commutant``):
    its dimension and its singular-value gap (``None`` when V' = M_d)."""

    commutant_dim: int
    commutant_gap: Optional[float]


@dataclass(frozen=True)
class GroupCertificate(RigidityCertificate):
    """Adds ``inverse_witness``, the ccp defect max(0, -lambda_min(P(-C+)P)) of
    -G+ (``dynamics.Generator.ccp_eigenvalue``), zero for a unique group extension."""

    inverse_witness: float


@dataclass(frozen=True)
class GroupExtensionReport:
    extension: ExtensionReport
    inverse_residual: float
    uniqueness_spread: float
    multiplicativity_residual: float
    n_starts: int
    certificate: GroupCertificate


@dataclass(frozen=True)
class RigidityReport:
    all_identity: bool
    max_pairwise_distance: float
    max_distance_to_identity: float
    identity_threshold: float
    n_converged: int
    n_runs: int
    certificate: RigidityCertificate


# ---------------------------------------------------------------------------
# Dual projection solver
# ---------------------------------------------------------------------------

# Semismooth Newton-CG on the dual (module docstring): the cap c of the
# regularisation eps = min(c, ||grad f||^1.5), the forcing constant eta and
# exponent tau of the CG tolerance min(eta, ||grad f||^tau) ||grad f||, and the
# constant of both step acceptance tests.
_NEWTON_REG = 1e-2
_CG_FORCING = 0.1
_CG_EXPONENT = 0.5
_ARMIJO = 1e-4
# The plateau rule: every _STALL_WINDOW Newton steps, a run whose residual is
# still above 100 tol stops when its best residual fell by less than the
# fraction _STALL_IMPROVEMENT over the window.
_STALL_WINDOW = 50
_STALL_IMPROVEMENT = 0.5
_EPS = float(np.finfo(float).eps)


def _clip_weights(w: np.ndarray) -> np.ndarray:
    """The divided differences (w_i+ - w_j+) / (w_i - w_j) of the PSD clip at
    a Hermitian matrix with eigenvalues w, or at each of a stack: 1 where both
    are positive, 0 where both are nonpositive."""
    pos = np.maximum(w, 0.0)
    num = pos[..., :, None] - pos[..., None, :]
    positive = w > 0.0
    both = positive[..., :, None] & positive[..., None, :]
    return np.divide(num, w[..., :, None] - w[..., None, :], out=both.astype(float),
                     where=num != 0.0)


@functools.cache
def _cone_constants(d: int, ccp: bool) -> tuple:
    """``(base, F, F*)``: the base of the start points and the frame of the
    cone (module docstring), F = I for the PSD cone of maps and an orthonormal
    basis of the range of P for the ccp cone of generators.  The one place
    that tells the two cones apart.  They depend on d alone, so they are
    computed once per dimension and shared read-only by every solver."""
    n = d * d
    if ccp:
        base = np.zeros((n, n), dtype=complex)
        frame = np.linalg.eigh(maps.ccp_projector(d))[1][:, 1:]
    else:
        base, frame = maps.identity_map(d).choi, np.eye(n, dtype=complex)
    constants = (base, frame, linalg.dagger(frame))
    for a in constants:
        a.setflags(write=False)
    return constants


class _DualPoint(NamedTuple):
    """The dual at a batch of points W, one row per member: X = Pi_K(x0 + L W),
    grad f(W) and the eigendecomposition that Pi_K clipped as arrays, and f(W),
    ||grad f(W)|| and its roundoff d^2 eps ||X|| as lists of floats, which the
    stopping rules read member by member."""

    w: np.ndarray
    x: np.ndarray
    grad: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    value: list
    residual: list
    floor: list

    def take(self, rows) -> "_DualPoint":
        return _DualPoint(*(field[rows] for field in self[:5]),
                          *([field[k] for k in rows] for field in self[5:]))


class _JacobianDefect(NamedTuple):
    """H -> (J - I) H = E ((Omega - 1) o E* H E) E*, E = F U, on one matrix or
    on each matrix of a stack with its own E and Omega
    (:meth:`_FeasibilitySolver._jacobian_defect`)."""

    e: np.ndarray
    e_h: np.ndarray
    weights: np.ndarray

    def __call__(self, h: np.ndarray) -> np.ndarray:
        e, e_h, weights = self
        return e @ (weights * (e_h @ h @ e)) @ e_h

    def take(self, rows) -> "_JacobianDefect":
        return _JacobianDefect(*(field[rows] for field in self))


class _FeasibilitySolver:
    """Shared precomputation for one feasibility problem, solved from a batch
    of starts.

    Iterates are Hermitian d^2 x d^2 Choi matrices; the affine projection is
    the matrix-free one of the module docstring, and the dual variables are
    |V| x d^2 arrays whose rows are Hermitian d x d matrices, handled as flat
    real vectors (a complex array viewed as its real and imaginary parts), so
    that plain dot products are the real inner product Re tr(a* b).  The
    methods act on one matrix or on a stack along a leading batch axis, one
    member per start, and every operation acts on each member alone, so a
    member's iterates do not depend on the rest of its batch.
    """

    def __init__(self, system: MatricialSystem, targets, ccp: bool = False):
        d = system.dim
        n = d * d
        self.system = system
        self.d = d
        self.targets = [linalg.as_matrix(t) for t in targets]
        self.basis_rows = np.array(system.basis).reshape(len(system), n)
        self.target_rows = np.array(self.targets).reshape(len(system), n)
        # whiten = R^-T with G = R^T R, the system's orthonormalization
        # coefficients, and onb_rows the orthonormal basis Q = R^-T basis as
        # rows.  lift W is L(W) = sum_k conj(Q_k) (x) W_k relaid out, and
        # onb_rows @ M its adjoint L*; dual_adjoint = lift @ whiten holds the
        # rows of conj(D), D = G^-1 basis the dual basis, transposed.
        self.whiten = system.onb_coeffs
        self.onb_rows = system.onb.reshape(len(system), n)
        self.lift = np.conj(self.onb_rows).T
        self.dual_adjoint = self.lift @ self.whiten
        self.dual_targets = (self.whiten @ self.target_rows).view(float).ravel()
        self.cg_steps = len(system) * n
        self.dual_shape = (-1, len(system), n)  # a stack of duals as complex |V| x d^2
        self.blocks = (-1, d, d, d, d)  # a stack of Choi matrices as [i, a, j, b]
        # The cone clips F* C F, F the frame of the cone as columns.
        self.base, self.frame, self.frame_h = _cone_constants(d, ccp)
        offset = self.project_affine(np.zeros((n, n), dtype=complex))
        inconsistency = self.affine_residual(offset)
        if inconsistency > FEASIBILITY_TOL * (1.0 + linalg.frob(self.target_rows)):
            raise InputError(
                f"agreement targets are inconsistent: residual {inconsistency:.3e}"
            )

    def _relayout(self, c: np.ndarray) -> np.ndarray:
        """C[(i,a),(j,b)] <-> M[(i,j),(a,b)]; the swap is its own inverse."""
        return c.reshape(self.blocks).swapaxes(2, 3).reshape(c.shape)

    def _defect(self, m: np.ndarray) -> np.ndarray:
        """The agreement defect A(C) - T, rows k, of C relaid out as m."""
        return self.basis_rows @ m - self.target_rows

    def _cone_point(self, c: np.ndarray):
        """Pi_K(C) and the eigendecomposition (w, u) of the matrix it clipped,
        m = F* C F.  The form C + F (clipped - m) F* is what keeps the point in
        the cone when m is not exactly Hermitian (module docstring)."""
        m = self.frame_h @ c @ self.frame
        w, u = np.linalg.eigh(m)
        clipped = (u * np.maximum(w, 0.0)[..., None, :]) @ linalg.dagger(u)
        return linalg.hermitian_part(c + self.frame @ (clipped - m) @ self.frame_h), (w, u)

    def project_cone(self, c: np.ndarray) -> np.ndarray:
        """Pi_K(C) = C + F (Pi_+(F* C F) - F* C F) F* (module docstring)."""
        return self._cone_point(c)[0]

    def project_affine(self, c: np.ndarray) -> np.ndarray:
        """P(C) = C - sum_k conj(D_k) (x) (A(C)_k - target_k)."""
        m = self._relayout(c)
        return linalg.hermitian_part(self._relayout(m - self.dual_adjoint @ self._defect(m)))

    def affine_residual(self, c: np.ndarray) -> float:
        return linalg.frob(self._defect(self._relayout(c)))

    def start_points(self, seeds) -> np.ndarray:
        """The start point of each seed (module docstring), stacked."""
        n = self.d * self.d
        raw = np.array([self.base if seed is None
                        else self.base + linalg.random_hermitian(n, np.random.default_rng(seed))
                        for seed in seeds])
        return self.project_affine(raw)

    def _lifted(self, w: np.ndarray) -> np.ndarray:
        """L(W) for each row W of ``w``, as d^2 x d^2 Choi matrices."""
        return self._relayout(self.lift @ w.view(complex).reshape(self.dual_shape))

    def _adjoint(self, m: np.ndarray) -> np.ndarray:
        """L*(M) for each matrix M of the stack ``m``, as rows of flat duals."""
        return (self.onb_rows @ self._relayout(m)).view(float).reshape(len(m), -1)

    def _dual_point(self, x0: np.ndarray, w: np.ndarray) -> _DualPoint:
        """X = Pi_K(x0 + L W), the dual value f(W) and its gradient L* X - R^-T T,
        for each row W of ``w``."""
        x, (eigenvalues, eigenvectors) = self._cone_point(x0 + self._lifted(w))
        grad = self._adjoint(x) - self.dual_targets
        flat = x.reshape(len(w), -1)
        squares = np.vecdot(flat, flat).real.tolist()
        pairings = np.vecdot(w, self.dual_targets).tolist()
        roundoff = x.shape[-1] * _EPS
        return _DualPoint(w, x, grad, eigenvalues, eigenvectors,
                          [0.5 * s - t for s, t in zip(squares, pairings)],
                          [math.sqrt(g) for g in np.vecdot(grad, grad).tolist()],
                          [roundoff * math.sqrt(s) for s in squares])

    def _jacobian_defect(self, spectrum: tuple) -> _JacobianDefect:
        """H -> (J - I) H for the element J of the generalized Jacobian of Pi_K
        at the point whose clipped matrix has the eigendecomposition
        ``spectrum`` (:meth:`_cone_point`).

        For the PSD clip of U diag(w) U*, J_+ H = U (Omega o U* H U) U* with
        Omega the divided differences of :func:`_clip_weights`; through the
        frame, J H = H + F (J_+ (F* H F) - F* H F) F*, that is
        J H = H + E ((Omega - 1) o E* H E) E* with E = F U.
        """
        w, u = spectrum
        e = self.frame @ u
        return _JacobianDefect(e, linalg.dagger(e), _clip_weights(w) - 1.0)

    def _newton_direction(self, point: _DualPoint) -> np.ndarray:
        """CG on (L* J L + eps I) p = -grad f for each member, J at its spectrum.

        L is an isometry, so L* J L p = p + L* (J - I) L p.  Each system is
        solved for p / ||grad f||, a unit right-hand side, to the relative
        tolerance min(eta, ||grad f||^tau), so no square overflows.  CG runs at
        most the dual dimension of steps.  A row whose CG has converged leaves
        the CG arrays, its step written into its row of the direction; that is
        no stop of the member.  Per-member scalars are (B, 1) columns.
        """
        residuals = point.residual
        scale = np.array(residuals)[:, None]
        shift = np.array([1.0 + min(_NEWTON_REG, s * math.sqrt(s)) for s in residuals])[:, None]
        targets = [min(_CG_FORCING, s ** _CG_EXPONENT) ** 2 for s in residuals]
        defect = self._jacobian_defect((point.eigenvalues, point.eigenvectors))
        r = point.grad / -scale
        p = r
        step = np.zeros_like(r)
        direction = np.empty_like(r)
        rr = np.vecdot(r, r)
        members = list(range(len(residuals)))  # the member of each CG row
        for _ in range(self.cg_steps):
            q = self._adjoint(defect(self._lifted(p))) + shift * p
            alpha = (rr / np.vecdot(p, q))[:, None]
            step += alpha * p
            r = r - alpha * q
            rr_new = np.vecdot(r, r)
            done = [k for k, s in enumerate(rr_new.tolist()) if s <= targets[k]]
            if len(done) == len(members):
                break
            if done:
                direction[[members[k] for k in done]] = step[done]
                keep = [k for k in range(len(members)) if k not in done]
                members = [members[k] for k in keep]
                targets = [targets[k] for k in keep]
                r, p, step, rr, rr_new, shift = (a[keep] for a in (r, p, step, rr, rr_new, shift))
                defect = defect.take(keep)
            p = r + (rr_new / rr)[:, None] * p
            rr = rr_new
        direction[members] = step
        return scale * direction

    def _line_search(self, x0, point: _DualPoint, direction, budgets):
        """Backtrack from the unit step along each member's direction, halving it.

        Each trial evaluates every member at its own step.  A member stops at
        its first trial that passes a test, at a non-finite trial, or when its
        budget runs out, and keeps its step from then on: the accepted step,
        or 0 if it did not move.  Returns the evaluations each member spent,
        whether it moved, and the last trial, in which the row of each member
        that moved is its accepted point.
        """
        slopes = np.vecdot(point.grad, direction).tolist()
        steps = [1.0] * len(budgets)
        spent = [0] * len(budgets)  # 0 while the member searches
        moved = [False] * len(budgets)
        trials = 0
        while not all(spent):
            trials += 1
            trial = self._dual_point(x0, point.w + np.array(steps)[:, None] * direction)
            derivatives = None
            for k, budget in enumerate(budgets):
                if spent[k]:
                    continue
                value = trial.value[k]
                if math.isfinite(value) and math.isfinite(trial.residual[k]):
                    moved[k] = value <= point.value[k] + _ARMIJO * steps[k] * slopes[k]
                    if not moved[k]:
                        # For convex f, f(t) - f(0) <= t f'(t): the derivative
                        # test is a sufficient decrease that the roundoff of f
                        # cannot hide.
                        if derivatives is None:
                            derivatives = np.vecdot(trial.grad, direction).tolist()
                        moved[k] = derivatives[k] <= _ARMIJO * slopes[k]
                    if not moved[k] and trials < budget:
                        steps[k] *= 0.5
                        continue
                if not moved[k]:
                    steps[k] = 0.0  # a non-finite trial, or its budget spent
                spent[k] = trials
        return spent, moved, trial

    def solve(self, options: ExtensionOptions, seeds) -> list:
        """Project the start point of each seed onto the feasible set (module
        docstring), all starts in one lockstep loop, with the tolerance and
        budget of ``options``.  Each member stops by its own rules and counts
        its own evaluations.  This is the one place where a member leaves the
        batch: at the top of each Newton step, the members that met the
        tolerance or the roundoff floor, spent their budget, stalled, or did
        not move in the last line search (with budget left, only a non-finite
        trial stops one there) are dropped from the rows of the dual point and
        of the start points together.  Returns one ``(superop, report)`` per
        seed.
        """
        if not seeds:
            return []
        tol, max_iter = options.tol, options.max_iter
        inner_tol = 0.2 * tol
        size = len(seeds)
        x0 = self.start_points(seeds)
        point = self._dual_point(x0, np.zeros((size, self.dual_targets.size)))
        if not all(map(math.isfinite, point.value + point.residual)):
            raise NumericalError("the dual overflowed at the start point")
        iterations = [1] * size
        best_residual, best_x = list(point.residual), list(point.x)
        window_best = [math.inf] * size
        stalled = [False] * size
        live = list(range(size))  # the member of each row of point and x0
        moved = [True] * size
        steps = 0
        while True:
            going = [k for k, i in enumerate(live)
                     if moved[k] and point.residual[k] > max(inner_tol, point.floor[k])
                     and iterations[i] < max_iter and not stalled[i]]
            if len(going) < len(live):
                if not going:
                    break
                live = [live[k] for k in going]
                point, x0 = point.take(going), x0[going]
            spent, moved, point = self._line_search(
                x0, point, self._newton_direction(point),
                [max_iter - iterations[i] for i in live])
            residuals = point.residual
            for k, i in enumerate(live):
                iterations[i] += spent[k]
                if moved[k] and residuals[k] < best_residual[i]:
                    best_residual[i], best_x[i] = residuals[k], point.x[k]
            steps += 1
            if steps % _STALL_WINDOW == 0:
                for k, i in enumerate(live):
                    window = window_best[i]
                    # a plateau far from feasibility: disjoint sets, or no Slater point
                    stalled[i] = (residuals[k] > 100.0 * tol and math.isfinite(window)
                                  and window - best_residual[i] < _STALL_IMPROVEMENT * window)
                    window_best[i] = best_residual[i]

        # Polish each best point: affine projection, then the cone-exact point;
        # the affine defect of the result is bounded by the distance between
        # the two.  A run that reached 0.2 tol stops at its best point.
        z = self.project_affine(np.array(best_x))
        chois = self.project_cone(z)
        gaps = z - chois
        defects = self._defect(self._relayout(chois))
        runs = []
        for choi, gap, defect, evaluations in zip(chois, gaps, defects, iterations):
            result = SuperOp(self.d, choi)
            cone_residual, affine_residual = linalg.frob(gap), linalg.frob(defect)
            restriction = restriction_error(result, self.system.basis, self.targets)
            runs.append((result, ExtensionReport(
                iterations=evaluations,
                cone_residual=cone_residual,
                affine_residual=affine_residual,
                restriction_error=restriction,
                converged=max(cone_residual, affine_residual, restriction) <= tol,
            )))
        return runs


def restriction_error(op: SuperOp, basis, targets) -> float:
    """max_k ||op(v_k) - t_k||: agreement checked on the map itself, all the
    images op(v_k) in one product (each bit-identical to ``op.apply(v_k)``)."""
    images = np.einsum("kij,iajb->kab", np.asarray(basis), op._choi4)
    return max(linalg.frob(image - t) for image, t in zip(images, targets))


def max_pairwise_distance(mats) -> float:
    """The largest Frobenius distance between two of ``mats`` (0.0 for fewer
    than two); pass ``op.choi`` to compare maps."""
    spread = 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            spread = max(spread, linalg.frob(mats[i] - mats[j]))
    return spread


def multi_start(problem: ExtensionProblem, seeds):
    """Solve ``problem`` once per entry of ``seeds``, on one shared set-up.

    The seed ``None`` solves with ``problem.options`` as given; an int ``s``
    solves from the randomized start ``replace(problem.options, seed=s)``.
    Returns one ``(superop, report)`` per seed, in order; the superop is the
    raw Choi-matrix solution (map problems use the PSD cone, generator
    problems the ccp cone { C : P C P >= 0 }, both projected through their
    frame as in the module docstring).
    """
    ccp = problem.generator is not None
    targets = problem.generator.action if ccp else problem.map_targets
    solver = _FeasibilitySolver(problem.system, targets, ccp)
    options = problem.options
    return solver.solve(options, [options.seed if seed is None else seed for seed in seeds])


# ---------------------------------------------------------------------------
# Map extension
# ---------------------------------------------------------------------------


def extend_ucp_map(problem: ExtensionProblem):
    """Extend a UCP map given on V (by basis images) to a UCP map on M_d.

    Returns ``(superop, report)``.  A non-converged report signals either that
    the given map was not UCP on V (the feasible set is empty) or that the
    iteration budget / tolerance was too tight.
    """
    if problem.map_targets is None:
        raise InputError("extend_ucp_map needs a map-case problem")
    return multi_start(problem, [None])[0]


def ucp_extension_feasible(system: MatricialSystem, images,
                           tol: float = FEASIBILITY_TOL,
                           max_iter: int = VALIDATE_MAX_ITER):
    """Feasibility verdict for extending the map v_k -> images[k] to a UCP map.

    Returns ``(feasible, residuals)``; used as the Arveson-type certificate
    that a map given on V is UCP there.
    """
    try:
        problem = ExtensionProblem.for_map(
            system, images, ExtensionOptions(tol=tol, max_iter=max_iter))
    except InputError:
        return False, None
    result, report = extend_ucp_map(problem)
    residuals = {
        "cone": report.cone_residual,
        "affine": report.affine_residual,
        "restriction": report.restriction_error,
        "iterations": report.iterations,
    }
    return report.converged, residuals


# ---------------------------------------------------------------------------
# Resolvent rescaling (geometric power series of a UCP map)
# ---------------------------------------------------------------------------


def rescale_resolvent(phi: SuperOp, beta: float, mode: str = "closed",
                      tol: float = FEASIBILITY_TOL) -> SuperOp:
    """The nonlinear map  phi -> sum_{k>=0} beta (1-beta)^k phi^(k+1).

    For phi = mu * R(mu, G) the result is (beta*mu) * R(beta*mu, G): it
    transports a scaled resolvent from parameter mu to beta*mu.  The map
    preserves unitality and complete positivity for beta in (0, 1].

    ``mode="series"`` truncates at the first K with (1-beta)^(K+1) <= tol;
    the discarded tail has norm at most that coefficient mass because powers
    of a UCP map are contractions.  ``mode="closed"`` evaluates the resummed
    form  beta * phi o (id - (1-beta) phi)^(-1).
    """
    beta = float(beta)
    if not 0.0 < beta <= 1.0:
        raise InputError(f"beta must lie in (0, 1], got {beta}")
    if not maps.is_ucp(phi, max(tol, 1e-6)):
        raise InputError("rescale_resolvent requires a UCP input map")
    t = phi.transfer
    n = t.shape[0]
    if mode == "series":
        out = np.zeros_like(t)
        power = t.copy()  # phi^(k+1)
        coeff = beta
        k = 0
        while True:
            out += coeff * power
            if (1.0 - beta) ** (k + 1) <= tol:
                break
            power = power @ t
            coeff *= 1.0 - beta
            k += 1
        return SuperOp.from_transfer(phi.d, out)
    if mode == "closed":
        m = np.eye(n) - (1.0 - beta) * t
        linalg.check_nonsingular(
            m, "id - (1-beta) phi is numerically singular (cond {cond:.3e}); "
               "the input was not a valid UCP map")
        return SuperOp.from_transfer(phi.d, beta * (t @ np.linalg.inv(m)))
    raise InputError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Generator extension (route A: direct feasibility)
# ---------------------------------------------------------------------------


def extend_generator(problem: ExtensionProblem):
    """Extend a subsystem generator A to a conditionally completely positive
    generator G on M_d with G(v_k) = A(v_k) and G(I) = 0.

    Returns ``(generator, report)``.  Feasibility is guaranteed whenever A
    generates a UCP semigroup on V, so persistent non-convergence signals
    invalid input or an insufficient budget.  Because span(V) contains the
    agreement constraints, the evolution of the result restricted to V matches
    the subsystem semigroup.
    """
    if problem.generator is None:
        raise InputError("a generator-case problem is required")
    result, report = multi_start(problem, [None])[0]
    return dynamics.certify(result, tol=problem.options.tol), report


# ---------------------------------------------------------------------------
# Generator extension (route B: resolvent family)
# ---------------------------------------------------------------------------


def _recover_generator(f_lam: SuperOp, lam: float) -> SuperOp:
    """G = lam * (id - F(lam)^{-1}) at the transfer level."""
    t = f_lam.transfer
    linalg.check_nonsingular(
        t, f"family member at lam={lam} is numerically singular (cond {{cond:.3e}})")
    n = t.shape[0]
    return SuperOp.from_transfer(f_lam.d, lam * (np.eye(n) - np.linalg.inv(t)))


def extend_via_resolvent_family(problem: ExtensionProblem, omega: float,
                                grid: Optional[Sequence[float]] = None,
                                max_doublings: int = 10):
    """Extend a subsystem generator through a family of extended resolvents.

    At parameter omega the map omega * R(omega, A) on V is extended to a UCP
    map F(omega) on M_d; the family F(lam) over the grid is generated from
    F(omega) by resolvent rescaling, each member's generator lam * (id -
    F(lam)^{-1}) is recovered, pairwise agreement is checked, and the
    candidate must be conditionally completely positive.  If it is not, omega
    is doubled and the construction repeats: growing omega shrinks the set of
    admissible families and prunes invalid extensions.  After
    ``max_doublings`` failures a structured error advises the direct
    feasibility route (:func:`extend_generator`).

    Returns ``(generator, family, report)``.
    """
    sub = problem.generator
    if sub is None:
        raise InputError("a generator-case problem is required")
    omega = float(omega)
    if omega <= 0:
        raise InputError(f"omega must be positive, got {omega}")
    if grid is None:
        grid = np.linspace(omega / 8.0, omega, 8)
    grid = sorted(float(g) for g in grid)
    if not grid or grid[0] <= 0 or grid[-1] > omega * (1 + 1e-12):
        raise InputError("grid must be a nonempty subset of (0, omega]")

    opts = problem.options
    # The recovery G = omega (id - F^{-1}) amplifies feasibility error by
    # roughly omega, so the inner map extension runs tighter than tol.
    inner = replace(opts, tol=opts.tol / max(50.0, 4.0 * omega))

    attempts = []
    current = omega
    for _ in range(max_doublings + 1):
        images = dynamics.subsystem_resolvent_images(sub, current)
        map_problem = ExtensionProblem.for_map(sub.system, images, inner)
        f_omega, map_report = extend_ucp_map(map_problem)
        if not map_report.converged:
            attempts.append({"omega": current, "failure": "map extension did not converge",
                             "map_report": map_report})
            current *= 2.0
            continue

        members = [(lam, rescale_resolvent(f_omega, lam / current, tol=inner.tol))
                   for lam in grid]
        recovered = [(lam, _recover_generator(f, lam)) for lam, f in members]
        candidate = _recover_generator(f_omega, current)
        spread = max_pairwise_distance([op.choi for _, op in recovered] + [candidate.choi])

        gen = dynamics.certify(candidate, tol=opts.tol)
        restriction = restriction_error(candidate, sub.system.basis, sub.action)
        if gen.certificates.certified and spread <= opts.tol and restriction <= opts.tol:
            family = ResolventFamily(omega=current, f_omega=f_omega,
                                     grid=tuple(grid), members=tuple(members))
            return gen, family, replace(map_report, restriction_error=restriction,
                                        converged=True)
        attempts.append({
            "omega": current,
            "failure": "recovered generator failed certification",
            "certificates": gen.certificates,
            "spread": spread,
            "restriction": restriction,
        })
        current *= 2.0

    raise ResolventFamilyError(
        f"no conditionally completely positive generator recovered up to "
        f"omega = {current / 2.0} ({max_doublings} doublings from {omega}); "
        "fall back to extend_generator",
        advice="extend_generator",
        attempts=attempts,
    )


# ---------------------------------------------------------------------------
# Group extension
# ---------------------------------------------------------------------------


# Sample times of the inverse and multiplicativity checks.
_GROUP_SAMPLE_TS = (0.4, 1.1)


def _start_seeds(rng: Optional[np.random.Generator], n_starts: int) -> list:
    """Seeds of the randomized starts of a cross-check (none by default; then
    ``rng`` may be None)."""
    if n_starts < 0:
        raise InputError(f"n_starts must be nonnegative, got {n_starts}")
    return [int(rng.integers(0, 2**32 - 1)) for _ in range(n_starts)]


def _decided_commutant(system: MatricialSystem, tol: float, error, claim: str):
    """V' (``systems.commutant``), or ``error`` when its rank is undecided."""
    comm = systems.commutant(system, tol)
    if not comm.decided:
        raise error(
            f"{claim} undecided: the commutant's rank is undecided (smallest "
            f"singular value counted nonzero {comm.gap:.3e}, tol {tol:.1e})")
    return comm


def _cross_check(problem: ExtensionProblem, seeds, error, claim: str) -> list:
    """The extensions from ``seeds``; one that does not converge leaves ``claim`` undecided."""
    runs = multi_start(problem, seeds)
    unconverged = sum(not report.converged for _, report in runs)
    if unconverged:
        raise error(f"{claim} undecided: {unconverged} of {len(seeds)} randomized "
                    "starts did not converge")
    return [op for op, _ in runs]


def extend_group(problem: ExtensionProblem, n_starts: int = 0, seed: int = 0):
    """Extend a one-parameter UCP group on V to a group on M_d, with checks.

    One solve, of +A, and two certificates decide:

      * rigidity, before any solve: V must be irreducible (commutant C I,
        :func:`rigidity_probe`); on a reducible V, M_d is not the injective
        envelope and uniqueness in M_d is not claimed;
      * the group: +A is extended to a ccp G+ (:func:`extend_generator`; a
        run that does not converge leaves the group undecided).  On a rigid
        V, A generates a UCP group exactly when -G+ is ccp: then exp(-t G+)
        is a UCP inverse of exp(t G+), and for any ccp extension G of A,
        exp(t G) o exp(-t G+) is UCP and fixes V, so it is the identity and
        G = G+ (a ccp extension of -A is likewise -G+).  The witness is the
        ccp defect of -G+ that :func:`dynamics.certify` tests.

    The result must also satisfy, at sampled times and within 100 x tol:

      * inversion:        exp(t G+) o exp(-t G+) = id,
      * multiplicativity: exp(t G+) is an algebra homomorphism on sampled
        pairs (a UCP map with a UCP inverse is a *-automorphism).

    ``n_starts`` randomized runs of +A are an opt-in cross-check: each must
    converge and agree with G+ within 10 x tol, or the certificate and the
    solver disagree and the extension fails.

    Returns ``(generator, group_report)``; failures raise
    :class:`GroupExtensionError`.
    """
    sub = problem.generator
    if sub is None:
        raise InputError("a generator-case problem is required")
    opts = problem.options
    check_tol = 100.0 * opts.tol

    # The rng draws the start seeds first and the multiplicativity samples after.
    rng = np.random.default_rng(seed)
    run_seeds = _start_seeds(rng, n_starts)
    comm = _decided_commutant(sub.system, opts.tol, GroupExtensionError, "uniqueness")
    if comm.dim > 1:
        raise GroupExtensionError(
            f"uniqueness in M_d is not claimed: V is reducible (commutant dimension "
            f"{comm.dim}), so M_d is not its injective envelope")

    gen_plus, report = extend_generator(problem)  # the one solve
    if not report.converged:
        raise GroupExtensionError("group undecided: the extension of +A did not converge")
    gen_minus = dynamics.certify(-gen_plus.op, opts.tol)
    witness = max(0.0, -gen_minus.ccp_eigenvalue)
    if not gen_minus.certificates.certified:
        raise GroupExtensionError(
            f"not a group on V: -G+ is not ccp (ccp defect {witness:.3e} of the "
            "extension G+ of +A)")

    steps = [dynamics.evolve(gen_plus, t) for t in _GROUP_SAMPLE_TS]
    ident = maps.identity_map(sub.system.dim)
    inverse_residual = max(
        step.compose(dynamics.evolve(gen_minus, t)).distance(ident)
        for step, t in zip(steps, _GROUP_SAMPLE_TS)
    )
    if inverse_residual > check_tol:
        raise GroupExtensionError(
            f"not a group on V: inverse check residual {inverse_residual:.3e}"
        )

    ops = (_cross_check(problem, run_seeds, GroupExtensionError, "uniqueness")
           if run_seeds else [])
    spread = max_pairwise_distance([gen_plus.op.choi] + [op.choi for op in ops])
    if spread > 10.0 * opts.tol:
        raise GroupExtensionError(
            f"randomized starts disagree (spread {spread:.3e}) although the "
            f"certificate says the extension is unique (ccp defect of -G+ {witness:.3e})")

    d = sub.system.dim
    mult_residual = 0.0
    for step in steps:
        for _ in range(4):
            a = linalg.random_hermitian(d, rng) + 1j * linalg.random_hermitian(d, rng)
            b = linalg.random_hermitian(d, rng) + 1j * linalg.random_hermitian(d, rng)
            lhs = step.apply(a @ b)
            rhs = step.apply(a) @ step.apply(b)
            scale = 1.0 + linalg.frob(a) * linalg.frob(b)
            mult_residual = max(mult_residual, linalg.frob(lhs - rhs) / scale)
    if mult_residual > check_tol:
        raise GroupExtensionError(
            f"extension is not multiplicative (residual {mult_residual:.3e})"
        )

    group_report = GroupExtensionReport(
        extension=report,
        inverse_residual=inverse_residual,
        uniqueness_spread=spread,
        multiplicativity_residual=mult_residual,
        n_starts=n_starts,
        certificate=GroupCertificate(commutant_dim=comm.dim, commutant_gap=comm.gap,
                                     inverse_witness=witness),
    )
    return gen_plus, group_report


# ---------------------------------------------------------------------------
# Rigidity probe and discrete extension
# ---------------------------------------------------------------------------


def rigidity_probe(system: MatricialSystem, n_starts: int = 0,
                   seed: int = 0, tol: float = FEASIBILITY_TOL,
                   max_iter: int = SOLVE_MAX_ITER) -> RigidityReport:
    """Decide whether V is rigid in M_d: is the identity the only UCP map on
    M_d that fixes V?

    The verdict ``all_identity`` is the commutant's: V is rigid exactly when
    it is irreducible, V' = C I.  Then C*(V) = M_d and, by Arveson's boundary
    theorem, the identity representation is a boundary representation of V,
    so the only UCP map fixing V is the identity (Arveson, Subalgebras of
    C*-algebras II, Acta Math. 128, 1972).  If instead V' holds a projection
    Q != 0, I, the pinching by Q (:func:`rigidity_witness`) is a UCP map other
    than the identity that fixes V.  An undecided commutant rank raises
    :class:`NumericalError`.  No solve runs by default.

    ``n_starts`` randomized starts of the solver for phi = id_V are an opt-in
    cross-check: each must converge, and on a rigid V land on the identity,
    else the probe raises :class:`NumericalError`.  On a non-rigid V they may
    all land on the identity; they cannot refute the witness.
    """
    options = ExtensionOptions(tol=tol, max_iter=max_iter)
    seeds = _start_seeds(np.random.default_rng(seed) if n_starts > 0 else None, n_starts)
    comm = _decided_commutant(system, tol, NumericalError, "rigidity")
    ops = (_cross_check(ExtensionProblem.for_map(system, system.basis, options),
                        seeds, NumericalError, "rigidity") if seeds else [])

    ident = maps.identity_map(system.dim) if ops else None
    identity_threshold = max(50.0 * tol, 1e-6)
    max_pair = max_pairwise_distance([op.choi for op in ops])
    max_to_id = max((op.distance(ident) for op in ops), default=0.0)
    rigid = comm.dim == 1
    if rigid and max_to_id > identity_threshold:
        raise NumericalError(
            f"a converged start lies {max_to_id:.3e} from the identity although "
            f"the commutant is C I (dimension 1, gap {comm.gap:.3e})")
    return RigidityReport(
        all_identity=rigid,
        max_pairwise_distance=max_pair,
        max_distance_to_identity=max_to_id,
        identity_threshold=identity_threshold,
        n_converged=len(ops),
        n_runs=n_starts,
        certificate=RigidityCertificate(commutant_dim=comm.dim, commutant_gap=comm.gap),
    )


def rigidity_witness(system: MatricialSystem,
                     tol: float = FEASIBILITY_TOL) -> Optional[SuperOp]:
    """The pinching x -> QxQ + (1-Q)x(1-Q) by a projection Q != 0, I of V'
    (``systems.Commutant.projection``), or None when V' = C I.

    It is UCP (Kraus operators Q and 1 - Q), it fixes V because Q commutes
    with V, and it is not the identity: it kills Q x (1-Q).
    """
    q = systems.commutant(system, tol).projection()
    if q is None:
        return None
    return maps.from_kraus(system.dim, [q, np.eye(system.dim) - q])


def extend_discrete(system: MatricialSystem, images, horizon: int,
                    options: Optional[ExtensionOptions] = None):
    """Extend a discrete-time UCP semigroup: one map extension, then powers.

    A discrete semigroup is determined by its single step, so the step given
    on V is extended once and the returned list is [id, psi, psi^2, ...,
    psi^horizon].  The k-th power restricted to V matches the k-th power of
    the given map within k * tol.
    """
    horizon = int(horizon)
    if horizon < 0:
        raise InputError("horizon must be nonnegative")
    problem = ExtensionProblem.for_map(system, images, options)
    psi, report = extend_ucp_map(problem)
    if not report.converged:
        raise ExtensionInfeasible(
            f"the given map is not extendably UCP on V (cone residual "
            f"{report.cone_residual:.3e}, affine residual {report.affine_residual:.3e})"
        )
    powers = [maps.identity_map(system.dim)]
    t = psi.transfer
    acc = np.eye(t.shape[0], dtype=complex)
    for _ in range(horizon):
        acc = acc @ t
        powers.append(SuperOp.from_transfer(system.dim, acc))
    return powers
