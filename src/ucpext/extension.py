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
need only feasible points.  ``termination`` is why the run stopped, decided
in one place (:meth:`_FeasibilitySolver._lockstep`): ``tol``, ``roundoff``,
``budget``, ``plateau`` or ``nonfinite``.  A verdict that the given data have
no extension reads both: only an unconverged run that stopped on the plateau
is evidence of infeasibility (:func:`extend_discrete`,
``dynamics.validate_subsystem_semigroup``).  Any other unconverged stop
decides nothing: a roundoff floor reached above ``tol`` means that the
residuals, which are absolute, cannot get below it at the data's scale.

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
subspace.  The run stops when the affine defect that the verdict reads,
||A(X) - T|| in V's own basis, reaches 0.2 tol, or when ||grad f|| reaches
its roundoff (d^2 eps ||X||), below which no direction computed from it can
be trusted; the best point and the plateau rule read the same defect.  The
two norms differ by R: on a basis scaled by s, ||A(X) - T|| is about
s ||grad f||, so a stop on ||grad f|| would leave a defect s times too large.

f is minimised by a regularised semismooth Newton method (Qi & Sun, SIAM
J. Matrix Anal. Appl. 28, 2006; Zhao, Sun & Toh, SIAM J. Optim. 20, 2010).
The PSD clip at Z = U diag(w) U* has the generalized Jacobian element
H -> U (Omega o U* H U) U*, Omega the divided differences
(w_i+ - w_j+) / (w_i - w_j): 1 where both eigenvalues are positive, 0 where
both are not.  Pi_K clips Z = F* C F, whose eigendecomposition the cone
projection already computed, so H -> H + E ((Omega - 1) o E* H E) E*, with
E = F U, is an element J for Pi_K.  V = L* J L is then a generalized Hessian
of f, with spectrum in [0, 1], and each Newton step solves
(V + eps I) p = -grad f with eps = min(c, ||grad f||^1.5).  Near a solution
the spectrum of V spreads over orders of magnitude, so CG needs tens of steps
there.  A dual of at most ``_DIRECT_MAX_COORDS`` = 128 coordinates m
(|V| d(d+1)/2 in real arithmetic, |V| d^2 in complex: the rebit, d = 3, and
real d = 4) is therefore solved directly: in an orthonormal basis b_j of the
duals with Hermitian rows the system is (1 + eps) I + Y^T diag(Omega - 1) Y,
Y_j = E* L(b_j) E, formed at O(m^2 d^4) and factorised.  A larger dual,
where forming it costs more than the CG steps, is solved by CG to the
relative tolerance min(eta, ||grad f||^tau), in at most the dual dimension of
steps; each CG step applies L, the conjugation by E there and back, and L*.
Exact directions also carry degenerate problems, with no positive-definite
feasible point, past plateaus on which inexact ones stopped.  The exponent 1.5
matters when the feasible set has no positive-definite point: then f has no
minimiser and decreases along flat directions (along f ~ a/s, f'' ~ |f'|^1.5),
and eps ~ ||grad f|| would hold the steps along them to unit length.  A step
is accepted by backtracking from the unit step, halving it, on the Armijo
test for f or on <grad f(W + t p), p> <= c <grad f(W), p>, which for convex f
implies it and, unlike it, is not hidden by the roundoff of f (about
1e-16 ||X||^2) once the residual is near 1e-8.  A run also stops at once on a
non-finite dual value or gradient (``nonfinite``), on its budget
(``budget``), and on a plateau (``plateau``): when, after 50 Newton steps, a
residual still above 100 tol has not halved its best over the last 50, the
sets look disjoint or the problem is degenerate, and the verdict is left to
the polish.  The stops on the defect and on the gradient's roundoff are
``tol`` and ``roundoff``.  A dual that is not finite already at the start
leaves no point to polish and raises :class:`NumericalError`.

``iterations`` counts evaluations of f, line-search trials included; each is
one cone projection (one d^2 x d^2 eigh) plus O(|V| d^4), so ``max_iter`` is
a budget of cone projections; CG steps are not counted.  In a batch (below)
each member counts its own evaluations against its own budget.  Set-up
factorises nothing: Q and R^-T are the system's own, and L of the dual's
basis is built by the first direct Newton step.  The best point found is
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
solves one problem per seed on one set-up: the seed ``None`` solves with the
problem's options as given, and an int ``s`` solves from the randomized start
with ``seed = s``, so equal seeds give bit-identical extensions.  A member can
also be given its start, a ``SuperOp`` on M_d in place of its seed: the start
point is then the affine projection of that map's Choi matrix.
:func:`multi_start` passes such a seed on as it is, and
:func:`ucp_extensions_feasible` takes one start of the same three kinds per
sample.  A start of any other kind (a negative, non-integral or boolean seed,
a map on another M_d) raises :class:`InputError` before anything is built
(:func:`_solve_batch`).  A validation
(``dynamics.validate_subsystem_semigroup``) uses both, on every V: its one
generator solve starts from a certified extension of its generator, and its
cross-check samples from the samples of the certified extension G+ that
solve returns.  Each start already lies in its feasible set, so the
solver confirms it in one dual evaluation, with the same stop rule, polish
and residual check as from any other start.  A given start is deterministic:
it draws no random numbers.

Batches.  A batch is a set of problems on one system and one cone, each
member with its own start and its own agreement targets, solved in one
lockstep Newton loop: the start points, each dual evaluation (one stacked
eigh and stacked lift and relayout products), the Newton steps (a direct one
forms the systems of up to 128 / m members in one set of stacked products),
the line search and the polish act on arrays with a leading member axis,
and each member's rows of the targets T and R^-T T travel with its start
point.  Every batch enters through :func:`multi_start`, which stacks the
targets of one problem per start (on one system, of one kind, with equal
options; one problem solved from several seeds is repeated once per seed):
``demo-rebit`` solves its rotation's cross-check and its dissipation's
starts together, and the samples of a validation are one map problem per
member (:func:`ucp_extensions_feasible`).  Each member keeps its own
stopping rules, step length, best point, ``iterations`` and report
(``restriction_error`` is measured on its returned map).  A member leaves
the batch at one place, the top of each Newton step, where every member
that stopped is dropped.  Within a step no member leaves: a row whose CG has
converged leaves only the CG arrays, and a member that stops backtracking
keeps its step, accepted or 0, while the others backtrack, so each trial of
the line search evaluates the whole batch.  Every operation acts on each
member alone, so a member's extension and report are bit-identical to those
of the batch of one from its seed and targets; a single solve is such a
batch, with the same (B, 1) per-member columns as any other.  At d = 2 the
arrays are 3 x 3 or 4 x 4, so numpy's per-call cost, not arithmetic, sets
the time of a step: eight seeded starts of the rebit rotation or dissipation
take about 2.2 and 2.8 times as long as one (1.76 and 2.75 ms against 0.81
and 0.98 ms, medians of 300 calls on a 2-core x86-64 host, OpenBLAS on one
thread).

Real arithmetic.  A member whose own data is real is solved in float64, the
others in complex128.  Its data is real when the system's basis has no
imaginary part at all (``MatricialSystem.real``), nor have its targets, and
its start is the deterministic one or a given one; no tolerance enters.  A
given start enters by its real part, which is still feasible when the given
map is: conjugation maps the feasible set onto itself, which is convex, so
the mean of a feasible point and its conjugate is feasible.  Then the basis, Q
and the target rows, the lift and dual_adjoint, the base of the start and
the cone's frame (from the eigh of the real P) are real; the dual W is the
real |V| d^2 vector of real symmetric rows, each clip a real eigh, and each
CG step or direct Newton system real products.  It computes the same point: complex conjugation
maps the cone, the real basis and the real targets to themselves, so it maps
the feasible set onto itself, and it fixes the real start and preserves
distances, so it fixes the start's projection, which is therefore real.
From a real start every iterate of the complex solve is real as well, so
the two solves take the same steps in exact arithmetic and differ by
roundoff.  Seeded starts stay complex: a real random start would change the
distribution of the starts, and with it the spreads that randomized starts
report.  A batch (:func:`_solve_batch`) decides each member's arithmetic by
this rule before anything is built, then builds one solver per arithmetic
present, each once and in that arithmetic alone, and solves each solver's
members in one lockstep loop, the complex members first; every operation
acts on each member alone, so each member of a batch that mixes the two
still gets the result it gets alone.  Every solve returns a complex
``SuperOp``; the Choi matrix of one solved in real arithmetic has an
imaginary part of exactly 0.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import dynamics, linalg, maps, systems
from .dynamics import SubsystemGenerator
from .errors import (ExtensionInfeasible, GroupExtensionError, InputError,
                     NumericalError, ResolventFamilyError, Undecided)
from .maps import SuperOp
from .systems import MatricialSystem
from .tolerances import (FEASIBILITY_TOL, IDENTITY_THRESHOLD_FLOOR, IDENTITY_THRESHOLD_SLACK,
                         IMAGE_HERMITIAN_TOL, RESCALE_UCP_TOL_FLOOR, SOLVE_MAX_ITER,
                         VALIDATE_MAX_ITER)

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
    "ucp_extensions_feasible",
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


def _is_integer(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ExtensionOptions:
    """The tolerance, budget and start of a solve, checked at construction:
    ``tol`` a finite real > 0, ``max_iter`` an integer >= 1 and ``seed``
    ``None`` or an integer >= 0, none of them a bool; any other value raises
    :class:`InputError` naming its field."""

    tol: float = FEASIBILITY_TOL
    max_iter: int = SOLVE_MAX_ITER
    seed: Optional[int] = None  # None: deterministic start; an int: seeded random start

    def __post_init__(self):
        tol = self.tol
        if not ((_is_integer(tol) or isinstance(tol, (float, np.floating)))
                and math.isfinite(tol) and tol > 0):
            raise InputError(f"tol must be finite and positive (a real, not a bool), got {tol!r}")
        if not (_is_integer(self.max_iter) and self.max_iter >= 1):
            raise InputError(f"max_iter must be an integer >= 1 (not a bool), "
                             f"got {self.max_iter!r}")
        if not (self.seed is None or _is_integer(self.seed) and self.seed >= 0):
            raise InputError(f"seed must be None or an integer >= 0 (not a bool), "
                             f"got {self.seed!r}")


@dataclass(frozen=True)
class ExtensionReport:
    """One solve's outcome.  ``converged`` is the residual check of the
    polished point; ``termination`` is why the solver stopped, one of
    ``tol``, ``roundoff``, ``budget``, ``plateau`` or ``nonfinite``
    (:meth:`_FeasibilitySolver._lockstep`)."""

    iterations: int
    cone_residual: float
    affine_residual: float
    restriction_error: float
    converged: bool
    termination: str


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
                                        tol=IMAGE_HERMITIAN_TOL, name=f"image {k}")
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
        if not _in_rescaling_range(lam / self.omega):
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

# Semismooth Newton on the dual (module docstring): the cap c of the
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
# The largest dual, in coordinates m (|V| d(d+1)/2 in real arithmetic, |V| d^2
# in complex), whose Newton system is formed and solved directly rather than
# by CG.  Forming it costs O(m^2 d^4) per member and step, against O(|V| d^4)
# per CG step, but near a solution the generalized Hessian's eigenvalues
# spread over orders of magnitude (142 distinct ones from 1e-6 to 1 on
# real_symmetric_4), so CG takes tens of steps there, up to its cap.  Whole
# map solves on a 2-core x86-64 host, OpenBLAS on one thread, CG against
# direct: m = 54 (d = 3, complex) 3.9 and 3.2 ms; m = 100 (d = 4, real)
# 25.7 and 10.7 ms; m = 160 (d = 4, complex) 6.0 and 16.5 ms; m = 375 (d = 5,
# complex) 15.6 and 98 ms.  The crossover lies between 100 and 160.
_DIRECT_MAX_COORDS = 128


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
def _cone_constants(d: int, ccp: bool, dtype: np.dtype) -> tuple:
    """``(base, F, F*)``: the base of the start points and the frame of the
    cone (module docstring), F = I for the PSD cone of maps and an orthonormal
    basis of the range of P for the ccp cone of generators.  The one place
    that tells the two cones apart.  They depend on d and the arithmetic
    alone, so they are computed once per dimension and dtype and shared
    read-only by every solver; in real arithmetic the base is real and the
    frame comes from the eigh of the real P."""
    n = d * d
    real = dtype == np.float64
    if ccp:
        base = np.zeros((n, n), dtype=dtype)
        projector = maps.ccp_projector(d)
        frame = np.linalg.eigh(projector.real if real else projector)[1][:, 1:]
    else:
        base, frame = maps.identity_map(d).choi, np.eye(n, dtype=dtype)
        base = np.ascontiguousarray(base.real) if real else base
    constants = (base, frame, linalg.dagger(frame))
    for a in constants:
        a.setflags(write=False)
    return constants


@functools.cache
def _dual_basis(rows: int, d: int, dtype: np.dtype) -> np.ndarray:
    """An orthonormal basis of the flat duals with ``rows`` Hermitian d x d
    rows, as the rows of an (m, flat) array: row k of a basis dual is one of
    E_aa, (E_ab + E_ba) / sqrt 2 and, in complex arithmetic only,
    i (E_ab - E_ba) / sqrt 2 for a < b, and its other rows are 0, so
    m = rows d(d+1)/2 in real arithmetic and rows d^2 in complex."""
    units = []
    for a in range(d):
        for b in range(a, d):
            unit = np.zeros((d, d), dtype=dtype)
            unit[a, b] = unit[b, a] = 1.0 if a == b else math.sqrt(0.5)
            units.append(unit)
            if a < b and dtype != np.float64:
                unit = np.zeros((d, d), dtype=dtype)
                unit[a, b], unit[b, a] = 1j * math.sqrt(0.5), -1j * math.sqrt(0.5)
                units.append(unit)
    units = np.array(units).reshape(len(units), d * d)
    basis = np.zeros((rows, len(units), rows, d * d), dtype=dtype)
    for k in range(rows):
        basis[k, :, k] = units
    basis = basis.reshape(rows * len(units), rows * d * d).view(float)
    basis.setflags(write=False)
    return basis


@functools.cache
def _upper_triangle(rank: int) -> tuple:
    """``(entries, twice)``: the flat indices of the upper triangle of a
    rank x rank matrix, and the weight of each of its entries in the real
    inner product of two Hermitian matrices summed over it, 1 on the diagonal
    and 2 off it.  Computed once per rank and shared read-only."""
    rows, cols = np.triu_indices(rank)
    triangle = (rows * rank + cols, np.where(rows == cols, 1.0, 2.0))
    for a in triangle:
        a.setflags(write=False)
    return triangle


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
    """Shared precomputation for a batch of feasibility problems on one system
    and one cone, solved from one start each.

    ``targets`` stacks the agreement targets, one set of |V| matrices per
    member (a single set is a stack of one).  Iterates are Hermitian
    d^2 x d^2 Choi matrices; the affine projection is the matrix-free one of
    the module docstring, and the dual variables are |V| x d^2 arrays whose
    rows are Hermitian d x d matrices, handled as flat real vectors (a
    complex array viewed as its real and imaginary parts, or in real
    arithmetic the real array itself), so that plain dot products are the
    real inner product Re tr(a* b).  The methods act on a stack along a
    leading batch axis, one member per row, each row against its own targets
    (:meth:`take`), and every operation acts on each member alone, so a
    member's iterates do not depend on the rest of its batch.

    Every array is built once, in float64 when ``real`` and in complex128
    otherwise, and the targets are checked for consistency there; which
    members may be solved in float64 is decided by :func:`_solve_batch`
    (module docstring, "Real arithmetic").
    """

    def __init__(self, system: MatricialSystem, targets, ccp: bool, real: bool):
        d = system.dim
        n = d * d
        self.system = system
        self.d = d
        self.ccp = ccp
        self.dtype = np.dtype(np.float64 if real else np.complex128)
        # whiten = R^-T with G = R^T R, the system's orthonormalization
        # coefficients.
        self.whiten = system.onb_coeffs
        self.cg_steps = len(system) * n
        self.dual_shape = (-1, len(system), n)  # a stack of duals as |V| x d^2 rows
        self.blocks = (-1, d, d, d, d)  # a stack of Choi matrices as [i, a, j, b]
        cast = np.real if real else np.asarray
        self.basis_rows = np.ascontiguousarray(cast(np.array(system.basis))).reshape(
            len(system), n)
        self.target_rows = np.ascontiguousarray(cast(targets), dtype=self.dtype).reshape(
            self.dual_shape)
        # onb_rows is the orthonormal basis Q = R^-T basis as rows.  lift W is
        # L(W) = sum_k conj(Q_k) (x) W_k relaid out, and onb_rows @ M its
        # adjoint L*; dual_adjoint = lift @ whiten holds the rows of conj(D),
        # D = G^-1 basis the dual basis, transposed.
        self.onb_rows = np.ascontiguousarray(cast(system.onb)).reshape(len(system), n)
        self.lift = np.conj(self.onb_rows).T
        self.dual_adjoint = self.lift @ self.whiten
        # The flat real duals: complex rows viewed as their real and
        # imaginary parts, real rows as they are.
        self.dual_targets = (self.whiten @ self.target_rows).view(float).reshape(
            len(self.target_rows), -1)
        # The cone clips F* C F, F the frame of the cone as columns.
        self.base, self.frame, self.frame_h = _cone_constants(d, ccp, self.dtype)
        # The dual's dimension, and L of its basis, built on the direct path only.
        self.coords = len(system) * (d * (d + 1) // 2 if real else n)
        self.lifted_basis = None
        offsets = self.project_affine(np.zeros((n, n), dtype=self.dtype))
        inconsistency = linalg.frob_each(self._defect(self._relayout(offsets)))
        inconsistent = inconsistency > FEASIBILITY_TOL * (1.0 + linalg.frob_each(self.target_rows))
        if inconsistent.any():
            raise InputError("agreement targets are inconsistent: residual "
                             f"{inconsistency[inconsistent.argmax()]:.3e}")

    def take(self, rows) -> "_FeasibilitySolver":
        """The solver of the members ``rows`` of a batch: the same system and
        cone, with those members' rows of the targets."""
        taken = copy.copy(self)
        taken.target_rows, taken.dual_targets = self.target_rows[rows], self.dual_targets[rows]
        return taken

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

    def start_points(self, seeds) -> np.ndarray:
        """The start point of each seed (module docstring), stacked: the
        affine projection of the base for ``None``, of the base plus a seeded
        perturbation for an int, and of a given map's Choi matrix for a
        ``SuperOp``, of its real part in real arithmetic."""
        n = self.d * self.d
        raw = []
        for seed in seeds:
            if seed is None:
                raw.append(self.base)
            elif isinstance(seed, SuperOp):
                raw.append(seed.choi.real if self.dtype == np.float64 else seed.choi)
            else:
                raw.append(self.base + linalg.random_hermitian(n, np.random.default_rng(seed)))
        return self.project_affine(np.array(raw))

    def _lifted(self, w: np.ndarray) -> np.ndarray:
        """L(W) for each row W of ``w``, as d^2 x d^2 Choi matrices."""
        return self._relayout(self.lift @ w.view(self.dtype).reshape(self.dual_shape))

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

    def _defect_norms(self, x: np.ndarray) -> list:
        """||A(X) - T|| in V's own basis for each matrix X of the stack ``x``:
        the affine defect that the verdict reads (:meth:`_lockstep`)."""
        return linalg.frob_each(self._defect(self._relayout(x))).tolist()

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
        """The solution p of (L* J L + eps I) p = -grad f for each member, J at
        its spectrum: solved directly for a dual of at most
        ``_DIRECT_MAX_COORDS`` coordinates, by CG for a larger one.  L is an
        isometry, so L* J L p = p + L* (J - I) L p; either path gets the
        shift 1 + eps of each member and the J - I of its spectrum."""
        shift = np.array([1.0 + min(_NEWTON_REG, s * math.sqrt(s)) for s in point.residual])
        defect = self._jacobian_defect((point.eigenvalues, point.eigenvectors))
        if self.coords <= _DIRECT_MAX_COORDS:
            return self._direct_direction(point, shift, defect)
        return self._cg_direction(point, shift, defect)

    def _direct_direction(self, point: _DualPoint, shift, defect: _JacobianDefect) -> np.ndarray:
        """The Newton system in the orthonormal basis b_j of the duals
        (:func:`_dual_basis`), formed and solved.  With Y_j = E* L(b_j) E it is
        H = (1 + eps) I + Y^T diag(Omega - 1) Y: entry (i, j) is
        <Y_i, (Omega - 1) o Y_j>, a sum over the upper triangle of the
        Hermitian Y_i, Y_j with each entry off the diagonal counted twice
        (:func:`_upper_triangle`).

        The Y of all members take two stacked products and one relayout: the
        E* of the members stacked as rows, times each L(b_j) (``lifted_basis``,
        built on the first direct step), then each member's E* L(b_j) stacked
        as rows, times its E; H takes one more.  Members go through in chunks
        of max(1, _DIRECT_MAX_COORDS // m), so no chunk's Y holds more entries
        than one member's Y at the largest direct dual: a d = 2 batch of 8 is
        one chunk, and at real d = 4 (m = 100) each member is its own.  The
        products stack only rows, so every entry is computed as when the
        member is alone, and those taking coordinates and back are stacked
        (B, 1, k) ones, so each member's direction is the one it gets alone."""
        basis = _dual_basis(len(self.system), self.d, self.dtype)
        size, n = basis.shape[0], self.d * self.d
        if self.lifted_basis is None:
            self.lifted_basis = self._lifted(basis)
        rank = defect.e.shape[-1]
        entries, twice = _upper_triangle(rank)
        chunk = max(1, _DIRECT_MAX_COORDS // size)
        h = np.empty((len(shift), size, size))
        for start in range(0, len(shift), chunk):
            e, e_h, weights = defect.take(slice(start, start + chunk))
            members = len(e)
            y = (e_h.reshape(1, members * rank, n) @ self.lifted_basis).reshape(
                size, members, rank, n).swapaxes(0, 1)
            y = (y.reshape(members, size * rank, n) @ e).reshape(members, size, rank * rank)
            y = np.take(y, entries, axis=-1)
            weights = np.take(weights.reshape(-1, rank * rank), entries, axis=-1) * twice
            if self.dtype != np.float64:  # Re <y, y'> as the dot product of [re, im] pairs
                y, weights = y.view(float), np.repeat(weights, 2, axis=-1)
            np.matmul(y * weights[:, None, :], y.swapaxes(1, 2), out=h[start:start + chunk])
        diagonal = np.arange(size)
        h[:, diagonal, diagonal] += shift[:, None]
        coefficients = linalg.solve_each(h, -(point.grad[:, None, :] @ basis.T)[:, 0])
        return (coefficients[:, None, :] @ basis)[:, 0]

    def _cg_direction(self, point: _DualPoint, shift, defect: _JacobianDefect) -> np.ndarray:
        """CG on the Newton system of each member.

        Each system is solved for p / ||grad f||, a unit right-hand side, to
        the relative tolerance min(eta, ||grad f||^tau), so no square
        overflows.  CG runs at most the dual dimension of steps.  A row whose
        CG has converged leaves the CG arrays, its step written into its row
        of the direction; that is no stop of the member.  Per-member scalars
        are (B, 1) columns.
        """
        residuals = point.residual
        scale, shift = np.array(residuals)[:, None], shift[:, None]
        targets = [min(_CG_FORCING, s ** _CG_EXPONENT) ** 2 for s in residuals]
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

    def _lockstep(self, options: ExtensionOptions, seeds) -> list:
        """Project the start point of each seed onto its member's feasible set
        (module docstring), all members in one lockstep loop in this solver's
        arithmetic: one seed per member (:meth:`start_points`), each checked
        by :func:`_solve_batch`.  Each member stops by its own rules and counts its own
        evaluations.  This is the one place where a member leaves the batch,
        and the one place that decides why: at the top of each Newton step,
        each member gets its ``termination`` once it has a reason to stop,
        the first of
          * ``budget``: its evaluations reached ``max_iter``;
          * ``nonfinite``: its last line search did not move, which with
            budget left only a non-finite trial does;
          * ``tol``: its affine defect is at most 0.2 tol;
          * ``roundoff``: ||grad f|| is at its roundoff floor;
          * ``plateau``: at the end of a window of _STALL_WINDOW Newton steps,
            its defect is above 100 tol and its best fell by less than
            _STALL_IMPROVEMENT of the window's;
        and the members with a reason are dropped from the rows of the
        targets, of the dual point and of the start points together.  A
        member keeps going exactly while it has none, so ``budget`` is its
        reason exactly when its ``iterations`` equal ``max_iter``.
        """
        tol, max_iter = options.tol, options.max_iter
        inner_tol = 0.2 * tol
        size = len(seeds)
        x0 = self.start_points(seeds)
        point = self._dual_point(x0, np.zeros((size, self.dual_targets.shape[-1])))
        if not all(map(math.isfinite, point.value + point.residual)):
            raise NumericalError("the dual overflowed at the start point")
        defects = self._defect_norms(point.x)
        iterations = [1] * size
        best_residual, best_x = list(defects), list(point.x)
        window_best = [math.inf] * size
        termination = [None] * size
        batch, live = self, list(range(size))  # the member of each row of batch, point, x0
        moved = [True] * size
        steps = 0
        while True:
            window_end = steps > 0 and steps % _STALL_WINDOW == 0
            for k, i in enumerate(live):
                window = window_best[i]
                if window_end:
                    window_best[i] = best_residual[i]
                if iterations[i] >= max_iter:
                    termination[i] = "budget"
                elif not moved[k]:
                    termination[i] = "nonfinite"
                elif defects[k] <= inner_tol:
                    termination[i] = "tol"
                elif point.residual[k] <= point.floor[k]:
                    termination[i] = "roundoff"
                elif (window_end and defects[k] > 100.0 * tol and math.isfinite(window)
                      and window - best_residual[i] < _STALL_IMPROVEMENT * window):
                    # far from feasibility: disjoint sets, or no Slater point
                    termination[i] = "plateau"
            going = [k for k, i in enumerate(live) if termination[i] is None]
            if len(going) < len(live):
                if not going:
                    break
                live = [live[k] for k in going]
                batch, point, x0 = batch.take(going), point.take(going), x0[going]
            spent, moved, point = batch._line_search(
                x0, point, batch._newton_direction(point),
                [max_iter - iterations[i] for i in live])
            defects = batch._defect_norms(point.x)
            for k, i in enumerate(live):
                iterations[i] += spent[k]
                if moved[k] and defects[k] < best_residual[i]:
                    best_residual[i], best_x[i] = defects[k], point.x[k]
            steps += 1

        # Polish each best point: affine projection, then the cone-exact point;
        # the affine defect of the result is bounded by the distance between
        # the two.  A run that reached 0.2 tol stops at its best point.
        z = self.project_affine(np.array(best_x))
        chois = self.project_cone(z)
        restrictions = restriction_errors(
            chois, self.basis_rows.reshape(-1, self.d, self.d),
            self.target_rows.reshape(self.target_rows.shape[:-1] + (self.d, self.d))).tolist()
        runs = []
        for choi, cone_residual, affine_residual, restriction, evaluations, stop in zip(
                chois, linalg.frob_each(z - chois).tolist(), self._defect_norms(chois),
                restrictions, iterations, termination):
            runs.append((SuperOp(self.d, choi), ExtensionReport(
                iterations=evaluations,
                cone_residual=cone_residual,
                affine_residual=affine_residual,
                restriction_error=restriction,
                converged=max(cone_residual, affine_residual, restriction) <= tol,
                termination=stop,
            )))
        return runs


def restriction_errors(chois: np.ndarray, basis, targets) -> np.ndarray:
    """max_k ||phi_C(v_k) - t_k|| for each Choi matrix C of the stack
    ``chois``: agreement checked on the maps themselves, all the images
    phi_C(v_k) in one product (``maps.apply_each``) and their distances in
    one norm.  ``targets`` is one set of |V| matrices that every map shares,
    or a stack of such sets, one per map."""
    return linalg.frob_each(maps.apply_each(chois, basis) - targets).max(axis=-1)


def restriction_error(op: SuperOp, basis, targets) -> float:
    """:func:`restriction_errors` of one map."""
    return float(restriction_errors(op.choi[None], basis, targets)[0])


def max_pairwise_distance(mats) -> float:
    """The largest Frobenius distance between two of ``mats`` (0.0 for fewer
    than two); pass ``op.choi`` to compare maps.  One norm per matrix, of its
    differences to all later ones (``linalg.frob_each``, bit-identical to
    ``frob`` of each pair)."""
    mats = np.asarray(mats)
    spread = 0.0
    for i in range(len(mats) - 1):
        spread = max(spread, *linalg.frob_each(mats[i + 1:] - mats[i]).tolist())
    return spread


def _solve_batch(system: MatricialSystem, targets, ccp: bool, options: ExtensionOptions,
                 starts) -> list:
    """Solve one member per entry of ``starts`` on ``system`` and one cone,
    with the tolerance and budget of ``options``; ``targets`` stacks one set
    of |V| agreement targets per start, and any other shape raises
    :class:`InputError` naming both counts.  Called by :func:`multi_start`
    alone, and the one place that builds a :class:`_FeasibilitySolver`.

    It checks every start first: ``None`` for the deterministic start, an
    integral seed >= 0 (numpy integers too, not a bool) for the randomized
    one it seeds, or a ``SuperOp`` on M_d, the member's given start; anything
    else raises :class:`InputError`, which names a negative seed by its value
    and any other start by its type.  It then decides each member's
    arithmetic (module docstring, "Real arithmetic") and builds one solver per
    arithmetic present, each once; the complex members' loop runs first.
    Returns one ``(superop, report)`` per start, in order.
    """
    d = system.dim
    for k, start in enumerate(starts):
        seeded = _is_integer(start) and start >= 0
        if not (seeded or start is None or isinstance(start, SuperOp) and start.d == d):
            if _is_integer(start):
                kind = f"the negative seed {start}"
            else:
                kind = "of type " + type(start).__name__ + (
                    f" on M_{start.d}" if isinstance(start, SuperOp) else "")
            raise InputError(f"starts must be None, integer seeds >= 0 or SuperOps on M_{d}; "
                             f"start {k} is {kind}")
    targets = np.asarray(targets)
    set_shape = (len(system), d, d)
    if targets.shape[1:] != set_shape or len(targets) != len(starts):
        got = len(targets) if targets.shape[1:] == set_shape else f"shape {targets.shape}"
        raise InputError(f"{len(starts)} starts need {len(starts)} target sets of shape "
                         f"{set_shape}, got {got}")
    real = [system.real and not c and (start is None or isinstance(start, SuperOp))
            for start, c in zip(starts, np.imag(targets).any(axis=(-3, -2, -1)).tolist())]
    runs = [None] * len(starts)
    for arithmetic in (False, True):  # the complex members first
        rows = [k for k, r in enumerate(real) if r == arithmetic]
        if rows:
            solver = _FeasibilitySolver(system, targets[rows], ccp, arithmetic)
            for k, run in zip(rows, solver._lockstep(options, [starts[k] for k in rows])):
                runs[k] = run
    return runs


def _problem_targets(problem: ExtensionProblem) -> tuple:
    """The agreement targets of ``problem``: its images on V, or its generator's action."""
    return problem.map_targets if problem.generator is None else problem.generator.action


def _problem_kind(problem: ExtensionProblem) -> str:
    return "map" if problem.generator is None else "generator"


def multi_start(problem, seeds):
    """Solve one member per entry of ``seeds`` in one lockstep batch: the
    one entry to :func:`_solve_batch`.

    ``problem`` is a sequence of :class:`ExtensionProblem`, one per seed, on
    one system (the same object), of one kind (map or generator) and with
    equal options; one problem stands for ``[problem] * len(seeds)``.  Their
    targets are stacked, one set per member, and each member's result is
    bit-identical to its solo solve.  Problems that differ in any of the
    three, or a count that differs from the seeds', raise :class:`InputError`
    naming the mismatch.

    The seed ``None`` solves with the options as given; an int ``s >= 0``
    solves from the randomized start ``replace(options, seed=s)``; a
    ``SuperOp`` on M_d is the member's given start, the affine projection of
    its Choi matrix (module docstring), which draws no random numbers.  Any
    other seed raises :class:`InputError` (:func:`_solve_batch`).
    Returns one ``(superop, report)`` per seed, in order; the superop is the
    raw Choi-matrix solution (map problems use the PSD cone, generator
    problems the ccp cone { C : P C P >= 0 }, both projected through their
    frame as in the module docstring).
    """
    seeds = list(seeds)
    problems = [problem] * len(seeds) if isinstance(problem, ExtensionProblem) else list(problem)
    if len(problems) != len(seeds):
        raise InputError(f"{len(problems)} problems for {len(seeds)} seeds")
    if not problems:
        return []
    first = problems[0]
    for k, other in enumerate(problems[1:], 1):
        if other.system is not first.system:
            raise InputError(f"problem {k} is on another system than problem 0")
        if _problem_kind(other) != _problem_kind(first):
            raise InputError(f"problem {k} is a {_problem_kind(other)} problem, "
                             f"problem 0 a {_problem_kind(first)} problem")
        if other.options != first.options:
            raise InputError(f"problem {k} has other options than problem 0: "
                             f"{other.options} against {first.options}")
    options = first.options
    return _solve_batch(first.system, np.stack([_problem_targets(p) for p in problems]),
                        first.generator is not None, options,
                        [options.seed if seed is None else seed for seed in seeds])


# ---------------------------------------------------------------------------
# Map extension
# ---------------------------------------------------------------------------


def extend_ucp_map(problem: ExtensionProblem):
    """Extend a UCP map given on V (by basis images) to a UCP map on M_d.

    Returns ``(superop, report)``.  A non-converged report that stopped on
    the plateau is the evidence that the given map is not UCP on V (the sets
    look disjoint); any other ``termination`` of a non-converged report
    decides nothing (module docstring).
    """
    if problem.map_targets is None:
        raise InputError("extend_ucp_map needs a map-case problem")
    return multi_start(problem, [None])[0]


def ucp_extension_feasible(system: MatricialSystem, images,
                           tol: float = FEASIBILITY_TOL,
                           max_iter: int = VALIDATE_MAX_ITER):
    """Feasibility verdict for extending the map v_k -> images[k] to a UCP map.

    Returns ``(feasible, residuals)``; used as the Arveson-type certificate
    that a map given on V is UCP there.  The one-member case of
    :func:`ucp_extensions_feasible`.
    """
    return ucp_extensions_feasible(system, [images], tol, max_iter)[0]


def ucp_extensions_feasible(system: MatricialSystem, image_sets,
                            tol: float = FEASIBILITY_TOL,
                            max_iter: int = VALIDATE_MAX_ITER,
                            starts: Optional[Sequence] = None) -> list:
    """The verdict of :func:`ucp_extension_feasible` for each of ``image_sets``,
    all maps on one system, solved as one batch; each member's verdict is the
    one it gets alone.  ``starts`` gives each set its start, as the seeds of
    :func:`multi_start` do: ``None`` for the deterministic one, an int
    ``s >= 0`` for the randomized one that ``s`` seeds, or a map on M_d (a
    ``SuperOp``).  A given map that already extends its images to a UCP map
    is confirmed in one dual evaluation; any other is only a start, and the
    verdict is the solver's either way (module docstring).  Without
    ``starts`` every set starts from the deterministic point.  A set of
    images that is no unital map on V gets ``(False, None)`` and is not
    solved, so its start is not read.
    """
    reports = _map_reports(system, image_sets, tol, max_iter, starts)
    return [_verdict(report) for report in reports]


def _verdict(report: Optional[ExtensionReport]) -> tuple:
    """``(feasible, residuals)`` of a map solve's report, ``(False, None)`` for
    a set of images that was not solved."""
    if report is None:
        return False, None
    return report.converged, {
        "cone": report.cone_residual,
        "affine": report.affine_residual,
        "restriction": report.restriction_error,
        "iterations": report.iterations,
    }


def _map_reports(system: MatricialSystem, image_sets, tol: float, max_iter: int,
                 starts: Optional[Sequence] = None) -> list:
    """The solve behind each verdict of :func:`ucp_extensions_feasible`: the
    report of each set of images, None for a set that is no unital map on V.
    The map problems of the others are one :func:`multi_start` batch."""
    starts = [None] * len(image_sets) if starts is None else list(starts)
    if len(starts) != len(image_sets):
        raise InputError(f"{len(starts)} starts for {len(image_sets)} sets of images")
    options = ExtensionOptions(tol=tol, max_iter=max_iter)
    posed = {}  # the problem of each set of images that is a unital map on V
    for k, images in enumerate(image_sets):
        try:
            posed[k] = ExtensionProblem.for_map(system, images, options)
        except InputError:
            pass
    runs = multi_start(list(posed.values()), [starts[k] for k in posed])
    reports = [None] * len(image_sets)
    for k, (_, report) in zip(posed, runs):
        reports[k] = report
    return reports


# ---------------------------------------------------------------------------
# Resolvent rescaling (geometric power series of a UCP map)
# ---------------------------------------------------------------------------


def _in_rescaling_range(beta) -> bool:
    """Whether beta, or each of an array of them, lies in (0, 1]: the one test
    of a parameter lam in (0, omega], made on beta = lam / omega, the ratio
    :func:`rescale_resolvent` is given."""
    beta = np.asarray(beta)
    return bool(np.all((0.0 < beta) & (beta <= 1.0)))


def rescale_resolvent(phi: SuperOp, beta, mode: str = "closed",
                      tol: float = FEASIBILITY_TOL):
    """The nonlinear map  phi -> sum_{k>=0} beta (1-beta)^k phi^(k+1).

    For phi = mu * R(mu, G) the result is (beta*mu) * R(beta*mu, G): it
    transports a scaled resolvent from parameter mu to beta*mu.  The map
    preserves unitality and complete positivity for beta in (0, 1].

    ``mode="series"`` truncates at the first K with (1-beta)^(K+1) <= tol;
    the discarded tail has norm at most that coefficient mass because powers
    of a UCP map are contractions.  ``mode="closed"`` evaluates the resummed
    form  beta * phi o (id - (1-beta) phi)^(-1).

    In closed mode ``beta`` may also be a 1-d array of ratios: phi is checked
    once, the inverses are one stacked :func:`linalg.inverse`, and the result
    is a list of SuperOps, one per ratio, each bit-identical to its ratio's
    own.
    """
    betas = np.asarray(beta, dtype=float)
    if betas.ndim > (mode == "closed"):
        raise InputError(f"beta must be a number, or in closed mode a 1-d array; "
                         f"got shape {betas.shape}")
    if not _in_rescaling_range(betas):
        raise InputError(f"beta must lie in (0, 1], got {beta}")
    if not maps.is_ucp(phi, max(tol, RESCALE_UCP_TOL_FLOOR)):
        raise InputError("rescale_resolvent requires a UCP input map")
    t = phi.transfer
    n = t.shape[0]
    if mode == "series":
        beta = float(beta)
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
        stack = betas[..., None, None]
        inv = linalg.inverse(np.eye(n) - (1.0 - stack) * t,
                             "id - (1-beta) phi is numerically singular (cond {cond:.3e}); "
                             "the input was not a valid UCP map")
        out = stack * (t @ inv)
        return ([SuperOp.from_transfer(phi.d, o) for o in out] if betas.ndim
                else SuperOp.from_transfer(phi.d, out))
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


def _recover_generator(transfers: np.ndarray, lams) -> np.ndarray:
    """G = lam * (id - F(lam)^{-1}) at the transfer level: of one transfer
    matrix F(lam) and its lam, or of each of a stack (K, n, n) and its own of
    ``lams`` (K,), through one stacked :func:`linalg.inverse`."""
    lams = np.asarray(lams, dtype=float)
    inv = linalg.inverse(transfers, [
        f"family member at lam={lam} is numerically singular (cond {{cond:.3e}})"
        for lam in lams.reshape(-1).tolist()])
    return lams[..., None, None] * (np.eye(transfers.shape[-1]) - inv)


# How often extend_via_resolvent_family doubles omega before it gives up.
_MAX_DOUBLINGS = 10


def extend_via_resolvent_family(problem: ExtensionProblem, omega: float,
                                grid: Optional[Sequence[float]] = None):
    """Extend a subsystem generator through a family of extended resolvents.

    At parameter omega the map omega * R(omega, A) on V is extended to a UCP
    map F(omega) on M_d; the family F(lam) over the grid is generated from
    F(omega) by resolvent rescaling, each member's generator lam * (id -
    F(lam)^{-1}) is recovered, pairwise agreement is checked, and the
    candidate must be conditionally completely positive.  If it is not, omega
    is doubled and the construction repeats: growing omega shrinks the set of
    admissible families and prunes invalid extensions.  After
    ``_MAX_DOUBLINGS`` failures a structured error advises the direct
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
    if not grid or not _in_rescaling_range(np.array(grid) / omega):
        raise InputError("grid must be a nonempty subset of (0, omega]")

    opts = problem.options
    # The recovery G = omega (id - F^{-1}) amplifies feasibility error by
    # roughly omega, so the inner map extension runs tighter than tol.
    inner = replace(opts, tol=opts.tol / max(50.0, 4.0 * omega))

    attempts = []
    current = omega
    for _ in range(_MAX_DOUBLINGS + 1):
        images = dynamics.subsystem_resolvent_images(sub, current)
        map_problem = ExtensionProblem.for_map(sub.system, images, inner)
        f_omega, map_report = extend_ucp_map(map_problem)
        if not map_report.converged:
            attempts.append({"omega": current, "failure": "map extension did not converge",
                             "map_report": map_report})
            current *= 2.0
            continue

        # The members, their generators and the candidate from F(omega)
        # itself, each kernel in one stacked call over the grid.
        lams = np.array(grid + [current])
        members = list(zip(grid, rescale_resolvent(f_omega, lams[:-1] / current,
                                                   tol=inner.tol)))
        recovered = maps.chois_of_transfers(_recover_generator(
            np.array([f.transfer for _, f in members] + [f_omega.transfer]), lams))
        candidate = SuperOp(f_omega.d, recovered[-1])
        spread = max_pairwise_distance(recovered)

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
        f"omega = {current / 2.0} ({_MAX_DOUBLINGS} doublings from {omega}); "
        "fall back to extend_generator",
        attempts=attempts,
    )


# ---------------------------------------------------------------------------
# Group extension
# ---------------------------------------------------------------------------


# Sample times of the inverse and multiplicativity checks.
_GROUP_SAMPLE_TS = (0.4, 1.1)


def _start_seeds(seed: int, n_starts: int) -> list:
    """Seeds of the randomized starts of a cross-check, drawn from ``seed``;
    no random generator is built for none, the default.  Both must be
    integers >= 0, not bools: a seed of ``None`` would draw fresh entropy, and
    so make the cross-check irreproducible."""
    if not (_is_integer(n_starts) and n_starts >= 0):
        raise InputError(f"n_starts must be nonnegative and an integer (not a bool), "
                         f"got {n_starts!r}")
    if not (_is_integer(seed) and seed >= 0):
        raise InputError(f"seed must be nonnegative and an integer (not a bool), got {seed!r}")
    rng = np.random.default_rng(seed) if n_starts else None
    return [int(rng.integers(0, 2**32 - 1)) for _ in range(n_starts)]


def _multiplicativity_residual(op: SuperOp) -> float:
    """max ||phi(ab) - phi(a) phi(b)||_F / (1 + ||a||_F ||b||_F) over the pairs
    of matrix units a = E_ij, b = E_kl, so the scale is 2.  The defect is
    bilinear, so it vanishes on every pair exactly when it vanishes on these.

    With B_ij = phi(E_ij), block (i, j) of the Choi matrix, the defect of the
    pair is delta_jk B_il - B_ij B_kl.
    """
    d = op.d
    blocks = op.choi.reshape(d, d, d, d)  # [i, a, j, b] = phi(E_ij)[a, b]
    defects = np.einsum("jk,ialc->ijklac", np.eye(d), blocks)
    defects -= np.einsum("iajb,kblc->ijklac", blocks, blocks)
    return float(np.linalg.norm(defects, axis=(-2, -1)).max()) / 2.0


def _decided_commutant(system: MatricialSystem, tol: float, error, claim: str):
    """V' (``systems.commutant``), or ``error`` when its rank is undecided."""
    comm = systems.commutant(system, tol)
    if not comm.decided:
        raise error(
            f"{claim} undecided: the commutant's rank is undecided (smallest "
            f"singular value counted nonzero {comm.gap:.3e}, tol {tol:.1e})")
    return comm


def _cross_check(runs, error, claim: str) -> list:
    """The extensions of ``runs``, the ``(superop, report)`` pairs of a
    cross-check's randomized starts (:func:`multi_start`); one that did not
    converge leaves ``claim`` undecided."""
    unconverged = sum(not report.converged for _, report in runs)
    if unconverged:
        raise error(f"{claim} undecided: {unconverged} of {len(runs)} randomized "
                    "starts did not converge")
    return [op for op, _ in runs]


def _group_cross_check(gen_plus: dynamics.Generator, group_report: GroupExtensionReport,
                       runs, tol: float) -> GroupExtensionReport:
    """``group_report`` of the extension ``gen_plus`` of +A, cross-checked by
    ``runs``, randomized runs of +A (:func:`extend_group`): each must converge
    and agree with G+ within 10 x tol, or :class:`GroupExtensionError`."""
    ops = _cross_check(runs, GroupExtensionError, "uniqueness")
    spread = max_pairwise_distance([gen_plus.op.choi] + [op.choi for op in ops])
    if spread > 10.0 * tol:
        raise GroupExtensionError(
            f"randomized starts disagree (spread {spread:.3e}) although the certificate "
            f"says the extension is unique (ccp defect of -G+ "
            f"{group_report.certificate.inverse_witness:.3e})")
    return replace(group_report, uniqueness_spread=spread, n_starts=len(runs))


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
      * multiplicativity: exp(t G+) is an algebra homomorphism on every pair
        of matrix units, the largest defect being ``multiplicativity_residual``
        (:func:`_multiplicativity_residual`; a UCP map with a UCP inverse is a
        *-automorphism).

    ``n_starts`` randomized runs of +A are an opt-in cross-check, run after
    the checks above (:func:`_group_cross_check`): each must converge and
    agree with G+ within 10 x tol, or the certificate and the solver disagree
    and the extension fails.

    Returns ``(generator, group_report)``; failures raise
    :class:`GroupExtensionError`.
    """
    sub = problem.generator
    if sub is None:
        raise InputError("a generator-case problem is required")
    opts = problem.options
    check_tol = 100.0 * opts.tol

    run_seeds = _start_seeds(seed, n_starts)
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

    # exp(t G+) and exp(-t G+) = exp(t (-G+)) at each sample time, in one call.
    d = sub.system.dim
    plus, minus = linalg.expm(np.array([gen_plus.op.transfer, gen_minus.op.transfer])[:, None],
                              scale=np.array(_GROUP_SAMPLE_TS))
    steps = [SuperOp.from_transfer(d, e) for e in plus]
    ident = maps.identity_map(d)
    inverse_residual = max(SuperOp.from_transfer(d, e).distance(ident) for e in plus @ minus)
    if inverse_residual > check_tol:
        raise GroupExtensionError(
            f"not a group on V: inverse check residual {inverse_residual:.3e}"
        )

    mult_residual = max(_multiplicativity_residual(step) for step in steps)
    if mult_residual > check_tol:
        raise GroupExtensionError(
            f"extension is not multiplicative (residual {mult_residual:.3e})"
        )

    group_report = GroupExtensionReport(
        extension=report,
        inverse_residual=inverse_residual,
        uniqueness_spread=0.0,
        multiplicativity_residual=mult_residual,
        n_starts=0,
        certificate=GroupCertificate(commutant_dim=comm.dim, commutant_gap=comm.gap,
                                     inverse_witness=witness),
    )
    runs = multi_start(problem, run_seeds) if run_seeds else []
    return gen_plus, _group_cross_check(gen_plus, group_report, runs, opts.tol)


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
    seeds = _start_seeds(seed, n_starts)
    comm = _decided_commutant(system, tol, NumericalError, "rigidity")
    ops = (_cross_check(multi_start(ExtensionProblem.for_map(system, system.basis, options),
                                    seeds), NumericalError, "rigidity") if seeds else [])

    ident = maps.identity_map(system.dim) if ops else None
    identity_threshold = max(IDENTITY_THRESHOLD_SLACK * tol, IDENTITY_THRESHOLD_FLOOR)
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


# An unconverged stop other than the plateau, in the words of an Undecided
# message and as its reason, by termination.
_UNDECIDED_STOPS = {
    "budget": ("spent its budget of {n} evaluations", "budget exhausted"),
    "roundoff": ("stopped on its roundoff floor after {n} evaluations", "roundoff floor"),
    "nonfinite": ("stopped on a non-finite dual value after {n} evaluations",
                  "non-finite dual"),
    "tol": ("met 0.2 tol after {n} evaluations, but its polished point did not meet tol",
            "polish above tol"),
}


def extend_discrete(system: MatricialSystem, images, horizon: int,
                    options: Optional[ExtensionOptions] = None):
    """Extend a discrete-time UCP semigroup: one map extension, then powers.

    A discrete semigroup is determined by its single step, so the step given
    on V is extended once and the returned list is [id, psi, psi^2, ...,
    psi^horizon].  The k-th power restricted to V matches the k-th power of
    the given map within k * tol.  An unconverged solve is read by its
    ``termination``: one that stopped on the plateau raises
    :class:`ExtensionInfeasible`; any other stop decides nothing and raises
    :class:`Undecided`, whose ``reason`` names the stop
    (``_UNDECIDED_STOPS``).
    """
    horizon = int(horizon)
    if horizon < 0:
        raise InputError("horizon must be nonnegative")
    psi, report = extend_ucp_map(ExtensionProblem.for_map(system, images, options))
    if not report.converged:
        residuals = (f"cone residual {report.cone_residual:.3e}, "
                     f"affine residual {report.affine_residual:.3e}")
        if report.termination == "plateau":
            raise ExtensionInfeasible(f"the given map is not extendably UCP on V ({residuals})")
        stop, reason = _UNDECIDED_STOPS[report.termination]
        raise Undecided(f"extension undecided: the solve {stop.format(n=report.iterations)} "
                        f"({residuals})", reason=reason)
    powers = [maps.identity_map(system.dim)]
    t = psi.transfer
    acc = np.eye(t.shape[0], dtype=complex)
    for _ in range(horizon):
        acc = acc @ t
        powers.append(SuperOp.from_transfer(system.dim, acc))
    return powers
