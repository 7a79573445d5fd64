"""Extension of UCP maps, generators, semigroups, and groups from V to M_d.

Every extension problem here is convex feasibility in the real vector space of
Hermitian d^2 x d^2 Choi matrices:

  map case        find C with  C PSD,             phi_C(v_k) = target_k  for all k,
  generator case  find C with  P C P PSD,         phi_C(v_k) = A(v_k)    for all k,

where phi_C is the map with Choi matrix C, v_k runs over the system's basis
(v_0 = I, so unitality / kernel-of-unit is the k = 0 constraint), and
P = I - omega omega* (``maps.ccp_projector``) projects orthogonally to the
maximally entangled vector omega.  C -> PCP is an orthogonal projection and
C - PCP is unconstrained, so Pi_K(C) = C - PCP + Pi_+(PCP) is the exact cone
projection, Pi_+ the PSD clip (P = I in the map case).  Both projections return
exactly Hermitian matrices, so every extension returned is exactly Hermitian.

The solver aims at the projection of a starting point x0 onto the feasible
set.  That makes multi-start behaviour meaningful: distinct randomized starts
project to distinct feasible points exactly when the feasible set is not a
singleton, which is how non-uniqueness of extensions is detected.

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
subspace; the run stops when it reaches 0.2 tol.  L-BFGS minimises f,
backtracking from the unit step and accepting a step on the Armijo test for
f or on <grad f(W + t p), p> <= c <grad f(W), p>, which for convex f implies
it and, unlike it, is not hidden by the roundoff of f (about 1e-16 ||X||^2)
once the residual is near 1e-8.  ``iterations`` counts evaluations of f,
line-search trials included; each is one cone projection (one d^2 x d^2
eigh) plus O(|V| d^4), so ``max_iter`` is a budget of cone projections.
Set-up factorises nothing: Q and R^-T are the system's own.  The best point
found is projected onto the affine subspace, then onto the cone, and the
residuals are measured on the result.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

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
        if self.tol <= 0 or self.max_iter <= 0:
            raise InputError("tol and max_iter must be positive")


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
    """Adds ``inverse_witness`` = ||G+ + G-||, zero for a unique group extension."""

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

_STALL_WINDOW = 2000
_STALL_IMPROVEMENT = 1e-2
# L-BFGS on the dual: the number of curvature pairs kept, the constant of both
# step acceptance tests, and the accepted step length below which the pairs
# are dropped (flat dual directions of degenerate problems inflate them).
_LBFGS_MEMORY = 5
_ARMIJO = 1e-4
_RESET_STEP = 1e-3


def _lbfgs_direction(g: np.ndarray, pairs) -> np.ndarray:
    """-H g for the L-BFGS inverse Hessian H of the pairs (s, y, 1/s.y, scale)."""
    q = g
    alphas = []
    for s, y, rho, _ in reversed(pairs):
        alpha = rho * float(s @ q)
        alphas.append(alpha)
        q = q - alpha * y
    if pairs:
        q = pairs[-1][3] * q
    for (s, y, rho, _), alpha in zip(pairs, reversed(alphas)):
        q = q + (alpha - rho * float(y @ q)) * s
    return -q


class _FeasibilitySolver:
    """Shared precomputation for one feasibility problem (reused across starts).

    Iterates are Hermitian d^2 x d^2 Choi matrices; the affine projection is
    the matrix-free one of the module docstring, and the dual variables are
    |V| x d^2 arrays whose rows are Hermitian d x d matrices, handled as flat
    real vectors (a complex array viewed as its real and imaginary parts), so
    that plain dot products are the real inner product Re tr(a* b).
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
        # coefficients.  lift W is L(W) = sum_k conj(Q_k) (x) W_k relaid out,
        # Q = R^-T basis the orthonormal basis; dual_adjoint = lift @ whiten
        # holds the rows of conj(D), D = G^-1 basis the dual basis, transposed.
        self.whiten = system.onb_coeffs
        self.lift = np.conj(system.onb.reshape(len(system), n)).T
        self.dual_adjoint = self.lift @ self.whiten
        self.dual_targets = (self.whiten @ self.target_rows).view(float).ravel()
        self.proj = maps.ccp_projector(d) if ccp else None
        self.base = np.zeros((n, n), dtype=complex) if ccp else maps.identity_map(d).choi
        offset = self.project_affine(np.zeros((n, n), dtype=complex))
        inconsistency = self.affine_residual(offset)
        if inconsistency > FEASIBILITY_TOL * (1.0 + linalg.frob(self.target_rows)):
            raise InputError(
                f"agreement targets are inconsistent: residual {inconsistency:.3e}"
            )

    def _relayout(self, c: np.ndarray) -> np.ndarray:
        """C[(i,a),(j,b)] <-> M[(i,j),(a,b)]; the swap is its own inverse."""
        d = self.d
        return c.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)

    def _defect(self, m: np.ndarray) -> np.ndarray:
        """The agreement defect A(C) - T, rows k, of C relaid out as m."""
        return self.basis_rows @ m - self.target_rows

    def project_cone(self, c: np.ndarray) -> np.ndarray:
        """Pi_K(C) = C - PCP + Pi_+(PCP) (module docstring); Pi_+(C) for maps."""
        if self.proj is None:
            return linalg.psd_clip(c)
        m = self.proj @ c @ self.proj
        return linalg.hermitian_part(c - m + linalg.psd_clip(m))

    def project_affine(self, c: np.ndarray) -> np.ndarray:
        """P(C) = C - sum_k conj(D_k) (x) (A(C)_k - target_k)."""
        m = self._relayout(c)
        return linalg.hermitian_part(self._relayout(m - self.dual_adjoint @ self._defect(m)))

    def affine_residual(self, c: np.ndarray) -> float:
        return linalg.frob(self._defect(self._relayout(c)))

    def start_point(self, options: ExtensionOptions) -> np.ndarray:
        raw = self.base
        if options.seed is not None:
            rng = np.random.default_rng(options.seed)
            raw = raw + linalg.random_hermitian(self.d * self.d, rng)
        return self.project_affine(raw)

    def _dual_point(self, x0: np.ndarray, w: np.ndarray):
        """X = Pi_K(x0 + L W), the dual value f(W) and its gradient R^-T (A X - T)."""
        lifted = self.lift @ w.view(complex).reshape(self.target_rows.shape)
        x = self.project_cone(x0 + self._relayout(lifted))
        grad = self.whiten @ self._defect(self._relayout(x))
        value = 0.5 * float(np.vdot(x, x).real) - float(self.dual_targets @ w)
        return x, value, grad.view(float).ravel()

    def _line_search(self, x0, w, value, direction, slope, budget):
        """Backtrack from the unit step along ``direction``.

        Returns the evaluations spent and the accepted (step, W, X, f, grad),
        or None in its place when the budget runs out first.
        """
        step = 1.0
        for spent in range(1, budget + 1):
            w_new = w + step * direction
            x, value_new, grad = self._dual_point(x0, w_new)
            slope_new = float(grad @ direction)
            # For convex f, f(t) - f(0) <= t f'(t): the derivative test is a
            # sufficient decrease that the roundoff of f cannot hide.
            if (value_new <= value + _ARMIJO * step * slope
                    or slope_new <= _ARMIJO * slope):
                return spent, (step, w_new, x, value_new, grad)
            # Secant estimate of f'(t) = 0, kept within [0.1, 0.5] of the step
            # (slope_new > c slope > slope here, so the ratio is finite).
            step *= min(0.5, max(0.1, slope / (slope - slope_new)))
        return budget, None

    def solve(self, options: ExtensionOptions):
        """Project the start point onto the feasible set (module docstring)."""
        tol = options.tol
        inner_tol = 0.2 * tol
        x0 = self.start_point(options)
        w = np.zeros_like(self.dual_targets)
        x, value, grad = self._dual_point(x0, w)
        iterations = 1
        residual = linalg.frob(grad)  # distance from X to the affine subspace
        best, best_x = residual, x
        window_best = np.inf
        window_end = _STALL_WINDOW
        pairs = []
        while residual > inner_tol and iterations < options.max_iter:
            direction = _lbfgs_direction(grad, pairs)
            slope = float(grad @ direction)
            if slope >= 0.0:
                pairs.clear()
                direction, slope = -grad, -residual * residual
            spent, accepted = self._line_search(x0, w, value, direction, slope,
                                                options.max_iter - iterations)
            iterations += spent
            if accepted is None:
                break
            step, w_new, x, value, grad_new = accepted
            s, y = w_new - w, grad_new - grad
            curvature = float(s @ y)
            if step < _RESET_STEP:
                pairs.clear()
            elif curvature > 0.0:
                pairs.append((s, y, 1.0 / curvature, curvature / float(y @ y)))
                del pairs[:-_LBFGS_MEMORY]
            w, grad = w_new, grad_new
            residual = linalg.frob(grad)
            if residual < best:
                best, best_x = residual, x
            if iterations >= window_end:
                if (residual > 100.0 * tol and np.isfinite(window_best)
                        and window_best - best < _STALL_IMPROVEMENT * window_best):
                    break  # plateau far from feasibility: sets look disjoint
                window_best = best
                window_end += _STALL_WINDOW

        # Polish the best point: affine projection, then the cone-exact point;
        # the affine defect of the result is bounded by the distance between
        # the two.  A run that reached 0.2 tol stops at its best point.
        z = self.project_affine(best_x)
        choi = self.project_cone(z)
        cone_residual = linalg.frob(z - choi)
        affine_residual = self.affine_residual(choi)
        result = SuperOp(self.d, choi)
        restriction = restriction_error(result, self.system.basis, self.targets)
        report = ExtensionReport(
            iterations=iterations,
            cone_residual=cone_residual,
            affine_residual=affine_residual,
            restriction_error=restriction,
            converged=max(cone_residual, affine_residual, restriction) <= tol,
        )
        return result, report


def restriction_error(op: SuperOp, basis, targets) -> float:
    """max_k ||op(v_k) - t_k||: agreement checked on the map itself."""
    return max(linalg.frob(op.apply(v) - t) for v, t in zip(basis, targets))


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
    problems the ccp cone { C : P C P >= 0 } of the module docstring).
    """
    ccp = problem.generator is not None
    targets = problem.generator.action if ccp else problem.map_targets
    solver = _FeasibilitySolver(problem.system, targets, ccp)
    options = problem.options
    return [solver.solve(options if seed is None
                         else replace(options, seed=seed))
            for seed in seeds]


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


def _start_seeds(rng: np.random.Generator, n_starts: int) -> list:
    """Seeds of the randomized starts of a cross-check (none by default)."""
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


def extend_group(problem: ExtensionProblem, n_starts: int = 0, seed: int = 0):
    """Extend a one-parameter UCP group on V to a group on M_d, with checks.

    +A and -A are extended first, each by :func:`extend_generator`.  Converged
    ccp extensions of both are the certificate that A generates a UCP group on
    V, so there is no separate validation; if either does not converge, A is
    rejected before anything else runs.  Uniqueness is then decided, not
    sampled:

      * rigidity: V must be irreducible (commutant C I, :func:`rigidity_probe`);
        on a reducible V, M_d is not the injective envelope and uniqueness in
        M_d is not claimed;
      * uniqueness: exp(t G+) o exp(t G-) is UCP and fixes V, so on a rigid V
        it is the identity and G+ = -G-; every ccp extension of A is then
        -G-.  The witness ||G+ + G-|| must be at most 100 x tol (a relaxed
        tolerance, as for the sampled checks below).

    The result must also satisfy, at sampled times and within 100 x tol:

      * inversion:        exp(t G+) o exp(t G-) = id,
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
    minus_problem = ExtensionProblem.for_generator(sub.system, -sub, opts)
    extensions = []
    for signed_problem, label in ((problem, "+A"), (minus_problem, "-A")):
        gen, signed_report = extend_generator(signed_problem)
        if not signed_report.converged:
            raise GroupExtensionError(
                f"not a group on V: the extension of {label} did not converge")
        extensions.append((gen, signed_report))
    (gen_plus, report), (gen_minus, _) = extensions

    comm = _decided_commutant(sub.system, opts.tol, GroupExtensionError, "uniqueness")
    if comm.dim > 1:
        raise GroupExtensionError(
            f"uniqueness in M_d is not claimed: V is reducible (commutant dimension "
            f"{comm.dim}), so M_d is not its injective envelope")
    witness = linalg.frob(gen_plus.op.choi + gen_minus.op.choi)
    if witness > check_tol:
        raise GroupExtensionError(
            f"uniqueness not certified: ||G+ + G-|| = {witness:.3e} on a rigid V")

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

    runs = multi_start(problem, run_seeds) if run_seeds else []
    unconverged = sum(not run_report.converged for _, run_report in runs)
    if unconverged:
        raise GroupExtensionError(
            f"uniqueness undecided: {unconverged} of {n_starts} randomized starts "
            "did not converge")
    spread = max_pairwise_distance([gen_plus.op.choi] + [op.choi for op, _ in runs])
    if spread > 10.0 * opts.tol:
        raise GroupExtensionError(
            f"randomized starts disagree (spread {spread:.3e}) although the "
            f"certificate says the extension is unique (||G+ + G-|| = {witness:.3e})")

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
    :class:`NumericalError`.

    The map-extension solver for phi = id_V also runs, from the deterministic
    start (which converges in one evaluation) plus ``n_starts`` randomized
    starts, as a cross-check: on a rigid V every converged extension must be
    the identity, else the certificate and the solver disagree and the probe
    raises :class:`NumericalError`.  On a non-rigid V the starts may still all
    land on the identity; they cannot refute the witness.
    """
    comm = _decided_commutant(system, tol, NumericalError, "rigidity")
    problem = ExtensionProblem.for_map(system, system.basis,
                                       ExtensionOptions(tol=tol, max_iter=max_iter))
    rng = np.random.default_rng(seed)
    seeds = [None] + _start_seeds(rng, n_starts)
    ops = [op for op, report in multi_start(problem, seeds) if report.converged]

    ident = maps.identity_map(system.dim)
    identity_threshold = max(50.0 * tol, 1e-6)
    max_pair = max_pairwise_distance([op.choi for op in ops])
    max_to_id = max((op.distance(ident) for op in ops), default=np.inf)
    rigid = comm.dim == 1
    if rigid and ops and max_to_id > identity_threshold:
        raise NumericalError(
            f"a converged start lies {max_to_id:.3e} from the identity although "
            f"the commutant is C I (dimension 1, gap {comm.gap:.3e})")
    return RigidityReport(
        all_identity=rigid,
        max_pairwise_distance=max_pair,
        max_distance_to_identity=max_to_id,
        identity_threshold=identity_threshold,
        n_converged=len(ops),
        n_runs=n_starts + 1,
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
