"""Generators, semigroup evolution, and resolvents on M_d.

A generator is a SuperOp A together with three derived certificates:

  hermiticity_preserving -- Choi matrix of A is Hermitian,
  unital_kernel          -- A(I) = 0,
  ccp                    -- conditional complete positivity (below).

The three together say exp(t*A) is a unital completely positive semigroup.
Conditional complete positivity is decided at the Choi level: with
P = I - omega omega* (``maps.ccp_projector``) projecting orthogonally to the
maximally entangled vector omega, A is ccp iff it preserves hermiticity and
P choi(A) P >= 0.  This one-shot eigenvalue test is cross-validated in the
test suite against the small-time behaviour of exp(t*A).

Certificates are always recomputed from the map; they are never accepted from
input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import linalg, maps
from .errors import InputError, NumericalError, Undecided
from .maps import SuperOp
from .systems import MatricialSystem, _first_outside
from .tolerances import FEASIBILITY_TOL, VALIDATE_MAX_ITER

if TYPE_CHECKING:
    from .extension import ExtensionReport

__all__ = [
    "GeneratorCertificates",
    "Generator",
    "SubsystemGenerator",
    "certify",
    "certify_each",
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
    """An infinitesimal generator with re-derived certificates.  ``ccp_eigenvalue``
    is lambda_min(P choi(A) P), the number the ccp certificate compares with
    -tol * (1 + ||choi||_F); -inf, not computed, when A does not preserve hermiticity."""

    op: SuperOp
    certificates: GeneratorCertificates
    ccp_eigenvalue: float

    @property
    def d(self) -> int:
        return self.op.d


def certify(op: SuperOp, tol: float = FEASIBILITY_TOL) -> Generator:
    """Wrap a SuperOp as a Generator, computing all certificates from scratch:
    the one-map case of :func:`certify_each`."""
    return certify_each([op], tol)[0]


def certify_each(ops: Sequence[SuperOp], tol: float = FEASIBILITY_TOL) -> list:
    """:func:`certify` of each map of ``ops``, maps on one M_d, in stacked
    steps: the norms of the Choi matrices C, of C - C* and of A(I) by
    ``linalg.frob_each``, and one ``eigvalsh`` over the stack of P herm(C) P
    of the maps that preserve hermiticity.  Every step acts on each map alone,
    so each Generator is the one its map gets in a stack of one.  A map whose
    ||C||_F or P herm(C) P overflows has no certificate: it raises
    :class:`NumericalError` before any spectrum is computed."""
    if not ops:
        return []
    d = ops[0].d
    if any(op.d != d for op in ops):
        raise InputError("certify_each needs maps on one M_d, "
                         f"got d = {sorted({op.d for op in ops})}")
    chois = np.array([op.choi for op in ops])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        norms = linalg.frob_each(chois)
        hermitian = linalg.frob_each(chois - linalg.dagger(chois)) <= tol * (1.0 + norms)
        # A(I) = sum_i A(E_ii), the sum of the diagonal blocks [i, ., i, .] of C.
        unital = linalg.frob_each(chois.reshape(-1, d, d, d, d).trace(axis1=1, axis2=3)) <= tol
        proj = maps.ccp_projector(d)
        compressed = proj @ linalg.hermitian_part(chois[hermitian]) @ proj
    finite = np.isfinite(norms)
    finite[hermitian] &= np.isfinite(compressed).all(axis=(-2, -1))
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise NumericalError(f"the Choi matrix of map {k} is too large to certify: "
                             "its norm or its compression by P overflows")
    min_eigs = np.full(len(ops), -np.inf)
    if hermitian.any():
        min_eigs[hermitian] = np.linalg.eigvalsh(compressed)[:, 0]  # reads the lower triangles
    ccp = hermitian & (min_eigs >= -tol * (1.0 + norms))
    return [Generator(op=op, certificates=GeneratorCertificates(
                hermiticity_preserving=h, unital_kernel=u, ccp=c), ccp_eigenvalue=e)
            for op, h, u, c, e in zip(ops, hermitian.tolist(), unital.tolist(), ccp.tolist(),
                                      min_eigs.tolist())]


def is_conditionally_completely_positive(op: SuperOp, tol: float = FEASIBILITY_TOL) -> bool:
    """True iff op preserves hermiticity and P choi(op) P >= -tol * (1 + ||choi||_F),
    P = ``maps.ccp_projector(d)`` (module docstring)."""
    return certify(op, tol).certificates.ccp


def has_group_certificate(gen: Generator, tol: float = FEASIBILITY_TOL) -> bool:
    """Both +A and -A generate UCP semigroups, so exp(t*A) is defined for all
    real t; -A preserves hermiticity and annihilates I exactly when A does."""
    return gen.certificates.certified and is_conditionally_completely_positive(-gen.op, tol)


def gksl_generator(d: int, hamiltonian=None, jumps: Sequence = ()) -> Generator:
    """Heisenberg-picture GKSL generator

        A(B) = i [H, B] + sum_k r_k (V_k* B V_k - (1/2) {V_k* V_k, B}),

    with finite nonnegative rates r_k.  A(I) = 0 holds exactly by
    construction and all three certificates are true.

    The action is applied in one pass, to the stack of the d^2 matrix units
    E_ij, and its images are the Choi blocks (``maps`` convention).  Every
    product acts on each unit alone, so the map is bit-identical to
    ``maps.from_action`` of the same action, one unit at a time.  A
    generator whose entries overflow raises :class:`NumericalError`.
    """
    if hamiltonian is None:
        ham = np.zeros((d, d), dtype=complex)
    else:
        ham = linalg.ensure_hermitian(linalg.as_matrix(hamiltonian, (d, d), "hamiltonian"),
                                      name="hamiltonian")
    terms = []
    for k, (op, rate) in enumerate(jumps):
        rate = float(rate)
        if not np.isfinite(rate):
            raise InputError(f"jump rate {k} is not finite: {rate}")
        if rate < 0:
            raise InputError(f"jump rate {k} is negative: {rate}")
        v = linalg.as_matrix(op, (d, d), f"jump operator {k}")
        terms.append((v, linalg.dagger(v), rate))

    units = np.eye(d * d, dtype=complex).reshape(d * d, d, d)  # E_ij at i d + j
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
        images = 1j * (ham @ units - units @ ham)
        for v, vd, rate in terms:
            vv = vd @ v
            images = images + rate * (vd @ units @ v - 0.5 * (vv @ units + units @ vv))
    if not np.isfinite(images).all():
        raise NumericalError("the GKSL generator overflows: its Choi matrix is not finite")
    choi = images.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)
    return certify(SuperOp(d, choi))


def evolve(gen: Generator, t: float, tol: float = FEASIBILITY_TOL) -> SuperOp:
    """The semigroup element exp(t * A) as a SuperOp.

    Negative t requires the group certificate (both +A and -A ccp), decided
    at ``tol``.
    """
    t = float(t)
    if t < 0 and not has_group_certificate(gen, tol):
        raise InputError("t < 0 requires a group certificate (both +A and -A ccp)")
    return SuperOp.from_transfer(gen.d, linalg.expm(gen.op.transfer, scale=t))


def resolvent(gen: Generator, lam):
    """R(lam, A) = (lam - A)^{-1} as a SuperOp (inverted at the transfer level).
    ``lam`` may also be a sequence of numbers: then the result is a list of
    SuperOps, one per number, from one stacked inverse, each bit-identical to
    its number's own.  A singular system raises :class:`NumericalError`
    naming its lam."""
    lams = [lam] if np.ndim(lam) == 0 else list(lam)
    system = np.array(lams, dtype=complex)[:, None, None] * np.eye(gen.d * gen.d) - gen.op.transfer
    inv = linalg.inverse(system, [
        f"resolvent system is singular at lam={x}: condition estimate {{cond:.3e}}"
        for x in lams])
    ops = [SuperOp.from_transfer(gen.d, t) for t in inv]
    return ops[0] if np.ndim(lam) == 0 else ops


def hilbert_identity_residual(gen: Generator, lam, mu, resolvent_of=None):
    """Frobenius residual of (R(lam) - R(mu)) / (lam - mu) + R(lam) R(mu).

    ``lam`` and ``mu`` are numbers, or two sequences of one length, the pairs
    to check; then the residual of each pair is returned, as an array, from
    one stacked pass, each bit-identical to its pair's alone.
    ``resolvent_of(x)`` gives R(x) of ``gen``; by default the resolvents of
    the distinct parameters are one :func:`resolvent` call.  A caller that
    needs them elsewhere too passes a lookup of its own, to solve each R(x)
    once.
    """
    one = np.ndim(lam) == 0 and np.ndim(mu) == 0
    lams, mus = ([lam], [mu]) if one else (list(lam), list(mu))
    if len(lams) != len(mus):
        raise InputError(f"{len(lams)} values of lam for {len(mus)} of mu")
    if any(a == b for a, b in zip(lams, mus)):
        raise InputError("resolvent identity requires lam != mu")
    if resolvent_of is None:
        values = list(dict.fromkeys(lams + mus))
        resolvent_of = dict(zip(values, resolvent(gen, values))).__getitem__
    r_lam = np.array([resolvent_of(x).transfer for x in lams]).reshape(-1, gen.d ** 2, gen.d ** 2)
    r_mu = np.array([resolvent_of(x).transfer for x in mus]).reshape(r_lam.shape)
    steps = np.array(lams, dtype=complex) - np.array(mus, dtype=complex)
    residuals = linalg.frob_each((r_lam - r_mu) / steps[:, None, None] + r_lam @ r_mu)
    return float(residuals[0]) if one else residuals


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
    # The 16 node exponentials and exp(h A), in one call.
    exps = linalg.expm(gen.op.transfer, scale=np.append(offsets, h))
    node_sum = sum(w * np.exp(-lam * off) * e for off, w, e in zip(offsets, weights, exps))
    q = np.exp(-lam * h) * exps[-1]
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

    ``extension`` is optional: a generator G on M_d that A was restricted
    from, so G(basis[k]) = action[k] and G maps V into V.  It is not checked
    beyond its dimension, because it decides nothing: when it is certified,
    :func:`validate_subsystem_semigroup` starts its generator solve from G,
    and the solver still decides the verdict.
    """

    system: MatricialSystem
    action: tuple
    coordinate_matrix: np.ndarray = field(repr=False)
    extension: Optional[Generator] = field(default=None, repr=False)

    @classmethod
    def from_action(cls, system: MatricialSystem, action,
                    extension: Optional[Generator] = None) -> "SubsystemGenerator":
        d = system.dim
        images = [linalg.as_matrix(a, (d, d), f"action[{k}]") for k, a in enumerate(action)]
        if len(images) != len(system):
            raise InputError(f"{len(images)} images for {len(system)} basis elements")
        if extension is not None and extension.d != d:
            raise InputError(f"extension acts on M_{extension.d}, the system lies in M_{d}")
        stack = np.array(images)
        outside = _first_outside(system, stack, FEASIBILITY_TOL)  # one test of every image
        if outside is not None:
            raise InputError(f"action[{outside[0]}] does not lie in span(V)")
        if linalg.frob(images[0]) > FEASIBILITY_TOL:
            raise InputError("A(basis[0]) must vanish: the unit is not annihilated")

        # Images of the orthonormalized basis follow linearly from the
        # orthonormalization coefficients; their coordinates, as columns, give
        # the matrix of A on V.
        coord = system.coords(stack).T @ system.onb_coeffs.T
        imag_defect = float(np.max(np.abs(coord.imag))) if coord.size else 0.0
        if imag_defect > FEASIBILITY_TOL * (1.0 + float(np.max(np.abs(coord.real)))):
            raise InputError(
                f"induced coordinate matrix is not real (defect {imag_defect:.3e}): "
                "A does not preserve hermiticity on V"
            )
        return cls(system=system, action=tuple(images),
                   coordinate_matrix=coord.real.copy(), extension=extension)

    def apply(self, m) -> np.ndarray:
        """A(m) for m in span(V), through the coordinate matrix."""
        c = self.system.coords(linalg.as_matrix(m))
        return self.system.from_coords(self.coordinate_matrix @ c)


def _basis_images(sub: SubsystemGenerator, step: np.ndarray):
    """Images of the user basis under the map with matrix ``step`` on V's coordinates."""
    system = sub.system
    return list(system.from_coords(system.coords(system.basis) @ step.T))


def subsystem_resolvent_images(sub: SubsystemGenerator, lam: float):
    """Images of the user basis under lam * R(lam, A), computed on V's coordinates."""
    m = len(sub.system)
    system_matrix = float(lam) * np.eye(m) - sub.coordinate_matrix
    return _basis_images(sub, float(lam) * linalg.inverse(
        system_matrix,
        f"subsystem resolvent singular at lam={lam}: condition estimate {{cond:.3e}}"))


def subsystem_evolve_images(sub: SubsystemGenerator, t: float):
    """Images of the user basis under exp(t * A) on V's coordinates."""
    return _basis_images(sub, linalg.expm(sub.coordinate_matrix, scale=float(t)))


# The counterexample search solves these samples besides the named ones, and
# halves the smallest evolution time this often.
DEFAULT_SAMPLE_TS = (0.5, 1.5)
DEFAULT_SAMPLE_LAMBDAS = (1.0, 4.0)
_HALVINGS = 10


def _sample(a, kind: str, parameter: float):
    """The ``kind`` sample of the generator ``a`` at ``parameter``, lam R(lam, a)
    or exp(t a): the images of V's basis when ``a`` is a SubsystemGenerator,
    the map on M_d when it is a Generator.  The functions that compute it are
    looked up by name at each call."""
    if isinstance(a, SubsystemGenerator):
        images_of = subsystem_resolvent_images if kind == "resolvent" else subsystem_evolve_images
        return images_of(a, parameter)
    return parameter * resolvent(a, parameter) if kind == "resolvent" else evolve(a, parameter)


def _sample_pass(a, samples) -> tuple:
    """``(checks, values)``: one check and one sample of ``a`` (:func:`_sample`)
    per ``(kind, parameter)``.  Where computing the sample raises
    :class:`NumericalError`, its value is None and its check a failure,
    ``feasible`` False with the ``error``."""
    checks, values = [], []
    for kind, parameter in samples:
        check = {"kind": kind, "parameter": parameter}
        try:
            values.append(_sample(a, kind, parameter))
        except NumericalError as exc:
            values.append(None)
            check.update(feasible=False, residuals=None, error=str(exc))
        checks.append(check)
    return checks, values


def _solve(sub: SubsystemGenerator, checks, images, tol: float, max_iter: int,
           gen: Optional[Generator] = None) -> list:
    """Solve the checks that have images as one batch
    (:func:`extension.ucp_extensions_feasible`), each from ``gen``'s own
    sample when ``gen`` is given (from the deterministic point where that
    sample raises), and record each verdict in its check.  Returns each
    check's solve report, None for a check that was not solved."""
    from . import extension  # local import: extension builds on this module

    solved = [k for k, values in enumerate(images) if values is not None]
    starts = None if gen is None else _sample_pass(
        gen, [(checks[k]["kind"], checks[k]["parameter"]) for k in solved])[1]
    reports = [None] * len(checks)
    for k, report in zip(solved, extension._map_reports(
            sub.system, [images[k] for k in solved], tol, max_iter, starts)):
        feasible, residuals = extension._verdict(report)
        checks[k].update(feasible=feasible, residuals=residuals)
        reports[k] = report
    return reports


@dataclass(frozen=True)
class SubsystemValidationReport:
    """``generator`` is the report of the generator extension that decided."""

    valid: bool
    checks: tuple
    message: str
    generator: ExtensionReport

    def failures(self):
        return [c for c in self.checks if not c["feasible"]]


_VALID, _INVALID = "UCP subsystem semigroup", "not a UCP subsystem semigroup"


def validate_subsystem_semigroup(sub: SubsystemGenerator,
                                 sample_ts: Sequence[float] = (),
                                 sample_lambdas: Sequence[float] = (),
                                 tol: float = FEASIBILITY_TOL,
                                 max_iter: int = VALIDATE_MAX_ITER) -> SubsystemValidationReport:
    """Decide whether A generates a UCP semigroup on V.

    One generator extension (:func:`extension.multi_start` on
    ``ExtensionProblem.for_generator``, at ``tol`` and ``max_iter``) decides
    "UCP" for every t and lambda: a ccp G on M_d that agrees with A on V maps
    V into V, so exp(t G) is UCP and equals exp(t A) on V.  The solve starts
    from ``sub.extension`` when that generator is certified, where it takes
    one dual evaluation, and from the deterministic point otherwise;
    ``generator`` reports it.

    A sample is the map lam * R(lam, A) for a named lambda, or exp(t * A) for
    a named t, computed on V's coordinates; it passes when it extends to a
    UCP map on M_d (:func:`extension.ucp_extensions_feasible`), and its check
    records the feasibility residuals.  Samples outside the semigroup (t < 0
    or lambda <= 0) are rejected before any solve.  The images of the named
    samples, none by default, are computed before any solve: an evolution
    sample whose exponential overflows is no evidence, and its
    :class:`NumericalError` ends the validation.  A singular resolvent sample
    is a failed check that is not solved.

      * A converged solve whose result G+ is certified decides "UCP".  The
        named samples are cross-checks: each starts from G+'s own sample,
        exp(t G+) or lam R(lam, G+) (from the deterministic point when that
        sample raises), and must pass.  One that fails or cannot be computed
        raises :class:`Undecided`, never "not UCP".
      * Otherwise the validation searches a counterexample: every UCP map on
        V extends to a UCP map on M_d, so a sample with no such extension
        proves that A is not UCP.  A semigroup that fails at t fails at every
        t / 2^k, so one cold batch solves the named samples,
        ``DEFAULT_SAMPLE_TS``, ``DEFAULT_SAMPLE_LAMBDAS`` and t0 / 2^k for
        k = 1..10, t0 the smallest positive evolution time among them.  A
        sample whose unconverged solve stops on the plateau decides "not
        UCP"; ``checks`` holds the named samples, and the first such sample
        when it is not one of them.  The named samples come first, then t0
        and its halvings from t0 down, then the other evolution times and the
        resolvents.  A sample whose solve stops unconverged for any other
        reason (its ``termination``: the budget, the roundoff floor, a
        non-finite dual), that cannot be computed or whose images are no
        unital map on V is no counterexample.  Without one the validation
        raises :class:`Undecided`.

    V need not be irreducible: both verdicts hold on every V, because M_d is
    injective.  Only when V is irreducible is M_d its injective envelope, so
    that every UCP semigroup on V has a ccp extension there.  On a reducible
    V a UCP semigroup without one is left :class:`Undecided` (ROADMAP item 7).
    """
    from . import extension  # local import: extension builds on this module

    named = ([("resolvent", float(lam)) for lam in sample_lambdas]
             + [("evolution", float(t)) for t in sample_ts])
    if any(p < 0 if kind == "evolution" else p <= 0 for kind, p in named):
        raise InputError("samples must lie in the semigroup: every t >= 0 and every lambda > 0")
    checks, images = _sample_pass(sub, named)
    overflow = next((c for c in checks if c["kind"] == "evolution" and "error" in c), None)
    if overflow is not None:
        raise NumericalError(overflow["error"])
    given = sub.extension
    problem = extension.ExtensionProblem.for_generator(
        sub.system, sub, extension.ExtensionOptions(tol=tol, max_iter=max_iter))
    ((op, report),) = extension.multi_start(
        problem, [given.op if given is not None and given.certificates.certified else None])
    gen_plus = certify(op, tol)
    if report.converged and gen_plus.certificates.certified:
        _solve(sub, checks, images, tol, max_iter, gen_plus)
        for check in checks:
            if check["feasible"]:
                continue
            symbol = "lambda" if check["kind"] == "resolvent" else "t"
            head = (f"validation undecided: the generator extension is certified, but the "
                    f"{check['kind']} sample at {symbol} = {check['parameter']:g}")
            if "error" in check:
                raise Undecided(f"{head} cannot be computed: {check['error']}",
                                reason="cross-check not computed")
            raise Undecided(f"{head} does not extend to a UCP map", reason="cross-check failed")
        return SubsystemValidationReport(valid=True, checks=tuple(checks), message=_VALID,
                                         generator=report)

    t0 = min([t for kind, t in named if kind == "evolution" and t > 0] + list(DEFAULT_SAMPLE_TS))
    others = ({("resolvent", lam) for lam in DEFAULT_SAMPLE_LAMBDAS}
              | {("evolution", t) for t in DEFAULT_SAMPLE_TS}
              | {("evolution", t0 / 2 ** k) for k in range(1, _HALVINGS + 1)})
    extra_checks, extra_images = _sample_pass(sub, sorted(
        others - set(named), key=lambda s: (s[0] != "evolution", s[1] > t0, -s[1])))
    search = checks + extra_checks
    reports = _solve(sub, search, images + extra_images, tol, max_iter)
    failing = next((check for check, report in zip(search, reports)
                    if not check["feasible"] and report is not None
                    and report.termination == "plateau"), None)
    if failing is None:
        raise Undecided(
            f"validation undecided: the generator extension "
            f"{'is not certified' if report.converged else 'did not converge'}, and no "
            f"sample solved is a counterexample", reason="no counterexample")
    if failing not in checks:
        checks.append(failing)
    return SubsystemValidationReport(valid=False, checks=tuple(checks), message=_INVALID,
                                     generator=report)
