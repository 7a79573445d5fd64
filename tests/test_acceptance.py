"""End-to-end acceptance suite.

Each test exercises one shipping criterion at its stated tolerance and runtime
budget and records a PASS/FAIL line (printed in the terminal summary).
"""

import time

import numpy as np

from conftest import (random_gksl, random_involution_lift, random_ucp_map,
                      record_acceptance)
from ucpext import catalog, dynamics, extension, linalg, maps
from ucpext.extension import ExtensionOptions, ExtensionProblem
from ucpext.systems import LevelElement, matrix_norm


def test_criterion_1_rotation_uniqueness(rebit):
    t0 = time.time()
    problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
    gen, report = extension.extend_group(problem, n_starts=8, seed=0)
    elapsed = time.time() - t0
    truth = catalog.rotation_extension_generator(1.0)
    distance = gen.op.distance(truth.op)
    witness = report.certificate.inverse_witness
    record_acceptance(
        1, "rotation group extension is the commutator generator",
        distance <= 1e-6 and report.uniqueness_spread <= 1e-6 and witness <= 1e-6
        and report.certificate.commutant_dim == 1 and elapsed <= 10.0,
        f"distance {distance:.2e}, ||G+ + G-|| {witness:.2e}, "
        f"8-start spread {report.uniqueness_spread:.2e}, {elapsed:.2f}s")


def test_criterion_2_dissipative_non_uniqueness(rebit, pauli):
    diss = catalog.rebit_dissipative(1.0)
    y_images = []
    all_ok = True
    for seed in range(16):
        opts = ExtensionOptions(tol=1e-8, seed=seed)
        gen, report = extension.extend_generator(
            ExtensionProblem.for_generator(rebit, diss, opts))
        all_ok = all_ok and report.converged
        all_ok = all_ok and report.restriction_error <= 1e-8
        all_ok = all_ok and dynamics.is_conditionally_completely_positive(gen.op, 1e-8)
        y_images.append(gen.op.apply(pauli.Y))
    spread = max(float(np.linalg.norm(a - b))
                 for i, a in enumerate(y_images) for b in y_images[i + 1:])
    record_acceptance(
        2, "dissipative extensions from 16 starts are not unique",
        all_ok and spread >= 1e-3,
        f"all converged ccp: {all_ok}, max Y-action spread {spread:.2e}")


def test_criterion_3_named_generator_values(pauli):
    delta = 1.0
    gen1, gen2 = catalog.g1(delta), catalog.g2(delta)
    exact = (np.array_equal(gen1.op.apply(pauli.Y), -2.0 * delta * pauli.Y)
             and np.array_equal(gen2.op.apply(pauli.Y), -delta * pauli.Y))
    worst = 0.0
    for t in (0.5, 1.0, 2.0):
        worst = max(worst, float(np.linalg.norm(
            dynamics.evolve(gen1, t).apply(pauli.Y) - np.exp(-2 * delta * t) * pauli.Y)))
        worst = max(worst, float(np.linalg.norm(
            dynamics.evolve(gen2, t).apply(pauli.Y) - np.exp(-delta * t) * pauli.Y)))
    record_acceptance(
        3, "dissipative generator actions and decays on Y",
        exact and worst <= 1e-8,
        f"exact actions: {exact}, worst evolution error {worst:.2e}")


def test_criterion_4_route_equivalence(rebit):
    problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
    direct, _ = extension.extend_generator(problem)
    gen, family, report = extension.extend_via_resolvent_family(
        problem, omega=4.0, grid=np.linspace(0.5, 4.0, 8))
    distance = gen.op.distance(direct.op)
    recovered = []
    for lam, member in family.members:
        t = member.transfer
        recovered.append(lam * (np.eye(4) - np.linalg.inv(t)))
    spread = max(float(np.linalg.norm(a - b))
                 for i, a in enumerate(recovered) for b in recovered[i + 1:])
    record_acceptance(
        4, "resolvent-family route agrees with direct feasibility",
        report.converged and distance <= 1e-6 and spread <= 1e-7,
        f"route distance {distance:.2e}, recovery spread {spread:.2e}")


def test_criterion_5_hilbert_identity_grid():
    grid = np.linspace(0.5, 4.0, 5)
    worst = 0.0
    for gen in (catalog.g1(1.0), catalog.g2(1.0),
                catalog.rotation_extension_generator(1.0)):
        for lam in grid:
            for mu in grid:
                if lam != mu:
                    worst = max(worst, dynamics.hilbert_identity_residual(gen, lam, mu))
    record_acceptance(5, "resolvent identity on the parameter grid", worst <= 1e-9,
                      f"worst residual {worst:.2e}")


def test_criterion_6_laplace_quadrature():
    worst = 0.0
    slowest = 0.0
    for gen in (catalog.g1(1.0), catalog.g2(1.0),
                catalog.rotation_extension_generator(1.0)):
        t0 = time.time()
        for lam in (0.5, 1.0, 2.0):
            approx, _ = dynamics.laplace_resolvent(gen, lam, panels=400)
            worst = max(worst, approx.distance(dynamics.resolvent(gen, lam)))
        slowest = max(slowest, time.time() - t0)
    record_acceptance(
        6, "quadrature resolvent matches the direct resolvent",
        worst <= 1e-6 and slowest <= 5.0,
        f"worst error {worst:.2e}, slowest generator {slowest:.2f}s")


def test_criterion_7_equivalence_suite():
    tol = 1e-7
    rng = np.random.default_rng(20250810)
    disagreements = 0

    def conditions(gen):
        c2 = gen.certificates.certified
        c1 = all(maps.is_ucp(dynamics.evolve(gen, t), tol) for t in (0.1, 1.0, 10.0))
        c3 = all(maps.is_ucp(float(lam) * dynamics.resolvent(gen, lam), tol)
                 for lam in (0.1, 1.0, 10.0))
        return c1, c2, c3

    for _ in range(50):
        c1, c2, c3 = conditions(random_gksl(int(rng.choice([2, 3, 4])), rng))
        if not (c1 == c2 == c3):
            disagreements += 1
    for _ in range(20):
        gen, _ = random_involution_lift(int(rng.choice([2, 3, 4])), rng)
        c1, c2, c3 = conditions(gen)
        if not (c1 == c2 == c3 == False):  # noqa: E712 - want all-false agreement
            disagreements += 1
    record_acceptance(7, "generator/semigroup/resolvent conditions agree",
                      disagreements == 0, f"{disagreements} disagreements on 70 cases")


def test_criterion_8_power_series_laws():
    t0 = time.time()
    rng = np.random.default_rng(8)
    unitaries = [linalg.random_unitary(2, rng) for _ in range(300)]
    failures = []
    for trial in range(50):
        d = 2 if trial % 2 == 0 else 3
        phi = random_ucp_map(d, rng)
        psi = random_ucp_map(d, rng)
        beta = float(rng.uniform(0.2, 1.0))
        series = extension.rescale_resolvent(phi, beta, mode="series", tol=1e-8)
        closed = extension.rescale_resolvent(phi, beta, mode="closed", tol=1e-8)
        if series.distance(closed) > 1e-7:
            failures.append(("series-closed", trial))
        if not maps.is_ucp(closed, 1e-9):
            failures.append(("ucp", trial))
        b1, b2 = float(rng.uniform(0.3, 0.95)), float(rng.uniform(0.3, 0.95))
        lhs = extension.rescale_resolvent(phi, b1 * b2)
        rhs = extension.rescale_resolvent(extension.rescale_resolvent(phi, b2), b1)
        if lhs.distance(rhs) > 1e-8:
            failures.append(("composition", trial))
        if d == 2:
            h_phi = extension.rescale_resolvent(phi, beta)
            h_psi = extension.rescale_resolvent(psi, beta)
            lhs_norm = max(linalg.spectral_norm(h_phi.apply(u) - h_psi.apply(u))
                           for u in unitaries)
            rhs_norm = max(linalg.spectral_norm(phi.apply(u) - psi.apply(u))
                           for u in unitaries)
            if lhs_norm > rhs_norm / beta + 1e-8:
                failures.append(("lipschitz", trial))
    elapsed = time.time() - t0
    record_acceptance(8, "power-series map laws on 50 random UCP maps",
                      not failures and elapsed <= 30.0,
                      f"failures {failures}, {elapsed:.1f}s")


def test_criterion_9_norm_identity(rebit):
    rng = np.random.default_rng(9)
    systems = (rebit, catalog.real_symmetric_system(3))
    worst = 0.0
    count = 0
    for system in systems:
        for level in (1, 2):
            for _ in range(25):
                coeffs = rng.normal(size=(level, level, len(system))) \
                    + 1j * rng.normal(size=(level, level, len(system)))
                block = np.zeros((level * system.dim, level * system.dim),
                                 dtype=complex)
                for i in range(level):
                    for j in range(level):
                        v = np.tensordot(coeffs[i, j], system.onb, axes=(0, 0))
                        block[i * system.dim:(i + 1) * system.dim,
                              j * system.dim:(j + 1) * system.dim] = v
                el = LevelElement.wrap(system, block)
                got = matrix_norm(system, el)
                want = linalg.spectral_norm(block)
                worst = max(worst, abs(got - want) / (1.0 + want))
                count += 1
    record_acceptance(9, "block-bisection matrix norm equals the spectral norm",
                      count == 100 and worst <= 1e-8,
                      f"{count} elements, worst relative gap {worst:.2e}")


def test_criterion_10_discrete_powers(rebit):
    theta = np.pi / 5
    rot = catalog.rebit_rotation(1.0)
    images = dynamics.subsystem_evolve_images(rot, theta)
    powers = extension.extend_discrete(rebit, images, 10,
                                       ExtensionOptions(tol=1e-9))
    worst_scaled = 0.0
    for k in range(1, 11):
        expected = dynamics.subsystem_evolve_images(rot, k * theta)
        err = max(linalg.frob(powers[k].apply(v) - img)
                  for v, img in zip(rebit.basis, expected))
        worst_scaled = max(worst_scaled, err / (k * 1e-8))
    record_acceptance(10, "discrete powers restrict to rotations by k*theta",
                      worst_scaled <= 1.0,
                      f"worst error / (k * 1e-8) = {worst_scaled:.2f}")


def test_criterion_11_rigidity(rebit, qubit):
    verdicts = {}
    budget_ok = True
    for name, system, expected in (("rebit", rebit, True),
                                   ("M2", qubit, True),
                                   ("span_I", catalog.trivial_system(), False)):
        t0 = time.time()
        report = extension.rigidity_probe(system, n_starts=8, seed=0)
        elapsed = time.time() - t0
        verdicts[name] = report.all_identity
        # The 8 starts are a cross-check: each converges, and on a rigid V to
        # the identity (the probe raises otherwise).
        budget_ok = (budget_ok and elapsed <= 20.0 and report.n_converged == 9
                     and (report.certificate.commutant_dim == 1) == expected)
    # explicit witness pair for span{I}: state-composed unital maps fixing I
    witnesses = [maps.from_action(2, lambda b, r=rho: np.trace(r @ b) * np.eye(2))
                 for rho in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))]
    witness_ok = (all(maps.is_ucp(w, 1e-12) for w in witnesses)
                  and witnesses[0].distance(witnesses[1]) > 1.0)
    passed = (verdicts == {"rebit": True, "M2": True, "span_I": False}
              and witness_ok and budget_ok)
    record_acceptance(11, "rigidity probe separates rigid and non-rigid systems",
                      passed, f"verdicts {verdicts}, witness pair distinct: {witness_ok}")
