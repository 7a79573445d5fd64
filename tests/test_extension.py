import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import near_reducible_system, random_ucp_map
from ucpext import catalog, dynamics, extension, linalg, maps, serialize, systems
from ucpext.dynamics import SubsystemGenerator
from ucpext.errors import (ExtensionInfeasible, GroupExtensionError, InputError,
                           NumericalError, ResolventFamilyError)
from ucpext.extension import ExtensionOptions, ExtensionProblem
from ucpext.systems import Commutant, MatricialSystem
from ucpext.tolerances import FEASIBILITY_TOL, VALIDATE_MAX_ITER


def full_algebra_subsystem(gen):
    """Wrap a generator on M_d as a SubsystemGenerator on the full algebra."""
    system = catalog.qubit_system() if gen.d == 2 else None
    assert system is not None
    return SubsystemGenerator.from_action(system, [gen.op.apply(b) for b in system.basis])


def undecided_commutant(system, tol=FEASIBILITY_TOL):
    """A commutant whose smallest nonzero singular value sits within tol of zero."""
    d = system.dim
    return Commutant(dim=1, basis=np.eye(d)[None] / np.sqrt(d), gap=0.5 * tol,
                     decided=False)


def counting_multi_start(monkeypatch):
    """Record the seed list of every ``extension.multi_start`` call."""
    calls = []
    solve = extension.multi_start

    def counting(problem, seeds):
        calls.append(list(seeds))
        return solve(problem, seeds)

    monkeypatch.setattr(extension, "multi_start", counting)
    return calls


def no_solve(*args, **kwargs):
    raise AssertionError("no start may be solved")


def sampled_map_norm(phi_transfer_apply, unitaries):
    """sup ||T(U)||_2 over sampled unitaries: the unit ball's extreme points."""
    return max(linalg.spectral_norm(phi_transfer_apply(u)) for u in unitaries)


class TestRescaleResolvent:
    def test_identity_fixed_point(self):
        ident = maps.identity_map(2)
        for beta in (0.3, 0.7, 1.0):
            assert extension.rescale_resolvent(ident, beta).distance(ident) <= 1e-12

    def test_beta_one_is_identity_map_of_phi(self):
        rng = np.random.default_rng(0)
        phi = random_ucp_map(2, rng)
        assert extension.rescale_resolvent(phi, 1.0, mode="series").distance(phi) == 0.0
        assert extension.rescale_resolvent(phi, 1.0, mode="closed").distance(phi) <= 1e-12

    def test_transports_scaled_resolvent(self, pauli):
        # Scalar oracle: beta x / (1 - (1-beta) x) applied to x = mu/(mu+Delta).
        delta, mu, lam = 1.0, 2.0, 1.0
        g = catalog.g1(delta)
        beta = lam / mu
        f_mu = mu * dynamics.resolvent(g, mu)
        moved = extension.rescale_resolvent(f_mu, beta)
        x = mu / (mu + delta)
        scalar = beta * x / (1.0 - (1.0 - beta) * x)
        assert scalar == pytest.approx(lam / (lam + delta))
        coeff = complex(np.trace(np.conj(pauli.X.T) @ moved.apply(pauli.X)) / 2.0)
        assert coeff == pytest.approx(scalar, abs=1e-12)
        assert moved.distance(lam * dynamics.resolvent(g, lam)) <= 1e-12

    def test_bad_beta_rejected(self):
        ident = maps.identity_map(2)
        for beta in (0.0, -0.2, 1.5):
            with pytest.raises(InputError):
                extension.rescale_resolvent(ident, beta)

    def test_non_ucp_input_rejected(self):
        with pytest.raises(InputError):
            extension.rescale_resolvent(maps.transpose_map(2), 0.5)

    def test_series_closed_agreement(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            phi = random_ucp_map(int(rng.choice([2, 3])), rng)
            beta = float(rng.uniform(0.15, 1.0))
            series = extension.rescale_resolvent(phi, beta, mode="series", tol=1e-8)
            closed = extension.rescale_resolvent(phi, beta, mode="closed", tol=1e-8)
            assert series.distance(closed) <= 1e-7

    def test_composition_law(self):
        rng = np.random.default_rng(2)
        for _ in range(6):
            phi = random_ucp_map(2, rng)
            for b1 in (0.3, 0.5, 0.9):
                for b2 in (0.3, 0.5, 0.9):
                    lhs = extension.rescale_resolvent(phi, b1 * b2)
                    rhs = extension.rescale_resolvent(
                        extension.rescale_resolvent(phi, b2), b1)
                    assert lhs.distance(rhs) <= 1e-8

    def test_preserves_ucp(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            phi = random_ucp_map(int(rng.choice([2, 3])), rng)
            out = extension.rescale_resolvent(phi, float(rng.uniform(0.2, 1.0)))
            assert maps.is_ucp(out, 1e-9)

    def test_operator_norm_lipschitz_bound(self):
        # || H_b[phi] - H_b[psi] ||_op <= (1/b) || phi - psi ||_op + 1e-8,
        # with the induced norm estimated over sampled unitaries (the extreme
        # points of the spectral-norm unit ball), same sample on both sides.
        rng = np.random.default_rng(4)
        unitaries = [linalg.random_unitary(2, rng) for _ in range(400)]
        for _ in range(8):
            phi, psi = random_ucp_map(2, rng), random_ucp_map(2, rng)
            for beta in (0.3, 0.5, 0.9):
                h_phi = extension.rescale_resolvent(phi, beta)
                h_psi = extension.rescale_resolvent(psi, beta)
                lhs = sampled_map_norm(
                    lambda u: h_phi.apply(u) - h_psi.apply(u), unitaries)
                rhs = sampled_map_norm(
                    lambda u: phi.apply(u) - psi.apply(u), unitaries)
                assert lhs <= rhs / beta + 1e-8


class TestExtendUcpMap:
    def test_full_algebra_identity_is_immediate(self, qubit):
        problem = ExtensionProblem.for_map(qubit, list(qubit.basis))
        psi, report = extension.extend_ucp_map(problem)
        assert report.converged and report.iterations == 1
        assert psi.distance(maps.identity_map(2)) <= 1e-12

    def test_rotation_map_extension_is_conjugation(self, rebit, pauli):
        omega, t = 1.0, 0.8
        images = dynamics.subsystem_evolve_images(catalog.rebit_rotation(omega), t)
        psi, report = extension.extend_ucp_map(ExtensionProblem.for_map(rebit, images))
        assert report.converged
        u = linalg.expm(pauli.Y, scale=-0.5j * omega * t)
        assert psi.distance(maps.conjugation_map(u)) <= 1e-6
        # unique: randomized starts land on the same extension
        for seed in (11, 12):
            opts = ExtensionOptions(seed=seed)
            psi_s, rep_s = extension.extend_ucp_map(
                ExtensionProblem.for_map(rebit, images, opts))
            assert rep_s.converged
            assert psi_s.distance(psi) <= 1e-6

    def test_dissipative_map_extension_not_unique(self, rebit, pauli):
        images = dynamics.subsystem_evolve_images(catalog.rebit_dissipative(1.0), 1.0)
        results = []
        for seed in range(4):
            opts = ExtensionOptions(seed=seed)
            psi, report = extension.extend_ucp_map(
                ExtensionProblem.for_map(rebit, images, opts))
            assert report.converged
            results.append(psi.apply(pauli.Y))
        spread = max(np.linalg.norm(a - b)
                     for i, a in enumerate(results) for b in results[i + 1:])
        assert spread > 1e-3

    def test_restriction_checked_independently(self, rebit):
        images = dynamics.subsystem_evolve_images(catalog.rebit_dissipative(1.0), 0.5)
        psi, report = extension.extend_ucp_map(ExtensionProblem.for_map(rebit, images))
        assert report.converged
        direct = max(linalg.frob(psi.apply(v) - img)
                     for v, img in zip(rebit.basis, images))
        assert direct <= report.restriction_error + 1e-15
        assert direct <= 1e-8

    def test_non_hermitian_target_rejected(self, rebit, pauli):
        with pytest.raises(InputError):
            ExtensionProblem.for_map(rebit, [pauli.I, 1j * pauli.X, pauli.Z])

    def test_non_unital_target_rejected(self, rebit, pauli):
        with pytest.raises(InputError):
            ExtensionProblem.for_map(rebit, [0.5 * pauli.I, pauli.X, pauli.Z])

    def test_infeasible_map_does_not_converge(self, rebit, pauli):
        # X -> 2X has norm 2 on a unital map: impossible, the solver must
        # stall and report failure rather than fabricate an extension.
        images = [pauli.I, 2.0 * pauli.X, pauli.Z]
        feasible, _ = extension.ucp_extension_feasible(rebit, images, max_iter=20_000)
        assert not feasible

    def test_determinism_bit_identical(self, rebit):
        images = dynamics.subsystem_evolve_images(catalog.rebit_dissipative(1.0), 1.0)
        opts = ExtensionOptions(seed=42)
        a, rep_a = extension.extend_ucp_map(ExtensionProblem.for_map(rebit, images, opts))
        b, rep_b = extension.extend_ucp_map(ExtensionProblem.for_map(rebit, images, opts))
        assert rep_a.iterations == rep_b.iterations
        assert np.array_equal(a.choi, b.choi)

    def test_result_exactly_hermitian(self, rebit):
        images = dynamics.subsystem_evolve_images(catalog.rebit_dissipative(1.0), 1.0)
        psi, report = extension.extend_ucp_map(ExtensionProblem.for_map(
            rebit, images, ExtensionOptions(seed=3)))
        assert report.converged
        assert np.array_equal(psi.choi, np.conj(psi.choi.T))


class TestExtendGenerator:
    def test_rotation_start_is_feasible(self, rebit):
        # The affine projection of 0 is already the commutator generator.
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        gen, report = extension.extend_generator(problem)
        assert report.converged and report.iterations == 1

    def test_full_algebra_is_immediate(self):
        g1 = catalog.g1(1.0)
        problem = ExtensionProblem.for_generator(
            catalog.qubit_system(), full_algebra_subsystem(g1))
        gen, report = extension.extend_generator(problem)
        assert report.converged and report.iterations == 1
        assert gen.op.distance(g1.op) <= 1e-10

    def test_rotation_extension_unique(self, rebit):
        truth = catalog.rotation_extension_generator(1.0)
        for seed in (None, 5, 6):
            opts = ExtensionOptions(seed=seed)
            gen, report = extension.extend_generator(
                ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0), opts))
            assert report.converged and gen.certificates.certified
            assert gen.op.distance(truth.op) <= 1e-6

    def test_dissipative_extension_properties(self, rebit, pauli):
        diss = catalog.rebit_dissipative(1.0)
        y_images = []
        for seed in range(6):
            opts = ExtensionOptions(seed=seed)
            gen, report = extension.extend_generator(
                ExtensionProblem.for_generator(rebit, diss, opts))
            assert report.converged
            assert gen.certificates.certified
            assert report.restriction_error <= 1e-8
            np.testing.assert_allclose(gen.op.apply(pauli.X), -pauli.X, atol=1e-7)
            y_images.append(gen.op.apply(pauli.Y))
        spread = max(np.linalg.norm(a - b)
                     for i, a in enumerate(y_images) for b in y_images[i + 1:])
        assert spread > 1e-3  # both named generators fit: extension not unique

    def test_large_entries_converge_without_plateau(self, rebit):
        # The exact commutator generator is feasible and has entries about
        # 1e7: the cone projection's roundoff must stay well below tol.
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1e7))
        gen, report = extension.extend_generator(problem)
        assert report.converged and report.iterations <= 2
        truth = catalog.rotation_extension_generator(1e7)
        assert gen.op.distance(truth.op) <= 1e-8 * linalg.frob(truth.op.choi)

    def test_restricted_evolution_matches_subsystem(self, rebit):
        diss = catalog.rebit_dissipative(0.7)
        gen, _ = extension.extend_generator(ExtensionProblem.for_generator(rebit, diss))
        for t in (0.3, 1.1):
            step = dynamics.evolve(gen, t)
            images = dynamics.subsystem_evolve_images(diss, t)
            for v, img in zip(rebit.basis, images):
                np.testing.assert_allclose(step.apply(v), img, atol=1e-7)


class TestResolventFamilyRoute:
    def test_full_algebra_family_is_exact(self):
        g1 = catalog.g1(1.0)
        problem = ExtensionProblem.for_generator(
            catalog.qubit_system(), full_algebra_subsystem(g1))
        gen, family, report = extension.extend_via_resolvent_family(problem, omega=3.0)
        assert report.converged
        assert gen.op.distance(g1.op) <= 1e-8
        for lam, member in family.members:
            assert member.distance(float(lam) * dynamics.resolvent(g1, lam)) <= 1e-8

    def test_rotation_route_matches_direct_route(self, rebit):
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        direct, _ = extension.extend_generator(problem)
        gen, family, report = extension.extend_via_resolvent_family(
            problem, omega=4.0, grid=np.linspace(0.5, 4.0, 8))
        assert report.converged
        assert gen.op.distance(direct.op) <= 1e-6
        assert family.omega == 4.0

    def test_family_invariants(self, rebit):
        sub = catalog.rebit_dissipative(1.0)
        problem = ExtensionProblem.for_generator(rebit, sub)
        gen, family, report = extension.extend_via_resolvent_family(problem, omega=10.0)
        assert gen.certificates.certified
        members = list(family.members)
        for lam, member in members:
            assert maps.is_ucp(member, 1e-7)
            for v, img in zip(rebit.basis,
                              dynamics.subsystem_resolvent_images(sub, lam)):
                assert linalg.frob(member.apply(v) - img) <= 1e-7
        # pairwise resolvent-family identity
        for i, (lam, f_lam) in enumerate(members):
            for mu, f_mu in members[i + 1:]:
                lhs = (lam * f_mu.transfer - mu * f_lam.transfer) / (lam - mu)
                rhs = f_lam.transfer @ f_mu.transfer
                assert np.linalg.norm(lhs - rhs) <= 1e-7

    def test_family_at_matches_members(self, rebit):
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_dissipative(1.0))
        _, family, _ = extension.extend_via_resolvent_family(problem, omega=10.0)
        for lam, member in family.members:
            assert family.at(lam).distance(member) <= 1e-12
        with pytest.raises(InputError):
            family.at(2.0 * family.omega)

    def test_recovered_generator_is_lambda_independent(self, rebit):
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_dissipative(1.0))
        gen, family, _ = extension.extend_via_resolvent_family(problem, omega=10.0)
        recovered = []
        for lam, member in family.members:
            t = member.transfer
            recovered.append(lam * (np.eye(4) - np.linalg.inv(t)))
        spread = max(np.linalg.norm(a - b)
                     for i, a in enumerate(recovered) for b in recovered[i + 1:])
        assert spread <= 1e-7

    def test_restriction_decays(self, rebit, pauli):
        delta = 1.0
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_dissipative(delta))
        gen, _, _ = extension.extend_via_resolvent_family(problem, omega=10.0 * delta)
        for t in (0.5, 1.0):
            step = dynamics.evolve(gen, t)
            np.testing.assert_allclose(step.apply(pauli.X),
                                       np.exp(-delta * t) * pauli.X, atol=1e-6)
            np.testing.assert_allclose(step.apply(pauli.Z),
                                       np.exp(-delta * t) * pauli.Z, atol=1e-6)

    def test_bad_grid_rejected(self, rebit):
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        with pytest.raises(InputError):
            extension.extend_via_resolvent_family(problem, omega=2.0, grid=[1.0, 3.0])

    def test_structured_failure_advises_direct_route(self):
        # Restricted depolarizing dynamics on the real symmetric 3x3 system:
        # the projection-selected extension of the scaled resolvent keeps the
        # antisymmetric part fixed, which is not completely positive at d = 3,
        # so no escalation recovers a ccp generator.  The heuristic route must
        # fail with structured advice while the direct route succeeds.
        system = catalog.real_symmetric_system(3)
        action = [-(v - np.trace(v) / 3.0 * np.eye(3)) for v in system.basis]
        sub = SubsystemGenerator.from_action(system, action)
        problem = ExtensionProblem.for_generator(system, sub)
        with pytest.raises(ResolventFamilyError) as excinfo:
            extension.extend_via_resolvent_family(problem, omega=8.0, max_doublings=2)
        assert excinfo.value.advice == "extend_generator"
        assert len(excinfo.value.attempts) == 3
        gen, report = extension.extend_generator(problem)
        assert report.converged and gen.certificates.certified


class TestMultiStart:
    @staticmethod
    def _assert_same(outcome, expected):
        (op, report), (op_ref, report_ref) = outcome, expected
        assert np.array_equal(op.choi, op_ref.choi)
        assert report == report_ref

    def test_map_problem_matches_single_solves(self, rebit):
        images = dynamics.subsystem_evolve_images(catalog.rebit_dissipative(1.0), 1.0)
        problem = ExtensionProblem.for_map(rebit, images)
        seeds = [None, 7, 3, None]
        outcomes = extension.multi_start(problem, seeds)
        assert len(outcomes) == len(seeds)
        for seed, outcome in zip(seeds, outcomes):
            if seed is None:
                expected = extension.extend_ucp_map(problem)
            else:
                expected = extension.extend_ucp_map(ExtensionProblem.for_map(
                    rebit, images, ExtensionOptions(seed=seed)))
            self._assert_same(outcome, expected)
        assert outcomes[1][0].distance(outcomes[2][0]) > 1e-3  # not unique

    def test_generator_problem_matches_single_solves(self, rebit):
        diss = catalog.rebit_dissipative(1.0)
        problem = ExtensionProblem.for_generator(rebit, diss)
        outcomes = extension.multi_start(problem, [None, 5])
        for seed, outcome in zip([None, 5], outcomes):
            opts = ExtensionOptions(seed=seed)
            gen, report = extension.extend_generator(
                ExtensionProblem.for_generator(rebit, diss, opts))
            self._assert_same(outcome, (gen.op, report))

    @staticmethod
    def _problem(d, ccp, options):
        """A feasible problem on real_symmetric_d: a random UCP map (psd), or
        a real GKSL generator, which leaves the real symmetric matrices
        invariant (ccp)."""
        rng = np.random.default_rng([d, ccp])
        system = catalog.real_symmetric_system(d)
        if ccp:
            a = rng.normal(size=(d, d))
            jumps = [(rng.normal(size=(d, d)) + 0j, float(rng.uniform(0.2, 1.0)))
                     for _ in range(2)]
            gen = dynamics.gksl_generator(d, 1j * (a - a.T) / 2.0, jumps)
            sub = SubsystemGenerator.from_action(system, [gen.op.apply(v) for v in system.basis])
            return ExtensionProblem.for_generator(system, sub, options)
        phi = random_ucp_map(d, rng)
        return ExtensionProblem.for_map(system, [phi.apply(v) for v in system.basis], options)

    @pytest.mark.parametrize("ccp", [False, True], ids=["psd", "ccp"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_members_match_solo_runs(self, d, ccp):
        # A member's iterates do not depend on the rest of its batch: each
        # equals, bit for bit, the batch of one from its seed.
        problem = self._problem(d, ccp, ExtensionOptions(max_iter=200))
        seeds = [None, 3, 11, 3]
        batch = extension.multi_start(problem, seeds)
        assert len(batch) == len(seeds)
        for seed, outcome in zip(seeds, batch):
            self._assert_same(outcome, extension.multi_start(problem, [seed])[0])
        assert batch[1][1] == batch[3][1]

    def test_members_stop_for_different_reasons(self, rebit):
        # The deterministic start of the rotation is feasible at once; the
        # seeded ones spend the whole budget of 3 evaluations.
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0),
                                                 ExtensionOptions(max_iter=3))
        seeds = [1, None, 2]
        batch = extension.multi_start(problem, seeds)
        assert [report.iterations for _, report in batch] == [3, 1, 3]
        assert batch[1][1].converged
        for seed, outcome in zip(seeds, batch):
            self._assert_same(outcome, extension.multi_start(problem, [seed])[0])

    def test_no_seeds_no_runs(self, rebit):
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        assert extension.multi_start(problem, []) == []

    def test_a_member_with_a_non_finite_trial_stops_alone(self, rebit, monkeypatch):
        # From its second Newton step on, every trial of the seed-3 member has
        # a non-finite dual value: it stops at the first of them and keeps
        # step 0 while the seed-26 member backtracks in that step.
        images = dynamics.subsystem_evolve_images(catalog.rebit_dissipative(1.0), 1.0)
        problem = ExtensionProblem.for_map(rebit, images)
        seeds, poisoned = [None, 7, 3, 26], 2
        solo = [extension.multi_start(problem, [seed])[0] for seed in seeds]
        start = extension._FeasibilitySolver(rebit, images).start_points([3])[0]
        # The member's duals W: those it evaluated before its second step, and
        # those of its trials from then on.
        newton_steps, evaluated, after = [], set(), []
        direction = extension._FeasibilitySolver._newton_direction
        dual_point = extension._FeasibilitySolver._dual_point

        def counting(solver, point):
            newton_steps.append(len(point.residual))
            return direction(solver, point)

        def poisoning(solver, x0, w):
            point = dual_point(solver, x0, w)
            for k, x in enumerate(x0):
                if np.array_equal(x, start):
                    if len(newton_steps) >= 2:
                        point.value[k] = np.nan
                        after.append(w[k].tobytes())
                    else:
                        evaluated.add(w[k].tobytes())
            return point

        monkeypatch.setattr(extension._FeasibilitySolver, "_newton_direction", counting)
        monkeypatch.setattr(extension._FeasibilitySolver, "_dual_point", poisoning)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = extension.multi_start(problem, seeds)
        monkeypatch.undo()

        assert newton_steps[:3] == [3, 3, 2]  # it leaves the batch after its second step
        # Its second trial of that step is at step 0, its first step's point.
        assert len(after) == 2 and after[0] not in evaluated and after[1] in evaluated
        op, report = batch[poisoned]
        assert report.iterations == len(evaluated) + 1 < solo[poisoned][1].iterations
        # Its best point is the one of its first step: the solve stopped by
        # the budget right after that step polishes the same point.
        stopped = ExtensionProblem.for_map(
            rebit, images, ExtensionOptions(seed=3, max_iter=report.iterations - 1))
        self._assert_same((op, replace(report, iterations=report.iterations - 1)),
                          extension.extend_ucp_map(stopped))
        for k, (outcome, expected) in enumerate(zip(batch, solo)):
            if k != poisoned:
                self._assert_same(outcome, expected)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_a_dual_overflowing_at_a_start_fails_the_batch(self, rebit):
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1e300))
        with pytest.raises(NumericalError, match="dual overflowed"):
            extension.multi_start(problem, [None, 1])


class TestExtensionProblem:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1e-8])
    def test_tol_must_be_finite_and_positive(self, tol):
        with pytest.raises(InputError, match="tol must be finite and positive"):
            ExtensionOptions(tol=tol)

    def test_generator_on_other_basis_rejected(self, pauli):
        other = MatricialSystem.from_basis([pauli.I, pauli.X, pauli.Y])
        with pytest.raises(InputError, match="different system"):
            ExtensionProblem.for_generator(other, catalog.rebit_rotation(1.0))

    def test_equal_system_built_twice_accepted(self):
        sub = catalog.rebit_rotation(1.0)
        system = MatricialSystem.from_basis(catalog.rebit_system().basis)
        assert system is not sub.system
        problem = ExtensionProblem.for_generator(system, sub)
        gen, report = extension.extend_generator(problem)
        assert report.converged and gen.certificates.certified


class TestExtendGroup:
    def test_rotation_group(self, rebit):
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        gen, report = extension.extend_group(problem, n_starts=4, seed=1)
        truth = catalog.rotation_extension_generator(1.0)
        assert gen.op.distance(truth.op) <= 1e-6
        assert report.inverse_residual <= 1e-6
        assert report.uniqueness_spread <= 1e-7
        assert report.multiplicativity_residual <= 1e-6

    def test_full_algebra_hamiltonian_group(self, qubit, pauli):
        ham_gen = dynamics.gksl_generator(2, hamiltonian=0.9 * pauli.Y + 0.2 * pauli.X)
        problem = ExtensionProblem.for_generator(qubit, full_algebra_subsystem(ham_gen))
        gen, _ = extension.extend_group(problem, n_starts=2, seed=0)
        assert gen.op.distance(ham_gen.op) <= 1e-8

    def test_dissipative_rejected(self, rebit):
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_dissipative(1.0))
        with pytest.raises(GroupExtensionError, match="not a group"):
            extension.extend_group(problem, n_starts=2)

    def test_no_separate_validation(self, rebit, monkeypatch):
        def no_validation(*args, **kwargs):
            raise AssertionError("extend_group must not call validate")

        monkeypatch.setattr(dynamics, "validate_subsystem_semigroup", no_validation)
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        gen, _ = extension.extend_group(problem, n_starts=2, seed=0)
        assert gen.op.distance(catalog.rotation_extension_generator(1.0).op) <= 1e-6

    @pytest.mark.parametrize("sign, message", [
        (1.0, r"not a group on V: -G\+ is not ccp \(ccp defect 1\.000e\+00"),
        (-1.0, r"group undecided: the extension of \+A did not converge")],
        ids=["dissipation", "reversed-dissipation"])
    def test_rejection_before_random_starts(self, rebit, monkeypatch, sign, message):
        # +A = the dissipation: its extension G+ converges and -G+ is not ccp.
        # +A = minus the dissipation: no UCP semigroup, so no extension converges.
        calls = counting_multi_start(monkeypatch)
        diss = catalog.rebit_dissipative(1.0)
        sub = SubsystemGenerator.from_action(rebit, [sign * a for a in diss.action])
        with pytest.raises(GroupExtensionError, match=message):
            extension.extend_group(ExtensionProblem.for_generator(rebit, sub), n_starts=8)
        assert calls == [[None]]  # the +A solve only

    def test_zero_starts_give_a_certified_verdict(self, rebit, monkeypatch):
        calls = counting_multi_start(monkeypatch)
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        gen, report = extension.extend_group(problem, n_starts=0)
        assert calls == [[None]]  # the +A solve only
        assert gen.op.distance(catalog.rotation_extension_generator(1.0).op) <= 1e-6
        assert report.n_starts == 0 and report.uniqueness_spread == 0.0
        assert report.certificate.commutant_dim == 1
        assert report.certificate.commutant_gap > 1.0
        assert report.certificate.inverse_witness <= 100.0 * FEASIBILITY_TOL

    @pytest.mark.parametrize("n_starts", [-3])
    def test_negative_start_count_rejected(self, rebit, monkeypatch, n_starts):
        monkeypatch.setattr(extension, "multi_start", no_solve)
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        with pytest.raises(InputError, match="n_starts must be nonnegative"):
            extension.extend_group(problem, n_starts=n_starts)

    def test_undecided_gap_gives_no_verdict(self, rebit, monkeypatch):
        monkeypatch.setattr(systems, "commutant", undecided_commutant)
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        with pytest.raises(GroupExtensionError,
                           match="uniqueness undecided: the commutant's rank"):
            extension.extend_group(problem)

    def test_reducible_system_uniqueness_not_claimed(self, pauli):
        # A = 0 on the diagonal system: a group on V whose ccp extensions to
        # M_2 are not unique, which the paper does not contradict, since M_2
        # is not the envelope of a reducible V.
        system = catalog.diagonal_system()
        gen = dynamics.gksl_generator(2, hamiltonian=pauli.Z)
        sub = SubsystemGenerator.from_action(system, [gen.op.apply(v) for v in system.basis])
        problem = ExtensionProblem.for_generator(system, sub)
        for n_starts in (0, 4):
            with pytest.raises(GroupExtensionError,
                               match="not claimed: V is reducible .commutant dimension 2") as info:
                extension.extend_group(problem, n_starts=n_starts)
            assert "contradicting rigidity" not in str(info.value)

    def test_unconverged_starts_leave_uniqueness_undecided(self, rebit):
        # The deterministic +A solve converges in 1 evaluation; the randomized
        # starts of the cross-check need about 6, so within 3 they do not, and
        # the cross-check is inconclusive.
        problem = ExtensionProblem.for_generator(
            rebit, catalog.rebit_rotation(1.0), ExtensionOptions(max_iter=3))
        with pytest.raises(GroupExtensionError,
                           match="uniqueness undecided: 8 of 8 randomized starts"):
            extension.extend_group(problem, n_starts=8)

    def test_disagreeing_start_refutes_the_certificate(self, rebit, monkeypatch):
        solve = extension.multi_start

        def shifted(problem, seeds):
            runs = solve(problem, seeds)
            if seeds == [None]:
                return runs
            return [(maps.SuperOp(op.d, op.choi + 1e-3 * np.eye(op.d ** 2)), report)
                    for op, report in runs]

        monkeypatch.setattr(extension, "multi_start", shifted)
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0))
        with pytest.raises(GroupExtensionError,
                           match=r"disagree \(spread .*\) although the certificate .*"
                                 r"\(ccp defect of -G\+ [0-9.]+e[+-][0-9]+\)"):
            extension.extend_group(problem, n_starts=2)

    def test_three_dimensional_rotation_group(self):
        # A rotation of the real symmetric 3x3 system, extended uniquely to
        # the commutator generator on M_3, through both routes.
        system = catalog.real_symmetric_system(3)
        h = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]], dtype=complex)
        full = dynamics.gksl_generator(3, hamiltonian=h)
        sub = SubsystemGenerator.from_action(
            system, [full.op.apply(v) for v in system.basis])
        problem = ExtensionProblem.for_generator(system, sub)
        gen, report = extension.extend_group(problem, n_starts=3, seed=2)
        assert gen.op.distance(full.op) <= 1e-6
        assert report.uniqueness_spread <= 1e-7
        via_family, _, family_report = extension.extend_via_resolvent_family(
            problem, omega=6.0)
        assert family_report.converged
        assert via_family.op.distance(full.op) <= 1e-6


class TestRigidityProbe:
    def test_full_algebra_rigid(self, qubit):
        report = extension.rigidity_probe(qubit, n_starts=4, seed=0)
        assert report.all_identity
        assert report.n_converged == report.n_runs

    def test_rebit_rigid(self, rebit):
        report = extension.rigidity_probe(rebit, n_starts=6, seed=0)
        assert report.all_identity
        assert report.max_distance_to_identity <= report.identity_threshold

    @pytest.mark.parametrize("name, rigid", [("span_I", False), ("diagonal", False),
                                             ("rebit", True), ("M2", True)])
    def test_zero_starts_give_a_certified_verdict(self, monkeypatch, name, rigid):
        calls = counting_multi_start(monkeypatch)
        # Nothing the starts would use is built: no generator, no identity map.
        monkeypatch.setattr(np.random, "default_rng", no_solve)
        monkeypatch.setattr(maps, "identity_map", no_solve)
        report = extension.rigidity_probe(serialize.system_from_json(name), n_starts=0)
        assert calls == []  # the commutant decides; no start is solved
        assert report.all_identity is rigid
        assert (report.certificate.commutant_dim == 1) is rigid
        assert report.n_runs == report.n_converged == 0
        assert report.max_distance_to_identity == report.max_pairwise_distance == 0.0

    @pytest.mark.parametrize("n_starts", [-2])
    def test_negative_start_count_rejected(self, monkeypatch, n_starts):
        monkeypatch.setattr(extension, "multi_start", no_solve)
        with pytest.raises(InputError, match="n_starts must be nonnegative"):
            extension.rigidity_probe(catalog.trivial_system(), n_starts=n_starts)

    def test_undecided_gap_gives_no_verdict(self, rebit, monkeypatch):
        monkeypatch.setattr(systems, "commutant", undecided_commutant)
        monkeypatch.setattr(extension, "multi_start", no_solve)
        with pytest.raises(NumericalError, match="rigidity undecided"):
            extension.rigidity_probe(rebit)

    def test_default_probe_solves_nothing(self, monkeypatch):
        # Rigid exactly when C*(V) is all of M_2.
        monkeypatch.setattr(extension, "multi_start", no_solve)
        for system, envelope in catalog.four_case_catalog():
            assert extension.rigidity_probe(system).all_identity is (envelope.dim == 4)

    def test_converged_non_identity_start_refutes_the_certificate(self, rebit, monkeypatch):
        solve = extension.multi_start

        def depolarized(problem, seeds):
            runs = solve(problem, seeds)
            d = problem.system.dim
            flat = maps.from_action(d, lambda b: np.trace(b) * np.eye(d) / d)
            return [(flat, report) for _, report in runs]

        monkeypatch.setattr(extension, "multi_start", depolarized)
        with pytest.raises(NumericalError,
                           match=r"lies [0-9.]+e[+-][0-9]+ from the identity although the "
                                 r"commutant is C I \(dimension 1, gap 1\.414e\+00\)"):
            extension.rigidity_probe(rebit, n_starts=2)

    def test_span_identity_not_rigid(self, pauli):
        system = catalog.trivial_system()
        report = extension.rigidity_probe(system, n_starts=6, seed=0)
        assert not report.all_identity
        assert report.max_pairwise_distance > 1e-2
        # Explicit witness family: psi_rho(B) = tr(rho B) I extends id on
        # span{I} for every state rho; distinct states give distinct maps.
        witnesses = []
        for rho in (np.diag([1.0, 0.0]), np.diag([0.0, 1.0])):
            psi = maps.from_action(2, lambda b, r=rho: np.trace(r @ b) * np.eye(2))
            assert maps.is_ucp(psi, 1e-12)
            assert linalg.frob(psi.apply(np.eye(2)) - np.eye(2)) <= 1e-12
            witnesses.append(psi)
        assert witnesses[0].distance(witnesses[1]) > 1.0
        assert witnesses[0].distance(maps.identity_map(2)) > 1.0


class TestExtendDiscrete:
    def test_identity_powers(self, rebit):
        powers = extension.extend_discrete(rebit, list(rebit.basis), 3)
        assert len(powers) == 4
        for phi in powers:
            assert phi.distance(maps.identity_map(2)) <= 1e-7

    def test_rotation_powers(self, rebit):
        theta = np.pi / 5
        rot = catalog.rebit_rotation(1.0)
        images = dynamics.subsystem_evolve_images(rot, theta)
        powers = extension.extend_discrete(rebit, images, 4)
        for k, phi in enumerate(powers):
            expected = dynamics.subsystem_evolve_images(rot, k * theta)
            for v, img in zip(rebit.basis, expected):
                assert linalg.frob(phi.apply(v) - img) <= (k + 1) * 1e-8

    def test_dissipative_powers_decay(self, rebit, pauli):
        delta = 1.0
        images = dynamics.subsystem_evolve_images(catalog.rebit_dissipative(delta), 1.0)
        powers = extension.extend_discrete(rebit, images, 2)
        for k, phi in enumerate(powers):
            np.testing.assert_allclose(phi.apply(pauli.X),
                                       np.exp(-k * delta) * pauli.X, atol=(k + 1) * 1e-8)

    def test_infeasible_raises(self, rebit, pauli):
        with pytest.raises(ExtensionInfeasible):
            extension.extend_discrete(
                rebit, [pauli.I, 2.0 * pauli.X, pauli.Z], 2,
                ExtensionOptions(max_iter=20_000))


# ---------------------------------------------------------------------------
# The matrix-free agreement projection against a dense least-squares reference
# ---------------------------------------------------------------------------


def _conjugated_real_symmetric(d, seed):
    u = linalg.random_unitary(d, np.random.default_rng(seed))
    return MatricialSystem.from_basis(
        [u @ b @ linalg.dagger(u) for b in catalog.real_symmetric_system(d).basis])


_PROJECTION_SYSTEMS = {
    "M2": lambda seed: catalog.qubit_system(),
    "rebit": lambda seed: catalog.rebit_system(),
    "span_I": lambda seed: catalog.trivial_system(),
    "diagonal": lambda seed: catalog.diagonal_system(),
    **{f"U real_symmetric_{d} U*": (lambda seed, d=d: _conjugated_real_symmetric(d, seed))
       for d in (2, 3, 4)},
}


def _hermitian_unit_directions(n):
    """An orthonormal basis of Hermitian n x n matrices under Re tr(a* b)."""
    out = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        out.append(e)
    for i in range(n):
        for j in range(i + 1, n):
            re = np.zeros((n, n), dtype=complex)
            re[i, j] = re[j, i] = 1.0 / np.sqrt(2.0)
            im = np.zeros((n, n), dtype=complex)
            im[i, j], im[j, i] = 1j / np.sqrt(2.0), -1j / np.sqrt(2.0)
            out += [re, im]
    return np.array(out)


@lru_cache(maxsize=None)
def _dense_agreement(name, seed):
    """The system, the unit directions, and the real matrix sending a Hermitian
    Choi matrix's coordinates to (Re, Im) of its images of the basis."""
    system = _PROJECTION_SYSTEMS[name](seed)
    d = system.dim
    directions = _hermitian_unit_directions(d * d)
    columns = []
    for e in directions:
        images = np.array([maps.SuperOp(d, e).apply(v) for v in system.basis])
        columns.append(np.concatenate([images.real.ravel(), images.imag.ravel()]))
    return system, directions, np.array(columns).T


class TestAgreementProjection:
    @settings(max_examples=60, deadline=None, database=None)
    @given(name=st.sampled_from(sorted(_PROJECTION_SYSTEMS)),
           unitary_seed=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
    def test_matches_dense_least_squares(self, name, unitary_seed, seed):
        system, directions, a_mat = _dense_agreement(name, unitary_seed)
        d = system.dim
        rng = np.random.default_rng(seed)
        targets = [linalg.random_hermitian(d, rng) for _ in system.basis]
        solver = extension._FeasibilitySolver(system, targets)
        c = linalg.random_hermitian(d * d, rng)
        pc = solver.project_affine(c)

        op = maps.SuperOp(d, pc)
        for v, t in zip(system.basis, targets):
            assert linalg.frob(op.apply(v) - t) <= 1e-10
        assert linalg.frob(solver.project_affine(pc) - pc) <= 1e-10

        coords = np.einsum("kij,ij->k", np.conj(directions), c).real
        stacked = np.array(targets)
        b = np.concatenate([stacked.real.ravel(), stacked.imag.ravel()])
        shift = np.linalg.lstsq(a_mat, a_mat @ coords - b, rcond=None)[0]
        reference = c - np.einsum("k,kij->ij", shift, directions)
        assert linalg.frob(pc - reference) <= 1e-9


# ---------------------------------------------------------------------------
# The solver returns the projection of its start point
# ---------------------------------------------------------------------------


class TestProjectionProperty:
    @settings(max_examples=25, deadline=None, database=None)
    @given(d=st.integers(2, 4), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_variational_inequality(self, d, data, seed):
        """X = proj(x0) onto the feasible set iff <x0 - X, Z - X> <= 0 for every
        feasible Z; a converged extension from another start is such a Z."""
        rank = data.draw(st.integers(1, d * d), label="kraus_rank")
        rng = np.random.default_rng(seed)
        system = _conjugated_real_symmetric(d, seed)
        phi = random_ucp_map(d, rng, n_kraus=rank)
        solver = extension._FeasibilitySolver(
            system, [phi.apply(v) for v in system.basis])
        # Problems without a positive-definite feasible point can plateau
        # (ROADMAP item 4); the budget keeps such draws cheap.
        opts = ExtensionOptions(max_iter=2000)
        start_x, start_z = (int(s) for s in rng.integers(0, 2**32 - 1, size=2))
        x0 = solver.start_points([start_x])[0]
        (x, report_x), (z, report_z) = solver.solve(opts, [start_x, start_z])
        assume(report_x.converged and report_z.converged)
        inner = float(np.vdot(x0 - x.choi, z.choi - x.choi).real)
        assert inner <= 1e-6 * (1.0 + linalg.frob(x0))


# ---------------------------------------------------------------------------
# The generator cone { C : P C P >= 0 }, P = I - omega omega*
# ---------------------------------------------------------------------------


class TestConeProjection:
    """Pi_K of the map cone (PSD, frame F = I) and of the generator cone
    ({C : PCP >= 0}, F F* = P), against a projector P built here."""

    @pytest.mark.parametrize("ccp", [False, True], ids=["psd", "ccp"])
    @settings(max_examples=40, deadline=None, database=None)
    @given(d=st.integers(2, 4), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1))
    def test_is_the_projection(self, ccp, d, scale, seed):
        system = catalog.real_symmetric_system(d)
        solver = extension._FeasibilitySolver(
            system, [np.zeros((d, d))] * len(system), ccp=ccp)
        rng = np.random.default_rng(seed)
        n = d * d
        unit = np.eye(d).reshape(n) / np.sqrt(d)
        # independent of maps.ccp_projector and of the solver's frame
        proj = np.eye(n) - np.outer(unit, unit) if ccp else np.eye(n)
        c = linalg.random_hermitian(n, rng, scale=scale)
        x = solver.project_cone(c)
        norm = linalg.frob(c)

        assert np.array_equal(x, linalg.dagger(x))
        assert np.linalg.eigvalsh(proj @ x @ proj)[0] >= -1e-12 * (1.0 + norm)
        assert linalg.frob((x - proj @ x @ proj) - (c - proj @ c @ proj)) <= 1e-12 * (1.0 + norm)
        assert linalg.frob(solver.project_cone(x) - x) <= 1e-12 * (1.0 + norm)
        if not ccp:  # through F = I, the cone point is the PSD clip up to roundoff
            w, u = np.linalg.eigh(c)
            clipped = (u * np.maximum(w, 0.0)) @ linalg.dagger(u)
            assert linalg.frob(x - clipped) <= 1e-14 * (1.0 + norm)
        # Variational inequality against cone points Y = H - PHP + P G G* P.
        for _ in range(4):
            h = linalg.random_hermitian(n, rng, scale=scale)
            g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            y = h - proj @ h @ proj + scale * proj @ g @ linalg.dagger(g) @ proj
            inner = float(np.vdot(c - x, y - x).real)
            assert inner <= 1e-10 * (1.0 + norm * norm)

    @pytest.mark.parametrize("ccp", [False, True], ids=["psd", "ccp"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_anti_hermitian_input_gives_a_cone_point(self, ccp, d):
        # eigh reads one triangle of F* C F; the form C + F (clipped - m) F*
        # subtracts the same m, so the anti-Hermitian part cancels.  The form
        # C - E diag(min(w, 0)) E* (E = F U) gives -4.4e-4 (1 + ||c||) here.
        system = catalog.real_symmetric_system(d)
        solver = extension._FeasibilitySolver(
            system, [np.zeros((d, d))] * len(system), ccp=ccp)
        rng = np.random.default_rng([d, ccp])
        n = d * d
        unit = np.eye(d).reshape(n) / np.sqrt(d)
        proj = np.eye(n) - np.outer(unit, unit) if ccp else np.eye(n)
        for _ in range(10):
            c = (linalg.random_hermitian(n, rng)
                 + 1e-3j * linalg.random_hermitian(n, rng))
            x = solver.project_cone(c)
            assert np.array_equal(x, linalg.dagger(x))
            assert np.linalg.eigvalsh(proj @ x @ proj)[0] >= -1e-12 * (1.0 + linalg.frob(c))


# ---------------------------------------------------------------------------
# Feasible problems once reported as not UCP
# ---------------------------------------------------------------------------


def _real_gksl_subsystems():
    """Real GKSL generators with 2 jumps on real_symmetric_3 and _4, drawn in
    that order as the shared_system benchmark draws its validate scenarios."""
    pool = np.random.default_rng([20220620, 3])
    subs = {}
    for d in (3, 4):
        a = pool.normal(size=(d, d))
        ham = 1j * (a - a.T) / 2.0
        jumps = [(pool.normal(size=(d, d)) / np.sqrt(d) + 0j, float(pool.uniform(0.2, 1.0)))
                 for _ in range(2)]
        gen = dynamics.gksl_generator(d, ham, jumps)
        system = catalog.real_symmetric_system(d)
        subs[d] = SubsystemGenerator.from_action(
            system, [gen.op.apply(v) for v in system.basis])
    return subs


def _unitary_mixture_images(n_unitaries):
    """Images on real_symmetric_3 of an equal mixture of random unitary
    conjugations: feasible by construction, with a low-rank Choi matrix."""
    rng = np.random.default_rng([3, n_unitaries, 0])
    unitaries = [linalg.random_unitary(3, rng) for _ in range(n_unitaries)]
    phi = maps.from_kraus(3, unitaries, weights=[1.0 / n_unitaries] * n_unitaries)
    system = catalog.real_symmetric_system(3)
    return system, [phi.apply(v) for v in system.basis]


class TestConvergedIsTheResidualCheck:
    @staticmethod
    def assert_residual_verdict(report, tol=FEASIBILITY_TOL):
        worst = max(report.cone_residual, report.affine_residual, report.restriction_error)
        assert report.converged == (worst <= tol)

    def test_amplitude_damping_samples(self, rebit):
        # The resolvent samples stop on the plateau rule with every residual
        # near 1e-11: they are feasible, and the verdict says so.
        gen = dynamics.gksl_generator(2, jumps=[(np.array([[0, 0], [1, 0]]), 1.0)])
        sub = SubsystemGenerator.from_action(rebit, [gen.op.apply(v) for v in rebit.basis])
        samples = [dynamics.subsystem_resolvent_images(sub, lam) for lam in (1.0, 4.0)]
        samples += [dynamics.subsystem_evolve_images(sub, t) for t in (0.5, 1.5)]
        for images in samples:
            _, report = extension.extend_ucp_map(ExtensionProblem.for_map(
                rebit, images, ExtensionOptions(max_iter=VALIDATE_MAX_ITER)))
            assert report.converged
            self.assert_residual_verdict(report)

    def test_transpose_map_infeasible(self, qubit):
        transpose = [v.T for v in qubit.basis]
        _, report = extension.extend_ucp_map(ExtensionProblem.for_map(
            qubit, transpose, ExtensionOptions(max_iter=3000)))
        assert not report.converged
        self.assert_residual_verdict(report)


class TestNewtonSolver:
    """The semismooth Newton-CG loop on the dual: its Jacobian, its budget and
    its stops."""

    @pytest.mark.parametrize("ccp", [False, True], ids=["psd", "ccp"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_jacobian_matches_finite_differences(self, d, ccp):
        system = catalog.real_symmetric_system(d)
        solver = extension._FeasibilitySolver(
            system, [np.zeros((d, d))] * len(system), ccp=ccp)
        rng = np.random.default_rng([d, ccp])
        n = d * d
        # Points away from eigenvalue ties and from 0, where Pi_K is smooth.
        while True:
            c = linalg.random_hermitian(n, rng)
            w = np.linalg.eigvalsh(solver.frame_h @ c @ solver.frame)
            if min(np.abs(w).min(), np.diff(w).min()) > 0.05:
                break
        defect = solver._jacobian_defect(solver._cone_point(c)[1])  # J - I
        for _ in range(3):
            h = linalg.random_hermitian(n, rng)
            t = 1e-6
            central = (solver.project_cone(c + t * h) - solver.project_cone(c - t * h)) / (2 * t)
            product = h + defect(h)
            assert linalg.frob(product - central) <= 1e-7 * linalg.frob(h)
            # Pi_K is a projection: J is symmetric with spectrum in [0, 1].
            g = linalg.random_hermitian(n, rng)
            jg = g + defect(g)
            assert np.vdot(g, product).real == pytest.approx(np.vdot(h, jg).real, abs=1e-10)
            assert 0.0 <= np.vdot(h, product).real <= np.vdot(h, h).real + 1e-12

    @settings(max_examples=20, deadline=None, database=None)
    @given(budget=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
           problem=st.sampled_from(["rotation", "dissipation", "transpose", "mixture"]))
    def test_iterations_never_exceed_the_budget(self, budget, seed, problem):
        rebit, qubit = catalog.rebit_system(), catalog.qubit_system()
        opts = ExtensionOptions(max_iter=budget, seed=seed)
        if problem == "rotation":
            prob = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0), opts)
        elif problem == "dissipation":
            prob = ExtensionProblem.for_generator(rebit, catalog.rebit_dissipative(1.0), opts)
        elif problem == "transpose":
            prob = ExtensionProblem.for_map(qubit, [v.T for v in qubit.basis], opts)
        else:
            prob = ExtensionProblem.for_map(*_unitary_mixture_images(3), opts)
        _, report = extension.multi_start(prob, [seed])[0]
        assert 1 <= report.iterations <= budget

    def test_infeasible_transpose_stops_on_the_plateau(self, qubit):
        # Far below the default budget: only the plateau rule can stop it.
        transpose = [v.T for v in qubit.basis]
        _, report = extension.extend_ucp_map(ExtensionProblem.for_map(qubit, transpose))
        assert not report.converged
        assert report.iterations <= 500 < ExtensionOptions().max_iter
        assert report.affine_residual > 0.1

    def test_resolvent_sample_on_real_symmetric_4(self):
        # The lambda = 4 sample of the shared_system validate: 960 evaluations
        # of the dual with L-BFGS, 28 with Newton-CG.
        sub = _real_gksl_subsystems()[4]
        images = dynamics.subsystem_resolvent_images(sub, 4.0)
        _, report = extension.extend_ucp_map(
            ExtensionProblem.for_map(sub.system, images, ExtensionOptions(max_iter=2500)))
        assert report.converged and report.iterations <= 100

    @pytest.mark.parametrize("omega_param, overflows",
                             [(1e150, False), (1e200, True), (1e300, True)])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_dual_stops_at_once(self, rebit, omega_param, overflows,
                                            monkeypatch):
        # At 1e300 the run once spent its whole 200 000-evaluation budget.  At
        # 1e150 the dual is finite and the run stops unconverged; beyond it the
        # dual overflows at the start and the solve raises.
        evaluations = []
        dual_point = extension._FeasibilitySolver._dual_point
        monkeypatch.setattr(extension._FeasibilitySolver, "_dual_point",
                            lambda *a: evaluations.append(1) or dual_point(*a))
        problem = ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(omega_param))
        if overflows:
            with pytest.raises(NumericalError, match="dual overflowed"):
                extension.multi_start(problem, [None])
        else:
            _, report = extension.multi_start(problem, [None])[0]
            assert not report.converged and report.iterations <= 2
        assert len(evaluations) <= 2


class TestNoFalseNotUcp:
    @pytest.mark.parametrize("d", [3, 4])
    def test_real_gksl_validates_within_small_budget(self, d):
        verdict = dynamics.validate_subsystem_semigroup(_real_gksl_subsystems()[d],
                                                        max_iter=2500)
        assert verdict.valid, verdict.failures()

    def test_two_unitary_mixture_within_small_budget(self):
        system, images = _unitary_mixture_images(2)
        psi, report = extension.extend_ucp_map(
            ExtensionProblem.for_map(system, images, ExtensionOptions(max_iter=2500)))
        assert report.converged
        assert maps.is_ucp(psi, 1e-8)

    @pytest.mark.xfail(strict=True, reason=(
        "undecided: the feasible set has no positive-definite point and the "
        "dual plateaus near 1e-6 (ROADMAP item 4, facial reduction)"))
    def test_three_unitary_mixture(self):
        system, images = _unitary_mixture_images(3)
        feasible, _ = extension.ucp_extension_feasible(system, images)
        assert feasible

    @pytest.mark.xfail(strict=True, reason=(
        "undecided: seeded starts of a feasible generator problem stop on the "
        "plateau with residuals 1e-6 to 5e-5 (ROADMAP item 4)"))
    def test_seeded_generator_starts_converge(self):
        # The deterministic start converges in 18 evaluations; seeds 1-5 stop
        # unconverged after 174 to 856.
        sub = _real_gksl_subsystems()[3]
        runs = extension.multi_start(ExtensionProblem.for_generator(sub.system, sub),
                                     [1, 2, 3, 4, 5])
        assert all(report.converged for _, report in runs)


# ---------------------------------------------------------------------------
# Uniqueness from the commutant: the pinching witness and ||G+ + G-||
# ---------------------------------------------------------------------------


class TestUniquenessCertificate:
    @settings(max_examples=30, deadline=None, database=None)
    @given(p=st.integers(1, 2), q=st.integers(1, 3), extra=st.integers(1, 3),
           seed=st.integers(0, 2**32 - 1))
    def test_direct_sum_pinching_witness(self, p, q, extra, seed):
        """V inside diag(M_p, M_q), conjugated: reducible, and its pinching
        witness is a UCP map other than the identity that fixes V."""
        d = p + q
        rng = np.random.default_rng(seed)
        u = linalg.random_unitary(d, rng)
        extra = min(extra, p * p + q * q - 1)  # block-diagonal Hermitians, less I
        basis = [np.eye(d)]
        for _ in range(extra):
            block = np.zeros((d, d), dtype=complex)
            block[:p, :p] = linalg.random_hermitian(p, rng)
            block[p:, p:] = linalg.random_hermitian(q, rng)
            basis.append(u @ block @ linalg.dagger(u))
        system = MatricialSystem.from_basis(basis)
        comm = systems.commutant(system)
        assert comm.decided and comm.dim >= 2
        witness = extension.rigidity_witness(system)
        assert maps.is_ucp(witness, 1e-10)
        for v in system.basis:
            assert linalg.frob(witness.apply(v) - v) <= 1e-10
        assert witness.distance(maps.identity_map(d)) > 1.0
        assert not extension.rigidity_probe(system).all_identity

    @settings(max_examples=12, deadline=None, database=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
    def test_inverse_witness_vanishes_on_rigid_systems(self, d, seed):
        """i[H, .] with H = U K U*, K imaginary Hermitian, preserves U V U* for
        V the real symmetric matrices; the group it generates is extended
        uniquely, so G+ = -G-."""
        system = _conjugated_real_symmetric(d, seed)
        u = linalg.random_unitary(d, np.random.default_rng(seed))
        a = np.random.default_rng([seed, 1]).normal(size=(d, d))
        ham = u @ (1j * (a - a.T)) @ linalg.dagger(u)
        full = dynamics.gksl_generator(d, hamiltonian=ham)
        sub = SubsystemGenerator.from_action(system, [full.op.apply(v) for v in system.basis])
        gen, report = extension.extend_group(ExtensionProblem.for_generator(system, sub))
        assert report.certificate.commutant_dim == 1
        assert report.certificate.inverse_witness <= 100.0 * FEASIBILITY_TOL
        assert gen.op.distance(full.op) <= 1e-6

    @settings(max_examples=12, deadline=None, database=None)
    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           rate=st.floats(1e-2, 1.0))
    def test_one_solve_decides_a_group(self, d, seed, rate):
        """On U V U*, V the real symmetric matrices, i[H, .] with H = U K U*,
        K imaginary Hermitian, generates a group; adding one jump U R U*, R
        real, keeps V invariant but makes the dynamics dissipative.  Either
        verdict follows from the one +A solve."""
        system = _conjugated_real_symmetric(d, seed)
        u = linalg.random_unitary(d, np.random.default_rng(seed))
        rng = np.random.default_rng([seed, 2])
        a = rng.normal(size=(d, d))
        ham = u @ (1j * (a - a.T)) @ linalg.dagger(u)
        jump = u @ (rng.normal(size=(d, d)) / np.sqrt(d)) @ linalg.dagger(u)

        def group_problem(jumps):
            full = dynamics.gksl_generator(d, hamiltonian=ham, jumps=jumps)
            sub = SubsystemGenerator.from_action(
                system, [full.op.apply(v) for v in system.basis])
            return ExtensionProblem.for_generator(system, sub)

        with pytest.MonkeyPatch.context() as mp:
            calls = counting_multi_start(mp)
            extension.extend_group(group_problem([]))
            assert calls == [[None]]
            calls.clear()
            with pytest.raises(GroupExtensionError, match=r"-G\+ is not ccp"):
                extension.extend_group(group_problem([(jump, rate)]))
            assert calls == [[None]]

    @pytest.mark.parametrize("name", ["span_I", "diagonal", "rebit", "M2",
                                      "real_symmetric_3", "real_symmetric_4"])
    def test_certificate_agrees_with_randomized_starts(self, name):
        system = serialize.system_from_json(name)
        rigid = systems.commutant(system).dim == 1
        report = extension.rigidity_probe(system, n_starts=4, seed=0)
        assert report.all_identity is rigid
        assert report.n_converged == report.n_runs == 4
        if rigid:
            assert report.max_distance_to_identity <= report.identity_threshold
        else:
            assert report.max_pairwise_distance > 1e-2

    def test_near_reducible_system_gives_no_rigidity_verdict(self):
        with pytest.raises(NumericalError, match="rigidity undecided"):
            extension.rigidity_probe(near_reducible_system(1e-9))
