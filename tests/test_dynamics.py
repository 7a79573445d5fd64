import numpy as np
import pytest

from conftest import random_gksl, random_involution_lift
from ucpext import catalog, dynamics, linalg, maps
from ucpext.dynamics import SubsystemGenerator
from ucpext.errors import InputError, NumericalError


def pauli_coefficient(result, direction):
    return complex(np.trace(np.conj(direction.T) @ result) / 2.0)


class TestGksl:
    def test_zero_generator(self):
        g = dynamics.gksl_generator(2)
        assert linalg.frob(g.op.choi) == 0.0
        assert g.certificates.certified

    def test_rotation_hamiltonian(self, pauli):
        g = dynamics.gksl_generator(2, hamiltonian=0.5 * 1.3 * pauli.Y)
        np.testing.assert_allclose(g.op.apply(pauli.X), 1.3 * pauli.Z, atol=1e-14)
        np.testing.assert_allclose(g.op.apply(pauli.Z), -1.3 * pauli.X, atol=1e-14)
        np.testing.assert_allclose(g.op.apply(pauli.Y), np.zeros((2, 2)), atol=1e-14)

    def test_dissipative_jumps(self, pauli):
        delta = 0.7
        g = dynamics.gksl_generator(2, jumps=[(pauli.X, delta / 2), (pauli.Z, delta / 2)])
        np.testing.assert_allclose(g.op.apply(pauli.Y), -2 * delta * pauli.Y, atol=1e-14)
        np.testing.assert_allclose(g.op.apply(np.eye(2)), np.zeros((2, 2)), atol=1e-15)

    def test_negative_rate_rejected(self, pauli):
        with pytest.raises(InputError):
            dynamics.gksl_generator(2, jumps=[(pauli.X, -0.1)])

    def test_certificates_always_recomputed(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            g = random_gksl(int(rng.integers(2, 5)), rng)
            assert g.certificates.certified


class TestConditionalCompletePositivity:
    def test_zero_map(self):
        assert dynamics.is_conditionally_completely_positive(maps.zero_map(3))

    def test_gksl_is_ccp(self):
        assert dynamics.is_conditionally_completely_positive(catalog.g1(0.4).op)

    def test_negated_identity(self):
        # B -> -B is conditionally positive (its semigroup e^{-t} id is CP);
        # it fails the full generator certificate through the unital kernel,
        # and its semigroup is not unital.
        minus_id = -1.0 * maps.identity_map(2)
        assert dynamics.is_conditionally_completely_positive(minus_id)
        gen = dynamics.certify(minus_id)
        assert not gen.certificates.unital_kernel
        assert not maps.is_unital(dynamics.evolve(gen, 0.3))

    def test_group_certificate(self):
        # A Hamiltonian generator is ccp with its negative; dissipation is not.
        assert dynamics.has_group_certificate(catalog.rotation_extension_generator(1.0))
        assert not dynamics.has_group_certificate(catalog.g1(1.0))

    def test_involution_lift_is_never_ccp(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            gen, _ = random_involution_lift(int(rng.integers(2, 5)), rng)
            assert not gen.certificates.ccp
            assert gen.certificates.unital_kernel

    def test_small_time_cross_validation(self):
        # The Choi-level test must agree with the small-t exponential oracle,
        # including on transpose-generator perturbations of GKSL generators.
        rng = np.random.default_rng(2)
        t_small = 1e-4
        omega_dir = {}
        for trial in range(24):
            d = int(rng.choice([2, 3, 4]))
            g = random_gksl(d, rng)
            if trial % 2 == 0:
                gen = g
            else:
                pert = maps.transpose_map(d) - maps.identity_map(d)
                if d not in omega_dir:
                    v = maps.maximally_entangled_vector(d)
                    omega_dir[d] = np.eye(d * d) - np.outer(v, np.conj(v))
                proj = omega_dir[d]
                compressed = proj @ linalg.hermitian_part(g.op.choi) @ proj
                lam_max = float(np.linalg.eigvalsh(compressed)[-1])
                # scale the ccp part down so the perturbation's compressed
                # negativity dominates the oracle threshold
                theta = min(1.0, 0.25 / max(lam_max, 1e-12),
                            1.0 / linalg.frob(g.op.transfer))
                gen = dynamics.certify(theta * g.op + 0.5 * pert)
            norm = linalg.frob(gen.op.transfer)
            min_eig = float(np.linalg.eigvalsh(
                linalg.hermitian_part(dynamics.evolve(gen, t_small).choi))[0])
            oracle_says_ccp = min_eig >= -10.0 * t_small**2 * norm**2
            assert oracle_says_ccp == dynamics.is_conditionally_completely_positive(gen.op)


class TestEvolve:
    def test_time_zero(self):
        g = catalog.g1(1.0)
        assert dynamics.evolve(g, 0.0).distance(maps.identity_map(2)) <= 1e-14

    def test_rotation_coordinates(self, pauli):
        omega, t = 1.7, 0.9
        g = catalog.rotation_extension_generator(omega)
        b, c = 0.8, -0.4
        result = dynamics.evolve(g, t).apply(b * pauli.X + c * pauli.Z)
        expect = ((b * np.cos(omega * t) - c * np.sin(omega * t)) * pauli.X
                  + (b * np.sin(omega * t) + c * np.cos(omega * t)) * pauli.Z)
        np.testing.assert_allclose(result, expect, atol=1e-12)

    def test_dissipative_decay(self, pauli):
        delta, t = 1.3, 0.6
        g = catalog.g1(delta)
        for direction in (pauli.X, pauli.Z):
            result = dynamics.evolve(g, t).apply(direction)
            np.testing.assert_allclose(result, np.exp(-delta * t) * direction,
                                       atol=1e-12)

    def test_negative_time_requires_group(self):
        with pytest.raises(InputError):
            dynamics.evolve(catalog.g1(1.0), -0.1)
        g = catalog.rotation_extension_generator(1.0)
        back = dynamics.evolve(g, -0.5)
        assert maps.is_ucp(back)

    def test_certified_evolution_is_ucp(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            g = random_gksl(int(rng.integers(2, 5)), rng)
            for t in (0.1, 1.0, 10.0):
                assert maps.is_ucp(dynamics.evolve(g, t), 1e-8)

    def test_semigroup_law(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            g = random_gksl(int(rng.integers(2, 5)), rng)
            s, t = rng.uniform(0.0, 5.0, size=2)
            lhs = dynamics.evolve(g, s).compose(dynamics.evolve(g, t))
            assert lhs.distance(dynamics.evolve(g, s + t)) <= 1e-8


class TestResolvent:
    def test_zero_generator(self):
        g = dynamics.gksl_generator(2)
        r = dynamics.resolvent(g, 2.0)
        assert (2.0 * r).distance(maps.identity_map(2)) <= 1e-13

    def test_g1_scalar_formula(self, pauli):
        delta, lam = 1.0, 1.5
        g = catalog.g1(delta)
        scaled = lam * dynamics.resolvent(g, lam)
        np.testing.assert_allclose(scaled.apply(pauli.X),
                                   lam / (lam + delta) * pauli.X, atol=1e-12)

    def test_rotation_two_by_two_formula(self, pauli):
        omega, lam = 1.0, 0.8
        g = catalog.rotation_extension_generator(omega)
        scaled = lam * dynamics.resolvent(g, lam)
        # On (b, c) coordinates: lam/(lam^2+w^2) [[lam, -w], [w, lam]].
        factor = lam / (lam**2 + omega**2)
        img_x = scaled.apply(pauli.X)
        np.testing.assert_allclose(pauli_coefficient(img_x, pauli.X), factor * lam,
                                   atol=1e-12)
        np.testing.assert_allclose(pauli_coefficient(img_x, pauli.Z), factor * omega,
                                   atol=1e-12)

    def test_singular_resolvent_raises(self):
        g = catalog.g1(1.0)
        with pytest.raises(NumericalError):
            dynamics.resolvent(g, 0.0)  # 0 is in the spectrum

    def test_scaled_resolvent_is_ucp(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            g = random_gksl(int(rng.integers(2, 5)), rng)
            for lam in (0.1, 1.0, 10.0):
                assert maps.is_ucp(float(lam) * dynamics.resolvent(g, lam), 1e-8)

    def test_resolvent_limit(self):
        ident = maps.identity_map(2)
        for g in (catalog.g1(1.0), catalog.g2(1.0),
                  catalog.rotation_extension_generator(1.0)):
            norm = linalg.frob(g.op.transfer)
            previous = np.inf
            for lam in (1.0, 10.0, 100.0, 1000.0):
                dist = (float(lam) * dynamics.resolvent(g, lam)).distance(ident)
                assert dist <= previous + 1e-15
                assert dist <= 2.0 * norm / lam
                previous = dist


class TestIdentitySuite:
    def test_zero_generator_exact(self):
        g = dynamics.gksl_generator(2)
        assert dynamics.hilbert_identity_residual(g, 1.0, 2.0) <= 1e-15

    def test_equal_parameters_rejected(self):
        with pytest.raises(InputError):
            dynamics.hilbert_identity_residual(catalog.g1(1.0), 1.0, 1.0)

    @pytest.mark.parametrize("gen_factory,lam,mu", [
        (lambda: catalog.g1(1.0), 1.0, 3.0),
        (lambda: catalog.rotation_extension_generator(1.0), 0.5, 2.5),
    ])
    def test_named_examples(self, gen_factory, lam, mu):
        assert dynamics.hilbert_identity_residual(gen_factory(), lam, mu) <= 1e-10

    def test_grid_for_catalog_generators(self):
        grid = np.linspace(0.5, 4.0, 5)
        for g in (catalog.g1(1.0), catalog.g2(1.0),
                  catalog.rotation_extension_generator(1.0)):
            for lam in grid:
                for mu in grid:
                    if lam != mu:
                        assert dynamics.hilbert_identity_residual(g, lam, mu) <= 1e-9

    def test_laplace_zero_generator_closed_form(self):
        g = dynamics.gksl_generator(2)
        lam, horizon = 0.9, 10.0
        approx, bound = dynamics.laplace_resolvent(g, lam, horizon=horizon, panels=100)
        expect = (1.0 - np.exp(-lam * horizon)) / lam * maps.identity_map(2)
        assert approx.distance(expect) <= 1e-10
        assert bound == pytest.approx(np.exp(-lam * horizon) / lam)

    @pytest.mark.parametrize("gen_factory", [
        lambda: catalog.g1(1.0),
        lambda: catalog.rotation_extension_generator(1.0),
    ])
    def test_laplace_matches_resolvent(self, gen_factory):
        g = gen_factory()
        approx, _ = dynamics.laplace_resolvent(g, 1.0, horizon=40.0, panels=400)
        assert approx.distance(dynamics.resolvent(g, 1.0)) <= 1e-6


class TestSpectralBound:
    def test_zero_generator(self):
        assert dynamics.spectral_bound(dynamics.gksl_generator(2)) == pytest.approx(0.0)

    def test_g1_spectrum(self):
        delta = 0.8
        g = catalog.g1(delta)
        eigs = np.sort(np.linalg.eigvals(g.op.transfer).real)
        np.testing.assert_allclose(eigs, [-2 * delta, -delta, -delta, 0.0], atol=1e-12)
        assert abs(dynamics.spectral_bound(g)) <= 1e-8

    def test_rotation_spectrum(self):
        omega = 1.4
        g = catalog.rotation_extension_generator(omega)
        eigs = np.linalg.eigvals(g.op.transfer)
        imag = np.sort(eigs.imag)
        np.testing.assert_allclose(imag, [-omega, 0.0, 0.0, omega], atol=1e-12)
        assert abs(dynamics.spectral_bound(g)) <= 1e-8

    def test_no_second_unital_kernel_check(self):
        # A(I) = 1e-9 I passes certify at tol 1e-8; spectral_bound reports the
        # spectrum and leaves the unital kernel to that certificate.
        op = maps.from_action(2, lambda b: 1e-9 * np.trace(b) / 2.0 * np.eye(2))
        g = dynamics.certify(op)
        assert g.certificates.unital_kernel
        assert dynamics.spectral_bound(g) == pytest.approx(1e-9, rel=1e-6)

    def test_kernel_eigenvector(self):
        rng = np.random.default_rng(6)
        g = random_gksl(3, rng)
        vec_id = np.eye(3, dtype=complex).reshape(-1)
        assert np.linalg.norm(g.op.transfer @ vec_id) <= 1e-12
        assert abs(dynamics.spectral_bound(g)) <= 1e-8


class TestArendtChernoffKato:
    def equivalences(self, gen, tol=1e-7):
        c2 = gen.certificates.certified
        c1 = all(maps.is_ucp(dynamics.evolve(gen, t), tol) for t in (0.1, 1.0, 10.0))
        c3 = all(maps.is_ucp(float(lam) * dynamics.resolvent(gen, lam), tol)
                 for lam in (0.1, 1.0, 10.0))
        return c1, c2, c3

    def test_suite_agrees(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            g = random_gksl(int(rng.choice([2, 3, 4])), rng)
            assert self.equivalences(g) == (True, True, True)
        for _ in range(8):
            g, _ = random_involution_lift(int(rng.choice([2, 3, 4])), rng)
            assert self.equivalences(g) == (False, False, False)


class TestSubsystemGenerator:
    def test_action_outside_span_rejected(self, rebit, pauli):
        with pytest.raises(InputError):
            SubsystemGenerator.from_action(rebit, [np.zeros((2, 2)), pauli.Y, pauli.X])

    def test_unit_must_be_annihilated(self, rebit, pauli):
        with pytest.raises(InputError):
            SubsystemGenerator.from_action(rebit, [pauli.X, pauli.Z, pauli.X])

    def test_non_real_coordinates_rejected(self, rebit, pauli):
        with pytest.raises(InputError):
            SubsystemGenerator.from_action(
                rebit, [np.zeros((2, 2)), 1j * pauli.X, pauli.Z])

    def test_coordinate_action_matches(self, pauli):
        sub = catalog.rebit_rotation(1.0)
        np.testing.assert_allclose(sub.apply(pauli.X), pauli.Z, atol=1e-12)
        np.testing.assert_allclose(sub.apply(pauli.Z), -pauli.X, atol=1e-12)

    def test_resolvent_images(self, pauli):
        sub = catalog.rebit_dissipative(1.0)
        images = dynamics.subsystem_resolvent_images(sub, 2.0)
        np.testing.assert_allclose(images[1], 2.0 / 3.0 * pauli.X, atol=1e-12)

    def test_evolve_images(self, pauli):
        sub = catalog.rebit_rotation(1.0)
        images = dynamics.subsystem_evolve_images(sub, np.pi / 2)
        np.testing.assert_allclose(images[1], pauli.Z, atol=1e-12)


class TestValidation:
    def test_rotation_valid(self):
        report = dynamics.validate_subsystem_semigroup(catalog.rebit_rotation(1.0))
        assert report.valid
        assert all(c["feasible"] for c in report.checks)

    def test_dissipative_valid(self):
        report = dynamics.validate_subsystem_semigroup(catalog.rebit_dissipative(1.0))
        assert report.valid

    def test_growth_invalid(self, rebit, pauli):
        # X-coordinate grows like e^{Delta t}: the semigroup leaves the unit
        # ball, so no resolvent or evolution sample extends to a UCP map.
        grow = SubsystemGenerator.from_action(
            rebit, [np.zeros((2, 2)), 1.0 * pauli.X, -1.0 * pauli.Z])
        report = dynamics.validate_subsystem_semigroup(grow)
        assert not report.valid
        assert report.failures()
        assert report.message == "not a UCP subsystem semigroup"

    @pytest.mark.parametrize("samples", [
        {"sample_ts": (-1.0,)}, {"sample_lambdas": (0.0,)}, {"sample_lambdas": (-1.0,)},
        {"sample_ts": (0.5, -0.1), "sample_lambdas": (1.0,)}])
    def test_samples_outside_the_semigroup_rejected(self, monkeypatch, samples):
        from ucpext import extension

        def no_solve(*args, **kwargs):
            raise AssertionError("no sample may be solved")

        monkeypatch.setattr(extension, "ucp_extension_feasible", no_solve)
        with pytest.raises(InputError, match="samples must lie in the semigroup"):
            dynamics.validate_subsystem_semigroup(catalog.rebit_rotation(1.0), **samples)

    def test_empty_sample_set_rejected(self, monkeypatch):
        from ucpext import extension

        def no_solve(*args, **kwargs):
            raise AssertionError("no sample may be solved")

        monkeypatch.setattr(extension, "ucp_extension_feasible", no_solve)
        with pytest.raises(InputError, match="no samples"):
            dynamics.validate_subsystem_semigroup(
                catalog.rebit_rotation(1.0), sample_ts=(), sample_lambdas=())

    def test_sample_order_and_singular_resolvent(self, rebit, pauli):
        # The coordinate action has eigenvalue 1, so lam = 1 is a singular
        # resolvent sample: recorded as a failed check, and the loop goes on.
        grow = SubsystemGenerator.from_action(
            rebit, [np.zeros((2, 2)), 1.0 * pauli.X, -1.0 * pauli.Z])
        report = dynamics.validate_subsystem_semigroup(
            grow, sample_ts=(0.5,), sample_lambdas=(1.0, 4.0), max_iter=200)
        assert [(c["kind"], c["parameter"]) for c in report.checks] == [
            ("resolvent", 1.0), ("resolvent", 4.0), ("evolution", 0.5)]
        singular = report.checks[0]
        assert singular["feasible"] is False and singular["residuals"] is None
        assert "singular" in singular["error"]
        assert all("error" not in c for c in report.checks[1:])
        assert not report.valid

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_evolution_sample_is_no_verdict(self, monkeypatch):
        # exp(t A) is NaN at t = 1e100: no evidence either way, so no report.
        from ucpext import extension

        solved = []
        feasible = extension.ucp_extension_feasible
        monkeypatch.setattr(extension, "ucp_extension_feasible",
                            lambda *a, **k: solved.append(1) or feasible(*a, **k))
        with pytest.raises(NumericalError, match="overflowed"):
            dynamics.validate_subsystem_semigroup(
                catalog.rebit_dissipative(1.0), sample_ts=(0.5, 1e100))
        assert len(solved) == 3  # the two resolvent samples and t = 0.5
