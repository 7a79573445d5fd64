import numpy as np
import pytest

from ucpext import catalog, dynamics, linalg
from ucpext.errors import InputError
from ucpext.systems import contains


class TestPauliBasis:
    def test_squares(self, pauli):
        for m in (pauli.X, pauli.Y, pauli.Z):
            np.testing.assert_array_equal(m @ m, pauli.I)

    def test_cyclic_products(self, pauli):
        np.testing.assert_array_equal(pauli.X @ pauli.Y, 1j * pauli.Z)
        np.testing.assert_array_equal(pauli.Y @ pauli.Z, 1j * pauli.X)
        np.testing.assert_array_equal(pauli.Z @ pauli.X, 1j * pauli.Y)

    def test_traceless(self, pauli):
        for m in (pauli.X, pauli.Y, pauli.Z):
            assert np.trace(m) == 0


class TestSystems:
    def test_rebit(self, rebit, pauli):
        assert len(rebit) == 3
        assert not contains(rebit, pauli.Y)
        assert contains(rebit, 0.3 * pauli.I - 1.2 * pauli.X + 0.5 * pauli.Z)

    def test_four_cases(self):
        cases = catalog.four_case_catalog()
        assert [len(s) for s, _ in cases] == [1, 2, 3, 4]
        envelopes = [e for _, e in cases]
        assert [(e.dim, e.commutative) for e in envelopes] == [
            (1, True), (2, True), (4, False), (4, False)]
        assert envelopes[2].name == "M2"

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_real_symmetric_system(self, d):
        system = catalog.real_symmetric_system(d)
        assert len(system) == d * (d + 1) // 2
        sym = np.arange(d * d, dtype=float).reshape(d, d)
        sym = sym + sym.T
        assert contains(system, sym)
        if d >= 2:
            skew = np.zeros((d, d), dtype=complex)
            skew[0, 1], skew[1, 0] = -1j, 1j
            assert not contains(system, skew)

    @pytest.mark.parametrize("build", [
        catalog.trivial_system, catalog.diagonal_system, catalog.rebit_system,
        catalog.qubit_system, lambda: catalog.real_symmetric_system(3)])
    def test_built_once_and_read_only(self, build):
        system = build()
        assert build() is system
        for array in (*system.basis, system.onb, system.onb_coeffs):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 7.0

    def test_rebit_dynamics_share_the_rebit(self):
        assert catalog.rebit_rotation(1.0).system is catalog.rebit_system()
        assert catalog.rebit_dissipative(2.0).system is catalog.rebit_system()

    def test_real_symmetric_two_spans_rebit(self, rebit):
        system = catalog.real_symmetric_system(2)
        for b in rebit.basis:
            assert contains(system, b)


class TestRotation:
    def test_action(self, pauli):
        sub = catalog.rebit_rotation(2.0)
        np.testing.assert_allclose(sub.action[0], np.zeros((2, 2)))
        np.testing.assert_allclose(sub.action[1], 2.0 * pauli.Z)
        np.testing.assert_allclose(sub.action[2], -2.0 * pauli.X)

    def test_zero_speed(self):
        sub = catalog.rebit_rotation(0.0)
        assert all(linalg.frob(a) == 0.0 for a in sub.action)

    def test_evolution_coefficients(self, pauli):
        omega, t = 1.0, 0.4
        sub = catalog.rebit_rotation(omega)
        b, c = 1.0, -2.0
        images = dynamics.subsystem_evolve_images(sub, t)
        moved = b * images[1] + c * images[2]
        expect = ((b * np.cos(omega * t) - c * np.sin(omega * t)) * pauli.X
                  + (b * np.sin(omega * t) + c * np.cos(omega * t)) * pauli.Z)
        np.testing.assert_allclose(moved, expect, atol=1e-12)

    def test_extension_generator_preserves_rebit(self, rebit, pauli):
        omega = 1.0
        gen = catalog.rotation_extension_generator(omega)
        for wt in (0.0, np.pi / 4, np.pi / 2, np.pi):
            step = dynamics.evolve(gen, wt / omega)
            for v in rebit.basis:
                image = step.apply(v)
                assert contains(rebit, image, 1e-10)
            rotated = step.apply(pauli.X)
            expect = np.cos(wt) * pauli.X + np.sin(wt) * pauli.Z
            np.testing.assert_allclose(rotated, expect, atol=1e-12)


class TestDissipative:
    def test_action(self, pauli):
        sub = catalog.rebit_dissipative(0.5)
        np.testing.assert_allclose(sub.action[1], -0.5 * pauli.X)
        np.testing.assert_allclose(sub.action[2], -0.5 * pauli.Z)

    def test_nonpositive_delta_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(InputError):
                catalog.rebit_dissipative(bad)
            with pytest.raises(InputError):
                catalog.g1(bad)
            with pytest.raises(InputError):
                catalog.g2(bad)

    def test_time_zero_is_identity(self, rebit):
        images = dynamics.subsystem_evolve_images(catalog.rebit_dissipative(1.0), 0.0)
        for v, img in zip(rebit.basis, images):
            np.testing.assert_allclose(img, v, atol=1e-14)

    def test_validates_as_ucp_semigroup(self):
        report = dynamics.validate_subsystem_semigroup(catalog.rebit_dissipative(1.0))
        assert report.valid


class TestNamedGenerators:
    def test_g1_exact_values(self, pauli):
        delta = 1.0
        gen = catalog.g1(delta)
        np.testing.assert_array_equal(gen.op.apply(pauli.Y), -2.0 * delta * pauli.Y)
        np.testing.assert_array_equal(gen.op.apply(pauli.X), -delta * pauli.X)
        np.testing.assert_array_equal(gen.op.apply(pauli.Z), -delta * pauli.Z)

    def test_g2_exact_values(self, pauli):
        delta = 1.0
        gen = catalog.g2(delta)
        np.testing.assert_array_equal(gen.op.apply(pauli.Y), -delta * pauli.Y)
        np.testing.assert_array_equal(gen.op.apply(pauli.X), -delta * pauli.X)
        np.testing.assert_array_equal(gen.op.apply(pauli.Z), -delta * pauli.Z)

    def test_both_restrict_to_dissipation_exactly(self, rebit):
        delta = 1.0
        diss = catalog.rebit_dissipative(delta)
        for gen in (catalog.g1(delta), catalog.g2(delta)):
            for v, img in zip(rebit.basis, diss.action):
                np.testing.assert_array_equal(gen.op.apply(v), img)

    def test_alternative_prefactor_breaks_restriction(self, pauli):
        gen = catalog.g2(1.0, prefactor="paper")
        np.testing.assert_allclose(gen.op.apply(pauli.X), -(16.0 / 9.0) * pauli.X,
                                   atol=1e-14)
        np.testing.assert_allclose(gen.op.apply(pauli.Y), -(16.0 / 9.0) * pauli.Y,
                                   atol=1e-14)

    def test_unknown_prefactor_rejected(self):
        with pytest.raises(InputError):
            catalog.g2(1.0, prefactor="other")

    def test_evolutions_differ_quantitatively(self):
        delta, t = 1.0, 1.0
        diff = dynamics.evolve(catalog.g1(delta), t).distance(
            dynamics.evolve(catalog.g2(delta), t))
        assert diff > 0.1

    def test_difference_is_on_y_only(self, pauli):
        delta, t = 1.0, 1.0
        e1 = dynamics.evolve(catalog.g1(delta), t)
        e2 = dynamics.evolve(catalog.g2(delta), t)
        np.testing.assert_allclose(e1.apply(pauli.Y), np.exp(-2 * delta * t) * pauli.Y,
                                   atol=1e-12)
        np.testing.assert_allclose(e2.apply(pauli.Y), np.exp(-delta * t) * pauli.Y,
                                   atol=1e-12)
        for v in (pauli.I, pauli.X, pauli.Z):
            np.testing.assert_allclose(e1.apply(v), e2.apply(v), atol=1e-12)

    def test_certificates(self):
        for gen in (catalog.g1(1.0), catalog.g2(1.0),
                    catalog.rotation_extension_generator(1.0)):
            assert gen.certificates.certified
