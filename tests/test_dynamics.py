import re

import numpy as np
import pytest

from conftest import diagonal_damping, random_gksl, random_involution_lift
from ucpext import catalog, dynamics, extension, linalg, maps, systems
from ucpext.dynamics import SubsystemGenerator
from ucpext.errors import InputError, NumericalError, Undecided
from ucpext.extension import ExtensionProblem
from ucpext.tolerances import VALIDATE_MAX_ITER


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

    @staticmethod
    def per_unit(d, ham, jumps):
        """The reference: the GKSL action applied one matrix unit at a time
        (``maps.from_action``), then certified."""
        terms = [(v, np.conj(v).T, rate) for v, rate in jumps]

        def action(b):
            out = 1j * (ham @ b - b @ ham)
            for v, vd, rate in terms:
                vv = vd @ v
                out = out + rate * (vd @ b @ v - 0.5 * (vv @ b + b @ vv))
            return out

        return dynamics.certify(maps.from_action(d, action))

    @pytest.mark.parametrize("with_h", [False, True])
    @pytest.mark.parametrize("jump_count", ["none", "one", "d^2"])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_pass_is_bit_identical_to_the_per_unit_form(self, d, jump_count, with_h):
        rng = np.random.default_rng(10 * d + len(jump_count) + with_h)
        n = {"none": 0, "one": 1, "d^2": d * d}[jump_count]
        jumps = [(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),
                  float(rng.uniform(0.1, 2.0))) for _ in range(n)]
        ham = linalg.random_hermitian(d, rng) if with_h else None
        gen = dynamics.gksl_generator(d, ham, jumps)
        ref = self.per_unit(d, np.zeros((d, d)) if ham is None else linalg.ensure_hermitian(ham),
                            jumps)
        assert np.array_equal(gen.op.choi, ref.op.choi)
        assert gen.certificates == ref.certificates
        assert gen.ccp_eigenvalue == ref.ccp_eigenvalue

    def test_an_overflowing_generator_is_a_numerical_error(self, pauli):
        # (2X)* E (2X) at rate 1e308 overflows the images of the units.
        with pytest.raises(NumericalError, match="the GKSL generator overflows"):
            dynamics.gksl_generator(2, jumps=[(2 * pauli.X, 1e308)])
        # Finite images whose Choi norm overflows: refused before any spectrum.
        with pytest.raises(NumericalError, match="map 0 is too large to certify"):
            dynamics.gksl_generator(2, jumps=[(pauli.X, 1e308)])
        # A finite Hermitian H whose Hermitian part overflows.
        with pytest.raises(NumericalError, match="Hermitian part of hamiltonian overflows"):
            dynamics.gksl_generator(2, hamiltonian=np.diag([1e308, -1e308]))

    @pytest.mark.parametrize("rate", [float("nan"), float("inf"), -float("inf")])
    def test_a_rate_that_is_not_finite_is_invalid_input(self, pauli, rate):
        with pytest.raises(InputError, match="jump rate 1 is not finite"):
            dynamics.gksl_generator(2, jumps=[(pauli.Z, 0.5), (pauli.X, rate)])


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


class TestStackedCertification:
    @staticmethod
    def _per_map(op, tol):
        """The certificates computed map by map, with a P built here: the
        Choi-level tests of the module docstring."""
        n = op.d * op.d
        omega = maps.maximally_entangled_vector(op.d)
        proj = np.eye(n) - np.outer(omega, np.conj(omega))
        hermitian = maps.is_hermiticity_preserving(op, tol)
        min_eig = (float(np.linalg.eigvalsh(proj @ linalg.hermitian_part(op.choi) @ proj)[0])
                   if hermitian else -np.inf)
        certs = dynamics.GeneratorCertificates(
            hermiticity_preserving=hermitian,
            unital_kernel=linalg.frob(op.apply(np.eye(op.d))) <= tol,
            ccp=hermitian and min_eig >= -tol * (1.0 + linalg.frob(op.choi)))
        return certs, min_eig

    @staticmethod
    def _maps():
        """demo-rebit's eight dissipative runs, -G+ of the rebit rotation, a map
        with A(I) = 0 that does not preserve hermiticity, and the identity,
        which is ccp and preserves hermiticity but has A(I) = I."""
        rebit = catalog.rebit_system()
        runs = extension.multi_start(
            ExtensionProblem.for_generator(rebit, catalog.rebit_dissipative(1.0)), range(8))
        gen_plus, _ = extension.extend_generator(
            ExtensionProblem.for_generator(rebit, catalog.rebit_rotation(1.0)))
        phase = maps.from_action(2, lambda b: 1j * (b - 0.5 * np.trace(b) * np.eye(2)))
        return [op for op, _ in runs] + [-gen_plus.op, phase, maps.identity_map(2)]

    @pytest.mark.parametrize("tol", [1e-8, 1e-6])
    def test_each_map_gets_its_own_certificate(self, tol):
        ops = self._maps()
        stacked = dynamics.certify_each(ops, tol)
        assert [gen.op for gen in stacked] == ops
        verdicts = []
        for op, gen in zip(ops, stacked):
            certs, min_eig = self._per_map(op, tol)
            alone = dynamics.certify(op, tol)
            assert gen.certificates == alone.certificates == certs
            assert gen.ccp_eigenvalue == alone.ccp_eigenvalue  # bit for bit
            assert np.array_equal(gen.ccp_eigenvalue, min_eig)
            verdicts.append((certs.hermiticity_preserving, certs.unital_kernel, certs.ccp))
        assert verdicts[:9] == [(True, True, True)] * 9  # the runs and -G+
        assert verdicts[9:] == [(False, True, False), (True, False, True)]
        assert stacked[9].ccp_eigenvalue == -np.inf

    def test_a_stack_of_one_is_certify(self):
        op = catalog.g1(0.7).op
        (gen,) = dynamics.certify_each([op])
        assert gen == dynamics.certify(op)
        assert dynamics.certify_each([]) == []

    def test_maps_on_different_algebras_are_refused(self):
        with pytest.raises(InputError, match=r"maps on one M_d, got d = \[2, 3\]"):
            dynamics.certify_each([maps.identity_map(2), maps.identity_map(3)])

    def test_the_projector_is_built_once_and_read_only(self):
        proj = maps.ccp_projector(3)
        assert maps.ccp_projector(3) is proj and not proj.flags.writeable


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

    def test_negative_time_at_the_given_tol(self):
        # -1e-6 g1 is ccp at tol 1e-3 only, so the group certificate that
        # t < 0 needs holds at that tol alone.
        g = dynamics.certify(1e-6 * catalog.g1(1.0).op)
        with pytest.raises(InputError, match="group certificate"):
            dynamics.evolve(g, -1.0)
        assert maps.is_ucp(dynamics.evolve(g, -1.0, tol=1e-3), 1e-3)

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
    def test_pairs_in_one_pass_are_each_pair_s_own(self):
        # The reference is the per-pair formula, each resolvent inverted alone.
        gen = random_gksl(3, np.random.default_rng(21))
        n = gen.d ** 2
        grid = [0.5, 1.375, 2.25, 3.125, 4.0]
        pairs = [(lam, mu) for lam in grid for mu in grid if lam != mu]
        got = dynamics.hilbert_identity_residual(gen, [lam for lam, _ in pairs],
                                                 [mu for _, mu in pairs])
        for (lam, mu), residual in zip(pairs, got.tolist()):
            r_lam, r_mu = (np.linalg.inv(complex(x) * np.eye(n) - gen.op.transfer)
                           for x in (lam, mu))
            assert residual == linalg.frob((r_lam - r_mu) / (complex(lam) - complex(mu))
                                           + r_lam @ r_mu)
            assert residual == dynamics.hilbert_identity_residual(gen, lam, mu)

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


class CountingProducts(np.ndarray):
    """An array that counts the matrix products it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            CountingProducts.products += 1
        plain = [x.view(np.ndarray) if isinstance(x, CountingProducts) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs).view(CountingProducts)


class TestLaplacePowerSum:
    """The Laplace quadrature's sum of panel powers, sum_{p < P} q^p, by
    binary doubling: the running sum's value in O(log P) products."""

    @staticmethod
    def q_matrix():
        # exp(-lam h) exp(h A) of a random GKSL generator, as in the quadrature.
        gen = random_gksl(3, np.random.default_rng(5))
        return np.exp(-0.05) * linalg.expm(gen.op.transfer, scale=0.05)

    @pytest.mark.parametrize("panels", [1, 2, 3, 7, 400, 401])
    def test_doubling_is_the_running_sum(self, panels):
        q = self.q_matrix()
        running = np.zeros_like(q)
        power = np.eye(len(q), dtype=complex)
        for _ in range(panels):
            running += power
            power = power @ q
        got = dynamics._power_sum(q, panels)
        assert linalg.frob(got - running) <= 1e-12 * linalg.frob(running)

    @pytest.mark.parametrize("panels, bound", [(1, 0), (400, 20), (100_000, 42)])
    def test_products_grow_with_the_bits_of_panels(self, panels, bound):
        # 100 000 has 17 bits, 6 of them set: 16 doublings of 2 products each
        # and 5 increments of 2, against 100 000 products for the running sum.
        CountingProducts.products = 0
        dynamics._power_sum(self.q_matrix().view(CountingProducts), panels)
        assert CountingProducts.products == bound <= 4 * max(np.log2(panels), 0)


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

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_one_membership_test_names_the_first_image_outside(self, d):
        # Images in span(V) (multiples of the basis, the unit's image 0), some
        # moved out of it by an antisymmetric imaginary part of a size below,
        # near and above the relative tolerance.  The verdict and the index
        # named are those of the first image the per-image test refuses.
        rng = np.random.default_rng(d)
        system = catalog.real_symmetric_system(d)
        out = np.zeros((d, d), dtype=complex)
        out[0, 1], out[1, 0] = 1j, -1j
        for _ in range(20):
            images = [np.zeros((d, d))] + [c * b for c, b in zip(
                rng.normal(size=len(system) - 1), system.basis[1:])]
            for k in rng.choice(len(system), size=int(rng.integers(0, 3)), replace=False):
                images[k] = images[k] + float(rng.choice([1e-10, 1e-8, 1e-6, 1.0])) * out
            first = next((k for k, img in enumerate(images)
                          if not systems.contains(system, img)), None)
            if first is None:
                SubsystemGenerator.from_action(system, images)
            else:
                with pytest.raises(InputError, match=re.escape(f"action[{first}] does not")):
                    SubsystemGenerator.from_action(system, images)

    def test_extension_must_act_on_the_system_s_algebra(self, rebit):
        with pytest.raises(InputError, match="extension acts on M_3"):
            SubsystemGenerator.from_action(rebit, [np.zeros((2, 2))] * 3,
                                           extension=dynamics.gksl_generator(3))

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

        monkeypatch.setattr(extension, "_solve_batch", no_solve)
        with pytest.raises(InputError, match="samples must lie in the semigroup"):
            dynamics.validate_subsystem_semigroup(catalog.rebit_rotation(1.0), **samples)

    def test_empty_sample_set_is_decided_on_a_reducible_v(self):
        # span{I, Z} is reducible, and the generator extension decides there
        # too: no sample is needed.
        report = dynamics.validate_subsystem_semigroup(diagonal_damping(), sample_ts=(),
                                                       sample_lambdas=())
        assert report.valid and report.checks == ()
        assert report.generator.converged

    def test_empty_sample_set_is_decided_on_an_irreducible_v(self):
        # The rebit is irreducible: the generator extension decides alone.
        report = dynamics.validate_subsystem_semigroup(
            catalog.rebit_rotation(1.0), sample_ts=(), sample_lambdas=())
        assert report.valid and report.checks == ()
        assert report.generator.converged and report.generator.iterations == 1

    def test_a_reducible_v_is_decided_by_one_generator_solve(self, monkeypatch):
        # span{I, Z} is reducible: one generator solve, from the deterministic
        # point, decides; no sample is solved.
        from ucpext import extension

        calls = []
        solve = extension._solve_batch
        monkeypatch.setattr(extension, "_solve_batch",
                            lambda system, targets, ccp, options, starts:
                            calls.append((ccp, len(starts)))
                            or solve(system, targets, ccp, options, starts))
        report = dynamics.validate_subsystem_semigroup(diagonal_damping())
        assert calls == [(True, 1)]
        assert report.valid and report.checks == () and report.generator.converged

    @staticmethod
    def two_state(a, b):
        """The two-state rate generator on span{I, Z}: A(Z) = diag(-2a, 2b),
        jumps from the first state at rate a and from the second at rate b.
        It generates a UCP semigroup exactly when a, b >= 0."""
        return SubsystemGenerator.from_action(catalog.diagonal_system(),
                                              [np.zeros((2, 2)), np.diag([-2.0 * a, 2.0 * b])])

    def test_two_state_rates_are_ucp_by_the_generator_extension(self):
        report = dynamics.validate_subsystem_semigroup(self.two_state(0.7, 0.3))
        assert report.valid and report.message == "UCP subsystem semigroup"
        assert report.checks == ()
        generator = report.generator
        assert generator.converged and 1 < generator.iterations < VALIDATE_MAX_ITER
        assert max(generator.cone_residual, generator.affine_residual,
                   generator.restriction_error) <= 1e-8

    def test_a_negative_rate_is_not_ucp_by_a_counterexample(self):
        # exp(t A) has the negative transition probability -0.4 t + O(t^2):
        # no ccp extension exists, and the search stops at t0 = 0.5.
        report = dynamics.validate_subsystem_semigroup(self.two_state(-0.4, 0.9))
        assert not report.valid and not report.generator.converged
        (check,) = report.checks
        assert (check["kind"], check["parameter"], check["feasible"]) == ("evolution", 0.5, False)
        assert check["residuals"]["iterations"] < VALIDATE_MAX_ITER

    def test_a_singular_resolvent_sample_is_undecided(self):
        # lam - A has condition number about 1e15 on V: the sample cannot be
        # computed, which is no evidence against a certified extension.
        with pytest.raises(Undecided, match="lambda = 1e-15 cannot be computed: subsystem "
                           "resolvent singular") as failure:
            dynamics.validate_subsystem_semigroup(self.two_state(0.7, 0.3),
                                                  sample_lambdas=(1e-15,))
        assert failure.value.fields == {"reason": "cross-check not computed"}

    def test_non_ccp_generator_is_not_ucp_by_a_counterexample(self, rebit, pauli):
        # The X-coordinate grows, so no ccp extension exists and the generator
        # solve does not converge; the search finds the first failing sample
        # at the smallest default time, t0 = 0.5.
        grow = SubsystemGenerator.from_action(
            rebit, [np.zeros((2, 2)), 1.0 * pauli.X, -1.0 * pauli.Z])
        report = dynamics.validate_subsystem_semigroup(grow)
        assert not report.valid and not report.generator.converged
        (check,) = report.checks
        assert (check["kind"], check["parameter"], check["feasible"]) == ("evolution", 0.5, False)
        assert check["residuals"]["iterations"] < VALIDATE_MAX_ITER

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
        solve = extension._solve_batch
        monkeypatch.setattr(extension, "_solve_batch",
                            lambda system, targets, ccp, options, starts: solved.extend(starts)
                            or solve(system, targets, ccp, options, starts))
        with pytest.raises(NumericalError, match="overflowed"):
            dynamics.validate_subsystem_semigroup(
                catalog.rebit_dissipative(1.0), sample_ts=(0.5, 1e100))
        assert solved == []  # every sample's images come before the one batch solve
