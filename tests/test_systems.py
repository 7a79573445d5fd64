import numpy as np
import pytest

from ucpext import catalog, linalg
from ucpext.errors import InputError
from ucpext.systems import (LevelElement, MatricialSystem, contains,
                            is_positive_element, matrix_norm, order_norm_h,
                            project_onto)


def rebit_element(pauli, a, b, c):
    return a * pauli.I + b * pauli.X + c * pauli.Z


class TestConstruction:
    def test_first_element_must_be_identity(self, pauli):
        with pytest.raises(InputError):
            MatricialSystem.from_basis([pauli.X, pauli.I])

    def test_dependent_basis_rejected(self, pauli):
        with pytest.raises(InputError):
            MatricialSystem.from_basis([pauli.I, pauli.X, 0.5 * pauli.X])

    def test_non_hermitian_basis_rejected(self, pauli):
        with pytest.raises(InputError):
            MatricialSystem.from_basis([pauli.I, pauli.X + 1j * pauli.I])

    def test_same_basis(self, pauli, rebit):
        assert rebit.same_basis(rebit)
        assert rebit.same_basis(catalog.rebit_system())
        assert rebit.same_basis(MatricialSystem.from_basis(
            [pauli.I, pauli.X + 1e-13, pauli.Z]))
        assert not rebit.same_basis(MatricialSystem.from_basis([pauli.I, pauli.X, pauli.Y]))
        assert not rebit.same_basis(catalog.qubit_system())
        assert not rebit.same_basis(catalog.real_symmetric_system(3))

    def test_orthonormalization(self, rebit):
        rng = np.random.default_rng(17)
        conjugated = []
        for d in (3, 4, 5):
            u = linalg.random_unitary(d, rng)
            conjugated.append(MatricialSystem.from_basis(
                [u @ b @ linalg.dagger(u) for b in catalog.real_symmetric_system(d).basis]))
        for system in (rebit, *conjugated):
            m, d = len(system), system.dim
            gram = np.array([[np.sum(np.conj(a) * b).real for b in system.onb]
                             for a in system.onb])
            np.testing.assert_allclose(gram, np.eye(m), atol=1e-12)
            # onb_coeffs reproduces the orthonormal basis from the user basis
            for j in range(m):
                recon = sum(system.onb_coeffs[j, k] * system.basis[k] for k in range(m))
                np.testing.assert_allclose(recon, system.onb[j], atol=1e-12)
            # ... and is the inverse Cholesky factor of the basis Gram matrix
            c = system.onb_coeffs
            assert np.array_equal(c, np.tril(c)) and np.all(np.diag(c) > 0)
            basis_gram = np.array([[np.sum(np.conj(a) * b).real for b in system.basis]
                                   for a in system.basis])
            np.testing.assert_allclose(c @ basis_gram @ c.T, np.eye(m), atol=1e-10)
            # coordinates of a stack are the stack of coordinates, both ways
            mats = rng.normal(size=(2, 3, d, d)) + 1j * rng.normal(size=(2, 3, d, d))
            coords = system.coords(mats)
            assert coords.shape == (2, 3, m)
            for idx in np.ndindex(2, 3):
                np.testing.assert_allclose(coords[idx], system.coords(mats[idx]),
                                           atol=1e-12)
            back = system.from_coords(coords)
            assert back.shape == mats.shape
            for idx in np.ndindex(2, 3):
                np.testing.assert_allclose(back[idx], system.from_coords(coords[idx]),
                                           atol=1e-12)


class TestProjection:
    def test_y_projects_to_zero(self, rebit, pauli):
        np.testing.assert_allclose(project_onto(rebit, pauli.Y),
                                   np.zeros((2, 2)), atol=1e-14)

    def test_basis_element_fixed(self, rebit, pauli):
        np.testing.assert_allclose(project_onto(rebit, pauli.X), pauli.X, atol=1e-14)

    def test_linearity(self, rebit, pauli):
        np.testing.assert_allclose(project_onto(rebit, pauli.X + 2.0 * pauli.Y),
                                   pauli.X, atol=1e-14)

    def test_idempotent(self, rebit):
        rng = np.random.default_rng(23)
        m = linalg.random_hermitian(2, rng) + 1j * linalg.random_hermitian(2, rng)
        once = project_onto(rebit, m)
        np.testing.assert_allclose(project_onto(rebit, once), once, atol=1e-13)

    def test_contains(self, rebit, pauli):
        assert contains(rebit, pauli.I)
        assert not contains(rebit, pauli.Y)
        diagonal = catalog.diagonal_system()
        assert not contains(diagonal, pauli.X)


class TestPositivity:
    def test_cone_examples(self, rebit, pauli):
        inside = LevelElement(1, rebit_element(pauli, 2, 1, 1))
        outside = LevelElement(1, rebit_element(pauli, 1, 1, 1))
        assert is_positive_element(rebit, inside, 1e-8)
        assert not is_positive_element(rebit, outside, 1e-8)
        assert is_positive_element(rebit, LevelElement(1, np.zeros((2, 2))), 1e-8)

    def test_membership_violation_raises(self, rebit, pauli):
        with pytest.raises(InputError):
            is_positive_element(rebit, LevelElement(1, pauli.Y), 1e-8)

    def test_rebit_cone_grid(self, rebit, pauli):
        # a I + b X + c Z is PSD exactly when a >= sqrt(b^2 + c^2).
        for a in (-2, -1, 0, 1, 2):
            for b in (-2, -1, 0, 1, 2):
                for c in (-2, -1, 0, 1, 2):
                    el = LevelElement(1, rebit_element(pauli, a, b, c))
                    expected = a >= 0 and b * b + c * c <= a * a
                    assert is_positive_element(rebit, el, 1e-10) == expected

    def test_wrap_validates_membership(self, rebit, pauli):
        with pytest.raises(InputError):
            LevelElement.wrap(rebit, np.kron(np.eye(2), pauli.Y))
        el = LevelElement.wrap(rebit, np.kron(np.eye(2), pauli.X))
        assert el.level == 2

    def test_matrix_cone_compression(self, rebit, pauli):
        # alpha* C_n alpha is contained in C_m for contractions alpha.
        rng = np.random.default_rng(31)
        for _ in range(20):
            n, m = int(rng.integers(1, 3)), int(rng.integers(1, 4))
            el = np.zeros((2 * n, 2 * n), dtype=complex)
            for _ in range(3):
                scalar = linalg.random_hermitian(n, rng)
                scalar = scalar @ scalar  # PSD factor in M_n
                a = rng.uniform(0.1, 2.0)
                b, c = rng.uniform(-1.0, 1.0, size=2)
                norm_bc = np.hypot(b, c)
                if norm_bc > a:
                    b, c = b * a / norm_bc, c * a / norm_bc
                el += np.kron(scalar, rebit_element(pauli, a, b, c))
            alpha = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
            alpha /= max(1.0, linalg.spectral_norm(alpha))
            lifted = np.kron(alpha, np.eye(2))
            compressed = np.conj(lifted.T) @ el @ lifted
            assert is_positive_element(
                rebit, LevelElement(m, compressed), 1e-9)


class TestNorms:
    def test_matrix_norm_examples(self, rebit, pauli):
        assert matrix_norm(rebit, LevelElement(1, pauli.X)) == pytest.approx(1.0, abs=1e-9)
        assert matrix_norm(rebit, LevelElement(1, pauli.X + pauli.Z)) == pytest.approx(
            np.sqrt(2.0), abs=1e-9)
        assert matrix_norm(rebit, LevelElement(1, 3.0 * pauli.I)) == pytest.approx(
            3.0, abs=1e-9)

    def test_order_norm_examples(self, rebit, pauli):
        assert order_norm_h(rebit, pauli.Z) == pytest.approx(1.0, abs=1e-9)
        assert order_norm_h(rebit, pauli.I) == pytest.approx(1.0, abs=1e-9)
        # herm_eig oracle: I + 2X has eigenvalues {3, -1}, so the norm is 3.
        v = 2.0 * pauli.X + pauli.I
        w, _ = linalg.herm_eig(v)
        assert max(abs(w)) == pytest.approx(3.0)
        assert order_norm_h(rebit, v) == pytest.approx(3.0, abs=1e-9)

    def test_order_norm_rejects_non_member(self, rebit, pauli):
        with pytest.raises(InputError):
            order_norm_h(rebit, pauli.Y)

    def test_order_norm_equals_spectral_norm_on_members(self, rebit, pauli):
        rng = np.random.default_rng(37)
        for _ in range(50):
            a, b, c = rng.normal(size=3) * 2.0
            v = rebit_element(pauli, a, b, c)
            assert abs(order_norm_h(rebit, v) - linalg.spectral_norm(v)) <= 1e-8

    def test_archimedean_surrogate(self, rebit, pauli):
        rng = np.random.default_rng(41)
        samples = [rebit_element(pauli, np.hypot(b, c), b, c)  # cone boundary
                   for b, c in rng.normal(size=(10, 2))]
        samples += [rebit_element(pauli, *rng.normal(size=3)) for _ in range(10)]
        for v in samples:
            shifted_positive = all(
                np.linalg.eigvalsh(v + eps * np.eye(2))[0] >= 0.0
                for eps in (1e-3, 1e-6, 1e-9))
            if shifted_positive:
                assert np.linalg.eigvalsh(v)[0] >= -1e-8

    def test_matrix_norm_equals_spectral_norm_levels_1_and_2(self, rebit):
        rng = np.random.default_rng(43)
        m3 = catalog.real_symmetric_system(3)
        for system in (rebit, m3):
            onb = system.onb
            for level in (1, 2):
                for _ in range(10):
                    blocks = np.zeros((level * system.dim, level * system.dim),
                                      dtype=complex)
                    for i in range(level):
                        for j in range(i, level):
                            coeff = rng.normal(size=len(onb)) + (
                                1j * rng.normal(size=len(onb)) if i != j else 0.0)
                            v = np.tensordot(coeff, onb, axes=(0, 0))
                            blocks[i * system.dim:(i + 1) * system.dim,
                                   j * system.dim:(j + 1) * system.dim] = v
                            if i != j:
                                blocks[j * system.dim:(j + 1) * system.dim,
                                       i * system.dim:(i + 1) * system.dim] = np.conj(v.T)
                    el = LevelElement.wrap(system, blocks)
                    got = matrix_norm(system, el)
                    want = linalg.spectral_norm(blocks)
                    assert abs(got - want) <= 1e-8 * (1.0 + want)
