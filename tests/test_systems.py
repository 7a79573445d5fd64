import re

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from conftest import near_reducible_system
from ucpext import catalog, linalg, serialize, systems
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

    def test_one_stacked_gate_keeps_each_element_and_names_a_bad_one(self, pauli):
        rng = np.random.default_rng(3)
        nearly = [h + 1e-14 * rng.normal(size=(3, 3))
                  for h in (linalg.random_hermitian(3, rng) for _ in range(4))]
        basis = [np.eye(3)] + nearly
        system = MatricialSystem.from_basis(basis)
        for given, kept in zip(basis, system.basis):
            assert np.array_equal(kept, linalg.ensure_hermitian(given))
        with pytest.raises(InputError, match=re.escape("basis[2] is not Hermitian")):
            MatricialSystem.from_basis([pauli.I, pauli.X, [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(InputError, match=re.escape("basis[1] has shape (3, 3)")):
            MatricialSystem.from_basis([pauli.I, np.eye(3)])

    def test_same_basis(self, pauli, rebit):
        assert rebit.same_basis(rebit)
        assert rebit.same_basis(catalog.rebit_system())
        assert rebit.same_basis(MatricialSystem.from_basis(
            [pauli.I, pauli.X + 1e-13, pauli.Z]))
        assert not rebit.same_basis(MatricialSystem.from_basis([pauli.I, pauli.X, pauli.Y]))
        assert not rebit.same_basis(catalog.qubit_system())
        assert not rebit.same_basis(catalog.real_symmetric_system(3))

    def test_equality_and_hash_are_identity(self, pauli, rebit):
        twin = MatricialSystem.from_basis([pauli.I, pauli.X, pauli.Z])
        assert rebit == rebit and rebit != twin
        assert hash(rebit) == hash(rebit)
        assert len({rebit, twin, rebit}) == 2
        assert {rebit: 1}[rebit] == 1
        assert rebit.same_basis(twin)  # the basis comparison stays same_basis

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

    @pytest.mark.parametrize("name", ["rebit", *(f"real_symmetric_{d}" for d in range(2, 7))])
    def test_real_basis_has_an_exactly_real_onb(self, name):
        # The QR runs on the real parts alone: no imaginary roundoff, which
        # reached 1.2e-16 at d = 6 when it ran on real and imaginary parts.
        system = (catalog.rebit_system() if name == "rebit"
                  else catalog.real_symmetric_system(int(name.rsplit("_", 1)[1])))
        assert system.real
        assert not np.any(system.onb.imag)
        gram = np.einsum("kij,lij->kl", np.conj(system.onb), system.onb)
        np.testing.assert_allclose(gram, np.eye(len(system)), atol=1e-14)
        recon = np.einsum("jk,kab->jab", system.onb_coeffs, np.array(system.basis))
        np.testing.assert_allclose(recon, system.onb, atol=1e-14)

    def test_realness_is_exact(self, pauli):
        assert not catalog.qubit_system().real
        # an imaginary part far below any tolerance still makes a basis complex
        tilted = MatricialSystem.from_basis([pauli.I, pauli.X + 1e-300 * pauli.Y, pauli.Z])
        assert not tilted.real and tilted.same_basis(catalog.rebit_system())

    @pytest.mark.parametrize("seed", [0, 1])
    def test_complex_basis_keeps_its_onb(self, pauli, seed):
        # A complex basis is orthonormalized as real and imaginary parts
        # interleaved, bit for bit as this reference does it.
        rng = np.random.default_rng(seed)
        u = linalg.random_unitary(3, rng)
        bases = [[pauli.I, pauli.X, pauli.Y, pauli.Z],
                 [u @ b @ linalg.dagger(u) for b in catalog.real_symmetric_system(3).basis]]
        for basis in bases:
            system = MatricialSystem.from_basis(basis)
            assert not system.real
            m, d = len(system), system.dim
            rows = np.array(system.basis).reshape(m, d * d).view(float)
            q, r = np.linalg.qr(rows.T)
            q = q * np.sign(np.diag(r))
            onb = linalg.hermitian_part(np.ascontiguousarray(q.T).view(complex).reshape(m, d, d))
            assert np.array_equal(system.onb, onb)


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

    @pytest.mark.parametrize("tol", [1e-10, 1e-8])
    def test_stacked_grid_agrees_with_one_by_one(self, rebit, pauli, tol):
        # The demo's 125-point grid, and points on the boundary b^2 + c^2 = a^2.
        grid = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]
        theta = np.linspace(0.0, 2.0 * np.pi, 13)
        boundary = [(5, 3, 4), (5, -4, 3), (1, 1, 0), (2, 0, -2)] + [
            (a, a * np.cos(t), a * np.sin(t)) for a in (0.5, 1.0, 3.0) for t in theta]
        for points in (grid, boundary):
            want = [a >= 0 and b * b + c * c <= a * a + 1e-12 for a, b, c in points]
            stack = np.array([rebit_element(pauli, a, b, c) for a, b, c in points])
            one_by_one = [is_positive_element(rebit, LevelElement(1, m), tol) for m in stack]
            assert systems.positive_elements(rebit, stack, tol).tolist() == one_by_one == want

    def test_stacked_membership_violation_raises(self, rebit, pauli):
        with pytest.raises(InputError, match="violates membership"):
            systems.positive_elements(rebit, np.array([pauli.I, pauli.Y]), 1e-8)

    @pytest.mark.parametrize("tol", [1e-16, 1e-300])
    def test_membership_is_tested_at_the_structural_floor(self, rebit, pauli, tol):
        # The demo's grid lies in the rebit exactly; its projection's roundoff
        # (about 2e-15) is no membership violation at a tol below it.
        grid = [(a, b, c) for a in range(-2, 3) for b in range(-2, 3) for c in range(-2, 3)]
        stack = np.array([rebit_element(pauli, a, b, c) for a, b, c in grid])
        want = [a >= 0 and b * b + c * c <= a * a for a, b, c in grid]
        assert systems.positive_elements(rebit, stack, tol).tolist() == want
        with pytest.raises(InputError, match="violates membership"):
            systems.positive_elements(rebit, np.array([pauli.I, pauli.Y]), tol)

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
        # eigvalsh oracle: I + 2X has eigenvalues {3, -1}, so the norm is 3.
        v = 2.0 * pauli.X + pauli.I
        assert max(abs(np.linalg.eigvalsh(v))) == pytest.approx(3.0)
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


class TestCommutant:
    @settings(max_examples=30, deadline=None, database=None)
    @given(d=st.integers(2, 5), extra=st.integers(2, 3), seed=st.integers(0, 2**32 - 1))
    def test_generic_system_is_irreducible(self, d, extra, seed):
        rng = np.random.default_rng(seed)
        u = linalg.random_unitary(d, rng)
        basis = [np.eye(d)] + [u @ linalg.random_hermitian(d, rng) @ linalg.dagger(u)
                               for _ in range(extra)]
        comm = systems.commutant(MatricialSystem.from_basis(basis))
        assert comm.decided and comm.dim == 1
        assert comm.projection() is None

    # (commutant dimension, dim C*(V), commutative)
    @pytest.mark.parametrize("name, expected", [
        ("span_I", (4, 1, True)), ("diagonal", (2, 2, True)), ("rebit", (1, 4, False)),
        ("M2", (1, 4, False)), ("real_symmetric_3", (1, 9, False)),
        ("real_symmetric_4", (1, 16, False))])
    def test_catalog_systems(self, name, expected):
        system = serialize.system_from_json(name)
        comm = systems.commutant(system)
        assert comm.decided
        assert (comm.dim, systems.cstar_dim(system), systems.is_commutative(system)) == expected
        # The basis is orthonormal and commutes with V.
        gram = np.einsum("aij,bij->ab", np.conj(comm.basis), comm.basis)
        assert linalg.frob(gram - np.eye(comm.dim)) <= 1e-12
        for x in comm.basis:
            for v in system.basis:
                assert linalg.frob(x @ v - v @ x) <= 1e-12
        if name == "span_I":
            assert comm.gap is None  # no nonzero singular value: V' = M_d
        else:
            assert 1.0 < comm.gap < 2.5

    def test_four_cases_match_the_catalog_envelopes(self):
        for system, envelope in catalog.four_case_catalog():
            assert systems.cstar_dim(system) == envelope.dim
            assert systems.is_commutative(system) == envelope.commutative

    def test_commutative_c3_example(self):
        # span{I, diag(1, 0, -1)}: C*(V) = C^3 (its envelope is C^2).
        system = MatricialSystem.from_basis([np.eye(3), np.diag([1.0, 0.0, -1.0])])
        assert systems.commutant(system).dim == 3
        assert systems.cstar_dim(system) == 3
        assert systems.is_commutative(system)

    @pytest.mark.parametrize("scale", [1e-4, 1e4])
    def test_gap_does_not_depend_on_the_basis_scale(self, scale):
        system = catalog.real_symmetric_system(3)
        scaled = MatricialSystem.from_basis(
            [system.basis[0]] + [scale * b for b in system.basis[1:]])
        assert systems.commutant(scaled).gap == pytest.approx(
            systems.commutant(system).gap, rel=1e-10)

    def test_rank_within_tol_of_zero_is_undecided(self):
        assert not systems.commutant(near_reducible_system(1e-9)).decided
        comm = systems.commutant(near_reducible_system(1e-3))
        assert comm.decided and comm.dim == 2
        assert comm.gap == pytest.approx(np.sqrt(6.0) * 1e-3, rel=1e-3)

    def test_one_svd_per_system_whatever_the_tol(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        system = near_reducible_system(1e-3)
        verdicts = [(c.dim, c.decided) for c in
                    (systems.commutant(system, tol) for tol in (1e-9, 1e-2, 1e-9, 10.0))]
        assert verdicts == [(2, True), (2, False), (2, True), (2, False)]
        assert len(calls) == 1

    def test_one_bicommutant_svd_per_system_whatever_the_tol(self, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: calls.append(1) or svd(*a, **k))
        system = near_reducible_system(1e-3)  # C*(V) = M_2 + C
        assert [systems.cstar_dim(system, tol) for tol in (1e-9, 1e-2, 1e-9, 10.0)] == [5] * 4
        assert len(calls) == 2  # the commutant's SVD and its basis's, once each

    def test_undecided_tol_after_a_default_call_on_a_cached_system(self):
        system = catalog.real_symmetric_system(3)
        assert systems.commutant(system).decided
        comm = systems.commutant(system, tol=10.0)
        assert not comm.decided and comm.gap < 10.0
        assert systems.commutant(system).decided

    @pytest.mark.parametrize("name", ["span_I", "diagonal"])
    def test_projection_is_a_nontrivial_projection_in_the_commutant(self, name):
        system = serialize.system_from_json(name)
        q = systems.commutant(system).projection()
        assert linalg.frob(q @ q - q) <= 1e-12 and linalg.frob(q - linalg.dagger(q)) <= 1e-12
        assert 0.5 < np.trace(q).real < system.dim - 0.5
        for v in system.basis:
            assert linalg.frob(q @ v - v @ q) <= 1e-12
