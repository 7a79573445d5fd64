import numpy as np
import pytest

from ucpext import linalg
from ucpext.errors import InputError


def series_expm(m, scale, order=30):
    """Independent truncated power-series oracle for the matrix exponential."""
    a = scale * np.asarray(m, dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, order + 1):
        term = term @ a / k
        total += term
    return total


class TestHermEig:
    def test_pauli_z(self, pauli):
        w, u = linalg.herm_eig(pauli.Z)
        np.testing.assert_allclose(w, [-1.0, 1.0])
        np.testing.assert_allclose(u @ np.conj(u.T), np.eye(2), atol=1e-12)

    def test_identity(self):
        w, _ = linalg.herm_eig(np.eye(2))
        np.testing.assert_allclose(w, [1.0, 1.0])

    def test_pauli_x(self, pauli):
        w, _ = linalg.herm_eig(pauli.X)
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InputError):
            linalg.herm_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_and_unitarity_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            h = linalg.random_hermitian(dim, rng, scale=rng.uniform(0.1, 10.0))
            w, u = linalg.herm_eig(h)
            assert np.all(np.diff(w) >= -1e-12)
            recon = (u * w) @ np.conj(u.T)
            assert linalg.frob(recon - h) <= 1e-10 * (1.0 + linalg.frob(h))
            assert linalg.frob(np.conj(u.T) @ u - np.eye(dim)) <= 1e-10


class TestExpm:
    def test_zero_generator(self):
        np.testing.assert_allclose(linalg.expm(np.zeros((3, 3)), 2.5), np.eye(3))

    def test_diagonal(self):
        m = np.diag([0.3, -1.2])
        np.testing.assert_allclose(linalg.expm(m, 1.0),
                                   np.diag(np.exp([0.3, -1.2])), rtol=1e-12)

    @pytest.mark.parametrize("omega,t", [(1.0, 0.7), (2.5, 1.3), (0.3, 4.0)])
    def test_rotation_block_against_series_oracle(self, omega, t):
        m = np.array([[0.0, -omega], [omega, 0.0]])
        got = linalg.expm(m, t)
        np.testing.assert_allclose(got, series_expm(m, t), atol=1e-12)
        expected = np.array([[np.cos(omega * t), -np.sin(omega * t)],
                             [np.sin(omega * t), np.cos(omega * t)]])
        np.testing.assert_allclose(got, expected, atol=1e-12)

    def test_agrees_with_eigendecomposition_for_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            h = linalg.random_hermitian(dim, rng)
            w, u = linalg.herm_eig(h)
            via_eig = (u * np.exp(w)) @ np.conj(u.T)
            got = linalg.expm(h, 1.0)
            assert linalg.frob(got - via_eig) <= 1e-10 * linalg.frob(via_eig)

    def test_one_parameter_semigroup_property(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            m *= 5.0 / max(linalg.spectral_norm(m), 5.0)  # keep ||m|| <= 5
            s, t = rng.uniform(0.0, 1.5, size=2)
            lhs = linalg.expm(m, s) @ linalg.expm(m, t)
            rhs = linalg.expm(m, s + t)
            assert linalg.frob(lhs - rhs) <= 1e-9 * (1.0 + linalg.frob(rhs))


class TestPsdProject:
    def test_clips_negative_eigenvalue(self, pauli):
        np.testing.assert_allclose(linalg.psd_project(pauli.Z),
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_fixed_point_on_psd(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p = g @ np.conj(g.T)
        np.testing.assert_allclose(linalg.psd_project(p), p, atol=1e-12)

    def test_all_negative_spectrum(self):
        np.testing.assert_allclose(linalg.psd_project(-np.eye(3)),
                                   np.zeros((3, 3)), atol=1e-15)

    def test_clip_kernel_matches_validated_projection(self):
        rng = np.random.default_rng(9)
        for dim in (2, 4, 9):
            h = linalg.random_hermitian(dim, rng)
            clipped = linalg.psd_clip(h)
            assert np.array_equal(clipped, linalg.psd_project(h))
            assert np.array_equal(clipped, np.conj(clipped.T))

    def test_rejects_non_hermitian(self, pauli):
        with pytest.raises(InputError):
            linalg.psd_project(pauli.X + 1j * pauli.I)

    def test_idempotent_and_nearest(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            h = linalg.random_hermitian(dim, rng, scale=2.0)
            proj = linalg.psd_project(h)
            assert np.linalg.eigvalsh(proj)[0] >= -1e-12
            np.testing.assert_allclose(linalg.psd_project(proj), proj, atol=1e-12)
            # Frobenius-nearest: no sampled PSD matrix is closer.
            for _ in range(5):
                g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
                other = g @ np.conj(g.T)
                assert linalg.frob(proj - h) <= linalg.frob(other - h) + 1e-12


class TestSpectralNorm:
    def test_identity(self):
        assert linalg.spectral_norm(np.eye(2)) == pytest.approx(1.0)

    def test_x_plus_z(self, pauli):
        # (X + Z)^2 = 2 I, so the norm is sqrt(2).
        assert linalg.spectral_norm(pauli.X + pauli.Z) == pytest.approx(np.sqrt(2.0))

    def test_diagonal(self):
        assert linalg.spectral_norm(np.diag([3.0, -4.0])) == pytest.approx(4.0)

    def test_matches_numpy_on_random(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
            assert linalg.spectral_norm(m) == pytest.approx(
                np.linalg.norm(m, 2), rel=1e-10)


def test_matrix_rejects_nan():
    with pytest.raises(InputError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))
