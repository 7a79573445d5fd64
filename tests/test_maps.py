import warnings

import numpy as np
import pytest

from conftest import random_ucp_map
from ucpext import linalg, maps
from ucpext.errors import InputError, NumericalError
from ucpext.maps import SuperOp


def unit(i, j, d=2):
    e = np.zeros((d, d), dtype=complex)
    e[i, j] = 1.0
    return e


class TestFromKraus:
    def test_identity_choi_is_rank_one_projector(self):
        phi = maps.from_kraus(2, [np.eye(2)])
        np.testing.assert_allclose(phi.choi, maps.maximally_entangled_projector(2))
        eigs = np.linalg.eigvalsh(phi.choi)
        np.testing.assert_allclose(eigs, [0.0, 0.0, 0.0, 2.0], atol=1e-14)

    def test_conjugation_by_x(self, pauli):
        phi = maps.from_kraus(2, [pauli.X])
        np.testing.assert_allclose(phi.apply(pauli.Z), -pauli.Z, atol=1e-14)

    def test_two_kraus_mixture(self, pauli):
        # (1/2) X B X + (1/2) Z B Z applied to Y, against direct 2x2 products.
        phi = maps.from_kraus(2, [pauli.X, pauli.Z], [0.5, 0.5])
        oracle = 0.5 * pauli.X @ pauli.Y @ pauli.X + 0.5 * pauli.Z @ pauli.Y @ pauli.Z
        np.testing.assert_allclose(oracle, -pauli.Y, atol=1e-14)
        np.testing.assert_allclose(phi.apply(pauli.Y), oracle, atol=1e-14)
        assert maps.is_completely_positive(phi).is_cp

    def test_negative_weight_rejected(self, pauli):
        with pytest.raises(InputError):
            maps.from_kraus(2, [pauli.X], [-1.0])

    def test_shape_mismatch(self, pauli):
        with pytest.raises(InputError):
            maps.from_kraus(3, [pauli.X])


class TestApplyCompose:
    def test_identity(self, pauli):
        ident = maps.identity_map(2)
        for m in (pauli.X, pauli.Y, pauli.Z, unit(0, 1)):
            np.testing.assert_allclose(ident.apply(m), m, atol=1e-14)

    def test_apply_matches_choi_blocks(self):
        rng = np.random.default_rng(2)
        choi = linalg.random_hermitian(9, rng)
        phi = SuperOp(3, choi)
        for i in range(3):
            for j in range(3):
                block = choi.reshape(3, 3, 3, 3)[i, :, j, :]
                np.testing.assert_allclose(phi.apply(unit(i, j, 3)), block, atol=1e-14)

    def test_conjugation_composition(self, pauli):
        conj_x = maps.conjugation_map(pauli.X)
        conj_z = maps.conjugation_map(pauli.Z)
        ident = maps.identity_map(2)
        assert ident.compose(conj_z).distance(conj_z) <= 1e-14
        assert conj_x.compose(conj_x).distance(ident) <= 1e-14
        # X (Z Y Z) X computed directly: conjugation by XZ up to phase.
        oracle = pauli.X @ (pauli.Z @ pauli.Y @ pauli.Z) @ pauli.X
        np.testing.assert_allclose(oracle, pauli.Y, atol=1e-14)
        composed = conj_x.compose(conj_z)
        np.testing.assert_allclose(composed.apply(pauli.Y), oracle, atol=1e-14)

    def test_compose_agrees_pointwise_on_basis(self):
        rng = np.random.default_rng(4)
        phi, psi = random_ucp_map(3, rng), random_ucp_map(3, rng)
        comp = phi.compose(psi)
        for i in range(3):
            for j in range(3):
                e = unit(i, j, 3)
                np.testing.assert_allclose(comp.apply(e), phi.apply(psi.apply(e)),
                                           atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            maps.identity_map(2).compose(maps.identity_map(3))


class TestCpUnital:
    def test_identity_report(self):
        report = maps.is_completely_positive(maps.identity_map(2))
        assert report.is_cp
        assert report.min_choi_eigenvalue == pytest.approx(0.0, abs=1e-12)
        assert report.witness is None

    def test_transpose_not_cp(self):
        # The Choi matrix of the transpose is the swap operator: spectrum +-1.
        phi = maps.transpose_map(2)
        report = maps.is_completely_positive(phi)
        assert not report.is_cp
        assert report.min_choi_eigenvalue == pytest.approx(-1.0, abs=1e-12)
        swap = phi.choi
        np.testing.assert_allclose(swap @ swap, np.eye(4), atol=1e-14)

    def test_witness_soundness(self):
        phi = maps.transpose_map(2)
        report = maps.is_completely_positive(phi)
        witness = report.witness
        assert witness is not None and witness.level == 2
        assert np.linalg.eigvalsh(witness.matrix)[0] >= -1e-12
        image = maps.amplification_apply(phi, witness.level, witness.matrix)
        image_min = np.linalg.eigvalsh(linalg.hermitian_part(image))[0]
        assert image_min <= report.min_choi_eigenvalue + 1e-10

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_choi_has_no_verdict(self):
        # PSD, so CP; its Hermitian part overflows and eigvalsh returns NaN.
        phi = SuperOp(2, np.diag([1e308, 0.0, 0.0, 1e308]))
        with pytest.raises(NumericalError, match="not finite"):
            maps.is_completely_positive(phi)

    @pytest.mark.parametrize("choi", [np.full((4, 4), 1e308), np.diag([1e308, 0, 0, 1e308])],
                             ids=["full", "diagonal"])
    def test_an_overflowing_hermitian_part_is_refused_before_the_spectrum(self, monkeypatch,
                                                                          choi):
        # No spectrum is computed, and no RuntimeWarning (an error here) is raised.
        def no_spectrum(*args):
            raise AssertionError("eigvalsh of a Hermitian part that is not finite")

        monkeypatch.setattr(maps.np.linalg, "eigvalsh", no_spectrum)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="Hermitian part .* is not finite"):
                maps.is_completely_positive(SuperOp(2, choi.astype(complex)))

    def test_unitality(self, pauli):
        assert maps.is_unital(maps.identity_map(2))
        assert maps.is_unital(maps.conjugation_map(pauli.X))
        assert not maps.is_unital(0.5 * maps.identity_map(2))

    def test_is_ucp(self, pauli):
        assert maps.is_ucp(maps.identity_map(2))
        assert not maps.is_ucp(maps.transpose_map(2))
        # Rotation conjugation B -> U* B U with U = exp(-i (w t / 2) Y).
        u = linalg.expm(pauli.Y, scale=-0.5j * 0.8)
        assert maps.is_ucp(maps.conjugation_map(u))

    def test_hermiticity_preservation(self, pauli):
        assert maps.is_hermiticity_preserving(maps.identity_map(2))
        phase = SuperOp(2, 1j * maps.identity_map(2).choi)  # B -> i B
        assert not maps.is_hermiticity_preserving(phase)
        rng = np.random.default_rng(6)
        assert maps.is_hermiticity_preserving(random_ucp_map(3, rng))


class TestAmplification:
    def test_identity_any_level(self):
        rng = np.random.default_rng(8)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        np.testing.assert_allclose(
            maps.amplification_apply(maps.identity_map(2), 3, m), m, atol=1e-14)

    def test_entangled_projector_maps_to_choi(self):
        rng = np.random.default_rng(9)
        phi = random_ucp_map(3, rng)
        image = maps.amplification_apply(phi, 3, maps.maximally_entangled_projector(3))
        np.testing.assert_allclose(image, phi.choi, atol=1e-12)

    def test_blockwise_action(self, pauli):
        conj_x = maps.conjugation_map(pauli.X)
        block_in = np.kron(unit(0, 0), pauli.Z)
        block_out = maps.amplification_apply(conj_x, 2, block_in)
        np.testing.assert_allclose(block_out, np.kron(unit(0, 0), -pauli.Z), atol=1e-14)


class TestInvariants:
    def test_ucp_contractivity_sampled(self):
        rng = np.random.default_rng(12)
        for d in (2, 3):
            phi = random_ucp_map(d, rng)
            for _ in range(50):
                m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
                m /= max(1.0, linalg.spectral_norm(m))
                assert linalg.spectral_norm(phi.apply(m)) <= 1.0 + 1e-9

    def test_choi_linearity_exact(self):
        rng = np.random.default_rng(14)
        phi, psi = random_ucp_map(2, rng), random_ucp_map(2, rng)
        combo = 2.0 * phi + (-0.5) * psi
        assert np.array_equal(combo.choi, 2.0 * phi.choi + (-0.5) * psi.choi)
        assert np.array_equal((phi - psi).choi, phi.choi - psi.choi)

    def test_positivity_propagation(self):
        rng = np.random.default_rng(16)
        d = 3
        phi = random_ucp_map(d, rng)
        for level in (1, 2, d):
            for _ in range(17):
                g = rng.normal(size=(level * d, level * d)) + (
                    1j * rng.normal(size=(level * d, level * d)))
                psd = g @ np.conj(g.T) / (level * d)
                image = maps.amplification_apply(phi, level, psd)
                assert np.linalg.eigvalsh(linalg.hermitian_part(image))[0] >= -1e-9

    def test_random_noncp_witness(self):
        rng = np.random.default_rng(18)
        for _ in range(10):
            choi = linalg.random_hermitian(4, rng)
            choi -= (np.linalg.eigvalsh(choi)[0] - (-0.5)) * np.eye(4)  # force min eig -0.5
            phi = SuperOp(2, choi)
            report = maps.is_completely_positive(phi)
            assert not report.is_cp
            assert report.witness is not None
            image = maps.amplification_apply(phi, 2, report.witness.matrix)
            assert np.linalg.eigvalsh(linalg.hermitian_part(image))[0] <= -1e-8


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_apply_each_is_apply_of_each(d):
    # One einsum over a stack of maps and a stack of matrices, bit for bit
    # the images SuperOp.apply gives one map and one matrix at a time.
    rng = np.random.default_rng(d)
    chois = rng.normal(size=(3, d * d, d * d)) + 1j * rng.normal(size=(3, d * d, d * d))
    mats = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    got = maps.apply_each(chois, mats)
    assert got.shape == (3, 4, d, d)
    for m, choi in enumerate(chois):
        assert np.array_equal(maps.apply_each(choi, mats), got[m])
        for k, mat in enumerate(mats):
            assert np.array_equal(got[m, k], SuperOp(d, choi).apply(mat))


@pytest.mark.parametrize("d", [2, 3])
def test_chois_of_transfers_is_from_transfer_of_each(d):
    rng = np.random.default_rng(d)
    transfers = rng.normal(size=(2, 3, d * d, d * d)) + 1j * rng.normal(size=(2, 3, d * d, d * d))
    got = maps.chois_of_transfers(transfers)
    for idx in np.ndindex(2, 3):
        t4 = transfers[idx].reshape(d, d, d, d)  # [a, b, i, j] -> choi [i, a, j, b]
        assert np.array_equal(got[idx], t4.transpose(2, 0, 3, 1).reshape(d * d, d * d))
        assert np.array_equal(SuperOp(d, got[idx]).transfer, transfers[idx])
