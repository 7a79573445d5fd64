import functools
import math
import re

import numpy as np
import pytest
import scipy.linalg

from ucpext import catalog, dynamics, extension, linalg, maps, systems
from ucpext.dynamics import SubsystemGenerator
from ucpext.errors import InputError, NumericalError
from ucpext.extension import ExtensionProblem


def series_expm(m, scale, order=30):
    """Independent truncated power-series oracle for the matrix exponential."""
    a = scale * np.asarray(m, dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, order + 1):
        term = term @ a / k
        total += term
    return total


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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_is_a_numerical_error(self):
        # exact at scale 1e20, NaN inside scipy's squaring at 1e100; an
        # over-scaled squaring gives 0.99999976 for 1 at 1e10 (ROADMAP item 14)
        dissipation = np.array([[0.0, 0.0], [1.0, -1.0]])
        np.testing.assert_allclose(linalg.expm(dissipation, 1e20), [[1.0, 0.0], [1.0, 0.0]],
                                   rtol=0.0, atol=1e-12)
        with pytest.raises(NumericalError, match="overflowed"):
            linalg.expm(dissipation, 1e100)

    def test_agrees_with_eigendecomposition_for_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            h = linalg.random_hermitian(dim, rng)
            w, u = np.linalg.eigh(h)
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


class TestStackedKernels:
    """``expm`` and ``inverse`` of a stack against each matrix alone, by the
    per-matrix calls they replace: bit for bit, not to a tolerance."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 16])
    def test_expm_of_a_stack_is_each_matrix_s(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(3, 2, n, n)) + 1j * rng.normal(size=(3, 2, n, n))
        scales = rng.uniform(-2.0, 2.0, size=(3, 2))
        got = linalg.expm(stack, scales)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(got[idx], scipy.linalg.expm(float(scales[idx]) * stack[idx]))
        # One matrix and a sequence of scales: a stack of its exponentials.
        one = linalg.expm(stack[0, 0], scales[1])
        for k in range(2):
            assert np.array_equal(one[k], scipy.linalg.expm(float(scales[1, k]) * stack[0, 0]))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_expm_names_the_first_overflowing_scale(self):
        dissipation = np.array([[0.0, 0.0], [1.0, -1.0]])
        with pytest.raises(NumericalError, match=re.escape("overflowed at scale 1.000e+100")):
            linalg.expm(dissipation, [1.0, 1e100, 1e200])
        with pytest.raises(NumericalError, match=re.escape("overflowed at scale 1.000e+100")):
            linalg.expm(np.array([np.zeros((2, 2)), dissipation]), 1e100)

    @pytest.mark.parametrize("n", [1, 2, 4, 9])
    def test_inverse_of_a_stack_is_each_matrix_s(self, n):
        rng = np.random.default_rng(n)
        stack = rng.normal(size=(2, 3, n, n)) + 1j * rng.normal(size=(2, 3, n, n))
        got = linalg.inverse(stack, "singular (cond {cond:.3e})")
        for idx in np.ndindex(2, 3):
            assert np.array_equal(got[idx], np.linalg.inv(stack[idx]))

    def test_inverse_names_the_first_singular_matrix(self):
        stack = np.array([np.eye(2), np.diag([1.0, 1e-15]), np.diag([1.0, 1e-20])])
        with pytest.raises(NumericalError, match=re.escape("singular (cond 1.000e+15)")):
            linalg.inverse(stack, "singular (cond {cond:.3e})")
        with pytest.raises(NumericalError, match=re.escape("second (cond 1.000e+15)")):
            linalg.inverse(stack, ["first {cond}", "second (cond {cond:.3e})", "third {cond}"])


@functools.cache
def psd_project(n: int):
    """The PSD projection of n x n Hermitian matrices, n = d^2: the cone
    projection of a map-cone solver (frame F = I) on ``real_symmetric_d``."""
    system = catalog.real_symmetric_system(math.isqrt(n))
    return extension._FeasibilitySolver(system, system.basis, ccp=False, real=True).project_cone


class TestPsdProject:
    """The PSD projection is the solver's map-cone projection, the toolkit's
    one PSD clip."""

    def test_clips_negative_eigenvalue(self, pauli):
        np.testing.assert_allclose(psd_project(4)(np.kron(pauli.Z, pauli.I)),
                                   np.diag([1.0, 1.0, 0.0, 0.0]), atol=1e-14)

    def test_fixed_point_on_psd(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        p = g @ np.conj(g.T)
        np.testing.assert_allclose(psd_project(4)(p), p, atol=1e-12)

    def test_all_negative_spectrum(self):
        np.testing.assert_allclose(psd_project(9)(-np.eye(9)),
                                   np.zeros((9, 9)), atol=1e-15)

    def test_idempotent_and_nearest(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            dim = int(rng.integers(2, 4)) ** 2
            h = linalg.random_hermitian(dim, rng, scale=2.0)
            proj = psd_project(dim)(h)
            assert np.array_equal(proj, np.conj(proj.T))
            assert np.linalg.eigvalsh(proj)[0] >= -1e-12
            np.testing.assert_allclose(psd_project(dim)(proj), proj, atol=1e-12)
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


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("n", [2, 3, 4, 9, 16])
def test_frob_each_is_frob_of_each(n, dtype):
    rng = np.random.default_rng(n)
    stack = rng.normal(size=(3, 5, n, n)).astype(dtype)
    if dtype is complex:
        stack += 1j * rng.normal(size=stack.shape)
    norms = linalg.frob_each(stack)
    assert norms.shape == (3, 5)
    for idx in np.ndindex(3, 5):
        assert norms[idx] == linalg.frob(stack[idx])


@pytest.mark.parametrize("m", [1, 9, 54, 100])
def test_solve_each_solves_each_system_alone(m):
    # Symmetric positive definite systems like the solver's Newton systems:
    # each solution satisfies its own system, and is bit for bit the one of
    # its system solved as a stack of one.
    rng = np.random.default_rng(m)
    a = rng.normal(size=(4, m, m))
    a = a @ a.swapaxes(-1, -2) / m + 1e-3 * np.eye(m)
    b = rng.normal(size=(4, m))
    x = linalg.solve_each(a, b)
    assert x.shape == (4, m)
    for k in range(4):
        assert np.linalg.norm(a[k] @ x[k] - b[k]) <= 1e-10 * np.linalg.norm(b[k])
        assert np.array_equal(x[k], linalg.solve_each(a[k:k + 1], b[k:k + 1])[0])


def test_matrix_rejects_nan():
    with pytest.raises(InputError):
        linalg.as_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


# Every entry point that takes a matrix of a known shape, called on the rebit
# (d = 2) with a matrix of the wrong shape, and the shape it expects.
WRONG_SHAPE_CALLS = [
    pytest.param(lambda rebit: maps.SuperOp(2, np.eye(1)), (4, 4), id="SuperOp"),
    pytest.param(lambda rebit: maps.SuperOp.from_transfer(2, np.eye(3)), (4, 4),
                 id="from_transfer"),
    pytest.param(lambda rebit: maps.identity_map(2).apply(np.eye(3)), (2, 2), id="apply"),
    pytest.param(lambda rebit: maps.from_kraus(2, [np.eye(3)]), (2, 2), id="from_kraus"),
    pytest.param(lambda rebit: maps.from_action(2, lambda b: np.eye(3)), (2, 2),
                 id="from_action"),
    pytest.param(lambda rebit: maps.amplification_apply(maps.identity_map(2), 2, np.eye(2)),
                 (4, 4), id="amplification_apply"),
    pytest.param(lambda rebit: dynamics.gksl_generator(2, hamiltonian=np.eye(3)), (2, 2),
                 id="gksl_hamiltonian"),
    pytest.param(lambda rebit: dynamics.gksl_generator(2, jumps=[(np.eye(3), 1.0)]), (2, 2),
                 id="gksl_jump"),
    pytest.param(lambda rebit: SubsystemGenerator.from_action(rebit, [np.zeros((3, 3))] * 3),
                 (2, 2), id="SubsystemGenerator.from_action"),
    pytest.param(lambda rebit: ExtensionProblem.for_map(rebit, [np.eye(3)] * 3), (2, 2),
                 id="for_map"),
    pytest.param(lambda rebit: systems.project_onto(rebit, np.eye(3)), (2, 2),
                 id="project_onto"),
]


@pytest.mark.parametrize("call, expected", WRONG_SHAPE_CALLS)
def test_entry_points_reject_wrong_shape(rebit, call, expected):
    with pytest.raises(InputError, match=re.escape(f"expected {expected}")):
        call(rebit)


class TestHermitianGate:
    def test_rejects_and_names_the_defect(self):
        with pytest.raises(InputError, match=re.escape("h is not Hermitian: defect 1.000e+00")):
            linalg.ensure_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), name="h")

    def test_returns_the_exact_hermitian_part(self, pauli):
        nearly = pauli.X + 1e-14 * np.array([[0.0, 1.0], [0.0, 0.0]])
        h = linalg.ensure_hermitian(nearly)
        assert np.array_equal(h, np.conj(h.T))
        np.testing.assert_allclose(h, pauli.X, atol=1e-14)

    def test_a_stack_names_the_matrix_that_fails(self, pauli):
        stack = np.array([pauli.I, pauli.X, [[0.0, 1.0], [0.0, 0.0]]])
        with pytest.raises(InputError, match=re.escape("basis[2] is not Hermitian")):
            linalg.ensure_hermitian(stack, name="basis")

    def test_an_overflowing_hermitian_part_is_a_numerical_error(self):
        # diag(1e308, -1e308) is finite and Hermitian; 0.5 (h + h*) overflows.
        with pytest.raises(NumericalError, match="the Hermitian part of h overflows"):
            linalg.ensure_hermitian(np.diag([1e308, -1e308]), name="h")

    def test_map_images_pass_the_gate_at_their_tolerance(self, rebit, pauli):
        with pytest.raises(InputError, match="image 1 is not Hermitian"):
            ExtensionProblem.for_map(rebit, [pauli.I, np.array([[0.0, 1.0], [0.0, 0.0]]),
                                             pauli.Z])
        # A defect within for_map's 1e-10 is accepted and its target symmetrised.
        nearly = pauli.X + 1e-11 * np.array([[0.0, 1.0], [0.0, 0.0]])
        target = ExtensionProblem.for_map(rebit, [pauli.I, nearly, pauli.Z]).map_targets[1]
        assert np.array_equal(target, np.conj(target.T))
