import numpy as np
import pytest

from ucpext import catalog, dynamics, linalg, maps
from ucpext.systems import MatricialSystem

ACCEPTANCE_RESULTS = []


def record_acceptance(number, name, passed, detail=""):
    ACCEPTANCE_RESULTS.append((number, name, bool(passed), detail))
    assert passed, f"acceptance criterion {number} ({name}) failed: {detail}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, name, passed, detail in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if passed else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        terminalreporter.write_line(f"criterion {number:2d} {name}: {verdict}{suffix}")


@pytest.fixture(scope="session")
def pauli():
    return catalog.pauli_basis()


@pytest.fixture(scope="session")
def rebit():
    return catalog.rebit_system()


@pytest.fixture(scope="session")
def qubit():
    return catalog.qubit_system()


def random_gksl(d, rng, ham_scale=0.7, max_jumps=3, rate_range=(0.2, 1.5)):
    """A random certified GKSL generator on M_d."""
    ham = linalg.random_hermitian(d, rng, scale=ham_scale)
    jumps = []
    for _ in range(int(rng.integers(1, max_jumps + 1))):
        op = (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))) / np.sqrt(d)
        jumps.append((op, float(rng.uniform(*rate_range))))
    return dynamics.gksl_generator(d, ham, jumps)


def diagonal_damping():
    """Amplitude damping |0><1| at rate 1 restricted to span{I, Z}, a reducible V."""
    system = catalog.diagonal_system()
    gen = dynamics.gksl_generator(2, jumps=[(np.array([[0, 1], [0, 0]], dtype=complex), 1.0)])
    return dynamics.SubsystemGenerator.from_action(system,
                                                   [gen.op.apply(v) for v in system.basis])


def random_involution_lift(d, rng, mu_range=(0.6, 1.4)):
    """G = mu * (id - conjugation by a Hermitian involution W != +-I).

    Closed form: exp(tG) = a(t) id + b(t) conj_W with b(t) = (1 - e^{2 mu t})/2,
    so the semigroup fails complete positivity at every t > 0 and the scaled
    resolvent fails it for every lam > 2 mu; the generator is never ccp.
    """
    signs = np.ones(d)
    signs[: int(rng.integers(1, d))] = -1.0
    rng.shuffle(signs)
    u = linalg.random_unitary(d, rng)
    w = u @ np.diag(signs) @ np.conj(u.T)
    mu = float(rng.uniform(*mu_range))
    op = mu * (maps.identity_map(d) - maps.conjugation_map(w))
    return dynamics.certify(op), mu


def random_ucp_map(d, rng, n_kraus=3):
    """A random UCP map: Kraus operators renormalized so sum K* K = I."""
    ops = [rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(n_kraus)]
    total = sum(np.conj(k.T) @ k for k in ops)
    w, u = np.linalg.eigh(total)
    inv_sqrt = (u * (1.0 / np.sqrt(w))) @ np.conj(u.T)
    return maps.from_kraus(d, [k @ inv_sqrt for k in ops])


def near_reducible_system(eps):
    """span{I, E_00, E_22 + eps X_01} in M_3: blocks {0, 1} and {2}, with the
    last element coupling 0 and 1 by eps, so one commutator singular value is
    about sqrt(6) eps."""
    x01 = np.zeros((3, 3))
    x01[0, 1] = x01[1, 0] = 1.0
    return MatricialSystem.from_basis(
        [np.eye(3), np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 0.0, 1.0]) + eps * x01])
