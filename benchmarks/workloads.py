"""Seeded scenario generation for the benchmark workloads.

Each workload is a list of ``Case`` objects.  ``Case.scenario`` is the plain
JSON-ready scenario dict, the only thing the program under test sees.
``Case.truth`` holds the objects the scenario was generated from (transfer
matrices, Hamiltonians, system bases); ``checks.py`` computes its reference
from them, never from the solver's own residuals.

Conventions are the program's documented wire format, re-implemented here in
plain numpy so that the checks do not share code with what they check:
complex entries are ``[re, im]``; a map acts in the Heisenberg picture; its
transfer matrix acts on row-major vectorisations; its Choi matrix is
``sum_ij E_ij (x) phi(E_ij)``.

Every scenario is feasible by construction, so the expected status is always
``ok``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

# Budget for the shared_system ``validate`` scenarios (the CLI default is
# 50 000).  An exhausted 50 000-iteration problem at d = 4 costs about 8 s on
# a 2-core machine, so one validate could take 30 s; with this budget one
# exhausted validate at d = 4 costs about 2 s, a pass repeats within a run,
# and the solves stay budget-bound.
SHARED_VALIDATE_MAX_ITER = 2_500

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
REBIT_BASIS = (PAULI_I, PAULI_X, PAULI_Z)


@dataclass(frozen=True)
class Case:
    name: str
    scenario: dict
    check: str  # which reference check applies (see checks.CHECKS)
    truth: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Plain-numpy map algebra (Heisenberg picture, row-major vec)
# ---------------------------------------------------------------------------


def matrix_json(m) -> list:
    a = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in a]


def sandwich(x, y) -> np.ndarray:
    """Transfer matrix of B -> x B y."""
    return np.kron(x, y.T)


def gksl_transfer(ham, jumps) -> np.ndarray:
    """Transfer matrix of B -> i[H, B] + sum r (L* B L - {L* L, B} / 2)."""
    d = ham.shape[0]
    eye = np.eye(d)
    t = 1j * (sandwich(ham, eye) - sandwich(eye, ham))
    for op, rate in jumps:
        ld = op.conj().T
        ll = ld @ op
        t = t + rate * (sandwich(ld, op) - 0.5 * sandwich(ll, eye) - 0.5 * sandwich(eye, ll))
    return t


def kraus_transfer(kraus) -> np.ndarray:
    """Transfer matrix of B -> sum K* B K."""
    return sum(sandwich(k.conj().T, k) for k in kraus)


def apply_transfer(t, m) -> np.ndarray:
    d = m.shape[0]
    return (t @ m.reshape(d * d)).reshape(d, d)


def transfer_to_choi(t) -> np.ndarray:
    d = int(round(np.sqrt(t.shape[0])))
    return t.reshape(d, d, d, d).transpose(2, 0, 3, 1).reshape(d * d, d * d)


def choi_to_transfer(c) -> np.ndarray:
    d = int(round(np.sqrt(c.shape[0])))
    return c.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def real_symmetric_basis(d: int) -> list:
    """The catalog's basis of real symmetric d x d matrices, identity first."""
    basis = [np.eye(d, dtype=complex)]
    for i in range(d - 1):
        e = np.zeros((d, d), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    for i in range(d):
        for j in range(i + 1, d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = e[j, i] = 1.0
            basis.append(e)
    return basis


def random_unitary(d: int, rng) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_orthogonal(d: int, rng) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(d, d)))
    return q * np.sign(np.diag(r))


def real_gksl(d: int, rng, n_jumps: int):
    """A generator preserving the real symmetric matrices: H = i * (antisymmetric
    real), real jump operators.  Returns (H, [(L, rate), ...])."""
    a = rng.normal(size=(d, d))
    ham = 1j * (a - a.T) / 2.0
    jumps = [(rng.normal(size=(d, d)) / np.sqrt(d) + 0j, float(rng.uniform(0.2, 1.0)))
             for _ in range(n_jumps)]
    return ham, jumps


def gksl_json(ham, jumps) -> dict:
    return {"kind": "gksl", "H": matrix_json(ham),
            "jumps": [{"op": matrix_json(op), "rate": rate} for op, rate in jumps]}


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


# ---------------------------------------------------------------------------
# rebit_paper: the paper's d = 2 behaviours
# ---------------------------------------------------------------------------


def _rotation_ham(omega: float) -> np.ndarray:
    """i (omega/2) [Y, .] is the unique extension of the rebit rotation."""
    return 0.5 * omega * PAULI_Y


def _rebit_dissipative_action(delta: float) -> list:
    return [np.zeros((2, 2), dtype=complex), -delta * PAULI_X, -delta * PAULI_Z]


def rebit_paper(seed: int) -> list:
    """The counts place the median inside the twelve ``validate`` scenarios
    (about 11 ms each, the steadiest kind, with about 34 cheaper scenarios
    below and 34 dearer ones above) and the tail percentile (the 11th
    dearest) in the middle of the twenty ``demo-rebit`` runs, the dearest
    kind, so that neither is read where two kinds meet."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for i in range(20):
        opts = {"seed": _seed(rng), "starts": 8,
                "omega_param": float(rng.uniform(0.5, 2.0)),
                "delta_param": float(rng.uniform(0.5, 2.0))}
        cases.append(Case(f"demo-rebit#{i}", {"command": "demo-rebit", "options": opts},
                          "demo"))
    for i in range(6):
        omega = float(rng.uniform(0.5, 2.5))
        cases.append(Case(
            f"extend-group/rebit_rotation#{i}",
            {"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation",
             "options": {"omega_param": omega, "seed": _seed(rng), "starts": 8}},
            "group", {"ham": _rotation_ham(omega)}))
    for i in range(4):
        delta = float(rng.uniform(0.5, 2.0))
        cases.append(Case(
            f"extend-generator/rebit_dissipative#{i}",
            {"command": "extend-generator", "system": "rebit", "dynamics": "rebit_dissipative",
             "options": {"delta_param": delta, "seed": _seed(rng)}},
            "generator", {"basis": REBIT_BASIS, "action": _rebit_dissipative_action(delta)}))
    for i in range(8):
        delta = float(rng.uniform(0.5, 2.0))
        omega = float(10.0 * delta * rng.uniform(0.8, 1.6))
        cases.append(Case(
            f"extend-resolvent-family/rebit_dissipative#{i}",
            {"command": "extend-resolvent-family", "system": "rebit",
             "dynamics": "rebit_dissipative",
             "options": {"delta_param": delta, "omega": omega}},
            "resolvent_family",
            {"basis": REBIT_BASIS, "action": _rebit_dissipative_action(delta), "delta": delta}))
    for i in range(4):
        name = ("g1", "g2")[i % 2]
        delta = float(rng.uniform(0.5, 2.0))
        cases.append(Case(f"identities/{name}#{i}",
                          {"command": "identities", "dynamics": name,
                           "options": {"delta_param": delta}},
                          "identities"))
    for i in range(12):
        if i % 2 == 0:
            omega = float(rng.uniform(0.5, 2.5))
            dyn, opts = "rebit_rotation", {"omega_param": omega}
        else:
            dyn, opts = "rebit_dissipative", {"delta_param": float(rng.uniform(0.5, 2.0))}
        cases.append(Case(f"validate/rebit/{dyn}#{i}",
                          {"command": "validate", "system": "rebit", "dynamics": dyn,
                           "options": opts},
                          "validate"))
    for i in range(12):
        name = ("g1", "g2", "rotation_extension", "g1")[i % 4]
        key = "omega_param" if name == "rotation_extension" else "delta_param"
        cases.append(Case(f"check-ccp/{name}#{i}",
                          {"command": "check-ccp", "dynamics": name,
                           "options": {key: float(rng.uniform(0.5, 2.0))}},
                          "ccp", {"group": name == "rotation_extension"}))
    for i in range(8):
        omega = float(rng.uniform(0.5, 2.5))
        t = float(rng.uniform(0.2, 1.0))
        horizon = int(rng.integers(2, 5))
        cases.append(Case(
            f"extend-discrete/rebit_rotation#{i}",
            {"command": "extend-discrete", "system": "rebit", "dynamics": "rebit_rotation",
             "options": {"omega_param": omega, "time": t, "horizon": horizon}},
            "discrete",
            {"basis": REBIT_BASIS,
             "step": scipy.linalg.expm(t * gksl_transfer(_rotation_ham(omega), []))}))
    for i in range(6):
        system = ("rebit", "M2", "M2")[i % 3]
        cases.append(Case(f"rigidity-probe/{system}#{i}",
                          {"command": "rigidity-probe", "system": system,
                           "options": {"seed": _seed(rng)}},
                          "rigidity"))
    return cases


# ---------------------------------------------------------------------------
# extend_cold: independent problems on conjugated real symmetric systems
# ---------------------------------------------------------------------------

# Instances per (d, kind).  A pass must be short enough for a run to repeat
# it (about 4 s on a 2-core machine), and its cost must not hang on one
# instance.  Generators get a full-rank dissipator (d^2 real jumps), like the
# maps' full Kraus rank: with 2 or d jumps some feasible problems at d = 3 ran
# into the 200 000 budget, the false "not UCP" that shared_system measures
# (ROADMAP item 4).  The ten d = 4 maps (about 800 iterations each, the
# steadiest kind) sit in the middle of the latency ranking, with ten cheaper
# scenarios below and four dearer ones above, so the median and the tail
# percentile are both read inside that block.
#
# Left out: d = 6, where one map took 5.6 s and one generator 8.4 s (1.3 s of
# it assembly), so one pair would be the whole pass and no run could repeat
# it; the assembly probe of the traced run still covers d = 6.  Generators at
# d = 5, which took 1.7 to 3.8 s (2000 to 4000 iterations), a third of a pass
# from one instance.  Maps of the form exp(tG): at d = 3 (two jumps, t in
# [3, 5]) 24 instances took 0.06 to 6.4 s (550 to 56 000 iterations) and one
# failed, so one instance could move a pass by 70 %.
#
# Fixed: the extend_cold and shared_system dynamics do not depend on --seed.
COLD_POOL_SEED = 20220619
SHARED_POOL_SEED = 20220620
_COLD_COUNTS = {
    3: {"map-kraus": 6, "generator": 4},
    4: {"map-kraus": 10, "generator": 3},
    5: {"map-kraus": 1},
}


def extend_cold(seed: int) -> list:
    """Each problem comes from a fixed pool; the seed draws the unitary that
    conjugates its system and its dynamics alike.  Every scenario gets its
    own basis and its own numbers, so nothing is shared between scenarios or
    across seeds, while the work is the same on every seed: Dykstra's
    projections commute with the conjugation, and four unitaries gave the same
    iteration count, to the iteration, for maps and generators at d = 3 and
    d = 4.  Drawing the problems from the seed instead made a pass cost 5.7 to
    7.0 s (estimated from iteration counts over 11 seeds), a spread that would
    hide the changes the workload is meant to show."""
    pool = np.random.default_rng([COLD_POOL_SEED, 2])
    frames = np.random.default_rng([seed, 2])
    cases = []
    for d, counts in _COLD_COUNTS.items():
        for kind, count in counts.items():
            for i in range(count):
                u = random_unitary(d, frames)
                basis = [np.eye(d, dtype=complex)] + [
                    u @ v @ u.conj().T for v in real_symmetric_basis(d)[1:]]
                system = {"basis": [matrix_json(v) for v in basis]}
                name = f"{kind}/d{d}#{i}"
                if kind == "map-kraus":
                    raw = [pool.normal(size=(d, d)) + 1j * pool.normal(size=(d, d))
                           for _ in range(d * d)]
                    s = sum(k.conj().T @ k for k in raw)
                    w, v = np.linalg.eigh(s)
                    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
                    transfer = kraus_transfer([u @ k @ inv_sqrt @ u.conj().T for k in raw])
                    choi = transfer_to_choi(transfer)
                    scenario = {"command": "extend-map", "system": system,
                                "dynamics": {"kind": "choi",
                                             "super": {"d": d, "choi": matrix_json(choi)}}}
                    cases.append(Case(name, scenario, "map",
                                      {"basis": basis, "transfer": transfer}))
                    continue
                ham, jumps = real_gksl(d, pool, d * d)
                ham = u @ ham @ u.conj().T
                jumps = [(u @ op @ u.conj().T, rate) for op, rate in jumps]
                gen = gksl_transfer(ham, jumps)
                scenario = {"command": "extend-generator", "system": system,
                            "dynamics": gksl_json(ham, jumps)}
                cases.append(Case(name, scenario, "generator",
                                  {"basis": basis,
                                   "action": [apply_transfer(gen, v) for v in basis]}))
    return cases


# ---------------------------------------------------------------------------
# shared_system: many problems on the catalog real symmetric systems
# ---------------------------------------------------------------------------


def shared_system(seed: int) -> list:
    """One ``validate`` per system (each exhausted one costs a fixed budget),
    Hamiltonian-only ``extend-group`` on real_symmetric_3, and ``rigidity-probe``
    on both.  The ten real_symmetric_4 probes (one assembly, nine starts each,
    about 0.35 s) sit in the middle of the latency ranking, with the eight
    cheaper real_symmetric_3 probes below, so the median and the tail
    percentile are both read inside that block.

    As in extend_cold, the dynamics come from a fixed pool and the seed draws
    a real orthogonal O that conjugates them: O V O^T = V for the catalog
    systems, so the problems stay on the shared system and do the same work
    on every seed.  Drawn from the seed, a ``validate`` on real_symmetric_4
    cost 1.1 to 1.5 s, depending on which of its four problems failed first.
    The probes' start seeds come from the seed."""
    pool = np.random.default_rng([SHARED_POOL_SEED, 3])
    rng = np.random.default_rng([seed, 3])
    cases = []
    for d in (3, 4):
        o = random_orthogonal(d, rng)
        ham, jumps = real_gksl(d, pool, 2)
        ham = o @ ham @ o.T
        jumps = [(o @ op @ o.T, rate) for op, rate in jumps]
        cases.append(Case(
            f"validate/real_symmetric_{d}#0",
            {"command": "validate", "system": f"real_symmetric_{d}",
             "dynamics": gksl_json(ham, jumps),
             "options": {"max_iter": SHARED_VALIDATE_MAX_ITER}},
            "validate"))
    # extend-group stays at d = 3: its inner validation keeps the CLI's fixed
    # 50 000 budget, and at d = 4 one scenario in three took 4.6-6.8 s, which
    # alone moved a pass by half.
    for i in range(3):
        o = random_orthogonal(3, rng)
        ham, _ = real_gksl(3, pool, 0)
        ham = o @ ham @ o.T
        cases.append(Case(
            f"extend-group/real_symmetric_3#{i}",
            {"command": "extend-group", "system": "real_symmetric_3",
             "dynamics": gksl_json(ham, []), "options": {"seed": _seed(pool)}},
            "group", {"ham": ham}))
    for d, count in ((3, 8), (4, 10)):
        for i in range(count):
            cases.append(Case(f"rigidity-probe/real_symmetric_{d}#{i}",
                              {"command": "rigidity-probe", "system": f"real_symmetric_{d}",
                               "options": {"seed": _seed(rng)}},
                              "rigidity"))
    return cases


_WORKLOADS = {"rebit_paper": rebit_paper, "extend_cold": extend_cold,
             "shared_system": shared_system}


def generate(workload: str, seed: int) -> list:
    return _WORKLOADS[workload](seed)


def input_bytes(cases) -> bytes:
    """The program's inputs, serialised: equal bytes mean identical inputs."""
    return json.dumps([c.scenario for c in cases], sort_keys=True).encode()

