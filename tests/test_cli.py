import ast
import json
import os
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import ucpext
from conftest import random_ucp_map
from ucpext import catalog, cli, dynamics, extension, maps, serialize
from ucpext.cli import load_scenario_schema, main, run_scenario
from ucpext.errors import Failure, ResolventFamilyError

REPORT_SCHEMA = json.loads(
    (load_scenario_schema.__globals__["_SCHEMA_DIR"] / "report.schema.json").read_text())


def failure_types(cls=Failure):
    """Every subclass of ``cls``, at any depth."""
    return [sub for direct in cls.__subclasses__() for sub in (direct, *failure_types(direct))]


def write_scenario(tmp_path, scenario, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(scenario))
    return str(path)


def strict_json(text):
    """Parse ``text`` as JSON proper: NaN and the infinities are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


# Amplitude damping: one jump |0><1| at rate 1, which leaves the rebit invariant.
AMPLITUDE_DAMPING_VALIDATE = {
    "command": "validate", "system": "rebit",
    "dynamics": {"kind": "gksl",
                 "jumps": [{"op": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "rate": 1.0}]}}
# Four named samples: the lambdas and times the counterexample search also takes.
FOUR_SAMPLES = {"lambdas": [1.0, 4.0], "times": [0.5, 1.5]}
# A JSON integer too large for a float: 1 followed by 400 zeros.
HUGE = "1" + "0" * 400


class NoWork(dict):
    """A command table that fails any scenario that gets past the gate."""

    def __getitem__(self, command):
        raise AssertionError(f"{command} started")


def pauli_generator_validate():
    """ROADMAP item 13's false positive: ``validate`` on M2 of the Pauli
    generator G(B) = sum_i gamma_i (s_i B s_i - B), gamma = (1, 1, -0.5), as
    Choi dynamics.  Its semigroup is not CP at t = 0.5, but each of these
    samples extends to a UCP map."""
    p = catalog.pauli_basis()
    rates = (1.0, 1.0, -0.5)
    op = maps.from_action(2, lambda b: sum(rate * (s @ b @ s - b)
                                           for rate, s in zip(rates, (p.X, p.Y, p.Z))))
    return {"command": "validate", "system": "M2",
            "dynamics": {"kind": "choi", "super": serialize.superop_to_json(op)},
            "options": {"times": [1.0, 1.5], "lambdas": [0.1]}}


def not_ccp_group_generator():
    """G_H + (B -> B - B^T), H the rotation generator -i E_12 + i E_21, as
    Choi dynamics.  The added map vanishes on real symmetric matrices, so on
    real_symmetric_3 this restricts to the group generator of G_H; -P SWAP P
    in its Choi matrix makes it not ccp, so ``extend-group`` gets no
    certified extension to start from."""
    ham = np.array([[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    op = maps.SuperOp(3, dynamics.gksl_generator(3, ham).op.choi
                      + maps.from_action(3, lambda b: b - b.T).choi)
    return {"kind": "choi", "super": serialize.superop_to_json(op)}


class TestRunScenario:
    def test_check_cp_on_choi_map(self):
        gen_report = run_scenario({"command": "check-cp",
                                   "dynamics": "g1",
                                   "options": {"time": 1.0}})
        assert gen_report["status"] == "ok"
        assert gen_report["results"]["is_cp"] is True
        assert gen_report["results"]["is_ucp"] is True

    def test_check_cp_of_the_transpose_map_has_a_witness(self):
        transpose = serialize.superop_to_json(maps.transpose_map(2))
        report = run_scenario({"command": "check-cp",
                               "dynamics": {"kind": "choi", "super": transpose}})
        assert report["status"] == "ok"
        assert report["results"]["is_cp"] is False
        witness = report["results"]["witness"]
        assert witness["level"] == 2
        assert np.shape(witness["matrix"]) == (4, 4, 2)
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_check_ccp(self):
        report = run_scenario({"command": "check-ccp", "dynamics": "g2"})
        assert report["status"] == "ok"
        assert report["results"]["ccp"] is True
        assert report["results"]["certified"] is True
        assert abs(report["results"]["spectral_bound"]) <= 1e-8

    def test_validate(self):
        report = run_scenario({"command": "validate", "system": "rebit",
                               "dynamics": "rebit_dissipative"})
        assert report["status"] == "ok"
        assert report["results"]["valid"] is True

    def test_evolve_and_resolvent(self):
        report = run_scenario({"command": "evolve", "dynamics": "g1",
                               "options": {"times": [0.5, 1.0]}})
        assert report["status"] == "ok"
        assert all(e["is_ucp"] for e in report["results"]["evolutions"])
        report = run_scenario({"command": "resolvent", "dynamics": "g1",
                               "options": {"lambdas": [0.5, 2.0]}})
        assert report["status"] == "ok"
        assert all(e["scaled_is_ucp"] for e in report["results"]["resolvents"])

    def test_identities_default_grid(self):
        report = run_scenario({"command": "identities", "system": "M2",
                               "dynamics": "g1"})
        assert report["status"] == "ok"
        assert report["results"]["hilbert_worst"] <= 1e-9
        assert report["results"]["laplace_worst"] <= 1e-6

    def test_identities_solve_each_resolvent_once(self, monkeypatch):
        lams = []
        resolvent = dynamics.resolvent
        monkeypatch.setattr(dynamics, "resolvent",
                            lambda gen, lam: lams.extend(np.atleast_1d(lam).tolist())
                            or resolvent(gen, lam))
        report = run_scenario({"command": "identities", "system": "M2", "dynamics": "g1"})
        assert report["status"] == "ok"
        # The default grid of five and the Laplace checks' 0.5, 1.0 and 2.0.
        assert sorted(lams) == sorted({*np.linspace(0.5, 4.0, 5).tolist(), 1.0, 2.0})

    def test_validate_amplitude_damping(self):
        report = run_scenario({**AMPLITUDE_DAMPING_VALIDATE, "options": FOUR_SAMPLES})
        assert report["status"] == "ok"
        assert [c["feasible"] for c in report["results"]["checks"]] == [True] * 4

    def test_validate_starts_from_the_generator_s_samples(self):
        # The generator is certified, so the generator solve starts from it
        # and each named sample from the sample of the certified result; the
        # solver confirms each in one evaluation.
        report = run_scenario({**AMPLITUDE_DAMPING_VALIDATE, "options": FOUR_SAMPLES})
        assert report["results"]["generator"]["iterations"] == 1
        assert [c["residuals"]["iterations"] for c in report["results"]["checks"]] == [1] * 4

    def test_an_irreducible_v_is_decided_by_the_generator_alone(self):
        # The rebit is irreducible: one generator solve decides every t and
        # lambda, and no sample is solved unless named.
        report = run_scenario(AMPLITUDE_DAMPING_VALIDATE)
        assert report["status"] == "ok"
        results = report["results"]
        assert results["checks"] == [] and results["message"] == "UCP subsystem semigroup"
        assert results["generator"]["iterations"] == 1 and results["generator"]["converged"]
        jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("samples, kinds", [
        ({"times": [], "lambdas": [1.0, 4.0]}, ["resolvent", "resolvent"]),
        ({"lambdas": [], "times": [0.5, 1.5]}, ["evolution", "evolution"]),
    ], ids=["resolvent-only", "evolution-only"])
    def test_one_sided_validation(self, samples, kinds):
        report = run_scenario({**AMPLITUDE_DAMPING_VALIDATE, "options": samples})
        assert report["status"] == "ok"
        assert [c["kind"] for c in report["results"]["checks"]] == kinds
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_validation_without_samples_on_a_reducible_v(self):
        # On a reducible V (span{I, Z}) the generator extension decides too,
        # from the certified generator given, in one evaluation.
        report = run_scenario({**AMPLITUDE_DAMPING_VALIDATE, "system": "diagonal",
                               "options": {"times": [], "lambdas": []}})
        assert report["status"] == "ok"
        results = report["results"]
        assert results["checks"] == [] and results["message"] == "UCP subsystem semigroup"
        assert results["generator"]["iterations"] == 1 and results["generator"]["converged"]

    @pytest.mark.parametrize("command, key", [("evolve", "times"), ("resolvent", "lambdas")])
    def test_an_empty_sample_grid_is_invalid_input(self, command, key):
        # The schema allows empty lists for validate's sake; these commands
        # have only the one grid, so an empty one still judges nothing.
        report = run_scenario({"command": command, "dynamics": "g1", "options": {key: []}})
        assert report["status"] == "invalid-input"
        assert report["error"]["message"] == f"no samples: '{key}' is empty"

    def test_sampled_false_positive_is_not_ucp(self):
        # None of the named samples fails, but the generator solve finds no
        # ccp extension, and the counterexample search finds exp(0.5 G).
        report = run_scenario(pauli_generator_validate())
        assert report["status"] == "failed"
        results = report["results"]
        assert results["message"] == "not a UCP subsystem semigroup"
        assert results["generator"]["converged"] is False
        named, failing = results["checks"][:3], results["checks"][3:]
        assert all(check["feasible"] for check in named)
        (failing,) = failing
        assert failing["kind"] == "evolution" and failing["parameter"] <= 0.5
        assert failing["feasible"] is False
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_an_uncertified_generator_keeps_the_cold_start(self, qubit):
        scenario = pauli_generator_validate()
        gen = serialize.generator_from_json(scenario["dynamics"])
        assert not gen.certificates.ccp
        sub = dynamics.SubsystemGenerator.from_action(
            qubit, [gen.op.apply(v) for v in qubit.basis])
        cold = dynamics.validate_subsystem_semigroup(sub, sample_ts=(1.0, 1.5),
                                                     sample_lambdas=(0.1,))
        checks = run_scenario(scenario)["results"]["checks"]
        assert json.dumps(checks, sort_keys=True) == json.dumps(list(cold.checks),
                                                                sort_keys=True)

    def test_check_ccp_of_extended_generator(self):
        extended = run_scenario({"command": "extend-generator", "system": "rebit",
                                 "dynamics": "rebit_rotation", "options": {"seed": 1}})
        assert extended["status"] == "ok"
        report = run_scenario({"command": "check-ccp",
                               "dynamics": extended["results"]["generator"]})
        assert report["status"] == "ok"
        assert report["results"]["certified"] is True
        assert abs(report["results"]["spectral_bound"]) <= 1e-8

    def test_extend_group_matches_commutator_generator(self, pauli):
        report = run_scenario({"command": "extend-group", "system": "rebit",
                               "dynamics": "rebit_rotation",
                               "options": {"omega_param": 1.0}})
        assert report["status"] == "ok"
        gen = serialize.generator_from_json(report["results"]["generator"])
        expected = 1j * 0.5 * (pauli.Y @ pauli.X - pauli.X @ pauli.Y)
        np.testing.assert_allclose(gen.op.apply(pauli.X), expected, atol=1e-6)

    def test_seeded_group_solves_from_the_deterministic_start(self):
        # The seed only draws the cross-check seeds: with no starts, a seeded
        # run is the unseeded one, bit for bit.
        reports = [run_scenario({"command": "extend-group", "system": "rebit",
                                 "dynamics": "rebit_rotation", "options": options})
                   for options in ({}, {"seed": 7})]
        assert [r["status"] for r in reports] == ["ok", "ok"]
        unseeded, seeded = (r["results"] for r in reports)
        assert seeded["generator"] == unseeded["generator"]
        assert seeded["report"] == unseeded["report"]
        assert seeded["report"]["iterations"] == 1

    @pytest.mark.parametrize("command, verdicts", [
        ("check-ccp", lambda r: [r["ccp"], r["certified"], r["group_certificate"]]),
        ("evolve", lambda r: [r["certified"], r["evolutions"][0]["is_ucp"]]),
        ("resolvent", lambda r: [r["certified"], r["resolvents"][0]["scaled_is_ucp"]]),
    ])
    def test_certificates_at_the_scenario_tol(self, command, verdicts):
        # -1e-6 g1 has a ccp eigenvalue of -1e-6: not ccp at the default tol,
        # ccp at tol 1e-3, and every verdict of a report is read at one tol.
        dynamics_spec = {"kind": "choi",
                         "super": serialize.superop_to_json(-1e-6 * catalog.g1(1.0).op)}
        default, loose = (run_scenario({"command": command, "dynamics": dynamics_spec,
                                        "options": options})
                          for options in ({}, {"tol": 1e-3}))
        assert default["status"] == loose["status"] == "ok"
        assert not any(verdicts(default["results"]))
        assert all(verdicts(loose["results"]))

    @pytest.mark.parametrize("command, options", [
        ("evolve", {"times": [-1.0]}), ("check-cp", {"time": -1.0})])
    def test_negative_times_at_the_scenario_tol(self, command, options):
        # -1e-6 g1 is ccp at tol 1e-3 only, as check-ccp's group_certificate
        # says: exp(-t 1e-6 g1) is defined at that tol, and refused at the default.
        dynamics_spec = {"kind": "choi",
                         "super": serialize.superop_to_json(1e-6 * catalog.g1(1.0).op)}
        default, loose = (run_scenario({"command": command, "dynamics": dynamics_spec,
                                        "options": {**options, **tol}})
                          for tol in ({}, {"tol": 1e-3}))
        assert default["status"] == "invalid-input"
        assert "group certificate" in default["error"]["message"]
        assert loose["status"] == "ok"
        certificate = run_scenario({"command": "check-ccp", "dynamics": dynamics_spec,
                                    "options": {"tol": 1e-3}})
        assert certificate["results"]["group_certificate"] is True

    def test_extend_generator_seeds_differ_on_y(self, pauli):
        reports = [run_scenario({"command": "extend-generator", "system": "rebit",
                                 "dynamics": "rebit_dissipative",
                                 "options": {"seed": seed}})
                   for seed in (1, 7)]
        assert all(r["status"] == "ok" for r in reports)
        gens = [serialize.generator_from_json(r["results"]["generator"])
                for r in reports]
        diff = np.linalg.norm(gens[0].op.apply(pauli.Y) - gens[1].op.apply(pauli.Y))
        assert diff > 1e-3

    def test_extend_resolvent_family(self):
        report = run_scenario({"command": "extend-resolvent-family", "system": "rebit",
                               "dynamics": "rebit_rotation",
                               "options": {"omega": 4.0}})
        assert report["status"] == "ok"
        assert report["results"]["omega"] == 4.0
        assert len(report["results"]["family"]) == 8

    def test_extend_discrete(self):
        report = run_scenario({"command": "extend-discrete", "system": "rebit",
                               "dynamics": "rebit_rotation",
                               "options": {"time": 0.3, "horizon": 3}})
        assert report["status"] == "ok"
        assert len(report["results"]["powers"]) == 4

    def test_rigidity_probe(self):
        report = run_scenario({"command": "rigidity-probe", "system": "span_I",
                               "options": {"starts": 4, "seed": 0}})
        assert report["status"] == "ok"
        assert report["results"]["all_identity"] is False
        assert report["results"]["certificate"] == {"commutant_dim": 4, "commutant_gap": None}

    def test_certificate_blocks(self):
        probe = run_scenario({"command": "rigidity-probe", "system": "rebit"})["results"]
        assert probe["all_identity"] is True and probe["n_runs"] == 0
        assert probe["certificate"]["commutant_dim"] == 1
        group = run_scenario({"command": "extend-group", "system": "rebit",
                              "dynamics": "rebit_rotation"})
        assert group["status"] == "ok"
        certificate = group["results"]["certificate"]
        assert set(certificate) == {"commutant_dim", "commutant_gap", "inverse_witness"}
        assert certificate["commutant_dim"] == 1
        assert certificate["inverse_witness"] <= 1e-6

    def test_inline_system_and_gksl_dynamics(self, pauli):
        scenario = {
            "command": "extend-generator",
            "system": {"basis": [serialize.matrix_to_json(pauli.I),
                                 serialize.matrix_to_json(pauli.X),
                                 serialize.matrix_to_json(pauli.Z)]},
            "dynamics": {"kind": "gksl", "H": None,
                         "jumps": [{"op": serialize.matrix_to_json(pauli.X), "rate": 0.5},
                                   {"op": serialize.matrix_to_json(pauli.Z), "rate": 0.5}]},
        }
        report = run_scenario(scenario)
        assert report["status"] == "ok"

    @pytest.mark.parametrize("scenario, as_floats", [
        ({"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"starts": 2}}, {"starts": 2.0}),
        ({"command": "extend-map", "system": "rebit", "dynamics": "g1",
          "options": {"max_iter": 50, "seed": 3}}, {"max_iter": 50.0, "seed": 3.0}),
        ({"command": "extend-discrete", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"horizon": 2}}, {"horizon": 2.0}),
        ({"command": "identities", "dynamics": "g1", "options": {"panels": 10}},
         {"panels": 10.0}),
    ])
    def test_integer_valued_floats_decode_as_integers(self, scenario, as_floats):
        given_as_floats = run_scenario({**scenario, "options": as_floats})
        assert given_as_floats["status"] == "ok"
        assert given_as_floats["provenance"]["options"] == as_floats
        assert given_as_floats["results"] == run_scenario(scenario)["results"]

    def test_unset_options_take_the_library_defaults(self):
        report = run_scenario({"command": "validate", "system": "rebit",
                               "dynamics": "rebit_dissipative"})
        verdict = dynamics.validate_subsystem_semigroup(catalog.rebit_dissipative(1.0))
        generator = {k: v for k, v in asdict(verdict.generator).items() if k != "termination"}
        assert report["results"] == {"valid": verdict.valid, "message": verdict.message,
                                     "checks": list(verdict.checks), "generator": generator}
        report = run_scenario({"command": "rigidity-probe", "system": "M2"})
        assert report["results"] == asdict(extension.rigidity_probe(catalog.qubit_system()))

    def test_restricting_incompatible_generator_is_invalid_input(self):
        # The rotation moves Z out of span{I, Z}, so it cannot be restricted
        # to the diagonal system.
        report = run_scenario({"command": "extend-generator", "system": "diagonal",
                               "dynamics": "rotation_extension"})
        assert report["status"] == "invalid-input"


class TestFailuresAndExitCodes:
    def test_unknown_command_schema_violation(self):
        report = run_scenario({"command": "bogus"})
        assert report["status"] == "invalid-input"
        assert "schema" in report["error"]["message"]

    def test_unknown_option_key(self):
        report = run_scenario({"command": "check-ccp", "dynamics": "g1",
                               "options": {"tolerance": 1e-8}})
        assert report["status"] == "invalid-input"

    def test_start_scale_is_not_an_option(self):
        report = run_scenario({"command": "extend-map", "system": "rebit",
                               "dynamics": "g1", "options": {"start_scale": 1.0}})
        assert report["status"] == "invalid-input"
        assert report["error"]["message"] == "unknown option keys: ['start_scale']"

    def test_group_on_dissipative_fails(self):
        report = run_scenario({"command": "extend-group", "system": "rebit",
                               "dynamics": "rebit_dissipative"})
        assert report["status"] == "failed"
        assert report["error"]["type"] == "GroupExtensionError"

    def test_group_on_reducible_system_claims_no_uniqueness(self, tmp_path, capsys):
        # A = 0 on the diagonal system (H = Z): M_2 is not the envelope of a
        # reducible V, so the failure must not cite rigidity.
        z = [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]]
        scenario = {"command": "extend-group", "system": "diagonal",
                    "dynamics": {"kind": "gksl", "H": z}}
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["status"] == "failed"
        assert report["error"]["type"] == "GroupExtensionError"
        assert "uniqueness in M_d is not claimed" in report["error"]["message"]
        assert "contradicting rigidity" not in report["error"]["message"]

    def test_resolvent_family_failure_keeps_omega_and_failure(self, monkeypatch):
        attempts = [{"omega": 4.0, "failure": "not ccp", "defect": 0.5},
                    {"omega": 8.0, "failure": "not ccp", "grid": [1.0, 2.0]}]

        def fail(*args, **kwargs):
            raise ResolventFamilyError("no ccp generator on the grid", attempts=attempts)

        monkeypatch.setattr(extension, "extend_via_resolvent_family", fail)
        report = run_scenario({"command": "extend-resolvent-family", "system": "rebit",
                               "dynamics": "rebit_rotation"})
        assert report["status"] == "failed"
        assert report["results"] == {}
        assert report["error"] == {
            "type": "ResolventFamilyError", "message": "no ccp generator on the grid",
            "advice": "extend_generator",
            "attempts": [{"omega": 4.0, "failure": "not ccp"},
                         {"omega": 8.0, "failure": "not ccp"}]}
        jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("error_type", [*failure_types(), np.linalg.LinAlgError],
                             ids=lambda cls: cls.__name__)
    def test_every_failure_is_one_failed_report(self, tmp_path, capsys, monkeypatch,
                                                error_type):
        exc = error_type("boom")

        def fail(scenario, options):
            raise exc

        monkeypatch.setitem(cli._HANDLERS, "check-ccp", fail)
        scenario = {"command": "check-ccp", "dynamics": "g1"}
        report = run_scenario(scenario)
        assert report["status"] == "failed"
        assert report["results"] == {}
        assert report["error"] == {"type": error_type.__name__, "message": "boom",
                                   **getattr(exc, "fields", {})}
        jsonschema.validate(report, REPORT_SCHEMA)
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 1
        assert strict_json(capsys.readouterr().out) == report

    def test_the_library_failures_share_one_base(self):
        assert {"NumericalError", "ExtensionInfeasible", "GroupExtensionError",
                "ResolventFamilyError", "Undecided"} <= {cls.__name__ for cls in failure_types()}

    def test_every_failure_is_a_package_attribute(self):
        for cls in (Failure, *failure_types()):
            assert getattr(ucpext, cls.__name__, None) is cls, cls.__name__

    def test_an_uncomputable_cross_check_is_undecided(self, tmp_path, capsys):
        # g1 generates a UCP semigroup, and its certified extension decides
        # so; the named sample lambda = 1e-300 has a resolvent of condition
        # number 1e300, which is no evidence against it.
        scenario = {"command": "validate", "system": "rebit", "dynamics": "g1",
                    "options": {"lambdas": [1e-300]}}
        report = run_scenario(scenario)
        assert report["status"] == "failed" and report["results"] == {}
        error = report["error"]
        assert error["type"] == "Undecided" and error["reason"] == "cross-check not computed"
        assert "resolvent sample at lambda = 1e-300" in error["message"]
        assert "not a UCP" not in json.dumps(report)
        jsonschema.validate(report, REPORT_SCHEMA)
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 1
        assert strict_json(capsys.readouterr().out) == report

    def test_infeasible_discrete_step(self, tmp_path, capsys):
        transpose = serialize.superop_to_json(maps.transpose_map(2))
        scenario = {"command": "extend-discrete", "system": "M2",
                    "dynamics": {"kind": "choi", "super": transpose}}
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 1
        report = strict_json(capsys.readouterr().out)
        assert report["status"] == "failed"
        assert report["error"]["type"] == "ExtensionInfeasible"
        assert report["error"]["message"].startswith(
            "the given map is not extendably UCP on V")
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_a_budget_stopped_discrete_step_is_undecided(self, tmp_path, capsys):
        # A UCP step on real_symmetric_3 whose solve needs more than 5
        # evaluations: the budget stop is no evidence that it does not extend.
        phi = random_ucp_map(3, np.random.default_rng(5), n_kraus=9)
        scenario = {"command": "extend-discrete", "system": "real_symmetric_3",
                    "dynamics": {"kind": "choi", "super": serialize.superop_to_json(phi)}}
        assert run_scenario(scenario)["status"] == "ok"
        scenario["options"] = {"max_iter": 5}
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 1
        report = strict_json(capsys.readouterr().out)
        assert report["status"] == "failed"
        assert report["error"]["type"] == "Undecided"
        assert report["error"]["reason"] == "budget exhausted"
        assert "not extendably UCP" not in report["error"]["message"]
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_resolvent_family_exhausts_its_doublings(self):
        # B -> -(B - tr B I / 3) restricted to real_symmetric_3: no doubling of
        # omega recovers a ccp generator (see test_extension's direct route).
        depolarizing = maps.from_action(3, lambda b: -(b - np.trace(b) * np.eye(3) / 3.0))
        report = run_scenario({
            "command": "extend-resolvent-family", "system": "real_symmetric_3",
            "dynamics": {"kind": "choi", "super": serialize.superop_to_json(depolarizing)},
            "options": {"omega": 8.0}})
        assert report["status"] == "failed"
        error = report["error"]
        assert error["type"] == "ResolventFamilyError"
        assert error["advice"] == "extend_generator"
        assert [a["omega"] for a in error["attempts"]] == [8.0 * 2**k for k in range(11)]
        assert error["message"] == (
            "no conditionally completely positive generator recovered up to omega = "
            "8192.0 (10 doublings from 8.0); fall back to extend_generator")
        jsonschema.validate(report, REPORT_SCHEMA)

    def test_status_is_written_in_one_place(self):
        # Handlers return a verdict; only run_scenario turns it into a status,
        # and only _EXIT_BY_STATUS turns a status into an exit code.
        tree = ast.parse(Path(cli.__file__).read_text())
        owners = set()
        for stmt in tree.body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Constant) and node.value in ("ok", "failed"):
                    owners.add(ast.unparse(stmt.targets[0]) if isinstance(stmt, ast.Assign)
                               else getattr(stmt, "name", ast.unparse(stmt)))
        assert owners == {"run_scenario", "_EXIT_BY_STATUS"}

    @pytest.mark.parametrize("omega_param", [
        1e4, 1e6,
        pytest.param(1e8, marks=pytest.mark.xfail(strict=True, reason=(
            "the residuals are absolute, so a valid group generator fails at "
            "this scale (ROADMAP item 6, generator scale)")))])
    def test_rotation_generator_extends_at_any_scale(self, omega_param):
        report = run_scenario({"command": "extend-generator", "system": "rebit",
                               "dynamics": "rebit_rotation",
                               "options": {"omega_param": omega_param}})
        assert report["status"] == "ok"

    def test_scenario_not_an_object_is_invalid_input(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        capsys.readouterr()
        assert main(["run", str(path)]) == 2
        reports = [strict_json(capsys.readouterr().out)]
        # The library entry refuses any non-object the same way, without a crash.
        reports += [strict_json(json.dumps(run_scenario(value))) for value in ([1, 2], "x", None)]
        for report in reports:
            assert report["status"] == "invalid-input"
            assert report["command"] is None
            assert report["error"]["message"].endswith("is not of type 'object'")
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_exit_codes(self, tmp_path):
        ok = write_scenario(tmp_path, {"command": "check-ccp", "dynamics": "g1"}, "a.json")
        bad = write_scenario(tmp_path, {"command": "bogus"}, "b.json")
        fail = write_scenario(tmp_path, {"command": "extend-group", "system": "rebit",
                                         "dynamics": "rebit_dissipative"}, "c.json")
        assert main(["run", ok]) == 0
        assert main(["run", bad]) == 2
        assert main(["run", fail]) == 1
        assert main(["run", "--batch", ok, bad, fail]) == 2
        assert main(["run", str(tmp_path / "missing.json")]) == 2

    @pytest.mark.parametrize("text, where", [
        ('{"command": "validate", "system": "rebit", "dynamics": "rebit_rotation", '
         '"options": {"times": [NaN]}}', "options/times/0"),
        ('{"command": "validate", "system": "rebit", "dynamics": "rebit_rotation", '
         '"options": {"lambdas": [Infinity]}}', "options/lambdas/0"),
        ('{"command": "check-ccp", "dynamics": "g1", "options": {"tol": NaN}}', "options/tol"),
        ('{"command": "check-ccp", "dynamics": "g1", "options": {"seed": NaN}}', "options/seed"),
        ('{"command": "check-ccp", "dynamics": {"kind": "gksl", "jumps": [{"op": '
         '[[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "rate": -Infinity}]}}', "dynamics/jumps/0/rate"),
        pytest.param('{"command": "check-ccp", "dynamics": "g1", "options": {"tol": %s}}' % HUGE,
                     "options/tol", id="huge-tol"),
        pytest.param('{"command": "validate", "system": "rebit", "dynamics": "rebit_rotation", '
                     '"options": {"times": [%s]}}' % HUGE, "options/times/0", id="huge-time"),
        pytest.param('{"command": "demo-rebit", "options": {"delta_param": %s}}' % HUGE,
                     "options/delta_param", id="huge-delta-param"),
    ])
    def test_non_finite_numbers_are_invalid_input(self, tmp_path, capsys, text, where):
        # Python's json reads NaN and Infinity; the gate refuses them, and the
        # report, which echoes the options, stays strict JSON.
        path = tmp_path / "scenario.json"
        path.write_text(text)
        capsys.readouterr()
        assert main(["run", str(path)]) == 2
        out = capsys.readouterr()
        report = strict_json(out.out)
        assert report["status"] == "invalid-input"
        assert f"at {where} is not a finite number" in report["error"]["message"]
        jsonschema.validate(report, REPORT_SCHEMA)
        assert out.err == ""

    def test_non_finite_flag_is_invalid_input(self, tmp_path, capsys):
        path = write_scenario(tmp_path, {"command": "check-ccp", "dynamics": "g1"})
        capsys.readouterr()
        assert main(["run", "--tol", "nan", path]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["status"] == "invalid-input"
        assert report["provenance"]["options"] == {"tol": "NaN"}
        jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("scenario", [
        {"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation"},
        {"command": "rigidity-probe", "system": "real_symmetric_3"},
    ])
    def test_zero_starts_is_the_default(self, scenario):
        report = run_scenario({**scenario, "options": {"starts": 0}})
        assert report["status"] == "ok"
        assert report["results"] == run_scenario(scenario)["results"]

    @pytest.mark.parametrize("starts", [0, 1])
    def test_demo_needs_two_starts(self, capsys, starts):
        assert main(["demo-rebit", "--starts", str(starts)]) == 2
        report = strict_json(capsys.readouterr().out)
        assert report["status"] == "invalid-input"
        assert "at least 2 starts" in report["error"]["message"]
        jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("key, scenario", [
        ("starts", {"command": "demo-rebit"}),
        ("starts", {"command": "rigidity-probe", "system": "rebit"}),
        ("starts", {"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation"}),
        ("panels", {"command": "identities", "dynamics": "g1"}),
        ("horizon", {"command": "extend-discrete", "system": "rebit",
                     "dynamics": "rebit_rotation"}),
    ], ids=["demo-starts", "probe-starts", "group-starts", "panels", "horizon"])
    def test_loop_counts_above_their_maximum_are_refused_before_any_work(
            self, monkeypatch, key, scenario):
        # Each count sets the length of a loop: the starts a multi-start
        # draws and solves, the panels of the Laplace quadrature, the powers
        # an extend-discrete report carries.  The gate bounds each, so no
        # value of it can hang a run.
        maximum = cli._option_schemas()[key]["maximum"]
        cli.validate_scenario({**scenario, "options": {key: maximum}})
        monkeypatch.setattr(cli, "_HANDLERS", NoWork())
        for value, message in [(maximum + 1, f"is greater than the maximum of {maximum}"),
                               (int(HUGE), f"at options/{key} is not a finite number")]:
            report = run_scenario({**scenario, "options": {key: value}})
            assert report["status"] == "invalid-input"
            assert report["error"]["message"].endswith(message), report["error"]
            jsonschema.validate(report, REPORT_SCHEMA)

    def test_huge_start_flags_are_refused_before_any_work(self, tmp_path, capsys, monkeypatch):
        path = write_scenario(tmp_path, {"command": "rigidity-probe", "system": "rebit"})
        monkeypatch.setattr(cli, "_HANDLERS", NoWork())
        capsys.readouterr()
        for argv in (["demo-rebit", "--starts", HUGE], ["run", "--starts", HUGE, path]):
            assert main(argv) == 2
            assert json.loads(capsys.readouterr().out)["status"] == "invalid-input"

    @pytest.mark.parametrize("options", [5, "ab", [1, 2], None])
    def test_options_not_an_object(self, tmp_path, capsys, options):
        scenario = {"command": "check-ccp", "dynamics": "g1", "options": options}
        report = run_scenario(scenario)
        assert report["status"] == "invalid-input"
        assert report["provenance"]["options"] == {}
        jsonschema.validate(report, REPORT_SCHEMA)
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        for argv in (["run", path], ["run", "--seed", "3", path]):
            assert main(argv) == 2
            report = json.loads(capsys.readouterr().out)
            assert report["status"] == "invalid-input"
            assert report["provenance"]["options"] == {}
            jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("scenario", [
        {"command": "extend-generator", "system": "rebit", "dynamics": "rebit_rotation"},
        {"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation"},
        {"command": "rigidity-probe", "system": "rebit", "options": {"starts": 2}},
        {"command": "demo-rebit"},
    ])
    def test_negative_seed_is_invalid_input(self, tmp_path, capsys, scenario):
        scenario = {**scenario, "options": {**scenario.get("options", {}), "seed": -1}}
        report = run_scenario(scenario)
        assert report["status"] == "invalid-input"
        assert report["error"]["type"] == "input"
        assert "minimum" in report["error"]["message"]
        jsonschema.validate(report, REPORT_SCHEMA)
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 2
        assert json.loads(capsys.readouterr().out) == report

    @pytest.mark.parametrize("seed", ["abc", 2.5, True, [1], float("inf")])
    def test_non_integer_seed_is_echoed_in_the_options_only(self, seed):
        report = run_scenario({"command": "check-ccp", "dynamics": "g1",
                               "options": {"seed": seed}})
        assert report["status"] == "invalid-input"
        assert report["provenance"]["seed"] is None
        assert report["provenance"]["options"] == {"seed": cli._json_safe(seed)}
        jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("scenario", [
        {"command": "rigidity-probe", "system": "rebit"},
        {"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation"},
        {"command": "demo-rebit"},
    ])
    def test_null_seed_is_unset(self, tmp_path, capsys, scenario):
        unseeded = run_scenario(scenario)
        assert unseeded["status"] == "ok"
        null_seed = {**scenario, "options": {"seed": None}}
        report = run_scenario(null_seed)
        assert report["provenance"]["seed"] is None
        reports = [report]
        path = write_scenario(tmp_path, null_seed)
        capsys.readouterr()
        assert main(["run", path]) == 0
        reports.append(json.loads(capsys.readouterr().out))
        for report in reports:
            assert report["status"] == "ok"
            assert report["results"] == unseeded["results"]
            jsonschema.validate(report, REPORT_SCHEMA)

    @pytest.mark.parametrize("scenario, message", [
        ({"command": "rigidity-probe", "system": "real_symmetric_1000000000"},
         "d must be at most 16, got 1000000000"),
        ({"command": "rigidity-probe", "system": "real_symmetric_+3"},
         "bad system name 'real_symmetric_+3'"),
        ({"command": "extend-resolvent-family", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"omega": 4.0, "grid": [1.0, 4.000000000000001]}},
         "grid must be a nonempty subset of (0, omega]"),
    ], ids=["system-above-the-ceiling", "signed-system-dimension", "grid-above-omega"])
    def test_refused_before_any_solve(self, tmp_path, capsys, monkeypatch, scenario, message):
        monkeypatch.setattr(extension, "multi_start", None)  # no solve may run
        report = run_scenario(scenario)
        assert report["status"] == "invalid-input"
        assert report["error"]["message"] == message
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 2

    @pytest.mark.parametrize("command, system", [
        ("check-cp", None), ("extend-map", "rebit"), ("check-ccp", None)])
    def test_choi_dynamics_without_super(self, tmp_path, capsys, command, system):
        scenario = {"command": command, "dynamics": {"kind": "choi"}}
        if system is not None:
            scenario["system"] = system
        report = run_scenario(scenario)
        assert report["status"] == "invalid-input"
        assert report["error"]["type"] == "input"
        jsonschema.validate(report, REPORT_SCHEMA)
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 2
        assert json.loads(capsys.readouterr().out)["status"] == "invalid-input"

    @pytest.mark.parametrize("spec", [
        {"kind": "gksl", "jumps": [{"op": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]], "rate": 1e308}]},
        {"kind": "gksl", "H": [[[1e308, 0], [0, 0]], [[0, 0], [-1e308, 0]]]},
    ], ids=["rate", "hamiltonian"])
    def test_an_overflowing_gksl_generator_fails_quietly(self, tmp_path, capsys, spec):
        # Finite GKSL data whose generator overflows: a failed report with a
        # NumericalError and exit 1, and no RuntimeWarning (an error here).
        path = write_scenario(tmp_path, {"command": "check-ccp", "dynamics": spec})
        capsys.readouterr()
        assert main(["run", path]) == 1
        out, err = capsys.readouterr()
        report = strict_json(out)
        assert report["status"] == "failed" and report["error"]["type"] == "NumericalError"
        assert err == ""

    @pytest.mark.parametrize("scenario, status, error_type", [
        ({"command": "validate", "system": "rebit", "dynamics": "g1",
          "options": {"times": [-1.0]}}, "invalid-input", "input"),
        ({"command": "validate", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"lambdas": [0.0]}}, "invalid-input", "input"),
        ({"command": "validate", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"lambdas": [-1.0]}}, "invalid-input", "input"),
        ({"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"max_iter": 5, "starts": 8}}, "failed", "GroupExtensionError"),
        # its certificate overflows: refused before any spectrum is computed
        ({"command": "check-ccp", "dynamics": {"kind": "choi", "super": {
            "d": 2, "choi": [[[1e308, 0.0]] * 4] * 4}}}, "failed", "NumericalError"),
        ({"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"omega_param": 1e150}}, "failed", "GroupExtensionError"),
        ({"command": "check-cp", "dynamics": {"kind": "choi", "super": {
            "d": 2, "choi": [[[1e308, 0.0]] * 4] * 4}}}, "failed", "NumericalError"),
        # PSD, so CP; its Hermitian part overflows and its spectrum is NaN
        ({"command": "check-cp", "dynamics": {"kind": "choi", "super": {
            "d": 2, "choi": [[[1e308 if i == j and i in (0, 3) else 0.0, 0.0]
                              for j in range(4)] for i in range(4)]}}},
         "failed", "NumericalError"),
        # an exponential that overflows is no evidence, never "not UCP"
        ({"command": "validate", "system": "rebit", "dynamics": "rebit_dissipative",
          "options": {"times": [1e100]}}, "failed", "NumericalError"),
        # g1 is ccp, and an ill-conditioned resolvent sample does not refute it
        ({"command": "validate", "system": "rebit", "dynamics": "g1",
          "options": {"lambdas": [1e-300]}}, "failed", "Undecided"),
        ({"command": "evolve", "dynamics": "g1", "options": {"times": [1e300]}},
         "failed", "NumericalError"),
        ({"command": "check-cp", "dynamics": "g1", "options": {"time": 1e300}},
         "failed", "NumericalError"),
        ({"command": "extend-map", "system": "rebit", "dynamics": "g1",
          "options": {"time": 1e300}}, "failed", "NumericalError"),
        ({"command": "extend-discrete", "system": "rebit", "dynamics": "g1",
          "options": {"time": 1e300}}, "failed", "NumericalError"),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verdicts_need_decided_evidence(self, tmp_path, capsys, scenario, status,
                                            error_type):
        report = run_scenario(scenario)
        assert report["status"] == status
        assert report["error"]["type"] == error_type
        assert "not a UCP subsystem semigroup" not in json.dumps(report)
        jsonschema.validate(report, REPORT_SCHEMA)
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == {"failed": 1, "invalid-input": 2}[status]
        assert strict_json(capsys.readouterr().out) == report

    @pytest.mark.parametrize("scenario, error_type, message", [
        ({"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"omega_param": 1e150}},
         "GroupExtensionError", "group undecided: the extension of +A did not converge"),
        # the group generator of G_H, given by a generator that is not ccp: the
        # +A solve starts cold, and one evaluation does not converge
        ({"command": "extend-group", "system": "real_symmetric_3",
          "dynamics": not_ccp_group_generator(), "options": {"max_iter": 1}},
         "GroupExtensionError", "group undecided: the extension of +A did not converge"),
        ({"command": "rigidity-probe", "system": "real_symmetric_3",
          "options": {"starts": 4, "max_iter": 1}},
         "NumericalError", "rigidity undecided: 4 of 4 randomized starts did not converge"),
    ], ids=["group-overflow", "group-budget", "rigidity-budget"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_unconverged_solves_leave_the_verdict_undecided(self, scenario, error_type,
                                                            message):
        report = run_scenario(scenario)
        assert report["status"] == "failed"
        assert report["error"] == {"type": error_type, "message": message}

    @pytest.mark.parametrize("omega_param", [1e200, 1e300])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_dual_stops_at_once(self, tmp_path, capsys, omega_param):
        # The dual value overflows at the start: the solve raises there, and
        # the report is a failed one in strict JSON, with no non-finite number
        # (once the whole 200 000-evaluation budget at 1e300).
        scenario = {"command": "extend-generator", "system": "rebit",
                    "dynamics": "rebit_rotation", "options": {"omega_param": omega_param}}
        report = run_scenario(scenario)
        assert report["status"] == "failed"
        assert report["error"] == {"type": "NumericalError",
                                   "message": "the dual overflowed at the start point"}
        jsonschema.validate(report, REPORT_SCHEMA)
        path = write_scenario(tmp_path, scenario)
        capsys.readouterr()
        assert main(["run", path]) == 1

        def reject(token):
            raise ValueError(f"{token} is not JSON")

        assert json.loads(capsys.readouterr().out, parse_constant=reject) == report

    def test_multiple_scenarios_require_batch(self, tmp_path):
        ok = write_scenario(tmp_path, {"command": "check-ccp", "dynamics": "g1"})
        assert main(["run", ok, ok]) == 2

    def test_ragged_matrix_is_invalid_input(self, tmp_path, capsys):
        ragged = [[[1.0, 0.0]], [[1.0, 0.0], [2.0, 0.0]]]
        eye = serialize.matrix_to_json(np.eye(2))
        scenarios = [
            {"command": "validate", "system": {"basis": [eye, ragged]},
             "dynamics": "rebit_dissipative"},
            {"command": "check-cp",
             "dynamics": {"kind": "choi", "super": {"d": 1, "choi": ragged}}},
            {"command": "check-ccp", "dynamics": {"kind": "gksl", "H": ragged}},
            {"command": "check-ccp",
             "dynamics": {"kind": "gksl", "jumps": [{"op": ragged, "rate": 1.0}]}},
        ]
        for scenario in scenarios:
            report = run_scenario(scenario)
            assert report["status"] == "invalid-input", scenario
            assert report["error"]["type"] == "input"
        bad = write_scenario(tmp_path, scenarios[2], "ragged.json")
        ok = write_scenario(tmp_path, {"command": "check-ccp", "dynamics": "g1"}, "ok.json")
        capsys.readouterr()
        assert main(["run", "--batch", bad, ok]) == 2
        statuses = [json.loads(line)["status"]
                    for line in capsys.readouterr().out.splitlines()]
        assert statuses == ["invalid-input", "ok"]

    @pytest.mark.parametrize("system", ["M2", "real_symmetric_3", "diagonal"])
    @pytest.mark.parametrize("dynamics", ["rebit_rotation", "rebit_dissipative"])
    def test_rebit_dynamics_need_the_rebit_system(self, system, dynamics):
        report = run_scenario({"command": "validate", "system": system,
                               "dynamics": dynamics})
        assert report["status"] == "invalid-input"
        assert "rebit system" in report["error"]["message"]


class ClosedPipe:
    """A standard output whose reader has gone: every write fails.  Its file
    descriptor is a temporary file's, so it can be pointed elsewhere."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self.fd


class TestClosedPipe:
    @pytest.mark.parametrize("argv, code", [
        (["demo-rebit", "--report", "text"], 0),
        (["run", "ok.json"], 0),
        (["run", "failed.json"], 1),
        (["run", "--batch", "ok.json", "failed.json"], 0),  # stops at the break
    ])
    def test_verdicts_keep_their_exit_code(self, tmp_path, monkeypatch, capsys, argv, code):
        write_scenario(tmp_path, {"command": "check-ccp", "dynamics": "g1"}, "ok.json")
        write_scenario(tmp_path, {"command": "extend-group", "system": "rebit",
                                  "dynamics": "rebit_dissipative"}, "failed.json")
        monkeypatch.chdir(tmp_path)
        with open(tmp_path / "stdout", "w") as sink:
            monkeypatch.setattr(sys, "stdout", ClosedPipe(sink.fileno()))
            assert main(argv) == code
        assert capsys.readouterr().err == ""

    def test_closed_pipe_in_a_process(self, tmp_path):
        path = write_scenario(tmp_path, {"command": "check-ccp", "dynamics": "g1"})
        src = str(Path(ucpext.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run([sys.executable, "-m", "ucpext", "run", path],
                                  stdout=write_end, stderr=subprocess.PIPE, env=env,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (0, b"")


class TestScenarioSchema:
    def test_published_schema_is_valid_draft7(self):
        jsonschema.Draft7Validator.check_schema(load_scenario_schema())

    @pytest.mark.parametrize("value, valid", [
        ([[[1, 0], [0, 0.5]], [[0, -1], [2, 0]]], True),
        ([[[1, 0], [0, 0]], [[1, 0]]], True),  # ragged rows: the decoder refuses them
        ([[[1e308, 0]]], True),
        ([[[1]]], False), ([[[1, 0, 0]]], False),  # a pair of 1 or 3 numbers
        ([[]], False), ([], False), ([[[True, 0]]], False), ([[["1", 0]]], False),
        ([[[float("nan"), 0]]], False), ([[[float("inf"), 0]]], False),
        ([[[0, float("-inf")]]], False), ([[[int(HUGE), 0]]], False),
        ([[[[1, 0]]]], False),  # an extra level of nesting
        ("x", False),
    ])
    def test_matrix_is_checked_as_through_a_ref(self, value, valid):
        # The former form reached each [re, im] pair through a $ref; the
        # inlined form must accept, reject and report exactly as it did.
        matrix = load_scenario_schema()["definitions"]["matrix"]
        pair = {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2}
        by_ref = {"type": "array", "minItems": 1, "items": {
            "type": "array", "minItems": 1, "items": {"$ref": "#/definitions/complex"}}}
        gate = type(cli._scenario_validator())
        inlined, referenced = (
            gate({"definitions": definitions, "allOf": [{"$ref": "#/definitions/matrix"}]})
            for definitions in ({"matrix": matrix}, {"complex": pair, "matrix": by_ref}))

        def verdict(validator):
            error = jsonschema.exceptions.best_match(validator.iter_errors(value))
            return None if error is None else (error.message, list(error.absolute_path))

        assert verdict(inlined) == verdict(referenced)
        assert (verdict(inlined) is None) == valid

    def test_matrix_entries_need_no_reference_lookup(self):
        assert "$ref" not in json.dumps(load_scenario_schema()["definitions"]["matrix"])

    # The former forms of the three fields with two kinds of value: one
    # subschema per kind, under ``oneOf``.
    MATRIX = {"$ref": "#/definitions/matrix"}
    ONE_OF_SYSTEM = {"oneOf": [{"type": "string"}, {
        "type": "object", "required": ["basis"], "additionalProperties": False,
        "properties": {"basis": {"type": "array", "items": MATRIX}}}]}
    ONE_OF_DYNAMICS = {"oneOf": [{"type": "string"}, {
        "type": "object", "required": ["kind"], "additionalProperties": False,
        "properties": {
            "kind": {"type": "string", "enum": ["gksl", "choi"]},
            "H": {"oneOf": [MATRIX, {"type": "null"}]},
            "jumps": {"type": "array", "items": {
                "type": "object", "required": ["op", "rate"], "additionalProperties": False,
                "properties": {"op": MATRIX, "rate": {"type": "number", "minimum": 0}}}},
            "super": {"type": "object", "required": ["d", "choi"], "additionalProperties": False,
                      "properties": {"d": {"type": "integer", "minimum": 1}, "choi": MATRIX,
                                     "convention": {"type": "string"}}}}}]}

    @staticmethod
    def field_corpus():
        """Scenarios that vary ``system``, ``dynamics`` and ``dynamics.H``: a
        value of every JSON type, objects without their required key or with
        an extra one, and ragged, mistyped and non-finite matrices."""
        pair, nan, inf = [1, 0], float("nan"), float("inf")
        matrices = [[[pair]], [[pair, pair], [pair, pair]], [[pair, pair], [pair]],
                    [[[nan, 0]]], [[[0, inf]]], [[[int(HUGE), 0]]], [[[1]]], [[[1, 0, 0]]],
                    [[[True, 0]]], [[]], [], [[[[1, 0]]]], [pair]]
        every_type = [None, True, False, 0, -1, 1.5, nan, "x", "", [], [1], {}, {"a": 1}]
        systems = every_type + matrices + [
            {"basis": basis} for basis in [[], [[[pair]]], [[[pair]], 5], *matrices]] + [
            {"basis": [[[pair]]], "extra": 1}, {"extra": 1}, {"basis": None}]
        hs = every_type + matrices
        kinds = [{"kind": kind} for kind in ("gksl", "choi", "bogus", 5, None)]
        dynamics = every_type + kinds + [{"kind": "gksl", "H": h} for h in hs] + [
            {"H": [[pair]]}, {"kind": "gksl", "extra": 1},
            {"kind": "gksl", "jumps": [{"op": [[pair]], "rate": 1.0}]},
            {"kind": "gksl", "jumps": [{"op": [[pair]]}]}, {"kind": "gksl", "jumps": [{}]},
            {"kind": "gksl", "jumps": [{"op": [[[nan, 0]]], "rate": 1.0, "extra": 1}]},
            {"kind": "choi", "super": {"d": 1, "choi": [[pair]]}},
            {"kind": "choi", "super": {}}, {"kind": "choi", "super": 5},
            {"kind": "choi", "super": {"d": 0, "choi": [[pair]], "convention": 5}},
            {"kind": 5, "H": [[pair]], "jumps": [{}], "extra": 1}]
        return ([{"command": "rigidity-probe", "system": value} for value in systems]
                + [{"command": "check-ccp", "dynamics": value} for value in dynamics])

    def test_type_unions_accept_what_one_of_accepted(self):
        schema = load_scenario_schema()
        assert "oneOf" not in json.dumps(schema)
        reference = load_scenario_schema()
        reference["properties"].update(system=self.ONE_OF_SYSTEM, dynamics=self.ONE_OF_DYNAMICS)
        gate = type(cli._scenario_validator())
        committed, one_of = gate(schema), gate(reference)
        corpus = self.field_corpus()
        verdicts = [committed.is_valid(scenario) for scenario in corpus]
        assert verdicts == [one_of.is_valid(scenario) for scenario in corpus]
        assert 0 < sum(verdicts) < len(verdicts)

    def test_h_carries_the_matrix_keywords(self):
        # H inlines the matrix definition: draft 7 ignores a $ref's siblings.
        schema = load_scenario_schema()
        h = dict(schema["properties"]["dynamics"]["properties"]["H"])
        matrix = dict(schema["definitions"]["matrix"])
        assert (h.pop("type"), matrix.pop("type")) == (["array", "null"], "array")
        assert h == matrix

    @pytest.mark.parametrize("scenario, message", [
        ({"command": "rigidity-probe", "system": 5}, "5 is not of type 'string', 'object'"),
        ({"command": "rigidity-probe", "system": [[[1, 0]]]},
         "[[[1, 0]]] is not of type 'string', 'object'"),
        ({"command": "check-ccp", "dynamics": None}, "None is not of type 'string', 'object'"),
        ({"command": "check-ccp", "dynamics": {"kind": "gksl", "H": "x"}},
         "'x' is not of type 'array', 'null'"),
        ({"command": "check-ccp", "dynamics": {"kind": "gksl", "H": {}}},
         "{} is not of type 'array', 'null'"),
        # A dynamics object with two errors at one place names one of them,
        # not the whole object.
        ({"command": "check-ccp", "dynamics": {"kind": 5}}, "5 is not of type 'string'"),
    ])
    def test_a_wrong_typed_field_names_the_accepted_types(self, scenario, message):
        report = run_scenario(scenario)
        assert report["status"] == "invalid-input"
        assert report["error"]["message"] == f"scenario schema violation: {message}"

    def test_handlers_cover_the_command_enum(self):
        commands = load_scenario_schema()["properties"]["command"]["enum"]
        assert set(cli._HANDLERS) == set(commands)
        assert len(commands) == len(set(commands))

    def test_schema_read_once(self, monkeypatch):
        reads = []

        def counting_load():
            reads.append(1)
            return load_scenario_schema()

        monkeypatch.setattr(cli, "load_scenario_schema", counting_load)
        cli._scenario_validator.cache_clear()
        try:
            for _ in range(3):
                cli.validate_scenario({"command": "check-ccp", "dynamics": "g1"})
                with pytest.raises(cli.InputError):
                    cli.validate_scenario({"command": "bogus"})
        finally:
            cli._scenario_validator.cache_clear()
        assert len(reads) == 1


class TestOptionDecoding:
    def test_decoded_by_schema_types(self):
        decoded = cli._decode_options({"tol": 1, "max_iter": 5.0, "seed": None,
                                       "times": [1, 2.5], "g2_prefactor": "paper"})
        assert decoded == {"tol": 1.0, "max_iter": 5, "times": [1.0, 2.5],
                           "g2_prefactor": "paper"}
        assert type(decoded["tol"]) is float and type(decoded["max_iter"]) is int
        assert all(type(t) is float for t in decoded["times"])
        assert cli._decode_options({"seed": 7.0}) == {"seed": 7}

    def test_every_option_key_has_a_decoder(self):
        schemas = cli._option_schemas()
        for key, schema in schemas.items():
            sample = [1] if schema["type"] == "array" else (
                "derived" if schema["type"] == "string" else 1)
            assert key in cli._decode_options({key: sample})


class TestReports:
    @pytest.mark.parametrize("result", [
        extension.ExtensionReport(iterations=7, cone_residual=1e-9, affine_residual=0.0,
                                  restriction_error=2.5e-12, converged=True,
                                  termination="tol"),
        dynamics.GeneratorCertificates(hermiticity_preserving=True, unital_kernel=False,
                                       ccp=True),
        extension.GroupCertificate(commutant_dim=1, commutant_gap=0.75, inverse_witness=0.0),
        extension.RigidityReport(
            all_identity=True, max_pairwise_distance=1e-10, max_distance_to_identity=3e-11,
            identity_threshold=1e-6, n_converged=4, n_runs=4,
            certificate=extension.RigidityCertificate(commutant_dim=1, commutant_gap=None)),
        extension.RigidityReport(
            all_identity=False, max_pairwise_distance=0.5, max_distance_to_identity=1.0,
            identity_threshold=1e-6, n_converged=3, n_runs=4,
            certificate=extension.RigidityCertificate(commutant_dim=2, commutant_gap=0.125)),
    ], ids=["extension", "certificates", "group-certificate", "rigidity-m_d", "rigidity-gap"])
    def test_results_convert_as_asdict_does(self, result):
        # Equal, key order included (the text report keeps it): a subclass's
        # inherited fields first, a nested certificate as a dict.
        converted = cli._as_dict(result)
        assert converted == asdict(result)
        assert json.dumps(converted) == json.dumps(asdict(result))

    def test_determinism_byte_identical(self):
        scenarios = [
            {"command": "extend-generator", "system": "rebit",
             "dynamics": "rebit_dissipative", "options": {"seed": 5}},
            {"command": "demo-rebit"},
            {"command": "rigidity-probe", "system": "span_I", "options": {"seed": 0}},
            {"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation"},
        ]
        for scenario in scenarios:
            a = json.dumps(run_scenario(scenario), sort_keys=True)
            b = json.dumps(run_scenario(scenario), sort_keys=True)
            assert a == b

    def test_shared_systems_do_not_change_reports(self):
        scenarios = [
            {"command": "rigidity-probe", "system": "real_symmetric_3"},
            {"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation"},
            {"command": "rigidity-probe", "system": "real_symmetric_3", "options": {"tol": 10}},
            {"command": "demo-rebit"},
        ]
        cold = []
        for scenario in scenarios:
            for build in (catalog.rebit_system, catalog.real_symmetric_system):
                build.cache_clear()
            cold.append(json.dumps(run_scenario(scenario), sort_keys=True))
        warm = [json.dumps(run_scenario(s), sort_keys=True) for s in scenarios + scenarios]
        assert warm == cold + cold
        assert json.loads(cold[2])["status"] == "failed"  # tol 10: the rank is undecided

    def test_embedded_matrices_round_trip_bit_exactly(self):
        scenario = {"command": "evolve", "dynamics": "g1", "options": {"times": [0.7]}}
        report = json.loads(json.dumps(run_scenario(scenario), sort_keys=True))
        embedded = serialize.superop_from_json(report["results"]["evolutions"][0]["map"])
        from ucpext import catalog, dynamics
        direct = dynamics.evolve(catalog.g1(1.0), 0.7)
        assert np.array_equal(embedded.choi, direct.choi)

    def test_text_report_renders_lists(self, tmp_path, capsys):
        # A list of more than 8 entries is counted; scalar items are "- value".
        identities = write_scenario(tmp_path, {"command": "identities", "dynamics": "g1"},
                                    "identities.json")
        family = write_scenario(tmp_path, {"command": "extend-resolvent-family",
                                           "system": "rebit", "dynamics": "rebit_rotation"},
                                "family.json")
        capsys.readouterr()
        assert main(["run", identities, "--report", "text"]) == 0
        assert "\n  hilbert:\n    [20 entries]\n" in capsys.readouterr().out
        assert main(["run", family, "--report", "text"]) == 0
        grid = run_scenario(json.loads(Path(family).read_text()))["results"]["grid"]
        assert len(grid) == 8
        rendered = "".join(f"    - {lam:.3e}\n" for lam in grid)
        assert f"\n  grid:\n{rendered}  family:\n" in capsys.readouterr().out

    def test_reports_validate_against_schema(self, tmp_path, capsys):
        scenarios = [
            {"command": "check-ccp", "dynamics": "g1"},
            {"command": "demo-rebit"},
            {"command": "bogus"},
            {"command": "extend-group", "system": "rebit",
             "dynamics": "rebit_dissipative"},
        ]
        for scenario in scenarios:
            jsonschema.validate(run_scenario(scenario), REPORT_SCHEMA)
        # validate's generator block: a solve's report on every V, never null
        for system in ("rebit", "diagonal"):
            report = run_scenario({**AMPLITUDE_DAMPING_VALIDATE, "system": system})
            assert report["results"]["generator"]["converged"]
            jsonschema.validate(report, REPORT_SCHEMA)
            for wrong in ({"iterations": 1}, None):
                report["results"]["generator"] = wrong
                with pytest.raises(jsonschema.ValidationError):
                    jsonschema.validate(report, REPORT_SCHEMA)
        # Reports that main builds before any scenario runs: an unparseable
        # file, and several files without --batch.
        unparseable = tmp_path / "broken.json"
        unparseable.write_text("{not json")
        ok = write_scenario(tmp_path, {"command": "check-ccp", "dynamics": "g1"})
        capsys.readouterr()
        for argv in (["run", str(unparseable)], ["run", "--seed", "3", ok, ok]):
            assert main(argv) == 2
            report = json.loads(capsys.readouterr().out)
            assert report["status"] == "invalid-input"
            jsonschema.validate(report, REPORT_SCHEMA)


    def test_extension_reports_leave_the_termination_out(self):
        # Each extension-report block of a report has exactly the keys of
        # definitions/extension_report; the report's termination is not
        # among them.
        definition = REPORT_SCHEMA["definitions"]["extension_report"]
        keys = set(definition["properties"])
        assert keys == set(definition["required"]) and "termination" not in keys
        blocks = [
            ({"command": "extend-map", "system": "rebit", "dynamics": "rebit_dissipative"},
             "report"),
            ({"command": "extend-generator", "system": "rebit", "dynamics": "rebit_rotation"},
             "report"),
            ({"command": "extend-resolvent-family", "system": "rebit",
              "dynamics": "rebit_rotation"}, "report"),
            ({"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation"},
             "report"),
            ({"command": "validate", "system": "rebit", "dynamics": "rebit_dissipative"},
             "generator"),
        ]
        for scenario, key in blocks:
            report = run_scenario(scenario)
            assert report["status"] == "ok", (scenario["command"], report.get("error"))
            assert set(report["results"][key]) == keys, scenario["command"]

    def test_validate_reports_carry_every_key(self):
        # Results carry valid, message, checks and generator, and each
        # check's residuals exactly cone, affine, restriction and iterations;
        # the empty results of a failed validation pass.
        report = run_scenario({**AMPLITUDE_DAMPING_VALIDATE, "options": FOUR_SAMPLES})
        jsonschema.validate(report, REPORT_SCHEMA)
        results = report["results"]
        for key in ("valid", "message", "checks", "generator"):
            dropped = {k: v for k, v in results.items() if k != key}
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**report, "results": dropped}, REPORT_SCHEMA)
        check = results["checks"][0]
        residuals = check["residuals"]
        for wrong in [{k: v for k, v in residuals.items() if k != key}
                      for key in ("cone", "affine", "restriction", "iterations")] + [
                          {**residuals, "extra": 0.0}]:
            checks = [{**check, "residuals": wrong}] + results["checks"][1:]
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate({**report, "results": {**results, "checks": checks}},
                                    REPORT_SCHEMA)
        failed = run_scenario({"command": "validate", "system": "rebit",
                               "dynamics": "rebit_dissipative", "options": {"times": [1e100]}})
        assert (failed["status"], failed["results"]) == ("failed", {})
        jsonschema.validate(failed, REPORT_SCHEMA)


class TestDemoRebit:
    def test_default_demo_passes(self):
        report = run_scenario({"command": "demo-rebit"})
        assert report["status"] == "ok"
        assert report["results"]["failed_checks"] == []
        names = {c["name"] for c in report["results"]["checks"]}
        assert {"four-case-catalog", "rebit-cone-grid", "rotation-extension-unique",
                "dissipative-extension-not-unique", "g1-g2-differ-on-Y"} <= names

    def test_the_rotation_solves_at_the_scenario_tol(self, monkeypatch):
        solved = []
        solve = extension._solve_batch

        def recording(system, targets, ccp, options, starts):
            solved.append((len(starts), options.tol))
            return solve(system, targets, ccp, options, starts)

        monkeypatch.setattr(extension, "_solve_batch", recording)
        report = run_scenario({"command": "demo-rebit", "options": {"tol": 1e-6}})
        assert report["status"] == "ok"
        # The +A solve of the rotation, then its 8 cross-check starts and the
        # dissipation's 8 starts in one batch.
        assert sorted(solved) == [(1, 1e-6), (16, 1e-6)]

    @pytest.mark.parametrize("seed", [0, 29])
    def test_one_batch_and_one_certification(self, monkeypatch, seed):
        built, certified = [], []
        solver_init = extension._FeasibilitySolver.__init__
        certify_each = dynamics.certify_each

        def counting(solver, *args):
            built.append(args[-1])
            solver_init(solver, *args)

        def recording(ops, *args, **kwargs):
            certified.append(len(ops))
            return certify_each(ops, *args, **kwargs)

        monkeypatch.setattr(extension._FeasibilitySolver, "__init__", counting)
        monkeypatch.setattr(dynamics, "certify_each", recording)
        report = run_scenario({"command": "demo-rebit", "options": {"seed": seed}})
        monkeypatch.undo()
        assert report["status"] == "ok"
        assert sorted(built) == [False, True]  # one complex batch, the real +A solve
        assert 8 in certified
        # The rotation's cross-check is extend_group's own.
        _, group_report = extension.extend_group(
            extension.ExtensionProblem.for_generator(catalog.rebit_system(),
                                                     catalog.rebit_rotation(1.0)),
            n_starts=8, seed=seed)
        check = next(c for c in report["results"]["checks"]
                     if c["name"] == "rotation-extension-unique")
        assert check["uniqueness_spread"] == group_report.uniqueness_spread

    def test_a_disagreeing_rotation_start_fails_the_check_as_in_extend_group(
            self, monkeypatch):
        solve = extension.multi_start

        def shifted(problem, seeds):
            # Moves the rotation's 8 cross-check starts of the demo's batch of
            # 16, not the +A solve.
            runs = solve(problem, seeds)
            return [(maps.SuperOp(op.d, op.choi + 1e-3 * np.eye(op.d ** 2)), run_report)
                    if len(runs) == 16 and k < 8 else (op, run_report)
                    for k, (op, run_report) in enumerate(runs)]

        monkeypatch.setattr(extension, "multi_start", shifted)
        report = run_scenario({"command": "demo-rebit"})
        assert report["results"]["failed_checks"] == ["rotation-extension-unique"]
        check = next(c for c in report["results"]["checks"]
                     if c["name"] == "rotation-extension-unique")
        assert check["error"].startswith("randomized starts disagree (spread ")

    def test_four_case_catalog_is_computed(self, monkeypatch):
        cases = catalog.four_case_catalog()
        wrong = [(system, replace(envelope, dim=envelope.dim + 1))
                 for system, envelope in cases]
        monkeypatch.setattr(catalog, "four_case_catalog", lambda: wrong)
        report = run_scenario({"command": "demo-rebit"})
        assert report["results"]["failed_checks"] == ["four-case-catalog"]
        check = report["results"]["checks"][0]
        assert [c["envelope_dim"] for c in check["cases"]] == [1, 2, 4, 4]
        assert [c["commutative"] for c in check["cases"]] == [True, True, False, False]

    def test_alternative_prefactor_fails_restriction(self):
        report = run_scenario({"command": "demo-rebit",
                               "options": {"g2_prefactor": "paper"}})
        assert report["status"] == "failed"
        assert "g2-restricts-to-dissipation" in report["results"]["failed_checks"]
        check = next(c for c in report["results"]["checks"]
                     if c["name"] == "g2-restricts-to-dissipation")
        assert check["action_on_X_coefficient"] == pytest.approx(-16.0 / 9.0)
        assert check["expected_coefficient"] == pytest.approx(-1.0)

    def test_a_tol_below_roundoff_fails_the_solves_not_the_grid(self):
        # The grid lies in the rebit exactly, whatever the tol; the solves
        # cannot meet 1e-16 and say so.
        report = run_scenario({"command": "demo-rebit", "options": {"tol": 1e-16}})
        assert report["status"] == "failed"
        check = next(c for c in report["results"]["checks"] if c["name"] == "rebit-cone-grid")
        assert check["passed"]
        assert "rebit-cone-grid" not in report["results"]["failed_checks"]

    def test_demo_cli_flags(self, capsys):
        code = main(["demo-rebit", "--g2-prefactor", "paper", "--report", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, REPORT_SCHEMA)
