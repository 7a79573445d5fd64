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
from ucpext import catalog, cli, dynamics, extension, serialize
from ucpext.cli import load_scenario_schema, main, run_scenario

REPORT_SCHEMA = json.loads(
    (load_scenario_schema.__globals__["_SCHEMA_DIR"] / "report.schema.json").read_text())


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


class TestRunScenario:
    def test_check_cp_on_choi_map(self):
        gen_report = run_scenario({"command": "check-cp",
                                   "dynamics": "g1",
                                   "options": {"time": 1.0}})
        assert gen_report["status"] == "ok"
        assert gen_report["results"]["is_cp"] is True
        assert gen_report["results"]["is_ucp"] is True

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
                            lambda gen, lam: lams.append(lam) or resolvent(gen, lam))
        report = run_scenario({"command": "identities", "system": "M2", "dynamics": "g1"})
        assert report["status"] == "ok"
        # The default grid of five and the Laplace checks' 0.5, 1.0 and 2.0.
        assert sorted(lams) == sorted({*np.linspace(0.5, 4.0, 5).tolist(), 1.0, 2.0})

    def test_validate_amplitude_damping(self):
        report = run_scenario(AMPLITUDE_DAMPING_VALIDATE)
        assert report["status"] == "ok"
        assert [c["feasible"] for c in report["results"]["checks"]] == [True] * 4

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
        assert report["results"] == {"valid": verdict.valid, "message": verdict.message,
                                     "checks": list(verdict.checks)}
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

    @pytest.mark.parametrize("scenario, status, error_type", [
        ({"command": "validate", "system": "rebit", "dynamics": "g1",
          "options": {"times": [-1.0]}}, "invalid-input", "input"),
        ({"command": "validate", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"lambdas": [0.0]}}, "invalid-input", "input"),
        ({"command": "validate", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"lambdas": [-1.0]}}, "invalid-input", "input"),
        ({"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"max_iter": 5, "starts": 8}}, "failed", "GroupExtensionError"),
        ({"command": "check-ccp", "dynamics": {"kind": "choi", "super": {
            "d": 2, "choi": [[[1e308, 0.0]] * 4] * 4}}}, "failed", "LinAlgError"),
        ({"command": "extend-group", "system": "rebit", "dynamics": "rebit_rotation",
          "options": {"omega_param": 1e150}}, "failed", "GroupExtensionError"),
        ({"command": "check-cp", "dynamics": {"kind": "choi", "super": {
            "d": 2, "choi": [[[1e308, 0.0]] * 4] * 4}}}, "failed", "LinAlgError"),
        # PSD, so CP; its Hermitian part overflows and its spectrum is NaN
        ({"command": "check-cp", "dynamics": {"kind": "choi", "super": {
            "d": 2, "choi": [[[1e308 if i == j and i in (0, 3) else 0.0, 0.0]
                              for j in range(4)] for i in range(4)]}}},
         "failed", "NumericalError"),
        # an exponential that overflows is no evidence, never "not UCP"
        ({"command": "validate", "system": "rebit", "dynamics": "rebit_dissipative",
          "options": {"times": [1e100]}}, "failed", "NumericalError"),
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
        ({"command": "extend-group", "system": "real_symmetric_3",
          "dynamics": {"kind": "gksl", "H": [[[0, 0], [0, -1], [0, 0]],
                                             [[0, 1], [0, 0], [0, 0]],
                                             [[0, 0], [0, 0], [0, 0]]]},
          "options": {"max_iter": 1}},
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


class TestDemoRebit:
    def test_default_demo_passes(self):
        report = run_scenario({"command": "demo-rebit"})
        assert report["status"] == "ok"
        assert report["results"]["failed_checks"] == []
        names = {c["name"] for c in report["results"]["checks"]}
        assert {"four-case-catalog", "rebit-cone-grid", "rotation-extension-unique",
                "dissipative-extension-not-unique", "g1-g2-differ-on-Y"} <= names

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

    def test_demo_cli_flags(self, capsys):
        code = main(["demo-rebit", "--g2-prefactor", "paper", "--report", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        jsonschema.validate(payload, REPORT_SCHEMA)
