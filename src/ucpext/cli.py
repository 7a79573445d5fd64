"""Scenario runner: every toolkit operation as a command with JSON reports.

A scenario file is a JSON object

    {"command": "...", "system": ..., "dynamics": ..., "options": {...}}

dispatched to the corresponding library operation.  Reports echo the command,
carry a status (ok / failed / invalid-input), command-specific results, and
provenance (tool version, seed, resolved options).  Reports are deterministic
given the seed; JSON output carries full float precision, text output renders
residuals to three significant digits.

The scenario schema is the one input gate, compiled once per process: its
``command`` enum names the handlers, its ``options`` properties the option keys.
Its numbers, integers included, are finite as floats: Python's ``json`` reads
the ``NaN`` and ``Infinity`` tokens and integers too large for a float, and
``--tol nan`` and a 400-digit ``--starts`` parse, but none passes the gate, and
the echo of a rejected input spells the non-finite floats as strings, so every
report is strict JSON.  Each count that sets the length of a loop (``starts``,
``panels``, ``horizon``) has a ``maximum`` there as well.
Options are decoded once, by their schema types, and ``null`` means unset;
handlers pass on only the options a scenario sets, so an unset option takes the
default of the library function that uses it.

Exit codes: 0 = ok, 1 = mathematical failure (infeasible, diverged, invalid
certificate), 2 = malformed input (schema violation, unknown command).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, catalog, dynamics, extension, maps, serialize, systems
from .dynamics import SubsystemGenerator
from .errors import Failure, GroupExtensionError, InputError
from .extension import ExtensionOptions, ExtensionProblem
from .serialize import CHOI_CONVENTION
from .tolerances import (DEFAULT_STARTS, DEMO_EXACT_TOL, DEMO_NONUNIQUE_SPREAD,
                         DEMO_UNIQUE_DISTANCE_TOL, IDENTITIES_TOL, LAPLACE_TOL)

_SCHEMA_DIR = Path(__file__).resolve().parent / "schemas"


def load_scenario_schema() -> dict:
    return json.loads((_SCHEMA_DIR / "scenario.schema.json").read_text())


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite_number(checker, instance) -> bool:
    """The gate's "number": an int that is not a bool, or a float, whose value
    is finite as a float."""
    try:
        return _is_number(instance) and math.isfinite(instance)
    except OverflowError:  # an int too large for a float
        return False


def _is_finite_integer(checker, instance) -> bool:
    """The gate's "integer": a "number" with an integral value (``2.0`` too)."""
    return _is_finite_number(checker, instance) and float(instance).is_integer()


@functools.cache
def _scenario_validator():
    """The scenario schema, read and compiled once per process; its "number"
    and "integer" exclude NaN, the infinities and ints too large for a float.
    (A keyword such as ``maximum`` checks only what passes as a "number", so
    an int too large for a float must fail its type.)"""
    import jsonschema

    draft7 = jsonschema.Draft7Validator
    finite = draft7.TYPE_CHECKER.redefine_many(
        {"number": _is_finite_number, "integer": _is_finite_integer})
    return jsonschema.validators.extend(draft7, type_checker=finite)(load_scenario_schema())


def _option_schemas() -> dict:
    """Option key -> its schema, from the scenario schema's ``options`` properties."""
    return _scenario_validator().schema["properties"]["options"]["properties"]


def validate_scenario(scenario) -> None:
    """Schema check; raises InputError with a machine-readable message."""
    from jsonschema.exceptions import best_match

    error = best_match(_scenario_validator().iter_errors(scenario))
    if error is not None:
        if (error.absolute_path and _is_number(error.instance)
                and not _is_finite_number(None, error.instance)):
            where = "/".join(str(key) for key in error.absolute_path)
            raise InputError(f"scenario schema violation: {_json_safe(error.instance)} "
                             f"at {where} is not a finite number")
        raise InputError(f"scenario schema violation: {error.message}")
    unknown = scenario.get("options", {}).keys() - _option_schemas().keys()
    if unknown:
        raise InputError(f"unknown option keys: {sorted(unknown)}")


_CASTS = {"integer": int, "number": float, "string": str}


def _decode(schema: dict, value):
    """A schema-checked value as the Python type its schema names."""
    kind = schema["type"]
    if isinstance(kind, list):  # ["integer", "null"]: null values are dropped before
        (kind,) = set(kind) - {"null"}
    if kind == "array":
        return [_decode(schema["items"], item) for item in value]
    return _CASTS[kind](value)


def _decode_options(options: dict) -> dict:
    """The set options of a schema-checked scenario, decoded; null means unset."""
    schemas = _option_schemas()
    return {key: _decode(schemas[key], value)
            for key, value in options.items() if value is not None}


def _given(options: dict, *keys, **renamed) -> dict:
    """The options among ``keys`` and ``renamed`` that a scenario sets, as keyword
    arguments: ``renamed`` maps an option key to the parameter it feeds."""
    params = {key: key for key in keys} | renamed
    return {param: options[key] for key, param in params.items() if key in options}


# ---------------------------------------------------------------------------
# Scenario object resolution
# ---------------------------------------------------------------------------

def _resolve_system(scenario):
    if "system" not in scenario:
        raise InputError("this command requires a 'system' field")
    return serialize.system_from_json(scenario["system"])


def _resolve_generator(scenario, options):
    """A full-algebra generator from a catalog name or a generator spec, its
    certificates computed at the scenario's ``tol`` when it sets one."""
    dyn = scenario.get("dynamics")
    if dyn is None:
        raise InputError("this command requires a 'dynamics' field")
    if dyn == "g1":
        gen = catalog.g1(options.get("delta_param", 1.0))
    elif dyn == "g2":
        gen = catalog.g2(options.get("delta_param", 1.0),
                         **_given(options, g2_prefactor="prefactor"))
    elif dyn == "rotation_extension":
        gen = catalog.rotation_extension_generator(options.get("omega_param", 1.0))
    elif isinstance(dyn, str):
        raise InputError(f"unknown generator name {dyn!r}")
    else:
        gen = serialize.generator_from_json(dyn)
    return dynamics.certify(gen.op, options["tol"]) if "tol" in options else gen


def _resolve_subsystem_generator(scenario, system, options) -> SubsystemGenerator:
    """A generator on V: catalog subsystem dynamics, or a full generator
    restricted, which it keeps as its ``extension``."""
    dyn = scenario.get("dynamics")
    if dyn is None:
        raise InputError("this command requires a 'dynamics' field")
    if dyn == "rebit_rotation":
        sub = catalog.rebit_rotation(options.get("omega_param", 1.0))
    elif dyn == "rebit_dissipative":
        sub = catalog.rebit_dissipative(options.get("delta_param", 1.0))
    else:
        gen = _resolve_generator(scenario, options)
        if gen.d != system.dim:
            raise InputError("generator dimension does not match the system")
        images = maps.apply_each(gen.op.choi, system.basis)
        return SubsystemGenerator.from_action(system, images, extension=gen)
    if not system.same_basis(sub.system):
        raise InputError(f"dynamics {dyn!r} are defined on the rebit system only")
    return sub


def _resolve_superop(scenario, options):
    """A map on M_d: an explicit Choi map, or a generator evolved for ``time``."""
    dyn = scenario.get("dynamics")
    if isinstance(dyn, dict) and dyn.get("kind") == "choi" and "time" not in options:
        return serialize.superop_from_json(dyn.get("super"))
    return dynamics.evolve(_resolve_generator(scenario, options), options.get("time", 1.0),
                           **_given(options, "tol"))


def _resolve_map(scenario, system, options):
    """Basis images of a UCP map on V: evolved rebit dynamics, or a map on M_d."""
    if scenario.get("dynamics") in ("rebit_rotation", "rebit_dissipative"):
        sub = _resolve_subsystem_generator(scenario, system, options)
        return dynamics.subsystem_evolve_images(sub, options.get("time", 1.0))
    phi = _resolve_superop(scenario, options)
    if phi.d != system.dim:
        raise InputError("map dimension does not match the system")
    return maps.apply_each(phi.choi, system.basis)


def _extension_options(options) -> ExtensionOptions:
    return ExtensionOptions(**_given(options, "tol", "max_iter", "seed"))


def _report_superop(phi) -> dict:
    return serialize.superop_to_json(phi, tagged=True)


def _report_extension(report) -> dict:
    """An ``ExtensionReport`` as every report writes it: its fields but
    ``termination``, which stays off the wire until the report format
    carries it (ROADMAP item 8)."""
    fields = asdict(report)
    del fields["termination"]
    return fields


# ---------------------------------------------------------------------------
# Command handlers: each returns (holds, results)
# ---------------------------------------------------------------------------

def _cmd_check_cp(scenario, options):
    phi = _resolve_superop(scenario, options)
    tol_kw = _given(options, "tol")
    report = maps.is_completely_positive(phi, **tol_kw)
    is_unital = maps.is_unital(phi, **tol_kw)
    results = {
        "is_cp": report.is_cp,
        "is_unital": is_unital,
        "is_ucp": is_unital and report.is_cp,
        "min_choi_eigenvalue": report.min_choi_eigenvalue,
        "map": _report_superop(phi),
    }
    if report.witness is not None:
        results["witness"] = {
            "level": report.witness.level,
            "matrix": serialize.matrix_to_json(report.witness.matrix),
        }
    return True, results


def _cmd_check_ccp(scenario, options):
    gen = _resolve_generator(scenario, options)
    certs = gen.certificates
    return True, {
        "hermiticity_preserving": certs.hermiticity_preserving,
        "unital_kernel": certs.unital_kernel,
        "ccp": certs.ccp,
        "certified": certs.certified,
        "group_certificate": dynamics.has_group_certificate(gen, **_given(options, "tol")),
        "spectral_bound": dynamics.spectral_bound(gen) if certs.hermiticity_preserving else None,
    }


def _cmd_validate(scenario, options):
    system = _resolve_system(scenario)
    sub = _resolve_subsystem_generator(scenario, system, options)
    verdict = dynamics.validate_subsystem_semigroup(
        sub, **_given(options, "tol", "max_iter", times="sample_ts", lambdas="sample_lambdas"))
    results = {"valid": verdict.valid, "message": verdict.message,
               "checks": list(verdict.checks),
               "generator": _report_extension(verdict.generator)}
    return verdict.valid, results


def _sample_maps(scenario, options, grid_key, image_of, keys):
    """The maps ``image_of(gen, value)`` over the ``grid_key`` grid, each with
    its UCP verdict; only a non-UCP sample of a certified generator fails.
    An empty grid has no sample to judge.  ``keys`` name the report's entry
    list, parameter, verdict and map."""
    grid = options.get(grid_key, [1.0])
    if not grid:
        raise InputError(f"no samples: '{grid_key}' is empty")
    gen = _resolve_generator(scenario, options)
    entries_key, param_key, ucp_key, map_key = keys
    tol_kw = _given(options, "tol")
    entries = []
    for value in grid:
        phi = image_of(gen, value)
        entries.append({param_key: value, ucp_key: maps.is_ucp(phi, **tol_kw),
                        map_key: _report_superop(phi)})
    certified = gen.certificates.certified
    holds = not certified or all(entry[ucp_key] for entry in entries)
    return holds, {entries_key: entries, "certified": certified}


def _cmd_evolve(scenario, options):
    return _sample_maps(scenario, options, "times",
                        functools.partial(dynamics.evolve, **_given(options, "tol")),
                        ("evolutions", "t", "is_ucp", "map"))


def _cmd_resolvent(scenario, options):
    return _sample_maps(scenario, options, "lambdas",
                        lambda gen, lam: lam * dynamics.resolvent(gen, lam),
                        ("resolvents", "lambda", "scaled_is_ucp", "scaled_map"))


def _cmd_identities(scenario, options):
    gen = _resolve_generator(scenario, options)
    grid = options.get("grid", np.linspace(0.5, 4.0, 5).tolist())
    tol = options.get("tol", IDENTITIES_TOL)
    pairs = [(lam, mu) for lam in grid for mu in grid if lam != mu]
    # Each resolvent is solved once: those of the grid's pairs in one stacked
    # call, a Laplace check's own after its quadrature.
    paired = list(dict.fromkeys(lam for lam, _ in pairs))
    resolvents = dict(zip(paired, dynamics.resolvent(gen, paired)))
    residuals = dynamics.hilbert_identity_residual(
        gen, [lam for lam, _ in pairs], [mu for _, mu in pairs], resolvents.__getitem__).tolist()
    hilbert = [{"lambda": lam, "mu": mu, "residual": r} for (lam, mu), r in zip(pairs, residuals)]
    worst = max([0.0] + residuals)
    laplace = []
    laplace_worst = 0.0
    for lam in options.get("lambdas", [0.5, 1.0, 2.0]):
        approx, bound = dynamics.laplace_resolvent(gen, lam, **_given(options, "panels"))
        if lam not in resolvents:
            resolvents[lam] = dynamics.resolvent(gen, lam)
        err = approx.distance(resolvents[lam])
        laplace_worst = max(laplace_worst, err)
        laplace.append({"lambda": lam, "quadrature_error": err,
                        "truncation_bound": bound})
    return worst <= tol and laplace_worst <= LAPLACE_TOL, {
        "hilbert": hilbert, "hilbert_worst": worst, "hilbert_tol": tol,
        "laplace": laplace, "laplace_worst": laplace_worst, "laplace_tol": LAPLACE_TOL,
    }


def _cmd_extend_map(scenario, options):
    system = _resolve_system(scenario)
    images = _resolve_map(scenario, system, options)
    problem = ExtensionProblem.for_map(system, images, _extension_options(options))
    phi, report = extension.extend_ucp_map(problem)
    results = {"report": _report_extension(report), "map": _report_superop(phi)}
    return report.converged, results


def _cmd_extend_generator(scenario, options):
    system = _resolve_system(scenario)
    sub = _resolve_subsystem_generator(scenario, system, options)
    problem = ExtensionProblem.for_generator(system, sub, _extension_options(options))
    gen, report = extension.extend_generator(problem)
    results = {
        "report": _report_extension(report),
        "generator": serialize.generator_to_json(gen),
        "certificates": asdict(gen.certificates),
    }
    return report.converged and gen.certificates.certified, results


def _cmd_extend_resolvent_family(scenario, options):
    system = _resolve_system(scenario)
    sub = _resolve_subsystem_generator(scenario, system, options)
    problem = ExtensionProblem.for_generator(system, sub, _extension_options(options))
    gen, family, report = extension.extend_via_resolvent_family(
        problem, options.get("omega", 4.0), **_given(options, "grid"))
    results = {
        "report": _report_extension(report),
        "generator": serialize.generator_to_json(gen),
        "omega": family.omega,
        "grid": list(family.grid),
        "family": [{"lambda": lam, "map": _report_superop(f)} for lam, f in family.members],
    }
    return True, results


def _cmd_extend_group(scenario, options):
    system = _resolve_system(scenario)
    sub = _resolve_subsystem_generator(scenario, system, options)
    # The seed draws only the cross-check seeds: the one +A solve starts from
    # the generator's certified extension, or from the deterministic point.
    problem = ExtensionProblem.for_generator(
        system, sub, ExtensionOptions(**_given(options, "tol", "max_iter")))
    gen, report = extension.extend_group(
        problem, **_given(options, "seed", starts="n_starts"))
    results = {
        "report": _report_extension(report.extension),
        "generator": serialize.generator_to_json(gen),
        "inverse_residual": report.inverse_residual,
        "uniqueness_spread": report.uniqueness_spread,
        "multiplicativity_residual": report.multiplicativity_residual,
        "n_starts": report.n_starts,
        "certificate": asdict(report.certificate),
    }
    return True, results


def _cmd_extend_discrete(scenario, options):
    system = _resolve_system(scenario)
    images = _resolve_map(scenario, system, options)
    horizon = options.get("horizon", 4)
    powers = extension.extend_discrete(system, images, horizon, _extension_options(options))
    return True, {"horizon": horizon,
                  "powers": [_report_superop(p) for p in powers]}


def _cmd_rigidity_probe(scenario, options):
    system = _resolve_system(scenario)
    report = extension.rigidity_probe(
        system, **_given(options, "seed", "tol", "max_iter", starts="n_starts"))
    return True, asdict(report)


def _cmd_demo_rebit(scenario, options):
    # One start count for both uniqueness checks: the rotation group's
    # cross-check and the dissipative non-uniqueness evidence.
    starts = options.get("starts", DEFAULT_STARTS)
    if starts < 2:
        raise InputError(f"demo-rebit needs at least 2 starts, got {starts}: its "
                         "dissipative check shows non-uniqueness by two starts that disagree")
    delta = options.get("delta_param", 1.0)
    omega = options.get("omega_param", 1.0)
    prefactor = options.get("g2_prefactor", catalog.G2_DEFAULT_PREFACTOR)
    tol_kw = _given(options, "tol")
    checks = []

    def record(name, passed, **details):
        entry = {"name": name, "passed": bool(passed)}
        entry.update(details)
        checks.append(entry)

    # Four-case catalog of systems inside M_2: dim C*(V) = dim V'' and its
    # commutativity, computed, against the catalog's envelope descriptors
    # (for these four systems C*(V) is the envelope).
    cases = catalog.four_case_catalog()
    computed = [(systems.cstar_dim(s), systems.is_commutative(s)) for s, _ in cases]
    case_info = [{"span_dim": len(s), "envelope": e.name, "envelope_dim": dim,
                  "commutative": commutative}
                 for (s, e), (dim, commutative) in zip(cases, computed)]
    record("four-case-catalog",
           computed == [(e.dim, e.commutative) for _, e in cases],
           cases=case_info)

    # Rebit cone on the integer grid: a*I + b*X + c*Z positive iff b^2+c^2 <= a^2.
    p = catalog.pauli_basis()
    rebit = catalog.rebit_system()
    a, b, c = (x.reshape(-1, 1, 1) for x in np.meshgrid(*[np.arange(-2, 3)] * 3, indexing="ij"))
    got = systems.positive_elements(rebit, a * p.I + b * p.X + c * p.Z, **tol_kw)
    want = (b * b + c * c <= a * a) & (a >= 0)
    record("rebit-cone-grid", np.all(got == want.ravel()), grid="{0,+-1,+-2}^3")

    # The rotation group's cross-check and the dissipative semigroup's starts
    # are one lockstep batch on the rebit's ccp cone, at the scenario's tol.
    rot = catalog.rebit_rotation(omega)
    diss = catalog.rebit_dissipative(delta)
    solve_options = ExtensionOptions(**tol_kw)
    rot_problem = ExtensionProblem.for_generator(rebit, rot, solve_options)
    diss_problem = ExtensionProblem.for_generator(rebit, diss, solve_options)
    rot_seeds = extension._start_seeds(options.get("seed", 0), starts)
    runs = extension.multi_start([rot_problem] * starts + [diss_problem] * starts,
                                 rot_seeds + list(range(starts)))
    rot_runs, diss_runs = runs[:starts], runs[starts:]

    # Rotation group: unique extension equals the commutator generator.
    truth = catalog.rotation_extension_generator(omega)
    try:
        gen, group_report = extension.extend_group(rot_problem)
        group_report = extension._group_cross_check(gen, group_report, rot_runs,
                                                    solve_options.tol)
        rot_err = gen.op.distance(truth.op)
        record("rotation-extension-unique", rot_err <= DEMO_UNIQUE_DISTANCE_TOL,
               distance_to_commutator_generator=rot_err,
               uniqueness_spread=group_report.uniqueness_spread,
               inverse_residual=group_report.inverse_residual)
    except GroupExtensionError as exc:
        record("rotation-extension-unique", False, error=str(exc))

    # Dissipative semigroup: extension exists but is not unique.
    certified = dynamics.certify_each([op for op, _ in diss_runs], **tol_kw)
    all_converged = all(report.converged and cert.certificates.certified
                        for (_, report), cert in zip(diss_runs, certified))
    spread = extension.max_pairwise_distance([op.apply(p.Y) for op, _ in diss_runs])
    record("dissipative-extension-not-unique", all_converged and spread >= DEMO_NONUNIQUE_SPREAD,
           all_converged=all_converged, max_spread_on_Y=spread)

    # The two named dissipative generators: same rebit action, different on Y.
    gen1 = catalog.g1(delta)
    gen2 = catalog.g2(delta, prefactor=prefactor)
    diss_images = [diss.apply(v) for v in rebit.basis]
    same_on_rebit = extension.restriction_error(gen1.op, rebit.basis, diss_images)
    record("g1-restricts-to-dissipation", same_on_rebit <= DEMO_EXACT_TOL,
           restriction_error=same_on_rebit)
    g2_restriction = extension.restriction_error(gen2.op, rebit.basis, diss_images)
    g2_x_coeff = float(np.real(np.trace(p.X.conj().T @ gen2.op.apply(p.X)) / 2.0))
    record("g2-restricts-to-dissipation", g2_restriction <= DEMO_EXACT_TOL,
           restriction_error=g2_restriction, prefactor=prefactor,
           action_on_X_coefficient=g2_x_coeff, expected_coefficient=-delta)
    y1 = float(np.real(np.trace(p.Y.conj().T @ gen1.op.apply(p.Y)) / 2.0))
    y2 = float(np.real(np.trace(p.Y.conj().T @ gen2.op.apply(p.Y)) / 2.0))
    record("g1-g2-differ-on-Y",
           abs(y1 + 2.0 * delta) <= DEMO_EXACT_TOL and abs(y2 + delta) <= DEMO_EXACT_TOL,
           g1_Y_coefficient=y1, g2_Y_coefficient=y2)
    t_probe = 1.0
    diff = dynamics.evolve(gen1, t_probe).distance(dynamics.evolve(gen2, t_probe))
    record("evolutions-differ", diff > 0.1, frobenius_difference=diff, t=t_probe)

    failed = [c["name"] for c in checks if not c["passed"]]
    return not failed, {"delta": delta, "omega": omega, "g2_prefactor": prefactor,
                        "checks": checks, "failed_checks": failed}


# "check-cp" -> _cmd_check_cp, ...; a test holds these to the schema's command enum.
_HANDLERS = {name[len("_cmd_"):].replace("_", "-"): handler
             for name, handler in globals().items() if name.startswith("_cmd_")}


# ---------------------------------------------------------------------------
# Report assembly and rendering
# ---------------------------------------------------------------------------

def _envelope(command, options: dict) -> dict:
    """The report fields every report carries: the command and provenance."""
    return {"command": command,
            "provenance": {"tool": "ucpext", "version": __version__,
                           "seed": options.get("seed"), "options": options,
                           "choi_convention": CHOI_CONVENTION}}


def _json_safe(value):
    """``value`` with each non-finite float spelled as its JSON-like token, the
    string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return value


def _invalid_input(report: dict, message: str) -> dict:
    """Mark ``report`` invalid input.  Its echo of the input becomes strict
    JSON, and a seed that is not an integer is echoed in the options only."""
    provenance = report["provenance"]
    if not _scenario_validator().is_type(provenance["seed"], "integer"):
        provenance["seed"] = None
    provenance["options"] = _json_safe(provenance["options"])
    report.update(status="invalid-input", results={},
                  error={"type": "input", "message": message})
    return report


def run_scenario(scenario) -> dict:
    """Execute one scenario dict and return the full report; any other value
    is invalid input."""
    fields = scenario if isinstance(scenario, dict) else {}  # else validation rejects it
    options = fields.get("options", {})
    options = dict(options) if isinstance(options, dict) else {}
    base = _envelope(fields.get("command"), options)
    try:
        validate_scenario(scenario)
        holds, results = _HANDLERS[base["command"]](scenario, _decode_options(options))
        base.update(status="ok" if holds else "failed", results=results)
    except InputError as exc:
        _invalid_input(base, str(exc))
    except (Failure, np.linalg.LinAlgError) as exc:
        base.update(status="failed", results={},
                    error={"type": type(exc).__name__, "message": str(exc),
                           **getattr(exc, "fields", {})})
    return base


_EXIT_BY_STATUS = {"ok": 0, "failed": 1, "invalid-input": 2}


def _render_text(report: dict) -> str:
    def fmt(value, indent=0):
        pad = "  " * indent
        lines = []
        if isinstance(value, dict):
            for key, val in value.items():
                if isinstance(val, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    lines.extend(fmt(val, indent + 1))
                else:
                    lines.append(f"{pad}{key}: {_fmt_scalar(val)}")
        elif isinstance(value, list):
            if len(value) > 8:
                lines.append(f"{pad}[{len(value)} entries]")
            else:
                for item in value:
                    if isinstance(item, (dict, list)):
                        lines.append(f"{pad}-")
                        lines.extend(fmt(item, indent + 1))
                    else:
                        lines.append(f"{pad}- {_fmt_scalar(item)}")
        return lines

    head = [f"command: {report['command']}", f"status: {report['status']}"]
    body = fmt({k: v for k, v in report.items() if k not in ("command", "status")})
    return "\n".join(head + body)


def _fmt_scalar(value):
    if isinstance(value, float):
        return f"{value:.3e}"
    return value


def _emit(report, mode: str) -> None:
    if mode == "json":
        print(json.dumps(report, sort_keys=True))
    else:
        print(_render_text(report))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ucpext",
        description="Operator-system semigroup toolkit: scenario runner.")
    sub = parser.add_subparsers(dest="mode", required=True)

    runp = sub.add_parser("run", help="run one scenario file (or several with --batch)")
    runp.add_argument("scenario", nargs="+", help="scenario JSON file(s)")
    runp.add_argument("--batch", action="store_true",
                      help="run all given scenarios, each isolated; exit with the worst code")
    runp.add_argument("--tol", type=float, default=None)
    runp.add_argument("--max-iter", type=int, default=None)
    runp.add_argument("--seed", type=int, default=None)
    runp.add_argument("--omega", type=float, default=None)
    runp.add_argument("--starts", type=int, default=None)
    runp.add_argument("--report", choices=("json", "text"), default="json")

    demo = sub.add_parser("demo-rebit", help="run the full rebit demonstration")
    demo.add_argument("--delta", type=float, default=1.0)
    demo.add_argument("--omega-param", type=float, default=1.0)
    demo.add_argument("--g2-prefactor", choices=("derived", "paper"),
                      default=catalog.G2_DEFAULT_PREFACTOR)
    demo.add_argument("--starts", type=int, default=DEFAULT_STARTS)
    demo.add_argument("--seed", type=int, default=0)
    demo.add_argument("--report", choices=("json", "text"), default="json")
    return parser


def _apply_flag_overrides(scenario, args):
    options = scenario.get("options", {}) if isinstance(scenario, dict) else None
    if not isinstance(options, dict):
        return scenario  # validation rejects it
    options = dict(options)
    for key in ("tol", "max_iter", "seed", "omega", "starts"):
        value = getattr(args, key, None)
        if value is not None:
            options[key] = value
    return {**scenario, "options": options}


def _reports(args):
    """The report of each scenario the command line names, computed one at a time."""
    if args.mode == "demo-rebit":
        yield run_scenario({"command": "demo-rebit", "options": {
            "delta_param": args.delta, "omega_param": args.omega_param,
            "g2_prefactor": args.g2_prefactor, "starts": args.starts, "seed": args.seed}})
        return
    paths = args.scenario
    flag_options = _apply_flag_overrides({}, args)["options"]
    if len(paths) > 1 and not args.batch:
        yield _invalid_input(_envelope(None, flag_options),
                             "multiple scenarios require --batch")
        return
    for path in paths:
        try:
            scenario = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            yield _invalid_input(_envelope(None, flag_options),
                                 f"cannot parse scenario {path}: {exc}")
            continue
        yield run_scenario(_apply_flag_overrides(scenario, args))


def main(argv=None) -> int:
    """Exit with the worst code of the reports computed; a closed pipe stops the run."""
    args = build_parser().parse_args(argv)
    worst = 0
    try:
        for report in _reports(args):
            worst = max(worst, _EXIT_BY_STATUS[report["status"]])
            _emit(report, args.report)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:  # the interpreter's last flush goes to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return worst


if __name__ == "__main__":
    sys.exit(main())
