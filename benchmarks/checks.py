"""Independent output checks: one reference per scenario kind.

Each check takes the decoded report and the ``Case`` that generated the
scenario and returns ``None`` when the report is right, else a one-line
reason.  References come from the generating objects in ``Case.truth``; the
solver's own residuals are never taken as evidence.  Generator certificates
are recomputed with ``ucpext.dynamics.certify`` from the reported Choi
matrix, as a user of the library would.
"""

from __future__ import annotations

import numpy as np

from workloads import (REBIT_BASIS, apply_transfer, choi_to_transfer, gksl_transfer,
                       transfer_to_choi)

# A converged solve has residuals <= tol = 1e-8 against the targets the
# program computed; the references here are computed independently, so allow
# a factor of ten for rounding differences between the two computations.
RESTRICTION_TOL = 1e-7
GROUP_TOL = 1e-6  # distance of a group generator to i[H, .]


def _matrix(data) -> np.ndarray:
    a = np.asarray(data, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _choi_min_eig(choi) -> float:
    return float(np.linalg.eigvalsh(0.5 * (choi + choi.conj().T))[0])


def _restriction_error(choi, basis, targets) -> float:
    t = choi_to_transfer(choi)
    return max(float(np.linalg.norm(apply_transfer(t, v) - w)) for v, w in zip(basis, targets))


def _certified(choi) -> bool:
    from ucpext import dynamics, maps

    d = int(round(np.sqrt(choi.shape[0])))
    return dynamics.certify(maps.SuperOp(d, choi)).certificates.certified


def check_map(report, truth):
    choi = _matrix(report["results"]["map"]["choi"])
    min_eig = _choi_min_eig(choi)
    if min_eig < -1e-8 * (1.0 + np.linalg.norm(choi)):
        return f"Choi matrix not PSD: min eigenvalue {min_eig:.3e}"
    targets = [apply_transfer(truth["transfer"], v) for v in truth["basis"]]
    err = _restriction_error(choi, truth["basis"], targets)
    if err > RESTRICTION_TOL:
        return f"restriction error {err:.3e} against the generated map"
    return None


def _check_generator_choi(choi, truth):
    if not _certified(choi):
        return "recomputed certificates fail"
    err = _restriction_error(choi, truth["basis"], truth["action"])
    if err > RESTRICTION_TOL:
        return f"generator disagrees with the generated action on V by {err:.3e}"
    return None


def check_generator(report, truth):
    return _check_generator_choi(_matrix(report["results"]["generator"]["super"]["choi"]), truth)


def check_group(report, truth):
    choi = _matrix(report["results"]["generator"]["super"]["choi"])
    reference = transfer_to_choi(gksl_transfer(truth["ham"], []))
    dist = float(np.linalg.norm(choi - reference))
    if dist > GROUP_TOL:
        return f"group generator is {dist:.3e} from i[H, .]"
    return None


def check_resolvent_family(report, truth):
    results = report["results"]
    reason = _check_generator_choi(_matrix(results["generator"]["super"]["choi"]), truth)
    if reason:
        return reason
    # On the rebit, lam * R(lam, A) fixes I and scales X, Z by lam / (lam + delta).
    delta = truth["delta"]
    for member in results["family"]:
        lam = member["lambda"]
        choi = _matrix(member["map"]["choi"])
        if _choi_min_eig(choi) < -1e-7:
            return f"family member at lambda={lam:.3g} is not CP"
        targets = [REBIT_BASIS[0]] + [lam / (lam + delta) * v for v in REBIT_BASIS[1:]]
        err = _restriction_error(choi, REBIT_BASIS, targets)
        if err > 1e-6:
            return f"family member at lambda={lam:.3g} misses lam R(lam, A) by {err:.3e}"
    return None


def check_discrete(report, truth):
    powers = report["results"]["powers"]
    if len(powers) != report["provenance"]["options"]["horizon"] + 1:
        return "wrong number of powers"
    step = np.eye(4, dtype=complex)
    for k, power in enumerate(powers):
        choi = _matrix(power["choi"])
        targets = [apply_transfer(step, v) for v in truth["basis"]]
        err = _restriction_error(choi, truth["basis"], targets)
        if err > (k + 1) * RESTRICTION_TOL:
            return f"power {k} misses the k-th rotation on V by {err:.3e}"
        step = truth["step"] @ step
    return None


def check_demo(report, truth):
    failed = [c["name"] for c in report["results"]["checks"] if not c["passed"]]
    if failed or report["results"]["failed_checks"]:
        return f"demo checks failed: {failed}"
    return None


def check_rigidity(report, truth):
    if not report["results"]["all_identity"]:
        return "rigidity probe did not return all-identity on a rigid system"
    return None


def check_validate(report, truth):
    results = report["results"]
    if not results["valid"] or not all(c["feasible"] for c in results["checks"]):
        return f"validation rejected a UCP semigroup: {results['message']}"
    return None


def check_ccp(report, truth):
    r = report["results"]
    if not (r["hermiticity_preserving"] and r["unital_kernel"] and r["ccp"] and r["certified"]):
        return "a GKSL generator was not certified"
    if r["group_certificate"] != truth["group"]:
        return f"group certificate is {r['group_certificate']}, expected {truth['group']}"
    if abs(r["spectral_bound"]) > 1e-8:
        return f"spectral bound {r['spectral_bound']:.3e} of a UCP semigroup is not 0"
    return None


def check_identities(report, truth):
    r = report["results"]
    if len(r["hilbert"]) != 5 * 4:  # ordered pairs of the default 5-point grid
        return "Hilbert identity grid incomplete"
    if max(h["residual"] for h in r["hilbert"]) > r["hilbert_tol"]:
        return "Hilbert identity residual above tolerance"
    for entry in r["laplace"]:
        bound = 1e-8 / entry["lambda"]  # exp(-lam T) / lam at the default horizon
        if abs(entry["truncation_bound"] - bound) > 1e-6 * bound:
            return f"Laplace truncation bound {entry['truncation_bound']:.3e}, expected {bound:.3e}"
        if entry["quadrature_error"] > r["laplace_tol"]:
            return f"Laplace quadrature error {entry['quadrature_error']:.3e}"
    return None


CHECKS = {
    "map": check_map,
    "generator": check_generator,
    "group": check_group,
    "resolvent_family": check_resolvent_family,
    "discrete": check_discrete,
    "demo": check_demo,
    "rigidity": check_rigidity,
    "validate": check_validate,
    "ccp": check_ccp,
    "identities": check_identities,
}

EXPECTED_STATUS = "ok"


def verdict(case, report):
    """Classify one report: ``("ok", None)``, ``("failed", reason)`` for a
    scenario the program did not solve (status ``failed``: non-convergence or
    a verdict reached by exhausting the budget), or ``("wrong", reason)`` for
    output that is wrong (an ``ok`` report failing its check, or an input the
    program rejected although it is valid)."""
    status = report["status"]
    if status == "invalid-input":
        return "wrong", f"valid input rejected: {report['error']['message']}"
    if status != EXPECTED_STATUS:
        results = report["results"]
        message = (report.get("error") or {}).get("message") or results.get("message")
        if message is None and "report" in results:
            solve = results["report"]
            message = (f"not converged after {solve['iterations']} iterations "
                       f"(cone residual {solve['cone_residual']:.1e}, "
                       f"affine residual {solve['affine_residual']:.1e})")
        return "failed", f"status {status}: {message}"
    reason = CHECKS[case.check](report, case.truth)
    return ("wrong", reason) if reason else ("ok", None)

