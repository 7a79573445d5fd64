"""JSON (de)serialization of matrices, maps, generators, and systems.

Wire format:

  complex scalar   [re, im]
  matrix           row-major nested lists of complex scalars
  SuperOp          {"d": n, "choi": <matrix>}
  generator        {"kind": "gksl", "H": <matrix>, "jumps": [{"op": m, "rate": r}]}
                   or {"kind": "choi", "super": <SuperOp>}
  system           {"basis": [<matrix>, ...]} or a catalog name (CLI level)

Choi matrices embedded in reports carry an explicit convention tag so the
block layout is auditable from the file alone.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import catalog, dynamics, linalg
from .dynamics import Generator
from .errors import InputError
from .maps import SuperOp
from .systems import MatricialSystem

CHOI_CONVENTION = "col-stack-blocks-Eij"

__all__ = [
    "CHOI_CONVENTION",
    "matrix_to_json",
    "matrix_from_json",
    "superop_to_json",
    "superop_from_json",
    "generator_to_json",
    "generator_from_json",
    "system_from_json",
]


def matrix_to_json(m) -> list:
    a = linalg.as_matrix(m)
    return np.stack((a.real, a.imag), -1).tolist()


def matrix_from_json(data) -> np.ndarray:
    """Decode rectangular, nonempty rows of finite ``[re, im]`` numbers in one cast."""
    entries = np.array(data, dtype=object)
    if entries.ndim != 3 or entries.shape[2] != 2 or not entries.size:
        raise InputError("matrix JSON must be rectangular, nonempty rows of [re, im] pairs")
    kinds = set(map(type, entries.flat))
    if not all(issubclass(k, numbers.Real) and k is not bool for k in kinds):
        raise InputError("matrix JSON entries must be numbers, not strings or booleans")
    try:
        pairs = entries.astype(float)
    except OverflowError as exc:
        raise InputError(f"malformed matrix JSON: {exc}") from None
    return linalg.as_matrix(pairs.view(complex)[..., 0])


def _number(value, what: str) -> float:
    """A JSON number as a float; a string, a boolean or any other value is
    invalid input."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise InputError(f"{what} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise InputError(f"{what} is too large for a float") from None


def superop_to_json(phi: SuperOp, tagged: bool = False) -> dict:
    out = {"d": int(phi.d), "choi": matrix_to_json(phi.choi)}
    if tagged:
        out["convention"] = CHOI_CONVENTION
    return out


def superop_from_json(data) -> SuperOp:
    if not isinstance(data, dict) or "d" not in data or "choi" not in data:
        raise InputError('SuperOp JSON must be {"d": n, "choi": [...]}')
    convention = data.get("convention", CHOI_CONVENTION)
    if convention != CHOI_CONVENTION:
        raise InputError(f"unsupported Choi convention {convention!r}")
    d = _number(data["d"], "SuperOp d")
    if not d.is_integer():
        raise InputError(f"SuperOp d must be an integer, got {data['d']!r}")
    return SuperOp(d=int(d), choi=matrix_from_json(data["choi"]))


def generator_to_json(gen: Generator) -> dict:
    return {"kind": "choi", "super": superop_to_json(gen.op)}


def generator_from_json(data) -> Generator:
    if not isinstance(data, dict) or "kind" not in data:
        raise InputError('generator JSON must carry a "kind" field')
    kind = data["kind"]
    if kind == "gksl":
        ham = matrix_from_json(data["H"]) if data.get("H") is not None else None
        entries = data.get("jumps", [])
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and "op" in e and "rate" in e for e in entries):
            raise InputError('gksl jumps must be a list of {"op": <matrix>, "rate": r}')
        jumps = [(matrix_from_json(e["op"]), _number(e["rate"], "jump rate")) for e in entries]
        if ham is not None:
            d = ham.shape[0]
        elif jumps:
            d = jumps[0][0].shape[0]
        else:
            raise InputError("gksl generator needs H or at least one jump")
        return dynamics.gksl_generator(d, hamiltonian=ham, jumps=jumps)
    if kind == "choi":
        return dynamics.certify(superop_from_json(data.get("super")))
    raise InputError(f"unknown generator kind {kind!r}")


_SYSTEM_BUILDERS = {
    "span_I": catalog.trivial_system,
    "diagonal": catalog.diagonal_system,
    "rebit": catalog.rebit_system,
    "M2": catalog.qubit_system,
}


def system_from_json(data) -> MatricialSystem:
    """A system from a catalog name, "real_symmetric_<d>", or an inline basis."""
    if isinstance(data, str):
        if data in _SYSTEM_BUILDERS:
            return _SYSTEM_BUILDERS[data]()
        if data.startswith("real_symmetric_"):
            digits = data[len("real_symmetric_"):]
            try:
                # ASCII digits only: int() also reads a sign, blanks and other scripts' digits.
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(digits)
                d = int(digits)
            except ValueError:
                raise InputError(f"bad system name {data!r}") from None
            return catalog.real_symmetric_system(d)
        raise InputError(f"unknown system name {data!r}")
    if isinstance(data, dict) and isinstance(data.get("basis"), list):
        return MatricialSystem.from_basis([matrix_from_json(b) for b in data["basis"]])
    raise InputError('system must be a catalog name or {"basis": [...]}')
