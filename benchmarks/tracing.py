"""Span tracing of the program from outside, and the per-layer metrics.

``Tracer.install`` wraps every public function of the layer modules (and a
few public methods), then rebinds each wrapper in every ``ucpext`` namespace
that bound the original, so calls made through ``from .systems import
contains`` are seen too.  It also wraps the numpy/scipy kernels the layers
call (``extension`` calls ``numpy.linalg.eigh`` directly, not through
``ucpext.linalg``).  ``uninstall`` restores every binding.

Spans are kept in memory as parallel integer arrays (name, parent, start,
end, scenario) and written out once at the end.  Nothing inside ``src/`` is
changed: spans sit at the boundaries of public calls only, so private
internals such as the multi-start loops show up as self time of their public
caller.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np
import scipy.linalg

LAYERS = ("cli", "serialize", "systems", "maps", "dynamics", "extension", "linalg")

# Public methods reached through instances or classes, not module functions.
_METHODS = {
    "systems": {"MatricialSystem": ("from_basis",)},
    "maps": {"SuperOp": ("apply", "compose", "from_transfer")},
    "dynamics": {"SubsystemGenerator": ("from_action",)},
}

KERNELS = (
    (np.linalg, "numpy.linalg", ("eigh", "eigvalsh", "svd", "solve", "inv", "cond")),
    (scipy.linalg, "scipy.linalg", ("expm",)),
)

# Name groups behind the per-layer time metrics ("layer.function").
GROUPS = {
    "serialize.from_json": ("serialize.matrix_from_json", "serialize.superop_from_json",
                            "serialize.generator_from_json", "serialize.system_from_json"),
    "serialize.to_json": ("serialize.matrix_to_json", "serialize.superop_to_json",
                          "serialize.generator_to_json"),
    "systems.membership": ("systems.contains", "systems.project_onto", "systems.project_level",
                           "systems.level_membership_residual", "systems.is_positive_element"),
    "maps.apply": ("maps.SuperOp.apply", "maps.apply", "maps.amplification_apply"),
    "maps.cp_check": ("maps.is_completely_positive", "maps.is_unital", "maps.is_ucp",
                      "maps.is_hermiticity_preserving"),
    "maps.construct": ("maps.identity_map", "maps.zero_map", "maps.from_kraus",
                       "maps.from_action", "maps.conjugation_map", "maps.transpose_map",
                       "maps.SuperOp.from_transfer", "maps.SuperOp.compose", "maps.compose"),
    "dynamics.evolve": ("dynamics.evolve", "dynamics.subsystem_evolve_images"),
    "dynamics.resolvent": ("dynamics.resolvent", "dynamics.subsystem_resolvent_images"),
    "extension.public_solve": ("extension.extend_ucp_map", "extension.extend_generator"),
    "extension.multistart": ("extension.extend_group", "extension.rigidity_probe"),
}

UNCOUNTED_NOTE = (
    "extension.solves/iterations/budget_exhausted/converged_ratio count the solves "
    "reached through the public extend_ucp_map and extend_generator only; the "
    "random starts inside extend_group and rigidity_probe call the private solver "
    "and stay uncounted until solver telemetry exposes per-start outcomes "
    "(ROADMAP item 5)")


def _public_functions(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        obj = getattr(module, name)
        if callable(obj) and not isinstance(obj, type) and \
                getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.scenario = array("q")
        self.current_scenario = -1
        self._stack = []
        self.counts = defaultdict(int)      # (scenario, counter) -> value
        self._restore = []

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, observe=None):
        """A wrapper of ``fn`` that records one span per call."""
        nid = self.name_id(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.name)
            self.name.append(nid)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.scenario.append(self.current_scenario)
            self.start.append(0)
            self.end.append(0)
            self._stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def count(self, key: str, value=1):
        self.counts[(self.current_scenario, key)] += value

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapper):
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "ucpext" and not mod_name.startswith("ucpext."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def install(self):
        import importlib

        for layer in LAYERS:
            module = importlib.import_module(f"ucpext.{layer}")
            for name, fn in list(_public_functions(module)):
                observe = self._observe_solve if name in ("extend_ucp_map",
                                                          "extend_generator") else None
                self._rebind(fn, self.span(f"{layer}.{name}", fn, observe))
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    self._restore.append((cls, meth, raw))
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.span(f"{layer}.{cls_name}.{meth}", raw.__func__))
                    else:
                        wrapped = self.span(f"{layer}.{cls_name}.{meth}", raw)
                    setattr(cls, meth, wrapped)
        for module, prefix, names in KERNELS:
            for name in names:
                fn = getattr(module, name)
                observe = self._observe_eigh if name == "eigh" else None
                self._restore.append((module, name, fn))
                setattr(module, name, self.span(f"{prefix}.{name}", fn, observe))

    def uninstall(self):
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    def _observe_solve(self, args, result):
        problem, report = args[0], result[-1]
        self.count("solves")
        self.count("iterations", report.iterations)
        if report.converged:
            self.count("converged")
        else:
            self.count("wasted_iterations", report.iterations)
            if report.iterations >= problem.options.max_iter:
                self.count("budget_exhausted")

    def _observe_eigh(self, args, result):
        n = np.shape(args[0])[-1]
        self.count("eigh_calls")
        self.count("eigh_n3", n ** 3)

    # -- output ------------------------------------------------------------

    def write(self, path, scenario_names):
        data = {
            "names": self.names,
            "scenarios": scenario_names,
            "columns": ["name", "parent", "start_ns", "end_ns", "scenario"],
            "spans": [self.name.tolist(), self.parent.tolist(), self.start.tolist(),
                      self.end.tolist(), self.scenario.tolist()],
        }
        with gzip.open(path, "wt") as fh:
            json.dump(data, fh)


class SpanTable:
    """Durations, self times and group-outermost times of a span range."""

    def __init__(self, tracer: Tracer, lo: int, hi: int):
        self.names = tracer.names
        self.name = tracer.name[lo:hi]
        self.parent = [p - lo if p >= lo else -1 for p in tracer.parent[lo:hi]]
        self.dur = [(e - s) * 1e-9 for s, e in zip(tracer.start[lo:hi], tracer.end[lo:hi])]
        child = [0.0] * len(self.dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]

    def ids(self, names) -> set:
        wanted = set(names)
        return {i for i, n in enumerate(self.names) if n in wanted}

    def calls(self, names) -> int:
        ids = self.ids(names)
        return sum(1 for n in self.name if n in ids)

    def inclusive(self, names) -> float:
        """Time covered by spans of ``names``, counting nested ones once."""
        ids = self.ids(names)
        inside = [False] * len(self.name)  # some ancestor is in the group
        total = 0.0
        for i, n in enumerate(self.name):
            p = self.parent[i]
            inside[i] = p >= 0 and (inside[p] or self.name[p] in ids)
            if n in ids and not inside[i]:
                total += self.dur[i]
        return total

    def self_of(self, predicate) -> float:
        return sum(t for n, t in zip(self.name, self.self_time) if predicate(self.names[n]))

    def layer_self_times(self) -> dict:
        out = defaultdict(float)
        for n, t in zip(self.name, self.self_time):
            name = self.names[n]
            out["kernels" if name.startswith(("numpy.", "scipy.")) else name.split(".")[0]] += t
        return dict(out)
