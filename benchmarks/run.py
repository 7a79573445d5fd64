"""Benchmark of the ucpext scenario runner.

    python3 benchmarks/run.py --workload rebit_paper --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the directory holding ``src/ucpext``);
the checkout's ``src`` is imported, nothing is installed.  One process, one
client, closed loop: each scenario goes to ``ucpext.cli.run_scenario`` after
the previous one returned, and its report is encoded exactly as
``--report json`` does.  A pass runs every scenario of the workload once;
passes repeat until ``--seconds`` is spent.  Every report is checked against
a reference the benchmark computes from the objects that generated the
scenario (``checks.py``).  The end-to-end times are scaled to a nominal host
speed, measured between scenarios with a fixed piece of work that does not
touch ucpext (``Reference``); the detail record keeps them as measured too.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and two traced passes (``tracing.py``), plus the assembly
probe, and prints the per-layer metrics.  The last line of standard output is
the JSON result; the line before it is a JSON detail record (environment,
failed scenarios with reasons, tail percentile, host speed, determinism
checks).  Both, with per-scenario latencies and the span trace, are also
written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5       # timed fresh-process set-ups per run, after one warm-up
TAIL_BEYOND = 10        # samples the tail percentile must leave above it
TRACED_PASSES = 2
PROBE_DIMS = (2, 3, 4, 5, 6)
OUT_DIR = Path(".bench_out")
# The reference (see Reference): iterations of one slice, the seconds a sample
# takes on the host the end-to-end times are expressed for, and the scenario
# seconds between two samples.
REF_SLICE_ITERATIONS = 100
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.2
# The set-up reference: a fresh process importing what every set-up imports
# before ucpext, and the seconds it takes on that host.
SETUP_REFERENCE = "import json, numpy, scipy.linalg"
SETUP_REF_NOMINAL_S = 0.45


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("rebit_paper", "extend_cold", "shared_system"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def prepare():
    """Pin BLAS/OpenMP to one thread before numpy loads; put the checkout's
    ``src`` first on the path.  Refuses to run outside a checkout."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    src = Path.cwd() / "src"
    if not (src / "ucpext" / "cli.py").is_file():
        sys.exit("benchmark error: run from the root of a ucpext checkout "
                 "(no src/ucpext/cli.py under the current directory)")
    sys.path.insert(0, str(src))


# ---------------------------------------------------------------------------
# Environment record and the thread pin
# ---------------------------------------------------------------------------

_THREAD_QUERIES = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")


def blas_threads() -> dict:
    """Thread count reported by each OpenBLAS bundled with numpy and scipy."""
    import ctypes

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in _THREAD_QUERIES:
                if hasattr(handle, symbol):
                    found[lib.name] = int(getattr(handle, symbol)())
                    break
    return found


def environment() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = blas_threads()
    if not threads or any(n != 1 for n in threads.values()):
        sys.exit(f"benchmark error: BLAS thread pin not in effect "
                 f"(vendor {blas.get('name')}, threads {threads or 'unknown'})")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# Set-up time: fresh processes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> None:
    """What a CLI user pays before the first scenario runs: import the CLI,
    the lazily imported jsonschema with the first schema load, and scenario
    generation."""
    from ucpext import cli

    import workloads

    cases = workloads.generate(workload, seed)
    cli.validate_scenario(cases[0].scenario)


def measure_setup(workload: str, seed: int) -> tuple:
    """Fresh-process set-up times, as measured and at the reference speed:
    each sample is scaled by SETUP_REF_NOMINAL_S over the time of a fresh
    process, run just before it, that imports only numpy, scipy.linalg and
    json (SETUP_REFERENCE), so that the host's drift does not read as a
    change of the program's set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]

    def seconds(argv):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        return time.perf_counter() - t0

    seconds(cmd)  # warms the file cache and the bytecode
    measured, scaled = [], []
    for _ in range(SETUP_REPEATS):
        reference = seconds([sys.executable, "-c", SETUP_REFERENCE])
        elapsed = seconds(cmd)
        measured.append(elapsed)
        scaled.append(elapsed * SETUP_REF_NOMINAL_S / reference)
    return measured, scaled


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------


class Reference:
    """A fixed slice of work that does not touch ucpext: a Dykstra-like loop
    (eigh of a 16 x 16 symmetric matrix, a dense 256 x 256 projection, norms)
    and a JSON round trip, the mix the scenarios spend their time on.

    The host is shared, and its speed drifts: identical runs a few minutes
    apart differed by 1.7x in set-up and pass time.  Samples taken between
    scenarios (see run_pass) measure the same seconds as the scenarios, and
    each scenario's time is scaled by REF_NOMINAL_S over the samples around
    it.  The end-to-end times are thus seconds on a host where a sample takes
    REF_NOMINAL_S; the times as measured go to the detail record.  In a
    5-minute run that alternated this work with a fixed set of scenarios, the
    quartile spread of the scenarios' times over 30-s windows was 0.17 of
    their median as measured and 0.04 scaled."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        n = 16
        g = rng.normal(size=(n * n, n * n))
        self.np = np
        self.n = n
        self.proj = g @ np.linalg.pinv(g)
        self.x0 = rng.normal(size=n * n)
        self.doc = {"rows": [[[float(i), float(-i)] for i in range(n)] for _ in range(4)]}

    def slice(self) -> float:
        np, n, proj, x = self.np, self.n, self.proj, self.x0
        t0 = time.perf_counter()
        for _ in range(REF_SLICE_ITERATIONS):
            m = x.reshape(n, n)
            w, v = np.linalg.eigh(0.5 * (m + m.T))
            y = ((v * np.maximum(w, 0.0)) @ v.T).reshape(-1)
            x = proj @ (y + 0.01) + 0.5 * (x - y)
            float(np.linalg.norm(x - y))
        json.loads(json.dumps(self.doc, sort_keys=True))
        return time.perf_counter() - t0

    def sample(self) -> float:
        """Median of three slices: the first refills the caches the scenario
        before it evicted."""
        return statistics.median(self.slice() for _ in range(3))


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def run_pass(cases, run_one, reference=None):
    """Run every scenario once, back to back: (wall seconds, latencies,
    encoded reports, per-scenario scales to the reference speed).  With a
    reference, a sample of it is taken whenever REF_EVERY_S of scenario time
    has passed since the last one, outside the timed latencies; the scenarios
    in between are scaled by the mean of the samples either side."""
    latencies, reports, scales = [], [], [1.0] * len(cases)
    pending, since, last = [], 0.0, None
    for i, case in enumerate(cases):
        t0 = time.perf_counter()
        text = run_one(i, case.scenario)
        latencies.append(time.perf_counter() - t0)
        reports.append(text)
        if reference is None:
            continue
        pending.append(i)
        since += latencies[-1]
        if since >= REF_EVERY_S or i == len(cases) - 1:
            sample = reference.sample()
            speed = REF_NOMINAL_S / (sample if last is None else 0.5 * (last + sample))
            for j in pending:
                scales[j] = speed
            pending, since, last = [], 0.0, sample
    return sum(latencies), latencies, reports, scales


def timed_passes(cases, seconds, run_one, reference):
    """Whole passes until ``seconds`` is spent; at least one."""
    passes = []
    t_start = time.perf_counter()
    while True:
        passes.append(run_pass(cases, run_one, reference))
        elapsed = time.perf_counter() - t_start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def judge(cases, passes):
    """Check every scenario's report.  Each scenario counts once in
    ``attempted`` and ``failed``, so the counts depend on the seed alone, not
    on how many passes fit the run; the repeats of later passes are for
    timing and must reproduce the first report byte for byte."""
    import checks

    first = passes[0][2]
    executions = [(case.name, *checks.verdict(case, json.loads(text)))
                  for case, text in zip(cases, first)]
    return {
        "attempted": len(executions),
        "failed": sum(1 for e in executions if e[1] != "ok"),
        "wrong": sum(1 for e in executions if e[1] == "wrong"),
        "failed_scenarios": [
            {"name": n, "expected": "ok (feasible by construction)", "kind": k, "reason": r}
            for n, k, r in executions if k != "ok"],
        "nondeterministic_reports": [
            case.name for i, case in enumerate(cases)
            if any(p[2][i] != first[i] for p in passes[1:])],
    }


def input_determinism(workload: str, seed: int, cases) -> dict:
    import workloads

    first = workloads.input_bytes(cases)
    again = workloads.input_bytes(workloads.generate(workload, seed))
    other = workloads.input_bytes(workloads.generate(workload, seed + 1))
    return {"same_seed_identical": first == again, "other_seed_differs": first != other}


def percentile_tail(samples):
    """The highest percentile that leaves TAIL_BEYOND samples above it."""
    import numpy as np

    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples cannot give a tail with {TAIL_BEYOND} beyond it")
    pct = 100.0 * (n - TAIL_BEYOND) / n
    return float(np.percentile(samples, pct)), pct


def per_scenario_medians(passes):
    return [statistics.median(p[1][i] for p in passes) for i in range(len(passes[0][1]))]


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------


def assembly_probe() -> dict:
    """Agreement-constraint set-up through the public API: one map extension
    with a one-iteration budget per dimension."""
    from ucpext import catalog, extension
    from ucpext.extension import ExtensionOptions, ExtensionProblem

    out = {}
    for d in PROBE_DIMS:
        system = catalog.real_symmetric_system(d)
        problem = ExtensionProblem.for_map(system, list(system.basis),
                                           ExtensionOptions(max_iter=1))
        t0 = time.perf_counter()
        extension.extend_ucp_map(problem)
        out[f"extension.assembly_probe_s.d{d}"] = time.perf_counter() - t0
    return out


def layer_metrics(table, counts, n_scenarios, report_bytes) -> dict:
    from tracing import GROUPS

    solves = counts.get("solves", 0)
    iterations = counts.get("iterations", 0)
    public_solve_s = table.inclusive(GROUPS["extension.public_solve"])
    return {
        "cli.scenarios": n_scenarios,
        "cli.validate_scenario_s": table.inclusive(["cli.validate_scenario"]),
        "cli.run_scenario_self_s": table.self_of(lambda n: n == "cli.run_scenario"),
        "cli.report_encode_s": table.inclusive(["bench.encode"]),
        "cli.report_bytes": report_bytes,
        "serialize.from_json_s": table.inclusive(GROUPS["serialize.from_json"]),
        "serialize.to_json_s": table.inclusive(GROUPS["serialize.to_json"]),
        "systems.from_basis_calls": table.calls(["systems.MatricialSystem.from_basis"]),
        "systems.from_basis_s": table.inclusive(["systems.MatricialSystem.from_basis"]),
        "systems.membership_s": table.inclusive(GROUPS["systems.membership"]),
        "maps.apply_calls": table.calls(GROUPS["maps.apply"]),
        "maps.apply_s": table.inclusive(GROUPS["maps.apply"]),
        "maps.cp_check_s": table.inclusive(GROUPS["maps.cp_check"]),
        "maps.construct_s": table.inclusive(GROUPS["maps.construct"]),
        "dynamics.certify_calls": table.calls(["dynamics.certify"]),
        "dynamics.certify_s": table.inclusive(["dynamics.certify"]),
        "dynamics.evolve_s": table.inclusive(GROUPS["dynamics.evolve"]),
        "dynamics.resolvent_s": table.inclusive(GROUPS["dynamics.resolvent"]),
        "dynamics.laplace_resolvent_s": table.inclusive(["dynamics.laplace_resolvent"]),
        "dynamics.validate_self_s": table.self_of(
            lambda n: n == "dynamics.validate_subsystem_semigroup"),
        "extension.solves": solves,
        "extension.iterations": iterations,
        "extension.budget_exhausted": counts.get("budget_exhausted", 0),
        "extension.converged_ratio": counts.get("converged", 0) / solves if solves else 0.0,
        "extension.wasted_iteration_share":
            counts.get("wasted_iterations", 0) / iterations if iterations else 0.0,
        "extension.self_s": table.self_of(lambda n: n.startswith("extension.")),
        "extension.us_per_iteration": 1e6 * public_solve_s / iterations if iterations else 0.0,
        "extension.multistart_s": table.inclusive(GROUPS["extension.multistart"]),
        "linalg.eigh_calls": table.calls(["numpy.linalg.eigh"]),
        "linalg.eigh_s": table.inclusive(["numpy.linalg.eigh"]),
        "linalg.eigh_n3": counts.get("eigh_n3", 0),
        "linalg.eigvalsh_calls": table.calls(["numpy.linalg.eigvalsh"]),
        "linalg.eigvalsh_s": table.inclusive(["numpy.linalg.eigvalsh"]),
        "linalg.expm_calls": table.calls(["scipy.linalg.expm"]),
        "linalg.expm_s": table.inclusive(["scipy.linalg.expm"]),
        "linalg.svd_calls": table.calls(["numpy.linalg.svd"]),
        "linalg.svd_s": table.inclusive(["numpy.linalg.svd"]),
        "linalg.solve_s": table.inclusive(["numpy.linalg.solve"]),
        "linalg.public_self_s": table.self_of(lambda n: n.startswith("linalg.")),
    }


def traced_run(cases, cli, tag: str):
    """One untraced pass, then TRACED_PASSES traced ones.  Returns
    (untraced pass, traced passes, per-layer metrics, detail)."""
    import tracing

    untraced = run_pass(cases, lambda i, sc: json.dumps(cli.run_scenario(sc), sort_keys=True))
    tracer = tracing.Tracer()
    encode = tracer.span("bench.encode", lambda report: json.dumps(report, sort_keys=True))
    offset = [0]

    def run_one(i, scenario):
        tracer.current_scenario = offset[0] + i
        return encode(cli.run_scenario(scenario))

    root = tracer.span("bench.scenario", run_one)
    passes, bounds = [], []
    tracer.install()
    try:
        for k in range(TRACED_PASSES):
            offset[0] = k * len(cases)
            lo = len(tracer.name)
            passes.append(run_pass(cases, root))
            bounds.append((lo, len(tracer.name)))
    finally:
        tracer.uninstall()
    probe = assembly_probe()

    per_pass, repeat = [], []
    for k, (lo, hi) in enumerate(bounds):
        scen = range(k * len(cases), (k + 1) * len(cases))
        counts = {}
        for (s, key), value in tracer.counts.items():
            if s in scen:
                counts[key] = counts.get(key, 0) + value
        repeat.append([(tracer.counts.get((s, "iterations"), 0),
                        tracer.counts.get((s, "eigh_calls"), 0)) for s in scen]
                      + [counts.get("iterations", 0), counts.get("eigh_calls", 0)])
        table = tracing.SpanTable(tracer, lo, hi)
        report_bytes = sum(len(t) for t in passes[k][2])
        metrics = layer_metrics(table, counts, len(cases), report_bytes)
        metrics["trace.spans"] = hi - lo
        per_pass.append((metrics, table.layer_self_times()))

    metrics = {name: statistics.mean(m[name] for m, _ in per_pass) for name in per_pass[0][0]}
    metrics.update(probe)
    traced_wall = statistics.median(p[0] for p in passes)
    metrics["trace.overhead_s"] = traced_wall - untraced[0]

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{tag}.json.gz"
    tracer.write(trace_file, [c.name for c in cases] * TRACED_PASSES)
    detail = {
        "untraced_wall_s": untraced[0],
        "traced_wall_s": [p[0] for p in passes],
        "layer_self_s": {k: statistics.mean(s.get(k, 0.0) for _, s in per_pass)
                         for k in per_pass[0][1]},
        "counts_repeat_exactly": all(r == repeat[0] for r in repeat),
        "trace_file": str(trace_file),
        "notes": [tracing.UNCOUNTED_NOTE,
                  "extension.us_per_iteration divides the whole time of the public solves, "
                  "set-up included, by their iterations",
                  "the assembly probe runs for d = 2..6 on every workload so every "
                  "workload reports the same metrics"],
    }
    return untraced, passes, metrics, detail


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def declared_units(section: str) -> dict:
    """Metric names and units of one section of BENCHMARK.json."""
    spec = json.loads(Path("BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def main(argv=None) -> int:
    args = parse_args(argv)
    prepare()
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    env = environment()
    tag = f"{args.workload}-seed{args.seed}"
    # Set-up is an end-to-end metric; the traced run skips it to stay short.
    reference = None if args.trace else Reference()
    setup_measured, setup_scaled = (
        ([], []) if args.trace else measure_setup(args.workload, args.seed))

    from ucpext import cli

    import workloads

    cases = workloads.generate(args.workload, args.seed)
    determinism = input_determinism(args.workload, args.seed, cases)
    cli.validate_scenario(cases[0].scenario)  # lazy jsonschema import before timing

    if args.trace:
        untraced, traced, layer_values, trace_detail = traced_run(cases, cli, tag)
        determinism["traced_counts_repeat"] = trace_detail.pop("counts_repeat_exactly")
        timed, passes = [untraced], [untraced] + traced
    else:
        timed = passes = timed_passes(cases, args.seconds, lambda i, sc: json.dumps(
            cli.run_scenario(sc), sort_keys=True), reference)
    outcome = judge(cases, passes)

    def times(passes, setup):
        medians = per_scenario_medians(passes)
        tail, pct = percentile_tail(medians)
        return {"setup_s": statistics.median(setup) if setup else None,
                "wall_s": statistics.median(p[0] for p in passes),
                "scenario_s_p50": statistics.median(medians),
                "scenario_s_tail": tail}, pct, len(medians)

    # Times at the reference speed (see Reference); the traced run takes no
    # reference slices, and its scale is 1.
    measured_s, pct, n_samples = times(timed, setup_measured)
    scaled = [(sum(t * k for t, k in zip(p[1], p[3])), [t * k for t, k in zip(p[1], p[3])])
              for p in timed]
    end_to_end = {
        **times(scaled, setup_scaled)[0],
        "failed_share": outcome["failed"] / outcome["attempted"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    determinism["repeats_identical"] = not outcome["nondeterministic_reports"]
    correct = outcome["wrong"] == 0 and all(determinism.values())
    units = declared_units("end_to_end")

    detail = {
        "benchmark": "ucpext", "workload": args.workload, "seed": args.seed,
        "trace": args.trace, "scenarios": len(cases), "passes": len(passes),
        "loop": "closed, one client, one process",
        "environment": env,
        "end_to_end": {k: {"value": v, "unit": units.get(k, "ratio")}
                       for k, v in end_to_end.items()},
        "scenario_s_tail": {"percentile": pct, "samples": n_samples,
                            "beyond": TAIL_BEYOND,
                            "sample": "per-scenario median latency over passes"},
        "host_speed": {"nominal_sample_s": REF_NOMINAL_S,
                       "setup_reference_nominal_s": SETUP_REF_NOMINAL_S,
                       "pass_scale": [statistics.median(p[3]) for p in timed],
                       "measured_s": measured_s},
        "setup_samples_s": {"measured": setup_measured, "scaled": setup_scaled},
        "pass_wall_s": {"measured": [p[0] for p in timed], "scaled": [p[0] for p in scaled]},
        "determinism": determinism,
        **outcome,
    }
    if args.trace:
        detail["trace_detail"] = trace_detail
    # Only the metrics BENCHMARK.json declares go into the result: failed_share
    # is 0 on healthy workloads, so it carries no relative bound and travels as
    # the result's attempted/failed counts.
    values, section = (layer_values, "per_layer") if args.trace else (end_to_end, "end_to_end")
    result_metrics = {k: {"value": values[k], "unit": u}
                      for k, u in declared_units(section).items()}
    OUT_DIR.mkdir(exist_ok=True)
    record = dict(detail, scenario_names=[c.name for c in cases],
                  latencies_s=[p[1] for p in passes])
    (OUT_DIR / f"run-{tag}-trace{args.trace}.json").write_text(json.dumps(record))
    print(json.dumps(detail))
    print(json.dumps({"correct": correct, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
