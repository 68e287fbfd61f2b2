#!/usr/bin/env python3
"""Benchmark of the subeq package: timed workloads with correctness gates.

Run from the root of a source checkout:

    python3 bench/run.py --workload box-cascade --seed 0 --seconds 30 --trace 0

One process runs one workload in a closed loop: the operations are called
back to back, every operation once, then again while its median time still
fits before ``--seconds`` has passed.  Every output is checked by the
operation's gate (see ``workloads.py``); a failed gate, an exception or a
non-converged solve counts as a failed operation.

``--trace 0`` reports the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``).  ``--trace 1`` runs every operation untraced and traced,
in pairs, and reports the per-layer metrics of the first traced pass plus
the tracing overhead.  The last line of standard output is the result as
one JSON object; lines before it starting with ``#`` describe the
environment and each operation.  Result and span files go to
``.bench_out/`` in the checkout.
"""

import os
import sys

# one BLAS thread, set before anything imports numpy
BLAS_PIN = {v: "1" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                             "VECLIB_MAXIMUM_THREADS", "SUBEQ_THREADS")}
os.environ.update(BLAS_PIN)

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 7          # fresh interpreters per run; setup_s is their median
SETUP_TIMEOUT = 60.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "solver.sweeps": "count", "solver.sweeps_finest": "count",
    "solver.node_updates": "count", "solver.degenerate_nodes": "count",
    "solver.self_s": "s", "solver.ns_per_node_update": "ns",
    "catalog.rho_calls": "count", "catalog.rho_jets": "count",
    "catalog.rho_s": "s", "catalog.rho_jets_per_node_update": "jets/update",
    "catalog.rho_ns_per_jet": "ns",
    "grid.build_s": "s", "grid.assemble_calls": "count",
    "grid.assemble_s": "s",
    "linalg.eig_ns_per_matrix.n2": "ns", "linalg.eig_ns_per_matrix.n3": "ns",
    "core.sample_s": "s", "core.sample_accept_ratio": "ratio",
    "garding.eigen_s": "s", "jetmaps.self_s": "s",
    "riesz.rho_calls": "count", "riesz.s": "s", "boundary.s": "s",
    "expressions.eval_s": "s", "cli.render_s": "s",
    "trace.overhead_s": "s",
}


def _args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: time a cold set-up and print it")
    return ap.parse_args(argv)


def setup_probe(args) -> None:
    """Cold set-up in this fresh interpreter: import subeq and build every
    operator, expression, domain and GridProblem of the workload."""
    t0 = time.perf_counter()
    sys.path[:0] = [SRC, HERE]
    import workloads
    from tracing import Probe
    workloads.build(args.workload, args.seed, Probe(), OUT)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def measure_setup(args) -> list:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    out = []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def environment(args) -> dict:
    import numpy
    import scipy

    def blas(mod):
        try:
            b = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{b['name']} {b['version']}"
        except (KeyError, TypeError, AttributeError):
            return None

    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "subeq")
    for dirpath, dirnames, files in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, pkg).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "numpy_blas": blas(numpy), "scipy_blas": blas(scipy),
            "blas_threads": BLAS_PIN["OPENBLAS_NUM_THREADS"],
            "commit": commit, "src_sha256": digest.hexdigest(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Runner:
    """Closed-loop execution with per-operation gates and bookkeeping."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.results = {}

    def execute(self, op) -> float:
        """Run one operation, time it, and check its output (untimed)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception:
            elapsed = time.perf_counter() - t0
            self.failures.append((op.name, traceback.format_exc(limit=3)))
            return elapsed
        elapsed = time.perf_counter() - t0
        try:
            reason = op.check(result)
        except Exception:
            reason = traceback.format_exc(limit=3)
        if reason:
            self.failures.append((op.name, reason))
        self.results[op.name] = result
        return elapsed


def closed_loop(ops, seconds: float, step) -> dict:
    """Call ``step(op, rep)`` for every op once, then keep cycling through
    the ops whose median step time still fits before the deadline.
    Returns each op's list of step times."""
    deadline = time.perf_counter() + seconds
    times = {op.name: [step(op, 0)] for op in ops}
    rep = 1
    while True:
        ran = False
        for op in ops:
            if time.perf_counter() + statistics.median(times[op.name]) \
                    <= deadline:
                times[op.name].append(step(op, rep))
                ran = True
        if not ran:
            return times
        rep += 1


def _op_line(name, times, result, extra="") -> str:
    sweeps = getattr(result, "sweeps", None)
    info = f" sweeps={sweeps}" if sweeps is not None else ""
    return (f"# op {name}: runs={len(times)} "
            f"median_s={statistics.median(times):.4f}{info}{extra}")


def run_plain(args, outdir):
    import workloads
    from tracing import Probe
    setups = measure_setup(args)
    ops = workloads.build(args.workload, args.seed, Probe(), outdir)
    runner = Runner()
    times = closed_loop(ops, args.seconds, lambda op, rep: runner.execute(op))
    lines = [_op_line(op.name, times[op.name], runner.results.get(op.name))
             for op in ops]
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {"wall_s": sum(statistics.median(t) for t in times.values()),
               "setup_s": statistics.median(setups),
               "peak_rss_mb": rss_kb / 1024.0}
    detail = {"setup_samples_s": setups, "op_times_s": times}
    return runner, metrics, lines, detail


def run_traced(args, outdir, span_path):
    import tracing
    import workloads
    plain = workloads.build(args.workload, args.seed, tracing.Probe(), outdir)
    tracer = tracing.Tracer()
    runner = Runner()
    plain_t, traced_t = {}, {}
    with tracer.patched():
        tracer.op = "setup"
        traced = {op.name: op for op in
                  workloads.build(args.workload, args.seed, tracer, outdir)}
        tracer.op = None

        def run_traced_twin(op, rep):
            kept = tracer.spans
            if rep:                     # only the first pass is kept
                tracer.spans = []
            tracer.op = op.name
            try:
                return runner.execute(traced[op.name])
            finally:
                tracer.op = None
                tracer.spans = kept

        def pair(op, rep):
            # alternate which side goes first, so warm-up favours neither
            if rep % 2:
                b = run_traced_twin(op, rep)
                a = runner.execute(op)
            else:
                a = runner.execute(op)
                b = run_traced_twin(op, rep)
            plain_t.setdefault(op.name, []).append(a)
            traced_t.setdefault(op.name, []).append(b)
            return a + b

        closed_loop(plain, args.seconds, pair)

    spans = tracer.spans
    solves = {name: (op.problem, runner.results[name])
              for name, op in traced.items()
              if op.problem is not None and name in runner.results}
    metrics = tracing.layer_metrics(spans, solves)
    sizes = tracing.eig_batch_sizes(spans)
    for n in (2, 3):
        metrics[f"linalg.eig_ns_per_matrix.n{n}"] = (
            tracing.eig_ns_per_matrix(n, sizes[n]) if n in sizes else 0.0)
    med = lambda d: sum(statistics.median(t) for t in d.values())
    metrics["trace.overhead_s"] = med(traced_t) - med(plain_t)
    lines = []
    for op in plain:
        counts = tracing.op_counts(spans, op.name)
        extra = "".join(f" {k}={v}" for k, v in counts.items())
        lines.append(_op_line(op.name, traced_t[op.name],
                              runner.results.get(op.name), extra))
    lines.append(f"# eig batch sizes (n: jet-weighted median batch): {sizes}")
    tracer.write(span_path)
    detail = {"untraced_op_times_s": plain_t, "traced_op_times_s": traced_t,
              "eig_batch_sizes": sizes, "spans_file": span_path}
    return runner, metrics, lines, detail


def main(argv=None) -> int:
    args = _args(argv)
    if not os.path.isfile(os.path.join(SRC, "subeq", "__init__.py")):
        print(f"error: no subeq sources under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    if args.setup_probe:
        setup_probe(args)
        return 0

    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment(args)
    print("# env " + json.dumps(env, sort_keys=True))
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-"
                             f"trace{args.trace}")
    outdir = tempfile.mkdtemp(prefix="artefacts-", dir=OUT)
    try:
        if args.trace:
            runner, values, lines, detail = run_traced(
                args, outdir, stem + "-spans.jsonl")
            units = PER_LAYER
        else:
            runner, values, lines, detail = run_plain(args, outdir)
            units = END_TO_END
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    for line in lines:
        print(line)
    for name, reason in runner.failures:
        print(f"# FAILED {name}: {reason.strip()}")
    result = {"correct": not runner.failures,
              "attempted": runner.attempted,
              "failed": len(runner.failures),
              "metrics": {k: {"value": values[k], "unit": u}
                          for k, u in units.items()}}
    with open(stem + ".json", "w") as fh:
        json.dump({"env": env, "result": result, "ops": lines,
                   "failures": runner.failures, "detail": detail}, fh,
                  indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
