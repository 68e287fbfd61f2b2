"""Outside-in instrumentation of the ``subeq`` layers.

Nothing in the package is edited.  The traced run sees the layers through
their public surface only:

* every operator's ``rho_batch`` is wrapped (``dataclasses.replace``) before
  a problem is built, so cascade levels, the axiom precheck and dual
  evaluations all go through the wrapper; a jet-map image wraps its base
  set first, so the image's own time is outer minus inner;
* boundary-data and obstacle expressions and expression domains are wrapped
  callables;
* ``JetAssembler.assemble``, ``GridProblem.jets_at`` and
  ``core.sample_members`` are replaced for the duration of the traced run
  (``Tracer.patched``) and restored afterwards;
* public entry points called by the benchmark go through ``Probe.call``.

Spans are kept in memory as ``[name, start, end, parent, op, size, key]``
and written out when the run ends.  Self time is a span's duration minus
the durations of its direct children (single-threaded, so children never
overlap).
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

from subeq import core, grid
from subeq.jetmaps import transform_subequation
from subeq.linalg import eigvalsh_batch

_now = time.perf_counter


class Probe:
    """The untraced hooks: every operand passes through unchanged."""

    def operator(self, F, layer: str):
        return F

    def image(self, F, Psi):
        return transform_subequation(F, Psi)

    def expression(self, e):
        return e

    def domain(self, D):
        return D

    def call(self, name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer(Probe):
    """Hooks that record one span per call into a layer."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.op = None

    # -- span bookkeeping ---------------------------------------------------

    def timed(self, name: str, fn, args, kwargs, size: int = 0, key=None):
        if self.op is None:             # outside an operation: not recorded
            return fn(*args, **kwargs)
        parent = self._stack[-1] if self._stack else -1
        rec = [name, _now(), 0.0, parent, self.op, size, key]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = _now()
            self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        return self.timed(name, fn, args, kwargs)

    # -- operand wrappers ---------------------------------------------------

    def _rho(self, name: str, base):
        def rho(*args):
            # args are (r, p, A[, x]) with A of shape (batch, n, n); n is
            # kept so that the eigen kernels can be timed per dimension
            shape = np.shape(args[2])
            return self.timed(name, base, args, {}, size=int(shape[0]),
                              key=int(shape[-1]))
        return rho

    def operator(self, F, layer: str):
        return replace(F, rho_batch=self._rho(f"{layer}.rho", F.rho_batch))

    def image(self, F, Psi):
        G = transform_subequation(self.operator(F, "catalog"), Psi)
        return replace(G, rho_batch=self._rho("jetmaps.rho", G.rho_batch))

    def expression(self, e):
        return lambda pts: self.timed("expressions.eval", e, (pts,), {})

    def domain(self, D):
        return replace(D, rho_dom=self.expression(D.rho_dom))

    @contextlib.contextmanager
    def patched(self):
        """Route the grid assembler, ``jets_at`` and the jet sampler through
        the tracer; the originals are restored on exit."""
        asm = grid.JetAssembler.assemble
        jets_at = grid.GridProblem.jets_at
        sampler = core.sample_members
        tr = self

        def assemble(obj, V, r):
            return tr.timed("grid.assemble", asm, (obj, V, r), {},
                            size=int(np.shape(V)[1]), key=id(obj))

        def traced_jets_at(obj, *a, **kw):
            return tr.timed("grid.jets_at", jets_at, (obj,) + a, kw)

        def sample_members(F, count, *a, **kw):
            return tr.timed("core.sample_members", sampler, (F, count) + a,
                            kw, size=int(count))

        grid.JetAssembler.assemble = assemble
        grid.GridProblem.jets_at = traced_jets_at
        core.sample_members = sample_members
        try:
            yield self
        finally:
            grid.JetAssembler.assemble = asm
            grid.GridProblem.jets_at = jets_at
            core.sample_members = sampler

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _children(spans):
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        kids[s[3]].append(i)
    return kids


def _ancestors(spans, i):
    p = spans[i][3]
    while p >= 0:
        yield spans[p]
        p = spans[p][3]


def layer_metrics(spans, solves) -> dict:
    """Per-layer figures from the spans of one pass over the operations.

    ``solves`` maps the op id of each solve to ``(problem, report)``; the
    reports supply the solver's own counts and the problems the finest
    assembler and colour count.
    """
    kids = _children(spans)
    dur = [s[2] - s[1] for s in spans]
    self_t = [dur[i] - sum(dur[j] for j in kids.get(i, ())) for i in
              range(len(spans))]

    def total(pred, values=dur):
        return float(sum(v for s, v in zip(spans, values) if pred(s)))

    is_rho = lambda s: s[0].endswith(".rho")
    in_solve = lambda s: s[4] in solves

    # node updates: assemble calls made by the node update (not by the
    # final residual's jets_at), summed over every cascade level
    node_updates = 0
    finest_calls = defaultdict(int)
    for s in spans:
        if s[0] != "grid.assemble" or not in_solve(s):
            continue
        if s[3] >= 0 and spans[s[3]][0] == "grid.jets_at":
            continue
        node_updates += s[5]
        P = solves[s[4]][0]
        if s[6] == id(P.assembler):
            finest_calls[s[4]] += 1
    sweeps_finest = sum(calls // len(solves[op][0].colors)
                        for op, calls in finest_calls.items())

    solver_self = total(lambda s: s[0].startswith("solver."), self_t)
    cat = [s for s in spans if s[0] == "catalog.rho"]
    rho_jets = sum(s[5] for s in cat)
    rho_solve_jets = sum(s[5] for s in cat if in_solve(s))
    rho_s = sum(s[2] - s[1] for s in cat)

    # sampler acceptance: jets kept / jets drawn; the drawn jets are the
    # rho evaluations made directly by sample_members (a constructive
    # member_sampler draws exactly what it keeps)
    kept = drawn = 0
    for i, s in enumerate(spans):
        if s[0] != "core.sample_members":
            continue
        kept += s[5]
        direct = [spans[j][5] for j in kids.get(i, ()) if is_rho(spans[j])]
        drawn += sum(direct) if direct else s[5]

    riesz_rho = sum(1 for i, s in enumerate(spans) if is_rho(s) and any(
        a[0].startswith("riesz.") for a in _ancestors(spans, i)))
    reps = [rep for _, rep in solves.values()]
    return {
        "solver.sweeps": sum(r.sweeps for r in reps),
        "solver.sweeps_finest": sweeps_finest,
        "solver.node_updates": node_updates,
        "solver.degenerate_nodes": sum(r.degenerate_nodes for r in reps),
        "solver.self_s": solver_self,
        "solver.ns_per_node_update": (1e9 * solver_self / node_updates
                                      if node_updates else 0.0),
        "catalog.rho_calls": len(cat),
        "catalog.rho_jets": rho_jets,
        "catalog.rho_s": rho_s,
        "catalog.rho_jets_per_node_update": (rho_solve_jets / node_updates
                                             if node_updates else 0.0),
        "catalog.rho_ns_per_jet": 1e9 * rho_s / rho_jets if rho_jets else 0.0,
        "grid.build_s": total(lambda s: s[0] == "grid.GridProblem"),
        "grid.assemble_calls": sum(1 for s in spans
                                   if s[0] == "grid.assemble"),
        "grid.assemble_s": total(lambda s: s[0] == "grid.assemble"),
        "core.sample_s": total(lambda s: s[0] == "core.sample_members"),
        "core.sample_accept_ratio": kept / drawn if drawn else 0.0,
        "garding.eigen_s": total(lambda s: s[0].startswith("garding.")),
        "jetmaps.self_s": total(lambda s: s[0].startswith("jetmaps."),
                                self_t),
        "riesz.rho_calls": riesz_rho,
        "riesz.s": total(lambda s: s[0].startswith("riesz.")),
        "boundary.s": total(lambda s: s[0].startswith("boundary.")),
        "expressions.eval_s": total(lambda s: s[0] == "expressions.eval"),
        "cli.render_s": total(lambda s: s[0].startswith("cli.")),
    }


def op_counts(spans, op) -> dict:
    """Catalog rho calls and jets of one operation."""
    calls = jets = 0
    for s in spans:
        if s[4] == op and s[0] == "catalog.rho":
            calls += 1
            jets += s[5]
    return {"rho_calls": calls, "rho_jets": jets}


def eig_batch_sizes(spans) -> dict:
    """Typical catalog rho batch size per matrix dimension (2 and 3): the
    jet-weighted median, i.e. the size of the call that holds the median
    jet, so that many one-jet probes do not hide the bulk batches."""
    sizes = defaultdict(list)
    for s in spans:
        if s[0] == "catalog.rho" and s[6] in (2, 3):
            sizes[s[6]].append(s[5])
    out = {}
    for n, v in sizes.items():
        v = np.sort(v)
        cum = np.cumsum(v)
        out[n] = int(v[np.searchsorted(cum, 0.5 * cum[-1])])
    return out


def eig_ns_per_matrix(n: int, batch: int, min_time: float = 0.2,
                      seed: int = 0) -> float:
    """Median ns per matrix of ``linalg.eigvalsh_batch`` on (batch, n, n)."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((batch, n, n))
    A = 0.5 * (M + np.swapaxes(M, 1, 2))
    samples = []
    start = _now()
    while _now() - start < min_time or len(samples) < 5:
        t0 = _now()
        eigvalsh_batch(A)
        samples.append(_now() - t0)
    return 1e9 * float(np.median(samples)) / batch
