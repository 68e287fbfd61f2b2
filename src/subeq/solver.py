"""Perron-style Dirichlet solver on masked grids.

The update rule is the discrete counterpart of the upper-envelope
definition: each node is raised to the largest value whose discrete jet
(neighbors frozen) still satisfies rho >= 0.  Positivity makes that
predicate monotone in the node value — raising r lowers the assembled
Hessian by a PSD multiple — and negativity keeps the r-slot itself
monotone.  So the node value is the root of the nonincreasing margin
g(r) = rho(J(r)) + eps_b (``core.DEFAULT_EPS_B``), and membership is
g(r) >= 0.  Sweeps repeat until the largest node change drops below the
tolerance.

Margin.  Every stencil is symmetric, so the node value moves only A, by
c*I per unit of r (``JetAssembler.c``), and a node update searches the
line r -> (r, p, A + c r I) through its base jet.  ``Subequation.on_line``
sets that line up once per node update and then evaluates it: spectral
sets shift the spectrum of one eigensolve, g(r) = f(lam_base + c r) + eps_b,
klap is affine in r and cy reads one eigensolve too; every other set
(geom, the field branches, shifted sets, jet-map images, x-dependent sets)
evaluates rho on the full jet at each r.

Root-find.  The bracket is widened until its lower end is a member and
its upper end is not (or the fiber is found degenerate); the margins at
both ends give one false-position point, which is probed at +-bt/4, and
each probe hands its margin to the end it moves.  The probes' gap, bt/2,
stays within bt after rounding, so a false-position point at the root ends
the solve: where g is affine in r (laplace, the real branches, pcone,
pbranch, deltabranch, klap:k=inf) it is the root up to rounding, and a
node update costs four margin evaluations.  Nodes still wider than bt go
to ``core.illinois``: Illinois steps (false position with the stale end's
margin halved) while a step budget allows, midpoints after, so no node
takes more than ILLINOIS_SLACK steps beyond bisection's.  Only open nodes
are evaluated; over a solve, a cy, Pucci or slag node update costs 5-9
margin evaluations where bisection took 17-26.  At most 64 steps are
taken; node solves still wider than bt are counted in
``SolveReport.bisect_capped``.

A sweep updates the 2^n lattice parity classes in turn, with fully
vectorized node solves.  Updates are over-relaxed by default
(SolverParams.omega, auto-tuned from the grid resolution); omega=1.0
recovers the plain envelope iteration.

Nested iteration.  Relaxation needs sweeps in proportion to m.  Every
solve is one pass over a ladder of levels, coarsest level first, the
problem itself last: on a rectangle with an odd number of at least 33 nodes
per axis the ladder holds its coarsenings (``_cascade_ladder``), otherwise
the problem is the only level.  Each level starts from the prolongation of
the field below it (the coarsest from the boundary minimum).  On a grid
with at least 33 nodes per axis, rectangle or masked domain alike, the
damped Newton solve of ``newton`` runs on each level until its first
abandonment.  A level Newton solved is handed on as it is, with no sweeps.

Certification.  The level where Newton is abandoned and every finer level
run the Perron sweeps from their start, and the finest level runs them
whatever Newton did: every answer is a Perron fixed point, and
``converged`` still means final_update <= sweep_tol (one sweep, typically,
after Newton).  Abandoned on the coarsest level, the pass is the Perron
cascade; abandoned higher up, the levels below keep Newton's fields.
``SolveReport.newton_abandoned`` records why and on which level, and the
``subeq`` logger says so at INFO.  ``obstacle_solve`` makes the same pass
with every level clamped to the obstacle g.  Grids with fewer than 33 nodes
on some axis run the Perron sweeps alone; ``dual_bracket_solve`` is two
``perron_solve`` calls.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import BracketError, ConfigError, SamplerExhausted
from .core import (DEFAULT_EPS_B, ILLINOIS_SLACK, Subequation, axiom_check,
                   dual, illinois)
from .grid import Grid, GridProblem, JetAssembler, stencil_table
from .newton import _NewtonLevel

log = logging.getLogger("subeq")

_BRACKET_PAD = 10.0
_NEWTON_MIN_NODES = 33  # per axis, for a ladder or a Newton start


@dataclass
class SolveReport:
    u: np.ndarray                # nd field, NaN outside the domain
    sweeps: int
    final_update: float
    residual: float
    converged: bool
    min_margin: float = 0.0
    degenerate_nodes: int = 0
    contact_nodes: int = 0
    wall_time: float = 0.0       # the whole call, Newton start included
    label: str = ""
    h: float = 0.0
    sweep_tol: float = 0.0
    evals: int = 0               # margin evaluations in node solves
    level_sweeps: list = field(default_factory=list)  # coarsest level first
    bisect_capped: int = 0       # node solves the 64-step cap left open
    newton_iters: list = field(default_factory=list)  # per level, coarsest first
    krylov_iters: int = 0        # GMRES iterations over all Newton steps
    newton_abandoned: Optional[tuple] = None  # (reason, level) or None

    def to_json_dict(self) -> dict:
        # wall_time and the counters stay out: reports must be byte-stable
        # for a fixed config
        return {"label": self.label, "sweeps": self.sweeps,
                "final_update": self.final_update, "residual": self.residual,
                "converged": bool(self.converged),
                "min_margin": self.min_margin,
                "degenerate_nodes": self.degenerate_nodes,
                "contact_nodes": self.contact_nodes, "h": self.h,
                "sweep_tol": self.sweep_tol}


def _widen(edge: np.ndarray, full: np.ndarray, step: np.ndarray,
           g, wrong):
    """Move the bracket ends where ``wrong(g(edge))`` holds, in place: first
    to the full bracket, then twice by ``step``, doubling it each time.
    Returns the mask of ends still on the wrong side and g at the ends."""
    val = g(edge)
    bad = wrong(val)
    if bad.any():
        edge[bad] = full[bad]
        val = g(edge)
        bad = bad & wrong(val)
        grow = step.copy()
        for _ in range(2):
            if not bad.any():
                break
            edge[bad] += grow[bad]
            grow *= 2.0
            val = g(edge)
            bad = bad & wrong(val)
    return bad, val


class _NodeUpdater:
    """Vectorized largest-member-value solve at a subset of interior nodes."""

    def __init__(self, P: GridProblem, bt: float):
        self.P = P
        self.bt = bt
        self.c = P.assembler.c
        self.evals = 0
        self.capped = 0

    def margin_fn(self, p_base, A_base, xb):
        """g(r) = rho(J(r)) + eps_b on the base jets of one node update;
        ``g(r, idx)`` evaluates it at the nodes ``idx`` only."""
        h = self.P.F.on_line(p_base, A_base, self.c, xb)

        def g(rr, idx=slice(None)):
            self.evals += len(rr)
            return h(rr, idx) + DEFAULT_EPS_B
        return g

    def solve(self, u: np.ndarray, sel: np.ndarray, warm: float):
        """Returns (r_new, degenerate_mask, r_cur) for interior nodes
        ``sel``, r_cur their values in u."""
        P = self.P
        nb_vals = u[P.nb[:, sel]]
        r_cur = u[P.interior_idx[sel]]
        p_base, A_base = P.assembler.assemble(nb_vals, np.zeros_like(r_cur))
        xb = None if P.xb is None else P.xb[sel]

        min_nb = nb_vals.min(axis=0)
        max_nb = nb_vals.max(axis=0)
        lo_full = min_nb - _BRACKET_PAD
        hi_full = max_nb + _BRACKET_PAD
        width_full = hi_full - lo_full

        g = self.margin_fn(p_base, A_base, xb)

        # at warm = inf these are lo_full and hi_full: the full width is at
        # least 2 _BRACKET_PAD, far above bt
        lo = np.maximum(r_cur - warm, lo_full)
        hi = np.maximum(np.minimum(r_cur + warm, hi_full), lo + self.bt)

        # lower end must be a member; a fiber with none is empty, and a NaN
        # or infinite margin is a field that has diverged
        bad, g_lo = _widen(lo, lo_full, -width_full, g, lambda v: ~(v >= 0))
        if bad.any():
            lost = bad & ~np.isfinite(g_lo)
            i = int(np.flatnonzero(lost if lost.any() else bad)[0])
            node = P.interior_idx[sel][i]
            if lost.any():
                raise BracketError(
                    f"{P.F.label}: margins are not finite at node {node} "
                    f"(value {r_cur[i]:.6g}); the field has diverged")
            raise BracketError(f"{P.F.label}: no admissible value at node "
                               f"{node} (empty fiber)")

        # upper end must be outside; a fiber that never exits is degenerate
        # (the operator ignores r there) and falls back to the neighbor max
        degen, g_hi = _widen(hi, hi_full, width_full, g, lambda v: v >= 0)
        active = ~degen

        # one false-position point from the end values, probed at +-bt/4;
        # each probe moves lo up if it is a member, hi down if it is not,
        # and the end it moves takes its margin.  Degenerate entries are
        # done at once: their bracket and margins are not read.
        t = np.divide(g_lo, g_lo - g_hi, out=np.zeros_like(lo), where=active)
        x = lo + t * (hi - lo)
        for q in (x - 0.25 * self.bt, x + 0.25 * self.bt):
            v = g(q)
            ok = v >= 0
            up = ok & (q > lo)
            dn = ~ok & (q < hi)
            np.copyto(lo, q, where=up)
            np.copyto(g_lo, v, where=up)
            np.copyto(hi, q, where=dn)
            np.copyto(g_hi, v, where=dn)

        # Illinois steps finish the bracket to width bt (a zero width keeps
        # the degenerate entries out)
        span = float(np.max(hi - lo, where=active, initial=0.0))
        if span > self.bt:
            iters = int(np.ceil(np.log2(span / self.bt))) + 1
            lo, hi = illinois(g, lo, np.where(active, hi, lo),
                              min(iters + ILLINOIS_SLACK, 64),
                              (g_lo, g_hi), self.bt)
            self.capped += int(np.sum(hi - lo > self.bt))
        r_new = np.where(degen, np.maximum(max_nb, r_cur), lo)
        return r_new, degen, r_cur


def _prolong(u_coarse: np.ndarray) -> np.ndarray:
    """Double the resolution along every axis (midpoint interpolation)."""
    for ax in range(u_coarse.ndim):
        a = np.moveaxis(u_coarse, ax, 0)
        out = np.empty((2 * a.shape[0] - 1,) + a.shape[1:], dtype=a.dtype)
        out[::2] = a
        out[1::2] = 0.5 * (a[:-1] + a[1:])
        u_coarse = np.moveaxis(out, 0, ax)
    return u_coarse


def _solve_loop(P: GridProblem, cap: Optional[np.ndarray] = None,
                u0: Optional[np.ndarray] = None,
                newton_start: bool = False,
                budget: Optional[int] = None) -> SolveReport:
    """At most ``budget`` (default ``max_sweeps``) Perron sweeps from the
    boundary minimum or u0; a Newton-solved u0 gets a warm 1024 bt bracket."""
    t0 = time.perf_counter()
    st = P.params.resolved(P.data_range())
    omega = P.params.resolved_omega(min(P.grid.shape) - 1)
    # the delivered field error is the per-sweep update amplified by the
    # iteration's contraction gap (~2-omega), so iterate past the reported
    # tolerance; the report still quotes the documented sweep_tol
    st_run = st * (2.0 - omega) / 8.0 if omega > 1.0 else 0.5 * st
    bt = st_run / 16.0
    upd = _NodeUpdater(P, bt)
    ii = P.interior_idx
    u = P.start_field(u0, cap)

    sweeps = 0
    final_update = np.inf
    warm = 1024.0 * bt if newton_start else np.inf
    degen_total = 0
    converged = False
    budget = P.params.max_sweeps if budget is None else budget
    for sweep in range(1, budget + 1):
        max_upd = 0.0
        degen_total = 0
        for sel in P.colors:
            r_star, degen, r_old = upd.solve(u, sel, warm)
            # over-relax toward the envelope value (same fixed point);
            # degenerate fibers take their fallback value verbatim
            r_new = np.where(degen, r_star, r_old + omega * (r_star - r_old))
            if cap is not None:
                r_new = np.minimum(r_new, cap[sel])
            max_upd = max(max_upd, float(np.abs(r_new - r_old).max()))
            degen_total += int(degen.sum())
            u[ii[sel]] = r_new
        sweeps = sweep
        final_update = max_upd
        # shrink the warm bracket with the observed update scale
        warm = max(8.0 * max_upd, 1024.0 * bt)
        if max_upd <= st_run:
            converged = True
            break
    converged = converged or final_update <= st

    vals = P.rho_at(u)
    if cap is not None:
        off = u[ii] < cap - 2.0 * P.grid.h
        residual = float(np.abs(vals[off]).max()) if off.any() else 0.0
        contact = int(np.sum(~off))
    else:
        residual = float(np.abs(vals).max())
        contact = 0
    report = SolveReport(
        u=u.reshape(P.grid.shape), sweeps=sweeps, final_update=final_update,
        residual=residual, converged=converged,
        min_margin=float(vals.min()), degenerate_nodes=degen_total,
        contact_nodes=contact, wall_time=time.perf_counter() - t0,
        label=P.F.label, h=P.grid.h, sweep_tol=st,
        evals=upd.evals, level_sweeps=[sweeps], bisect_capped=upd.capped)
    return report


def _precheck(F: Subequation):
    if F.x_dependent:
        return
    try:
        for ax in ("P", "N"):
            rep = axiom_check(F, ax, trials=512, seed=7)
            if rep.violations:
                warnings.warn(
                    f"{F.label}: sampled axiom ({ax}) check found "
                    f"{rep.violations} violations; solver semantics rely on it",
                    RuntimeWarning)
    except SamplerExhausted:
        warnings.warn(f"{F.label}: axiom precheck skipped", RuntimeWarning)


def _cascade_ladder(P: GridProblem) -> list:
    """Coarsened copies of P (factor-2 in every axis), coarsest first.

    Only meaningful for full-rectangle problems; the boundary data callable
    is re-evaluated exactly on every level.
    """
    levels = []
    g = P.grid
    shape = g.shape
    h = g.h
    while (min(shape) >= _NEWTON_MIN_NODES
           and all((s - 1) % 2 == 0 for s in shape) and len(levels) < 6):
        shape = tuple((s - 1) // 2 + 1 for s in shape)
        h = 2.0 * h
        levels.append(GridProblem(Grid(g.lo, h, shape), P.F, P.bc,
                                  params=P.params))
    return levels[::-1]


def _solve(P: GridProblem, g: Optional[Callable] = None,
           label: str = "") -> SolveReport:
    """The pass of ``perron_solve``, with the obstacle g if one is given:
    one pass over the cascade ladder of P and P itself, coarsest first.
    Each level starts from the prolongation of the field below it, the
    coarsest from the boundary minimum (Newton's: see ``newton``); with an
    obstacle g every start is clamped to g, so the contact set is carried
    upward.  On grids of at least 33 nodes per axis Newton runs on
    each level until its first abandonment, and a level it solved is handed
    on unchanged.  The level where it is abandoned and every finer one run
    the Perron sweeps from their start, and so does the finest level in any
    case: the sweeps certify the answer.  Their levels share one budget of
    ``max_sweeps``; a level left none runs none and is unconverged."""
    t0 = time.perf_counter()
    _precheck(P.F)
    levels = (_cascade_ladder(P) if P.domain is None else []) + [P]
    newton = min(P.grid.shape) >= _NEWTON_MIN_NODES
    iters, krylov, kmax, abandoned = [], 0, 0, None
    u, perron, level_sweeps = None, [], []
    for level, Q in enumerate(levels):
        # u: the level's start (None: the boundary minimum), then its field
        if level:
            u = _prolong(u.reshape(levels[level - 1].grid.shape)).ravel()
        cap = (None if g is None
               else np.asarray(g(Q.pts[Q.interior_idx]), dtype=float))
        solved = None
        if newton and abandoned is None:
            solved, it, ks, reason = _NewtonLevel(Q, cap).run(u, level, kmax)
            iters.append(it)
            krylov += sum(ks)
            kmax = max(ks, default=0)
            if reason is not None:
                log.info("%s: Newton start abandoned at level %d of %d (%s); "
                         "running the Perron sweeps", Q.F.label, level,
                         len(levels), reason)
                abandoned, solved = (reason, level), None
        if solved is not None:
            u = solved
        if solved is None or level == len(levels) - 1:
            rep = _solve_loop(Q, cap=cap, u0=u,
                              newton_start=solved is not None,
                              budget=P.params.max_sweeps - sum(level_sweeps))
            perron.append(rep)
            level_sweeps.append(rep.sweeps)
            u = rep.u
        else:
            level_sweeps.append(0)
    rep = perron[-1]
    for rep_c in perron[:-1]:
        rep.sweeps += rep_c.sweeps
        rep.evals += rep_c.evals
        rep.bisect_capped += rep_c.bisect_capped
    rep.level_sweeps = level_sweeps
    rep.newton_iters, rep.krylov_iters = iters, krylov
    rep.newton_abandoned = abandoned
    rep.label = label or P.F.label
    rep.wall_time = time.perf_counter() - t0
    return rep


def perron_solve(P: GridProblem) -> SolveReport:
    """Upper-envelope solve for the Dirichlet problem on P: one pass over
    its cascade ladder and P, with a Newton start on grids of at least 33
    nodes per axis and Perron sweeps alone otherwise; the finest level's
    Perron sweeps certify every answer.  Never raises on slow convergence:
    the report carries converged=False."""
    return _solve(P)


def obstacle_solve(P: GridProblem, g: Callable) -> SolveReport:
    """Perron solve constrained below the obstacle g: ``perron_solve``'s
    pass on min(G, |c| (g - u)) = 0, node updates clamped to g.  An
    obstacle that is NaN or -inf at a boundary or interior node, and
    boundary data exceeding the obstacle, are rejected up front; +inf
    leaves a node unconstrained."""
    nodes = np.concatenate([P.boundary_idx, P.interior_idx])
    gv = np.asarray(g(P.pts[nodes]), dtype=float)
    bad = np.flatnonzero(np.isnan(gv) | np.isneginf(gv))
    if len(bad):
        raise ConfigError(f"obstacle g={gv[bad[0]]:g} at node {nodes[bad[0]]}"
                          ": it must be a number or +inf")
    gb = gv[:len(P.boundary_idx)]
    scale = max(1.0, float(np.abs(P.phi).max()))
    if np.any(P.phi > gb + 1e-12 * scale):
        k = int(np.argmax(P.phi - gb))
        raise ConfigError(
            f"boundary data exceeds the obstacle at node {P.boundary_idx[k]}: "
            f"phi={P.phi[k]:.6g} > g={gb[k]:.6g}")
    return _solve(P, g, label=f"obstacle({P.F.label})")


@dataclass
class BracketResult:
    U: np.ndarray
    U_tilde: np.ndarray
    report: SolveReport
    report_dual: SolveReport
    max_gap: float        # max over nodes of U - U_tilde
    min_gap: float        # min over nodes (bracket violation if very negative)

    def to_json_dict(self) -> dict:
        return {"report": self.report.to_json_dict(),
                "report_dual": self.report_dual.to_json_dict(),
                "max_gap": self.max_gap, "min_gap": self.min_gap}


def dual_bracket_solve(P: GridProblem) -> BracketResult:
    """Solve for F and for its dual with negated data; bracket U_tilde <= U.

    U_tilde = -perron(dual F, -phi) is the lower Perron function; for
    operators with uniqueness the two coincide to solver accuracy.
    """
    rep_U = perron_solve(P)
    bc = P.bc
    P2 = GridProblem(P.grid, dual(P.F),
                     lambda pts, _bc=bc: -np.asarray(_bc(pts), dtype=float),
                     domain=P.domain, params=P.params)
    rep_D = perron_solve(P2)
    U = rep_U.u
    Ut = -rep_D.u
    gap = U - Ut
    finite = np.isfinite(gap)
    return BracketResult(U, Ut, rep_U, rep_D,
                         float(np.nanmax(gap[finite])),
                         float(np.nanmin(gap[finite])))


# ---------------------------------------------------------------------------
# discrete comparison / zero-maximum-principle check


@dataclass
class ComparisonReport:
    status: str           # pass | zmp_fail | precondition_fail | vacuous
    witness: Optional[dict]
    boundary_max: float
    interior_max: float
    sub_margin: float     # min F-margin of u jets
    dual_margin: float    # min dual-F-margin of v jets

    @property
    def passed(self) -> bool:
        return self.status == "pass"


def _interior_margins(grid: Grid, K_nd: np.ndarray, stencil: str):
    """Interior of the mask K_nd for the stencil, its flat node indices,
    and a function giving the G-margins of a field's discrete jets there."""
    asm = JetAssembler(stencil, grid.n, grid.h)
    inner, _, nb = stencil_table(K_nd, asm.offsets)
    if not inner.any():
        raise ConfigError("mask has no interior at this resolution")
    flat_idx = np.flatnonzero(inner.ravel())

    def margins(field: np.ndarray, G: Subequation) -> np.ndarray:
        f = field.ravel()
        r = f[flat_idx]
        p, A = asm.assemble(f[nb], r)
        xb = grid.points()[flat_idx] if G.x_dependent else None
        return G.value_batch(r, p, A, x=xb)

    return inner, flat_idx, margins


def comparison_check(grid: Grid, u: np.ndarray, v: np.ndarray,
                     F: Subequation, K: Optional[np.ndarray] = None,
                     stencil: str = "9pt") -> ComparisonReport:
    """Discrete zero-maximum-principle check for the pair (u, v) on K.

    Preconditions: the jets of u on the interior of K lie in F and those of
    v lie in dual(F), both within 10 h, the discretization slack for
    twice-differentiable fields.  Then u + v <= 1e-9 max(1, max|u|, max|v|)
    on the edge band of K must propagate to all of K; a node where it fails
    is returned as the witness.  If the edge condition itself fails the
    implication is vacuous and reported as such.
    """
    u = np.asarray(u, dtype=float).reshape(grid.shape)
    v = np.asarray(v, dtype=float).reshape(grid.shape)
    if K is None:
        K_nd = np.ones(grid.shape, dtype=bool)
    else:
        K_nd = np.asarray(K, dtype=bool).reshape(grid.shape)
    inner, flat_idx, jet_margins = _interior_margins(grid, K_nd, stencil)
    jet_tol = 10.0 * grid.h
    scale = max(1.0, float(np.nanmax(np.abs(u[K_nd]))),
                float(np.nanmax(np.abs(v[K_nd]))))
    zmp_tol = 1e-9 * scale
    edge = K_nd & ~inner
    pts = grid.points()

    mu = jet_margins(u, F)
    mv = jet_margins(v, dual(F))
    sub_margin = float(mu.min())
    dual_margin = float(mv.min())

    def node_witness(i_flat: int, value: float) -> dict:
        return {"point": pts[i_flat].tolist(), "value": float(value)}

    if sub_margin < -jet_tol or dual_margin < -jet_tol:
        bad_u = mu.argmin() if sub_margin < -jet_tol else None
        i = int(flat_idx[bad_u if bad_u is not None else mv.argmin()])
        val = sub_margin if bad_u is not None else dual_margin
        return ComparisonReport("precondition_fail", node_witness(i, val),
                                np.nan, np.nan, sub_margin, dual_margin)

    s = u + v
    boundary_max = float(s[edge].max()) if edge.any() else -np.inf
    interior_max = float(s[inner].max())
    if boundary_max > zmp_tol:
        return ComparisonReport("vacuous", None, boundary_max, interior_max,
                                sub_margin, dual_margin)
    if interior_max > zmp_tol:
        w_nd = np.unravel_index(int(np.nanargmax(np.where(inner, s, -np.inf))),
                                grid.shape)
        i = int(np.ravel_multi_index(w_nd, grid.shape))
        return ComparisonReport("zmp_fail", node_witness(i, interior_max),
                                boundary_max, interior_max,
                                sub_margin, dual_margin)
    return ComparisonReport("pass", None, boundary_max, interior_max,
                            sub_margin, dual_margin)


def membership_scan(grid: Grid, u: np.ndarray, F: Subequation,
                    K: Optional[np.ndarray] = None,
                    stencil: str = "9pt") -> float:
    """Minimum F-margin of the discrete jets of u over the interior of K."""
    u = np.asarray(u, dtype=float).reshape(grid.shape)
    K_nd = (np.ones(grid.shape, dtype=bool) if K is None
            else np.asarray(K, dtype=bool).reshape(grid.shape))
    _, _, margins = _interior_margins(grid, K_nd, stencil)
    return float(margins(u, F).min())
