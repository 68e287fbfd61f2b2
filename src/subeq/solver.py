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

Margin.  When the set is spectral (``Subequation.spectral``) and the
stencil moves only A, by c*I per unit of r (the direct stencils, masked or
not), the spectrum shifts rigidly: g(r) = f(lam_base + c r) + eps_b, with
one eigensolve of the base Hessians per node update.  Every other case
(wide16, r-, p- or x-dependent sets, jet-map images) evaluates rho on the
full jet at each r.

Root-find, the same for both margins.  The bracket is widened until its
lower end is a member and its upper end is not (or the fiber is found
degenerate); the margins at both ends give one false-position point, which
is probed at +-bt/4, and each probe hands its margin to the end it moves.
The probes' gap, bt/2, stays within bt after rounding, so a false-position
point at the root ends the solve: where g is affine in r (laplace, the
real branches, pcone, pbranch, deltabranch, klap:k=inf) it is the root up
to rounding, and a node update costs four margin evaluations.  Nodes still
wider than bt go to ``core.illinois``: Illinois steps
(false position with the stale end's margin halved) while a step budget
allows, midpoints after, so no node takes more than ILLINOIS_SLACK steps
beyond bisection's.  Only open nodes are evaluated; over a solve, a cy,
Pucci or slag node update costs 5-9 margin evaluations where bisection took
17-26.  At most 64 steps are taken; node solves still wider than bt are
counted in ``SolveReport.bisect_capped``.

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
with at least 33 nodes per axis, rectangle or masked domain alike, damped
Newton on G(u) = rho(J(u)) + eps_b = 0 runs on each level until its first
abandonment; on the coarsest level of a rectangle it starts from the
discrete Laplace solve, on a masked domain from the boundary minimum.  The
Jacobian is never formed as a matrix.  It is stored as per-node stencil
weights: grad rho, a one-sided difference of ``value_batch`` in the jet
columns of ``JetAssembler.W`` (its step scaled per node by that node's own
jet), pulled back through W to one weight per neighbour, and applied as
dr v + sum_k w_k (v[nb_k] - v) without assembling jets.  Each
linear solve is restarted GMRES, right preconditioned by the
fast-diagonalization inverse of sum_i a_i D_ii (a_i the mean of
d rho / dA_ii, D_ii the axis second difference); numpy only.  Steps
backtrack on max|G|; a level is done at max|G| / |c| <= 1e-3 sweep_tol,
c the stencil's dA/dr diagonal.  A level Newton solved is handed on as it
is, with no sweeps.

Certification.  The level where Newton is abandoned and every finer level
run the Perron sweeps from their start, and the finest level runs them
whatever Newton did: every answer is a Perron fixed point, and
``converged`` still means final_update <= sweep_tol (one sweep, typically,
after Newton).  Newton is abandoned on the first GMRES solve that misses
its tolerance within its cap, on a line search that finds no decrease, on
a non-finite residual, at the per-level iteration cap, or before a finer
level when one GMRES solve on the level below needed more than half the
cap (the mean-coefficient preconditioner loses about a factor two per
refinement where d rho / dA varies across the grid, so the finer level
would miss the cap after paying for most of its iterations).  Abandoned on
the coarsest level, the pass is the Perron cascade; abandoned higher up,
the levels below keep Newton's fields.  ``SolveReport.newton_abandoned``
records why and on which level, and the ``subeq`` logger says so at INFO.
On a masked domain the preconditioner acts on the bounding block of its
interior.  ``obstacle_solve`` makes the same pass on min(G, |c| (g - u)) = 0,
every level clamped to g and the active obstacle rows -|c| I (Howard's
rule).  Grids with fewer than 33 nodes on some axis run the Perron sweeps
alone; ``dual_bracket_solve`` is two ``perron_solve`` calls.
"""

from __future__ import annotations

import logging
import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Optional

import numpy as np

from .errors import BracketError, ConfigError, SamplerExhausted
from .core import (DEFAULT_EPS_B, ILLINOIS_SLACK, Subequation, axiom_check,
                   dual, illinois)
from .grid import Grid, GridProblem, JetAssembler, stencil_table
from .linalg import eigvalsh_batch

log = logging.getLogger("subeq")

_BRACKET_PAD = 10.0

# nested Newton start
_NEWTON_MIN_NODES = 33  # per axis, for a ladder or a Newton start
_NEWTON_TOL = 1e-3      # stop at max|G| / |c| <= this * sweep_tol
_NEWTON_ITERS = 30      # per level
_LINE_SEARCH = 12       # step halvings before the attempt is abandoned
_GMRES_RTOL = 0.1
_GMRES_RESTART = 20
_GMRES_ITERS = 40       # a solve that needs more abandons the attempt
_KRYLOV_GROWTH = 2.0    # expected growth of the GMRES count per refinement
_FD_STEP = 1.5e-8       # one-sided difference step, relative to a node's jet


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
        self.p_slope, self.A_slope = P.assembler.slopes()
        self.p_static = not np.any(self.p_slope)
        # the spectral margin needs dp/dr = 0 and dA/dr = c*I
        c = self.A_slope[0, 0]
        rigid = self.p_static and np.array_equal(
            self.A_slope, c * np.eye(len(self.A_slope)))
        self.shift = c if rigid and P.F.spectral is not None else None
        self.evals = 0
        self.capped = 0

    def margin_fn(self, p_base, A_base, xb):
        """g(r) = rho(J(r)) + eps_b on the base jets of one node update;
        ``g(r, idx)`` evaluates it at the nodes ``idx`` only."""
        F = self.P.F
        if self.shift is not None:
            lam, c = eigvalsh_batch(A_base), self.shift

            def g(rr, idx=slice(None)):
                self.evals += len(rr)
                return F.spectral(lam[idx] + c * rr[:, None]) + DEFAULT_EPS_B
        else:
            def g(rr, idx=slice(None)):
                self.evals += len(rr)
                p = (p_base[idx] if self.p_static
                     else p_base[idx] + rr[:, None] * self.p_slope)
                A = A_base[idx] + rr[:, None, None] * self.A_slope
                x = None if xb is None else xb[idx]
                return F.value_batch(rr, p, A, x=x) + DEFAULT_EPS_B
        return g

    def solve(self, u: np.ndarray, sel: np.ndarray, warm: float):
        """Returns (r_new, degenerate_mask) for interior nodes ``sel``."""
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

        # lower end must be a member; a fiber with none is empty
        bad, g_lo = _widen(lo, lo_full, -width_full, g, lambda v: ~(v >= 0))
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise BracketError(
                f"{P.F.label}: no admissible value at node "
                f"{P.interior_idx[sel][i]} (empty fiber)")

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
        return r_new, degen


def _refine_axis(a: np.ndarray, axis: int) -> np.ndarray:
    """Double the resolution along one axis (midpoint interpolation)."""
    a = np.moveaxis(a, axis, 0)
    out = np.empty((2 * a.shape[0] - 1,) + a.shape[1:], dtype=a.dtype)
    out[::2] = a
    out[1::2] = 0.5 * (a[:-1] + a[1:])
    return np.moveaxis(out, 0, axis)


def _prolong(u_coarse: np.ndarray) -> np.ndarray:
    for ax in range(u_coarse.ndim):
        u_coarse = _refine_axis(u_coarse, ax)
    return u_coarse


def _start_field(P: GridProblem, start: Optional[np.ndarray],
                 cap: Optional[np.ndarray]) -> np.ndarray:
    """A level's start field: P's boundary data, the interior values of
    ``start`` (None: the boundary minimum), clamped to the obstacle cap."""
    u = P.initial_field()
    ii = P.interior_idx
    if start is not None:
        u[ii] = np.asarray(start, dtype=float).ravel()[ii]
    if cap is not None:
        u[ii] = np.minimum(u[ii], cap)
    return u


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
    u = _start_field(P, u0, cap)

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
            r_star, degen = upd.solve(u, sel, warm)
            r_old = u[ii[sel]]
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


# ---------------------------------------------------------------------------
# nested Newton start


class _FastDiag:
    """Exact inverse of sum_i a_i D_ii on a rectangular block with zero data
    outside it, D_ii the 3-point second difference along axis i (Lynch, Rice
    and Thomas 1964).  The orthogonal sine matrix S of one axis diagonalizes
    its D_ii, S D_ii S = diag(mu); S is symmetric, so it also undoes itself.

    A vector on the nodes where the block-shaped mask ``inside`` holds is
    scattered into the block (zero elsewhere), solved there and gathered back
    in C order: on a masked interior, the embedding of Buzbee, Dorr, George
    and Golub without its capacitance correction; on a rectangle, ``inside``
    holds everywhere."""

    def __init__(self, inside: np.ndarray, h: float):
        self.shape = inside.shape
        self.inside = inside
        self.mu = [-4.0 / h ** 2 * np.sin(0.5 * np.pi * np.arange(1, N + 1)
                                          / (N + 1)) ** 2 for N in self.shape]

    @cached_property
    def S(self) -> list:
        """The sine matrices, built at the first solve: a level that Newton
        leaves at once never holds them."""
        out = []
        for N in self.shape:
            k = np.arange(1, N + 1)
            out.append(np.sqrt(2.0 / (N + 1))
                       * np.sin(np.pi * np.outer(k, k) / (N + 1)))
        return out

    def _sine(self, y: np.ndarray) -> np.ndarray:
        for ax, S in enumerate(self.S):
            y = np.moveaxis(np.tensordot(S, y, axes=(1, ax)), 0, ax)
        return y

    def scatter(self, x: np.ndarray) -> np.ndarray:
        y = np.zeros(self.shape)
        y[self.inside] = x
        return y

    def gather(self, y: np.ndarray) -> np.ndarray:
        return y[self.inside]

    def solve(self, x: np.ndarray, a) -> np.ndarray:
        """(sum_i a_i D_ii)^-1 x on the block, for a vector x on its nodes."""
        n = len(self.shape)
        lam = sum(ai * mu.reshape([-1 if j == i else 1 for j in range(n)])
                  for i, (ai, mu) in enumerate(zip(a, self.mu)))
        return self.gather(self._sine(self._sine(self.scatter(x)) / lam))


def _gmres(matvec: Callable, precond: Callable, b: np.ndarray, rtol: float,
           restart: int, maxiter: int):
    """Right-preconditioned restarted GMRES from x = 0, with Givens rotations
    on the Hessenberg columns and a Krylov basis grown one vector at a time.
    Returns (x, iterations, converged), where converged means
    ||b - A x|| <= rtol ||b||."""
    x = np.zeros_like(b)
    target = rtol * np.linalg.norm(b)
    r = b
    its = 0
    while True:
        beta = np.linalg.norm(r)
        if beta <= target:
            return x, its, True
        if its >= maxiter:
            return x, its, False
        V = [r / beta]
        H, cs, sn, g = [], [], [], [beta]
        while True:
            w = matvec(precond(V[-1]))
            its += 1
            col = np.empty(len(V) + 1)
            for i, v in enumerate(V):        # modified Gram-Schmidt
                col[i] = w @ v
                w -= col[i] * v
            col[-1] = np.linalg.norm(w)
            for i in range(len(cs)):
                col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                      cs[i] * col[i + 1] - sn[i] * col[i])
            d = np.hypot(col[-2], col[-1])
            if d == 0.0:
                return x, its, False
            cs.append(col[-2] / d)
            sn.append(col[-1] / d)
            col[-2] = d
            g.append(-sn[-1] * g[-1])
            g[-2] *= cs[-1]
            H.append(col[:-1])
            if (abs(g[-1]) <= target or col[-1] == 0.0 or len(H) == restart
                    or its >= maxiter):
                break
            V.append(w / col[-1])
        k = len(H)
        R = np.zeros((k, k))
        for j, c in enumerate(H):
            R[:j + 1, j] = c
        y = np.linalg.solve(R, g[:k])
        z = y[0] * V[0]
        for yi, v in zip(y[1:], V[1:]):
            z += yi * v
        x = x + precond(z)
        r = b - matvec(x)


class _NewtonLevel:
    """G(u) = rho(J(u)) + eps_b at the interior nodes of one rectangle, its
    Jacobian as one weight per stencil neighbour and node, and the Jacobian
    applied to a vector.

    G and the jets are evaluated on the whole interior through
    ``GridProblem.jets_at``.  The gradient of rho is a one-sided difference
    of ``value_batch`` in the columns of ``JetAssembler.W``, J = (p, A), and
    in r, skipping r for reduced sets and p for pure second-order ones: one
    code path for every set.  Its step is per node, ``_FD_STEP`` (1 + the
    largest |coordinate| of that node's r, p or A; Dennis and Schnabel's
    per-component step), so each node's gradient depends on its own jet
    alone.  The jet is (V - r) W, V the neighbour values, so the gradient dJ
    pulls back to the weights w = W dJ^T on V - r: at each node the
    linearization is one linear stencil operator, dr v + sum_k w_k
    (v[nb_k] - v), with v zero on the boundary nodes.

    With an obstacle ``cap`` (at the interior nodes) the residual is
    H = min(G, |c| (cap - u)), c the stencil's dA/dr diagonal; rows where
    the obstacle branch is the smaller are -|c| I in the Jacobian and the
    preconditioner (Howard's policy rule)."""

    def __init__(self, P: GridProblem, cap: Optional[np.ndarray] = None):
        self.P = P
        multi = np.unravel_index(P.interior_idx, P.grid.shape)
        inside = np.zeros([a.max() - a.min() + 1 for a in multi], dtype=bool)
        inside[tuple(a - a.min() for a in multi)] = True
        self.fd = _FastDiag(inside, P.grid.h)
        self.dr = self.w = None
        self.cap, self.active = cap, None
        self.c = abs(P.assembler.slopes()[1][0, 0])

    def residual(self, u: np.ndarray) -> np.ndarray:
        return self.P.rho_at(u) + DEFAULT_EPS_B

    def clamped(self, u: np.ndarray, G: np.ndarray) -> np.ndarray:
        """H = min(G, |c| (cap - u)), or G itself without an obstacle."""
        if self.cap is None:
            return G
        return np.minimum(G, self.c * (self.cap - u[self.P.interior_idx]))

    def linearize(self, u: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Stores the Jacobian of G at u (where G is the residual) as the
        centre term ``dr`` and the (K, M) stencil weights ``w``, and the rows
        where the obstacle branch is active; returns the mean of
        d rho / dA_ii over the nodes."""
        if self.cap is not None:
            self.active = self.clamped(u, G) < G
        P, n = self.P, self.P.grid.n
        r, p, A = P.jets_at(u)
        J = np.concatenate([p, A.reshape(len(r), -1)], axis=1)
        rho0 = G - DEFAULT_EPS_B

        def slope(r, J, t):
            return (P.F.value_batch(r, J[:, :n], J[:, n:].reshape(-1, n, n),
                                    x=P.xb) - rho0) / t

        def step(a):
            # max over a node's entries as an elementwise maximum of the
            # columns: a reduction along the short axis is ~15x slower
            cols = np.abs(a).reshape(len(a), -1).T
            return _FD_STEP * (1.0 + reduce(np.maximum, cols))

        # the perturbed columns of J and their steps: A_ij with its twin
        # A_ji, and p_i
        t_A = step(A)
        cols = [(sorted({n + n * i + j, n + n * j + i}), t_A)
                for i in range(n) for j in range(i, n)]
        if not P.F.pure_second_order:
            t_p = step(p)
            cols += [([k], t_p) for k in range(n)]
        dJ = np.zeros_like(J)
        for c, t in cols:
            Jc = J.copy()
            Jc[:, c] += t[:, None]
            dJ[:, c[0]] = slope(r, Jc, t)
        if P.F.reduced:
            self.dr = 0.0
        else:
            t = step(r)
            self.dr = slope(r + t, J, t)
        self.w = P.assembler.W @ dJ.T
        return dJ[:, [n + (n + 1) * i for i in range(n)]].mean(axis=0)

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """dr v + sum_k w_k (v[nb_k] - v), v zero on the boundary nodes."""
        P = self.P
        x = np.zeros(P.grid.size())
        x[P.interior_idx] = v
        d = x[P.nb]
        d -= v
        out = self.dr * v + np.einsum("km,km->m", self.w, d)
        if self.active is not None:
            out[self.active] = -self.c * v[self.active]
        return out

    def precond(self, y: np.ndarray, a: np.ndarray) -> np.ndarray:
        """The fast-diagonalization inverse with coefficients a, the active
        obstacle rows taken out of the embedding and inverted as -|c| I."""
        if self.active is None:
            return self.fd.solve(y, a)
        z = self.fd.solve(np.where(self.active, 0.0, y), a)
        return np.where(self.active, -y / self.c, z)

    def laplace_start(self) -> np.ndarray:
        """The discrete harmonic field with the level's boundary data: the
        trace of the assembled A is the 5-point Laplacian for the direct
        stencils, and the fast-diagonalization inverse with a_i = 1 solves it."""
        P = self.P
        u = P.initial_field()
        u[P.interior_idx] = 0.0
        b = np.trace(P.jets_at(u)[2], axis1=1, axis2=2)
        u[P.interior_idx] = -self.fd.solve(b, np.ones(P.grid.n))
        return u

    def run(self, start: Optional[np.ndarray], level: int):
        """Damped Newton from the interior values of ``start`` clamped to the
        obstacle; a None start is the Laplace solve on a rectangle, the
        boundary minimum on a masked interior.  Returns (u, iterations, the
        GMRES iterations of each linear solve, reason): reason is None on
        success, else why the attempt stopped."""
        P = self.P
        ii = P.interior_idx
        if start is None and P.domain is None:
            start = self.laplace_start()
        u = _start_field(P, start, self.cap)
        st = P.params.resolved(P.data_range())
        target = _NEWTON_TOL * st * self.c
        G = self.residual(u)
        H = self.clamped(u, G)
        gmax = float(np.abs(H).max())
        krylov = []
        for it in range(_NEWTON_ITERS + 1):
            log.debug("newton level %d iteration %d: max|G| %.3e (target "
                      "%.3e)", level, it, gmax, target)
            if not np.isfinite(gmax):
                return u, it, krylov, "non-finite residual"
            if gmax <= target:
                return u, it, krylov, None
            if it == _NEWTON_ITERS:
                return u, it, krylov, "iteration cap"
            a = np.maximum(self.linearize(u, G), 0.0)
            if not a.max() > 0.0:
                return u, it, krylov, "no elliptic mean coefficient"
            if self.active is not None:
                log.debug("newton level %d iteration %d: %d active obstacle "
                          "rows", level, it, int(self.active.sum()))
            du, k, ok = _gmres(self.jvp, lambda y: self.precond(y, a), -H,
                               _GMRES_RTOL, _GMRES_RESTART, _GMRES_ITERS)
            krylov.append(k)
            if not ok:
                return u, it, krylov, "gmres"
            step = 1.0
            for _ in range(_LINE_SEARCH):
                u_try = u.copy()
                u_try[ii] += step * du
                G_try = self.residual(u_try)
                H_try = self.clamped(u_try, G_try)
                g_try = float(np.abs(H_try).max())
                if g_try < gmax:
                    break
                step *= 0.5
            else:
                return u, it, krylov, "line search"
            log.debug("newton level %d: %d gmres iterations, step %g",
                      level, k, step)
            u, G, H, gmax = u_try, G_try, H_try, g_try


def _solve(P: GridProblem, g: Optional[Callable] = None,
           label: str = "") -> SolveReport:
    """The pass of ``perron_solve``, with the obstacle g if one is given:
    one pass over the cascade ladder of P and P itself, coarsest first.
    Each level starts from the prolongation of the field below it, the
    coarsest from the boundary minimum (Newton's from ``_NewtonLevel.run``);
    with an obstacle g every start is clamped to g, so the contact set is
    carried upward.  On grids of at least 33 nodes per axis Newton runs on
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
            if _KRYLOV_GROWTH * kmax > _GMRES_ITERS:
                it, ks, reason = 0, [], "krylov growth"
            else:
                solved, it, ks, reason = _NewtonLevel(Q, cap).run(u, level)
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
    pass on min(G, |c| (g - u)) = 0, node updates clamped to g.  Boundary
    data exceeding the obstacle is rejected up front."""
    gb = np.asarray(g(P.pts[P.boundary_idx]), dtype=float)
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
    jet_tol = 10.0 * grid.h
    scale = max(1.0, float(np.nanmax(np.abs(u[K_nd]))),
                float(np.nanmax(np.abs(v[K_nd]))))
    zmp_tol = 1e-9 * scale

    inner, flat_idx, jet_margins = _interior_margins(grid, K_nd, stencil)
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
