"""Damped Newton on one level of the solver's ladder: the start that the
Perron sweeps of ``solver`` certify.

Newton solves G(u) = rho(J(u)) + eps_b = 0 (``core.DEFAULT_EPS_B``) at the
interior nodes.  On the coarsest level of a rectangle it starts from the
discrete Laplace solve, on a masked domain from the boundary minimum, and on
every finer level from the prolonged field below.  The Jacobian is never
formed as a matrix: ``_NewtonLevel.linearize`` returns it as a value, one
weight per stencil neighbour and node (a ``_Linearization``), applied without
assembling jets.  Each linear solve is restarted GMRES, right preconditioned
by the fast-diagonalization inverse of sum_i a_i D_ii (a_i the mean of
d rho / dA_ii, D_ii the axis second difference); numpy only.  On a masked
domain the preconditioner acts on the bounding block of its interior.
Steps backtrack on max|G|; a level is done at max|G| / |c| <= 1e-3
sweep_tol, c the stencil's dA/dr diagonal.

A level is abandoned on the first GMRES solve that misses its tolerance
within its cap, on a line search that finds no decrease, on a non-finite
residual, at the per-level iteration cap, or before it starts when one GMRES
solve on the level below needed more than half the cap (the mean-coefficient
preconditioner loses about a factor two per refinement where d rho / dA
varies across the grid, so the finer level would miss the cap after paying
for most of its iterations).  ``_NewtonLevel.run`` returns the reason.

With an obstacle g the residual is min(G, |c| (g - u)), the start is clamped
to g, and the rows where the obstacle branch is active are -|c| I in the
Jacobian and the preconditioner (Howard's policy rule).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Optional, Union

import numpy as np

from .core import DEFAULT_EPS_B
from .grid import GridProblem

log = logging.getLogger("subeq")

_NEWTON_TOL = 1e-3      # stop at max|G| / |c| <= this * sweep_tol
_NEWTON_ITERS = 30      # per level
_LINE_SEARCH = 12       # step halvings before the attempt is abandoned
_GMRES_RTOL = 0.1
_GMRES_RESTART = 20
_GMRES_ITERS = 40       # a solve that needs more abandons the attempt
_KRYLOV_GROWTH = 2.0    # expected growth of the GMRES count per refinement
_FD_STEP = 1.5e-8       # one-sided difference step, relative to a node's jet


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


@dataclass(frozen=True)
class _Linearization:
    """The Jacobian of one level's residual at one field: the centre term
    ``dr`` (0 for reduced sets), the (K, M) stencil weights ``w``, the rows
    ``active`` where the obstacle branch is the smaller (None without an
    obstacle), and the preconditioner's mean coefficients ``a``, clipped
    at 0."""
    level: "_NewtonLevel"
    dr: Union[float, np.ndarray]
    w: np.ndarray
    active: Optional[np.ndarray]
    a: np.ndarray

    def jvp(self, v: np.ndarray) -> np.ndarray:
        """dr v + sum_k w_k (v[nb_k] - v), v zero on the boundary nodes;
        the active rows -|c| v."""
        P = self.level.P
        x = np.zeros(P.grid.size())
        x[P.interior_idx] = v
        d = x[P.nb]
        d -= v
        out = self.dr * v + np.einsum("km,km->m", self.w, d)
        if self.active is not None:
            out[self.active] = -self.level.c * v[self.active]
        return out

    def precond(self, y: np.ndarray) -> np.ndarray:
        """The fast-diagonalization inverse with coefficients a, the active
        obstacle rows taken out of the embedding and inverted as -|c| I."""
        fd = self.level.fd
        if self.active is None:
            return fd.solve(y, self.a)
        z = fd.solve(np.where(self.active, 0.0, y), self.a)
        return np.where(self.active, -y / self.level.c, z)


class _NewtonLevel:
    """G(u) = rho(J(u)) + eps_b at the interior nodes of one level, its
    Jacobian, and the damped Newton solve of G = 0.

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
    (v[nb_k] - v), with v zero on the boundary nodes."""

    def __init__(self, P: GridProblem, cap: Optional[np.ndarray] = None):
        self.P = P
        multi = np.unravel_index(P.interior_idx, P.grid.shape)
        inside = np.zeros([a.max() - a.min() + 1 for a in multi], dtype=bool)
        inside[tuple(a - a.min() for a in multi)] = True
        self.fd = _FastDiag(inside, P.grid.h)
        self.cap = cap
        self.c = abs(P.assembler.c)

    def residual(self, u: np.ndarray):
        """(G, H) at u: H = min(G, |c| (cap - u)) with the obstacle ``cap`` at
        the interior nodes, c the stencil's ``JetAssembler.c``; H is G
        without one."""
        G = self.P.rho_at(u) + DEFAULT_EPS_B
        if self.cap is None:
            return G, G
        return G, np.minimum(G, self.c * (self.cap - u[self.P.interior_idx]))

    def linearize(self, u: np.ndarray, G: np.ndarray,
                  H: np.ndarray) -> _Linearization:
        """The Jacobian of H at u, where (G, H) is the residual there."""
        active = None if self.cap is None else H < G
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
            dr = 0.0
        else:
            t = step(r)
            dr = slope(r + t, J, t)
        a = dJ[:, [n + (n + 1) * i for i in range(n)]].mean(axis=0)
        return _Linearization(self, dr, P.assembler.W @ dJ.T, active,
                              np.maximum(a, 0.0))

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

    def run(self, start: Optional[np.ndarray], level: int, kmax: int = 0):
        """Damped Newton from the interior values of ``start`` clamped to the
        obstacle; a None start is the Laplace solve on a rectangle, the
        boundary minimum on a masked interior.  ``kmax`` is the largest
        GMRES count of one linear solve on the level below.  Returns (u,
        iterations, the GMRES iterations of each linear solve, reason):
        reason is None on success, else why the attempt stopped (u is None
        when it never started)."""
        if _KRYLOV_GROWTH * kmax > _GMRES_ITERS:
            return None, 0, [], "krylov growth"
        P = self.P
        if start is None and P.domain is None:
            start = self.laplace_start()
        u = P.start_field(start, self.cap)
        st = P.params.resolved(P.data_range())
        target = _NEWTON_TOL * st * self.c
        G, H = self.residual(u)
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
            lin = self.linearize(u, G, H)
            if not lin.a.max() > 0.0:
                return u, it, krylov, "no elliptic mean coefficient"
            if lin.active is not None:
                log.debug("newton level %d iteration %d: %d active obstacle "
                          "rows", level, it, int(lin.active.sum()))
            du, k, ok = _gmres(lin.jvp, lin.precond, -H, _GMRES_RTOL,
                               _GMRES_RESTART, _GMRES_ITERS)
            krylov.append(k)
            if not ok:
                return u, it, krylov, "gmres"
            step = 1.0
            for _ in range(_LINE_SEARCH):
                u_try = u.copy()
                u_try[P.interior_idx] += step * du
                G_try, H_try = self.residual(u_try)
                g_try = float(np.abs(H_try).max())
                if g_try < gmax:
                    break
                step *= 0.5
            else:
                return u, it, krylov, "line search"
            log.debug("newton level %d: %d gmres iterations, step %g",
                      level, k, step)
            u, G, H, gmax = u_try, G_try, H_try, g_try
