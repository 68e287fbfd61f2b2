"""Masked rectangular grids, finite-difference stencils, and discrete jets.

The solver reads second-order data off a uniform lattice: value r at the
node, centered gradient p, and a Hessian A.  Each stencil is one linear map
of the neighbor differences V_k - r (``JetAssembler.W``): centered axis and
diagonal differences for the direct stencils, the least-squares quadratic
fit for the wide one.  The center value enters the jet affinely, and every
stencil is symmetric, so it moves only A, by c * I per unit
(``JetAssembler.c``): the node update searches the line r -> (r, p, A + c r I).

Dimensions 1, 2 and 3 are supported ("9pt" in 3-d means axes plus face
diagonals; any stencil name degrades to the 3-point stencil in 1-d).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, GeometryError
from .core import Jet, Subequation


def stencil_offsets(name: str, n: int) -> np.ndarray:
    if n == 1:
        return np.array([[1], [-1]], dtype=int)
    axes = []
    for i in range(n):
        e = np.zeros(n, dtype=int)
        e[i] = 1
        axes += [e.copy(), -e]
    diags = []
    for i, j in itertools.combinations(range(n), 2):
        for si, sj in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
            d = np.zeros(n, dtype=int)
            d[i], d[j] = si, sj
            diags.append(d)
    if name == "5pt":
        out = axes
    elif name == "9pt":
        out = axes + diags
    elif name == "wide16":
        if n != 2:
            raise ConfigError("wide16 stencil is 2-d only")
        knights = [np.array(d) for d in
                   ((2, 1), (1, 2), (-1, 2), (-2, 1),
                    (-2, -1), (-1, -2), (1, -2), (2, -1))]
        out = axes + diags + knights
    else:
        raise ConfigError(f"unknown stencil {name!r}")
    return np.array(out, dtype=int)


def _quad_columns(d: np.ndarray, n: int) -> np.ndarray:
    """Row of the quadratic model for displacement d: [d, d_i^2/2, d_i d_j]."""
    cols = list(d)
    cols += [0.5 * d[i] * d[i] for i in range(n)]
    cols += [d[i] * d[j] for i, j in itertools.combinations(range(n), 2)]
    return np.array(cols, dtype=float)


def _shift_bool(mask: np.ndarray, d: np.ndarray) -> np.ndarray:
    """mask shifted so that out[i] = mask[i + d], False past the edge."""
    out = np.zeros_like(mask)
    src = []
    dst = []
    for di, m in zip(d, mask.shape):
        if di >= 0:
            src.append(slice(di, m))
            dst.append(slice(0, m - di))
        else:
            src.append(slice(0, m + di))
            dst.append(slice(-di, m))
    out[tuple(dst)] = mask[tuple(src)]
    return out


def stencil_table(mask: np.ndarray, offsets: np.ndarray):
    """Nodes of an nd boolean mask whose whole stencil lies in the mask.

    Returns ``(inner, multi, nb)``: the nd mask of those nodes, their
    (Ni, n) multi-indices in C order, and the (K, Ni) flat indices of their
    stencil neighbors, one row per offset.
    """
    inner = mask.copy()
    for d in offsets:
        inner &= _shift_bool(mask, d)
    multi = np.stack(np.nonzero(inner), axis=1)
    nb = np.empty((len(offsets), len(multi)), dtype=np.int64)
    for k, d in enumerate(offsets):
        nb[k] = np.ravel_multi_index(tuple((multi + d).T), mask.shape)
    return inner, multi, nb


class JetAssembler:
    """One linear map per stencil: neighbor values (+ center r) to (p, A).

    The discrete jet at a node is ``(V - r) @ W``, V its K neighbor values
    and r its center value.  ``W`` has shape (K, n + n*n): column i holds the
    weights of p_i, column n + n*i + j those of A_ij.  The columns of A_ij and
    A_ji are equal, so the assembled A is exactly symmetric.  The direct
    stencils take the centered axis pair (V[+e] - V[-e]) / 2h and
    (V[+e] + V[-e] - 2r) / h^2, and the diagonal quadruple
    (V[+d] + V[-d] - V[+s] - V[-s]) / 4h^2 for d = e_i + e_j, s = e_i - e_j;
    wide16 takes the least-squares quadratic fit, the pseudo-inverse of the
    ``_quad_columns`` rows.
    """

    def __init__(self, stencil: str, n: int, h: float):
        self.name = stencil
        self.n = n
        self.h = float(h)
        self.offsets = stencil_offsets(stencil, n)
        self.K = len(self.offsets)
        pairs = list(itertools.combinations(range(n), 2))
        # C: (n + n + len(pairs), K) rows p_i, A_ii, A_ij (i < j), the
        # coefficient order of _quad_columns
        if stencil == "wide16":
            C = np.linalg.pinv(np.stack([_quad_columns(self.h * d, n)
                                         for d in self.offsets]))
        else:
            key = {tuple(d): k for k, d in enumerate(self.offsets)}
            eye = np.eye(n, dtype=int)
            C = np.zeros((2 * n + len(pairs), self.K))
            for i in range(n):
                ax = [key[tuple(eye[i])], key[tuple(-eye[i])]]
                C[i, ax] = 0.5 / self.h, -0.5 / self.h
                C[n + i, ax] = 1.0 / self.h ** 2
            for q, (i, j) in enumerate(pairs):
                d, s = eye[i] + eye[j], eye[i] - eye[j]
                if tuple(d) in key:
                    quad = [key[tuple(d)], key[tuple(-d)], key[tuple(s)],
                            key[tuple(-s)]]
                    C[2 * n + q, quad] = np.array([1, 1, -1, -1]) / (
                        4.0 * self.h ** 2)
        W = np.zeros((self.K, n + n * n))
        W[:, :n] = C[:n].T
        for i in range(n):
            W[:, n + n * i + i] = C[n + i]
        for q, (i, j) in enumerate(pairs):
            W[:, n + n * i + j] = W[:, n + n * j + i] = C[2 * n + q]
        self.W = W
        # dA_00/dr, minus the column sum of W: the offsets come in +-d
        # pairs, so r leaves p alone and moves A by c * I (to rounding for
        # wide16), with c < 0
        self.c = float(-W.sum(axis=0)[n])

    def _split(self, J: np.ndarray):
        return J[..., :self.n], J[..., self.n:].reshape(
            J.shape[:-1] + (self.n, self.n))

    def assemble(self, V: np.ndarray, r: np.ndarray):
        """V: (K, M) frozen neighbor values; r: (M,) center values.  r is
        subtracted before the product: folding it into a column-sum term
        would cancel catastrophically, A being about |u| / h^2."""
        return self._split((V - r).T @ self.W)


@dataclass(frozen=True)
class Grid:
    lo: np.ndarray
    h: float
    shape: tuple

    @property
    def n(self) -> int:
        return len(self.shape)

    @classmethod
    def regular(cls, bounds: Sequence, m: int) -> "Grid":
        """Uniform lattice with m nodes per axis over [a1,b1]x...; spacing
        must agree across axes."""
        b = np.asarray(bounds, dtype=float).reshape(-1, 2)
        if not np.isfinite(b).all():
            raise ConfigError(f"box bounds must be finite, not {b.tolist()}")
        if m < 3:
            raise ConfigError("need at least 3 nodes per axis")
        hs = (b[:, 1] - b[:, 0]) / (m - 1)
        if hs.min() <= 0:
            raise ConfigError("empty box")
        if np.ptp(hs) > 1e-12 * hs.max():
            raise ConfigError("anisotropic spacing unsupported")
        return cls(b[:, 0].copy(), float(hs[0]), (m,) * len(b))

    def axes(self) -> list:
        """The coordinates along each axis; ``points`` is their mesh."""
        return [self.lo[i] + self.h * np.arange(self.shape[i])
                for i in range(self.n)]

    def points(self) -> np.ndarray:
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    def size(self) -> int:
        return int(np.prod(self.shape))


@dataclass(frozen=True)
class SolverParams:
    max_sweeps: int = 100_000               # per solve, over all levels
    sweep_tol: Optional[float] = None       # default 1e-10 * data range
    stencil: str = "9pt"
    omega: Optional[float] = None           # over-relaxation; None = auto

    def __post_init__(self):
        # written so that NaN fails: each comparison is false for it
        if not (self.sweep_tol is None or 0 < self.sweep_tol < np.inf):
            raise ConfigError(f"sweep_tol must be finite and > 0, "
                              f"not {self.sweep_tol!r}")
        if not (self.omega is None or 0 < self.omega < 2):
            raise ConfigError(f"omega must lie in (0, 2), not {self.omega!r}")

    def resolved(self, data_range: float) -> float:
        """The sweep tolerance, its default filled in."""
        if self.sweep_tol is not None:
            return self.sweep_tol
        return 1e-10 * (data_range if data_range > 0 else 1.0)

    def resolved_omega(self, min_cells: int) -> float:
        """Acceleration factor; the classical optimum for the model problem
        at this resolution, clipped away from the stability edge."""
        if self.omega is not None:
            return float(self.omega)
        w = 2.0 / (1.0 + np.sin(np.pi / max(min_cells, 2)))
        return float(np.clip(w, 1.0, 1.97))


class GridProblem:
    """Masked Dirichlet problem: F on {rho_dom < 0} with data on cut nodes.

    Node roles: *interior* nodes carry the full stencil inside the domain
    and get updated; in-domain nodes missing a neighbor are *boundary* and
    hold the data.  For a None domain the whole box is used and the box
    faces are the boundary.
    """

    def __init__(self, grid: Grid, F: Subequation, bc: Callable,
                 domain=None, params: Optional[SolverParams] = None):
        if F.n != grid.n:
            raise ConfigError(f"operator dimension {F.n} != grid {grid.n}")
        if domain is not None and domain.n != grid.n:
            raise ConfigError(f"domain dimension {domain.n} != operator {F.n}")
        self.grid = grid
        self.F = F
        self.bc = bc
        self.domain = domain
        self.params = params or SolverParams()
        self.assembler = JetAssembler(self.params.stencil, grid.n, grid.h)
        self._build()

    def _build(self):
        g = self.grid
        pts = g.points()
        self.pts = pts
        if self.domain is None:
            inside = np.ones(g.size(), dtype=bool)
        else:
            dvals = np.asarray(self.domain.rho_dom(pts), dtype=float)
            inside = dvals < 0.0
        inside_nd = inside.reshape(g.shape)

        interior_nd, multi, self.nb = stencil_table(inside_nd,
                                                    self.assembler.offsets)
        boundary_nd = inside_nd & ~interior_nd
        self.inside = inside
        self.interior_idx = np.flatnonzero(interior_nd)
        self.xb = pts[self.interior_idx] if self.F.x_dependent else None
        self.boundary_idx = np.flatnonzero(boundary_nd)
        if len(self.interior_idx) == 0:
            raise ConfigError("no interior nodes at this resolution")
        if len(self.boundary_idx) == 0:
            raise ConfigError("domain touches no boundary nodes")

        phi = np.asarray(self.bc(pts[self.boundary_idx]), dtype=float)
        if not np.all(np.isfinite(phi)):
            raise ConfigError("boundary data not finite")
        self.phi = phi

        # coloring by lattice parity: every stencil offset, wide16's knight
        # moves included, is odd in some coordinate, so nodes in one class
        # share no stencil edge for every stencil
        self.colors = []
        parity = multi % 2
        code = np.zeros(len(multi), dtype=int)
        for axis in range(g.n):
            code = code * 2 + parity[:, axis]
        for c in range(2 ** g.n):
            sel = np.flatnonzero(code == c)
            if len(sel):
                self.colors.append(sel)

    def data_range(self) -> float:
        return float(self.phi.max() - self.phi.min())

    def initial_field(self) -> np.ndarray:
        u = np.full(self.grid.size(), np.nan)
        u[self.inside] = self.phi.min()
        u[self.boundary_idx] = self.phi
        return u

    def start_field(self, start: Optional[np.ndarray],
                    cap: Optional[np.ndarray]) -> np.ndarray:
        """A solve's start field: the boundary data, the interior values of
        ``start`` (None: the boundary minimum), clamped to the obstacle
        ``cap`` at the interior nodes."""
        u = self.initial_field()
        ii = self.interior_idx
        if start is not None:
            u[ii] = np.asarray(start, dtype=float).ravel()[ii]
        if cap is not None:
            u[ii] = np.minimum(u[ii], cap)
        return u

    def jets_at(self, u: np.ndarray):
        """Batched discrete jets (r, p, A) at the interior nodes."""
        r = u[self.interior_idx]
        p, A = self.assembler.assemble(u[self.nb], r)
        return r, p, A

    def rho_at(self, u: np.ndarray) -> np.ndarray:
        """rho at the discrete jets of the field u, one value per interior
        node (x the interior base points ``xb``, None for sets that do not
        read x)."""
        return self.F.value_batch(*self.jets_at(u), x=self.xb)


def discrete_jet(u: np.ndarray, node, h: float, stencil: str = "9pt") -> Jet:
    """Second-order jet of a sampled field at one node of a uniform grid.

    ``u`` is the full nd-array of samples; ``node`` a multi-index.  Raises
    when the stencil pokes past the array edge.
    """
    u = np.asarray(u, dtype=float)
    n = u.ndim
    node = tuple(int(i) for i in np.atleast_1d(node))
    asm = JetAssembler(stencil, n, h)
    V = np.empty((asm.K, 1))
    for k, d in enumerate(asm.offsets):
        tgt = tuple(node[i] + d[i] for i in range(n))
        if any(t < 0 or t >= u.shape[i] for i, t in enumerate(tgt)):
            raise GeometryError(f"stencil leaves the grid at {node}")
        V[k, 0] = u[tgt]
    r = np.array([u[node]])
    p, A = asm.assemble(V, r)
    return Jet(float(r[0]), p[0], A[0])
