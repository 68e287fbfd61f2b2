"""Domain geometry and strict boundary-convexity tests.

A domain is {rho_dom < 0} for a smooth defining function with nonvanishing
gradient on the zero set.  Curvature data is read off the second fundamental
form II = P_T (Hess rho / |grad rho|) P_T in an orthonormal tangent frame.

Whether the Dirichlet problem for a constraint set F admits boundary
barriers at a point is decided by the jets (lam, nu, t*nu⊗nu + II): the
boundary is strictly convex for F when those jets sit in the asymptotic
interior for all large t (and every relevant value level lam).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ConfigError, GeometryError
from .linalg import eigvalsh_batch
from .core import (Jet, Subequation, asymptotic_interior_member,
                   _unit_sphere_qmc, bisect)

_H_GEO = 1e-4
_GRAD_FLOOR = 1e-6
_ONSET_TOL = 1e-8


def _fd_gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    n = len(x)
    E = np.eye(n) * h
    pts = np.concatenate([x[None, :] + E, x[None, :] - E])
    vals = np.asarray(f(pts), dtype=float)
    return (vals[:n] - vals[n:]) / (2.0 * h)


def _fd_hessian(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    n = len(x)
    E = np.eye(n) * h
    f0 = float(np.asarray(f(x[None, :]), dtype=float)[0])
    H = np.empty((n, n))
    plus = np.asarray(f(x[None, :] + E), dtype=float)
    minus = np.asarray(f(x[None, :] - E), dtype=float)
    for i in range(n):
        H[i, i] = (plus[i] - 2.0 * f0 + minus[i]) / h ** 2
    if n > 1:
        ii, jj = np.triu_indices(n, k=1)
        pp = x[None, :] + E[ii] + E[jj]
        pm = x[None, :] + E[ii] - E[jj]
        mp = x[None, :] - E[ii] + E[jj]
        mm = x[None, :] - E[ii] - E[jj]
        cross = np.asarray(f(np.concatenate([pp, pm, mp, mm])), dtype=float)
        k = len(ii)
        vals = (cross[:k] - cross[k:2 * k] - cross[2 * k:3 * k]
                + cross[3 * k:]) / (4.0 * h ** 2)
        H[ii, jj] = vals
        H[jj, ii] = vals
    return H


@dataclass(frozen=True)
class DomainSpec:
    """Region {rho_dom < 0} with geometry callbacks or difference fallbacks.

    rho_dom maps batched points (N, n) to (N,).  When analytic gradient or
    Hessian callbacks are absent, central differences at step ``_H_GEO``
    (1e-4) and at half that step are combined by Richardson extrapolation.
    """
    n: int
    rho_dom: Callable
    grad: Optional[Callable] = None
    hess: Optional[Callable] = None
    label: str = "domain"

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(np.asarray(self.rho_dom(x[None, :]), dtype=float)[0])

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        g1 = _fd_gradient(self.rho_dom, x, _H_GEO)
        g2 = _fd_gradient(self.rho_dom, x, 0.5 * _H_GEO)
        return (4.0 * g2 - g1) / 3.0

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hess is not None:
            H = np.asarray(self.hess(x), dtype=float)
        else:
            H1 = _fd_hessian(self.rho_dom, x, _H_GEO)
            H2 = _fd_hessian(self.rho_dom, x, 0.5 * _H_GEO)
            H = (4.0 * H2 - H1) / 3.0
        return 0.5 * (H + H.T)

    def contains(self, x) -> bool:
        return self.value(x) < 0.0


def ball_domain(n: int, radius: float = 1.0) -> DomainSpec:
    """The ball of the given radius about the origin."""
    r2 = radius ** 2

    def rho(x):
        d = np.asarray(x, dtype=float)
        return np.einsum("ni,ni->n", d, d) - r2

    def grad(x):
        return 2.0 * np.asarray(x, dtype=float)

    def hess(x):
        return 2.0 * np.eye(n)

    return DomainSpec(n, rho, grad, hess, label=f"ball:r={radius}")


def annulus_domain(n: int, r_in: float = 1.0, r_out: float = 2.0) -> DomainSpec:
    """{r_in < |x| < r_out} via the product defining function."""
    def rho(x):
        s = np.linalg.norm(np.asarray(x, dtype=float), axis=1)
        return (s - r_in) * (s - r_out)

    return DomainSpec(n, rho, label=f"annulus:{r_in}:{r_out}")


def ellipsoid_domain(axes) -> DomainSpec:
    """The axis-aligned ellipsoid sum (x_i / axes_i)^2 < 1."""
    axes = np.asarray(axes, dtype=float)
    n = len(axes)
    D = np.diag(1.0 / axes ** 2)

    def rho(x):
        x = np.asarray(x, dtype=float)
        return np.einsum("ni,ij,nj->n", x, D, x) - 1.0

    def grad(x):
        return 2.0 * D @ np.asarray(x, dtype=float)

    def hess(x):
        return 2.0 * D

    return DomainSpec(n, rho, grad, hess, label="ellipsoid")


def star_domain(n: int, amplitude: float = 0.2, lobes: int = 5,
                seed: int = 0) -> DomainSpec:
    """Star-shaped wobble of the unit ball, |x| < 1 + amp*cos(lobes*theta).

    In 2-d the radius is modulated by the polar angle; higher dimensions use
    a fixed random bounded trigonometric bump.  Smooth away from the origin,
    which is never a boundary point for amplitude < 1.
    """
    if not 0 <= amplitude < 0.5:
        raise GeometryError("amplitude must sit in [0, 0.5)")
    rng = np.random.default_rng(seed)
    freq = rng.integers(1, 4, size=n)
    phase = rng.uniform(0, 2 * np.pi, size=n)

    def rho(x):
        x = np.asarray(x, dtype=float)
        s = np.linalg.norm(x, axis=1)
        if n == 2:
            z = x[:, 0] + 1j * x[:, 1]
            bump = np.real(z ** lobes) / np.maximum(s, 1e-12) ** lobes
        else:
            bump = np.prod(np.sin(freq[None, :] * x + phase[None, :]), axis=1)
        return s - 1.0 - amplitude * bump

    return DomainSpec(n, rho, label="star")


# ---------------------------------------------------------------------------
# curvature


def second_fundamental_form(D: DomainSpec, x) -> tuple:
    """Outward unit normal and tangential curvature form at a boundary point.

    Returns (nu, II, T): nu in R^n, II a dense symmetric (n-1)x(n-1) array
    in the orthonormal tangent frame given by the columns of T.
    """
    x = np.asarray(x, dtype=float)
    val = D.value(x)
    if abs(val) > _ONSET_TOL:
        raise GeometryError(f"not a boundary point: rho_dom = {val:.3e}")
    g = D.gradient(x)
    gn = float(np.linalg.norm(g))
    if gn < _GRAD_FLOOR:
        raise GeometryError(f"degenerate gradient |grad| = {gn:.3e}")
    nu = g / gn
    # frame from the Householder reflection taking e1 to nu
    v = nu.copy()
    v[0] += 1.0 if v[0] >= 0 else -1.0
    Hh = np.eye(D.n) - 2.0 * np.outer(v, v) / (v @ v)
    T = Hh[:, 1:]
    H = D.hessian(x) / gn
    II = T.T @ H @ T
    return nu, 0.5 * (II + II.T), T


def sample_boundary_points(D: DomainSpec, k: int,
                           seed: int = 0) -> np.ndarray:
    """Boundary points by ray bisection from an interior anchor.

    Works for domains star-shaped about the anchor: the origin, or, if the
    origin is not interior (as for an annulus), the point of lowest rho_dom
    in a seeded scan of [-1.5, 1.5]^n.  Each ray is bisected until its
    bracket is below 1e-14 relative width, and the bracket midpoint is
    returned."""
    c = np.zeros(D.n)
    if D.value(c) >= 0:
        rng = np.random.default_rng(seed + 1)
        cand = rng.uniform(-1.5, 1.5, (4096, D.n))
        vals = np.asarray(D.rho_dom(cand), dtype=float)
        if vals.min() < -1e-9:
            c = cand[int(np.argmin(vals))]
    if D.value(c) >= 0:
        raise GeometryError("anchor is not interior")
    dirs = _unit_sphere_qmc(D.n, k, seed=seed)

    def inside(t):
        pts = c + t[:, None] * dirs
        return np.asarray(D.rho_dom(pts), dtype=float) < 0

    # double each ray's reach until it has left the domain (60 doublings)
    hi = np.ones(k)
    for _ in range(61):
        out = ~inside(hi)
        if out.all():
            break
        hi[~out] *= 2.0
    else:
        raise GeometryError("ray never leaves the domain")
    lo, hi = bisect(inside, np.zeros(k), hi, 200,
                    done=lambda lo, hi: hi - lo < 1e-14 * np.maximum(1.0, hi))
    return c + (0.5 * (lo + hi))[:, None] * dirs


# ---------------------------------------------------------------------------
# strict convexity


@dataclass(frozen=True)
class ConvexityVerdict:
    point: np.ndarray
    lambda_grid: tuple
    per_lambda: tuple      # bool per lambda value
    overall: bool
    trace_II: float
    min_eig_II: float

    def to_json_dict(self) -> dict:
        return {"point": self.point.tolist(),
                "lambda_grid": list(self.lambda_grid),
                "per_lambda": [bool(b) for b in self.per_lambda],
                "overall": bool(self.overall),
                "trace_II": self.trace_II, "min_eig_II": self.min_eig_II}


DEFAULT_LAMBDA_GRID = (-2.0, -1.0, 0.0, 1.0, 2.0)


def _curvature_at(D: DomainSpec, x):
    """x as an array, the unit normal nu, II, and II in ambient coordinates."""
    x = np.asarray(x, dtype=float)
    nu, II, T = second_fundamental_form(D, x)
    return x, nu, II, T @ II @ T.T


def strict_convexity_test(F: Subequation, D: DomainSpec, x,
                          lambda_grid: Sequence[float] = DEFAULT_LAMBDA_GRID,
                          t_max: float = 2.0 ** 16) -> ConvexityVerdict:
    """Strict boundary convexity of {rho_dom<0} for F at a boundary point.

    For each lam on the grid, the jets (lam, nu, t nu⊗nu + II_ambient) are
    pushed through the asymptotic-interior test along the geometric t-grid
    1, 2, 4, ..., t_max; the verdict per lam is stabilization (membership at
    the last four grid points, the only ones evaluated), and the overall
    verdict requires all lam.  Reduced F collapses the grid to a single
    representative.
    """
    if F.n != D.n:
        raise ConfigError(f"operator dimension {F.n} != domain {D.n}")
    grid = tuple(lambda_grid)
    if not np.isfinite(grid).all():
        raise ConfigError(f"lambda values must be finite, not {list(grid)}")
    x, nu, II, II_amb = _curvature_at(D, x)
    reduced = F.reduced or F.pure_second_order
    n_last = 4
    ts = [1.0]
    while ts[-1] < t_max:
        ts.append(min(2.0 * ts[-1], t_max))

    def verdict_at(lam: float) -> bool:
        for t in ts[-n_last:]:
            A = t * np.outer(nu, nu) + II_amb
            J = Jet(lam, nu, A)
            if not asymptotic_interior_member(F, J, x=x):
                return False
        return True

    if reduced:
        per_lam = (verdict_at(0.0),) * len(grid)
    else:
        per_lam = tuple(verdict_at(lam) for lam in grid)
    overall = all(per_lam)
    return ConvexityVerdict(x, grid, per_lam, overall, float(np.trace(II)),
                            float(eigvalsh_batch(II[None])[0, 0]))


def tangent_trace_test(D: DomainSpec, x, frames: np.ndarray) -> bool:
    """Direct geometric criterion: tr_W II > 1e-9 over tangent plane samples.

    ``frames`` stacks orthonormal (n, p) frames; each is projected to the
    tangent space at x and re-orthonormalized, dropping frames that collapse.
    """
    x, nu, _, II_amb = _curvature_at(D, x)
    P = np.eye(D.n) - np.outer(nu, nu)
    ok = True
    found = 0
    for W in frames:
        Wt = P @ W
        q, r = np.linalg.qr(Wt)
        if np.abs(np.diag(r)).min() < 1e-8:
            continue                # frame had no tangent representative
        found += 1
        tr = float(np.einsum("ip,ij,jp->", q, II_amb, q))
        if tr <= 1e-9:
            ok = False
    if found == 0:
        raise GeometryError("no tangent planes among the sampled frames")
    return ok
