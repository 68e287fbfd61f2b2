"""Affine automorphisms of jet space and transformed subequations.

A map acts on 2-jets by

    Psi(r, p, A) = (r, g p, h A h^t + L(p)) + S

with g, h invertible, L linear from vectors into symmetric matrices, and S a
jet-valued translation.  Any of the four fields may depend on the base point
x, in which case it is supplied as a batch-aware callback (x of shape (N, n)
in, stacked field values out).  These maps form a group; composing, inverting
and pushing subequations through them is exact linear algebra.

Transformed sets satisfy rho'(x, J) = rho(x, Psi^{-1} J), so the constraint
set is Psi(F).  The companion identity used in the duality tests:
the dual of Psi(F) is the linear part applied to dual(F), translated by -S.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Union

import numpy as np

from .errors import ConfigError, DimensionMismatch
from .core import Jet, Subequation
from .catalog import make_branch
from .linalg import _as_dense, ComplexStructure, field_eigvalsh_batch

MatField = Union[np.ndarray, Callable]      # (n,n) or x->(N,n,n)
TenField = Union[np.ndarray, Callable]      # (n,n,n) or x->(N,n,n,n)
JetField = Union[tuple, Callable]           # (r, p(n,), A(n,n)) or x->triple


def _sym_tensor(L: np.ndarray, n: int) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if L.shape != (n, n, n):
        raise DimensionMismatch(f"L tensor shape {L.shape}, want {(n, n, n)}")
    return 0.5 * (L + np.swapaxes(L, 1, 2))


@dataclass(frozen=True)
class AffineJetMap:
    n: int
    g: MatField
    h: MatField
    L: TenField
    S: JetField
    label: str = "psi"

    @property
    def x_dependent(self) -> bool:
        return any(callable(f) for f in (self.g, self.h, self.L, self.S))

    @classmethod
    def identity(cls, n: int) -> "AffineJetMap":
        return cls.linear(np.eye(n), np.eye(n), label="id")

    @classmethod
    def linear(cls, g, h, L=None, label: str = "phi") -> "AffineJetMap":
        g = np.asarray(g, dtype=float)
        n = g.shape[0]
        if L is None:
            L = np.zeros((n, n, n))
        return cls(n, g, np.asarray(h, dtype=float), _sym_tensor(L, n),
                   (0.0, np.zeros(n), np.zeros((n, n))), label=label)

    @classmethod
    def translation(cls, S, n: Optional[int] = None,
                    label: str = "shift") -> "AffineJetMap":
        if not callable(S):
            r0, p0, A0 = S
            p0 = np.asarray(p0, dtype=float)
            n = n or len(p0)
            S = (float(r0), p0, _as_dense(A0))
        elif n is None:
            raise ConfigError("x-dependent translation needs explicit n")
        return cls(n, np.eye(n), np.eye(n), np.zeros((n, n, n)), S, label=label)

    def condition(self, x=None) -> dict:
        g, h = self._gh(x)
        return {"cond_g": float(np.linalg.cond(g[0])),
                "cond_h": float(np.linalg.cond(h[0]))}

    # -- field resolution to batch arrays -----------------------------------

    def _gh(self, x, N: int = 1):
        g = self.g(x) if callable(self.g) else np.broadcast_to(self.g, (N, self.n, self.n))
        h = self.h(x) if callable(self.h) else np.broadcast_to(self.h, (N, self.n, self.n))
        return np.asarray(g, dtype=float), np.asarray(h, dtype=float)

    def _Lten(self, x, N: int = 1):
        if callable(self.L):
            return np.asarray(self.L(x), dtype=float)
        return np.broadcast_to(self.L, (N, self.n, self.n, self.n))

    def _Sjet(self, x, N: int = 1):
        if callable(self.S):
            r0, p0, A0 = self.S(x)
            return (np.asarray(r0, dtype=float), np.asarray(p0, dtype=float),
                    np.asarray(A0, dtype=float))
        r0, p0, A0 = self.S
        return (np.broadcast_to(r0, (N,)), np.broadcast_to(p0, (N, self.n)),
                np.broadcast_to(A0, (N, self.n, self.n)))


def apply_batch(Psi: AffineJetMap, r, p, A, x=None):
    """Push a batch of jets through the map; returns (r, p, A) arrays."""
    r = np.asarray(r, dtype=float)
    p = np.asarray(p, dtype=float)
    A = np.asarray(A, dtype=float)
    N = len(r)
    if Psi.x_dependent and x is None:
        raise ConfigError(f"{Psi.label} is x-dependent; base points required")
    g, h = Psi._gh(x, N)
    L = Psi._Lten(x, N)
    r0, p0, A0 = Psi._Sjet(x, N)
    p_out = np.einsum("nij,nj->ni", g, p)
    A_out = (np.einsum("nij,njk,nlk->nil", h, A, h)
             + np.einsum("niab,ni->nab", L, p))
    return r + r0, p_out + p0, A_out + A0


def apply(Psi: AffineJetMap, x, J: Jet) -> Jet:
    """Image of a single jet (x ignored by constant-coefficient maps)."""
    xb = None if x is None else np.asarray(x, dtype=float)[None, :]
    r, p, A = apply_batch(Psi, np.array([J.r]), J.p[None, :],
                          J.A[None, :, :], x=xb)
    return Jet(float(r[0]), p[0], 0.5 * (A[0] + A[0].T))


def _field(fn: Callable, x_dependent: bool):
    """A map field from its batched formula fn(x, N): a callback of x when
    x_dependent, else the constant value of fn at N = 1."""
    if x_dependent:
        return lambda x: fn(x, len(np.atleast_2d(x)))
    out = fn(None, 1)
    if isinstance(out, tuple):                  # a translation jet
        return float(out[0][0]), out[1][0], out[2][0]
    return out[0]


def _inv(M: np.ndarray, label: str) -> np.ndarray:
    try:
        return np.linalg.inv(M)
    except np.linalg.LinAlgError as exc:
        raise ConfigError(f"{label}: singular g or h") from exc


def compose(P2: AffineJetMap, P1: AffineJetMap) -> AffineJetMap:
    """compose(P2, P1) acts as P2 after P1."""
    if P2.n != P1.n:
        raise DimensionMismatch("composing maps of different dimension")

    def g(x, N):
        return np.einsum("nij,njk->nik", P2._gh(x, N)[0], P1._gh(x, N)[0])

    def h(x, N):
        return np.einsum("nij,njk->nik", P2._gh(x, N)[1], P1._gh(x, N)[1])

    def L(x, N):
        # composed linear fill-in: conjugate the inner one, chain the outer
        h2, g1 = P2._gh(x, N)[1], P1._gh(x, N)[0]
        return (np.einsum("nab,nibc,ndc->niad", h2, P1._Lten(x, N), h2)
                + np.einsum("njab,nji->niab", P2._Lten(x, N), g1))

    def S(x, N):
        g2, h2 = P2._gh(x, N)
        r1, p1, A1 = P1._Sjet(x, N)
        r2, p2, A2 = P2._Sjet(x, N)
        return (r1 + r2, np.einsum("nij,nj->ni", g2, p1) + p2,
                np.einsum("nij,njk,nlk->nil", h2, A1, h2)
                + np.einsum("niab,ni->nab", P2._Lten(x, N), p1) + A2)

    dep = P2.x_dependent or P1.x_dependent
    return AffineJetMap(P1.n, *(_field(f, dep) for f in (g, h, L, S)),
                        label=f"{P2.label}*{P1.label}")


def invert(P: AffineJetMap) -> AffineJetMap:
    def g(x, N):
        return _inv(P._gh(x, N)[0], P.label)

    def h(x, N):
        return _inv(P._gh(x, N)[1], P.label)

    def L(x, N):
        hi = h(x, N)
        Lg = np.einsum("njab,nji->niab", P._Lten(x, N), g(x, N))
        return -np.einsum("nab,nibc,ndc->niad", hi, Lg, hi)

    def S(x, N):
        hi = h(x, N)
        r1, p1, A1 = P._Sjet(x, N)
        return (-r1, -np.einsum("nij,nj->ni", g(x, N), p1),
                -(np.einsum("nij,njk,nlk->nil", hi, A1, hi)
                  + np.einsum("niab,ni->nab", L(x, N), p1)))

    return AffineJetMap(P.n, *(_field(f, P.x_dependent) for f in (g, h, L, S)),
                        label=f"{P.label}^-1")


def linear_part(P: AffineJetMap) -> AffineJetMap:
    def zero(x, N):
        return np.zeros(N), np.zeros((N, P.n)), np.zeros((N, P.n, P.n))
    return replace(P, S=_field(zero, callable(P.S)), label=f"lin({P.label})")


def negate_translation(P: AffineJetMap) -> AffineJetMap:
    """Same linear part, translation flipped to -S."""
    def S(x, N):
        return tuple(-v for v in P._Sjet(x, N))
    return replace(P, S=_field(S, callable(P.S)), label=f"{P.label}(-S)")


# ---------------------------------------------------------------------------
# pushing subequations through maps


def _is_zero_tensor(L) -> bool:
    return (not callable(L)) and np.all(np.asarray(L) == 0.0)


def _is_zero_translation(S) -> bool:
    if callable(S):
        return False
    r0, p0, A0 = S
    return float(r0) == 0.0 and np.all(np.asarray(p0) == 0.0) \
        and np.all(np.asarray(A0) == 0.0)


def transform_subequation(F: Subequation, Psi: AffineJetMap) -> Subequation:
    """The image set Psi(F): membership of J tests F at Psi^{-1}(J).

    Flags are recomputed conservatively: properties are kept only when the
    map provably preserves them (no gradient fill-in for pure second-order,
    no translation for the cone property).  A linear congruence image
    A -> h A h^t of a spectral set whose f is nondecreasing (the attribute
    ``nondecreasing`` of f, set by ``catalog._spectral_entry``) carries a
    spectral bound (:func:`_congruence_bound`); other images carry none.
    """
    if F.n != Psi.n:
        raise DimensionMismatch("map and subequation dimensions differ")
    inv = invert(Psi)
    base = F.rho_batch
    x_dep = F.x_dependent or Psi.x_dependent

    def rho(r, p, A, *x):
        rr, pp, AA = apply_batch(inv, r, p, A, *x)
        return base(rr, pp, AA, *(x if F.x_dependent else ()))

    pso = F.pure_second_order and _is_zero_tensor(Psi.L)
    cone = F.cone and _is_zero_translation(Psi.S) and not Psi.x_dependent
    bound = None
    if (getattr(F.spectral, "nondecreasing", False) and pso and not x_dep
            and _is_zero_translation(Psi.S)):
        bound = _congruence_bound(F.spectral, inv.h)
    return Subequation(F.n, rho, f"{Psi.label}({F.label})",
                       pure_second_order=pso, reduced=F.reduced,
                       cone=cone, x_dependent=x_dep, spectral_bound=bound)


def _congruence_bound(f: Callable, k: np.ndarray) -> Callable:
    """Spectral bound of the set A -> f(lam(k A k^t)), f nondecreasing:
    u(lam) = f(phi(lam)) with phi(t) = s_max^2 t for t >= 0 and
    s_min^2 t for t < 0, s the singular values of k.

    Proof: by Ostrowski's quantitative law of inertia (PNAS 1959), the
    i-th ascending eigenvalue of k A k^t is theta_i lam_i with theta_i
    between s_min^2 and s_max^2, so it is at most phi(lam_i).  phi is
    increasing, so phi(lam) is ascending, and f nondecreasing gives
    f(lam(k A k^t)) <= f(phi(lam))."""
    s = np.linalg.svd(k, compute_uv=False)
    hi, lo = float(s[0]) ** 2, float(s[-1]) ** 2

    def bound(lam):
        return f(np.where(lam >= 0, hi * lam, lo * lam))
    return bound


# ---------------------------------------------------------------------------
# stock constructions


def inhom_branch(k: int, n: int, f: Callable) -> Subequation:
    """Constraint set whose boundary is {k-th Hessian eigenvalue = f(x)}.

    ``f`` takes batched base points (N, n) and returns (N,).  Built as a
    translate of the homogeneous branch by (0, 0, f(x) Id).
    """
    def S(x, N):
        fx = np.asarray(f(np.atleast_2d(np.asarray(x, dtype=float))),
                        dtype=float)
        return np.zeros(N), np.zeros((N, n)), fx[:, None, None] * np.eye(n)

    Psi = AffineJetMap.translation(_field(S, True), n=n,
                                   label=f"inhom:k={k}")
    return transform_subequation(make_branch("real", k, n), Psi)


def calabi_yau_map(h: Union[float, Callable], n: int) -> AffineJetMap:
    """(r, p, A) -> (r, p, h^2 A + (h^2 - 1) I), with h scalar or a field."""
    if not callable(h) and float(h) == 0.0:
        raise ConfigError("conformal factor h must be nonzero")

    def hv(x, N):
        if callable(h):
            return np.asarray(h(np.atleast_2d(np.asarray(x, dtype=float))),
                              dtype=float)
        return np.full(N, float(h))

    def h_mat(x, N):
        return hv(x, N)[:, None, None] * np.eye(n)[None, :, :]

    def S(x, N):
        A0 = (hv(x, N) ** 2 - 1.0)[:, None, None] * np.eye(n)[None, :, :]
        return np.zeros(N), np.zeros((N, n)), A0

    return AffineJetMap(n, np.eye(n), _field(h_mat, callable(h)),
                        np.zeros((n, n, n)), _field(S, callable(h)),
                        label="cy-map")


def complex_calabi_yau(m: int) -> Subequation:
    """Determinant-form constraint on R^{2m}: the hermitian part of A plus
    the identity must be positive with complex determinant at least one."""
    structure = ComplexStructure.standard_complex(m)

    def rho(r, p, A, _s=structure):
        mu = field_eigvalsh_batch(A, _s) + 1.0
        return np.minimum(mu[:, 0], mu.prod(axis=1) - 1.0)

    return Subequation(structure.dim, rho, f"cy-complex:n={m}")
