"""Hyperbolic-polynomial eigenvalues and their branch subequations.

A degree-m homogeneous polynomial Q on symmetric matrices, normalized to
Q(I) = 1, is hyperbolic in the direction of the identity when every
restriction q_A(t) = Q(tI + A) has m real roots.  The negated roots, in
ascending order, act as generalized eigenvalues: shift-covariant, monotone
under the principal-branch cone, and defining m branch subequations.

Root extraction is interpolation-based: q_A is sampled at Chebyshev nodes of
an interval certain to contain the roots, fitted exactly (degree m), and the
fit's companion roots are tested for realness.  Registered families (det,
elementary symmetric functions) get closed-form coefficient fast paths that
the tests cross-check against the generic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import ConfigError, NotHyperbolicError
from .core import Subequation
from .linalg import _as_dense, esym_batch

_IMAG_TOL = 1e-6
_RECON_TOL = 1e-8


def _imag_tol(m: int) -> float:
    """Realness tolerance for companion roots of a degree-m restriction.

    An m-fold real root perturbed at coefficient level eps splits into a
    cluster with imaginary parts of order eps**(1/m), so a fixed cutoff
    rejects legitimate repeated spectra (e.g. any Q at the identity).  The
    product-reconstruction test stays the sharp gate: symmetric functions of
    the cluster agree with the coefficients to O(eps**(2/m)), while genuinely
    complex pairs break it at first order.
    """
    return max(_IMAG_TOL, 10.0 ** (-14.0 / max(m, 1)))


@dataclass(frozen=True)
class HyperbolicPolynomial:
    """Normalized (Q(I) = 1) candidate hyperbolic polynomial of degree m."""

    m: int
    n: int
    eval_fn: Callable[[np.ndarray], float]
    label: str = "Q"
    kind: Optional[tuple] = None    # ("det",) or ("sigma", k) fast paths

    def __call__(self, A) -> float:
        return float(self.eval_fn(_as_dense(A)))

    @classmethod
    def from_callable(cls, m: int, n: int, raw: Callable, label: str = "Q",
                      kind: Optional[tuple] = None,
                      check_homogeneity: bool = True) -> "HyperbolicPolynomial":
        if m < 1 or n < 1:
            raise ConfigError(f"bad degree/dimension m={m}, n={n}")
        qI = float(raw(np.eye(n)))
        if abs(qI) < 1e-300:
            raise NotHyperbolicError(f"{label}: Q(I) = 0, cannot normalize")
        fn = (lambda A, _r=raw, _c=qI: float(_r(A)) / _c)
        Q = cls(m, n, fn, label=label, kind=kind)
        assert abs(Q(np.eye(n)) - 1.0) <= 1e-12
        if check_homogeneity:
            rng = np.random.default_rng(7)
            for _ in range(3):
                B = rng.standard_normal((n, n))
                A = 0.5 * (B + B.T)
                qA = Q(A)
                for t in (2.0, 1.0 / 3.0):
                    want = t ** m * qA
                    got = Q(t * A)
                    if abs(got - want) > 1e-9 * (1.0 + abs(want)):
                        raise ConfigError(
                            f"{label}: not homogeneous of degree {m} "
                            f"(t={t}: {got} vs {want})")
        return Q


def named_polynomial(name: str, n: int) -> HyperbolicPolynomial:
    """Registry: "det" and "sigma:k" (elementary symmetric of the spectrum)."""
    if name == "det":
        return HyperbolicPolynomial.from_callable(
            n, n, lambda A: float(np.linalg.det(A)), label=f"det:n={n}",
            kind=("det",))
    if name.startswith("sigma:"):
        k = int(name.split(":", 1)[1])
        if not (1 <= k <= n):
            raise ConfigError(f"sigma:{k} out of range for n={n}")

        def raw(A, _k=k):
            return esym_batch(np.linalg.eigvalsh(A)[None], _k)[0, _k]

        return HyperbolicPolynomial.from_callable(
            k, n, raw, label=f"sigma:{k}:n={n}", kind=("sigma", k))
    raise ConfigError(f"unknown polynomial name {name!r}")


# ---------------------------------------------------------------------------
# the restriction q_A and its roots


def restriction_coefficients(Q: HyperbolicPolynomial, A) -> np.ndarray:
    """Monic coefficients (descending powers) of q_A(t) = Q(tI + A),
    by exact interpolation at m+1 Chebyshev nodes."""
    A = _as_dense(A)
    m = Q.m
    s = 1.0 + float(np.max(np.abs(np.linalg.eigvalsh(A))))
    nodes = s * np.cos(np.pi * (np.arange(m + 1) + 0.5) / (m + 1))
    vals = np.array([Q(t * np.eye(Q.n) + A) for t in nodes])
    series = _cheb.chebfit(nodes, vals, m)
    poly = _cheb.cheb2poly(series)          # ascending powers
    lead = poly[-1]
    if abs(lead - 1.0) > 1e-6:
        raise NotHyperbolicError(
            f"{Q.label}: leading coefficient {lead:.3g} != 1; "
            "degree or normalization mismatch")
    return poly[::-1] / lead


def garding_eigenvalues(Q: HyperbolicPolynomial, A) -> np.ndarray:
    """Ascending generalized eigenvalues of A: negatives of the roots of q_A.

    Raises :class:`NotHyperbolicError` when a root strays off the real axis
    beyond |Im| <= 1e-6 (1 + |root|), or when the product form fails to
    reconstruct q_A.
    """
    A = _as_dense(A)
    if Q.kind is not None:
        return eigenvalues_batch(Q, np.asarray(A, dtype=float)[None])[0]
    coeffs = restriction_coefficients(Q, A)
    roots = np.roots(coeffs)
    bad = np.abs(roots.imag) > _imag_tol(Q.m) * (1.0 + np.abs(roots))
    if np.any(bad):
        worst = roots[np.argmax(np.abs(roots.imag))]
        raise NotHyperbolicError(
            f"{Q.label}: complex root {worst:.6g} at this matrix")
    lam = np.sort(-roots.real)
    s = 1.0 + float(np.max(np.abs(np.linalg.eigvalsh(A))))
    ts = np.linspace(-s, s, 5)
    for t in ts:
        direct = Q(t * np.eye(Q.n) + A)
        recon = float(np.prod(t + lam))
        if abs(direct - recon) > _RECON_TOL * (1.0 + abs(direct) + abs(recon)):
            raise NotHyperbolicError(
                f"{Q.label}: product reconstruction off by "
                f"{abs(direct - recon):.3g} at t={t:.3g}")
    return lam


@dataclass
class HyperbolicityReport:
    label: str
    trials: int
    failures: int
    witness: Optional[list] = None
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def to_json_dict(self) -> dict:
        d = {"label": self.label, "trials": self.trials,
             "failures": self.failures, "detail": self.detail}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


def hyperbolicity_check(Q: HyperbolicPolynomial, trials: int = 200,
                        seed: int = 0, scale: float = 3.0) -> HyperbolicityReport:
    """Sample random symmetric matrices and count non-real root events."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    failures = 0
    witness = None
    detail = ""
    for _ in range(trials):
        B = rng.uniform(-scale, scale, (Q.n, Q.n))
        A = 0.5 * (B + B.T)
        try:
            garding_eigenvalues(Q, A)
        except NotHyperbolicError as exc:
            failures += 1
            if witness is None:
                witness = A.tolist()
                detail = str(exc)
    return HyperbolicityReport(Q.label, trials, failures, witness, detail)


# ---------------------------------------------------------------------------
# batch eigenvalue paths for the branch subequations


def _sigma_eigen_batch(A: np.ndarray, n: int, m: int) -> np.ndarray:
    """All m generalized eigenvalues for Q = sigma_m / binom(n,m), batched.

    Uses sigma_m(A + tI) = sum_j binom(n-j, m-j) sigma_j(A) t^{m-j}, which
    turns the restriction into explicit monic coefficients.
    """
    w = np.linalg.eigvalsh(A)
    e = esym_batch(w, m)
    denom = math.comb(n, m)
    # c[:, j] multiplies t^(m-j);  c[:, 0] = 1
    c = np.stack([math.comb(n - j, m - j) / denom * e[:, j]
                  for j in range(m + 1)], axis=1)
    N = len(c)
    if m == 1:
        return c[:, 1:2]
    if m == 2:
        half = 0.5 * c[:, 1]
        disc = np.clip(half ** 2 - c[:, 2], 0.0, None)
        d = np.sqrt(disc)
        return np.stack([half - d, half + d], axis=1)
    out = np.empty((N, m))
    tol = _imag_tol(m)
    for i in range(N):
        roots = np.roots(c[i])
        bad = np.abs(roots.imag) > tol * (1.0 + np.abs(roots))
        if np.any(bad):
            raise NotHyperbolicError("sigma restriction produced complex roots")
        out[i] = np.sort(-roots.real)
    return out


def eigenvalues_batch(Q: HyperbolicPolynomial, A: np.ndarray) -> np.ndarray:
    """(N, m) ascending generalized eigenvalues; fast paths when registered."""
    A = np.asarray(A, dtype=float)
    if Q.kind is not None and Q.kind[0] == "det":
        return np.linalg.eigvalsh(A)
    if Q.kind is not None and Q.kind[0] == "sigma":
        return _sigma_eigen_batch(A, Q.n, Q.kind[1])
    out = np.empty((len(A), Q.m))
    for i in range(len(A)):
        out[i] = garding_eigenvalues(Q, A[i])
    return out


def branch_subequation(Q: HyperbolicPolynomial, k: int) -> Subequation:
    """Branch {k-th generalized eigenvalue >= 0}; k = 1 is the convex
    principal cone containing the identity."""
    if not (1 <= k <= Q.m):
        raise ConfigError(f"branch index k={k} out of range 1..{Q.m}")

    def rho(r, p, A, _Q=Q, _i=k - 1):
        return eigenvalues_batch(_Q, A)[:, _i]

    return Subequation(Q.n, rho, f"garding({Q.label}):k={k}",
                       pure_second_order=True, reduced=True, cone=True)


def garding_cone(Q: HyperbolicPolynomial) -> Subequation:
    return branch_subequation(Q, 1)
