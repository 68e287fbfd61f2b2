"""Hyperbolic-polynomial eigenvalues and their branch subequations.

A degree-m homogeneous polynomial Q on symmetric matrices, normalized to
Q(I) = 1, is hyperbolic in the direction of the identity when every
restriction q_A(t) = Q(tI + A) has m real roots.  The negated roots, in
ascending order, act as generalized eigenvalues: shift-covariant, monotone
under the principal-branch cone, and defining m branch subequations.

Root extraction is interpolation-based: q_A is sampled at Chebyshev nodes of
an interval certain to contain the roots, fitted exactly (degree m), and the
fit's companion roots are tested for realness.  The named polynomials (det,
elementary symmetric functions) are functions of the spectrum of A, so they
carry a root map from the ascending eigenvalues to the ascending Gårding
eigenvalues instead; the tests cross-check it against the generic route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import chebyshev as _cheb

from .errors import ConfigError, NotHyperbolicError
from .core import Subequation
from .catalog import _spectral_entry
from .linalg import _as_dense, eigvalsh_batch, esym_batch, poly_roots_batch

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
    # ascending eigenvalues (N, n) -> ascending Garding eigenvalues (N, m);
    # set by named_polynomial, None for the generic interpolation route
    root_map: Optional[Callable] = None

    def __call__(self, A) -> float:
        return float(self.eval_fn(_as_dense(A)))

    @classmethod
    def from_callable(cls, m: int, n: int, raw: Callable, label: str = "Q",
                      check_homogeneity: bool = True) -> "HyperbolicPolynomial":
        if m < 1 or n < 1:
            raise ConfigError(f"bad degree/dimension m={m}, n={n}")
        qI = float(raw(np.eye(n)))
        if abs(qI) < 1e-300:
            raise NotHyperbolicError(f"{label}: Q(I) = 0, cannot normalize")
        fn = (lambda A, _r=raw, _c=qI: float(_r(A)) / _c)
        Q = cls(m, n, fn, label=label)
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
        m = n
        raw = lambda A: float(np.linalg.det(A))
        label = f"det:n={n}"
    elif name.startswith("sigma:"):
        m = int(name.split(":", 1)[1])
        if not (1 <= m <= n):
            raise ConfigError(f"sigma:{m} out of range for n={n}")

        def raw(A, _m=m):
            return esym_batch(eigvalsh_batch(A[None]), _m)[0, _m]
        label = f"sigma:{m}:n={n}"
    else:
        raise ConfigError(f"unknown polynomial name {name!r}")
    Q = HyperbolicPolynomial.from_callable(m, n, raw, label=label)
    # sigma_n = det: the Garding eigenvalues are the eigenvalues
    return replace(Q, root_map=(lambda eigs: eigs) if m == n
                   else _sigma_root_map(n, m, label))


def _sigma_root_map(n: int, m: int, label: str) -> Callable:
    """Root map of Q = sigma_m / binom(n, m), m < n.

    sigma_m(A + tI) = sum_j binom(n-j, m-j) sigma_j(A) t^{m-j} turns the
    restriction into explicit monic coefficients; their roots are closed
    form for m = 2 and companion eigenvalues otherwise (for m = 1 the 1x1
    companion matrix gives the root exactly).
    """
    # weights[j] multiplies sigma_j, the coefficient of t^(m-j)
    weights = np.array([math.comb(n - j, m - j) / math.comb(n, m)
                        for j in range(m + 1)])

    def roots(eigs):
        c = esym_batch(eigs, m) * weights
        if m == 2:
            half = 0.5 * c[:, 1]
            d = np.sqrt(np.clip(half ** 2 - c[:, 2], 0.0, None))
            return np.stack([half - d, half + d], axis=1)
        return _negated_real_roots(c, label)

    return roots


def _negated_real_roots(c: np.ndarray, label: str) -> np.ndarray:
    """Ascending negated roots of the monic rows of c (N, m+1); raises
    :class:`NotHyperbolicError` when a root strays off the real axis."""
    roots = poly_roots_batch(c)
    tol = _imag_tol(c.shape[1] - 1)
    bad = np.abs(roots.imag) > tol * (1.0 + np.abs(roots))
    if np.any(bad):
        worst = roots.flat[np.argmax(np.abs(roots.imag))]
        raise NotHyperbolicError(f"{label}: complex root {worst:.6g}")
    return np.sort(-roots.real, axis=1)


# ---------------------------------------------------------------------------
# the restriction q_A and its roots


def restriction_coefficients(Q: HyperbolicPolynomial, A) -> np.ndarray:
    """Monic coefficients (descending powers) of q_A(t) = Q(tI + A),
    by exact interpolation at m+1 Chebyshev nodes."""
    A = _as_dense(A)
    m = Q.m
    s = 1.0 + float(np.max(np.abs(eigvalsh_batch(A[None]))))
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

    Polynomials without a root map raise :class:`NotHyperbolicError` when a
    root strays off the real axis beyond the realness tolerance, or when
    the product form fails to reconstruct q_A.
    """
    A = _as_dense(A)
    if Q.root_map is not None:
        return eigenvalues_batch(Q, A[None])[0]
    lam = _negated_real_roots(restriction_coefficients(Q, A)[None], Q.label)[0]
    # reconstruct q_A on an interval holding every root
    s = 1.0 + float(np.max(np.abs(lam)))
    for t in np.linspace(-s, s, 5):
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
                        seed: int = 0) -> HyperbolicityReport:
    """Sample random symmetric matrices, the symmetric parts of matrices
    with entries uniform in [-3, 3], and count non-real root events."""
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    B = rng.uniform(-3.0, 3.0, (trials, Q.n, Q.n))
    mats = 0.5 * (B + np.swapaxes(B, 1, 2))
    if Q.root_map is not None:
        try:
            eigenvalues_batch(Q, mats)
            return HyperbolicityReport(Q.label, trials, 0)
        except NotHyperbolicError:
            pass        # some trial failed: the loop below finds which
    failures = 0
    witness = None
    detail = ""
    for A in mats:
        try:
            garding_eigenvalues(Q, A)
        except NotHyperbolicError as exc:
            failures += 1
            if witness is None:
                witness = A.tolist()
                detail = str(exc)
    return HyperbolicityReport(Q.label, trials, failures, witness, detail)


# ---------------------------------------------------------------------------
# batch eigenvalues and the branch subequations


def eigenvalues_batch(Q: HyperbolicPolynomial, A: np.ndarray) -> np.ndarray:
    """(N, m) ascending generalized eigenvalues of a stack (N, n, n)."""
    A = np.asarray(A, dtype=float)
    if Q.root_map is not None:
        return Q.root_map(eigvalsh_batch(A))
    out = np.empty((len(A), Q.m))
    for i in range(len(A)):
        out[i] = garding_eigenvalues(Q, A[i])
    return out


def branch_subequation(Q: HyperbolicPolynomial, k: int) -> Subequation:
    """Branch {k-th generalized eigenvalue >= 0}; k = 1 is the convex
    principal cone containing the identity.  A root map makes it a
    spectral catalog entry: for det and sigma_n, ``branch:real:k``."""
    if not (1 <= k <= Q.m):
        raise ConfigError(f"branch index k={k} out of range 1..{Q.m}")
    label = f"garding({Q.label}):k={k}"
    if Q.root_map is not None:
        return _spectral_entry(
            Q.n, lambda eigs, _r=Q.root_map, _i=k - 1: _r(eigs)[:, _i], label)

    def rho(r, p, A, _Q=Q, _i=k - 1):
        return eigenvalues_batch(_Q, A)[:, _i]

    return Subequation(Q.n, rho, label,
                       pure_second_order=True, reduced=True, cone=True)


def garding_cone(Q: HyperbolicPolynomial) -> Subequation:
    return branch_subequation(Q, 1)
