"""Constructors for the named subequations and monotonicity cones.

Every entry authors its defining function so that the represented closed set
is {rho >= 0} and the interior is {rho > 0} (the registration contract).
Ordered spectra come from ``linalg.eigvalsh_batch``, and the complex and
quaternionic field spectra from ``linalg.field_eigvalsh_batch``; only appb
case 5, which also needs eigenvectors, calls ``np.linalg.eigh``.  The
O(n)-invariant entries (real branches, pcone, pbranch, pucci, delta,
deltabranch, sigma, slag) are stated once, as a function f of the ascending
spectrum, through ``_spectral_entry``; laplace keeps its trace and states
the spectral sum.  That f is all the solver's node update
(``Subequation.on_line``) and the sampler need of them.  klap and cy carry
their own line restriction (``Subequation.line``): klap's affine form and
cy's one eigensolve.  geom with line frames in 2-D and 3-D and the complex
and quaternionic branches are not spectral but carry a
``Subequation.spectral_bound``, an upper bound of rho over the rotations of
a spectrum, on which ``core.sample_members`` rejects spectra before it
rotates them.

Known caveat, documented once here: the k-Laplacian entries use the raw
polynomial rho = |p|^2 tr A + (k-2) p^t A p, which vanishes identically on
the degenerate fiber p = 0.  On that fiber {rho >= 0} is a proper superset
of the closure of {rho > 0}; everywhere else the contract holds.  There the
grid solver takes the neighbour maximum, its generic rule for any fiber that
never exits (``solver._NodeUpdater.solve``), not a rule of its own.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .errors import ConfigError, DimensionMismatch, GeometryError
from .core import Subequation, _ball, _haar_psd, _unit_sphere_qmc
from .linalg import (ComplexStructure, eigvalsh_batch, esym_batch,
                     field_eigvalsh_batch)


def _as_batch(A) -> np.ndarray:
    return np.asarray(A, dtype=float)


def _trace(A) -> np.ndarray:
    return np.einsum("nii->n", _as_batch(A))


def _spectral_entry(n: int, f, label: str, cone: bool = True,
                    nondecreasing: bool = False) -> Subequation:
    """Pure second-order, O(n)-invariant entry given by f on the ascending
    spectrum, (N, n) -> (N,): rho_batch is f(eigvalsh_batch(A)), and f is
    kept as ``spectral``, the exact bound of the spectrum-first draws of
    ``core.sample_members`` and the solver's one-eigensolve node update.

    ``nondecreasing`` states that f(mu) <= f(nu) whenever mu <= nu entry
    by entry; it is kept as f's attribute of that name, from which
    ``jetmaps.transform_subequation`` bounds congruence images."""
    def rho(r, p, A):
        return f(eigvalsh_batch(A))
    if nondecreasing:
        f.nondecreasing = True
    return Subequation(n, rho, label, pure_second_order=True, reduced=True,
                       cone=cone, spectral=f)


# ---------------------------------------------------------------------------
# plane families and directional cones


@dataclass(frozen=True)
class GrassmannSet:
    """Finite list of orthonormal p-frames standing in for a compact family
    of p-planes.  A finite min is an outer approximation of the full set's
    subequation: the represented constraint set can only get larger.
    """

    p: int
    frames: tuple  # of (n, p) arrays with orthonormal columns

    def __post_init__(self):
        if not self.frames:
            raise GeometryError("empty frame list")
        fr = tuple(np.asarray(W, dtype=float) for W in self.frames)
        n = fr[0].shape[0]
        for W in fr:
            if W.shape != (n, self.p):
                raise DimensionMismatch(f"frame shape {W.shape}, want ({n},{self.p})")
            G = W.T @ W
            if np.max(np.abs(G - np.eye(self.p))) > 1e-10:
                raise GeometryError("frame not orthonormal to 1e-10")
        object.__setattr__(self, "frames", fr)

    @property
    def n(self) -> int:
        return self.frames[0].shape[0]

    @property
    def stack(self) -> np.ndarray:
        return np.stack(self.frames)  # (F, n, p)

    @functools.cached_property
    def line_radius(self) -> float:
        """For line frames (p = 1) in n = 2 or 3, an upper bound of their
        covering radius (:func:`_line_cover_radius`); computed on first
        use."""
        return _line_cover_radius(self.stack[:, :, 0])


# rows per block of the covering-radius search: bounds its (rows, frames)
# temporary to 1 MB at 256 frames
_COVER_ROWS = 512
_COVER_TOL = 1e-3


def _line_cover_radius(W: np.ndarray) -> float:
    """An upper bound theta of the covering radius of the lines through
    the unit rows of W (F, n), n = 2 or 3: every unit v lies within angle
    theta of w or -w for some row w.

    n = 2: half the largest gap between the lines' angles mod pi, plus
    1e-12 for their rounding.

    n = 3: theta exceeds the covering radius by at most ``_COVER_TOL``.
    The angle d(v) from v to the nearest line is 1-Lipschitz on the
    sphere.  The hemisphere z >= 0 meets every line; a cell of it of
    widths dt in polar angle and df in azimuth lies within dt/2 +
    sin(tc) df/2 of its centre at polar angle tc (along the meridian, then
    along the circle of latitude tc, whose arc is at least the great-circle
    distance), so d <= d(centre) + that radius on the whole cell.  From
    8 x 32 cells on, each cell whose bound exceeds L + tol/2, L the largest
    d at a centre so far, is split in four and the others are done; a
    cell's radius halves each round, so none is left once it is below
    tol/2.  Every point then has d <= L + tol/2, and theta = L + tol leaves
    tol/2 for the rounding of d (about 1e-15).  256 golden-angle lines take
    9,412 centres and 15 ms (shared 2-core x86 box).
    """
    if W.shape[1] == 2:
        ang = np.sort(np.arctan2(W[:, 1], W[:, 0]) % np.pi)
        return 0.5 * float(np.diff(ang, append=ang[0] + np.pi).max()) + 1e-12
    t, f = np.meshgrid((np.arange(8) + 0.5) * (np.pi / 16),
                       (np.arange(32) + 0.5) * (np.pi / 16), indexing="ij")
    t, f, dt, df = t.ravel(), f.ravel(), np.pi / 16, np.pi / 16
    L = 0.0
    while len(t):
        v = np.stack([np.sin(t) * np.cos(f), np.sin(t) * np.sin(f),
                      np.cos(t)], axis=1)
        d = np.empty(len(v))
        for i in range(0, len(v), _COVER_ROWS):
            dots = np.abs(v[i:i + _COVER_ROWS] @ W.T).max(axis=1)
            d[i:i + _COVER_ROWS] = np.arccos(np.minimum(dots, 1.0))
        L = max(L, float(d.max()))
        split = d + 0.5 * dt + 0.5 * np.sin(t) * df > L + 0.5 * _COVER_TOL
        t, f, dt, df = t[split], f[split], 0.5 * dt, 0.5 * df
        t = np.concatenate([t - 0.5 * dt, t - 0.5 * dt, t + 0.5 * dt,
                            t + 0.5 * dt])
        f = np.concatenate([f - 0.5 * df, f + 0.5 * df, f - 0.5 * df,
                            f + 0.5 * df])
    return L + _COVER_TOL


def grassmann_sample(p: int, n: int, count: int = 256) -> GrassmannSet:
    """Deterministic frame sample of the full Grassmannian G(p, R^n).

    Lines (p=1) get golden-angle samples of the (half-)sphere; general p
    takes the Q factor of each point of ``core._unit_sphere_qmc`` in n*p
    dimensions, read as an n x p matrix (the point's positive scale leaves
    Q as it is).  Same inputs, same frames, every run.
    """
    if not (1 <= p <= n):
        raise ConfigError(f"plane dimension {p} out of range for n={n}")
    if p == n:
        return GrassmannSet(p, (np.eye(n),))
    if p == 1 and n == 2:
        th = np.pi * (np.arange(count) + 0.5) / count
        frames = tuple(np.array([[np.cos(t)], [np.sin(t)]]) for t in th)
        return GrassmannSet(1, frames)
    if p == 1 and n == 3:
        # golden-angle spiral on the upper hemisphere (lines are antipodal)
        i = np.arange(count) + 0.5
        z = i / count
        phi = i * np.pi * (3.0 - np.sqrt(5.0))
        s = np.sqrt(1.0 - z ** 2)
        frames = tuple(
            np.array([[s[j] * np.cos(phi[j])], [s[j] * np.sin(phi[j])], [z[j]]])
            for j in range(count))
        return GrassmannSet(1, frames)
    Q, _ = np.linalg.qr(_unit_sphere_qmc(n * p, count).reshape(count, n, p))
    return GrassmannSet(p, tuple(Q[i] for i in range(count)))


@dataclass(frozen=True)
class DirectionalCone:
    """Round convex cone {p : <u, p> >= cos(theta) |p|} about a unit axis u
    with half-angle theta, built by :func:`circular_cone`.  Its margin
    <u, p> - cos(theta) |p| is exact.
    """

    axis: np.ndarray        # (n,) unit vector
    cos_half: float

    @property
    def n(self) -> int:
        return len(self.axis)

    def margin_batch(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        norms = np.linalg.norm(p, axis=-1)
        return p @ self.axis - self.cos_half * norms

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """Points of D with |p| <= 5, the ``JetBox`` p-radius (not uniform;
        full angular cover)."""
        th = np.arccos(np.clip(self.cos_half, -1, 1))
        u = self.axis
        n = self.n
        raw = rng.standard_normal((size, n))
        raw -= np.outer(raw @ u, u)
        nrm = np.linalg.norm(raw, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        perp = raw / nrm
        ang = th * rng.uniform(0.0, 1.0, size) ** (1.0 / max(n - 1, 1))
        dirs = np.cos(ang)[:, None] * u + np.sin(ang)[:, None] * perp
        r = 5.0 * rng.uniform(0.0, 1.0, size) ** (1.0 / self.n)
        return dirs * r[:, None]


def circular_cone(axis, half_angle: float) -> DirectionalCone:
    """Round cone about ``axis`` with the given half-angle (radians)."""
    u = np.asarray(axis, dtype=float)
    nu = np.linalg.norm(u)
    if nu < 1e-12:
        raise GeometryError("zero axis")
    u = u / nu
    if not (0 < half_angle < np.pi / 2):
        raise GeometryError("half-angle must lie in (0, pi/2)")
    return DirectionalCone(u, float(np.cos(half_angle)))


# ---------------------------------------------------------------------------
# branches of the Monge-Ampere operator over R, C, H


def make_branch(kind: str, k: int, n: int) -> Subequation:
    """Branch {k-th ordered eigenvalue >= 0} of det over the scalar field.

    ``n`` counts eigenvalues over the field; the ambient real dimension is
    n, 2n, 4n for kind real, complex, quaternionic.  Field eigenvalues are
    those of the hermitian symmetric part (``field_eigvalsh_batch``).
    """
    if not (1 <= k <= n):
        raise ConfigError(f"branch index k={k} out of range 1..{n}")
    if kind == "real":
        return _spectral_entry(n, lambda eigs, _i=k - 1: eigs[:, _i],
                               f"branch:real:k={k}:n={n}",
                               nondecreasing=True)
    if kind == "complex":
        structure = ComplexStructure.standard_complex(n)
    elif kind == "quaternionic":
        structure = ComplexStructure.standard_quaternionic(n)
    else:
        raise ConfigError(f"unknown branch kind {kind!r}")

    def rho(r, p, A, _s=structure, _i=k - 1):
        return field_eigvalsh_batch(A, _s)[:, _i]
    return Subequation(structure.dim, rho, f"branch:{kind}:k={k}:n={n}",
                       pure_second_order=True, reduced=True, cone=True,
                       spectral_bound=_field_branch_bound(structure, k))


def _field_branch_bound(structure: ComplexStructure, k: int):
    """Upper bound of the k-th field eigenvalue mu_k on the ascending real
    spectrum lam (N, D) of A.

    The hermitian part is H = (1/d) sum_t U_t^t A U_t over the d = 2 or 4
    orthogonal matrices U_t = I and the structure matrices, each term with
    A's spectrum, and mu_k is H's real eigenvalue of index j = d (k - 1)
    (0-based, ascending).  Two bounds, of which u takes the smaller:

    * Weyl's inequality lam_{a+b-D}(X + Y) <= lam_a(X) + lam_b(Y) (1-based,
      ascending), applied d - 1 times: mu_k <= (1/d) sum_t lam_{i_t} for
      every index tuple with sum_t (D - 1 - i_t) = D - 1 - j (0-based).
      For k = 1 the tuple (0, D - 1, ...) is the test vector bound
      (lam_1 + (d - 1) lam_max) / d.
    * The trace: by Ky Fan the sum of the j smallest eigenvalues is
      concave, so H's is at least A's, while tr H = tr A; hence the mean
      of H's eigenvalues from index j on, which is at least mu_k, is at
      most the mean of lam from index j on (for k = 1, tr A / D).
    """
    d = 1 + len(structure.mats)
    D, j = structure.dim, d * (k - 1)
    tuples = [[D - 1 - e for e in c] for c in
              itertools.combinations_with_replacement(range(D - j), d)
              if sum(c) == D - 1 - j]

    def bound(lam):
        weyl = functools.reduce(np.minimum, (sum(lam[:, i] for i in t)
                                             for t in tuples))
        return np.minimum(weyl / d, lam[:, j:].mean(axis=1))
    return bound


def make_pcone(p: float, n: int) -> Subequation:
    """Partial-trace cone: lowest floor(p) eigenvalues plus the fractional
    piece of the next one.  Integer p is the trace over the worst p-plane.

    The fractional index is read as floor(p)+1 (ascending order), the
    reading that matches the integer case on both sides.
    """
    if not (1 <= p <= n):
        raise ConfigError(f"p={p} out of range [1, {n}]")
    m = int(math.floor(p))
    frac = p - m

    def f(eigs):
        s = eigs[:, :m].sum(axis=1)
        if frac > 0:
            s = s + frac * eigs[:, m]
        return s

    return _spectral_entry(n, f, f"pcone:p={p:g}:n={n}", nondecreasing=True)


def make_pbranch(k: int, p: int, n: int) -> Subequation:
    """k-th branch of the p-plane trace operator: k-th smallest sum of p
    distinct eigenvalues (integer p only)."""
    if not (1 <= p <= n) or p != int(p):
        raise ConfigError(f"pbranch needs integer p in 1..{n}, got {p}")
    combos = np.array(list(itertools.combinations(range(n), int(p))))
    nb = len(combos)
    if not (1 <= k <= nb):
        raise ConfigError(f"branch index k={k} out of range 1..{nb}")

    def f(eigs):
        sums = eigs[:, combos].sum(axis=2)
        sums.sort(axis=1)
        return sums[:, k - 1]

    return _spectral_entry(n, f, f"pbranch:k={k}:p={p}:n={n}",
                           nondecreasing=True)


# ---------------------------------------------------------------------------
# uniformly elliptic cones


def make_uniformly_elliptic(kind: str, n: int, lam: float = None,
                            Lam: float = None, d: float = None) -> Subequation:
    """Pucci extremal cone or the delta-trace-regularized positivity cone."""
    if kind == "pucci":
        if lam is None or Lam is None or not (0 < lam < Lam):
            raise ConfigError(f"need 0 < lam < Lam, got lam={lam}, Lam={Lam}")

        def f(eigs, _l=float(lam), _L=float(Lam)):
            pos = np.clip(eigs, 0.0, None).sum(axis=1)
            neg = np.clip(eigs, None, 0.0).sum(axis=1)
            return _l * pos + _L * neg

        return _spectral_entry(n, f, f"pucci:lam={lam:g}:Lam={Lam:g}:n={n}",
                               nondecreasing=True)
    if kind == "delta":
        if d is None or d <= 0:
            raise ConfigError(f"need d > 0, got {d}")
        return replace(make_delta_branch(1, d, n), label=f"delta:d={d:g}:n={n}")
    raise ConfigError(f"unknown uniformly elliptic kind {kind!r}")


def make_delta_branch(k: int, d: float, n: int) -> Subequation:
    """Branch {lambda_k(A) + d tr A >= 0} of the trace-regularized operator."""
    if not (1 <= k <= n):
        raise ConfigError(f"branch index k={k} out of range 1..{n}")
    if d <= 0:
        raise ConfigError(f"need d > 0, got {d}")

    def f(eigs, _d=float(d), _i=k - 1):
        return eigs[:, _i] + _d * eigs.sum(axis=1)

    return _spectral_entry(n, f, f"deltabranch:k={k}:d={d:g}:n={n}",
                           nondecreasing=True)


# ---------------------------------------------------------------------------
# families built only through their catalog names


def _laplace(n: int) -> Subequation:
    def rho(r, p, A):
        return _trace(A)
    def f(eigs):
        return eigs.sum(axis=1)
    f.nondecreasing = True

    # the trace needs no eigensolve; the solver's node update sums the
    # eigenvalues it has already computed
    return Subequation(n, rho, f"laplace:n={n}", pure_second_order=True,
                       reduced=True, cone=True, spectral=f)


def _sigma(k: int, n: int) -> Subequation:
    if not (1 <= k <= n):
        raise ConfigError(f"sigma needs 1 <= k <= n, got k={k}")
    scales = np.array([math.comb(n, l) for l in range(1, k + 1)], dtype=float)

    def f(eigs, _k=k, _sc=scales):
        e = esym_batch(eigs, _k)
        return (e[:, 1:_k + 1] / _sc[None, :]).min(axis=1)

    return _spectral_entry(n, f, f"sigma:k={k}:n={n}")


def _slag(c: float, n: int) -> Subequation:
    if abs(c) >= n * np.pi / 2:
        raise ConfigError(f"phase |c|={abs(c):g} >= n*pi/2; set is trivial")

    def f(eigs, _c=c):
        return np.arctan(eigs).sum(axis=1) - _c

    return _spectral_entry(n, f, f"slag:c={c:g}:n={n}", cone=False,
                           nondecreasing=True)


def _calabi_yau(n: int) -> Subequation:
    def line(p, A, c):
        # A + c r I has the spectrum of A shifted by c r
        eigs = eigvalsh_batch(A)
        tr, low = eigs.sum(axis=1) + n, eigs[:, 0] + 1.0

        def g(r, idx=slice(None)):
            return np.minimum(tr[idx] + n * c * r - np.exp(r),
                              low[idx] + c * r)
        return g

    def rho(r, p, A):
        # c = 0 adds exact zeros: min(tr A + n - e^r, lambda_1 + 1)
        return line(p, A, 0.0)(np.asarray(r, dtype=float))

    return Subequation(n, rho, f"cy:n={n}", line=line)


def _k_laplacian(k: float, n: int) -> Subequation:
    if not (k >= 1):
        raise ConfigError(f"k-Laplacian needs k >= 1, got {k}")
    if math.isinf(k):
        def rho(r, p, A):
            p = np.asarray(p, dtype=float)
            return np.einsum("ni,nij,nj->n", p, _as_batch(A), p)
        label, width = f"klap:k=inf:n={n}", 1.0
    else:
        def rho(r, p, A, _k=k):
            p = np.asarray(p, dtype=float)
            A = _as_batch(A)
            pp = np.einsum("ni,ni->n", p, p)
            pAp = np.einsum("ni,nij,nj->n", p, A, p)
            return pp * _trace(A) + (_k - 2.0) * pAp
        label, width = f"klap:k={k:g}:n={n}", n + k - 2.0

    def line(p, A, c):
        # affine on the line: A + c r I adds c r |p|^2 to p^t A p and
        # c r n |p|^2 to |p|^2 tr A
        q = rho(None, p, A)
        slope = (c * width) * np.einsum("ni,ni->n", p, p)

        def g(r, idx=slice(None)):
            return q[idx] + slope[idx] * r
        return g

    return Subequation(n, rho, label, reduced=True, cone=True, line=line)


# rows of A per GEMM block in the geometric margin: bounds its
# (rows, frames) temporary
_GEOM_ROWS = 4096


def _geometric(G: GrassmannSet) -> Subequation:
    """min over frames W of tr(W^t A W) = <A, W W^t>_F: one GEMM of the
    flattened matrices against the frame projectors W W^t, (n^2, F).

    Line frames (p = 1) in n = 2 or 3 carry the spectral bound
    u = lam_1 cos^2 theta + lam_n sin^2 theta, theta = ``G.line_radius``.
    Proof: some frame line w lies at an angle a <= theta from an
    eigenvector q_1 of lam_1, so w^t A w = sum_i lam_i (q_i^t w)^2 with
    (q_1^t w)^2 = cos^2 a and the other weights summing to sin^2 a, which
    is at most lam_1 cos^2 a + lam_n sin^2 a <= u, as lam_n >= lam_1 and
    a <= theta <= pi/2.  rho, the min over frames, is at most that."""
    W = G.stack  # (F, n, p)
    P = np.einsum("fip,fjp->ijf", W, W).reshape(G.n * G.n, len(W))

    def rho(r, p, A, _P=P):
        A = _as_batch(A).reshape(-1, _P.shape[0])
        out = np.empty(len(A))
        for i in range(0, len(A), _GEOM_ROWS):
            out[i:i + _GEOM_ROWS] = (A[i:i + _GEOM_ROWS] @ _P).min(axis=1)
        return out

    bound = None
    if G.p == 1 and G.n in (2, 3):
        def bound(lam):
            th = G.line_radius
            return (math.cos(th) ** 2 * lam[:, 0]
                    + math.sin(th) ** 2 * lam[:, -1])

    return Subequation(G.n, rho,
                       f"geom:p={G.p}:n={G.n}:frames={len(G.frames)}",
                       pure_second_order=True, reduced=True, cone=True,
                       spectral_bound=bound)


# ---------------------------------------------------------------------------
# basic monotonicity cones (the six stock cases)


def make_monotonicity_cone(case: int, n: int, gamma: float = None,
                           D: DirectionalCone = None, lam: float = None,
                           R: float = None) -> Subequation:
    """The stock convex monotonicity cones, numbered 1-6.

    1. A >= 0 only.
    2. r <= 0 and A >= 0.
    3. r <= 0, p in D, A >= 0.
    4. r <= -gamma |p|, p in D, A >= 0.
    5. <Ae, e> >= lam |<p, e>| for all unit e  (min over a 64-direction
       sample plus the eigenvector frame of A and the p-direction; the
       sampled min is an outer approximation).
    6. A >= (|p|/R) Id, written exactly as lambda_1(A) - |p|/R.

    Cases 2, 3, 4 and 6 are M(gamma, D, R) = {r <= -gamma |p|, p in D,
    A >= (|p|/R) Id} with some of the three terms left out: one margin, the
    min of lambda_1(A) - |p|/R, the margin of p in D and -r - gamma |p|.
    Cases 3 and 4 need a :class:`DirectionalCone`; 4 needs gamma > 0;
    5 needs lam >= 0; 6 needs R > 0.  All carry direct member samplers so
    rejection never has to fight thin acceptance regions.
    """
    if case not in range(1, 7):
        raise ConfigError(f"monotonicity cone case must be 1..6, got {case}")
    if case in (3, 4):
        if D is None:
            raise ConfigError(f"case {case} needs a directional cone D")
        if D.n != n:
            raise DimensionMismatch("directional cone dimension mismatch")
    label = f"appb:case={case}:n={n}"
    if case >= 4:
        # the one scalar parameter of cases 4-6 and its bound
        key, val, cmp = {4: ("gamma", gamma, ">"), 5: ("lam", lam, ">="),
                         6: ("R", R, ">")}[case]
        if val is None or val < 0 or (val == 0 and cmp == ">"):
            raise ConfigError(f"case {case} needs {key} {cmp} 0, got {val}")
        label += f":{key}={val:g}"
    # the terms of M(g, D, R) a case keeps; None leaves a term out
    g = float(gamma) if case == 4 else 0.0 if case in (2, 3) else None
    D = D if case in (3, 4) else None
    R = float(R) if case == 6 else None

    if case <= 4:
        def sampler(rng, size):
            p = _ball(rng, n, size) if D is None else D.sample(rng, size)
            r = (rng.uniform(-5, 5, size) if g is None else
                 -g * np.linalg.norm(p, axis=1) - rng.uniform(0, 5, size))
            return r, p, _haar_psd(rng, n, size)
    else:
        # inner recipe: lambda_1(A) >= s |p| certifies membership
        s = float(lam) if case == 5 else 1.0 / R

        def sampler(rng, size):
            p = _ball(rng, n, size)
            lo = s * np.linalg.norm(p, axis=1)
            A = _haar_psd(rng, n, size, eig_lo=0.0, eig_hi=1.0)
            A = A + lo[:, None, None] * np.eye(n)[None, :, :]
            return rng.uniform(-5, 5, size), p, A

    if case == 1:
        return replace(make_branch("real", 1, n), label=label,
                       member_sampler=sampler)
    if case == 5:
        E = _unit_sphere_qmc(n, 64, seed=0)   # (K, n)

        def rho(r, p, A, _E=E, _l=float(lam)):
            p = np.asarray(p, dtype=float)
            A = _as_batch(A)
            quad = np.einsum("ki,nij,kj->nk", _E, A, _E)
            lin = np.abs(p @ _E.T)
            vals = (quad - _l * lin).min(axis=1)
            # tighten with the eigenvector frame of each A ...
            w, V = np.linalg.eigh(A)
            lin_v = np.abs(np.einsum("ni,nik->nk", p, V))
            vals = np.minimum(vals, (w - _l * lin_v).min(axis=1))
            # ... and the direction of p itself
            nrm = np.linalg.norm(p, axis=-1)
            ok = nrm > 1e-300
            if np.any(ok):
                ph = p[ok] / nrm[ok][:, None]
                quad_p = np.einsum("mi,mij,mj->m", ph, A[ok], ph)
                vals[ok] = np.minimum(vals[ok], quad_p - _l * nrm[ok])
            return vals
    else:
        def rho(r, p, A):
            p = np.asarray(p, dtype=float)
            out = eigvalsh_batch(A)[:, 0]
            if R is not None:
                out = out - np.linalg.norm(p, axis=-1) / R
            if D is not None:
                out = np.minimum(out, D.margin_batch(p))
            if g is not None:
                head = -np.asarray(r, dtype=float)
                if g:
                    head = head - g * np.linalg.norm(p, axis=-1)
                out = np.minimum(out, head)
            return out
    return Subequation(n, rho, label, reduced=g is None, cone=True,
                       member_sampler=sampler)


# ---------------------------------------------------------------------------
# string registry: "family:key=value:..."


def _int(s: str) -> int:
    try:
        return int(s)
    except ValueError as exc:
        raise ConfigError(f"bad integer {s!r}") from exc


def _num(s: str, what: str) -> float:
    """s as a float; "inf" is one (``klap:k=inf``), NaN is refused, with
    ``what`` naming the parameter."""
    try:
        v = float(s)
    except ValueError as exc:
        raise ConfigError(f"{what}: bad number {s!r}") from exc
    if math.isnan(v):
        raise ConfigError(f"{what} is NaN")
    return v


def _appb(kv: dict) -> Subequation:
    case, n = _int(kv["case"]), _int(kv["n"])
    D = None
    if case in (3, 4):
        axis = np.zeros(n)
        axis[0] = 1.0
        if "axis" in kv:
            axis = np.asarray([_num(t, f"{kv.name!r}: parameter 'axis'")
                               for t in kv["axis"].split(",")])
        D = circular_cone(axis, math.radians(kv.num("angle", "45")))
    # each case reads only the scalar it takes: any other is unknown
    key = {4: "gamma", 5: "lam", 6: "R"}.get(case)
    return make_monotonicity_cone(case, n, D=D,
                                  **({key: kv.num(key)} if key else {}))


def _branch_dual(name: str, kv: dict) -> str:
    k, n = _int(kv["k"]), _int(kv["n"])
    return f"branch:{kv['kind']}:k={n - k + 1}:n={n}"


def _self_dual(name: str, kv: dict) -> str:
    return name


# family -> (constructor from the parsed parameters, dual rule or None).
# A dual rule maps (name, parameters) to the catalog name of the dual.
_FAMILIES = {
    "laplace": (lambda kv: _laplace(_int(kv["n"])), _self_dual),
    "branch": (lambda kv: make_branch(kv["kind"], _int(kv["k"]),
                                      _int(kv["n"])),
               _branch_dual),
    "pcone": (lambda kv: make_pcone(kv.num("p"), _int(kv["n"])), None),
    "pbranch": (lambda kv: make_pbranch(_int(kv["k"]), _int(kv["p"]),
                                        _int(kv["n"])), None),
    "pucci": (lambda kv: make_uniformly_elliptic(
        "pucci", _int(kv["n"]), lam=kv.num("lam"), Lam=kv.num("Lam")),
        None),
    "delta": (lambda kv: make_uniformly_elliptic("delta", _int(kv["n"]),
                                                 d=kv.num("d")), None),
    "deltabranch": (lambda kv: make_delta_branch(_int(kv["k"]), kv.num("d"),
                                                 _int(kv["n"])), None),
    "sigma": (lambda kv: _sigma(_int(kv["k"]), _int(kv["n"])), None),
    "slag": (lambda kv: _slag(kv.num("c", "0"), _int(kv["n"])),
             lambda name, kv: f"slag:c={-kv.num('c', '0'):g}:"
                              f"n={_int(kv['n'])}"),
    "cy": (lambda kv: _calabi_yau(_int(kv["n"])), None),
    "klap": (lambda kv: _k_laplacian(kv.num("k"), _int(kv["n"])),
             _self_dual),
    "geom": (lambda kv: _geometric(grassmann_sample(
        _int(kv["p"]), _int(kv["n"]), count=_int(kv.get("frames", "256")))),
        None),
    "appb": (_appb, None),
}


class _Params(dict):
    """key=value parameters of one catalog or domain name; a missing or
    repeated key raises :class:`ConfigError`, and so do a dimension n
    below 1 and, in :meth:`build`, a key the constructor never read.  The
    branch kind is the parameter "kind"."""

    def __init__(self, name: str):
        self.name, self.read = name, set()
        fam, *parts = name.split(":")
        if fam == "branch":
            if not parts:
                raise ConfigError(f"{name!r}: missing branch kind")
            parts[0] = "kind=" + parts[0]
        for part in parts:
            if "=" not in part:
                raise ConfigError(f"malformed parameter {part!r}")
            key, val = part.split("=", 1)
            if key in self:
                raise ConfigError(f"{name!r}: repeated parameter {key!r}")
            self[key] = val
        if "n" in self and _int(dict.get(self, "n")) < 1:
            raise ConfigError(f"{name!r}: parameter 'n' must be >= 1")

    def __missing__(self, key):
        raise ConfigError(f"{self.name!r}: missing parameter {key!r}")

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def num(self, key, default=None) -> float:
        """The parameter ``key`` (or ``default``) as a number, by ``_num``."""
        text = self[key] if default is None else self.get(key, default)
        return _num(text, f"{self.name!r}: parameter {key!r}")

    def build(self, make):
        """make(self); a key that make never read raises ConfigError."""
        out = make(self)
        unread = sorted(set(self) - self.read)
        if unread:
            raise ConfigError(f"{self.name!r}: unknown parameter(s) "
                              f"{', '.join(map(repr, unread))}")
        return out


def parse_name(name: str) -> Subequation:
    """Resolve a catalog name like ``branch:real:k=1:n=2`` to a subequation.

    Families: laplace, branch:{real,complex,quaternionic}, pcone, pbranch,
    pucci, delta, deltabranch, sigma, slag, cy, klap, geom, appb.
    """
    fam = name.split(":")[0]
    if fam not in _FAMILIES:
        raise ConfigError(f"unknown catalog family {fam!r}")
    return _Params(name).build(_FAMILIES[fam][0])


def dual_name(name: str) -> Optional[str]:
    """Catalog name of the dual, when the dual is itself a stock entry;
    None for the other families and for unknown ones."""
    rule = _FAMILIES.get(name.split(":")[0], (None, None))[1]
    return None if rule is None else rule(name, _Params(name))
