"""Jets, subequations, Dirichlet duality and the sampled axiom checks.

A 2-jet is a triple J = (r, p, A) in R x R^n x Sym2(R^n).  A subequation is
a closed constraint set F = {rho >= 0} cut out by a continuous defining
function rho, required (and sampledly checked, never assumed) to satisfy

    (P)  F + (0, 0, A>=0) subset F        degenerate ellipticity
    (N)  F + (r<=0, 0, 0) subset F        properness in the value slot

with the additional registration contract that {rho > 0} is the interior
of F.  The Dirichlet dual is computed on defining functions,

    rho~(x, J) = -rho(x, -J),

which realizes ~(-Int F) and is an involution.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, SamplerExhausted
from .linalg import MAX_DIM, eigvalsh_batch

DEFAULT_EPS_B = 1e-9
REJECTION_CAP = 10 ** 6
ILLINOIS_SLACK = 4      # steps illinois may take beyond bisection's


# ---------------------------------------------------------------------------
# jets


@dataclass(frozen=True)
class Jet:
    """2-jet (r, p, A): value, gradient, symmetric second-derivative part.

    ``A`` is kept as a read-only dense (n, n) array, 1 <= n <= MAX_DIM: the
    upper triangle of the matrix given and its mirror, so it is exactly
    symmetric.  Each pair (A_ij, A_ji) of the matrix given must be equal,
    both NaN, or within 1e-9 * max(1, max|A|), the max over entries that
    are not NaN.
    """

    r: float
    p: np.ndarray
    A: np.ndarray

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise DimensionMismatch(f"not square: {A.shape}")
        n = A.shape[0]
        if not (1 <= n <= MAX_DIM):
            raise DimensionMismatch(f"dimension {n} outside 1..{MAX_DIM}")
        tol = 1e-9 * np.max(np.abs(A), initial=1.0, where=~np.isnan(A))
        ok = ((np.abs(A - A.T) <= tol) | (A == A.T)
              | np.isnan(A) & np.isnan(A.T))
        if not ok.all():
            raise ValueError("matrix is not symmetric within tolerance")
        A = np.where(np.triu(np.ones((n, n), dtype=bool)), A, A.T)
        A.flags.writeable = False
        p = np.asarray(self.p, dtype=float)
        if p.shape != (n,):
            raise DimensionMismatch(
                f"gradient shape {p.shape} vs matrix dim {n}"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", float(self.r))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @classmethod
    def zero(cls, n: int) -> "Jet":
        return cls(0.0, np.zeros(n), np.zeros((n, n)))

    @classmethod
    def from_parts(cls, r=0.0, p=None, A=None) -> "Jet":
        A = np.asarray(A, dtype=float)
        if p is None:
            p = np.zeros(A.shape[:1])
        return cls(float(r), p, A)

    def __add__(self, other: "Jet") -> "Jet":
        if other.n != self.n:
            raise DimensionMismatch(
                f"jet dimensions differ: {self.n} vs {other.n}")
        return Jet(self.r + other.r, self.p + other.p, self.A + other.A)

    def __sub__(self, other: "Jet") -> "Jet":
        return self + (-other)

    def __neg__(self) -> "Jet":
        return Jet(-self.r, -self.p, -self.A)

    def scale(self, t: float) -> "Jet":
        return Jet(t * self.r, t * self.p, t * self.A)


def jet_norm(jet: Jet) -> float:
    """Jet norm sqrt(r^2 + |p|^2 + |A|_F^2)."""
    fro = float(np.linalg.norm(jet.A))
    return float(np.sqrt(jet.r ** 2 + np.linalg.norm(jet.p) ** 2
                         + fro ** 2))


# ---------------------------------------------------------------------------
# subequations

# batch defining function: (r(N,), p(N,n), A(N,n,n), x(N,n)|None) -> (N,)
RhoBatch = Callable[..., np.ndarray]


@dataclass(frozen=True)
class Subequation:
    """Constraint set {J : rho(x, J) >= 0} with structural flags.

    ``rho_batch`` is the single source of truth; scalar evaluation wraps it.
    Flags are metadata used by downstream checks:

    pure_second_order  rho ignores (r, p): ``rho_batch(r, p, A)`` equals
                       ``rho_batch(0, 0, A)``
    reduced            membership ignores r
    cone               rho keeps its sign along rays t J, t > 0
    x_dependent        rho reads the base point

    ``spectral``, when set, is f on ascending eigenvalues, (N, n) -> (N,),
    with ``rho_batch(r, p, A) == f(eigvalsh_batch(A))``: the set is
    O(n)-invariant and sees A only through its ordered spectrum.  Only the
    catalog sets it, and ``on_line`` and ``sample_members`` trust the
    identity; ``dual`` carries it over, every other derived set drops it.

    ``spectral_bound``, for sets that are not spectral, is u on ascending
    eigenvalues with u(lam) >= rho(r, p, Q diag(lam) Q^t) for every
    orthogonal Q, r and p, up to rounding: ``sample_members`` rejects
    spectra on u before it rotates them.  Only constructors set it, each
    with a proof in its docstring (``geom`` with line frames, the complex
    and quaternionic branches, congruence images of spectral sets);
    ``dual`` and ``shift`` drop it (the dual would need a lower bound).

    ``line``, when set, is the set's own ``line(p, A, c)`` with the
    contract of ``on_line``, its only reader: klap (affine in r) and cy
    (one eigensolve).  ``dual`` carries it over; no other derived set has
    one.
    """

    n: int
    rho_batch: RhoBatch
    label: str
    pure_second_order: bool = False
    reduced: bool = False
    cone: bool = False
    x_dependent: bool = False
    member_sampler: Optional[Callable] = None  # (rng, size) -> (r, p, A)
    spectral: Optional[Callable] = None        # ascending eigs (N, n) -> (N,)
    line: Optional[Callable] = None            # (p, A, c) -> g(r, idx)
    spectral_bound: Optional[Callable] = None  # ascending eigs (N, n) -> (N,)

    def value(self, jet: Jet, x=None) -> float:
        if jet.n != self.n:
            raise DimensionMismatch(f"jet dim {jet.n} != subequation dim {self.n}")
        return float(self.value_batch(np.array([jet.r]), jet.p[None, :],
                                      jet.A[None, :, :], x)[0])

    def value_batch(self, r, p, A, x=None) -> np.ndarray:
        """rho on a batch of N jets.  ``x`` is read only when the set is
        x_dependent, and then must be given: base points of shape (N, n), or
        one point of shape (n,) that stands for the whole batch."""
        if not self.x_dependent:
            return np.asarray(self.rho_batch(r, p, A), dtype=float)
        if x is None:
            raise ValueError(f"{self.label} needs base points x")
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = np.repeat(x[None, :], len(A), 0)
        return np.asarray(self.rho_batch(r, p, A, x), dtype=float)

    def on_line(self, p, A, c: float, x=None) -> Callable:
        """rho on the lines r -> (r, p, A + c r I) through N base jets p
        (N, n), A (N, n, n), along which the solver's node update moves.

        Returns g with g(r, idx=slice(None)) equal to
        ``value_batch(r, p[idx], A[idx] + c r I, x[idx])`` up to rounding,
        for r of the length of the rows idx; x holds the N base points of
        an x-dependent set.  The set-up is paid once per call, so that g is
        cheap where the set allows: the set's own ``line``, else f on the
        spectrum of one eigensolve shifted by c r for a spectral set, else
        rho on the full jet at each r.
        """
        if self.line is not None:
            return self.line(p, A, c)
        f = self.spectral
        if f is not None:
            lam = eigvalsh_batch(A)
            return lambda r, idx=slice(None): f(lam[idx] + c * r[:, None])
        cI = c * np.eye(self.n)

        def g(r, idx=slice(None)):
            return self.value_batch(r, p[idx], A[idx] + r[:, None, None] * cI,
                                    None if x is None else x[idx])
        return g


@dataclass(frozen=True)
class Membership:
    status: str          # "inside" | "boundary" | "outside"
    margin: float

    @property
    def in_set(self) -> bool:
        return self.status != "outside"


def classify(margin: float) -> str:
    if margin > DEFAULT_EPS_B:
        return "inside"
    if margin < -DEFAULT_EPS_B:
        return "outside"
    return "boundary"


def member(F: Subequation, jet: Jet, x=None) -> Membership:
    """Classify a jet against F with the boundary band DEFAULT_EPS_B."""
    m = F.value(jet, x=x)
    return Membership(classify(m), m)


def dual(F: Subequation) -> Subequation:
    """Dirichlet dual, rho~(x, J) = -rho(x, -J).

    An involution on defining functions: dual(dual(F)) evaluates bitwise
    like F.  A spectral F has the spectral dual f~(lam) = -f(-lam reversed),
    since the ascending spectrum of -A is minus that of A, reversed.  A
    ``line`` g of F gives the dual's as -g(-r) built on (-p, -A): at r on
    the line through (p, A), rho~ is minus rho at -r on the line through
    (-p, -A), with the same c.  No ``spectral_bound`` is carried: a
    spectral dual is bounded by its f~, and the others would need a lower
    bound of rho.
    """
    base = F.rho_batch
    spec = F.spectral
    line = F.line
    spec_dual = None if spec is None else (
        lambda lam: -spec(-lam[:, ::-1]))
    line_dual = None
    if line is not None:
        def line_dual(p, A, c):
            g = line(-p, -A, c)
            return lambda r, idx=slice(None): -g(-r, idx)

    def rho_dual(r, p, A, *x):
        return -base(-np.asarray(r), -np.asarray(p), -np.asarray(A), *x)

    return replace(F, rho_batch=rho_dual, label=f"dual({F.label})",
                   member_sampler=None, spectral=spec_dual, line=line_dual,
                   spectral_bound=None)


def shift(F: Subequation, jet0: Jet) -> Subequation:
    """Translate the constraint set: shift(F, J0) = F + J0."""
    base = F.rho_batch
    r0, p0, A0 = jet0.r, jet0.p.copy(), jet0.A

    def rho_shift(r, p, A, *x):
        return base(np.asarray(r) - r0, np.asarray(p) - p0,
                    np.asarray(A) - A0, *x)

    return replace(F, rho_batch=rho_shift, label=f"shift({F.label})",
                   cone=False, member_sampler=None, spectral=None,
                   line=None, spectral_bound=None)


# ---------------------------------------------------------------------------
# bisection


def bisect(accept: Callable, lo, hi, steps: int,
           done: Optional[Callable] = None):
    """Elementwise bisection of a monotone predicate; returns ``(lo, hi)``.

    Each step evaluates ``accept(mid)`` once at ``mid = (lo + hi) / 2``;
    accepted entries move ``lo`` up to ``mid``, the others move ``hi`` down.
    ``accept`` returns a boolean array (or scalar) that broadcasts against
    ``lo``.  At most ``steps`` halvings are made.  When ``done(lo, hi)`` is
    given it is checked before every step: entries where it holds keep
    their bracket, and the loop stops once it holds everywhere.
    """
    for _ in range(steps):
        stop = np.False_ if done is None else done(lo, hi)
        if np.all(stop):
            break
        mid = 0.5 * (lo + hi)
        ok = accept(mid)
        lo = np.where(ok & ~stop, mid, lo)
        hi = np.where(ok | stop, hi, mid)
    return lo, hi


def illinois(g: Callable, lo, hi, steps: int, ends: tuple, tol: float):
    """Elementwise root bracketing of a nonincreasing margin; returns
    ``(lo, hi)``.

    ``g(x, idx)`` returns the margin at ``x`` for the entries ``idx``
    (indices into ``lo``), membership is g >= 0, and ``ends = (g_lo, g_hi)``
    hold g(lo) >= 0 > g(hi).  Entries whose bracket is wider than ``tol`` > 0
    step until it is not, at most ``steps`` times; the others are never
    evaluated.  A step is an Illinois step (Dowell and Jarratt, BIT 1971):
    the false-position point, clipped to [lo + tol/2, hi - tol/2], with the
    margin of an end that stays put twice in a row halved.  An entry takes
    one only while
    k + 1 + ceil(log2(w / tol)) <= ceil(log2(w0 / tol)) + ``ILLINOIS_SLACK``
    (k steps taken, w its width, w0 its starting width), and midpoints from
    then on, so it needs at most ``ILLINOIS_SLACK`` steps more than
    bisection (Oliveira and Takahashi, ACM TOMS 2020).  Every step keeps
    ``lo`` a member and ``hi`` a non-member.  The working arrays hold only
    the entries still wider than ``tol``; finished ones are written back.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    live = np.flatnonzero(hi - lo > tol)
    l, h = lo[live], hi[live]
    gl, gh = np.asarray(ends[0])[live], np.asarray(ends[1])[live]
    # the budget as a width: an Illinois step is allowed at w <= cap,
    # cap = tol * 2^(B - 1 - k), halved after every step
    cap = tol * np.exp2(np.ceil(np.log2((h - l) / tol)) + (ILLINOIS_SLACK - 1))
    ill = np.ones(len(live), dtype=bool)
    prev = None
    for _ in range(steps):
        if not len(live):
            break
        w = h - l
        ill &= w <= cap
        if ill.any():
            x = np.fmin(np.fmax(l + gl * (w / (gl - gh)), l + 0.5 * tol),
                        h - 0.5 * tol)
            if not ill.all():
                x = np.where(ill, x, 0.5 * (l + h))
            v = g(x, live)
            ok = v >= 0
            if prev is not None:
                gh = np.where(ok & prev, 0.5 * gh, gh)
                gl = np.where(ok | prev, gl, 0.5 * gl)
            gl = np.where(ok, v, gl)
            gh = np.where(ok, gh, v)
            prev = ok
        else:
            x = 0.5 * (l + h)
            ok = g(x, live) >= 0
        l = np.where(ok, x, l)
        h = np.where(ok, h, x)
        cap *= 0.5
        keep = h - l > tol
        if not keep.all():
            out = live[~keep]
            lo[out], hi[out] = l[~keep], h[~keep]
            live, l, h, gl, gh, cap, ill = (
                a[keep] for a in (live, l, h, gl, gh, cap, ill))
            if prev is not None:
                prev = prev[keep]
    lo[live], hi[live] = l, h
    return lo, hi


# ---------------------------------------------------------------------------
# samplers


@dataclass(frozen=True)
class JetBox:
    """Sampling box: r uniform, p uniform in a ball, A with Haar-rotated
    uniform spectrum."""

    r_lo: float = -5.0
    r_hi: float = 5.0
    p_radius: float = 5.0
    eig_lo: float = -5.0
    eig_hi: float = 5.0


# matrices per block of _haar_psd's row-wise update, so that its N-vectors
# stay in cache.  ms for 4e4 matrices of n = 3 and 4 (one BLAS thread,
# shared 2-core x86 box): blocks of 2048, 4096, 8192 and the whole stack
# take 10.1/19.0, 8.6/16.6, 8.5/20.8 and 15.6/27.8, of which the draws
# alone are 3.4/6.2; 4096 is best at n = 4 and on the plateau at n = 3.
_HAAR_BLOCK = 4096


def _haar_psd(rng: np.random.Generator, n: int, size: int,
              eig_lo: float = 0.0, eig_hi: float = 5.0,
              eigs: Optional[np.ndarray] = None) -> np.ndarray:
    """Symmetric matrices Q diag(eigs) Q^t with Q Haar on O(n) and the
    spectrum uniform in [eig_lo, eig_hi] (PSD for the default range), or
    taken from ``eigs``, an (size, n) array, when it is given.

    Q is Stewart's product H_1 ... H_{n-1} of random Householder
    reflections (SIAM J. Numer. Anal. 1980): H_k reflects the last n-k+1
    coordinates and is built from a fresh standard normal vector, as in
    the Householder QR of a Gaussian matrix.  That QR's sign fix is a
    diagonal +-1 factor, which commutes with diag(eigs) and drops out.
    Each reflection H = I - s s^t, |s|^2 = 2, conjugates the matrix as the
    symmetric rank-two update M - s y^t - y s^t with
    y = M s - (s^t M s / 2) s.  Only the upper triangle is updated, one
    N-vector per entry, in blocks of ``_HAAR_BLOCK`` matrices, and entries
    still zero are skipped; the lower triangle is its mirror, so every
    returned matrix is exactly symmetric.  The spectra are drawn first,
    then all the normal vectors.  No QR or eigensolve is made.
    """
    if eigs is None:
        eigs = rng.uniform(eig_lo, eig_hi, (size, n))
    lam = np.asarray(eigs, dtype=float).T
    N = lam.shape[1]
    X = rng.standard_normal((n * (n + 1) // 2 - 1, N))
    out = np.empty((N, n, n))
    for b in range(0, N, _HAAR_BLOCK):
        cols = slice(b, b + _HAAR_BLOCK)
        # U[i][j], i <= j: the upper triangle; None is an entry still zero
        U = [[None] * n for _ in range(n)]
        for i in range(n):
            U[i][i] = lam[i, cols].copy()
        row = 0
        for k in range(n - 2, -1, -1):
            x = X[row:row + n - k, cols]
            row += n - k
            # s = sqrt(2) v / |v|, v = x + sign(x_0) |x| e_0
            v = x.copy()
            v[0] += np.copysign(np.sqrt((x * x).sum(0)), x[0])
            s = v * (np.sqrt(2.0) / np.maximum(np.sqrt((v * v).sum(0)),
                                               1e-300))
            idx = range(k, n)
            w = []
            for i in idx:
                terms = [U[min(i, j)][max(i, j)] * s[j - k] for j in idx
                         if U[min(i, j)][max(i, j)] is not None]
                w.append(sum(terms[1:], terms[0]))
            half = 0.5 * sum((s[i] * w[i] for i in range(1, n - k)),
                             s[0] * w[0])
            y = [w[i] - half * s[i] for i in range(n - k)]
            for i in idx:
                for j in range(i, n):
                    upd = s[i - k] * y[j - k] + y[i - k] * s[j - k]
                    U[i][j] = -upd if U[i][j] is None else U[i][j] - upd
        for i in range(n):
            for j in range(i, n):
                out[cols, i, j] = U[i][j]
                out[cols, j, i] = U[i][j]
    return out


def _ball(rng: np.random.Generator, n: int, size: int,
          radius: float = 5.0) -> np.ndarray:
    """Points of the radius-ball in R^n, uniform in volume."""
    d = rng.standard_normal((size, n))
    d /= np.maximum(np.linalg.norm(d, axis=1, keepdims=True), 1e-300)
    r = radius * rng.uniform(0.0, 1.0, size) ** (1.0 / n)
    return d * r[:, None]


def sample_jet_batch(box: JetBox, n: int, size: int,
                     rng: np.random.Generator):
    """Batch of raw jets (r, p, A) drawn from the box."""
    r = rng.uniform(box.r_lo, box.r_hi, size)
    p = _ball(rng, n, size, box.p_radius)
    A = _haar_psd(rng, n, size, box.eig_lo, box.eig_hi)
    return r, p, A


def _kept(F: Subequation, jets: tuple, margin_min: float, x=None):
    """The jets (r, p, A) of the batch ``jets`` with rho >= margin_min."""
    keep = F.value_batch(*jets, x) >= margin_min
    return tuple(a[keep] for a in jets)


def _ascending(part: np.ndarray) -> np.ndarray:
    """The rows of ``part`` (m, n) in ascending order.

    For n <= 4 a network of compare-exchanges of adjacent rows (bubble
    order) runs in place on the transposed (n, m) copy, and the result is
    that block's ``.T`` view, which f reads as it is: for 40,000 x 3 the
    network takes 0.20 ms against 1.61 ms for ``np.sort(axis=1)``, and a
    contiguous copy of the view would add 0.17 ms (best of 5 x 100 calls,
    shared 2-core x86 box).  np.minimum and np.maximum
    return their second argument on equal entries, so a tie keeps its
    order: the network is a stable sort, bit for bit equal to
    ``np.sort(kind="stable")`` and, on rows without a tie of +0 and -0,
    to ``np.sort``.  Larger n take ``np.sort``."""
    n = part.shape[1]
    if n > 4:
        return np.sort(part, axis=1)
    T = np.ascontiguousarray(part.T)
    tmp = np.empty(len(part))
    for top in range(n - 1, 0, -1):
        for i in range(top):
            np.minimum(T[i + 1], T[i], out=tmp)
            np.maximum(T[i], T[i + 1], out=T[i + 1])
            T[i] = tmp
    return T.T


def _decide_first_draw(F: Subequation, box: JetBox,
                       rng: np.random.Generator, m: int, need: int,
                       margin_min: float, x=None):
    """Draw ``m`` spectra from the box, drop those whose bound (f of a
    spectral F, else ``F.spectral_bound``) is below ``margin_min``, and
    rotate the survivors in order, with r and p drawn for each, in blocks
    no larger than the members still needed call for, until ``need`` jets
    clear ``margin_min`` on ``F.value_batch`` at x; returns the first
    ``need`` of them (fewer when the survivors run out).

    The first block is ``need`` survivors; each later one is the number
    still needed over the share kept so far, plus a margin of twice its
    square root.  A spectral F's bound is f itself, so its first block
    keeps all but the rare jet whose f moves below ``margin_min`` by
    rounding, and its draws are those of rejecting spectra on f.  A set
    without a bound keeps every spectrum.  No member is dropped by the
    bound, the rotation, r and p are drawn independently of the spectrum,
    and which survivors are rotated depends only on the outcomes before
    them, so the kept jets have the law of plain rejection from the box.
    """
    part = rng.uniform(box.eig_lo, box.eig_hi, (m, F.n))
    bound = F.spectral if F.spectral is not None else F.spectral_bound
    if bound is not None:
        part = part[bound(_ascending(part)) >= margin_min]
    out, got, start, size = [], 0, 0, need
    while True:
        eigs = part[start:start + size]
        k = len(eigs)
        start += k
        r = rng.uniform(box.r_lo, box.r_hi, k)
        p = _ball(rng, F.n, k, box.p_radius)
        out.append(_kept(F, (r, p, _haar_psd(rng, F.n, k, eigs=eigs)),
                         margin_min, x))
        got += len(out[-1][0])
        if got >= need or start >= len(part):
            return tuple(np.concatenate(a)[:need] for a in zip(*out))
        left = need - got
        size = math.ceil((left + 2.0 * math.sqrt(left)) * start
                         / max(got, 1))


def sample_members(F: Subequation, count: int, rng: np.random.Generator,
                   box: Optional[JetBox] = None, margin_min: float = 0.0,
                   x=None, cap: int = REJECTION_CAP):
    """Sample exactly ``count`` jets of F with rho >= margin_min; ``x`` is
    the one base point of an x-dependent F.

    Jets are drawn in chunks by one of two recipes, each of which returns
    only the jets it keeps; the chunks are topped up until ``count`` are
    kept.

    * A constructive ``member_sampler``, when F has one (thin cones whose
      rejection rate would exhaust the cap); its first chunk is ``count``,
      and each chunk is checked whole with ``F.value_batch``.
    * Otherwise spectra uniform in the box, rejected on ``F.spectral`` or
      ``F.spectral_bound`` when F has one, then rotated, with r and p
      drawn, for the survivors only and no more of them than the members
      still need, and checked with ``F.value_batch``
      (:func:`_decide_first_draw`): the law of plain rejection from the
      box (:func:`sample_jet_batch`).

    Raises :class:`SamplerExhausted` once ``cap`` jets (spectra, on the
    second recipe) have been drawn without keeping ``count``.
    """
    box = box or JetBox()
    chunk = first = max(1024, min(count * 4, 65536))
    if F.member_sampler is not None:
        first = count
        draw = lambda m, need: _kept(F, F.member_sampler(rng, m),
                                     margin_min, x)
    else:
        draw = lambda m, need: _decide_first_draw(F, box, rng, m, need,
                                                  margin_min, x)
    out = []
    drawn = 0
    got = 0
    while got < count:
        if drawn >= cap:
            raise SamplerExhausted(
                f"{F.label}: drew {drawn} jets, kept {got} < {count}"
            )
        m = min(chunk if drawn else first, cap - drawn)
        out.append(draw(m, count - got))
        drawn += m
        got += len(out[-1][0])
    return tuple(np.concatenate(a)[:count] for a in zip(*out))


# ---------------------------------------------------------------------------
# reports


@dataclass
class ViolationReport:
    label: str
    axiom: str
    trials: int
    violations: int
    witness: Optional[dict] = None

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def to_json_dict(self) -> dict:
        d = {"label": self.label, "axiom": self.axiom,
             "trials": self.trials, "violations": self.violations}
        if self.witness is not None:
            d["witness"] = self.witness
        return d


@dataclass
class MonotonicityReport:
    direct: ViolationReport
    dual_form: ViolationReport
    agreement: bool

    @property
    def passed(self) -> bool:
        return self.direct.passed and self.dual_form.passed

    def to_json_dict(self) -> dict:
        return {"direct": self.direct.to_json_dict(),
                "dual_form": self.dual_form.to_json_dict(),
                "agreement": self.agreement}


def _witness_dict(r, p, A, r2, p2, A2, margin) -> dict:
    return {"jet": {"r": float(r), "p": np.asarray(p).tolist(),
                    "A": np.asarray(A).tolist()},
            "added": {"r": float(r2), "p": np.asarray(p2).tolist(),
                      "A": np.asarray(A2).tolist()},
            "margin": float(margin)}


def _violations(label: str, axiom: str, vals: np.ndarray, base: tuple,
                added: tuple) -> ViolationReport:
    """Report on the sums base + added, one per entry of their margins
    ``vals``: those below -DEFAULT_EPS_B are violations, the first the
    witness."""
    bad = vals < -DEFAULT_EPS_B
    nviol = int(bad.sum())
    witness = None
    if nviol:
        i = int(np.argmax(bad))
        witness = _witness_dict(*(a[i] for a in base + added), vals[i])
    return ViolationReport(label, axiom, len(vals), nviol, witness)


# ---------------------------------------------------------------------------
# axiom and monotonicity checks


def axiom_check(F: Subequation, axiom: str, trials: int = 10_000,
                seed: int = 0, x=None) -> ViolationReport:
    """Sampled verification of (P) or (N).

    Draws members J of F from the default ``JetBox``, perturbs by J' in the
    relevant direction (a PSD matrix for (P), a nonpositive value shift for
    (N)) and counts sums that leave F beyond the boundary band.
    """
    if axiom not in ("P", "N"):
        raise ValueError(f"axiom must be 'P' or 'N', got {axiom!r}")
    rng = np.random.default_rng(seed)
    r, p, A = sample_members(F, trials, rng, x=x)
    size = len(r)
    if axiom == "P":
        dA = _haar_psd(rng, F.n, size)
        dr = np.zeros(size)
    else:
        dA = np.zeros_like(A)
        dr = -rng.uniform(0.0, 5.0, size)
    vals = F.value_batch(r + dr, p, A + dA, x)
    return _violations(F.label, axiom, vals, (r, p, A),
                       (dr, np.zeros_like(p), dA))


def monotonicity_check(F: Subequation, M: Subequation, trials: int = 10_000,
                       seed: int = 0) -> MonotonicityReport:
    """Sampled test of F + M subset F, together with its dual reformulation
    F + dual(F) subset dual(M); the two must agree for exact monotonicity
    cones, and the report records whether they do.
    """
    if not M.cone:
        raise ValueError(f"{M.label} is not flagged as a cone")
    if F.n != M.n:
        raise DimensionMismatch("dimension mismatch between F and M")
    rng = np.random.default_rng(seed)

    rF, pF, AF = sample_members(F, trials, rng, margin_min=DEFAULT_EPS_B)
    rM, pM, AM = sample_members(M, trials, rng)
    vals = F.value_batch(rF + rM, pF + pM, AF + AM)
    direct = _violations(f"{F.label}+{M.label}", "monotonicity", vals,
                         (rF, pF, AF), (rM, pM, AM))

    Fd = dual(F)
    Md = dual(M)
    rD, pD, AD = sample_members(Fd, trials, rng)
    vals2 = Md.value_batch(rF + rD, pF + pD, AF + AD)
    dual_form = _violations(f"{F.label}+{Fd.label} in {Md.label}",
                            "monotonicity-dual", vals2, (rF, pF, AF),
                            (rD, pD, AD))
    return MonotonicityReport(direct, dual_form,
                              agreement=direct.passed == dual_form.passed)


# ---------------------------------------------------------------------------
# strict and asymptotic membership


@functools.cache
def _normal_quantiles() -> tuple:
    """(Phi(z), z) at 16,385 z in [-6, 6]: np.interp's table of Phi^-1."""
    z = np.linspace(-6.0, 6.0, 16385)
    return np.array([0.5 * math.erfc(-t / math.sqrt(2.0)) for t in z]), z


@functools.lru_cache(maxsize=64)
def _unit_sphere_qmc(dim: int, k: int, seed: int = 0) -> np.ndarray:
    """Deterministic low-discrepancy points on the unit sphere in R^dim: the
    R_d Kronecker sequence (Roberts 2018) shifted by ``default_rng(seed)``,
    mapped to normals and projected.  Memoised, as the boundary tests ask
    for the same few point sets thousands of times, so shared, read-only."""
    g = 2.0
    for _ in range(64):                 # g^(dim+1) = g + 1
        g = (1.0 + g) ** (1.0 / (dim + 1))
    U = (np.random.default_rng(seed).random(dim)
         + np.arange(1, k + 1)[:, None] * g ** -np.arange(1.0, dim + 1)) % 1.0
    Z = np.interp(U, *_normal_quantiles())
    U = Z / np.maximum(np.linalg.norm(Z, axis=1, keepdims=True), 1e-300)
    U.flags.writeable = False
    return U


def _jet_dim(n: int) -> int:
    return 1 + n + n * (n + 1) // 2


def _sphere_jets(n: int, k: int, radius: float, seed: int = 0):
    """Jets on the ``jet_norm`` sphere of the given radius, as batch arrays.

    The Frobenius norm of the matrix part is respected by splitting packed
    off-diagonal coordinates with weight sqrt(2).
    """
    d = _jet_dim(n)
    U = _unit_sphere_qmc(d, k, seed=seed)
    iu = np.triu_indices(n)
    offdiag = iu[0] != iu[1]
    w = np.ones(len(iu[0]))
    w[offdiag] = 1.0 / np.sqrt(2.0)   # entry pairs contribute twice to |A|_F
    r = radius * U[:, 0]
    p = radius * U[:, 1:1 + n]
    packed = radius * U[:, 1 + n:] * w[None, :]
    A = np.zeros((k, n, n))
    A[:, iu[0], iu[1]] = packed
    A[:, iu[1], iu[0]] = packed
    return r, p, A


def strict_member(F: Subequation, jet: Jet, c: float, x=None) -> bool:
    """Sampled test that the ``jet_norm`` ball of radius c around the jet
    stays inside F, probed at 64 quasi-random points of its sphere.
    Conservative: a sampled proxy for distance-to-boundary, it can accept
    jets whose true distance is slightly below c.
    """
    dr, dp, dA = _sphere_jets(F.n, 64, c)
    r = jet.r + dr
    p = jet.p[None, :] + dp
    A = jet.A[None, :, :] + dA
    vals = F.value_batch(r, p, A, x)
    center = F.value(jet, x=x)
    return bool(center >= 0.0 and vals.min() >= 0.0)


def asymptotic_interior_member(F: Subequation, jet: Jet, x=None) -> bool:
    """Test membership of a jet in the asymptotic interior of F.

    The value slot is held fixed (for r-dependent F this probes the slice
    at level r = jet.r) while (p, A) and 16 quasi-random points of the
    ``jet_norm`` sphere of radius 1e-2 around it are scaled by t at the 17
    points of the geometric grid from 1 to 1e3; every scaled jet must lie
    in F beyond the boundary band DEFAULT_EPS_B.  For reduced cone-flagged
    F this collapses to robust strict interior membership of the ball
    itself.
    """
    dr, dp, dA = _sphere_jets(F.n, 16, 1e-2)
    p = jet.p[None, :] + dp
    A = jet.A[None, :, :] + dA
    pts = np.concatenate([jet.p[None, :], p])
    As = np.concatenate([jet.A[None, :, :], A])
    rs = np.full(len(pts), jet.r)
    if F.cone and (F.reduced or F.pure_second_order):
        vals = F.value_batch(rs, pts, As, x)
        return bool(vals.min() > DEFAULT_EPS_B)
    for t in np.geomspace(1.0, 1e3, 17):
        vals = F.value_batch(rs, t * pts, t * As, x)
        if vals.min() < -DEFAULT_EPS_B:
            return False
    return True


# ---------------------------------------------------------------------------
# registration sanity


def validate_registration(F: Subequation, seed: int = 0,
                          trials: int = 256) -> dict:
    """Spot-check the registration contract on ``trials`` jets drawn from
    the default ``JetBox``.

    * cone flag: rho keeps its sign along rays (sampled at t = 1/2, 2);
    * boundary points admit interior points within 1e-3 in ``jet_norm``
      (64 quasi-random points of that sphere are probed).

    Returns a small report dict; callers decide whether failures are fatal
    (entries representing closures of discontinuous-fiber sets are documented
    exceptions).
    """
    rng = np.random.default_rng(seed)
    report = {"label": F.label, "cone_sign_ok": True, "boundary_ok": True}
    r, p, A = sample_jet_batch(JetBox(), F.n, trials, rng)
    vals = F.value_batch(r, p, A)
    if F.cone:
        for t in (0.5, 2.0):
            vt = F.value_batch(t * r, t * p, t * A)
            if np.any(np.sign(vt) * np.sign(vals) < -0.5):
                report["cone_sign_ok"] = False
    # walk the first sampled segment crossing onto the boundary, then look
    # for an inside point within the proximity ball; the bisection runs on
    # the packed jet [r, p, A.ravel()]
    cross = np.flatnonzero((vals[:-1] > 0) & (vals[1:] < 0))
    if len(cross):
        i, n = int(cross[0]), F.n
        J = np.concatenate([r[:, None], p, A.reshape(len(r), -1)], axis=1)

        def unpack(v):
            return v[:1], v[None, 1:1 + n], v[1 + n:].reshape(1, n, n)

        jet_in, _ = bisect(lambda v: F.value_batch(*unpack(v))[0] >= 0,
                           J[i], J[i + 1], 60)
        ra, pa, Aa = unpack(jet_in)
        dr, dp, dA = _sphere_jets(F.n, 64, 1e-3, seed=seed)
        vv = F.value_batch(ra + dr, pa + dp, Aa + dA)
        if vv.max() <= 0:
            report["boundary_ok"] = False
    return report
