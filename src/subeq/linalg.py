"""Batched eigenvalues of symmetric matrices and the small spectral toolbox
used everywhere else in the package.

Matrices here are small (n <= 16): second-derivative data of functions of a
few variables, held as plain dense arrays, one (n, n) matrix or an
(N, n, n) stack.  The eigenvalue kernel is ``eigvalsh_batch``: closed
forms for 2x2 stacks (the quadratic formula) and for 3x3 stacks of at least
``_EIG3_MIN_BATCH`` matrices (the trigonometric solution of the
characteristic cubic, O. K. Smith 1961), LAPACK otherwise.  The 3x3 form
sends rows near a repeated eigenvalue, where acos is ill-conditioned, and
rows out of floating-point range to LAPACK.  Field eigenvalues of the
hermitian part for a complex or quaternionic structure come from
``field_eigvalsh_batch``: the diagonal mean for one field dimension, and
for two the closed form of the field matrix [[a, c], [conj(c), b]],
mu = (a + b)/2 -+ sqrt(((a - b)/2)^2 + |c|^2), with a, b and |c|^2 read
from the entries of A.  Polynomial roots come from the companion
eigenvalues of ``poly_roots_batch``.  No other module calls an eigenvalue
or root routine, except catalog appb case 5, which needs eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DimensionMismatch

MAX_DIM = 16


def _as_dense(A) -> np.ndarray:
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"not square: {M.shape}")
    return M


# ---------------------------------------------------------------------------
# batched eigenvalues and spectral functionals


# Timings below: one BLAS thread on a shared 2-core x86 box.
# |r| > 1 - tau goes to LAPACK.  On rotated spectra with gaps from 1 down to
# 1e-12 the closed form's error is 7.5e-15, 2.2e-14 and 8.3e-14 * max|A| at
# tau = 1e-3, 1e-4, 1e-5 (LAPACK's own: 1.7e-15), and 2.6%, 0.83% and 0.26%
# of the calculus battery's 1.1e6 matrices fall back: 1e-4 keeps a 4x
# margin under the 1e-13 the tests allow.
_EIG3_TAU = 1e-4
# ns per matrix on 1e5 random matrices: blocks of 1024, 4096, 16384 and the
# whole stack take 178, 94, 91 and 210; 4096 is the smallest at the plateau.
_EIG3_BLOCK = 4096
# LAPACK takes 58 us for 64 matrices and 117 us for 128, the closed form 49
# and 54 us, almost all of it per-call numpy dispatch; a stack whose rows
# all fall back pays both (101 us against 39 for 128 repeated spectra), so
# smaller stacks, such as the solver's per-colour node updates, keep LAPACK.
_EIG3_MIN_BATCH = 128


def _eigvalsh_3x3(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of an (N, 3, 3) stack by the trigonometric
    solution of the characteristic cubic, rows near a repeated eigenvalue
    or out of floating-point range by LAPACK."""
    N = len(A)
    out = np.empty((N, 3))
    guarded = np.zeros(N, dtype=bool)
    # out-of-range rows make NaN and inf here, and the guard sends them on
    with np.errstate(all="ignore"):
        for s in range(0, N, _EIG3_BLOCK):
            a = A[s:s + _EIG3_BLOCK].reshape(-1, 9).T
            q = (a[0] + a[4] + a[8]) / 3.0
            b00, b11, b22 = a[0] - q, a[4] - q, a[8] - q
            b01 = 0.5 * (a[1] + a[3])
            b02 = 0.5 * (a[2] + a[6])
            b12 = 0.5 * (a[5] + a[7])
            p2 = (b00 * b00 + b11 * b11 + b22 * b22
                  + 2.0 * (b01 * b01 + b02 * b02 + b12 * b12)) / 6.0
            p = np.sqrt(p2)
            # r = det(B / p) / 2, taken on the scaled matrix so that p^3 and
            # det B cannot overflow or underflow
            inv = 1.0 / p
            c00, c11, c22 = b00 * inv, b11 * inv, b22 * inv
            c01, c02, c12 = b01 * inv, b02 * inv, b12 * inv
            r = 0.5 * (c00 * (c11 * c22 - c12 * c12)
                       - c01 * (c01 * c22 - c12 * c02)
                       + c02 * (c01 * c12 - c11 * c02))
            # NaN r (p = 0, non-finite entries) fails the first test; p2
            # subnormal or infinite makes r meaningless and fails the others
            ok = ((np.abs(r) <= 1.0 - _EIG3_TAU)
                  & (p2 >= np.finfo(float).tiny) & (p2 < np.inf))
            phi = np.arccos(r) / 3.0
            hi = q + 2.0 * p * np.cos(phi)
            lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
            o = out[s:s + _EIG3_BLOCK]
            o[:, 0] = lo
            # where the spread p is near rounding of q (A close to qI),
            # 3q - hi - lo can fall just outside [lo, hi]
            o[:, 1] = np.clip(3.0 * q - hi - lo, lo, hi)
            o[:, 2] = hi
            guarded[s:s + _EIG3_BLOCK] = ~ok
    if guarded.any():
        out[guarded] = np.linalg.eigvalsh(A[guarded])
    return out


def eigvalsh_batch(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric matrices (N, n, n).

    2x2 stacks use the closed quadratic formula (per-call LAPACK overhead
    dominates at that size, and the solver's inner loop hits this path).
    3x3 stacks of at least ``_EIG3_MIN_BATCH`` matrices use the
    trigonometric solution of the characteristic cubic: with q = tr A / 3,
    B = A - qI, p = sqrt(tr B^2 / 6) and r = det(B / p) / 2, the extreme
    eigenvalues are q + 2p cos(acos(r)/3 + 2 pi k/3) and the middle one is
    3q minus the other two, clamped between them, computed in blocks of
    ``_EIG3_BLOCK`` matrices.
    acos is ill-conditioned at |r| = 1, a repeated eigenvalue, so rows with
    |r| > 1 - ``_EIG3_TAU``, p = 0, non-finite entries or tr B^2 outside
    the normal floating-point range go to LAPACK.  Both closed forms read
    the mean of each off-diagonal pair.  Smaller 3x3 stacks and every other
    size are LAPACK-backed.  The paths agree with LAPACK to 1e-13 * max|A|
    (cross-checked in the tests).
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 2 and A.ndim == 3:
        half_tr = 0.5 * (A[:, 0, 0] + A[:, 1, 1])
        b = 0.5 * (A[:, 0, 1] + A[:, 1, 0])
        disc = np.sqrt((0.5 * (A[:, 0, 0] - A[:, 1, 1])) ** 2 + b * b)
        return np.stack([half_tr - disc, half_tr + disc], axis=1)
    if A.shape[-1] == 3 and A.ndim == 3 and len(A) >= _EIG3_MIN_BATCH:
        return _eigvalsh_3x3(A)
    return np.linalg.eigvalsh(A)


def poly_roots_batch(c: np.ndarray) -> np.ndarray:
    """Complex roots of monic polynomials, one per row of c (N, m+1) in
    descending powers with c[:, 0] == 1: the eigenvalues of the companion
    matrices, built as ``np.roots`` builds them.  Unlike ``np.roots`` no
    zero coefficient is stripped, so every row has all m roots (N, m)."""
    N, m = len(c), c.shape[1] - 1
    C = np.zeros((N, m, m))
    C[:, 0, :] = -c[:, 1:]
    C[:, np.arange(1, m), np.arange(m - 1)] = 1.0
    return np.linalg.eigvals(C)


def esym_batch(eigs: np.ndarray, kmax: int) -> np.ndarray:
    """Elementary symmetric polynomials e_0..e_kmax of each eigenvalue row.

    (N, n) rows in, (N, kmax + 1) out, by the product recurrence over the
    rows' entries in order.
    """
    N, n = eigs.shape
    e = np.zeros((N, kmax + 1))
    e[:, 0] = 1.0
    for i in range(n):
        x = eigs[:, i]
        for j in range(min(kmax, i + 1), 0, -1):
            e[:, j] += x * e[:, j - 1]
    return e


# ---------------------------------------------------------------------------
# complex / quaternionic structures and hermitian parts


def _standard_complex_J(m: int) -> np.ndarray:
    J = np.zeros((2 * m, 2 * m))
    blk = np.array([[0.0, -1.0], [1.0, 0.0]])
    for i in range(m):
        J[2 * i:2 * i + 2, 2 * i:2 * i + 2] = blk
    return J


def _standard_quaternion_IJK(m: int):
    # left multiplication by i, j, k on H^m with basis (1, i, j, k) per factor
    I1 = np.array([
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    J1 = np.array([
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ])
    K1 = np.array([
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ])
    out = []
    for B in (I1, J1, K1):
        M = np.zeros((4 * m, 4 * m))
        for i in range(m):
            M[4 * i:4 * i + 4, 4 * i:4 * i + 4] = B
        out.append(M)
    return tuple(out)


@dataclass(frozen=True)
class ComplexStructure:
    """Orthogonal (anti-)involutions giving R^{2m} a complex structure or
    R^{4m} a quaternionic one.  Construction validates the algebra to 1e-12.
    """

    kind: str                   # "complex" | "quaternionic"
    m: int
    mats: tuple = field(repr=False)

    def __post_init__(self):
        tol = 1e-12
        dim = self.dim
        for M in self.mats:
            if M.shape != (dim, dim):
                raise DimensionMismatch("structure matrix of wrong shape")
            if float(np.abs(M @ M + np.eye(dim)).max()) > tol:
                raise ValueError("structure matrix does not square to -Id")
            if float(np.abs(M.T @ M - np.eye(dim)).max()) > tol:
                raise ValueError("structure matrix is not orthogonal")
        if self.kind == "quaternionic":
            I, J, K = self.mats
            if float(np.abs(I @ J - K).max()) > tol:
                raise ValueError("I*J != K for quaternionic structure")

    @property
    def dim(self) -> int:
        return {"complex": 2, "quaternionic": 4}[self.kind] * self.m

    @cached_property
    def _field_weights(self) -> Optional[np.ndarray]:
        """Weights (D*D, K) that take a flattened (D, D) matrix A to the
        entries of its hermitian part H that fix the field spectrum, or None
        where ``field_eigvalsh_batch`` has no closed form.

        That form needs m <= 2 and, for m = 2, structure matrices that are
        block diagonal in the two field lines (D/2 x D/2 blocks), as the
        standard ones are.  Then H is [[a I, X], [X^t, b I]] with X = |c|
        times an orthogonal matrix, so the columns are a = H[0, 0], for
        m = 2 also b = H[d, d] and the first column of X (|c|^2 is its
        squared norm), and last the plain sum of A's entries, which is not
        finite when an entry is not (or when the sum overflows).  Each
        weight is H's entry on the symmetric part of A: off-diagonal pairs
        are averaged.  Read-only.
        """
        D, m = self.dim, self.m
        d = D // m
        if m > 2 or any(np.any(S[:d, d:]) or np.any(S[d:, :d])
                        for S in self.mats):
            return None
        E = np.eye(D * D).reshape(D * D, D, D)
        H = hermitian_part_batch(0.5 * (E + E.transpose(0, 2, 1)), self)
        cols = [H[:, 0, 0]]
        if m == 2:
            cols += [H[:, d, d]] + [H[:, i, d] for i in range(d)]
        W = np.stack(cols + [np.ones(D * D)], axis=1)
        W.flags.writeable = False
        return W

    @classmethod
    def standard_complex(cls, m: int) -> "ComplexStructure":
        return cls("complex", m, (_standard_complex_J(m),))

    @classmethod
    def standard_quaternionic(cls, m: int) -> "ComplexStructure":
        return cls("quaternionic", m, _standard_quaternion_IJK(m))


def hermitian_part_batch(A: np.ndarray, structure: ComplexStructure) -> np.ndarray:
    """Projection of each matrix of an (N, d, d) stack onto the matrices
    commuting with the structure.

    complex:       (A - JAJ) / 2
    quaternionic:  (A - IAI - JAJ - KAK) / 4
    """
    acc = A.copy()
    for S in structure.mats:
        acc = acc - S @ A @ S
    return acc / (1 + len(structure.mats))


def field_eigvalsh_batch(A: np.ndarray,
                         structure: ComplexStructure) -> np.ndarray:
    """Ascending field eigenvalues (N, m) of the hermitian parts of an
    (N, D, D) stack: the real spectrum of ``hermitian_part_batch`` repeats
    each of them 2 (complex) or 4 (quaternionic) times.

    For m = 1 the one eigenvalue is the diagonal mean of H.  For m = 2 the
    field matrix is [[a, c], [conj(c), b]], so mu = (a + b)/2 -+
    sqrt(((a - b)/2)^2 + |c|^2), with a, b and c read from A's entries by
    one matrix product (``ComplexStructure._field_weights``); H is not
    formed.  Rows with a non-finite entry, and rows whose
    ((a - b)/2)^2 + |c|^2 leaves the normal floating-point range while
    a != b or c != 0, take LAPACK on their hermitian parts; the first
    behave as they do in LAPACK on the whole stack.  Other m, and m = 2
    structures not block diagonal in the field lines, take
    ``eigvalsh_batch`` of the hermitian part.
    """
    A = np.asarray(A, dtype=float)
    mult = 1 + len(structure.mats)
    W = structure._field_weights
    if W is None:
        return eigvalsh_batch(hermitian_part_batch(A, structure))[:, ::mult]
    N = len(A)
    V = A.reshape(N, len(W)) @ W
    guarded = ~np.isfinite(V[:, -1])
    if structure.m == 1:
        out = V[:, :1].copy()
    else:
        # non-finite rows make NaN and inf here, and the guard sends them on
        with np.errstate(all="ignore"):
            a, b = V[:, 0], V[:, 1]
            mean, half = 0.5 * (a + b), 0.5 * (a - b)
            q = half * half + np.einsum("ni,ni->n", V[:, 2:-1], V[:, 2:-1])
            disc = np.sqrt(q)
        # squares that overflow or leave the normal range lose the spread,
        # unless it is exactly zero
        odd = ~((q >= np.finfo(float).tiny) & (q < np.inf))
        if odd.any():
            odd[odd] = (half[odd] != 0.0) | V[odd, 2:-1].any(axis=1)
            guarded |= odd
        out = np.stack([mean - disc, mean + disc], axis=1)
    if guarded.any():
        H = hermitian_part_batch(A[guarded], structure)
        out[guarded] = np.linalg.eigvalsh(H)[:, ::mult]
    return out
