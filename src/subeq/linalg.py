"""Symmetric matrices, batched eigenvalues and the small spectral toolbox
used everywhere else in the package.

Matrices here are small (n <= 16): second-derivative data of functions of a
few variables.  The eigenvalue kernel is ``eigvalsh_batch`` (closed form
for 2x2 stacks, LAPACK otherwise); polynomial roots come from the companion
eigenvalues of ``poly_roots_batch``.  No other module calls an eigenvalue
or root routine, except catalog appb case 5, which needs eigenvectors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

MAX_DIM = 16


# ---------------------------------------------------------------------------
# symmetric matrices, packed storage


def _packed_size(n: int) -> int:
    return n * (n + 1) // 2


@dataclass(frozen=True)
class SymMatrix:
    """Real symmetric n x n matrix.

    Only the upper triangle is stored, so symmetry is structural rather than
    a numerical promise.
    """

    n: int
    packed: np.ndarray = field(repr=False)

    def __post_init__(self):
        if not (1 <= self.n <= MAX_DIM):
            raise DimensionMismatch(f"dimension {self.n} outside 1..{MAX_DIM}")
        packed = np.asarray(self.packed, dtype=float)
        if packed.shape != (_packed_size(self.n),):
            raise DimensionMismatch(
                f"packed storage has {packed.shape}, expected ({_packed_size(self.n)},)"
            )
        object.__setattr__(self, "packed", packed)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_dense(cls, M, check: bool = True, tol: float = 1e-9) -> "SymMatrix":
        M = np.asarray(M, dtype=float)
        if M.ndim != 2 or M.shape[0] != M.shape[1]:
            raise DimensionMismatch(f"not square: {M.shape}")
        n = M.shape[0]
        if check:
            scale = max(1.0, float(np.abs(M).max()))
            if float(np.abs(M - M.T).max()) > tol * scale:
                raise ValueError("matrix is not symmetric within tolerance")
        iu = np.triu_indices(n)
        return cls(n, M[iu].copy())

    @classmethod
    def diag(cls, values) -> "SymMatrix":
        values = np.asarray(values, dtype=float)
        return cls.from_dense(np.diag(values), check=False)

    @classmethod
    def identity(cls, n: int) -> "SymMatrix":
        return cls.diag(np.ones(n))

    @classmethod
    def zero(cls, n: int) -> "SymMatrix":
        return cls(n, np.zeros(_packed_size(n)))

    # -- views --------------------------------------------------------------

    @property
    def mat(self) -> np.ndarray:
        """Dense symmetric view (freshly allocated)."""
        M = np.zeros((self.n, self.n))
        iu = np.triu_indices(self.n)
        M[iu] = self.packed
        M.T[iu] = self.packed
        return M

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise DimensionMismatch("size mismatch in SymMatrix addition")
        return SymMatrix(self.n, self.packed + other.packed)

    def __sub__(self, other: "SymMatrix") -> "SymMatrix":
        if self.n != other.n:
            raise DimensionMismatch("size mismatch in SymMatrix subtraction")
        return SymMatrix(self.n, self.packed - other.packed)

    def __neg__(self) -> "SymMatrix":
        return SymMatrix(self.n, -self.packed)

    def scale(self, t: float) -> "SymMatrix":
        return SymMatrix(self.n, t * self.packed)

    def __mul__(self, t: float) -> "SymMatrix":
        return self.scale(float(t))

    __rmul__ = __mul__

    def trace(self) -> float:
        idx = np.cumsum([0] + list(range(self.n, 1, -1)))
        return float(self.packed[idx].sum())

    def quad(self, v) -> float:
        """v^T A v."""
        v = np.asarray(v, dtype=float)
        return float(v @ self.mat @ v)


def _as_dense(A) -> np.ndarray:
    if isinstance(A, SymMatrix):
        return A.mat
    M = np.asarray(A, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise DimensionMismatch(f"not square: {M.shape}")
    return M


# ---------------------------------------------------------------------------
# batched eigenvalues and spectral functionals


def eigvalsh_batch(A: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a stack of symmetric matrices (N, n, n).

    2x2 stacks use the closed quadratic formula (per-call LAPACK overhead
    dominates at that size, and the solver's inner loop hits this path);
    everything else is LAPACK-backed.  The two paths agree to roundoff
    (cross-checked in the tests).
    """
    A = np.asarray(A, dtype=float)
    if A.shape[-1] == 2 and A.ndim == 3:
        half_tr = 0.5 * (A[:, 0, 0] + A[:, 1, 1])
        b = 0.5 * (A[:, 0, 1] + A[:, 1, 0])
        disc = np.sqrt((0.5 * (A[:, 0, 0] - A[:, 1, 1])) ** 2 + b * b)
        return np.stack([half_tr - disc, half_tr + disc], axis=1)
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
