"""Spectral kernel tests on dense symmetric arrays against independent
numpy oracles."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subeq import dual, parse_name
import subeq
from subeq.linalg import (eigvalsh_batch, esym_batch, ComplexStructure,
                          field_eigvalsh_batch, hermitian_part_batch,
                          poly_roots_batch,
                          _EIG3_BLOCK, _EIG3_MIN_BATCH)

from conftest import random_sym


# ---------------------------------------------------------------------------
# oracles (plain numpy, no package code)

def oracle_sigma_k(M, k):
    """Elementary symmetric polynomial of the spectrum via np.poly."""
    coeffs = np.poly(np.linalg.eigvalsh(M))   # x^n - e1 x^(n-1) + e2 ... form
    return (-1) ** k * coeffs[k]


def oracle_pucci_plus(B, lam, Lam):
    e = np.linalg.eigvalsh(B)
    return Lam * np.where(e > 0, e, 0).sum(-1) + lam * np.where(e < 0, e, 0).sum(-1)


# ---------------------------------------------------------------------------


def pso_vals(F, A):
    """Margins of a pure-second-order set on a batch of matrices."""
    m, n = len(A), A.shape[-1]
    return F.value_batch(np.zeros(m), np.zeros((m, n)), A)


class TestEigen:
    def test_batch_generic(self, rng):
        for n in (1, 3, 4, 6):
            A = random_sym(rng, n, size=64)
            got = eigvalsh_batch(A)
            want = np.sort(np.linalg.eigvalsh(A), axis=-1)
            assert np.allclose(got, want, atol=1e-10)

    def test_batch_2x2_closed_form(self, rng):
        # the 2x2 path is closed-form; cross-check against LAPACK hard
        A = random_sym(rng, 2, size=512)
        got = eigvalsh_batch(A)
        want = np.sort(np.linalg.eigvalsh(A), axis=-1)
        assert np.max(np.abs(got - want)) < 1e-12

    def test_repeated_eigenvalue(self):
        for n in (2, 3):
            got = eigvalsh_batch(np.eye(n)[None] * 2.0)
            assert np.allclose(got, 2.0)


    def test_poly_roots_match_np_roots(self, rng):
        c = np.concatenate([np.ones((64, 1)), rng.uniform(-3, 3, (64, 4))],
                           axis=1)
        got = poly_roots_batch(c)
        for ci, gi in zip(c, got):
            assert np.array_equal(gi, np.roots(ci))


def rotated(rng, spectra):
    """Q diag(spectrum) Q^T with Haar-random orthogonal Q, one per row."""
    Q, R = np.linalg.qr(rng.standard_normal((len(spectra), 3, 3)))
    Q = Q * np.sign(np.diagonal(R, axis1=1, axis2=2))[:, None, :]
    A = np.einsum("nij,nj,nkj->nik", Q, spectra, Q)
    return 0.5 * (A + np.swapaxes(A, 1, 2))


def assert_matches_lapack(A, got):
    """Ascending rows within 1e-13 * max|A| of LAPACK, row by row."""
    want = np.linalg.eigvalsh(A)
    scale = np.abs(A).reshape(len(A), -1).max(axis=1)
    assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * scale)
    assert np.all(np.diff(got, axis=1) >= 0)


class TestClosedForm3x3:
    """3x3 stacks of at least _EIG3_MIN_BATCH matrices take the closed form,
    with LAPACK for the rows its guard sends back."""

    N = _EIG3_MIN_BATCH

    @pytest.mark.parametrize("end", ["bottom", "top"])
    def test_near_repeated_eigenvalues(self, rng, end):
        gaps = np.logspace(0, -12, 4 * self.N)
        ones = np.ones_like(gaps)
        spectra = (np.stack([-ones, -1 + gaps, ones], axis=1) if end == "bottom"
                   else np.stack([-ones, 1 - gaps, ones], axis=1))
        A = rotated(rng, spectra)
        assert_matches_lapack(A, eigvalsh_batch(A))

    @pytest.mark.parametrize("kind", ["double", "triple", "identity", "shift",
                                      "scale"])
    def test_degenerate_shifted_and_scaled(self, rng, kind):
        N = self.N
        t = rng.uniform(-3, 3, N)
        if kind == "double":
            A = np.stack([np.diag([a, a, 2 * a + 1]) for a in t])
            A = np.concatenate([A, rotated(rng, np.stack(
                [t, t, t + rng.uniform(0.1, 3, N)], axis=1))])
        elif kind == "triple":
            A = rotated(rng, np.repeat(t[:, None], 3, axis=1))
        elif kind == "identity":
            A = 10.0 ** rng.uniform(-300, 300, N)[:, None, None] * np.eye(3)
        elif kind == "shift":
            A = (random_sym(rng, 3, size=N)
                 + 10.0 ** rng.uniform(0, 8, N)[:, None, None] * np.eye(3))
        else:
            A = (random_sym(rng, 3, size=N)
                 * 10.0 ** rng.uniform(-150, 150, N)[:, None, None])
        assert_matches_lapack(A, eigvalsh_batch(A))

    def test_non_finite_rows_behave_as_lapack(self, rng):
        A = random_sym(rng, 3, size=self.N)
        A[3, 0, 0] = np.inf
        A[5, 1, 2] = A[5, 2, 1] = -np.inf
        A[8, 0, 2] = np.inf             # upper triangle only: LAPACK reads L
        got, want = eigvalsh_batch(A), np.linalg.eigvalsh(A)
        rows = [3, 5, 8]
        assert np.array_equal(got[rows], want[rows], equal_nan=True)
        assert np.isnan(got[[3, 5]]).all() and np.isfinite(got[8]).all()
        A[9, 1, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.eigvalsh(A)
        with pytest.raises(np.linalg.LinAlgError):
            eigvalsh_batch(A)

    def test_blocks_mix_guarded_and_closed_form_rows(self, rng):
        N = 2 * _EIG3_BLOCK + 300
        A = random_sym(rng, 3, size=N)
        # every seventh row has a double eigenvalue and goes to LAPACK,
        # which gives it the bits it gets in a call on the whole stack
        rows = np.arange(0, N, 7)
        t = rng.uniform(-3, 3, len(rows))
        A[rows] = rotated(rng, np.stack([t, t + 1, t + 1], axis=1))
        got = eigvalsh_batch(A)
        assert_matches_lapack(A, got)
        assert np.array_equal(got[rows], np.linalg.eigvalsh(A[rows]))

    def test_batch_size_threshold(self, rng):
        A = random_sym(rng, 3, size=self.N + 1)
        below = A[:self.N - 1]
        assert np.array_equal(eigvalsh_batch(below), np.linalg.eigvalsh(below))
        for size in (self.N, self.N + 1):
            got = eigvalsh_batch(A[:size])
            assert_matches_lapack(A[:size], got)
        # the closed form is used from the threshold on: its last bits differ
        assert not np.array_equal(got, np.linalg.eigvalsh(A))


EIGEN_CALLS = {"eigvalsh", "eigh", "eigvals", "eig", "roots"}


def _eigen_call_sites(path):
    """Dotted names of numpy eigenvalue and root routines used in a module,
    code only: ``np.linalg.eigvalsh``, ``np.roots``, their imports."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in EIGEN_CALLS:
            base = ast.unparse(node.value)
            if base in ("np", "numpy", "np.linalg", "numpy.linalg"):
                found.append(f"{base}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module and \
                node.module.startswith("numpy"):
            found += [f"{node.module}.{a.name}" for a in node.names
                      if a.name in EIGEN_CALLS]
    return found


def test_eigen_and_root_calls_live_in_linalg():
    """Outside linalg.py the only eigen call is appb case 5's eigh, which
    needs eigenvectors; every other module goes through the kernels."""
    sites = {}
    for path in sorted(Path(subeq.__file__).parent.glob("*.py")):
        if path.name != "linalg.py" and _eigen_call_sites(path):
            sites[path.name] = _eigen_call_sites(path)
    assert sites == {"catalog.py": ["np.linalg.eigh"]}


class TestSigmaAndPucci:
    def test_sigma_k_vs_charpoly(self, rng):
        for n in (2, 3, 4):
            M = random_sym(rng, n, size=16)
            e = esym_batch(eigvalsh_batch(M), n)
            for k in range(1, n + 1):
                want = [oracle_sigma_k(Mi, k) for Mi in M]
                assert np.allclose(e[:, k], want, rtol=1e-9, atol=1e-9)

    def test_sigma_1_is_trace(self, rng):
        M = random_sym(rng, 3, size=16)
        e = esym_batch(eigvalsh_batch(M), 1)
        assert np.allclose(e[:, 0], 1.0)
        assert np.allclose(e[:, 1], np.trace(M, axis1=1, axis2=2))

    def test_pucci_plus_minus_duality(self, rng):
        # the dual of the P^- cone is the P^+ cone: P^+(B) = -P^-(-B)
        B = random_sym(rng, 4, size=64)
        F = dual(parse_name("pucci:lam=0.5:Lam=2:n=4"))
        assert np.allclose(pso_vals(F, B), oracle_pucci_plus(B, 0.5, 2.0),
                           atol=1e-9)

    def test_pucci_on_identity(self):
        # all eigenvalues 1: P^- = lam * n
        F = parse_name("pucci:lam=0.7:Lam=2:n=3")
        assert np.isclose(pso_vals(F, np.eye(3)[None])[0], 2.1)


class TestHermitianPart:
    def test_complex_structure_squares_to_minus_id(self):
        for m in (1, 2, 3):
            S = ComplexStructure.standard_complex(m)
            J = S.mats[0]
            assert np.allclose(J @ J, -np.eye(2 * m))

    def test_hermitian_part_commutes_with_J(self, rng):
        S = ComplexStructure.standard_complex(2)
        J = S.mats[0]
        A = random_sym(rng, 4)
        H = hermitian_part_batch(A[None], S)[0]
        assert np.allclose(J @ H, H @ J, atol=1e-10)
        assert np.allclose(H, H.T, atol=1e-12)
        # projection: idempotent on the hermitian subspace
        H2 = hermitian_part_batch(H[None], S)[0]
        assert np.allclose(H, H2, atol=1e-10)

    def test_hermitian_part_formula(self, rng):
        # averaging oracle: (A + J^T A J)/2, J orthogonal with J^T = -J
        S = ComplexStructure.standard_complex(3)
        J = S.mats[0]
        A = random_sym(rng, 6, size=8)
        want = 0.5 * (A + np.einsum("ji,njk,kl->nil", J, A, J))
        assert np.allclose(hermitian_part_batch(A, S), want, atol=1e-12)

    @pytest.mark.parametrize("S", [ComplexStructure.standard_complex(3),
                                   ComplexStructure.standard_quaternionic(2)])
    def test_matches_einsum_reference(self, rng, S):
        A = random_sym(rng, S.mats[0].shape[0], size=64)
        want = A.copy()
        for J in S.mats:
            want = want - np.einsum("ij,njk,kl->nil", J, A, J)
        want /= 1 + len(S.mats)
        assert np.allclose(hermitian_part_batch(A, S), want, rtol=0.0,
                           atol=1e-13)

    def test_quaternionic_eigen_multiplicity(self, rng):
        # quaternionic-hermitian matrices have spectra of multiplicity 4
        Q = ComplexStructure.standard_quaternionic(2)
        A = random_sym(rng, 8)
        H = hermitian_part_batch(A[None], Q)[0]
        w = np.linalg.eigvalsh(H)
        assert np.allclose(w.reshape(2, 4), w.reshape(2, 4)[:, :1], atol=1e-8)


STRUCTURES = {
    "C1": ComplexStructure.standard_complex(1),
    "C2": ComplexStructure.standard_complex(2),
    "C3": ComplexStructure.standard_complex(3),
    "H1": ComplexStructure.standard_quaternionic(1),
    "H2": ComplexStructure.standard_quaternionic(2),
}


def lapack_field_eigs(A, S):
    """Oracle: every (2 or 4)-th of LAPACK's spectrum of the hermitian part."""
    return np.linalg.eigvalsh(hermitian_part_batch(A, S))[:, ::1 + len(S.mats)]


class TestFieldEigenvalues:
    """field_eigvalsh_batch against LAPACK on hermitian_part_batch: closed
    forms for one and two field dimensions, LAPACK beyond."""

    @staticmethod
    def assert_close(A, S, got):
        want = lapack_field_eigs(A, S)
        scale = np.abs(A).reshape(len(A), -1).max(axis=1)
        assert got.shape == (len(A), S.m)
        assert np.all(np.abs(got - want).max(axis=1) <= 1e-13 * scale)
        assert np.all(np.diff(got, axis=1) >= 0)

    @pytest.mark.parametrize("key", sorted(STRUCTURES))
    @pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
    def test_matches_lapack(self, rng, key, scale):
        S = STRUCTURES[key]
        A = random_sym(rng, S.dim, size=256) * scale
        self.assert_close(A, S, field_eigvalsh_batch(A, S))

    @pytest.mark.parametrize("key", ["C2", "H2"])
    def test_repeated_and_near_repeated(self, rng, key):
        S = STRUCTURES[key]
        N = 256
        t = rng.uniform(-3, 3, N)[:, None, None]
        # t I plus a part the projection removes: field spectrum {t, t}
        R = random_sym(rng, S.dim, size=N)
        A = t * np.eye(S.dim) + R - hermitian_part_batch(R, S)
        got = field_eigvalsh_batch(A, S)
        self.assert_close(A, S, got)
        assert np.allclose(got, t[:, :, 0], rtol=0, atol=1e-14 * 3)
        # gaps from 1 down to 1e-12 around t
        gaps = np.logspace(0, -12, N)[:, None, None]
        A = t * np.eye(S.dim) + gaps * random_sym(rng, S.dim, size=N)
        self.assert_close(A, S, field_eigvalsh_batch(A, S))
        # exact zero matrices: q = 0 takes the closed form; so do empty
        # stacks, such as a sampler chunk without survivors
        for N in (4, 0):
            got = field_eigvalsh_batch(np.zeros((N, S.dim, S.dim)), S)
            assert np.array_equal(got, np.zeros((N, S.m)))

    @pytest.mark.parametrize("key", sorted(STRUCTURES))
    def test_non_finite_rows_behave_as_lapack(self, rng, key):
        S = STRUCTURES[key]
        for i, j, v in [(0, 0, np.inf), (0, S.dim - 1, -np.inf),
                        (0, 1, np.inf), (1, 1, np.nan)]:
            A = random_sym(rng, S.dim, size=8)
            A[3, i, j] = v            # upper entry only, or the diagonal
            with np.errstate(all="ignore"):
                try:
                    want = lapack_field_eigs(A, S)
                except np.linalg.LinAlgError:
                    with pytest.raises(np.linalg.LinAlgError):
                        field_eigvalsh_batch(A, S)
                    continue
                got = field_eigvalsh_batch(A, S)
            assert np.array_equal(got[3], want[3], equal_nan=True)
            ok = np.arange(8) != 3
            assert np.allclose(got[ok], want[ok], rtol=0, atol=1e-13 * 3)

    @pytest.mark.parametrize("key", ["C2", "H2"])
    def test_out_of_range_rows_take_lapack(self, rng, key):
        # squares overflow above ~1e154 and lose bits below ~1e-154
        S = STRUCTURES[key]
        A = random_sym(rng, S.dim, size=64)
        A[::2] *= 1e200
        A[1::2] *= 1e-200
        self.assert_close(A, S, field_eigvalsh_batch(A, S))

    @pytest.mark.parametrize("key", ["C2", "H2"])
    def test_rotated_structure_takes_lapack_and_agrees(self, rng, key):
        # Q S Q^t is a structure whose field lines are not coordinate blocks:
        # no closed form, and the field spectrum of Q A Q^t is that of A
        S = STRUCTURES[key]
        Q = np.linalg.qr(rng.standard_normal((S.dim, S.dim)))[0]
        T = ComplexStructure(S.kind, S.m, tuple(Q @ M @ Q.T for M in S.mats))
        assert T._field_weights is None and S._field_weights is not None
        A = random_sym(rng, S.dim, size=64)
        B = np.einsum("ij,njk,lk->nil", Q, A, Q)
        got = field_eigvalsh_batch(B, T)
        assert np.array_equal(got, lapack_field_eigs(B, T))
        assert np.allclose(got, field_eigvalsh_batch(A, S), rtol=0,
                           atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10 ** 6))
def test_eigs_shift_property(n, seed):
    """ordered eigenvalues commute with spectral shift A + tI (n = 2 runs
    the closed-form 2x2 path)."""
    r = np.random.default_rng(seed)
    M = r.standard_normal((n, n))
    M = 0.5 * (M + M.T)
    t = float(r.uniform(-4, 4))
    w1 = eigvalsh_batch((M + t * np.eye(n))[None])[0]
    w2 = eigvalsh_batch(M[None])[0] + t
    assert np.allclose(w1, w2, atol=1e-9)
