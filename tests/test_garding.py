"""Generalized-eigenvalue extraction for hyperbolic polynomials.

The anchor oracle is hand-derived: for Q = sigma_2 / 3 on 3x3 matrices at
A = diag(1, 1, -1), the spectrum of tI + A is (t+1, t+1, t-1), so

    3 Q(tI + A) = (t+1)^2 + 2 (t+1)(t-1) = 3t^2 + 2t - 1 = (3t - 1)(t + 1)

with roots 1/3 and -1.  The ascending negated roots are (-1/3, 1).
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subeq import parse_name
from subeq.catalog import make_branch
from subeq.grid import Grid, GridProblem
from subeq.linalg import esym_batch
from subeq.solver import perron_solve
from subeq.garding import (HyperbolicPolynomial, named_polynomial,
                           restriction_coefficients, garding_eigenvalues,
                           hyperbolicity_check, eigenvalues_batch,
                           branch_subequation, garding_cone)
from subeq.errors import ConfigError, NotHyperbolicError

from conftest import random_sym

FROZEN_SIGMA2_EIGS = np.array([-1.0 / 3.0, 1.0])


def roots_reference(A, m):
    """Gårding eigenvalues of sigma_m / binom(n, m) by one ``np.roots`` call
    per matrix on the explicit restriction coefficients."""
    n = A.shape[-1]
    e = esym_batch(np.linalg.eigvalsh(A), m)
    c = np.stack([math.comb(n - j, m - j) / math.comb(n, m) * e[:, j]
                  for j in range(m + 1)], axis=1)
    return np.array([np.sort(-np.roots(ci).real) for ci in c])


def generic_det(n):
    """det through the interpolation route (no fast-path registration)."""
    return HyperbolicPolynomial.from_callable(
        n, n, lambda A: float(np.linalg.det(A)), label="gdet")


class TestAnchor:
    def test_sigma2_frozen_value(self):
        Q = named_polynomial("sigma:2", 3)
        got = garding_eigenvalues(Q, np.diag([1.0, 1.0, -1.0]))
        assert np.allclose(got, FROZEN_SIGMA2_EIGS, atol=1e-9)

    def test_sigma2_frozen_value_generic_route(self):
        # strip the registration so the chebfit/companion path is exercised
        Q0 = named_polynomial("sigma:2", 3)
        Q = HyperbolicPolynomial(Q0.m, Q0.n, Q0.eval_fn, label="s2-generic")
        got = garding_eigenvalues(Q, np.diag([1.0, 1.0, -1.0]))
        assert np.allclose(got, FROZEN_SIGMA2_EIGS, atol=1e-8)


class TestDeterminant:
    def test_matches_ordinary_spectrum(self, rng):
        Q = generic_det(3)
        for _ in range(20):
            A = random_sym(rng, 3)
            got = garding_eigenvalues(Q, A)
            want = np.linalg.eigvalsh(A)
            assert np.allclose(got, want, atol=1e-7)

    def test_batch_fast_path(self, rng):
        Q = named_polynomial("det", 4)
        A = random_sym(rng, 4, size=32)
        assert np.allclose(eigenvalues_batch(Q, A), np.linalg.eigvalsh(A),
                           atol=1e-10)

    def test_restriction_is_charpoly(self, rng):
        Q = generic_det(3)
        A = random_sym(rng, 3)
        c = restriction_coefficients(Q, A)     # monic, descending
        # det(tI + A) = t^3 + tr t^2 + sigma_2 t + det
        w = np.linalg.eigvalsh(A)
        want = np.array([1.0, w.sum(),
                         w[0] * w[1] + w[0] * w[2] + w[1] * w[2],
                         w.prod()])
        assert np.allclose(c, want, atol=1e-8)


class TestAlgebraicRelations:
    def test_shift_covariance(self, rng):
        Q = named_polynomial("sigma:2", 4)
        A = random_sym(rng, 4)
        base = garding_eigenvalues(Q, A)
        for s in (0.7, -1.3):
            shifted = garding_eigenvalues(Q, A + s * np.eye(4))
            assert np.allclose(shifted, base + s, atol=1e-8)

    def test_product_recovers_value(self, rng):
        Q = named_polynomial("sigma:3", 4)
        for _ in range(10):
            A = random_sym(rng, 4)
            lam = garding_eigenvalues(Q, A)
            assert np.isclose(np.prod(lam), Q(A), atol=1e-8)

    def test_identity_eigenvalues_are_ones(self):
        for name, n in (("det", 3), ("sigma:2", 3), ("sigma:3", 5)):
            Q = named_polynomial(name, n)
            assert np.allclose(garding_eigenvalues(Q, np.eye(n)), 1.0,
                               atol=1e-9)

    def test_sigma_batch_matches_scalar(self, rng):
        for k, n in ((2, 3), (3, 4)):
            Q = named_polynomial(f"sigma:{k}", n)
            A = random_sym(rng, n, size=16)
            batch = eigenvalues_batch(Q, A)
            for i in range(len(A)):
                assert np.allclose(batch[i], garding_eigenvalues(Q, A[i]),
                                   atol=1e-7)


class TestRootMap:
    @pytest.mark.parametrize("m, n", [(3, 4), (4, 5)])
    def test_companion_roots_match_np_roots(self, rng, m, n):
        Q = named_polynomial(f"sigma:{m}", n)
        A = random_sym(rng, n, size=1000)
        assert np.array_equal(eigenvalues_batch(Q, A), roots_reference(A, m))
        # np.roots strips the zero coefficients of singular inputs; the
        # batched roots keep them, so only the sign of zero may differ
        S = np.stack([np.zeros((n, n)),
                      np.diag([0.0, 0.0, 2.0] + [0.0] * (n - 3))])
        got, want = eigenvalues_batch(Q, S), roots_reference(S, m)
        assert got.shape == want.shape and np.all(got == want)

    @pytest.mark.parametrize("n", [2, 3])
    def test_det_and_sigma_n_branches_are_real_branches(self, rng, n):
        r = rng.uniform(-5, 5, 1000)
        p = rng.standard_normal((1000, n))
        A = random_sym(rng, n, size=1000)
        for name in ("det", f"sigma:{n}"):
            Q = named_polynomial(name, n)
            for k in range(1, n + 1):
                F, B = branch_subequation(Q, k), make_branch("real", k, n)
                assert F.spectral is not None, (name, k)
                assert np.array_equal(F.value_batch(r, p, A),
                                      B.value_batch(r, p, A)), (name, k)

    @pytest.mark.parametrize("n", [2, 3])
    def test_generic_det_branches_classify_like_real_branches(self, rng, n):
        # no root map: eigenvalues_batch finds each matrix's roots in turn
        Q = generic_det(n)
        assert Q.root_map is None
        r = rng.uniform(-5, 5, 200)
        p = rng.standard_normal((200, n))
        A = random_sym(rng, n, size=200)
        for k in range(1, n + 1):
            F, B = branch_subequation(Q, k), make_branch("real", k, n)
            assert F.spectral is None and F.reduced
            got, want = F.value_batch(r, p, A), B.value_batch(r, p, A)
            assert np.allclose(got, want, atol=1e-6), k
            assert np.array_equal(got >= 0, want >= 0), k

    def test_det_branch_solve_is_the_real_branch_solve(self):
        def bc(x):
            return x[:, 0] ** 2
        g = Grid.regular(((-1, 1), (-1, 1)), 17)
        F = branch_subequation(named_polynomial("det", 2), 1)
        a = perron_solve(GridProblem(g, F, bc))
        b = perron_solve(GridProblem(g, parse_name("branch:real:k=1:n=2"), bc))
        assert a.converged and np.array_equal(a.u, b.u, equal_nan=True)


class TestValidation:
    def test_degree_mismatch_detected(self):
        Q = HyperbolicPolynomial.from_callable(
            2, 3, lambda A: float(np.linalg.det(A)) ** (2.0 / 3.0)
            if np.linalg.det(A) > 0 else 0.0,
            label="bad-deg", check_homogeneity=False)
        with pytest.raises(NotHyperbolicError):
            restriction_coefficients(Q, np.diag([1.0, 2.0, 3.0]))

    def test_inhomogeneous_rejected(self):
        with pytest.raises(ConfigError):
            HyperbolicPolynomial.from_callable(
                2, 2, lambda A: A[0, 0] ** 2 + A[1, 1], label="mixed")

    def test_zero_at_identity_rejected(self):
        with pytest.raises(NotHyperbolicError):
            HyperbolicPolynomial.from_callable(
                1, 2, lambda A: A[0, 0] - A[1, 1], label="traceless")

    def test_named_registry_errors(self):
        with pytest.raises(ConfigError):
            named_polynomial("sigma:9", 3)
        with pytest.raises(ConfigError):
            named_polynomial("resultant", 3)

    def test_complex_roots_raise(self):
        # q_A(t) = (t + a00)^2 + a01^2 leaves the real axis off the diagonal
        Q = HyperbolicPolynomial.from_callable(
            2, 2, lambda A: A[0, 0] ** 2 + A[0, 1] ** 2, label="sos")
        with pytest.raises(NotHyperbolicError):
            garding_eigenvalues(Q, np.array([[0.0, 1.0], [1.0, 0.0]]))


class TestHyperbolicityCheck:
    def test_passes_on_det(self):
        rep = hyperbolicity_check(generic_det(3), trials=40, seed=3)
        assert rep.passed and rep.failures == 0
        assert rep.witness is None

    def test_fails_with_witness(self):
        Q = HyperbolicPolynomial.from_callable(
            2, 2, lambda A: A[0, 0] ** 2 + A[0, 1] ** 2, label="sos")
        rep = hyperbolicity_check(Q, trials=40, seed=3)
        assert not rep.passed and rep.failures > 0
        W = np.array(rep.witness)
        assert W.shape == (2, 2)
        with pytest.raises(NotHyperbolicError):
            garding_eigenvalues(Q, W)
        d = rep.to_json_dict()
        assert d["failures"] == rep.failures and "witness" in d

    def test_trials_guard(self):
        with pytest.raises(ConfigError):
            hyperbolicity_check(generic_det(2), trials=0)

    @staticmethod
    def per_trial(Q, trials, seed, scale=3.0):
        """The reference: one draw and one eigenvalue call per trial."""
        rng = np.random.default_rng(seed)
        failures, witness, detail = 0, None, ""
        for _ in range(trials):
            B = rng.uniform(-scale, scale, (Q.n, Q.n))
            A = 0.5 * (B + B.T)
            try:
                garding_eigenvalues(Q, A)
            except NotHyperbolicError as exc:
                failures += 1
                if witness is None:
                    witness, detail = A.tolist(), str(exc)
        return failures, witness, detail

    @pytest.mark.parametrize("seed", [0, 11])
    def test_root_map_batch_matches_per_trial_loop(self, seed):
        Q = named_polynomial("sigma:2", 3)
        rep = hyperbolicity_check(Q, trials=300, seed=seed)
        assert (rep.failures, rep.witness, rep.detail) == \
            self.per_trial(Q, 300, seed)

    def test_root_map_failure_falls_back_to_per_trial(self):
        # a root map that rejects every matrix with a large top eigenvalue:
        # the batch call raises, and the loop must find the same trials
        def picky(eigs):
            if np.any(eigs[:, -1] > 2.5):
                raise NotHyperbolicError(
                    f"picky: top eigenvalue {eigs[:, -1].max():.6g}")
            return eigs

        Q = replace(named_polynomial("det", 3), root_map=picky)
        rep = hyperbolicity_check(Q, trials=200, seed=4)
        assert 0 < rep.failures < 200
        assert (rep.failures, rep.witness, rep.detail) == \
            self.per_trial(Q, 200, 4)


class TestBranches:
    def test_det_branches_match_catalog_ordering(self, rng):
        Q = named_polynomial("det", 3)
        A = random_sym(rng, 3, size=64)
        lam = np.linalg.eigvalsh(A)
        for k in (1, 2, 3):
            Fk = branch_subequation(Q, k)
            vals = Fk.value_batch(np.zeros(64), np.zeros((64, 3)), A)
            assert np.allclose(vals, lam[:, k - 1], atol=1e-10)

    def test_k_range(self):
        with pytest.raises(ConfigError):
            branch_subequation(named_polynomial("sigma:2", 3), 3)

    def test_principal_cone_midpoint_convexity(self, rng):
        # the k = 1 cone of sigma_2 on R^3 is convex: midpoints of members
        # are members
        Q = named_polynomial("sigma:2", 3)
        C = garding_cone(Q)
        A = random_sym(rng, 3, size=400)
        vals = eigenvalues_batch(Q, A)[:, 0]
        members = A[vals >= 0]
        assert len(members) >= 10
        half = len(members) // 2
        mids = 0.5 * (members[:half] + members[half:2 * half])
        mvals = C.value_batch(np.zeros(half), np.zeros((half, 3)), mids)
        assert mvals.min() >= -1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(-2.0, 2.0))
def test_det_generic_route_property(seed, shift):
    """Interpolation + companion roots reproduce LAPACK for det, shifted."""
    rng = np.random.default_rng(seed)
    A = random_sym(rng, 3) + shift * np.eye(3)
    got = garding_eigenvalues(generic_det(3), A)
    assert np.allclose(got, np.linalg.eigvalsh(A), atol=1e-6)
