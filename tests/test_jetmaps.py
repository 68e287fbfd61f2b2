"""Jet-space automorphisms: group laws and transported subequations."""

import numpy as np
import pytest

from subeq import parse_name, dual
from subeq.core import Jet
from subeq.linalg import ComplexStructure, hermitian_part_batch
from subeq.errors import ConfigError, DimensionMismatch
from subeq.jetmaps import (AffineJetMap, apply, apply_batch, compose, invert,
                           linear_part, negate_translation,
                           transform_subequation, inhom_branch,
                           calabi_yau_map, complex_calabi_yau)

from conftest import random_sym


def rand_map(rng, n, with_L=True, with_S=True, label="m"):
    g = rng.uniform(-1, 1, (n, n)) + 1.5 * np.eye(n)
    h = rng.uniform(-1, 1, (n, n)) + 1.5 * np.eye(n)
    L = rng.uniform(-1, 1, (n, n, n)) if with_L else None
    P = AffineJetMap.linear(g, h, L=L, label=label)
    if with_S:
        S = (rng.uniform(-1, 1), rng.uniform(-1, 1, n), random_sym(rng, n))
        T = AffineJetMap.translation(S, label="t")
        P = compose(T, P)
    return P


def rand_jet(rng, n):
    return Jet(float(rng.uniform(-2, 2)), rng.uniform(-2, 2, n),
               random_sym(rng, n))


def jets_close(J1, J2, tol=1e-9):
    return (abs(J1.r - J2.r) <= tol and np.allclose(J1.p, J2.p, atol=tol)
            and np.allclose(J1.A, J2.A, atol=tol))


class TestGroupLaws:
    def test_identity_fixes_jets(self, rng):
        I = AffineJetMap.identity(3)
        J = rand_jet(rng, 3)
        assert jets_close(apply(I, None, J), J)

    def test_compose_matches_pointwise(self, rng):
        for _ in range(5):
            P1 = rand_map(rng, 3, label="a")
            P2 = rand_map(rng, 3, label="b")
            J = rand_jet(rng, 3)
            lhs = apply(compose(P2, P1), None, J)
            rhs = apply(P2, None, apply(P1, None, J))
            assert jets_close(lhs, rhs, tol=1e-8)

    def test_associativity(self, rng):
        P1, P2, P3 = (rand_map(rng, 2, label=c) for c in "abc")
        J = rand_jet(rng, 2)
        lhs = apply(compose(P3, compose(P2, P1)), None, J)
        rhs = apply(compose(compose(P3, P2), P1), None, J)
        assert jets_close(lhs, rhs, tol=1e-8)

    def test_inverse_round_trip(self, rng):
        for _ in range(5):
            P = rand_map(rng, 3)
            Pi = invert(P)
            J = rand_jet(rng, 3)
            assert jets_close(apply(Pi, None, apply(P, None, J)), J, tol=1e-7)
            assert jets_close(apply(P, None, apply(Pi, None, J)), J, tol=1e-7)

    def test_double_inverse(self, rng):
        P = rand_map(rng, 2)
        Pii = invert(invert(P))
        J = rand_jet(rng, 2)
        assert jets_close(apply(Pii, None, J), apply(P, None, J), tol=1e-7)

    def test_constant_maps_stay_constant(self, rng):
        P1, P2 = rand_map(rng, 2, label="a"), rand_map(rng, 2, label="b")
        for P in (compose(P2, P1), invert(P1), linear_part(P1),
                  negate_translation(P1)):
            assert not P.x_dependent, P.label
            assert P.g.shape == P.h.shape == (2, 2)
            assert P.L.shape == (2, 2, 2) and isinstance(P.S[0], float)
        F = parse_name("branch:real:k=1:n=2")
        lin = AffineJetMap.linear(P1.g, P1.h)
        G = transform_subequation(F, compose(lin, invert(lin)))
        assert G.cone and G.pure_second_order and not G.x_dependent

    def test_linear_plus_translation_split(self, rng):
        # P = Lin + S pointwise, so P(J) + P_{-S}(J) = 2 Lin(J)
        P = rand_map(rng, 3)
        J = rand_jet(rng, 3)
        a = apply(P, None, J)
        b = apply(negate_translation(P), None, J)
        c = apply(linear_part(P), None, J)
        assert np.isclose(a.r + b.r, 2 * c.r, atol=1e-9)
        assert np.allclose(a.p + b.p, 2 * c.p, atol=1e-9)
        assert np.allclose(a.A + b.A, 2 * c.A, atol=1e-9)


class TestXDependent:
    @staticmethod
    def scaling_by_position(n):
        # h(x) = (1 + |x|^2/4) Id, as a batch field
        def h(x):
            s = 1.0 + 0.25 * np.sum(np.asarray(x) ** 2, axis=1)
            return s[:, None, None] * np.eye(n)[None]
        return AffineJetMap(n, np.broadcast_to(np.eye(n), (n, n)).copy(), h,
                            np.zeros((n, n, n)),
                            (0.0, np.zeros(n), np.zeros((n, n))), label="hx")

    def test_requires_base_points(self, rng):
        P = self.scaling_by_position(2)
        J = rand_jet(rng, 2)
        with pytest.raises(ConfigError):
            apply_batch(P, np.array([J.r]), J.p[None], J.A[None])

    def test_inverse_round_trip_fields(self, rng):
        P = self.scaling_by_position(2)
        Pi = invert(P)
        x = rng.uniform(-1, 1, 2)
        J = rand_jet(rng, 2)
        assert jets_close(apply(Pi, x, apply(P, x, J)), J, tol=1e-9)

    def test_translation_maps_keep_constant_fields(self):
        # only S is rebuilt, so a constant S and L stay constant
        P = self.scaling_by_position(2)
        for Q in (linear_part(P), negate_translation(P)):
            assert callable(Q.h) and not callable(Q.S)
            assert not callable(Q.L)

    def test_compose_fields(self, rng):
        P = self.scaling_by_position(2)
        Q = rand_map(rng, 2)
        x = rng.uniform(-1, 1, 2)
        J = rand_jet(rng, 2)
        lhs = apply(compose(Q, P), x, J)
        rhs = apply(Q, x, apply(P, x, J))
        assert jets_close(lhs, rhs, tol=1e-8)


class TestTransform:
    def test_conjugation_identity(self, rng):
        # membership of Psi(J) in Psi(F) equals membership of J in F
        F = parse_name("branch:real:k=2:n=3")
        for _ in range(3):
            P = rand_map(rng, 3)
            G = transform_subequation(F, P)
            r = rng.uniform(-1, 1, 32)
            p = rng.uniform(-1, 1, (32, 3))
            A = random_sym(rng, 3, size=32)
            r2, p2, A2 = apply_batch(P, r, p, A)
            A2 = 0.5 * (A2 + np.swapaxes(A2, 1, 2))
            assert np.allclose(G.value_batch(r2, p2, A2),
                               F.value_batch(r, p, A), atol=1e-7)

    def test_dual_of_image(self, rng):
        # dual(Psi F) = (linear part with flipped translation)(dual F)
        F = parse_name("pcone:p=2:n=3")
        P = rand_map(rng, 3)
        lhs = dual(transform_subequation(F, P))
        rhs = transform_subequation(dual(F), negate_translation(P))
        r = rng.uniform(-1, 1, 64)
        p = rng.uniform(-1, 1, (64, 3))
        A = random_sym(rng, 3, size=64)
        assert np.allclose(lhs.value_batch(r, p, A), rhs.value_batch(r, p, A),
                           atol=1e-7)

    def test_flag_bookkeeping(self, rng):
        F = parse_name("branch:real:k=1:n=2")
        assert F.pure_second_order and F.cone
        P_L = rand_map(rng, 2, with_L=True, with_S=False)
        P_S = rand_map(rng, 2, with_L=False, with_S=True)
        P_0 = rand_map(rng, 2, with_L=False, with_S=False)
        assert not transform_subequation(F, P_L).pure_second_order
        assert not transform_subequation(F, P_S).cone
        G = transform_subequation(F, P_0)
        assert G.pure_second_order and G.cone

    def test_dimension_guard(self, rng):
        with pytest.raises(DimensionMismatch):
            transform_subequation(parse_name("laplace:n=2"), rand_map(rng, 3))


class TestStockConstructions:
    def test_inhom_branch_shifts_eigenvalue(self, rng):
        # f(x) = x_1 turns lambda_k >= 0 into lambda_k >= x_1
        F = inhom_branch(2, 2, lambda x: x[:, 0])
        A = random_sym(rng, 2, size=48)
        x = rng.uniform(-1, 1, (48, 2))
        lam2 = np.sort(np.linalg.eigvalsh(A), axis=-1)[:, 1]
        got = F.value_batch(np.zeros(48), np.zeros((48, 2)), A, x=x)
        assert np.allclose(got, lam2 - x[:, 0], atol=1e-9)

    def test_cy_map_scalar_formula(self, rng):
        h = 1.7
        P = calabi_yau_map(h, 2)
        J = rand_jet(rng, 2)
        K = apply(P, None, J)
        assert np.isclose(K.r, J.r)
        assert np.allclose(K.p, J.p)
        assert np.allclose(K.A, h ** 2 * J.A + (h ** 2 - 1) * np.eye(2),
                           atol=1e-10)

    def test_cy_map_rejects_zero(self):
        with pytest.raises(ConfigError):
            calabi_yau_map(0.0, 2)

    def test_cy_map_field_matches_scalar(self, rng):
        Pf = calabi_yau_map(lambda x: np.full(len(x), 1.3), 2)
        Ps = calabi_yau_map(1.3, 2)
        x = rng.uniform(-1, 1, 2)
        J = rand_jet(rng, 2)
        assert jets_close(apply(Pf, x, J), apply(Ps, None, J), tol=1e-10)

    def test_complex_cy_values(self):
        F = complex_calabi_yau(1)
        # zero jet sits exactly on the boundary: min(1, det - 1) with det = 1
        Z = np.zeros((1, 2, 2))
        assert abs(F.value_batch(np.zeros(1), np.zeros((1, 2)), Z)[0]) < 1e-12
        # diag(3, -1) has hermitian part I: B = 2I, margin min(2, 2-1) = 1
        A = np.diag([3.0, -1.0])[None]
        assert np.isclose(F.value_batch(np.zeros(1), np.zeros((1, 2)), A)[0],
                          1.0, atol=1e-10)
        # strongly negative: B = -2 I, the det clause wins: -2 - 1 = -3
        A = (-3.0 * np.eye(2))[None]
        assert np.isclose(F.value_batch(np.zeros(1), np.zeros((1, 2)), A)[0],
                          -3.0, atol=1e-10)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_complex_cy_matches_the_doubled_spectrum(self, rng, m):
        # reference: the real spectrum of H + I repeats each field
        # eigenvalue twice; every other one is a field eigenvalue
        F = complex_calabi_yau(m)
        A = random_sym(rng, 2 * m, size=256) * rng.uniform(0.01, 3, 256)[
            :, None, None]
        H = hermitian_part_batch(A, ComplexStructure.standard_complex(m))
        eigs = np.linalg.eigvalsh(H + np.eye(2 * m))
        want = np.minimum(eigs[:, 0], eigs[:, 0::2].prod(axis=1) - 1.0)
        got = F.value_batch(np.zeros(256), np.zeros((256, 2 * m)), A)
        scale = np.abs(A).reshape(256, -1).max(axis=1)
        assert np.all(np.abs(got - want) <= 1e-13 * np.maximum(scale, 1.0)
                      * np.maximum(1.0, np.abs(want)))

    def test_complex_cy_axioms(self, rng):
        F = complex_calabi_yau(2)
        from subeq import axiom_check
        for axiom in ("P", "N"):
            assert axiom_check(F, axiom, trials=200, seed=5).passed


class TestConstructorGuards:
    def test_translation_accepts_sym_matrix(self, rng):
        A0 = random_sym(rng, 2)
        P = AffineJetMap.translation((1.0, np.zeros(2), A0))
        J = rand_jet(rng, 2)
        K = apply(P, None, J)
        assert np.allclose(K.A, J.A + A0, atol=1e-12)

    def test_callable_translation_needs_n(self):
        with pytest.raises(ConfigError):
            AffineJetMap.translation(lambda x: (0, 0, 0))

    def test_compose_dimension_guard(self, rng):
        with pytest.raises(DimensionMismatch):
            compose(rand_map(rng, 2), rand_map(rng, 3))

    def test_singular_map_inversion(self):
        P = AffineJetMap.linear(np.zeros((2, 2)), np.eye(2))
        with pytest.raises(ConfigError):
            invert(P)

    def test_condition_report(self, rng):
        c = rand_map(rng, 3).condition()
        assert c["cond_g"] >= 1.0 and c["cond_h"] >= 1.0
