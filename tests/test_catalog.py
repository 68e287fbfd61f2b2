"""Catalog families against independent spectral oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subeq import (parse_name, dual_name, dual, make_pcone, make_branch,
                   make_uniformly_elliptic)
from subeq.catalog import _geometric, grassmann_sample
from subeq.cli import _resolve_domain
from subeq.core import Jet, _ascending, _haar_psd, axiom_check, shift
from subeq.errors import ConfigError
from subeq.garding import (HyperbolicPolynomial, branch_subequation,
                           garding_cone, named_polynomial)
from subeq.jetmaps import AffineJetMap, transform_subequation
from subeq.linalg import ComplexStructure, eigvalsh_batch, esym_batch

from conftest import random_sym


def pso_vals(F, A):
    """Margins of a pure-second-order family on a batch of matrices."""
    A = np.asarray(A)
    m = len(A)
    n = A.shape[-1]
    return F.value_batch(np.zeros(m), np.zeros((m, n)), A)


# ---------------------------------------------------------------------------
# oracles

def oracle_branch(A, k):
    return np.sort(np.linalg.eigvalsh(A), axis=-1)[:, k - 1]


def oracle_pcone(A, p):
    lam = np.sort(np.linalg.eigvalsh(A), axis=-1)
    f = int(np.floor(p))
    out = lam[:, :f].sum(axis=1)
    if f < lam.shape[1] and p > f:
        out = out + (p - f) * lam[:, f]
    return out


def oracle_pucci(A, lam, Lam):
    e = np.linalg.eigvalsh(A)
    return lam * np.where(e > 0, e, 0).sum(-1) + Lam * np.where(e < 0, e, 0).sum(-1)


def oracle_klap(p, A, k):
    pn2 = np.sum(p * p, axis=-1)
    quad = np.einsum("bi,bij,bj->b", p, A, p)
    tr = np.trace(A, axis1=-2, axis2=-1)
    if k == "inf":
        return quad
    return pn2 * tr + (float(k) - 2.0) * quad


# ---------------------------------------------------------------------------


class TestGrammar:
    def test_round_trip_labels(self):
        for name in ("laplace:n=2", "branch:real:k=2:n=3", "pcone:p=2.5:n=4",
                     "pucci:lam=1:Lam=2:n=3", "delta:d=1:n=3",
                     "sigma:k=2:n=3", "slag:c=0:n=2", "klap:k=2:n=2",
                     "appb:case=1:n=2"):
            F = parse_name(name)
            assert F.n >= 1
            assert F.label

    @pytest.mark.parametrize("bad", [
        "nosuch:n=2", "branch:real:n=2", "branch:bogus:k=1:n=2",
        "pcone:n=3", "pucci:lam=1:n=2", "sigma:k=9:n=3",
    ])
    def test_rejects(self, bad):
        with pytest.raises(ConfigError):
            parse_name(bad)

    @pytest.mark.parametrize("name, msg", [
        ("laplace:n=x", "bad integer 'x'"),
        ("branch:real:k=1.5:n=2", "bad integer '1.5'"),
        ("geom:p=1:n=3:frames=many", "bad integer 'many'"),
        ("pcone:p=abc:n=2", "bad number 'abc'"),
        ("slag:c=zero:n=2", "bad number 'zero'"),
    ])
    def test_bad_parameter_values(self, name, msg):
        with pytest.raises(ConfigError, match=msg):
            parse_name(name)

    @pytest.mark.parametrize("name, key", [
        ("slag:C=0.5:n=2", "C"), ("geom:p=1:n=2:frame=8", "frame"),
        ("appb:case=3:n=2:angel=30", "angel"),
        ("appb:case=2:n=2:gamma=1", "gamma"),
        ("branch:real:k=1:n=2:k=2", "k"),
        ("annulus:n=2:r_in=0.3:r_in=0.4", "r_in"),
    ])
    def test_unknown_or_repeated_key(self, name, key):
        # catalog and named domain names share one parser
        resolve = _resolve_domain if name.startswith("annulus") else parse_name
        with pytest.raises(ConfigError, match=f"'{key}'"):
            resolve(name)


class TestRealBranches:
    def test_vs_sorted_eigs(self, rng):
        A = random_sym(rng, 3, size=256)
        for k in (1, 2, 3):
            F = parse_name(f"branch:real:k={k}:n=3")
            assert np.allclose(pso_vals(F, A), oracle_branch(A, k), atol=1e-10)

    def test_nested(self, rng):
        # branch sets grow with k
        A = random_sym(rng, 4, size=128)
        prev = None
        for k in range(1, 5):
            cur = pso_vals(parse_name(f"branch:real:k={k}:n=4"), A)
            if prev is not None:
                assert np.all(cur >= prev - 1e-12)
            prev = cur

    def test_duality(self, rng):
        # dual of branch k is branch n-k+1
        n = 3
        A = random_sym(rng, n, size=256)
        for k in (1, 2, 3):
            FD = dual(parse_name(f"branch:real:k={k}:n={n}"))
            G = parse_name(dual_name(f"branch:real:k={k}:n={n}"))
            assert np.allclose(pso_vals(FD, A), pso_vals(G, A), atol=1e-12)


class TestComplexQuaternionicBranches:
    # grammar note: n counts eigenvalues over the field, so the ambient
    # real dimension is 2n (complex) / 4n (quaternionic)

    def test_complex_uses_hermitian_spectrum(self, rng):
        m = 2
        S = ComplexStructure.standard_complex(m)
        J = S.mats[0]
        A = random_sym(rng, 2 * m, size=64)
        H = 0.5 * (A + np.einsum("ab,kbc,cd->kad", J.T, A, J))
        lam = np.sort(np.linalg.eigvalsh(H), axis=-1)[:, ::2]   # multiplicity 2
        for k in (1, 2):
            F = parse_name(f"branch:complex:k={k}:n={m}")
            assert F.n == 2 * m
            assert np.allclose(pso_vals(F, A), lam[:, k - 1], atol=1e-8)

    def test_quaternionic_ambient_dimension(self, rng):
        F = parse_name("branch:quaternionic:k=1:n=1")
        assert F.n == 4
        # scalar multiples of the identity have hermitian part themselves
        t = rng.uniform(-2, 2, 32)
        A = t[:, None, None] * np.eye(4)
        assert np.allclose(pso_vals(F, A), t, atol=1e-10)

    def test_k_range_guard(self):
        with pytest.raises(ConfigError):
            make_branch("complex", 3, 2)


class TestPCone:
    def test_integer_p_matches_partial_sums(self, rng):
        A = random_sym(rng, 4, size=256)
        for p in (1, 2, 3, 4):
            F = parse_name(f"pcone:p={p}:n=4")
            assert np.allclose(pso_vals(F, A), oracle_pcone(A, p), atol=1e-10)

    def test_fractional_p(self, rng):
        A = random_sym(rng, 4, size=256)
        for p in (1.5, 2.5, 3.25):
            F = make_pcone(p, 4)
            assert np.allclose(pso_vals(F, A), oracle_pcone(A, p), atol=1e-10)

    def test_p1_is_convexity(self, rng):
        A = random_sym(rng, 3, size=64)
        F1 = parse_name("pcone:p=1:n=3")
        FB = parse_name("branch:real:k=1:n=3")
        assert np.allclose(pso_vals(F1, A), pso_vals(FB, A), atol=1e-12)

    def test_nesting_in_p(self, rng):
        # smaller p cuts a smaller cone: member at p stays member at q >= p
        A = random_sym(rng, 3, size=200)
        v15 = oracle_pcone(A, 1.5)
        v25 = oracle_pcone(A, 2.5)
        members = v15 >= 0
        assert np.all(v25[members] >= -1e-12)


class TestUniformlyElliptic:
    def test_pucci_formula(self, rng):
        A = random_sym(rng, 3, size=256)
        F = parse_name("pucci:lam=1:Lam=2.5:n=3")
        assert np.allclose(pso_vals(F, A), oracle_pucci(A, 1.0, 2.5),
                           atol=1e-9)

    def test_pucci_parameter_validation(self):
        with pytest.raises(ConfigError):
            parse_name("pucci:lam=2:Lam=1:n=2")    # needs lam <= Lam
        with pytest.raises(ConfigError):
            parse_name("pucci:lam=0:Lam=1:n=2")    # needs lam > 0

    def test_delta_cone_formula(self, rng):
        A = random_sym(rng, 3, size=256)
        F = parse_name("delta:d=0.7:n=3")
        lam1 = np.sort(np.linalg.eigvalsh(A), axis=-1)[:, 0]
        tr = np.trace(A, axis1=-2, axis2=-1)
        assert np.allclose(pso_vals(F, A), lam1 + 0.7 * tr, atol=1e-9)


class TestSharedEntries:
    """Entries that are another entry under a second name: the same rho, bit
    for bit, with their own label and sampler."""

    @pytest.mark.parametrize("alias, base, has_sampler", [
        ("delta:d=0.7:n=3", "deltabranch:k=1:d=0.7:n=3", False),
        ("appb:case=1:n=3", "branch:real:k=1:n=3", True),
    ])
    def test_bitwise_equal(self, rng, alias, base, has_sampler):
        F, G = parse_name(alias), parse_name(base)
        A = random_sym(rng, 3, size=256)
        assert np.array_equal(pso_vals(F, A), pso_vals(G, A))
        assert F.label == alias
        flags = ("n", "pure_second_order", "reduced", "cone", "x_dependent")
        assert [getattr(F, f) for f in flags] == [3, True, True, True, False]
        assert (F.member_sampler is not None) == has_sampler

    def test_delta_needs_positive_d(self):
        for d in (None, 0.0, -1.0):
            with pytest.raises(ConfigError, match=f"need d > 0, got {d}"):
                make_uniformly_elliptic("delta", 3, d=d)


class TestSigmaFamilies:
    def test_sigma1_is_normalized_trace(self, rng):
        A = random_sym(rng, 3, size=64)
        F = parse_name("sigma:k=1:n=3")
        tr = np.trace(A, axis1=-2, axis2=-1)
        assert np.allclose(pso_vals(F, A), tr / 3.0, atol=1e-10)

    def test_sigma_n_is_positivity(self, rng):
        # the full Garding cone of sigma_n is the PSD cone
        A = random_sym(rng, 3, size=400)
        F = parse_name("sigma:k=3:n=3")
        mem = pso_vals(F, A) >= -1e-10
        lam1 = np.sort(np.linalg.eigvalsh(A), axis=-1)[:, 0]
        assert np.array_equal(mem, lam1 >= -1e-10)


class TestSlag:
    def test_arctan_sum(self, rng):
        A = random_sym(rng, 2, size=128)
        F = parse_name("slag:c=0.5:n=2")
        want = np.arctan(np.linalg.eigvalsh(A)).sum(axis=-1) - 0.5
        assert np.allclose(pso_vals(F, A), want, atol=1e-10)

    def test_dual_negates_phase(self, rng):
        A = random_sym(rng, 2, size=64)
        FD = dual(parse_name("slag:c=0.5:n=2"))
        G = parse_name(dual_name("slag:c=0.5:n=2"))
        assert np.allclose(pso_vals(FD, A), pso_vals(G, A), atol=1e-10)


class TestKLaplacian:
    @pytest.mark.parametrize("k", ["1", "2", "3", "inf"])
    def test_formula(self, rng, k):
        F = parse_name(f"klap:k={k}:n=2")
        A = random_sym(rng, 2, size=128)
        p = rng.uniform(-2, 2, (128, 2))
        want = oracle_klap(p, A, k if k == "inf" else float(k))
        got = F.value_batch(np.zeros(128), p, A)
        assert np.allclose(got, want, atol=1e-9)

    def test_self_dual(self, rng):
        F = parse_name("klap:k=2:n=2")
        FD = dual(F)
        A = random_sym(rng, 2, size=64)
        p = rng.uniform(-2, 2, (64, 2))
        assert np.allclose(F.value_batch(np.zeros(64), p, A),
                           FD.value_batch(np.zeros(64), p, A), atol=1e-10)


class TestGeometric:
    def test_identity_and_negative_identity(self):
        F = parse_name("geom:p=2:n=3")
        A = np.eye(3)[None]
        assert pso_vals(F, A)[0] > 0
        assert pso_vals(F, -A)[0] < 0

    def test_outer_approximation_of_pcone(self, rng):
        # sampled min over planes can only overestimate the exact infimum
        F = parse_name("geom:p=2:n=3")
        A = random_sym(rng, 3, size=64)
        exact = oracle_pcone(A, 2)       # inf over 2-planes = lambda_1+lambda_2
        assert np.all(pso_vals(F, A) >= exact - 1e-10)

    @pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 5)])
    def test_plane_frames_are_orthonormal_and_fixed(self, p, n):
        W = grassmann_sample(p, n, count=64).stack
        assert W.shape == (64, n, p)
        assert np.allclose(np.swapaxes(W, 1, 2) @ W, np.eye(p), atol=1e-13)
        assert np.array_equal(W, grassmann_sample(p, n, count=64).stack)

    @pytest.mark.parametrize("p,n", [(1, 3), (2, 3), (2, 4)])
    def test_blocked_gemm_matches_einsum(self, rng, p, n):
        # more rows than one GEMM block, so the blocking is exercised
        G = grassmann_sample(p, n)
        F = _geometric(G)
        A = random_sym(rng, n, size=10_000)
        W = G.stack
        want = np.einsum("fip,nij,fjp->nf", W, A, W).min(axis=1)
        got = pso_vals(F, A)
        assert np.allclose(got, want, rtol=0.0, atol=1e-13)
        assert np.array_equal(got > 0, want > 0)


class TestAppBCones:
    def test_case1_psd(self, rng):
        F = parse_name("appb:case=1:n=3")
        A = random_sym(rng, 3, size=128)
        lam1 = np.sort(np.linalg.eigvalsh(A), axis=-1)[:, 0]
        assert np.allclose(pso_vals(F, A), lam1, atol=1e-10)

    def test_case2_r_slot(self):
        F = parse_name("appb:case=2:n=2")
        A = np.eye(2)[None]
        assert F.value_batch(np.array([-1.0]), np.zeros((1, 2)), A)[0] > 0
        assert F.value_batch(np.array([1.0]), np.zeros((1, 2)), A)[0] < 0

    def test_case6_formula(self, rng):
        R = 2.0
        F = parse_name(f"appb:case=6:R={R}:n=2")
        A = random_sym(rng, 2, size=128)
        p = rng.uniform(-2, 2, (128, 2))
        lam1 = np.sort(np.linalg.eigvalsh(A), axis=-1)[:, 0]
        want = lam1 - np.linalg.norm(p, axis=1) / R
        assert np.allclose(F.value_batch(np.zeros(128), p, A), want,
                           atol=1e-10)

    def test_case3_formula(self, rng):
        # r <= 0, p in the round cone of half-angle 30 degrees about e_1,
        # A >= 0
        F = parse_name("appb:case=3:n=3:angle=30")
        r = rng.uniform(-2, 2, 256)
        p = rng.standard_normal((256, 3))
        A = random_sym(rng, 3, size=256)
        cone = p[:, 0] - np.cos(np.radians(30)) * np.linalg.norm(p, axis=1)
        want = np.minimum(np.minimum(-r, cone), np.linalg.eigvalsh(A)[:, 0])
        assert np.allclose(F.value_batch(r, p, A), want, atol=1e-10)

    def test_case5_formula(self, rng):
        # min over unit e of <Ae, e> - lam |<p, e>|: the sampled min is an
        # outer approximation of a dense angle scan, exact at p = 0
        # (lambda_1(A), an eigenvector direction) and at A = a I (a - lam
        # |p|, the direction of p)
        lam = 1.5
        F = parse_name(f"appb:case=5:n=2:lam={lam}")
        r = rng.uniform(-2, 2, 256)
        p = rng.standard_normal((256, 2))
        A = random_sym(rng, 2, size=256)
        th = np.linspace(0.0, np.pi, 20001)
        E = np.stack([np.cos(th), np.sin(th)], axis=1)
        dense = (np.einsum("ki,nij,kj->nk", E, A, E)
                 - lam * np.abs(p @ E.T)).min(axis=1)
        got = F.value_batch(r, p, A)
        assert np.all(got >= dense - 1e-6)      # the scan's own resolution
        assert np.array_equal(got, F.value_batch(np.zeros(256), p, A))
        assert np.allclose(F.value_batch(r, np.zeros_like(p), A),
                           np.linalg.eigvalsh(A)[:, 0], atol=1e-12)
        a = rng.uniform(-2, 2, 256)
        assert np.allclose(F.value_batch(r, p, a[:, None, None] * np.eye(2)),
                           a - lam * np.linalg.norm(p, axis=1), atol=1e-12)

    @pytest.mark.parametrize("name", ["appb:case=3:n=3:angle=30",
                                      "appb:case=5:n=2:lam=1",
                                      "appb:case=5:n=3:lam=1"])
    def test_sampled_axioms(self, name):
        # axiom_check draws its members through the case's member_sampler
        F = parse_name(name)
        for ax in ("P", "N"):
            assert axiom_check(F, ax, trials=2000, seed=3).violations == 0, ax

    def test_samplers_land_inside(self, rng):
        for name in ("appb:case=1:n=2", "appb:case=2:n=2",
                     "appb:case=3:n=3:angle=30", "appb:case=4:gamma=0.5:n=2",
                     "appb:case=5:n=2:lam=1", "appb:case=5:n=3:lam=1",
                     "appb:case=6:R=1:n=2"):
            F = parse_name(name)
            r, p, A = F.member_sampler(rng, 200)
            vals = F.value_batch(r, p, A)
            assert vals.min() >= -1e-9, name


class TestDualNameTable:
    @pytest.mark.parametrize("name", [
        "laplace:n=3", "branch:real:k=1:n=3", "branch:real:k=2:n=3",
        "klap:k=inf:n=2", "slag:c=1:n=3",
    ])
    def test_numerical_agreement(self, rng, name):
        other = dual_name(name)
        assert other is not None
        F, G = dual(parse_name(name)), parse_name(other)
        A = random_sym(rng, F.n, size=64)
        p = rng.uniform(-2, 2, (64, F.n))
        r = rng.uniform(-2, 2, 64)
        assert np.allclose(F.value_batch(r, p, A), G.value_batch(r, p, A),
                           atol=1e-9)

    def test_none_for_nonstock_duals(self):
        assert dual_name("pucci:lam=1:Lam=2:n=2") is None

    @pytest.mark.parametrize("name,want", [
        ("laplace:n=3", "laplace:n=3"),
        ("klap:k=inf:n=2", "klap:k=inf:n=2"),
        ("klap:k=3:n=2", "klap:k=3:n=2"),
        ("branch:real:k=1:n=3", "branch:real:k=3:n=3"),
        ("branch:real:k=2:n=3", "branch:real:k=2:n=3"),
        ("branch:complex:k=1:n=2", "branch:complex:k=2:n=2"),
        ("branch:quaternionic:k=1:n=1", "branch:quaternionic:k=1:n=1"),
        ("slag:c=0.5:n=2", "slag:c=-0.5:n=2"),
        ("slag:n=3", "slag:c=-0:n=3"),
        ("pucci:lam=1:Lam=2:n=3", None),
        ("pcone:p=2.5:n=4", None),
        ("pbranch:k=1:p=2:n=3", None),
        ("sigma:k=2:n=3", None),
        ("cy:n=2", None),
        ("geom:p=1:n=3:frames=8", None),
        ("appb:case=2:n=2", None),
        ("foo:n=2", None),
    ])
    def test_every_family(self, name, want):
        assert dual_name(name) == want

    @pytest.mark.parametrize("name", ["branch", "branch:real:k=1",
                                      "slag:c=1", "branch:real:n=2"])
    def test_malformed_names_raise_config_error(self, name):
        with pytest.raises(ConfigError):
            dual_name(name)
        with pytest.raises(ConfigError):
            parse_name(name)


def _spectral_names(n):
    """Every catalog entry of dimension n that is a function of the ordered
    spectrum of A alone (over a spread of parameters)."""
    names = [f"branch:real:k={k}:n={n}" for k in range(1, n + 1)]
    names += [f"pcone:p={p:g}:n={n}" for p in (1, 1.5, n - 0.5, n)]
    names += [f"pbranch:k=1:p=1:n={n}", f"pbranch:k=2:p={n - 1}:n={n}"]
    names += [f"pucci:lam=0.5:Lam=2:n={n}", f"delta:d=0.3:n={n}",
              f"deltabranch:k={n}:d=0.7:n={n}", f"appb:case=1:n={n}"]
    names += [f"sigma:k={k}:n={n}" for k in range(1, n + 1)]
    names += [f"slag:c=0:n={n}", f"slag:c=0.5:n={n}", f"laplace:n={n}"]
    return names


def _jets(rng, n, size=1000):
    return (rng.uniform(-5, 5, size), rng.standard_normal((size, n)),
            random_sym(rng, n, size=size))


class TestSpectralRepresentation:
    """``spectral`` is f on the ascending spectrum with rho = f(eigs(A));
    the solver's one-eigensolve node update relies on that identity."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_rho_is_f_of_the_spectrum(self, rng, n):
        r, p, A = _jets(rng, n)
        eigs = eigvalsh_batch(A)
        for name in _spectral_names(n):
            F = parse_name(name)
            assert F.spectral is not None, name
            got = F.spectral(eigs)
            if name.startswith("laplace"):
                # the trace is summed off the diagonal, not the spectrum
                np.testing.assert_allclose(got, F.rho_batch(r, p, A),
                                           rtol=0, atol=1e-12, err_msg=name)
            else:
                assert np.array_equal(got, F.rho_batch(r, p, A)), name

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_dual_is_spectral(self, rng, n):
        r, p, A = _jets(rng, n)
        eigs = eigvalsh_batch(A)
        for name in _spectral_names(n):
            F = parse_name(name)
            np.testing.assert_allclose(dual(F).spectral(eigs),
                                       -F.rho_batch(-r, -p, -A),
                                       rtol=0, atol=1e-12, err_msg=name)
            assert np.array_equal(dual(dual(F)).spectral(eigs),
                                  F.spectral(eigs)), name

    def test_other_entries_are_not_spectral(self):
        for name in ("cy:n=2", "klap:k=inf:n=2", "klap:k=3:n=2",
                     "geom:p=1:n=2:frames=8", "appb:case=2:n=2",
                     "appb:case=5:n=2:lam=1", "appb:case=6:n=2:R=1",
                     "branch:complex:k=1:n=2",
                     "branch:quaternionic:k=1:n=1"):
            F = parse_name(name)
            assert F.spectral is None, name
            # of these, only cy and klap restrict to the solver's line
            assert (F.line is not None) == name.startswith(("cy", "klap"))

    def test_derived_sets_drop_it(self):
        F = parse_name("branch:real:k=1:n=2")
        J0 = Jet.from_parts(0.0, [0.0, 0.0], np.diag([1.0, 0.0]))
        assert shift(F, J0).spectral is None
        assert shift(F, J0).line is None
        # jet-map images are built afresh, even the identity's
        Psi = AffineJetMap.identity(2)
        assert transform_subequation(F, Psi).spectral is None
        assert transform_subequation(F, Psi).line is None
        # an x-dependent image: the line restriction takes no base points
        Sx = AffineJetMap.translation(
            lambda x: (x[:, 0], np.zeros_like(x), np.zeros((len(x), 2, 2))),
            n=2)
        for G in (F, parse_name("klap:k=inf:n=2"), parse_name("cy:n=2")):
            image = transform_subequation(G, Sx)
            assert image.x_dependent and image.line is None, G.label
            assert dual(image).line is None, G.label
        # Garding branches are spectral only through a root map; the named
        # polynomials have one (tests/test_garding.py), the generic route not
        Q = HyperbolicPolynomial.from_callable(
            2, 2, lambda A: float(np.linalg.det(A)), label="gdet")
        assert garding_cone(Q).spectral is None
        assert branch_subequation(Q, 2).spectral is None


def _line_sets(n):
    """Every catalog set of dimension n with a cheap line (its spectral
    form or its own ``line``), and the dual of each."""
    names = _spectral_names(n) + [f"klap:k={k}:n={n}"
                                  for k in ("1", "3", "inf")] + [f"cy:n={n}"]
    sets = [parse_name(name) for name in names]
    return sets + [dual(F) for F in sets]


def _full_jet_sets(n):
    """Sets of dimension n whose line is rho on the full jet, and their
    duals: geom, an appb cone, a shifted set, a congruence image and, for
    even n, a complex branch."""
    names = [f"geom:p=1:n={n}:frames=16", f"appb:case=6:n={n}:R=1"]
    if n % 2 == 0:
        names.append(f"branch:complex:k=1:n={n // 2}")
    sets = [parse_name(name) for name in names]
    F = parse_name(f"pucci:lam=1:Lam=2:n={n}")
    sets += [shift(F, Jet.from_parts(0.5, np.ones(n), np.eye(n))),
             _image(f"slag:c=0.5:n={n}")]
    return sets + [dual(F) for F in sets]


class TestLineRestriction:
    """``on_line(p, A, c, x)`` is rho on the lines r -> (r, p, A + c r I)
    of the grid solver's node update, set up once per batch of base jets,
    through the set's ``line``, its spectral form or the full jet."""

    @staticmethod
    def check(F, r, p, A, c, x=None, rows=None):
        def rho(i):
            xi = None if x is None else x[i]
            return F.value_batch(r[i], p[i], A[i] + c * r[i][:, None, None]
                                 * np.eye(F.n), xi)

        g = F.on_line(p, A, c, x)
        got, want = g(r), rho(slice(None))
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * scale,
                                   err_msg=F.label)
        if F.line is None and F.spectral is None:
            # the full jet: rho itself, bit for bit, on the rows idx too
            # (3x3 eigensolves take another method below 128 rows, so a
            # subset need not have the whole batch's bits)
            assert np.array_equal(got, want), F.label
            assert np.array_equal(g(r[rows], rows), rho(rows)), F.label
        else:
            # a subset through idx: the same bits
            assert np.array_equal(g(r[rows], rows), got[rows]), F.label
        return got

    @pytest.mark.parametrize("n", [2, 3])
    def test_matches_rho_on_the_line(self, rng, n):
        r, p, A = _jets(rng, n, size=200)
        lam = eigvalsh_batch(A)
        rows = rng.permutation(len(r))[:64]
        for c in (-8.0, -2.0 / 0.05 ** 2):
            for F in _line_sets(n):
                got = self.check(F, r, p, A, c, rows=rows)
                if F.spectral is not None:
                    # the solver's one-eigensolve margin, bit for bit
                    assert np.array_equal(
                        got, F.spectral(lam + c * r[:, None])), F.label

    @pytest.mark.parametrize("n", [2, 3])
    def test_full_jet_sets_match_rho_on_the_line(self, rng, n):
        r, p, A = _jets(rng, n, size=200)
        rows = rng.permutation(len(r))[:64]
        for c in (-8.0, -2.0 / 0.05 ** 2):
            for F in _full_jet_sets(n):
                assert F.line is None and F.spectral is None, F.label
                self.check(F, r, p, A, c, rows=rows)

    def test_x_dependent_image_reads_rows_of_x(self, rng):
        from subeq.jetmaps import inhom_branch
        r, p, A = _jets(rng, 2, size=200)
        x = rng.uniform(-1, 1, (200, 2))
        rows = rng.permutation(len(r))[:64]
        F = inhom_branch(1, 2, lambda x: x[:, 0] - 2 * x[:, 1])
        for G in (F, dual(F)):
            self.check(G, r, p, A, -8.0, x=x, rows=rows)

    def test_dual_is_an_involution(self, rng):
        r, p, A = _jets(rng, 3, size=64)
        for F in _line_sets(3) + _full_jet_sets(3):
            assert np.array_equal(dual(dual(F)).on_line(p, A, -8.0)(r),
                                  F.on_line(p, A, -8.0)(r)), F.label


def _pso_sets(n):
    """Pure second-order sets of dimension n: the flagged catalog entries,
    Garding branches (root-map and generic), their duals, and their images
    under a linear jet map, which keeps the flag."""
    names = _spectral_names(n) + [f"geom:p=1:n={n}:frames=16",
                                  f"geom:p={n - 1}:n={n}:frames=16"]
    if n % 2 == 0:
        names += [f"branch:complex:k={k}:n={n // 2}"
                  for k in range(1, n // 2 + 1)]
    if n % 4 == 0:
        names.append(f"branch:quaternionic:k=1:n={n // 4}")
    sets = [parse_name(name) for name in names]
    Q = named_polynomial("sigma:2", n)
    sets += [branch_subequation(Q, k) for k in (1, Q.m)]
    G = HyperbolicPolynomial.from_callable(
        2, n, lambda A: float(esym_batch(eigvalsh_batch(A[None]), 2)[0, 2]),
        label="s2-generic")
    sets.append(branch_subequation(G, 2))
    sets += [dual(F) for F in sets]
    rng = np.random.default_rng(n)
    phi = AffineJetMap.linear(rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n),
                              rng.uniform(-1, 1, (n, n)) + 2 * np.eye(n))
    sets += [transform_subequation(F, phi) for F in sets[::3]]
    return sets


class TestPureSecondOrderContract:
    """``core.sample_members`` rejects the spectra of a pure second-order
    set on a bound of rho over A alone, before r and p are drawn; that
    needs rho(r, p, A) to be rho(0, 0, A) bit for bit."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_value_ignores_r_and_p_bitwise(self, rng, n):
        r, p, A = _jets(rng, n, size=64)
        z, zp = np.zeros(len(r)), np.zeros_like(p)
        for F in _pso_sets(n):
            assert F.pure_second_order, F.label
            assert np.array_equal(F.value_batch(r, p, A),
                                  F.value_batch(z, zp, A)), F.label

    def test_flag_set_exactly_where_it_holds(self, rng):
        pso = {name.split(":")[0] for name in _spectral_names(3)
               if parse_name(name).pure_second_order}
        assert pso == {"branch", "pcone", "pbranch", "pucci", "delta",
                       "deltabranch", "appb", "sigma", "slag", "laplace"}
        for name in ("cy:n=2", "klap:k=inf:n=2", "klap:k=3:n=2",
                     "appb:case=2:n=2", "appb:case=5:n=2:lam=1",
                     "appb:case=6:n=2:R=1"):
            assert not parse_name(name).pure_second_order, name
        # a gradient fill-in L makes an image read p
        F = parse_name("branch:real:k=1:n=2")
        L = rng.uniform(-1, 1, (2, 2, 2))
        Psi = AffineJetMap.linear(np.eye(2), np.eye(2), L=L)
        assert not transform_subequation(F, Psi).pure_second_order


def _image(name, seed=0):
    """The congruence image of a catalog entry under h = a rotation times
    an anisotropic scaling."""
    F = parse_name(name)
    rot = np.linalg.qr(np.random.default_rng(seed).standard_normal(
        (F.n, F.n)))[0]
    h = rot @ np.diag(np.geomspace(0.5, 2.0, F.n))
    return transform_subequation(F, AffineJetMap.linear(np.eye(F.n), h))


_BOUNDED = (
    [f"geom:p=1:n={n}:frames={c}" for n in (2, 3) for c in (8, 64, 256)]
    + [f"branch:complex:k={k}:n={n}" for n in (1, 2, 3)
       for k in range(1, n + 1)]
    + [f"branch:quaternionic:k={k}:n={n}" for n in (1, 2)
       for k in range(1, n + 1)]
    + [f"image:{name}" for name in (
        "branch:real:k=2:n=3", "branch:real:k=1:n=2", "pucci:lam=1:Lam=2:n=3",
        "pbranch:k=2:p=2:n=3", "deltabranch:k=1:d=0.5:n=3",
        "slag:c=0.5:n=2", "laplace:n=3")]
    + ["sigma:k=2:n=3", "pcone:p=1.5:n=3"])

# eigenvalues: ties, signed zeros and margins near 0 come from the sampled
# constants, the rest from the box's range
_EIG = st.one_of(st.sampled_from([0.0, -0.0, 1e-9, -1e-9, 1.0, -1.0, 5.0,
                                  -5.0]),
                 st.floats(-5.0, 5.0))


def _bounded(name):
    return _image(name[6:]) if name.startswith("image:") else parse_name(name)


class TestSpectralBound:
    """``spectral_bound`` u is at least rho on every rotation of its
    spectrum, which lets the sampler reject spectra before rotating them."""

    @pytest.mark.parametrize("name", _BOUNDED)
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_bound_is_above_rho_at_random_rotations(self, name, data):
        F = _bounded(name)
        lam = np.sort(data.draw(st.lists(_EIG, min_size=F.n,
                                         max_size=F.n)))
        seed = data.draw(st.integers(0, 2 ** 32 - 1))
        rows = np.repeat(lam[None], 64, axis=0)
        A = _haar_psd(np.random.default_rng(seed), F.n, 64, eigs=rows)
        # a spectral set is bounded by its f
        u = (F.spectral or F.spectral_bound)(_ascending(rows))
        tol = 1e-10 * max(1.0, np.abs(lam).max())
        assert np.all(pso_vals(F, A) <= u + tol), (lam, u)

    @pytest.mark.parametrize("count", [8, 64, 256])
    def test_geom_bound_is_attained_between_two_lines(self, count):
        # in 2-D the eigenvector of lam_1 halfway between two frame lines
        # is the worst case: there rho equals the bound
        F = parse_name(f"geom:p=1:n=2:frames={count}")
        lam = np.array([[-3.0, 2.0]])
        for a in np.pi * np.arange(0, count, max(1, count // 8)) / count:
            Q = np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
            A = (Q @ np.diag(lam[0]) @ Q.T)[None]
            u = F.spectral_bound(lam)
            assert abs(pso_vals(F, A)[0] - u[0]) <= 1e-9

    @pytest.mark.parametrize("count", [8, 64, 256])
    def test_line_radius_covers_the_sphere_and_is_tight(self, count):
        G = grassmann_sample(1, 3, count)
        W = G.stack[:, :, 0]
        v = np.random.default_rng(count).standard_normal((100_000, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        d = np.concatenate([
            np.arccos(np.minimum(np.abs(b @ W.T).max(axis=1), 1.0))
            for b in np.array_split(v, 25)])
        # 1e5 probes leave gaps of about 0.01 rad between them
        assert d.max() <= G.line_radius <= d.max() + 0.02
        G2 = grassmann_sample(1, 2, count)
        assert abs(G2.line_radius - np.pi / (2 * count)) <= 1e-11

    def test_derived_sets_carry_or_drop_it(self, rng):
        # a spectral set states f once: its bound is f itself
        F = parse_name("pucci:lam=1:Lam=2:n=3")
        assert F.spectral_bound is None and F.spectral is not None
        Fd = dual(F)
        assert Fd.spectral_bound is None and Fd.spectral is not None
        for name in ("geom:p=1:n=3", "branch:complex:k=1:n=2",
                     "branch:quaternionic:k=2:n=2"):
            assert parse_name(name).spectral_bound is not None, name
            assert dual(parse_name(name)).spectral_bound is None, name
        assert shift(F, Jet.zero(3)).spectral_bound is None
        # images: linear congruences of nondecreasing spectral forms only
        assert _image("pucci:lam=1:Lam=2:n=3").spectral_bound is not None
        assert _image("sigma:k=2:n=3").spectral_bound is None
        assert _image("geom:p=1:n=3").spectral_bound is None
        moved = AffineJetMap.translation((0.0, np.zeros(3), np.eye(3)))
        assert transform_subequation(F, moved).spectral_bound is None
        L = rng.uniform(-1, 1, (3, 3, 3))
        fill = AffineJetMap.linear(np.eye(3), np.eye(3), L=L)
        assert transform_subequation(F, fill).spectral_bound is None
        from subeq.jetmaps import inhom_branch
        assert inhom_branch(1, 3, lambda x: x[:, 0]).spectral_bound is None
        for name in ("geom:p=2:n=3", "geom:p=1:n=4", "cy:n=2",
                     "klap:k=inf:n=2", "appb:case=5:n=2:lam=1"):
            assert parse_name(name).spectral_bound is None, name
