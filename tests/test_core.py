"""Jet algebra, duality, membership and the sampled axiom machinery."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from subeq import (Jet, JetBox, jet_norm, Subequation, dual, shift, member,
                   classify, axiom_check, monotonicity_check, sample_members,
                   sample_jet_batch, validate_registration,
                   asymptotic_interior_member, strict_member, parse_name)
from subeq.core import (_ascending, _decide_first_draw, _haar_psd,
                        _unit_sphere_qmc)
from subeq.errors import DimensionMismatch, SamplerExhausted

from conftest import random_sym


def laplace(n=2):
    return parse_name(f"laplace:n={n}")


def convexity(n=2):
    return parse_name(f"branch:real:k=1:n={n}")


class TestJet:
    def test_arithmetic(self):
        a = Jet.from_parts(1.0, [1, 0], np.eye(2))
        b = Jet.from_parts(-2.0, [0, 1], 2 * np.eye(2))
        s = a + b
        assert s.r == -1.0
        assert np.allclose(s.p, [1, 1])
        assert np.allclose(s.A, 3 * np.eye(2))
        assert (a - a).r == 0.0
        assert np.allclose((-a).p, [-1, 0])
        assert np.allclose(a.scale(2.0).A, 2 * np.eye(2))

    def test_zero(self):
        z = Jet.zero(3)
        assert z.n == 3 and z.r == 0.0
        assert np.allclose(z.A, np.zeros((3, 3)))

    def test_dimension_guard(self):
        a = Jet.from_parts(0.0, [1, 0], np.eye(2))
        b = Jet.from_parts(0.0, [1, 0, 0], np.eye(3))
        with pytest.raises(DimensionMismatch):
            a + b

    def test_norm(self):
        j = Jet.from_parts(3.0, [0.0, 4.0], np.diag([0.0, 12.0]))
        assert jet_norm(j) == 13.0

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            Jet.from_parts(A=np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("A", [[[np.nan, 5.0], [0.0, 1.0]],
                                   [[1.0, np.nan], [2.0, 1.0]]])
    def test_nan_does_not_hide_asymmetry(self, A):
        with pytest.raises(ValueError, match="not symmetric"):
            Jet.from_parts(A=A)

    def test_accepts_symmetric_nan_pattern(self):
        # a masked field's discrete jets carry NaN in mirrored pairs
        A = Jet.from_parts(A=[[np.nan, np.nan], [np.nan, 1.0]]).A
        assert np.isnan(A[0]).all() and np.isnan(A[1, 0]) and A[1, 1] == 1.0

    @pytest.mark.parametrize("A", [np.zeros((2, 3)), np.zeros(2),
                                   np.zeros((17, 17)), np.zeros((0, 0))])
    def test_rejects_bad_shape(self, A):
        with pytest.raises(DimensionMismatch):
            Jet.from_parts(A=A)

    def test_A_is_the_mirrored_upper_triangle(self):
        M = np.array([[1.0, -0.0, 2.0],
                      [0.0, 3.0, 0.5 + 1e-12],
                      [2.0, 0.5, -0.0]])
        want = np.array([[1.0, -0.0, 2.0],
                         [-0.0, 3.0, 0.5 + 1e-12],
                         [2.0, 0.5 + 1e-12, -0.0]])
        A = Jet.from_parts(A=M).A
        assert A.tobytes() == want.tobytes()
        assert A.tobytes() == A.T.copy().tobytes()
        assert not A.flags.writeable
        with pytest.raises(ValueError):
            A[0, 0] = 5.0


class TestDuality:
    def test_involution_pointwise(self, rng):
        F = convexity(3)
        FD = dual(dual(F))
        for _ in range(50):
            j = Jet.from_parts(rng.uniform(-3, 3),
                               rng.uniform(-3, 3, 3), random_sym(rng, 3))
            assert np.isclose(F.value(j), FD.value(j), atol=1e-12)

    def test_defining_function_rule(self, rng):
        # dual rho(J) = -rho(-J)
        F = laplace(2)
        FD = dual(F)
        j = Jet.from_parts(1.0, [0.5, -1.0], np.diag([2.0, -1.0]))
        assert np.isclose(FD.value(j), -F.value(j.scale(-1.0)
                                                if False else -j), atol=1e-12)

    def test_laplace_selfdual(self, rng):
        # trace >= 0 is self-dual
        F, FD = laplace(2), dual(laplace(2))
        A = random_sym(rng, 2, size=32)
        r = rng.uniform(-2, 2, 32)
        p = rng.uniform(-2, 2, (32, 2))
        assert np.allclose(F.value_batch(r, p, A), FD.value_batch(r, p, A),
                           atol=1e-12)

    def test_convexity_dual_is_subaffine(self, rng):
        # dual of {lambda_min >= 0} is {lambda_max >= 0}
        FD = dual(convexity(3))
        A = random_sym(rng, 3, size=64)
        want = np.sort(np.linalg.eigvalsh(A), axis=-1)[:, -1]
        got = FD.value_batch(np.zeros(64), np.zeros((64, 3)), A)
        assert np.allclose(got, want, atol=1e-10)


class TestMembership:
    def test_classify_bands(self):
        assert classify(0.5) == "inside"
        assert classify(-0.5) == "outside"
        assert classify(2e-10) == "boundary"
        assert classify(-2e-10) == "boundary"

    def test_member_wrapper(self):
        F = laplace(2)
        ok = member(F, Jet.from_parts(0.0, [0, 0], np.eye(2)))
        assert ok.in_set and ok.margin > 0

    def test_shift(self):
        # shift(F, J0) = F + J0, so membership of J tests J - J0 against F
        F = convexity(2)
        j0 = Jet.from_parts(0.0, [0.0, 0.0], -np.eye(2))
        G = shift(F, j0)
        j = Jet.from_parts(0.0, [0.0, 0.0], 2 * np.eye(2))
        assert np.isclose(G.value(j), F.value(j - j0), atol=1e-12)


class TestSampling:
    def test_jet_batch_shapes(self, rng):
        box = JetBox()
        r, p, A = sample_jet_batch(box, 3, 128, rng)
        assert r.shape == (128,) and p.shape == (128, 3)
        assert A.shape == (128, 3, 3)
        assert np.allclose(A, np.swapaxes(A, 1, 2))

    def test_sample_members_margins(self, rng):
        F = convexity(2)
        r, p, A = sample_members(F, 200, rng)
        vals = F.value_batch(r, p, A)
        assert vals.min() >= -1e-9

    def test_sample_members_with_margin(self, rng):
        F = laplace(3)
        r, p, A = sample_members(F, 100, rng, margin_min=0.5)
        assert F.value_batch(r, p, A).min() >= 0.5 - 1e-12

    @pytest.mark.parametrize("name", ["pucci:lam=1:Lam=2:n=3",
                                      "appb:case=4:n=2:gamma=1"])
    def test_margin_min_holds_on_every_recipe(self, name):
        # appb:case=4 draws through its member_sampler, Pucci spectrum-first
        F = parse_name(name)
        r, p, A = sample_members(F, 2000, np.random.default_rng(3),
                                 margin_min=0.5)
        assert len(r) == 2000
        assert F.value_batch(r, p, A).min() >= 0.5

    def test_member_sampler_exhausts_at_cap(self):
        F = parse_name("appb:case=4:n=2:gamma=1")
        with pytest.raises(SamplerExhausted):
            sample_members(F, 100, np.random.default_rng(0), margin_min=1e3,
                           cap=5000)


def haar_psd_qr(rng, n, size, eig_lo=0.0, eig_hi=5.0):
    """Reference Haar sampler: Q from the QR of a Gaussian matrix with the
    signs of diag(R) moved into Q, then Q diag(eigs) Q^t."""
    G = rng.standard_normal((size, n, n))
    Q, R = np.linalg.qr(G)
    sign = np.sign(np.einsum("nii->ni", R))
    sign[sign == 0] = 1.0
    Q = Q * sign[:, None, :]
    eigs = rng.uniform(eig_lo, eig_hi, (size, n))
    A = np.einsum("nij,nj,nkj->nik", Q, eigs, Q)
    return 0.5 * (A + np.swapaxes(A, 1, 2))


def haar_psd_reference(rng, n, size, eig_lo=0.0, eig_hi=5.0):
    """Reference Householder loop: the same reflections and draws as
    ``_haar_psd``, each applied to the whole (n, n, N) stack at once."""
    lam = rng.uniform(eig_lo, eig_hi, (size, n)).T
    X = rng.standard_normal((n * (n + 1) // 2 - 1, size))
    M = np.zeros((n, n, size))
    M[np.arange(n), np.arange(n)] = lam
    row = 0
    for k in range(n - 2, -1, -1):
        x = X[row:row + n - k]
        row += n - k
        v = x.copy()
        v[0] += np.copysign(np.sqrt((x * x).sum(0)), x[0])
        s = v * (np.sqrt(2.0) / np.maximum(np.sqrt((v * v).sum(0)), 1e-300))
        B = M[k:, k:]
        w = (B * s[None]).sum(1)
        y = w - 0.5 * (s * w).sum(0) * s
        B -= s[:, None] * y[None] + y[:, None] * s[None]
    return np.ascontiguousarray(M.transpose(2, 0, 1))


class TestHaarSampler:
    SIZE = 200_000

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_law_matches_qr_reference(self, n):
        A = _haar_psd(np.random.default_rng(17), n, self.SIZE, -5.0, 5.0)
        B = haar_psd_qr(np.random.default_rng(18), n, self.SIZE, -5.0, 5.0)
        stats = [lambda M: M[:, 0, 0], lambda M: M[:, n - 1, n - 1],
                 lambda M: M[:, 0, 1]]
        if n >= 3:
            stats.append(lambda M: M[:, 0, 1] * M[:, 1, 2] * M[:, 0, 2])
        for f in stats:
            assert ks_2samp(f(A), f(B)).pvalue > 1e-3

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("size", [1, 300, 9000])
    def test_matches_reference_loop_and_rng_stream(self, n, size):
        # 9000 spans three blocks of the row-wise update
        r1, r2 = np.random.default_rng(n), np.random.default_rng(n)
        A = _haar_psd(r1, n, size, -5.0, 5.0)
        B = haar_psd_reference(r2, n, size, -5.0, 5.0)
        assert np.abs(A - B).max() <= 1e-13 * 5.0
        assert np.array_equal(A, np.swapaxes(A, 1, 2))
        assert r1.standard_normal() == r2.standard_normal()

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_given_spectrum_exact_symmetry(self, n):
        rng = np.random.default_rng(23)
        eigs = rng.uniform(-5.0, 5.0, (self.SIZE, n))
        A = _haar_psd(rng, n, self.SIZE, eigs=eigs)
        assert np.array_equal(A, np.swapaxes(A, 1, 2))
        want = np.sort(eigs, axis=1)
        err = np.abs(np.linalg.eigvalsh(A) - want).max(axis=1)
        assert np.all(err <= 1e-12 * np.abs(want).max(axis=1))


class TestSpectrumFirst:
    """Spectral sets draw spectra, reject on them, and rotate survivors."""

    @staticmethod
    def counting(F):
        seen = {"drawn": 0, "passed": 0}
        f = F.spectral

        def counted(eigs):
            vals = f(eigs)
            seen["drawn"] += len(eigs)
            seen["passed"] += int((vals >= 0.5).sum())
            return vals
        return replace(F, spectral=counted), seen

    @pytest.mark.parametrize("name", ["sigma:k=2:n=3", "pucci:lam=1:Lam=2:n=3",
                                      "branch:real:k=2:n=3"])
    def test_acceptance_and_law_match_plain_rejection(self, name):
        F, seen = self.counting(parse_name(name))
        r, p, A = sample_members(F, 20_000, np.random.default_rng(1),
                                 margin_min=0.5)
        assert len(r) == 20_000
        assert F.value_batch(r, p, A).min() >= 0.5
        # plain rejection from the box: every jet is decided on rho
        rb, pb, Ab = sample_jet_batch(JetBox(), 3, 200_000,
                                      np.random.default_rng(4))
        keep = F.value_batch(rb, pb, Ab) >= 0.5
        box_rate = keep.mean()
        r2, p2, A2 = rb[keep], pb[keep], Ab[keep]
        rate = seen["passed"] / seen["drawn"]
        sd = np.sqrt(box_rate * (1 - box_rate) / seen["drawn"]
                     + box_rate * (1 - box_rate) / len(rb))
        assert abs(rate - box_rate) <= 5 * sd
        for a, b in [(r, r2), (np.linalg.norm(p, axis=1),
                               np.linalg.norm(p2, axis=1)),
                     (A[:, 0, 0], A2[:, 0, 0]), (A[:, 0, 1], A2[:, 0, 1]),
                     (np.einsum("nii->n", A), np.einsum("nii->n", A2))]:
            assert ks_2samp(a, b).pvalue > 1e-3

    def test_dual_forms_keep_the_spectral_recipe(self):
        Fd = dual(parse_name("pucci:lam=1:Lam=2:n=3"))
        assert Fd.spectral is not None
        r, p, A = sample_members(Fd, 5000, np.random.default_rng(6),
                                 margin_min=1e-9)
        assert len(r) == 5000 and Fd.value_batch(r, p, A).min() >= 1e-9


def image_of_branch(seed=0):
    """phi(branch:real:k=2:n=3): the congruence A -> h A h^t with h a
    rotated anisotropic scaling, as in the calculus benchmark."""
    from subeq.jetmaps import AffineJetMap, transform_subequation
    rot = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))[0]
    h = rot @ np.diag([1.0, 2.0, 0.5])
    return transform_subequation(parse_name("branch:real:k=2:n=3"),
                                 AffineJetMap.linear(np.eye(3), h,
                                                     label="phi"))


def bounded_set(name):
    return image_of_branch() if name == "image" else parse_name(name)


class TestMatrixFirst:
    """Sets without a spectral form draw spectra, reject them on their
    spectral bound when they have one, and rotate and draw r and p for the
    survivors only."""

    NAMES = ["branch:complex:k=1:n=2", "geom:p=1:n=3:frames=64",
             "branch:quaternionic:k=1:n=1"]

    @pytest.mark.parametrize("name", NAMES)
    def test_kept_jets_are_members_inside_the_box(self, name):
        F = parse_name(name)
        box = JetBox(r_lo=-1.0, r_hi=2.0, p_radius=0.5)
        r, p, A = sample_members(F, 3000, np.random.default_rng(4), box=box,
                                 margin_min=0.25)
        assert len(r) == 3000 and p.shape == (3000, F.n)
        assert F.value_batch(r, p, A).min() >= 0.25
        assert r.min() >= -1.0 and r.max() <= 2.0
        assert np.linalg.norm(p, axis=1).max() <= 0.5

    @staticmethod
    def check_law(F):
        m = 100_000
        r, p, A = _decide_first_draw(F, JetBox(), np.random.default_rng(1),
                                     m, m, 0.0)
        rb, pb, Ab = sample_jet_batch(JetBox(), F.n, m,
                                      np.random.default_rng(2))
        keep = F.value_batch(rb, pb, Ab) >= 0.0
        rate, box_rate = len(r) / m, keep.mean()
        sd = np.sqrt(2 * box_rate * (1 - box_rate) / m)
        assert abs(rate - box_rate) <= 5 * sd
        # plain rejection from the box: the batch's members
        r2, p2, A2 = rb[keep], pb[keep], Ab[keep]
        last = F.n - 1
        for a, b in [(r, r2), (np.linalg.norm(p, axis=1),
                               np.linalg.norm(p2, axis=1)),
                     (A[:, 0, 0], A2[:, 0, 0]),
                     (A[:, 0, last], A2[:, 0, last]),
                     (np.einsum("nii->n", A), np.einsum("nii->n", A2))]:
            assert ks_2samp(a, b).pvalue > 1e-3

    def test_acceptance_and_law_match_plain_rejection(self):
        self.check_law(parse_name("branch:complex:k=1:n=2"))

    @pytest.mark.parametrize("name", ["geom:p=1:n=3:frames=64", "image"])
    def test_bounded_sets_keep_the_law_of_plain_rejection(self, name):
        F = bounded_set(name)
        assert F.spectral_bound is not None and F.spectral is None
        self.check_law(F)

    @pytest.mark.parametrize("name", ["cy:n=2", "klap:k=3:n=3"])
    def test_sets_reading_r_and_p_keep_the_law_of_plain_rejection(self, name):
        self.check_law(parse_name(name))

    def test_draws_stop_at_need(self):
        F = parse_name("branch:complex:k=1:n=2")
        rng = np.random.default_rng(5)
        r, p, A = _decide_first_draw(F, JetBox(), rng, 4096, 10, 0.0)
        assert len(r) == len(p) == len(A) == 10

    def test_x_dependent_images_are_decided_at_x(self):
        from subeq.jetmaps import inhom_branch
        F = inhom_branch(1, 2, lambda x: x[:, 0])
        assert F.pure_second_order and F.x_dependent
        x = np.array([0.5, 0.0])
        r, p, A = sample_members(F, 500, np.random.default_rng(6), x=x)
        xb = np.repeat(x[None], 500, 0)
        assert F.value_batch(r, p, A, x=xb).min() >= 0.0

    @staticmethod
    def check_at_most_once(F, monkeypatch):
        import subeq.core
        rho, haar = F.rho_batch, subeq.core._haar_psd
        counts = {"evaluated": 0, "drawn": 0}

        def counted_rho(r, p, A):
            counts["evaluated"] += len(A)
            return rho(r, p, A)

        def counted_haar(rng, n, size, *a, **kw):
            counts["drawn"] += size
            return haar(rng, n, size, *a, **kw)

        monkeypatch.setattr(subeq.core, "_haar_psd", counted_haar)
        F = replace(F, rho_batch=counted_rho)
        r, p, A = sample_members(F, 10_000, np.random.default_rng(7))
        assert len(r) == 10_000
        assert 0 < counts["evaluated"] <= counts["drawn"]

    def test_each_drawn_jet_is_evaluated_at_most_once(self, monkeypatch):
        self.check_at_most_once(parse_name("branch:complex:k=1:n=2"),
                                monkeypatch)

    @pytest.mark.parametrize("name", ["geom:p=1:n=3:frames=64", "image"])
    def test_bounded_sets_evaluate_each_jet_at_most_once(self, name,
                                                         monkeypatch):
        self.check_at_most_once(bounded_set(name), monkeypatch)


class TestAscending:
    """The sampler orders spectra by a compare-exchange network on the
    transposed block, bit for bit as np.sort."""

    @staticmethod
    def draws(n, m=5000, seed=0):
        rng = np.random.default_rng(seed)
        part = rng.uniform(-5.0, 5.0, (m, n))
        # ties of whole rows, of pairs, and integer-valued rows
        part[::7] = part[::7, :1]
        part[1::5, -1] = part[1::5, 0]
        part[2::3] = rng.integers(-2, 3, part[2::3].shape)
        return part

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_equals_np_sort_bit_for_bit(self, n):
        part = self.draws(n)
        got = _ascending(part)
        assert np.array_equal(np.sort(part, axis=1).view(np.int64),
                              got.view(np.int64))
        assert np.array_equal(part, self.draws(n))       # input untouched

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_signed_zeros_keep_their_order(self, n):
        # a stable sort: +0 and -0 keep the order they came in.  np.sort
        # need not (its vectorised kernels may swap them), so the network
        # is held to np.sort(kind="stable") here
        rng = np.random.default_rng(n)
        part = rng.integers(-1, 2, (20_000, n)).astype(float)
        part[rng.random(part.shape) < 0.3] *= -1.0
        part = np.where(rng.random(part.shape) < 0.3, -0.0, part)
        got = _ascending(part)
        want = np.sort(part, axis=1, kind="stable")
        assert np.array_equal(want.view(np.int64), got.view(np.int64))
        assert np.array_equal(got, np.sort(part, axis=1))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spectral_forms_read_the_view_bit_for_bit(self, n):
        from test_catalog import _spectral_names
        part = self.draws(n)
        view, flat = _ascending(part), np.sort(part, axis=1)
        assert not view.flags.c_contiguous
        for name in _spectral_names(n):
            for F in (parse_name(name), dual(parse_name(name))):
                assert np.array_equal(F.spectral(view).view(np.int64),
                                      F.spectral(flat).view(np.int64)), name

    def test_larger_rows_take_np_sort(self):
        part = self.draws(6)
        assert np.array_equal(_ascending(part), np.sort(part, axis=1))


class TestBasePoint:
    """``value_batch`` reads the base point of an x-dependent set."""

    @staticmethod
    def batch(N=64, seed=8):
        from subeq.jetmaps import inhom_branch
        F = inhom_branch(1, 2, lambda x: x[:, 0] - 2.0 * x[:, 1])
        return (F,) + sample_jet_batch(JetBox(), 2, N,
                                       np.random.default_rng(seed))

    def test_one_point_stands_for_the_batch(self):
        F, r, p, A = self.batch()
        x = np.array([0.5, -0.25])
        want = F.value_batch(r, p, A, np.repeat(x[None], len(r), 0))
        assert np.array_equal(F.value_batch(r, p, A, x), want)
        assert F.value(Jet.from_parts(r[3], p[3], A[3]), x) == want[3]

    def test_missing_base_point_raises(self):
        F, r, p, A = self.batch()
        with pytest.raises(ValueError, match="needs base points"):
            F.value_batch(r, p, A)


class TestSphereQMC:
    def test_cached_points_equal_a_fresh_draw_and_are_read_only(self):
        U = _unit_sphere_qmc(10, 64, seed=3)
        assert U is _unit_sphere_qmc(10, 64, seed=3)
        fresh = _unit_sphere_qmc.__wrapped__(10, 64, seed=3)
        assert np.array_equal(U, fresh)
        assert not U.flags.writeable
        with pytest.raises(ValueError):
            U[0, 0] = 0.0

    @pytest.mark.parametrize("dim,k", [(1, 5), (2, 20), (3, 64), (10, 300)])
    def test_unit_rows_and_seeded(self, dim, k):
        U = _unit_sphere_qmc(dim, k, seed=0)
        assert U.shape == (k, dim)
        assert np.allclose(np.linalg.norm(U, axis=1), 1.0, atol=1e-14)
        assert np.array_equal(U, _unit_sphere_qmc.__wrapped__(dim, k, 0))
        assert not np.array_equal(U, _unit_sphere_qmc(dim, k, seed=1))
        assert _unit_sphere_qmc(dim, 0).shape == (0, dim)

    @pytest.mark.parametrize("seed", range(4))
    def test_covering_radius_on_the_2_sphere(self, seed):
        # every one of 2e5 random probes lies within 30 degrees of one of 64
        # points; plain normal draws reach 31-39 degrees
        probes = np.random.default_rng(12345).standard_normal((200_000, 3))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        near = (probes @ _unit_sphere_qmc(3, 64, seed=seed).T).max(axis=1)
        assert np.degrees(np.arccos(min(near.min(), 1.0))) <= 30.0

    @pytest.mark.parametrize("k", [20, 64, 256])
    def test_largest_angular_gap_in_the_plane(self, k):
        for seed in range(4):
            U = _unit_sphere_qmc(2, k, seed=seed)
            th = np.sort(np.arctan2(U[:, 1], U[:, 0]))
            gaps = np.diff(np.append(th, th[0] + 2 * np.pi))
            assert gaps.max() <= 6 * 2 * np.pi / k


class TestAxioms:
    @pytest.mark.parametrize("name", [
        "laplace:n=2", "branch:real:k=1:n=3", "branch:real:k=2:n=3",
        "pucci:lam=1:Lam=2:n=2", "pcone:p=2.5:n=4", "slag:c=0:n=2",
        "sigma:k=2:n=3",
    ])
    def test_positivity_negativity(self, name):
        F = parse_name(name)
        for ax in ("P", "N"):
            rep = axiom_check(F, ax, trials=2000, seed=3)
            assert rep.passed, f"{name} {ax}: {rep.witness}"

    def test_violation_detected(self):
        # concave-in-A constraint breaks (P); the checker must notice
        bad = Subequation(2, lambda r, p, A: -np.trace(np.atleast_3d(A).T
                                                       ).astype(float)
                          if False else -A[..., 0, 0] - A[..., 1, 1],
                          "antilaplace", pure_second_order=True, reduced=True)
        rep = axiom_check(bad, "P", trials=500, seed=0)
        assert not rep.passed
        assert rep.witness is not None

    def test_registration(self):
        rep = validate_registration(laplace(2))
        assert rep["cone_sign_ok"] and rep["boundary_ok"]

    def test_registration_flags_a_false_cone(self):
        # tr A - 1 changes sign along rays, so it is no cone
        F = Subequation(2, lambda r, p, A: np.trace(A, axis1=1, axis2=2) - 1,
                        "bad-cone", cone=True)
        assert not validate_registration(F)["cone_sign_ok"]

    def test_registration_flags_a_fat_zero_shell(self):
        # rho = 0 on all of 0 <= tr A <= 2, so {rho > 0} is not the
        # interior of F: no interior point lies near the boundary tr A = 0
        def rho(r, p, A):
            t = np.trace(A, axis1=1, axis2=2)
            return np.where(t > 2, t - 2, np.minimum(t, 0.0))

        F = Subequation(2, rho, "fat-shell", pure_second_order=True)
        rep = validate_registration(F)
        assert rep["cone_sign_ok"] and not rep["boundary_ok"]


class TestMonotonicity:
    def test_laplace_by_convexity_cone(self):
        F = laplace(2)
        M = parse_name("appb:case=1:n=2")
        rep = monotonicity_check(F, M, trials=2000, seed=1)
        assert rep.passed
        assert rep.agreement

    def test_report_shape(self):
        rep = monotonicity_check(laplace(2), parse_name("appb:case=1:n=2"),
                                 trials=500, seed=2)
        d = rep.to_json_dict()
        assert {"direct", "dual_form", "agreement"} <= set(d)


class TestAsymptoticInterior:
    def test_cone_shortcut_matches_strict(self):
        F = convexity(2)
        j = Jet.from_parts(0.0, [0.0, 0.0], np.eye(2))
        assert asymptotic_interior_member(F, j)
        j2 = Jet.from_parts(0.0, [0.0, 0.0], np.diag([1.0, -0.5]))
        assert not asymptotic_interior_member(F, j2)

    def test_r_slice_semantics(self):
        # r-dependent F: scaling acts on (p, A) only, r is held fixed
        F = parse_name("appb:case=2:n=2")       # r <= 0 and A >= 0
        j_ok = Jet.from_parts(-1.0, [0.0, 0.0], np.eye(2))
        j_bad = Jet.from_parts(1.0, [0.0, 0.0], np.eye(2))
        assert asymptotic_interior_member(F, j_ok)
        assert not asymptotic_interior_member(F, j_bad)

    def test_strict_member(self):
        F = convexity(2)
        j = Jet.from_parts(0.0, [0.0, 0.0], 3 * np.eye(2))
        assert strict_member(F, j, 1.0)
        assert not strict_member(F, j, 10.0)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_dual_involution_property(seed):
    r = np.random.default_rng(seed)
    F = parse_name("branch:real:k=2:n=3")
    FD2 = dual(dual(F))
    A = r.standard_normal((3, 3))
    A = 0.5 * (A + A.T)
    j = Jet.from_parts(float(r.uniform(-3, 3)), r.uniform(-3, 3, 3), A)
    assert np.isclose(F.value(j), FD2.value(j), atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_positivity_direction_property(seed):
    """Adding a PSD matrix never lowers the branch defining value."""
    r = np.random.default_rng(seed)
    F = parse_name("branch:real:k=1:n=2")
    A = r.standard_normal((2, 2))
    A = 0.5 * (A + A.T)
    G = r.standard_normal((2, 2))
    P = G @ G.T
    j = Jet.from_parts(0.0, [0.0, 0.0], A)
    jp = Jet.from_parts(0.0, [0.0, 0.0], A + P)
    assert F.value(jp) >= F.value(j) - 1e-10


class TestBisect:
    def test_entries_bracket_their_own_thresholds(self):
        from subeq.core import bisect
        c = np.array([0.1, 0.5, 0.77, 2.5, -3.0])
        lo, hi = bisect(lambda m: m <= c, np.full(5, -4.0), np.full(5, 4.0),
                        40)
        assert np.all(lo <= c) and np.all(c < hi)
        assert np.allclose(hi - lo, 8.0 / 2 ** 40)

    def test_done_freezes_entries(self):
        from subeq.core import bisect
        c = np.array([0.3, 0.6, 0.9])
        frozen = np.array([False, True, False])
        lo, hi = bisect(lambda m: m <= c, np.zeros(3), np.ones(3), 30,
                        done=lambda lo, hi: frozen)
        assert lo[1] == 0.0 and hi[1] == 1.0
        assert abs(lo[0] - 0.3) < 1e-8 and abs(lo[2] - 0.9) < 1e-8

    def test_done_stops_each_entry_at_its_tolerance(self):
        from subeq.core import bisect
        c = np.array([0.3, 0.6])
        tol = np.array([1e-2, 1e-6])
        calls = []

        def accept(m):
            calls.append(m.copy())
            return m <= c

        lo, hi = bisect(accept, np.zeros(2), np.ones(2), 100,
                        done=lambda lo, hi: hi - lo <= tol)
        assert np.all(hi - lo <= tol) and np.all(hi - lo > tol / 2)
        assert len(calls) == 20          # 2**-20 < 1e-6 <= 2**-19

    def test_step_cap(self):
        from subeq.core import bisect
        calls = []

        def accept(m):
            calls.append(1)
            return m <= 0.123

        lo, hi = bisect(accept, 0.0, 1.0, 5)
        assert len(calls) == 5
        assert hi - lo == 1.0 / 32 and lo <= 0.123 < hi


def plain_bisection(accept, lo, hi, steps, done=None):
    """The predicate-only bisection, written out as a reference."""
    for _ in range(steps):
        stop = np.zeros(np.shape(lo), dtype=bool) if done is None \
            else done(lo, hi)
        if np.all(stop):
            break
        mid = 0.5 * (lo + hi)
        ok = accept(mid)
        lo = np.where(ok & ~stop, mid, lo)
        hi = np.where(ok | stop, hi, mid)
    return lo, hi


class TestBisectValueMode:
    """``illinois``: budgeted Illinois steps on a margin, and ``bisect``."""

    @staticmethod
    def counted(g, n):
        """g(x, idx) that counts the evaluations of every entry."""
        steps = np.zeros(n, dtype=int)

        def gi(x, idx):
            steps[idx] += 1
            return g(x, idx)
        return gi, steps

    @staticmethod
    def budget(w0, tol):
        from subeq.core import ILLINOIS_SLACK
        return np.ceil(np.log2(w0 / tol)).astype(int) + ILLINOIS_SLACK

    @pytest.mark.parametrize("done", [None, "width"])
    def test_predicate_mode_is_plain_bisection(self, done):
        from subeq.core import bisect
        rng = np.random.default_rng(3)
        c = rng.uniform(-1.0, 1.0, 257)
        lo0, hi0 = np.full(257, -1.5), rng.uniform(1.0, 2.0, 257)
        tol = rng.uniform(1e-12, 1e-3, 257)
        stop = None if done is None else (lambda lo, hi: hi - lo <= tol)
        got = bisect(lambda m: m <= c, lo0, hi0, 45, done=stop)
        want = plain_bisection(lambda m: m <= c, lo0, hi0, 45, done=stop)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    def test_one_sided_quadratic_zero_stays_in_budget(self):
        # the member side touches zero quadratically, as at a double
        # eigenvalue: false position creeps there, so the budget must hold
        from subeq.core import illinois
        rng = np.random.default_rng(7)
        n, tol = 400, 1e-11
        c = rng.uniform(0.1, 0.9, n)
        s = rng.uniform(0.1, 10.0, n)

        def g(x, idx):
            d = c[idx] - x
            return np.where(d >= 0, d * d, s[idx] * d)

        lo, hi = np.zeros(n), np.ones(n)
        ends = (c * c, s * (c - 1.0))
        gi, steps = self.counted(g, n)
        lo, hi = illinois(gi, lo, hi, 64, ends, tol)
        assert np.all(lo <= c) and np.all(c < hi) and np.all(hi - lo <= tol)
        assert np.all(steps <= self.budget(np.ones(n), tol))

    def test_smooth_convex_margin_beats_bisection(self):
        from subeq.core import illinois
        rng = np.random.default_rng(8)
        n, tol = 300, 1e-10
        c = rng.uniform(-1.0, 1.0, n)
        g = lambda x, idx: np.exp(-x) - np.exp(-c[idx])
        lo, hi = np.full(n, -2.0), np.full(n, 2.0)
        gi, steps = self.counted(g, n)
        lo, hi = illinois(gi, lo, hi, 64,
                          (np.exp(2.0) - np.exp(-c),
                           np.exp(-2.0) - np.exp(-c)), tol)
        idx = np.arange(n)
        assert np.all(g(lo, idx) >= 0) and np.all(g(hi, idx) < 0)
        assert np.all(hi - lo <= tol) and np.all(np.abs(lo - c) <= tol)
        bisection = int(np.ceil(np.log2(4.0 / tol)))
        assert steps.max() < bisection and steps.mean() < bisection / 3

    def test_narrow_entries_are_not_evaluated(self):
        from subeq.core import illinois
        lo, hi = np.array([0.0, 0.0]), np.array([1.0, 1e-12])
        gi, steps = self.counted(lambda x, idx: 0.3 - x, 2)
        new_lo, new_hi = illinois(gi, lo, hi, 64,
                                  (np.full(2, 0.3), np.array([-0.7, 0.3])),
                                  1e-9)
        assert steps[1] == 0 and new_lo[1] == 0.0 and new_hi[1] == 1e-12
        assert new_lo[0] <= 0.3 < new_hi[0] and new_hi[0] - new_lo[0] <= 1e-9
        assert hi[0] == 1.0           # the inputs are not written to


class TestSharedSamplers:
    def test_jet_batch_is_uniform_then_ball_then_haar(self):
        from subeq.core import _ball, _haar_psd
        box = JetBox(r_lo=-2.0, r_hi=3.0, p_radius=1.5, eig_lo=-1.0,
                     eig_hi=4.0)
        r, p, A = sample_jet_batch(box, 3, 64, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        assert np.array_equal(r, rng.uniform(-2.0, 3.0, 64))
        assert np.array_equal(p, _ball(rng, 3, 64, 1.5))
        assert np.array_equal(A, _haar_psd(rng, 3, 64, -1.0, 4.0))
