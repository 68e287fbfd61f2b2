"""Domain geometry: defining functions, curvature, convexity verdicts."""

import numpy as np
import pytest

from subeq import parse_name
from subeq.boundary import (DEFAULT_LAMBDA_GRID, DomainSpec, ball_domain,
                            annulus_domain, ellipsoid_domain, star_domain,
                            second_fundamental_form, sample_boundary_points,
                            strict_convexity_test, tangent_trace_test)
from subeq.core import Jet, asymptotic_interior_member
from subeq.errors import ConfigError, GeometryError


def strip_callbacks(D):
    """Same region, forced through the finite-difference fallbacks."""
    return DomainSpec(D.n, D.rho_dom, label=D.label + ":fd")


class TestDifferenceFallbacks:
    def test_gradient_matches_analytic(self, rng):
        E = ellipsoid_domain([1.0, 2.0, 0.5])
        Efd = strip_callbacks(E)
        for _ in range(5):
            x = rng.uniform(-0.5, 0.5, 3)
            assert np.allclose(Efd.gradient(x), E.gradient(x), atol=1e-7)

    def test_hessian_matches_analytic(self, rng):
        E = ellipsoid_domain([1.0, 2.0, 0.5])
        Efd = strip_callbacks(E)
        x = rng.uniform(-0.5, 0.5, 3)
        assert np.allclose(Efd.hessian(x), E.hessian(x), atol=1e-5)

    def test_contains(self):
        B = ball_domain(2, radius=1.0)
        assert B.contains([0.2, 0.3])
        assert not B.contains([1.5, 0.0])


class TestCurvature:
    def test_sphere_form_is_inverse_radius(self):
        R = 1.75
        B = ball_domain(3, radius=R)
        x = R * np.array([0.6, 0.8, 0.0])
        nu, II, T = second_fundamental_form(B, x)
        assert np.allclose(nu, x / R, atol=1e-12)
        assert np.allclose(np.linalg.eigvalsh(II), 1.0 / R, atol=1e-9)

    def test_frame_is_orthonormal_and_tangent(self):
        B = ball_domain(4, radius=1.0)
        x = np.array([0.0, 0.0, 1.0, 0.0])
        nu, II, T = second_fundamental_form(B, x)
        assert T.shape == (4, 3)
        assert np.allclose(T.T @ T, np.eye(3), atol=1e-12)
        assert np.allclose(T.T @ nu, 0.0, atol=1e-12)

    def test_annulus_inner_wall_curves_away(self):
        # difference-quotient route: the hole's wall has curvature -1/r_in
        A = annulus_domain(2, r_in=1.0, r_out=2.0)
        x = np.array([1.0, 0.0])
        nu, II, T = second_fundamental_form(A, x)
        assert np.allclose(nu, [-1.0, 0.0], atol=1e-6)   # outward = inward ray
        assert np.allclose(II, [[-1.0]], atol=1e-5)

    def test_annulus_outer_wall(self):
        A = annulus_domain(2, r_in=1.0, r_out=2.0)
        x = np.array([0.0, 2.0])
        nu, II, T = second_fundamental_form(A, x)
        assert np.allclose(nu, [0.0, 1.0], atol=1e-6)
        assert np.allclose(II, [[0.5]], atol=1e-5)

    def test_rejects_off_boundary_point(self):
        B = ball_domain(2)
        with pytest.raises(GeometryError):
            second_fundamental_form(B, [0.5, 0.0])

    def test_rejects_degenerate_gradient(self):
        D = DomainSpec(2, lambda x: np.sum(np.asarray(x) ** 2, axis=1))
        with pytest.raises(GeometryError):
            second_fundamental_form(D, [0.0, 0.0])


class TestBoundarySampling:
    def test_ball_points_on_sphere(self):
        B = ball_domain(3, radius=1.3)
        pts = sample_boundary_points(B, 64, seed=2)
        assert pts.shape == (64, 3)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.3, atol=1e-9)

    def test_star_points_vanish_defining_function(self):
        S = star_domain(2, amplitude=0.2, lobes=5)
        pts = sample_boundary_points(S, 32, seed=0)
        assert np.max(np.abs(S.rho_dom(pts))) < 1e-9

    def test_annulus_anchor_rescue(self):
        # the origin is outside the region; the sampler must find its own
        # interior anchor and still land on one of the two walls
        A = annulus_domain(2, r_in=0.5, r_out=1.0)
        pts = sample_boundary_points(A, 32, seed=0)
        r = np.linalg.norm(pts, axis=1)
        near_wall = np.minimum(np.abs(r - 0.5), np.abs(r - 1.0))
        assert near_wall.max() < 1e-9

    def test_empty_region_raises(self):
        D = DomainSpec(2, lambda x: np.ones(len(np.atleast_2d(x))))
        with pytest.raises(GeometryError):
            sample_boundary_points(D, 4)

    def test_unbounded_ray_raises(self):
        D = DomainSpec(2, lambda x: -np.ones(len(np.atleast_2d(x))))
        with pytest.raises(GeometryError):
            sample_boundary_points(D, 4)


class TestConvexityVerdicts:
    def test_dimension_guard(self):
        with pytest.raises(ConfigError, match="dimension 2 != domain 3"):
            strict_convexity_test(parse_name("laplace:n=2"), ball_domain(3),
                                  [1.0, 0.0, 0.0])

    def test_ball_convex_for_convexity_branch(self):
        F = parse_name("branch:real:k=1:n=2")
        B = ball_domain(2)
        v = strict_convexity_test(F, B, [1.0, 0.0])
        assert v.overall and all(v.per_lambda)
        assert v.min_eig_II > 0

    def test_sphere_curvature_in_3d(self):
        # radius 2: II = Id/2 on the 2-d tangent plane
        F = parse_name("branch:real:k=1:n=3")
        u = np.array([1.0, -2.0, 0.5])
        for x in ([0.0, 0.0, 2.0], 2.0 * u / np.linalg.norm(u)):
            v = strict_convexity_test(F, ball_domain(3, radius=2.0), x)
            assert v.overall
            assert abs(v.min_eig_II - 0.5) < 1e-12
            assert abs(v.trace_II - 1.0) < 1e-12

    def test_annulus_inner_fails_lowest_branch(self):
        F = parse_name("branch:real:k=1:n=2")
        A = annulus_domain(2, r_in=1.0, r_out=2.0)
        inner = strict_convexity_test(F, A, [1.0, 0.0])
        outer = strict_convexity_test(F, A, [2.0, 0.0])
        assert not inner.overall
        assert outer.overall

    def test_annulus_inner_passes_top_branch(self):
        F = parse_name("branch:real:k=2:n=2")
        A = annulus_domain(2, r_in=1.0, r_out=2.0)
        assert strict_convexity_test(F, A, [1.0, 0.0]).overall

    def test_star_passes_sup_gradient_family(self):
        F = parse_name("klap:k=inf:n=2")
        S = star_domain(2, amplitude=0.2, lobes=5)
        pts = sample_boundary_points(S, 6, seed=1)
        assert all(strict_convexity_test(F, S, x).overall for x in pts)

    def test_json_dict(self):
        import json
        F = parse_name("laplace:n=2")
        v = strict_convexity_test(F, ball_domain(2), [0.0, 1.0])
        d = v.to_json_dict()
        json.dumps(d)
        assert d["overall"] is True


def full_grid_verdicts(F, D, x, lambda_grid=DEFAULT_LAMBDA_GRID,
                       t_max=2.0 ** 16):
    """Reference per-lambda verdicts: every t of the geometric grid is
    evaluated, and the last four decide."""
    x = np.asarray(x, dtype=float)
    nu, II, T = second_fundamental_form(D, x)
    II_amb = T @ II @ T.T
    ts = [1.0]
    while ts[-1] < t_max:
        ts.append(min(2.0 * ts[-1], t_max))

    def verdict_at(lam):
        tail = [asymptotic_interior_member(
            F, Jet(lam, nu, t * np.outer(nu, nu) + II_amb),
            x=x if F.x_dependent else None) for t in ts]
        return all(tail[-4:])

    if F.reduced or F.pure_second_order:
        return (verdict_at(0.0),) * len(lambda_grid)
    return tuple(verdict_at(lam) for lam in lambda_grid)


class TestConvexityTail:
    """Only the last four t-values are evaluated; the verdicts are those of
    the full grid on the benchmark battery's points."""

    def cases(self):
        k1, kinf = parse_name("klap:k=1:n=2"), parse_name("klap:k=inf:n=2")
        disk, annulus = ball_domain(2), annulus_domain(2, 1.0, 2.0)
        star = star_domain(2, amplitude=0.15, lobes=5, seed=2)
        th = 2.0 * np.pi * np.arange(20) / 20.0
        wall = np.stack([np.cos(th), np.sin(th)], axis=1)
        return [(k1, disk, sample_boundary_points(disk, 20, seed=3)),
                (k1, annulus, wall),
                (kinf, disk, sample_boundary_points(disk, 20, seed=5)),
                (kinf, annulus, sample_boundary_points(annulus, 20, seed=5)),
                (kinf, star, sample_boundary_points(star, 20, seed=5)),
                (parse_name("branch:real:k=1:n=2"), annulus, wall[:4]),
                (parse_name("cy:n=2"), annulus, wall[:4])]

    def test_verdicts_equal_full_grid(self):
        seen = set()
        for F, D, pts in self.cases():
            for x in pts:
                v = strict_convexity_test(F, D, x)
                assert v.per_lambda == full_grid_verdicts(F, D, x)
                seen.add(v.overall)
        assert seen == {True, False}


class TestTangentTrace:
    def test_sphere_passes(self, rng):
        B = ball_domain(3)
        frames = np.linalg.qr(rng.standard_normal((8, 3, 2)))[0]
        assert tangent_trace_test(B, [0.0, 0.0, 1.0], frames)

    def test_inner_wall_fails(self, rng):
        A = annulus_domain(3, r_in=1.0, r_out=2.0)
        frames = np.linalg.qr(rng.standard_normal((8, 3, 2)))[0]
        assert not tangent_trace_test(A, [1.0, 0.0, 0.0], frames)

    def test_all_normal_frames_raise(self):
        B = ball_domain(2)
        frames = np.array([[[1.0], [0.0]]])   # parallel to nu at (1, 0)
        with pytest.raises(GeometryError):
            tangent_trace_test(B, [1.0, 0.0], frames)
