"""Lattice plumbing: stencils, jet assembly, masks, parameters."""

import dataclasses

import numpy as np
import pytest

from subeq.grid import (stencil_offsets, JetAssembler, Grid, SolverParams,
                        GridProblem, discrete_jet)
from subeq.boundary import ball_domain
from subeq.errors import ConfigError, GeometryError
from subeq import parse_name

from conftest import random_sym


def quad_field(c, b, Q):
    """x -> c + b.x + x.Q.x/2 on batched points."""
    def f(x):
        x = np.atleast_2d(x)
        return (c + x @ b + 0.5 * np.einsum("ni,ij,nj->n", x, Q, x))
    return f


def sampled(f, m, h, n):
    axes = [h * np.arange(m)] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([a.ravel() for a in mesh], axis=1)
    return f(pts).reshape((m,) * n)


class TestStencilOffsets:
    @pytest.mark.parametrize("name,n,count", [
        ("5pt", 2, 4), ("9pt", 2, 8), ("wide16", 2, 16),
        ("5pt", 3, 6), ("9pt", 3, 18),
    ])
    def test_counts(self, name, n, count):
        offs = stencil_offsets(name, n)
        assert offs.shape == (count, n)
        assert len({tuple(d) for d in offs}) == count

    def test_symmetric_pairs(self):
        offs = stencil_offsets("wide16", 2)
        keys = {tuple(d) for d in offs}
        assert all(tuple(-d) in keys for d in offs)

    def test_one_dimensional_fallback(self):
        for name in ("5pt", "9pt"):
            assert stencil_offsets(name, 1).shape == (2, 1)

    def test_guards(self):
        with pytest.raises(ConfigError):
            stencil_offsets("wide16", 3)
        with pytest.raises(ConfigError):
            stencil_offsets("13pt", 2)


class TestQuadraticExactness:
    def test_9pt_full_quadratic(self, rng):
        h = 0.1
        b = rng.uniform(-1, 1, 2)
        Q = random_sym(rng, 2)
        u = sampled(quad_field(0.3, b, Q), 7, h, 2)
        J = discrete_jet(u, (3, 3), h, stencil="9pt")
        x0 = h * np.array([3.0, 3.0])
        assert np.isclose(J.r, quad_field(0.3, b, Q)(x0)[0], atol=1e-12)
        assert np.allclose(J.p, b + Q @ x0, atol=1e-10)
        assert np.allclose(J.A, Q, atol=1e-9)

    def test_wide16_full_quadratic(self, rng):
        h = 0.05
        b = rng.uniform(-1, 1, 2)
        Q = random_sym(rng, 2)
        u = sampled(quad_field(-0.2, b, Q), 9, h, 2)
        J = discrete_jet(u, (4, 4), h, stencil="wide16")
        x0 = h * np.array([4.0, 4.0])
        assert np.allclose(J.p, b + Q @ x0, atol=1e-9)
        assert np.allclose(J.A, Q, atol=1e-8)

    def test_5pt_separable_quadratic(self, rng):
        h = 0.1
        Q = np.diag(rng.uniform(-2, 2, 2))
        u = sampled(quad_field(0.0, np.zeros(2), Q), 7, h, 2)
        J = discrete_jet(u, (3, 3), h, stencil="5pt")
        assert np.allclose(J.A, Q, atol=1e-9)

    def test_5pt_misses_mixed_terms(self):
        # documented limitation: axis-only stencils read zero cross term
        h = 0.1
        Q = np.array([[0.0, 1.0], [1.0, 0.0]])
        u = sampled(quad_field(0.0, np.zeros(2), Q), 7, h, 2)
        J = discrete_jet(u, (3, 3), h, stencil="5pt")
        assert abs(J.A[0, 1]) < 1e-12

    def test_3d_mixed_terms(self, rng):
        h = 0.2
        Q = random_sym(rng, 3)
        u = sampled(quad_field(0.1, np.zeros(3), Q), 5, h, 3)
        J = discrete_jet(u, (2, 2, 2), h, stencil="9pt")
        assert np.allclose(J.A, Q, atol=1e-8)

    def test_edge_poke_raises(self):
        u = np.zeros((5, 5))
        with pytest.raises(GeometryError):
            discrete_jet(u, (0, 2), 0.1)


class TestSlopes:
    """Every stencil is symmetric, so the center value r moves only A, by
    ``JetAssembler.c`` * I: the node update's line r -> (r, p, A + c r I)
    rests on it."""

    STENCILS = [pytest.param(s, n, id=s if n == 2 else f"{s}-{n}d")
                for s, n in (("5pt", 1), ("5pt", 2), ("5pt", 3), ("9pt", 1),
                             ("9pt", 2), ("9pt", 3), ("wide16", 2))]

    def test_direct_mode(self):
        asm = JetAssembler("9pt", 2, 0.25)
        assert asm.c == -2.0 / 0.25 ** 2
        slope = -asm.W.sum(axis=0)
        assert np.array_equal(slope, np.r_[0.0, 0.0, asm.c * np.eye(2).ravel()])

    @pytest.mark.parametrize("stencil, n", STENCILS)
    def test_center_moves_only_A_by_c_times_I(self, stencil, n):
        asm = JetAssembler(stencil, n, 1.0 / 32)
        slope = -asm.W.sum(axis=0)
        want = np.r_[np.zeros(n), asm.c * np.eye(n).ravel()]
        assert asm.c < 0
        if stencil == "wide16":
            assert np.abs(slope - want).max() <= 1e-12 * abs(asm.c)
        else:
            assert np.array_equal(slope, want)

    @pytest.mark.parametrize("stencil, n", STENCILS)
    def test_matches_assembly_difference(self, rng, stencil, n):
        # jets are affine in the center value: p stays, A moves by d c I
        asm = JetAssembler(stencil, n, 0.1)
        V = rng.uniform(-1, 1, (asm.K, 6))
        r = rng.uniform(-1, 1, 6)
        d = 0.37
        p0, A0 = asm.assemble(V, r)
        p1, A1 = asm.assemble(V, r + d)
        assert np.allclose(p1 - p0, 0.0, atol=1e-12)
        assert np.allclose(A1 - A0, d * asm.c * np.eye(n)[None], atol=1e-10)

    def test_direct_stencils_are_the_difference_formulas(self, rng):
        # random, non-polynomial neighbor values: the direct stencils give
        # the centered axis and diagonal differences, and every stencil
        # assembles an exactly symmetric A
        h = 0.05
        for stencil, n in (("5pt", 1), ("9pt", 1), ("5pt", 2), ("9pt", 2),
                           ("5pt", 3), ("9pt", 3), ("wide16", 2)):
            asm = JetAssembler(stencil, n, h)
            V = rng.uniform(-1, 1, (asm.K, 40))
            r = rng.uniform(-1, 1, 40)
            p, A = asm.assemble(V, r)
            assert np.array_equal(A, np.swapaxes(A, 1, 2)), stencil
            if stencil == "wide16":
                continue
            key = {tuple(d): k for k, d in enumerate(asm.offsets)}
            eye = np.eye(n, dtype=int)

            def at(d):
                return V[key[tuple(d)]]

            p_ref = np.stack([(at(e) - at(-e)) / (2 * h) for e in eye], 1)
            A_ref = np.zeros_like(A)
            for i in range(n):
                A_ref[:, i, i] = (at(eye[i]) + at(-eye[i]) - 2 * r) / h ** 2
                for j in range(i + 1, n):
                    if stencil == "9pt":
                        d, s = eye[i] + eye[j], eye[i] - eye[j]
                        A_ref[:, i, j] = A_ref[:, j, i] = (
                            at(d) + at(-d) - at(s) - at(-s)) / (4 * h ** 2)
            for got, ref in ((p, p_ref), (A, A_ref)):
                assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_nsd_center_slope(self):
        # raising the center value can only push A downward: the node
        # update's bisection leans on membership being monotone in r
        for stencil, n in (("5pt", 1), ("5pt", 2), ("5pt", 3), ("9pt", 1),
                           ("9pt", 2), ("9pt", 3), ("wide16", 2)):
            assert JetAssembler(stencil, n, 0.1).c < 0, (stencil, n)


class TestGrid:
    def test_regular_basics(self):
        g = Grid.regular([(0, 1), (0, 1)], 5)
        assert g.shape == (5, 5) and np.isclose(g.h, 0.25)
        pts = g.points()
        assert pts.shape == (25, 2)
        assert np.allclose(pts[0], [0, 0]) and np.allclose(pts[-1], [1, 1])
        assert g.size() == 25

    def test_regular_guards(self):
        with pytest.raises(ConfigError):
            Grid.regular([(0, 1)], 2)
        with pytest.raises(ConfigError):
            Grid.regular([(0, 1), (0, 2)], 5)     # anisotropic spacing
        with pytest.raises(ConfigError):
            Grid.regular([(1, 1)], 5)
        for bad in (np.inf, np.nan):
            with pytest.raises(ConfigError, match="finite"):
                Grid.regular([(0, bad), (0, bad)], 9)


class TestGridProblem:
    @staticmethod
    def box_problem(m=7, stencil="9pt"):
        g = Grid.regular([(0, 1), (0, 1)], m)
        F = parse_name("laplace:n=2")
        return GridProblem(g, F, lambda x: x[:, 0],
                           params=SolverParams(stencil=stencil))

    def test_box_masks(self):
        P = self.box_problem(7)
        assert len(P.interior_idx) == 25          # (7-2)^2
        assert len(P.boundary_idx) == 49 - 25
        assert not np.intersect1d(P.interior_idx, P.boundary_idx).size

    def test_masked_domain_partition(self):
        g = Grid.regular([(-1.2, 1.2), (-1.2, 1.2)], 25)
        P = GridProblem(g, parse_name("laplace:n=2"),
                        lambda x: np.zeros(len(x)), domain=ball_domain(2))
        inside_ct = int(P.inside.sum())
        assert inside_ct == len(P.interior_idx) + len(P.boundary_idx)
        # every neighbor of an interior node stays inside the region
        assert P.inside[P.nb].all()

    def test_colors_partition_interior(self):
        P = self.box_problem(8)
        cat = np.sort(np.concatenate(P.colors))
        assert np.array_equal(cat, np.arange(len(P.interior_idx)))
        assert 2 <= len(P.colors) <= 4

    @pytest.mark.parametrize("n, stencil", [
        (1, "5pt"), (2, "5pt"), (3, "5pt"), (1, "9pt"), (2, "9pt"),
        (3, "9pt"), (2, "wide16"),
    ])
    def test_no_color_holds_a_neighbor_of_its_own_nodes(self, n, stencil):
        # every stencil offset is odd in some coordinate, so the 2^n parity
        # classes are a proper coloring: a class's nodes read no value that
        # the same class writes
        P = GridProblem(Grid.regular([(0.0, 1.0)] * n, 9),
                        parse_name(f"laplace:n={n}"),
                        lambda x: np.zeros(len(x)),
                        params=SolverParams(stencil=stencil))
        assert len(P.colors) == 2 ** n
        for sel in P.colors:
            assert not np.isin(P.nb[:, sel], P.interior_idx[sel]).any()

    def test_initial_field(self):
        P = self.box_problem(5)
        u = P.initial_field()
        assert np.array_equal(u[P.boundary_idx], P.phi)
        assert np.all(u[P.interior_idx] == P.phi.min())

    def test_jets_match_single_node_path(self, rng):
        P = self.box_problem(6)
        u = P.initial_field()
        u[P.interior_idx] = rng.uniform(-1, 1, len(P.interior_idx))
        r, p, A = P.jets_at(u)
        k = 7
        node = np.unravel_index(P.interior_idx[k], P.grid.shape)
        J = discrete_jet(u.reshape(P.grid.shape), node, P.grid.h)
        assert np.isclose(r[k], J.r)
        assert np.allclose(p[k], J.p, atol=1e-12)
        assert np.allclose(A[k], J.A, atol=1e-12)

    def test_nonfinite_data_rejected(self):
        g = Grid.regular([(0, 1), (0, 1)], 5)
        with pytest.raises(ConfigError):
            GridProblem(g, parse_name("laplace:n=2"),
                        lambda x: np.full(len(x), np.nan))

    def test_vanishing_domain_rejected(self):
        g = Grid.regular([(-1, 1), (-1, 1)], 5)
        with pytest.raises(ConfigError):
            GridProblem(g, parse_name("laplace:n=2"),
                        lambda x: np.zeros(len(x)),
                        domain=ball_domain(2, radius=0.01))

    def test_dimension_guard(self):
        g = Grid.regular([(0, 1), (0, 1)], 5)
        with pytest.raises(ConfigError):
            GridProblem(g, parse_name("laplace:n=3"),
                        lambda x: np.zeros(len(x)))

    def test_domain_dimension_guard(self):
        g = Grid.regular([(-1, 1), (-1, 1)], 9)
        with pytest.raises(ConfigError, match="domain dimension 3 != op"):
            GridProblem(g, parse_name("laplace:n=2"), lambda x: x[:, 0],
                        domain=ball_domain(3))


class TestSolverParams:
    def test_resolved_defaults(self):
        assert np.isclose(SolverParams().resolved(2.0), 2e-10)

    def test_explicit_values_pass_through(self):
        assert SolverParams(sweep_tol=1e-6).resolved(5.0) == 1e-6

    def test_omega_auto_grows_with_resolution(self):
        p = SolverParams()
        w16, w64, w256 = (p.resolved_omega(m) for m in (16, 64, 256))
        assert 1.0 < w16 < w64 < w256 <= 1.97

    def test_omega_explicit(self):
        assert SolverParams(omega=1.5).resolved_omega(1000) == 1.5

    # each of these made perron_solve raise a bare error or report a false
    # convergence (omega = 0 "converged" after one sweep, 240 residual)
    @pytest.mark.parametrize("kw", [
        {"sweep_tol": -1.0}, {"sweep_tol": 0.0}, {"sweep_tol": np.nan},
        {"sweep_tol": np.inf}, {"omega": 0.0}, {"omega": 2.0},
        {"omega": 2.5}, {"omega": -0.5}, {"omega": np.nan},
    ])
    def test_values_that_break_the_solve_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            SolverParams(**kw)

    def test_frozen(self):
        # omega is checked once, when the params are built: a later
        # assignment would over-relax with an unchecked factor
        P = GridProblem(Grid.regular([(0, 1), (0, 1)], 9),
                        parse_name("laplace:n=2"), lambda x: x[:, 0])
        with pytest.raises(dataclasses.FrozenInstanceError):
            P.params.omega = 2.5
        assert P.params.omega is None


class TestStencilTable:
    @staticmethod
    def brute_force(mask, offsets):
        inner = np.zeros_like(mask)
        rows = []
        for node in zip(*np.nonzero(mask)):
            tgts = [tuple(np.add(node, d)) for d in offsets]
            if all(all(0 <= t[i] < mask.shape[i] for i in range(mask.ndim))
                   and mask[t] for t in tgts):
                inner[node] = True
                rows.append([np.ravel_multi_index(t, mask.shape)
                             for t in tgts])
        return inner, np.array(rows, dtype=np.int64).T

    def test_disk_matches_brute_force(self):
        from subeq.grid import stencil_table
        g = Grid.regular([(-1.2, 1.2), (-1.2, 1.2)], 21)
        disk = (np.linalg.norm(g.points(), axis=1) < 1.0).reshape(g.shape)
        for name in ("5pt", "9pt", "wide16"):
            offs = stencil_offsets(name, 2)
            inner, multi, nb = stencil_table(disk, offs)
            want_inner, want_nb = self.brute_force(disk, offs)
            assert np.array_equal(inner, want_inner)
            assert np.array_equal(multi, np.argwhere(want_inner))
            assert np.array_equal(nb, want_nb)

    def test_grid_problem_uses_the_table(self):
        g = Grid.regular([(-1.2, 1.2), (-1.2, 1.2)], 21)
        P = GridProblem(g, parse_name("laplace:n=2"),
                        lambda x: np.zeros(len(x)), domain=ball_domain(2))
        inner, nb = self.brute_force(P.inside.reshape(g.shape),
                                     P.assembler.offsets)
        assert np.array_equal(P.interior_idx, np.flatnonzero(inner))
        assert np.array_equal(P.nb, nb)
