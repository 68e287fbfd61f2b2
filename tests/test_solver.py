"""Envelope solver: fixed points, schedules, brackets, comparison scans."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from subeq import parse_name
from subeq.boundary import ball_domain
from subeq.core import Jet, Subequation, dual, shift
from subeq.errors import BracketError, ConfigError
from subeq.grid import Grid, GridProblem, SolverParams
from subeq.jetmaps import AffineJetMap, transform_subequation
from subeq.solver import (SolveReport, _NodeUpdater, _prolong,
                          _cascade_ladder, _solve_loop, perron_solve,
                          obstacle_solve, dual_bracket_solve, comparison_check,
                          membership_scan, _precheck)


def box_problem(bc, m=17, name="laplace:n=2", bounds=((0, 1), (0, 1)),
                **params):
    g = Grid.regular(bounds, m)
    return GridProblem(g, parse_name(name), bc, params=SolverParams(**params))


def saddle(x):
    return x[:, 0] ** 2 - x[:, 1] ** 2


class TestProlongation:
    def test_refine_axis_shape_and_endpoints(self):
        a = np.array([0.0, 2.0, 6.0])
        out = _prolong(a)
        assert np.allclose(out, [0.0, 1.0, 2.0, 4.0, 6.0])

    def test_prolong_exact_on_linear_fields(self):
        gc = Grid.regular([(0, 1), (0, 1)], 9)
        gf = Grid.regular([(0, 1), (0, 1)], 17)
        f = lambda x: 2.0 * x[:, 0] - 3.0 * x[:, 1] + 0.5
        coarse = f(gc.points()).reshape(gc.shape)
        fine = _prolong(coarse)
        assert fine.shape == gf.shape
        assert np.allclose(fine.ravel(), f(gf.points()), atol=1e-13)


class TestCascadeLadder:
    def test_shapes_coarsest_first(self):
        P = box_problem(saddle, m=65)
        ladder = _cascade_ladder(P)
        assert [q.grid.shape for q in ladder] == [(17, 17), (33, 33)]
        assert np.isclose(ladder[0].grid.h, 4 * P.grid.h)

    def test_odd_spacing_disables_ladder(self):
        P = box_problem(saddle, m=64)
        assert _cascade_ladder(P) == []

    def test_small_grids_have_no_ladder(self):
        P = box_problem(saddle, m=17)
        assert _cascade_ladder(P) == []


class TestPerron:
    def test_harmonic_quadratic_is_fixed_point(self):
        rep = perron_solve(box_problem(saddle, m=17))
        assert rep.converged
        g = Grid.regular([(0, 1), (0, 1)], 17)
        exact = saddle(g.points()).reshape(g.shape)
        assert np.nanmax(np.abs(rep.u - exact)) < 1e-6
        assert rep.residual < 1e-6

    def test_convexity_branch_quadratic(self):
        # x^2 has Hessian diag(2, 0): bottom eigenvalue exactly zero
        bc = lambda x: x[:, 0] ** 2
        rep = perron_solve(box_problem(bc, m=17, name="branch:real:k=1:n=2",
                                       bounds=((-1, 1), (-1, 1))))
        g = Grid.regular([(-1, 1), (-1, 1)], 17)
        exact = (g.points()[:, 0] ** 2).reshape(g.shape)
        assert rep.converged
        assert np.nanmax(np.abs(rep.u - exact)) < 1e-6

    def test_plain_iteration_same_fixed_point(self):
        a = perron_solve(box_problem(saddle, m=17))
        b = perron_solve(box_problem(saddle, m=17, omega=1.0))
        assert np.nanmax(np.abs(a.u - b.u)) < 1e-7

    def test_cascade_agrees_with_flat(self):
        a = perron_solve(box_problem(saddle, m=33))            # ladder [17]
        b = _solve_loop(box_problem(saddle, m=33))
        assert np.nanmax(np.abs(a.u - b.u)) < 1e-7

    def test_sweep_cap_reports_unconverged(self):
        P = box_problem(saddle, m=17, max_sweeps=3)
        rep = perron_solve(P)
        assert not rep.converged and rep.sweeps == 3

    def test_report_json_is_stable_and_timeless(self):
        rep = perron_solve(box_problem(saddle, m=9))
        d = rep.to_json_dict()
        assert "wall_time" not in d and "u" not in d
        assert d["converged"] is True


class TestDegenerateAndEmptyFibers:
    def test_everything_member_rises_to_data_max(self):
        F = Subequation(2, lambda r, p, A: np.ones(len(np.atleast_1d(r))),
                        "always")
        g = Grid.regular([(0, 1), (0, 1)], 9)
        P = GridProblem(g, F, lambda x: x[:, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rep = perron_solve(P)
        assert rep.degenerate_nodes == len(P.interior_idx)
        assert np.allclose(rep.u[1:-1, 1:-1], 1.0, atol=1e-12)

    def test_nothing_member_raises(self):
        F = Subequation(2, lambda r, p, A: -np.ones(len(np.atleast_1d(r))),
                        "never")
        g = Grid.regular([(0, 1), (0, 1)], 9)
        P = GridProblem(g, F, lambda x: x[:, 0])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BracketError, match="empty fiber"):
                perron_solve(P)

    def test_diverged_field_is_not_an_empty_fiber(self):
        # a field of size 1e160: p^t A p overflows, and the margins on the
        # line are inf - inf = NaN, which is no sign of an empty fiber
        g = Grid.regular([(-1, 1), (-1, 1)], 5)
        P = GridProblem(g, parse_name("klap:k=inf:n=2"), lambda x: x[:, 0])
        x = g.points()
        u = 1e160 * (x[:, 0] + x[:, 0] ** 2 + x[:, 1])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(BracketError,
                               match=r"margins are not finite at node 6 "
                                     r"\(value -7\.5e\+159\)"):
                _NodeUpdater(P, 1e-12).solve(
                    u, np.arange(len(P.interior_idx)), np.inf)

    def test_precheck_warns_on_bad_axioms(self):
        antilap = Subequation(
            2, lambda r, p, A: -np.trace(np.atleast_3d(A).reshape(-1, 2, 2),
                                         axis1=1, axis2=2), "anti")
        with pytest.warns(RuntimeWarning):
            _precheck(antilap)

    def test_precheck_skips_x_dependent_sets(self, monkeypatch):
        def no_call(*args, **kwargs):
            raise AssertionError("axiom_check called")
        monkeypatch.setattr("subeq.solver.axiom_check", no_call)
        F = Subequation(2, lambda r, p, A, x: np.trace(A, axis1=1, axis2=2),
                        "x-dependent laplace", x_dependent=True)
        _precheck(F)


class TestObstacle:
    def test_slack_obstacle_reproduces_perron(self):
        P1 = box_problem(saddle, m=9)
        free = perron_solve(P1)
        P2 = box_problem(saddle, m=9)
        capped = obstacle_solve(P2, lambda x: np.full(len(x), 10.0))
        assert np.nanmax(np.abs(free.u - capped.u)) < 1e-7
        assert capped.contact_nodes == 0

    def test_admissible_obstacle_is_attained(self):
        # g = x - 0.1 sin(pi x) sin(pi y) matches the data on the box edge
        # and its discrete Laplacian is >= 0, so the envelope climbs to g
        def g(x):
            return x[:, 0] - 0.1 * np.sin(np.pi * x[:, 0]) \
                * np.sin(np.pi * x[:, 1])
        P = box_problem(lambda x: x[:, 0], m=17)
        rep = obstacle_solve(P, g)
        gp = g(P.grid.points()).reshape(P.grid.shape)
        assert np.nanmax(np.abs(rep.u - gp)) < 1e-8
        assert rep.contact_nodes == len(P.interior_idx)
        assert rep.residual == 0.0

    def test_data_above_obstacle_rejected(self):
        P = box_problem(lambda x: x[:, 0], m=9)
        with pytest.raises(ConfigError):
            obstacle_solve(P, lambda x: np.full(len(x), 0.5))

    def test_nan_or_minus_inf_obstacle_rejected(self):
        # sqrt(x - 0.5) is NaN left of x = 0.5, on the boundary too; -inf
        # at one interior node is named; +inf means no constraint there
        P = box_problem(lambda x: 0.0 * x[:, 0], m=17)
        with (pytest.raises(ConfigError, match=r"g=nan at node 0:"),
              np.errstate(invalid="ignore")):
            obstacle_solve(P, lambda x: np.sqrt(x[:, 0] - 0.5))
        k = P.interior_idx[7]

        def g(x):
            out = np.ones(len(x))
            out[np.all(x == P.pts[k], axis=1)] = -np.inf
            return out

        with pytest.raises(ConfigError, match=rf"g=-inf at node {k}:"):
            obstacle_solve(P, g)
        rep = obstacle_solve(P, lambda x: np.where(x[:, 0] < 0.5, np.inf, 1.0))
        assert rep.converged


class TestDualBracket:
    def test_laplace_bracket_is_tight(self):
        res = dual_bracket_solve(box_problem(saddle, m=17))
        st = res.report.sweep_tol
        assert res.min_gap >= -10.0 * st
        assert np.nanmax(np.abs(res.U - res.U_tilde)) < 1e-6
        d = res.to_json_dict()
        assert set(d) == {"report", "report_dual", "max_gap", "min_gap"}


def cubic(x):
    return x[:, 0] ** 2 + 0.5 * x[:, 1] ** 2 + 0.25 * x[:, 0] * x[:, 1] ** 2


def square(x):
    return x[:, 0] ** 2


def radial(x):
    return x[:, 0] ** 2 + x[:, 1] ** 2


def linear(x):
    return x[:, 0]


def aronsson(x):
    return np.abs(x[:, 0]) ** (4 / 3) - np.abs(x[:, 1]) ** (4 / 3)


class TestNodeSolvePaths:
    """The node update's line (``Subequation.on_line``) through the set's
    own ``line`` or its spectral form reaches the fixed point of rho on the
    full jet; both run the same root-find (a false-position point, its
    probes, then budgeted Illinois steps)."""

    BOX = ((-1, 1), (-1, 1))

    @staticmethod
    def _node_updates(P, rep):
        levels = (_cascade_ladder(P) if P.domain is None else []) + [P]
        assert len(levels) == len(rep.level_sweeps)
        return sum(s * len(Q.interior_idx)
                   for Q, s in zip(levels, rep.level_sweeps))

    def check_same_fixed_point(self, name, m, bc, ball, affine,
                               stencil="9pt"):
        F = parse_name(name)
        g = Grid.regular([(-1.2, 1.2)] * 2 if ball else self.BOX, m)
        dom = ball_domain(2) if ball else None
        params = SolverParams(stencil=stencil)
        P = GridProblem(g, F, bc, domain=dom, params=params)
        if stencil == "9pt":
            assert _NodeUpdater(P, 1e-12).c == -2.0 / g.h ** 2
        hooked = perron_solve(P)
        # neither a line nor a spectral form: rho on the full jet
        P_full = GridProblem(g, replace(F, line=None, spectral=None), bc,
                             domain=dom, params=params)
        full = perron_solve(P_full)
        assert hooked.converged and full.converged
        assert np.nanmax(np.abs(hooked.u - full.u)) <= hooked.sweep_tol
        assert hooked.bisect_capped == full.bisect_capped == 0
        if affine:
            # the false-position point is the root: no Illinois step is
            # needed
            assert hooked.evals <= 8 * self._node_updates(P, hooked)

    @pytest.mark.parametrize("name, m, bc, ball, affine", [
        # lambda_1 of the cubic data stalls under the auto omega (on the
        # bisection path too), so it solves the bench's x^2
        ("branch:real:k=1:n=2", 33, square, False, True),
        ("slag:c=0:n=2", 33, cubic, False, False),
        ("laplace:n=2", 33, cubic, False, True),
        ("pucci:lam=1:Lam=2:n=2", 33, cubic, False, False),
        ("branch:real:k=2:n=2", 21, square, True, False),
        # the bench's Perron cascade (Newton abandoned on level 0)
        ("klap:k=inf:n=2", 33, aronsson, False, True),
        ("klap:k=3:n=2", 21, linear, True, True),
        ("cy:n=2", 21, radial, True, False),
    ])
    def test_same_fixed_point(self, name, m, bc, ball, affine):
        self.check_same_fixed_point(name, m, bc, ball, affine)

    @pytest.mark.parametrize("name, m, bc, ball", [
        ("klap:k=3:n=2", 21, linear, False),
        ("laplace:n=2", 25, cubic, True),
    ])
    def test_same_fixed_point_on_wide16(self, name, m, bc, ball):
        self.check_same_fixed_point(name, m, bc, ball, True, "wide16")

    @staticmethod
    def branch_taken(F, stencil="9pt"):
        """The members of F that one node update reads: "line", "spectral"
        or "rho" (the full jet)."""
        seen = set()

        def spy(key, fn):
            def wrapped(*a, **kw):
                seen.add(key)
                return fn(*a, **kw)
            return None if fn is None else wrapped

        G = replace(F, rho_batch=spy("rho", F.rho_batch),
                    spectral=spy("spectral", F.spectral),
                    line=spy("line", F.line))
        P = GridProblem(Grid.regular(TestNodeSolvePaths.BOX, 9), G, saddle,
                        params=SolverParams(stencil=stencil))
        _NodeUpdater(P, 1e-9).solve(P.initial_field(), P.colors[0], np.inf)
        return seen

    def test_fallback_paths(self):
        lap = parse_name("laplace:n=2")
        # an x-dependent image of laplace: rho on the full jet, at the
        # nodes' base points
        shift_x = AffineJetMap.translation(
            lambda x: (x[:, 0], np.zeros_like(x), np.zeros((len(x), 2, 2))),
            n=2)
        J0 = Jet.from_parts(0.0, [0.0, 0.0], np.eye(2))
        cases = [(lap, "9pt", "spectral"), (lap, "wide16", "spectral"),
                 (dual(lap), "5pt", "spectral"),
                 (transform_subequation(lap, shift_x), "9pt", "rho"),
                 (shift(lap, J0), "9pt", "rho")]
        for name in ("cy:n=2", "klap:k=inf:n=2", "klap:k=3:n=2"):
            F = parse_name(name)
            cases += [(F, "9pt", "line"), (F, "wide16", "line"),
                      (dual(F), "9pt", "line")]
        for F, stencil, branch in cases:
            assert self.branch_taken(F, stencil) == {branch}, (F.label,
                                                               stencil)

    def test_counters_add_up_over_levels(self):
        P = box_problem(saddle, m=33)
        rep = perron_solve(P)
        assert len(rep.level_sweeps) == 2 and sum(rep.level_sweeps) == rep.sweeps
        n = self._node_updates(P, rep)
        assert 4 * n <= rep.evals <= 8 * n
        d = rep.to_json_dict()
        assert not {"evals", "level_sweeps", "bisect_capped"} & set(d)


class TestIllinoisFinisher:
    """Node solves on margins nonlinear in r: the Illinois steps after the
    probes need a few margin calls per node update, and never more than
    ILLINOIS_SLACK beyond bisection's."""

    @staticmethod
    def ball(name, bc, m=21):
        g = Grid.regular([(-1.2, 1.2)] * 2, m)
        return GridProblem(g, parse_name(name), bc, domain=ball_domain(2))

    @pytest.mark.parametrize("name, bc", [
        ("cy:n=2", radial),
        ("pucci:lam=1:Lam=2:n=2", cubic),
    ])
    def test_few_calls_per_update(self, name, bc):
        P = self.ball(name, bc)
        rep = perron_solve(P)
        assert rep.converged and rep.bisect_capped == 0
        # bisection needed 22.5 (cy) and 17.2 (Pucci)
        assert rep.evals <= 8 * rep.sweeps * len(P.interior_idx)

    def test_double_root_within_slack_of_bisection(self, monkeypatch):
        # sigma_2 = lam_1 lam_2 at a double eigenvalue: the margin touches
        # zero quadratically on the member side
        import subeq.solver
        from subeq.core import ILLINOIS_SLACK, bisect

        def bisection(g, lo, hi, steps, ends, tol):
            return bisect(lambda mid: g(mid) >= 0, lo, hi, steps,
                          done=lambda lo, hi: hi - lo <= tol)

        P = self.ball("sigma:k=2:n=2", radial)
        rep = perron_solve(P)
        monkeypatch.setattr(subeq.solver, "illinois", bisection)
        ref = perron_solve(P)
        assert rep.converged and ref.converged
        assert rep.bisect_capped == ref.bisect_capped == 0
        assert np.nanmax(np.abs(rep.u - ref.u)) <= rep.sweep_tol
        n = len(P.interior_idx)
        assert (rep.evals / (rep.sweeps * n)
                <= ref.evals / (ref.sweeps * n) + ILLINOIS_SLACK)


def field_on(g, f):
    return f(g.points()).reshape(g.shape)


class TestComparison:
    def setup_method(self):
        self.g = Grid.regular([(0, 1), (0, 1)], 17)
        self.F = parse_name("laplace:n=2")

    def test_pass(self):
        u = field_on(self.g, saddle)
        rep = comparison_check(self.g, u, -u, self.F)
        assert rep.passed and rep.status == "pass"
        assert rep.witness is None

    def test_zmp_fail_with_witness(self):
        # an interior bump that vanishes on the edge band: the pair sums to
        # something positive inside while respecting both jet families
        eps = 0.02
        bump = lambda x: eps * np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])
        u = field_on(self.g, lambda x: saddle(x) + bump(x))
        v = field_on(self.g, lambda x: -saddle(x))
        rep = comparison_check(self.g, u, v, self.F)
        assert rep.status == "zmp_fail"
        assert rep.interior_max > 0
        assert rep.boundary_max <= 1e-30      # sin(pi) round-off only
        w = np.array(rep.witness["point"])
        assert 0.2 < w[0] < 0.8 and 0.2 < w[1] < 0.8

    def test_precondition_fail(self):
        u = field_on(self.g, lambda x: -x[:, 0] ** 2)    # concave: not in F
        rep = comparison_check(self.g, u, np.zeros(self.g.shape), self.F)
        assert rep.status == "precondition_fail"
        assert rep.sub_margin < 0

    def test_vacuous(self):
        u = field_on(self.g, lambda x: saddle(x) + 0.5)
        v = field_on(self.g, lambda x: -saddle(x) + 0.5)
        rep = comparison_check(self.g, u, v, self.F)
        assert rep.status == "vacuous"
        assert rep.boundary_max > 0

    def test_mask_without_interior_rejected(self):
        K = np.zeros(self.g.shape, dtype=bool)
        K[3, 3] = True
        with pytest.raises(ConfigError):
            comparison_check(self.g, np.zeros(self.g.shape),
                             np.zeros(self.g.shape), self.F, K=K)

    def test_empty_mask_rejected(self):
        K = np.zeros(self.g.shape, dtype=bool)
        with pytest.raises(ConfigError, match="no interior"):
            comparison_check(self.g, np.zeros(self.g.shape),
                             np.zeros(self.g.shape), self.F, K=K)


class TestMembershipScan:
    def test_known_margins(self):
        g = Grid.regular([(-1, 1), (-1, 1)], 17)
        u = field_on(g, lambda x: x[:, 0] ** 2)
        assert abs(membership_scan(g, u, parse_name("branch:real:k=1:n=2"))) \
            < 1e-10
        assert abs(membership_scan(g, u, parse_name("laplace:n=2")) - 2.0) \
            < 1e-10

    def test_respects_mask(self):
        g = Grid.regular([(-1, 1), (-1, 1)], 17)
        pts = g.points()
        # field convex only where the mask looks
        u = np.where(pts[:, 0] > 0, pts[:, 0] ** 2,
                     -pts[:, 0] ** 2).reshape(g.shape)
        K = (pts[:, 0] > 0.2).reshape(g.shape)
        full = membership_scan(g, u, parse_name("branch:real:k=1:n=2"))
        masked = membership_scan(g, u, parse_name("branch:real:k=1:n=2"), K=K)
        assert full < -1.0 and abs(masked) < 1e-10


class TestPrecheckErrors:
    @staticmethod
    def lambda1_problem(rho):
        F = Subequation(2, rho, "picky", pure_second_order=True, reduced=True)
        g = Grid.regular([(-1, 1), (-1, 1)], 9)
        return GridProblem(g, F, lambda x: x[:, 0] ** 2)

    def test_operator_errors_propagate(self):
        # the sampled precheck draws |p| up to 5; the solve itself never
        # leaves |p| <= 2, so only the precheck can hit the error
        def rho(r, p, A):
            if np.linalg.norm(p, axis=-1).max() > 3.0:
                raise RuntimeError("gradient out of range")
            return parse_name("branch:real:k=1:n=2").rho_batch(r, p, A)

        with pytest.raises(RuntimeError, match="gradient out of range"):
            perron_solve(self.lambda1_problem(rho))

    def test_sampler_exhaustion_warns_and_solves(self, monkeypatch):
        import subeq.solver
        from subeq.errors import SamplerExhausted

        def exhausted(*args, **kwargs):
            raise SamplerExhausted("no members")

        monkeypatch.setattr(subeq.solver, "axiom_check", exhausted)
        P = self.lambda1_problem(parse_name("branch:real:k=1:n=2").rho_batch)
        with pytest.warns(RuntimeWarning, match="axiom precheck skipped"):
            rep = perron_solve(P)
        assert rep.converged
        x = P.grid.points()[:, 0].reshape(P.grid.shape)
        assert np.abs(rep.u - x ** 2).max() <= 1e-8
