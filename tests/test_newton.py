"""Nested Newton start of perron_solve: agreement with the Perron cascade,
the fallback, the fast-diagonalization inverse and the matrix-free Jacobian."""

import json
import logging
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

from subeq import parse_name
from subeq.boundary import ball_domain
from subeq.expressions import expression_domain, parse_expression
from subeq.grid import Grid, GridProblem, JetAssembler, SolverParams
from subeq.newton import _NEWTON_ITERS, _FastDiag, _NewtonLevel, _gmres
from subeq.solver import (_cascade_ladder, _prolong, dual_bracket_solve,
                          obstacle_solve, perron_solve)

from conftest import perron_only

SRC = Path(__file__).resolve().parents[1] / "src"
BOX = ((-1, 1), (-1, 1))
DISK = ((-1.2, 1.2), (-1.2, 1.2))


def cubic(x):
    return x[:, 0] ** 2 + 0.5 * x[:, 1] ** 2 + 0.25 * x[:, 0] * x[:, 1] ** 2


def problem(name, m, bc=cubic, bounds=BOX, domain=None, **params):
    return GridProblem(Grid.regular(bounds, m), parse_name(name), bc,
                       domain=domain, params=SolverParams(**params))


class TestNewtonStart:
    @pytest.mark.parametrize("m", [33, 65])
    @pytest.mark.parametrize("name", ["laplace:n=2", "slag:c=0:n=2",
                                      "slag:c=0.5:n=2",
                                      "pucci:lam=1:Lam=2:n=2"])
    def test_certified_field_matches_cascade(self, name, m):
        newton = perron_solve(problem(name, m))
        ref = perron_only(perron_solve, problem(name, m))
        assert newton.newton_abandoned is None
        assert newton.converged and ref.converged
        assert newton.sweeps <= 2
        assert np.nanmax(np.abs(newton.u - ref.u)) <= newton.sweep_tol

    def test_abandoned_attempt_is_the_cascade(self, caplog):
        # Aronsson's infinity-harmonic data: the set degenerates where p = 0.
        # The sweeps resume from Newton's abandoned iterate and reach the
        # cascade's fixed point in fewer sweeps.
        bc = parse_expression("abs(x)^(4/3)-abs(y)^(4/3)")
        with caplog.at_level(logging.INFO, logger="subeq"):
            auto = perron_solve(problem("klap:k=inf:n=2", 33, bc=bc))
        ref = perron_only(perron_solve, problem("klap:k=inf:n=2", 33, bc=bc))
        assert auto.newton_abandoned is not None
        reason, level = auto.newton_abandoned
        assert level == len(auto.newton_iters) - 1
        assert any("abandoned" in r.getMessage() for r in caplog.records)
        assert len(auto.level_sweeps) == len(ref.level_sweeps)
        assert auto.converged and ref.converged
        assert np.nanmax(np.abs(auto.u - ref.u)) <= auto.sweep_tol
        assert auto.sweeps < ref.sweeps

    def test_krylov_growth_abandons_before_the_finer_level(self):
        # one GMRES solve on level 1 needs more than half the cap, so level 2
        # is not attempted: the Perron sweeps start there from the prolonged
        # Newton field of level 1.  The cascade stalls on this data, hence
        # the short run: the Perron sweeps alone spend the whole budget on
        # the coarsest level, the resumed solve spends it on the finest.
        P = problem("branch:real:k=1:n=2", 65, max_sweeps=30)
        auto = perron_solve(P)
        assert auto.newton_abandoned == ("krylov growth", 2)
        assert auto.newton_iters[2] == 0 and min(auto.newton_iters[:2]) > 0
        assert auto.level_sweeps == [0, 0, 30] and auto.sweeps == 30
        assert perron_only(perron_solve, P).level_sweeps == [30, 0, 0]
        coarse, mid = _cascade_ladder(P)
        u = _NewtonLevel(coarse).run(None, 0)[0]
        u = _NewtonLevel(mid).run(_prolong(u.reshape(coarse.grid.shape))
                                  .ravel(), 1)[0]
        ref = perron_only(perron_solve, P, flat=True,
                          start=_prolong(u.reshape(mid.grid.shape)).ravel())
        assert np.array_equal(auto.u, ref.u, equal_nan=True)

    def test_max_sweeps_caps_the_whole_solve(self):
        # Newton is abandoned on level 0, so both levels run the sweeps; the
        # finest gets what the coarser one left of the budget: here nothing
        zero = lambda x: 0.0 * x[:, 0]
        rep = perron_solve(problem("cy:n=2", 33, bc=zero, max_sweeps=5))
        assert rep.newton_abandoned == ("no elliptic mean coefficient", 0)
        assert rep.level_sweeps == [5, 0] and rep.sweeps == 5
        assert not rep.converged and rep.final_update == np.inf
        assert rep.converged == (rep.final_update <= rep.sweep_tol)
        rep = perron_solve(problem("cy:n=2", 33, bc=zero, max_sweeps=100))
        assert 0 < rep.level_sweeps[0] < 100 and not rep.converged
        assert rep.sweeps == sum(rep.level_sweeps) == 100
        assert rep.converged == (rep.final_update <= rep.sweep_tol)

    def test_lambda1_cascade_stall_converges(self):
        # the over-relaxed Perron cascade stalls at final_update 1.9e-3 on
        # this data; the plain envelope iteration (omega = 1) from the flat
        # start converges, slowly, to the same field as the Newton start
        rep = perron_solve(problem("branch:real:k=1:n=2", 33))
        assert rep.newton_abandoned is None
        assert rep.converged and rep.sweeps <= 2
        ref = perron_only(perron_solve,
                          problem("branch:real:k=1:n=2", 33, omega=1.0,
                                  sweep_tol=1e-12, max_sweeps=5000),
                          flat=True)
        assert ref.converged
        assert np.nanmax(np.abs(rep.u - ref.u)) <= rep.sweep_tol

    def test_wall_time_covers_the_whole_solve(self):
        P = problem("slag:c=0.5:n=2", 33)
        t0 = time.perf_counter()
        rep = perron_solve(P)
        elapsed = time.perf_counter() - t0
        assert rep.newton_iters
        assert 0.9 * elapsed <= rep.wall_time <= elapsed

    def test_counters(self):
        P = problem("slag:c=0:n=2", 65)
        rep = perron_solve(P)
        assert len(rep.newton_iters) == len(rep.level_sweeps) == 3
        assert rep.level_sweeps[:2] == [0, 0]
        assert rep.level_sweeps[2] == rep.sweeps >= 1
        assert rep.krylov_iters >= sum(rep.newton_iters) > 0
        assert not ({"newton_iters", "krylov_iters", "newton_abandoned"}
                    & set(rep.to_json_dict()))

    def test_report_is_byte_stable(self):
        a = perron_solve(problem("slag:c=0.5:n=2", 33))
        b = perron_solve(problem("slag:c=0.5:n=2", 33))
        assert a.newton_iters and a.newton_abandoned is None
        assert (json.dumps(a.to_json_dict(), sort_keys=True)
                == json.dumps(b.to_json_dict(), sort_keys=True))

    def test_scope(self):
        # below 33 nodes per axis, masked or not, the Perron sweeps run alone
        for P in (problem("laplace:n=2", 17),
                  problem("laplace:n=2", 31, bounds=DISK,
                          domain=ball_domain(2))):
            assert perron_solve(P).newton_iters == []
        # a mask at 33 nodes takes one level; an obstacle takes the ladder
        rep = perron_solve(problem("laplace:n=2", 33, bounds=DISK,
                                   domain=ball_domain(2)))
        assert len(rep.newton_iters) == len(rep.level_sweeps) == 1
        rep = obstacle_solve(problem("laplace:n=2", 33),
                             lambda x: np.full(len(x), 10.0))
        assert len(rep.newton_iters) == 2 and rep.newton_abandoned is None
        res = dual_bracket_solve(problem("laplace:n=2", 33))
        assert res.report.newton_iters and res.report_dual.newton_iters

    def test_rectangle_without_ladder_takes_one_level(self):
        # an even node count has no cascade ladder: the rectangle is one
        # Newton level from the Laplace start, as a masked domain is
        P = problem("laplace:n=2", 64, bc=saddle)
        assert _cascade_ladder(P) == []
        rep = perron_solve(P)
        assert len(rep.newton_iters) == 1 and rep.newton_abandoned is None
        assert rep.sweeps == 1 and rep.converged

    def test_only_perron_sweeps_assemble_outside_jets_at(self, monkeypatch):
        # the layer split of bench/tracing.py: a finest-level assembly that
        # is not nested in jets_at is Perron work, one per colour per sweep
        P = problem("laplace:n=2", 33, bc=saddle, bounds=((0, 1), (0, 1)))
        assemble, jets_at = JetAssembler.assemble, GridProblem.jets_at
        depth, outside = [0], []

        def traced_jets_at(obj, *a, **kw):
            depth[0] += 1
            try:
                return jets_at(obj, *a, **kw)
            finally:
                depth[0] -= 1

        def traced_assemble(obj, V, r):
            if obj is P.assembler and depth[0] == 0:
                outside.append(len(r))
            return assemble(obj, V, r)

        monkeypatch.setattr(GridProblem, "jets_at", traced_jets_at)
        monkeypatch.setattr(JetAssembler, "assemble", traced_assemble)
        rep = perron_solve(P)
        assert rep.newton_iters and rep.newton_abandoned is None
        assert len(outside) == rep.sweeps * len(P.colors)


def radial(x):
    return x[:, 0] ** 2 + x[:, 1] ** 2


def saddle(x):
    return x[:, 0] ** 2 - x[:, 1] ** 2


def disk_problem(name, bc, **params):
    return problem(name, 65, bc=bc, bounds=DISK, domain=ball_domain(2),
                   **params)


class TestMaskedNewton:
    """One Newton level on a masked domain, preconditioned by the
    fast-diagonalization inverse on the bounding block of the interior."""

    @pytest.mark.parametrize("name, bc, domain, stencil", [
        ("cy:n=2", radial, ball_domain(2), "9pt"),
        ("laplace:n=2", saddle, expression_domain("x^2+y^2-1", 2), "wide16"),
    ])
    def test_certified_field_matches_perron(self, name, bc, domain, stencil):
        rep = perron_solve(problem(name, 65, bc=bc, bounds=DISK,
                                   domain=domain, stencil=stencil))
        ref = perron_only(perron_solve,
                          problem(name, 65, bc=bc, bounds=DISK,
                                  domain=domain, stencil=stencil))
        assert rep.newton_abandoned is None and len(rep.newton_iters) == 1
        assert rep.krylov_iters >= rep.newton_iters[0] > 0
        assert rep.converged and ref.converged
        assert rep.sweeps <= 2 < ref.sweeps
        assert np.nanmax(np.abs(rep.u - ref.u)) <= rep.sweep_tol

    @pytest.mark.parametrize("name, bc, reason", [
        ("pucci:lam=1:Lam=2:n=2", radial, "iteration cap"),
        ("slag:c=0:n=2", saddle, "gmres"),
    ])
    def test_abandoned_attempt_is_perron(self, name, bc, reason):
        # the sweeps resume from Newton's last iterate and reach the Perron
        # fixed point; slag's attempt is abandoned before its first step and
        # hands back the sweeps' own start, so that solve is the plain
        # sweeps bit for bit
        rep = perron_solve(disk_problem(name, bc))
        ref = perron_only(perron_solve, disk_problem(name, bc))
        assert rep.newton_abandoned == (reason, 0)
        iters = _NEWTON_ITERS if reason == "iteration cap" else 0
        assert rep.newton_iters == [iters]
        assert rep.converged and ref.converged
        assert np.nanmax(np.abs(rep.u - ref.u)) <= rep.sweep_tol
        if iters == 0:
            assert np.array_equal(rep.u, ref.u, equal_nan=True)
            assert (rep.sweeps, rep.evals) == (ref.sweeps, ref.evals)
            assert rep.to_json_dict() == ref.to_json_dict()
        else:
            assert rep.sweeps < ref.sweeps

    def test_lambda1_ball_converges(self):
        # the Perron sweeps alone raise BracketError here: the over-relaxed
        # sweeps diverge until a node's bracket holds no member.  Newton
        # reaches the fixed point, and one sweep certifies it.
        rep = perron_solve(disk_problem("branch:real:k=1:n=2",
                                        lambda x: x[:, 0] ** 2))
        assert rep.newton_abandoned is None
        assert rep.converged and rep.sweeps <= 2


class TestNewtonExits:
    """The reasons a Newton level is abandoned, one small repro each."""

    @pytest.mark.parametrize("bc, bounds, m, domain, reason", [
        # e^800 overflows in the first residual
        ("800", BOX, 9, None, "non-finite residual"),
        ("800*x", BOX, 9, None, "line search"),
        # at A = 0 the two branches of the min tie: no elliptic coefficient
        ("0", DISK, 13, ball_domain(2), "no elliptic mean coefficient"),
    ])
    def test_cy_reason(self, bc, bounds, m, domain, reason):
        P = problem("cy:n=2", m, bc=parse_expression(bc), bounds=bounds,
                    domain=domain)
        with np.errstate(all="ignore"):
            assert _NewtonLevel(P).run(None, 0)[3] == reason

    def test_gmres_breakdown(self):
        # a zero operator: the first Hessenberg column vanishes
        x, its, ok = _gmres(lambda v: 0 * v, lambda v: v, np.ones(5), 0.1,
                            20, 40)
        assert (its, ok) == (1, False)


class TestObstacleNewton:
    """Howard's rows for the clamp: the obstacle branch of
    min(G, |c| (g - u)) is -|c| I in the Jacobian and the preconditioner."""

    @pytest.mark.parametrize("name, bounds, m, bc, obstacle, contacts", [
        ("branch:real:k=1:n=1", [(-1.5, 1.5)], 385, "(x*x-1)^2",
         "(x*x-1)^2", 144),
        ("laplace:n=2", [(0, 1)] * 2, 65, "0",
         "(x-0.5)^2+(y-0.5)^2-0.05", 805),
    ])
    def test_contact_set_and_field_match_perron(self, name, bounds, m, bc,
                                                obstacle, contacts, caplog):
        g = parse_expression(obstacle)
        P = problem(name, m, bc=parse_expression(bc), bounds=bounds)
        with caplog.at_level(logging.DEBUG, logger="subeq"):
            rep = obstacle_solve(P, g)
        ref = perron_only(obstacle_solve, P, g, flat=True)
        assert rep.newton_abandoned is None
        assert len(rep.newton_iters) == len(_cascade_ladder(P)) + 1
        assert any("active obstacle rows" in r.getMessage()
                   for r in caplog.records)
        assert rep.converged and ref.converged and rep.sweeps <= 2
        assert rep.label == f"obstacle({P.F.label})"
        assert rep.contact_nodes == ref.contact_nodes == contacts
        gi = g(P.pts[P.interior_idx])

        def contact(u):
            return u.ravel()[P.interior_idx] >= gi - 2.0 * P.grid.h

        assert np.array_equal(contact(rep.u), contact(ref.u))
        inside = ~np.isnan(ref.u)
        assert np.abs(rep.u[inside] - ref.u[inside]).max() <= rep.sweep_tol

    def test_howard_rows(self, rng):
        # active rows are -|c| I in the Jacobian and the preconditioner;
        # the free rows keep the Jacobian of G
        P = problem("slag:c=0.5:n=2", 9)
        ii = P.interior_idx
        u = P.initial_field()
        u[ii] = cubic(P.pts[ii]) + 0.01 * rng.standard_normal(len(ii))
        cap = u[ii] + np.where(rng.random(len(ii)) < 0.5, 0.0, 1.0)
        free, lev = _NewtonLevel(P), _NewtonLevel(P, cap)
        G, H = lev.residual(u)
        assert np.array_equal(free.residual(u)[1], G)
        lin_free, lin = free.linearize(u, G, G), lev.linearize(u, G, H)
        act = lin.active
        assert lin_free.active is None
        assert np.array_equal(act, H < G) and 0 < act.sum()
        assert np.array_equal(H, np.where(act, 0.0, G))
        v = rng.standard_normal(len(ii))
        c = 2.0 / P.grid.h ** 2
        assert np.array_equal(lin.jvp(v), np.where(act, -c * v,
                                                   lin_free.jvp(v)))
        assert np.array_equal(lin.precond(v)[act], -v[act] / c)


def axis_operator(x, h, a):
    """sum_i a_i D_ii x, D_ii the axis second difference with zero data
    outside x; with a_i = 1 the 5-point Laplacian."""
    xp = np.pad(x, 1)
    out = np.zeros_like(x)
    for ax, ai in enumerate(a):
        fwd = [slice(1, -1)] * x.ndim
        bwd = [slice(1, -1)] * x.ndim
        fwd[ax], bwd[ax] = slice(2, None), slice(None, -2)
        out += ai * (xp[tuple(fwd)] + xp[tuple(bwd)] - 2.0 * x) / h ** 2
    return out


class TestFastDiag:
    @pytest.mark.parametrize("shape, a", [
        ((9,), (1.0,)), ((7, 5), (1.0, 1.0)), ((4, 6, 5), (1.0, 1.0, 1.0)),
        ((6, 8), (0.5, 2.0)), ((3, 5, 4), (0.0, 1.0, 3.0)),
    ])
    def test_inverts_the_axis_operator(self, shape, a, rng):
        h = 0.1
        x = rng.standard_normal(shape)
        fd = _FastDiag(np.ones(shape, dtype=bool), h)
        y = fd.solve(axis_operator(x, h, a).ravel(), a)
        assert np.abs(y - x.ravel()).max() <= 1e-12 * np.abs(x).max()

    def test_scatter_and_gather(self, rng):
        # the identity on a full rectangle; zero off a masked interior
        box = _NewtonLevel(problem("laplace:n=2", 17)).fd
        x = rng.standard_normal(15 * 15)
        assert box.inside.shape == (15, 15) and box.inside.all()
        assert np.array_equal(box.scatter(x).ravel(), x)
        assert np.array_equal(box.gather(box.scatter(x)), x)
        P = problem("laplace:n=2", 17, bounds=DISK, domain=ball_domain(2))
        fd = _NewtonLevel(P).fd
        x = rng.standard_normal(len(P.interior_idx))
        y = fd.scatter(x)
        assert y.shape == fd.shape
        assert np.count_nonzero(y) == len(x)
        assert np.array_equal(fd.gather(y), x)
        # each value lands on its own node of the bounding block
        w = np.zeros(P.grid.size())
        w[P.interior_idx] = x
        lo = [a.min() for a in np.unravel_index(P.interior_idx, P.grid.shape)]
        block = tuple(slice(b, b + k) for b, k in zip(lo, fd.shape))
        assert np.array_equal(y, w.reshape(P.grid.shape)[block])


class TestJacobian:
    @pytest.mark.parametrize("name, shift, stencil", [
        pytest.param(name, shift, stencil, id=f"{name}-{shift}" + (
            "" if stencil == "9pt" else f"-{stencil}"))
        for name, shift, stencil in (
            ("slag:c=0.5:n=2", 0.0, "9pt"),
            ("slag:c=0.5:n=2", 0.0, "5pt"),
            ("slag:c=0.5:n=2", 0.0, "wide16"),
            ("klap:k=1:n=2", 0.0, "9pt"),   # p-dependent
            ("klap:k=1:n=2", 0.0, "wide16"),
            ("cy:n=2", 2.0, "9pt"),         # the value slot is active at r ~ 2
            ("laplace:n=3", 0.0, "9pt"),
            ("branch:real:k=1:n=1", 0.0, "9pt"),
            ("appb:case=6:n=1:R=1", 0.0, "5pt"),  # p-dependent
        )])
    def test_matches_centred_difference(self, name, shift, stencil, rng):
        n = parse_name(name).n
        if n == 1:
            def bc(x):
                return x[:, 0] ** 2 + 0.5 * x[:, 0] ** 3
        elif n == 2:
            def bc(x):
                return shift + cubic(x)
        else:
            def bc(x):
                return cubic(x) + 0.3 * x[:, 2] ** 2
        P = problem(name, 9, bc=bc, bounds=BOX[:1] * n, stencil=stencil)
        lev = _NewtonLevel(P)
        u = P.initial_field()
        u[P.interior_idx] = bc(P.pts[P.interior_idx]) \
            + 0.01 * rng.standard_normal(len(P.interior_idx))
        lin = lev.linearize(u, *lev.residual(u))
        assert lin.w.shape == (P.assembler.K, len(P.interior_idx))
        v = rng.standard_normal(len(P.interior_idx))
        eps = 1e-5
        up, um = u.copy(), u.copy()
        up[P.interior_idx] += eps * v
        um[P.interior_idx] -= eps * v
        fd = (lev.residual(up)[0] - lev.residual(um)[0]) / (2 * eps)
        Jv = lin.jvp(v)
        assert np.abs(Jv - fd).max() <= 1e-5 * np.abs(fd).max()

    def test_linearize_is_local(self, rng):
        # each node's difference step is scaled by its own jet, so a far
        # bump leaves its weight column unchanged to the last bit
        P = problem("slag:c=0.5:n=2", 9)
        ii = P.interior_idx
        u = P.initial_field()
        u[ii] = cubic(P.pts[ii]) + 0.01 * rng.standard_normal(len(ii))
        bumped = u.copy()
        k = len(ii) // 2
        bumped[ii[k]] += 50.0
        cols = []
        for field in (u, bumped):
            lev = _NewtonLevel(P)
            cols.append(lev.linearize(field, *lev.residual(field)).w)
        far = ~np.any(P.nb == ii[k], axis=0)
        far[k] = False
        assert far.sum() > len(ii) // 2
        assert np.array_equal(cols[0][:, far], cols[1][:, far])
        assert not np.array_equal(cols[0][:, ~far], cols[1][:, ~far])


def test_no_sparse_or_dense_scipy_solvers_on_the_solve_path():
    code = textwrap.dedent("""
        import sys
        import numpy as np
        import subeq
        from subeq import parse_name
        from subeq.grid import Grid, GridProblem
        from subeq.solver import perron_solve
        P = GridProblem(Grid.regular([(0, 1), (0, 1)], 33),
                        parse_name("laplace:n=2"),
                        lambda x: x[:, 0] ** 2 - x[:, 1] ** 2)
        rep = perron_solve(P)
        assert rep.converged and rep.newton_iters, rep
        print(" ".join(sorted(m for m in sys.modules if m.startswith(
            ("scipy.sparse", "scipy.linalg")))))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == ""


def test_the_calculus_commands_load_no_scipy(tmp_path):
    code = textwrap.dedent("""
        import sys
        import subeq.cli
        from subeq.catalog import grassmann_sample
        for argv in (["check", "--subeq", "branch:real:k=1:n=3",
                      "--trials", "500"],
                     ["riesz", "--cone", "pucci:lam=1:Lam=2:n=3"],
                     ["convexity", "--subeq", "klap:k=1:n=2",
                      "--domain", "ball:n=2"]):
            assert subeq.cli.main(argv) == 0, argv
        assert len(grassmann_sample(2, 3).frames) == 256
        print("scipy:", *sorted(m for m in sys.modules
                                if m.startswith("scipy")))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "scipy:"


def test_a_config_run_loads_no_jsonschema(tmp_path):
    # the parser checks a --config file as it checks typed flags
    (tmp_path / "run.json").write_text(
        '{"command": "riesz", "cone": "delta:d=1:n=3"}')
    code = textwrap.dedent("""
        import sys
        import subeq.cli
        assert subeq.cli.main(["--config", "run.json"]) == 0
        print("jsonschema:", *sorted(m for m in sys.modules
                                     if m.startswith("jsonschema")))
    """)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "jsonschema:"
