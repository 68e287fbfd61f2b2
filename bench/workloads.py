"""The benchmark workloads: their inputs, operations and correctness gates.

``build(workload, seed, probe)`` constructs every operator, expression,
domain and ``GridProblem`` a workload uses and returns its operations.  Each
operation is a zero-argument callable timed as one unit, paired with a gate
that returns ``None`` when the output is correct and a reason otherwise.

Seed 0 keeps the repository's own reference data (x^2 on [-1,1]^2,
x^2 - y^2 on [0,1]^2, the acceptance-test sampling seeds).  Any other seed
draws a symmetry of the grid (axis swaps and reflections) and a scale for
the exact quadratic data, and the sampling seeds of the calculus battery;
the same seed always gives the same inputs.  Free rotations are not drawn:
they change the sweep count of a solve by up to a factor of two, so the
work of a run would depend on its seed.

``probe`` is the instrumentation hook (see ``tracing.py``): the untraced
run passes a ``Probe`` whose hooks return their argument unchanged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from subeq import cli
from subeq.boundary import (annulus_domain, ball_domain, star_domain,
                            sample_boundary_points, strict_convexity_test)
from subeq.catalog import parse_name
from subeq.core import (JetBox, axiom_check, dual, monotonicity_check,
                        sample_jet_batch, validate_registration)
from subeq.expressions import expression_domain, parse_expression
from subeq.garding import (branch_subequation, garding_cone,
                           hyperbolicity_check, named_polynomial)
from subeq.grid import Grid, GridProblem, SolverParams
from subeq.jetmaps import AffineJetMap
from subeq.riesz import directional_thresholds, riesz_characteristic
from subeq.solver import membership_scan, obstacle_solve, perron_solve

WORKLOADS = ("box-cascade", "masked-fallback", "calculus")

BAND = 1e-9            # sign band of the duality and Garding comparisons
SCAN_TOL = 1e-6        # outside residual gate; solver residuals sit near 1e-9


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]
    problem: Optional[GridProblem] = None     # finest grid of a solve op


def _num(v: float) -> str:
    """A coefficient as an expression-language literal."""
    return f"({v:.17g})"


class _Draws:
    """Seeded input parameters; seed 0 returns the reference values."""

    def __init__(self, seed: int):
        self.ref = seed == 0
        self.rng = np.random.default_rng(seed)

    def scale(self, lo: float = 0.5, hi: float = 2.0) -> float:
        return 1.0 if self.ref else float(self.rng.uniform(lo, hi))

    def symmetry(self, n: int, center: float) -> list:
        """Coordinates after a random symmetry of the box [a, b]^n centred
        at ``center``: a permutation of the axes and a reflection of each."""
        names = ["x", "y", "z"][:n]
        if self.ref:
            return names
        perm = self.rng.permutation(n)
        flips = self.rng.integers(0, 2, n)
        out = []
        for i, f in zip(perm, flips):
            v = names[i]
            out.append(f"({2 * center:.17g}-{v})" if f else v)
        return out

    def sampling_seed(self, ref: int) -> int:
        return ref if self.ref else int(self.rng.integers(1, 2 ** 31))


def _scaled(c: float, src: str) -> str:
    return src if c == 1.0 else f"{_num(c)}*({src})"


def _sq_diff(d: "_Draws", center: float) -> str:
    """A harmonic quadratic, x^2 - y^2 at seed 0."""
    x, y = d.symmetry(2, center)
    return _scaled(d.scale(), f"{x}*{x}-{y}*{y}")


def _sq(d: "_Draws", n: int) -> str:
    """The exact lambda_1 candidate (e.x)^2 for an axis e, x^2 at seed 0."""
    x = d.symmetry(n, 0.0)[0]
    return _scaled(d.scale(), f"{x}*{x}")


# ---------------------------------------------------------------------------
# solves


class _Solves:
    """Shared plumbing of the two solve workloads: problem construction
    through the probe, the solve itself, and the CLI artefacts of each solve
    (report JSON and field CSV) written to a scratch directory."""

    def __init__(self, probe, outdir: str):
        self.probe = probe
        self.outdir = outdir

    def problem(self, name: str, bounds, m: int, bc_src: str, domain=None,
                **params) -> GridProblem:
        pr = self.probe
        F = pr.operator(parse_name(name), "catalog")
        bc = pr.expression(parse_expression(bc_src))
        return pr.call("grid.GridProblem", GridProblem,
                       Grid.regular(bounds, m), F, bc, domain=domain,
                       params=SolverParams(**params))

    def emit(self, tag: str, P: GridProblem, rep) -> None:
        pr = self.probe
        path = os.path.join(self.outdir, tag)
        pr.call("cli.write_report", cli.write_report,
                {"report": rep.to_json_dict()}, path + ".json")
        pr.call("cli.write_field_csv", cli.write_field_csv, path + ".csv",
                P.grid, rep.u)

    def solve_op(self, tag: str, P: GridProblem, gate) -> Op:
        def run():
            rep = self.probe.call("solver.perron_solve", perron_solve, P)
            self.emit(tag, P, rep)
            return rep
        return Op(tag, run, lambda rep: _solve_gate(rep) or gate(rep), P)


def _solve_gate(rep) -> Optional[str]:
    if not rep.converged:
        return f"not converged after {rep.sweeps} sweeps " \
               f"(final update {rep.final_update:.3g})"
    return None


def _field_error(P: GridProblem, rep, exact_src: str) -> float:
    exact = parse_expression(exact_src)(P.pts).reshape(P.grid.shape)
    return float(np.nanmax(np.abs(rep.u - exact)))


def _error_gate(P: GridProblem, exact_src: str, tol: float):
    def gate(rep):
        err = _field_error(P, rep, exact_src)
        return None if err <= tol else f"max error {err:.3g} > {tol:.3g}"
    return gate


def _residual_gate(P: GridProblem):
    """Outside check of a solve without a closed form: the discrete jets of
    u lie in F and those of -u in dual(F), both within SCAN_TOL."""
    def gate(rep):
        K = P.inside
        st = P.params.stencil
        up = membership_scan(P.grid, rep.u, P.F, K=K, stencil=st)
        down = membership_scan(P.grid, -rep.u, dual(P.F), K=K, stencil=st)
        if min(up, down) < -SCAN_TOL:
            return f"membership scan {up:.3g} / dual {down:.3g} < -{SCAN_TOL}"
        return None
    return gate


def _box_cascade(d: _Draws, S: _Solves) -> list:
    box2 = [(-1.0, 1.0)] * 2
    unit = [(0.0, 1.0)] * 2
    ops = []

    bc = _sq(d, 2)
    P = S.problem("branch:real:k=1:n=2", box2, 65, bc)
    ops.append(S.solve_op("lambda1-m65", P, _error_gate(P, bc, 10 * P.grid.h)))

    bc = _sq_diff(d, 0.5)
    P = S.problem("slag:c=0:n=2", unit, 65, bc)
    ops.append(S.solve_op("slag-m65", P,
                          _error_gate(P, bc, 10 * P.grid.h ** 2)))

    bc = _sq_diff(d, 0.5)
    P = S.problem("laplace:n=2", unit, 129, bc)
    ops.append(S.solve_op("laplace-m129", P,
                          _error_gate(P, bc, 10 * P.grid.h ** 2)))

    bc = _sq(d, 3)
    P = S.problem("branch:real:k=1:n=3", [(-1.0, 1.0)] * 3, 9, bc)
    ops.append(S.solve_op("lambda1-3d-m9", P,
                          _error_gate(P, bc, 10 * P.grid.h)))
    return ops


def _lower_hull(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Lower convex hull of the sampled graph (monotone chain), evaluated at
    the sample abscissae; the reference of the 1-D envelope gate."""
    hull = []
    for p in zip(xs.tolist(), ys.tolist()):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) - (p[0] - x1) * (y2 - y1) <= 0:
                hull.pop()
            else:
                break
        hull.append(p)
    return np.interp(xs, [q[0] for q in hull], [q[1] for q in hull])


def _masked_fallback(d: _Draws, S: _Solves) -> list:
    disk_box = [(-1.2, 1.2)] * 2
    ops = []

    c = d.scale(0.8, 1.25)
    P = S.problem("cy:n=2", disk_box, 65, f"{_num(c)}*(x*x+y*y)",
                  domain=S.probe.domain(ball_domain(2)))
    ops.append(S.solve_op("cy-ball-m65", P, _residual_gate(P)))

    bc = _sq_diff(d, 0.0)
    disk = S.probe.domain(expression_domain("x^2+y^2-1", 2))
    P = S.problem("laplace:n=2", disk_box, 65, bc, domain=disk,
                  stencil="wide16")
    ops.append(S.solve_op("laplace-wide16-disk-m65", P,
                          _error_gate(P, bc, 10 * P.grid.h ** 2)))

    # Aronsson's infinity-harmonic |x|^(4/3) - |y|^(4/3), held fixed on
    # every seed: rotated copies raise BracketError (see README.md)
    bc = "abs(x)^(4/3)-abs(y)^(4/3)"
    P = S.problem("klap:k=inf:n=2", [(-1.0, 1.0)] * 2, 33, bc)
    ops.append(S.solve_op("klap-inf-box-m33", P, _residual_gate(P)))

    # the double well on [-1.5, 1.5]: its envelope is flat between the
    # wells and follows the convex flanks outside them.  Held fixed on every
    # seed: its sweep count grows with the scale of the well.
    well_src = "(x*x-1)^2"
    P = S.problem("branch:real:k=1:n=1", [(-1.5, 1.5)], 385, well_src)
    well = S.probe.expression(parse_expression(well_src))
    hull = _lower_hull(P.pts[:, 0], parse_expression(well_src)(P.pts))

    def run_obstacle():
        rep = S.probe.call("solver.obstacle_solve", obstacle_solve, P, well)
        S.emit("obstacle-well-m385", P, rep)
        return rep

    def hull_gate(rep):
        sup = float(np.nanmax(np.abs(rep.u.ravel() - hull)))
        tol = 2.0 * P.grid.h
        return None if sup <= tol else f"sup |u - hull| {sup:.3g} > {tol:.3g}"

    ops.append(Op("obstacle-well-m385", run_obstacle,
                  lambda rep: _solve_gate(rep) or hull_gate(rep), P))
    return ops


# ---------------------------------------------------------------------------
# calculus battery


def _calculus(d: _Draws, probe) -> list:
    pr = probe
    cat = lambda name: pr.operator(parse_name(name), "catalog")
    ops = []

    # axioms and registration, including a jet-map image of a branch
    # h A h^t with h a fixed anisotropic scaling after a seeded rotation
    h = np.diag([1.0, 2.0, 0.5])
    if not d.ref:
        h = np.linalg.qr(d.rng.standard_normal((3, 3)))[0] @ h
    image = pr.image(parse_name("branch:real:k=2:n=3"),
                     AffineJetMap.linear(np.eye(3), h, label="phi"))
    axiom_sets = [cat("branch:real:k=2:n=3"), cat("branch:complex:k=1:n=2"),
                  cat("geom:p=1:n=3"), cat("pucci:lam=1:Lam=2:n=3"),
                  cat("sigma:k=2:n=3"), image]
    seed_ax = d.sampling_seed(0)

    def run_axioms():
        out = []
        for F in axiom_sets:
            for ax in ("P", "N"):
                rep = pr.call("core.axiom_check", axiom_check, F, ax,
                              trials=10_000, seed=seed_ax)
                out.append((F.label, ax, rep.violations))
            reg = pr.call("core.validate_registration", validate_registration,
                          F, seed=seed_ax, trials=2048)
            out.append((F.label, "registration",
                        int(not (reg["cone_sign_ok"] and reg["boundary_ok"]))))
        return out

    def axioms_gate(out):
        bad = [f"{lab} {ax}: {v}" for lab, ax, v in out if v]
        return "; ".join(bad) or None

    ops.append(Op("axioms-registration", run_axioms, axioms_gate))

    # the acceptance monotonicity suite (direct and dual forms)
    Q2 = named_polynomial("sigma:2", 3)
    pairs = [
        (cat("branch:real:k=2:n=3"), cat("branch:real:k=1:n=3")),
        (cat("pbranch:k=1:p=2:n=3"), cat("pcone:p=2:n=3")),
        (pr.operator(branch_subequation(Q2, 2), "garding"),
         pr.operator(garding_cone(Q2), "garding")),
        (cat("deltabranch:k=2:d=1:n=3"), cat("pucci:lam=1:Lam=2:n=3")),
    ]
    seed_mono = d.sampling_seed(11)

    def run_mono():
        return [pr.call("core.monotonicity_check", monotonicity_check, F, M,
                        trials=10_000, seed=seed_mono) for F, M in pairs]

    def mono_gate(reps):
        bad = [f"{r.direct.label}: {r.direct.violations}/"
               f"{r.dual_form.violations} agree={r.agreement}"
               for r in reps
               if r.direct.violations or r.dual_form.violations
               or not r.agreement or r.direct.trials != 10_000]
        return "; ".join(bad) or None

    ops.append(Op("monotonicity-suite", run_mono, mono_gate))

    # 10^5-jet duality tests: dual(F) classifies like its stock partner
    dual_pairs = [(cat("branch:real:k=1:n=3"), cat("branch:real:k=3:n=3")),
                  (cat("branch:real:k=2:n=3"), cat("branch:real:k=2:n=3")),
                  (cat("slag:c=0.5:n=3"), cat("slag:c=-0.5:n=3"))]
    seed_dual = d.sampling_seed(1001)

    def run_dual():
        rng = np.random.default_rng(seed_dual)
        out = []
        for F, G in dual_pairs:
            r, p, A = sample_jet_batch(JetBox(), F.n, 100_000, rng)
            vd = dual(F).value_batch(r, p, A)
            vg = G.value_batch(r, p, A)
            bad = ((vd > BAND) & (vg < -BAND)) | ((vd < -BAND) & (vg > BAND))
            out.append((F.label, int(bad.sum())))
        return out

    ops.append(Op("dual-tests-1e5", run_dual,
                  lambda out: "; ".join(f"{l}: {k}" for l, k in out if k)
                  or None))

    # Riesz characteristics (closed forms) and per-direction thresholds
    riesz_cases = [("pucci:lam=1:Lam=2:n=3", 2.0), ("delta:d=1:n=3", 2.0),
                   ("branch:real:k=1:n=3", 1.0), ("pcone:p=2.5:n=4", 2.5)]
    riesz_ops = [(cat(name), want) for name, want in riesz_cases]
    seed_riesz = d.sampling_seed(0)

    def run_riesz():
        return [(M.label, want, pr.call("riesz.riesz_characteristic",
                                        riesz_characteristic, M, tol=1e-7,
                                        seed=seed_riesz).p)
                for M, want in riesz_ops]

    ops.append(Op("riesz-characteristics", run_riesz,
                  lambda out: "; ".join(f"{l}: {p:.9g} vs {w}"
                                        for l, w, p in out
                                        if abs(p - w) > 1e-6) or None))

    # rotation-invariant cones: every direction has the same threshold
    thresh_ops = riesz_ops[:2] + riesz_ops[3:]

    def run_thresholds():
        return [(M.label, want, pr.call("riesz.directional_thresholds",
                                        directional_thresholds, M, dirs=16,
                                        seed=seed_riesz))
                for M, want in thresh_ops]

    ops.append(Op("directional-thresholds", run_thresholds,
                  lambda out: "; ".join(
                      f"{l}: {np.abs(t - w).max():.3g} off {w}"
                      for l, w, t in out if np.abs(t - w).max() > 1e-6)
                  or None))

    # Garding engine: sigma_3 in three variables is det, so its branches
    # are the ordinary eigenvalue branches
    Q3 = named_polynomial("sigma:3", 3)
    g_pairs = [(pr.operator(branch_subequation(Q3, k), "garding"),
                cat(f"branch:real:k={k}:n=3")) for k in (1, 2, 3)]
    seed_g = d.sampling_seed(77)

    def run_garding():
        rng = np.random.default_rng(seed_g)
        M = rng.normal(size=(10_000, 3, 3)) * 2.0
        A = 0.5 * (M + np.swapaxes(M, 1, 2))
        z, zp = np.zeros(len(A)), np.zeros((len(A), 3))
        out = []
        for G, B in g_pairs:
            vg, vb = G.value_batch(z, zp, A), B.value_batch(z, zp, A)
            bad = ((vg > BAND) & (vb < -BAND)) | ((vg < -BAND) & (vb > BAND))
            out.append((G.label, int(bad.sum())))
        hyp = pr.call("garding.hyperbolicity_check", hyperbolicity_check,
                      Q2, trials=200, seed=seed_g)
        out.append((hyp.label, hyp.failures))
        return out

    ops.append(Op("garding-sigma3", run_garding,
                  lambda out: "; ".join(f"{l}: {k}" for l, k in out if k)
                  or None))

    # strict boundary convexity: disk/star/annulus verdict counts
    k1, kinf = cat("klap:k=1:n=2"), cat("klap:k=inf:n=2")
    disk, annulus = ball_domain(2), annulus_domain(2, r_in=1.0, r_out=2.0)
    star = star_domain(2, amplitude=0.15, lobes=5, seed=2)
    seed_b1, seed_b2 = d.sampling_seed(3), d.sampling_seed(5)
    phase = 0.0 if d.ref else float(d.rng.uniform(0.0, 2.0 * np.pi / 20.0))
    th = phase + 2.0 * np.pi * np.arange(20) / 20.0
    inner_wall = np.stack([np.cos(th), np.sin(th)], axis=1)

    def passes(F, D, pts) -> int:
        return sum(bool(pr.call("boundary.strict_convexity_test",
                                strict_convexity_test, F, D, x).overall)
                   for x in pts)

    def boundary(D, seed):
        return pr.call("boundary.sample_boundary_points",
                       sample_boundary_points, D, 20, seed=seed)

    def run_convexity():
        return [
            ("k=1 disk", 20, passes(k1, disk, boundary(disk, seed_b1))),
            ("k=1 annulus inner wall", 0, passes(k1, annulus, inner_wall)),
            ("k=inf disk", 20, passes(kinf, disk, boundary(disk, seed_b2))),
            ("k=inf annulus", 20,
             passes(kinf, annulus, boundary(annulus, seed_b2))),
            ("k=inf star", 20, passes(kinf, star, boundary(star, seed_b2)))]

    ops.append(Op("strict-convexity", run_convexity,
                  lambda out: "; ".join(f"{tag}: {got} pass, expected {want}"
                                        for tag, want, got in out
                                        if got != want) or None))
    return ops


def build(workload: str, seed: int, probe, outdir: str) -> list:
    """Set up ``workload`` for ``seed``; returns its list of ``Op``.  Solve
    operations write their report and field files into ``outdir``."""
    d = _Draws(seed)
    if workload == "calculus":
        return _calculus(d, probe)
    S = _Solves(probe, outdir)
    if workload == "box-cascade":
        return _box_cascade(d, S)
    if workload == "masked-fallback":
        return _masked_fallback(d, S)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
