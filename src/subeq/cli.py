"""Batch command-line front end.

Dispatches the checker/solver commands, reads flags or a JSON config, and
writes deterministic artifacts: a JSON report for every run (floats at 17
significant digits, keys sorted — byte-identical for identical config and
seed) plus CSV field dumps for the grid commands.

Exit codes: 0 success, 2 violations/non-convergence (report still written),
3 invalid configuration, usage errors included.  A negative bound must be
joined to its flag: ``--box=-1,1`` (``--box -1,1`` reads ``-1,1`` as a flag).
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import SubeqError, ConfigError
from .core import (DEFAULT_EPS_B, JetBox, sample_jet_batch, axiom_check,
                   monotonicity_check, validate_registration, dual)
from .catalog import parse_name, dual_name, _Params
from .garding import (named_polynomial, garding_eigenvalues,
                      hyperbolicity_check)
from .riesz import riesz_characteristic
from .boundary import (sample_boundary_points, strict_convexity_test,
                       ball_domain, annulus_domain, ellipsoid_domain,
                       star_domain)
from .expressions import parse_expression, expression_domain
from .grid import Grid, GridProblem, SolverParams
from .solver import perron_solve, obstacle_solve, dual_bracket_solve


# ---------------------------------------------------------------------------
# deterministic serialization


def _jsonable(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def render_json(obj) -> str:
    """Canonical JSON: sorted keys, floats at 17 significant digits,
    non-finite values as null."""
    obj = _jsonable(obj)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return "null"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = sorted((str(k), v) for k, v in obj.items())
        inner = ",".join(f"{json.dumps(k)}:{render_json(v)}"
                         for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(render_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def write_report(report: dict, path: str) -> None:
    Path(path).write_text(render_json(report) + "\n")


def _f17(x: float) -> str:
    return "nan" if not math.isfinite(x) else format(float(x), ".17g")


def write_field_csv(path: str, grid: Grid, u: np.ndarray) -> None:
    """Gnuplot-ready dump: coordinate columns then the value, blank line
    between leading-index slabs (2-d/3-d).  Each axis's coordinates are
    formatted once and gathered per node; every row comes from one ``%``
    over the whole table."""
    u = np.asarray(u, dtype=float).reshape(grid.shape)
    u = np.where(np.isfinite(u), u, np.nan)     # "%.17g" % inf is "inf"
    axes = [np.array([_f17(x) for x in a], dtype=object) for a in grid.axes()]
    cols = [*np.meshgrid(*axes, indexing="ij"), u.astype(object)]
    table = np.stack([c.ravel() for c in cols], axis=1)
    row = ",".join(["%s"] * grid.n + ["%.17g"])
    slab = "\n".join([row] * (grid.size() // grid.shape[0]))
    body = ("\n\n" if grid.n > 1 else "\n").join([slab] * grid.shape[0])
    headers = ["x", "y", "z"][:grid.n] + ["u"]
    Path(path).write_text(",".join(headers) + "\n"
                          + body % tuple(table.ravel()) + "\n")


# ---------------------------------------------------------------------------
# argument plumbing


def _at_least(kind, lo, strict=False):
    """argparse type: a ``kind`` value >= lo (> lo if strict), and finite;
    the comparisons are written so that NaN fails them."""
    def check(text):
        v = kind(text)
        if (lo < v if strict else lo <= v) and v < math.inf:
            return v
        raise argparse.ArgumentTypeError(
            f"must be finite and {'>' if strict else '>='} {lo}, not {text!r}")
    check.__name__ = kind.__name__      # "invalid int value" on bad text
    return check


_COUNT = _at_least(int, 1)
_POSITIVE = _at_least(float, 0, strict=True)


def _add_common(sp, run, seed=True):
    """The flags every command takes; ``--seed`` only where a command draws
    samples (the grid solves draw none)."""
    sp.set_defaults(run=run)
    if seed:
        sp.add_argument("--seed", type=_at_least(int, 0), default=0)
    sp.add_argument("--out", default="subeq-report.json",
                    help="report JSON path")


def _add_grid_flags(sp):
    sp.add_argument("--subeq", required=True)
    sp.add_argument("--bc", required=True, help="boundary data expression")
    sp.add_argument("--domain", default=None,
                    help="defining-function expression; omit for the full box")
    sp.add_argument("--box", default=None,
                    help="a,b (same every axis) or per-axis pairs a,b,c,d,...")
    sp.add_argument("--h", type=_POSITIVE, default=None, help="grid spacing")
    sp.add_argument("--m", type=int, default=None, help="nodes per axis")
    sp.add_argument("--stencil", default="9pt",
                    choices=["5pt", "9pt", "wide16"])
    sp.add_argument("--max-sweeps", type=_COUNT, default=100_000,
                    help="Perron sweeps per solve, over all ladder levels")
    sp.add_argument("--sweep-tol", type=float, default=None)
    sp.add_argument("--out-field", default="subeq-field.csv")


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 3, the configuration-error code; argparse's own 2
    would read as "violations found".  Flags are never abbreviated, so a
    config key must name its flag in full.  Subparsers inherit the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="subeq",
        description="Constraint-set calculus for degenerate-elliptic "
                    "operators: checks, cones, branches, and grid solves.")
    p.add_argument("--config", default=None,
                   help="JSON file supplying the command and its flags")
    sub = p.add_subparsers(dest="command")

    sp = sub.add_parser("check", help="axiom + registration scan")
    sp.add_argument("--subeq", required=True)
    sp.add_argument("--trials", type=_COUNT, default=10_000)
    _add_common(sp, _cmd_check)

    sp = sub.add_parser("dual-test", help="dual membership agreement")
    sp.add_argument("--subeq", required=True)
    sp.add_argument("--against", default=None,
                    help="catalog name expected to equal the dual")
    sp.add_argument("--trials", type=_COUNT, default=10_000)
    _add_common(sp, _cmd_dual_test)

    sp = sub.add_parser("mono-test", help="F + M subset F, sampled")
    sp.add_argument("--subeq", required=True)
    sp.add_argument("--cone", required=True)
    sp.add_argument("--trials", type=_COUNT, default=10_000)
    _add_common(sp, _cmd_mono_test)

    sp = sub.add_parser("riesz", help="cone characteristic by bisection")
    sp.add_argument("--cone", required=True)
    sp.add_argument("--tol", type=_POSITIVE, default=1e-6)
    sp.add_argument("--dirs", type=_COUNT, default=64)
    _add_common(sp, _cmd_riesz)

    sp = sub.add_parser("garding", help="generalized eigenvalues of a matrix")
    sp.add_argument("--poly", required=True, help='"det" or "sigma:<k>"')
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--matrix", required=True,
                    help="rows split by ';', entries by ','")
    sp.add_argument("--check-trials", type=_at_least(int, 0), default=0,
                    help="also run the sampled hyperbolicity check")
    _add_common(sp, _cmd_garding)

    sp = sub.add_parser("convexity", help="strict boundary convexity scan")
    sp.add_argument("--subeq", required=True)
    sp.add_argument("--domain", required=True)
    sp.add_argument("--points", type=_COUNT, default=20)
    sp.add_argument("--lambda-grid", default="-2,-1,0,1,2")
    sp.add_argument("--t-max", type=_at_least(float, 1, strict=True),
                    default=2.0 ** 16)
    sp.add_argument("--out-csv", default="subeq-convexity.csv")
    _add_common(sp, _cmd_convexity)

    sp = sub.add_parser("solve", help="Dirichlet solve")
    _add_grid_flags(sp)
    _add_common(sp, _cmd_solve, seed=False)

    sp = sub.add_parser("obstacle", help="Dirichlet solve under an obstacle")
    _add_grid_flags(sp)
    sp.add_argument("--obstacle", required=True, dest="obstacle_expr",
                    help="obstacle expression g")
    _add_common(sp, _cmd_obstacle, seed=False)

    sp = sub.add_parser("bracket", help="upper/lower Perron bracket")
    _add_grid_flags(sp)
    sp.add_argument("--out-field-dual", default="subeq-field-dual.csv")
    _add_common(sp, _cmd_bracket, seed=False)

    return p


def _config_to_argv(cfg: dict) -> list:
    """The command line a config stands for; the parser checks it as it
    checks typed flags.  Keys are flag names with '_' for '-'."""
    if "command" not in cfg:
        raise ConfigError("config missing 'command'")
    argv = [str(cfg["command"])]
    for key, val in cfg.items():
        if key == "command":
            continue
        flag = "--" + str(key).replace("_", "-")
        if isinstance(val, bool) or not isinstance(val, (str, int, float)):
            raise ConfigError(f"config values are strings or numbers ({key})")
        if isinstance(val, float) and val.is_integer():
            val = int(val)                  # "m": 33.0 is 33
        # one argv item, so that values starting with '-' stay values
        argv.append(f"{flag}={val}")
    return argv


def _load_config(path: str) -> dict:
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} is not a JSON object")
    return cfg


# ---------------------------------------------------------------------------
# command bodies (each returns (exit_code, report_dict, summary_line))


def _cmd_check(args):
    F = parse_name(args.subeq)
    reps = {ax: axiom_check(F, ax, trials=args.trials, seed=args.seed)
            for ax in ("P", "N")}
    reg = (validate_registration(F, seed=args.seed)
           if not F.x_dependent else {"skipped": True})
    ok = all(r.violations == 0 for r in reps.values()) \
        and reg.get("cone_sign_ok", True) and reg.get("boundary_ok", True)
    report = {"command": "check", "subeq": args.subeq, "seed": args.seed,
              "axioms": {ax: r.to_json_dict() for ax, r in reps.items()},
              "registration": reg, "ok": ok}
    line = (f"[check] {F.label} P:{reps['P'].violations}/{args.trials} "
            f"N:{reps['N'].violations}/{args.trials} "
            f"registration:{'ok' if ok else 'FAIL'}")
    return (0 if ok else 2), report, line


def _cmd_dual_test(args):
    F = parse_name(args.subeq)
    target_name = args.against or dual_name(args.subeq)
    if target_name is None:
        raise ConfigError(
            f"no stock dual for {args.subeq!r}; pass --against")
    G = parse_name(target_name)
    if G.n != F.n:
        raise ConfigError("dimension mismatch between the pair")
    rng = np.random.default_rng(args.seed)
    r, p, A = sample_jet_batch(JetBox(), F.n, args.trials, rng)
    vd = dual(F).value_batch(r, p, A)
    vg = G.value_batch(r, p, A)
    decidable = (np.abs(vd) > DEFAULT_EPS_B) & (np.abs(vg) > DEFAULT_EPS_B)
    disagree = decidable & ((vd > 0) != (vg > 0))
    count = int(disagree.sum())
    witness = None
    if count:
        i = int(np.flatnonzero(disagree)[0])
        witness = {"jet": {"r": float(r[i]), "p": p[i].tolist(),
                           "A": A[i].tolist()},
                   "dual_margin": float(vd[i]), "against_margin": float(vg[i])}
    report = {"command": "dual-test", "subeq": args.subeq,
              "against": target_name, "trials": args.trials,
              "seed": args.seed, "decidable": int(decidable.sum()),
              "disagreements": count, "witness": witness}
    line = (f"[dual-test] dual({F.label}) vs {G.label}: "
            f"{count} disagreements / {int(decidable.sum())} decidable")
    return (0 if count == 0 else 2), report, line


def _cmd_mono_test(args):
    F = parse_name(args.subeq)
    M = parse_name(args.cone)
    rep = monotonicity_check(F, M, trials=args.trials, seed=args.seed)
    report = {"command": "mono-test", "subeq": args.subeq, "cone": args.cone,
              "trials": args.trials, "seed": args.seed,
              **rep.to_json_dict()}
    ok = rep.direct.violations == 0 and rep.agreement
    line = (f"[mono-test] {F.label} + {M.label}: "
            f"{rep.direct.violations} violations, "
            f"dual-form {'agrees' if rep.agreement else 'DISAGREES'}")
    return (0 if ok else 2), report, line


def _cmd_riesz(args):
    M = parse_name(args.cone)
    res = riesz_characteristic(M, tol=args.tol, dirs=args.dirs,
                               seed=args.seed)
    report = {"command": "riesz", "cone": args.cone, "seed": args.seed,
              **res.to_json_dict()}
    line = f"[riesz] {M.label}: p = {res.p:.8g}" + \
        (" (unbounded)" if res.unbounded else "")
    return 0, report, line


def _parse_matrix(text: str, n: int) -> np.ndarray:
    try:
        rows = [[float(v) for v in row.split(",")]
                for row in text.split(";")]
        A = np.array(rows, dtype=float)
    except ValueError as exc:
        raise ConfigError(f"bad matrix literal: {exc}") from exc
    if not np.isfinite(A).all():
        raise ConfigError("matrix entries must be finite")
    if A.shape != (n, n):
        raise ConfigError(f"matrix shape {A.shape}, expected {(n, n)}")
    if np.abs(A - A.T).max() > 1e-12 * max(1.0, np.abs(A).max()):
        raise ConfigError("matrix is not symmetric")
    return 0.5 * (A + A.T)


def _cmd_garding(args):
    Q = named_polynomial(args.poly, args.n)
    A = _parse_matrix(args.matrix, args.n)
    eigs = garding_eigenvalues(Q, A)
    report = {"command": "garding", "poly": args.poly, "n": args.n,
              "matrix": A.tolist(), "eigenvalues": eigs.tolist(),
              "seed": args.seed}
    code = 0
    if args.check_trials:
        hrep = hyperbolicity_check(Q, trials=args.check_trials,
                                   seed=args.seed)
        report["hyperbolicity"] = {"trials": hrep.trials,
                                   "failures": hrep.failures,
                                   "witness": hrep.witness}
        if hrep.failures:
            code = 2
    line = f"[garding] {Q.label}: eigenvalues {np.round(eigs, 9).tolist()}"
    return code, report, line


def _cmd_convexity(args):
    F = parse_name(args.subeq)
    D = _resolve_domain(args.domain, F.n)
    grid = tuple(float(v) for v in args.lambda_grid.split(","))
    pts = sample_boundary_points(D, args.points, seed=args.seed)
    rows = []
    n_pass = 0
    for x in pts:
        v = strict_convexity_test(F, D, x, lambda_grid=grid,
                                  t_max=args.t_max)
        rows.append(v)
        n_pass += bool(v.overall)
    headers = (["x", "y", "z"][:F.n]
               + [f"lam={g:g}" for g in grid] + ["overall"])
    lines = [",".join(headers)]
    for v in rows:
        lines.append(",".join(
            [_f17(c) for c in v.point]
            + [str(int(b)) for b in v.per_lambda] + [str(int(v.overall))]))
    Path(args.out_csv).write_text("\n".join(lines) + "\n")
    report = {"command": "convexity", "subeq": args.subeq,
              "domain": args.domain, "points": args.points,
              "seed": args.seed, "lambda_grid": list(grid),
              "passes": n_pass, "failures": len(rows) - n_pass,
              "per_point": [v.to_json_dict() for v in rows]}
    line = (f"[convexity] {F.label} on {args.domain!r}: "
            f"{n_pass}/{len(rows)} boundary points strictly convex")
    return (0 if n_pass == len(rows) else 2), report, line


def _parse_box(text, n: int):
    vals = [float(v) for v in text.replace(";", ",").split(",") if v.strip()]
    if len(vals) == 2:
        return [(vals[0], vals[1])] * n
    if len(vals) == 2 * n:
        return [(vals[2 * i], vals[2 * i + 1]) for i in range(n)]
    raise ConfigError(f"box needs 2 or {2 * n} numbers, got {len(vals)}")


def _infer_n(*exprs) -> int:
    """Coordinate count implied by the expression strings (min 2)."""
    n = 0
    for src in exprs:
        if src and src.split(":", 1)[0] not in _NAMED_DOMAINS:
            n = max(n, parse_expression(src).max_index + 1)
    if n == 0:
        raise ConfigError(
            "cannot infer dimension; name it explicitly, e.g. laplace:n=2")
    return max(n, 2)


def _resolve_subeq(name: str, *exprs):
    """Catalog lookup; names without :n= pick it up from the expressions."""
    try:
        return parse_name(name)
    except ConfigError:
        if ":n=" in name:
            raise
        return parse_name(f"{name}:n={_infer_n(*exprs)}")


# the named domain families; each reads n and its own parameters
_NAMED_DOMAINS = ("ball", "annulus", "ellipsoid", "star")


def _resolve_domain(text: str, n: int = None):
    """Geometric domain names (``ball:n=2``, ``annulus:n=2:r_in=0.5``,
    ``star:n=2:lobes=5:amp=0.15``) or a defining-function expression."""
    head = text.split(":", 1)[0]
    if head not in _NAMED_DOMAINS:
        if n is None:
            n = _infer_n(text)
        return expression_domain(text, n)

    def make(kv):
        dn = int(kv.get("n", n or 2))
        if head == "ball":
            return ball_domain(dn, radius=float(kv.get("radius", 1.0)))
        if head == "annulus":
            return annulus_domain(dn, r_in=float(kv.get("r_in", 0.5)),
                                      r_out=float(kv.get("r_out", 1.0)))
        if head == "ellipsoid":
            axes = tuple(float(v) for v in kv.get("axes", "1.5,1").split(","))
            if len(axes) != dn:
                raise ConfigError(
                    f"ellipsoid needs {dn} axes, got {len(axes)}")
            return ellipsoid_domain(axes)
        return star_domain(dn, lobes=int(kv.get("lobes", 5)),
                               amplitude=float(kv.get("amp", 0.15)))
    return _Params(text).build(make)


def _build_problem(args):
    F = _resolve_subeq(args.subeq, args.bc, args.domain)
    n = F.n
    if args.box is not None:
        box = _parse_box(args.box, n)
    elif args.domain is not None:
        box = [(-1.2, 1.2)] * n
    else:
        box = [(0.0, 1.0)] * n
    span = box[0][1] - box[0][0]
    if args.m is not None:
        m = args.m
    elif args.h is not None:
        m = int(round(span / args.h)) + 1
    else:
        m = 65
    grid = Grid.regular(box, m)
    bc = parse_expression(args.bc)
    domain = _resolve_domain(args.domain, n) if args.domain else None
    params = SolverParams(max_sweeps=args.max_sweeps,
                          sweep_tol=args.sweep_tol, stencil=args.stencil)
    return GridProblem(grid, F, bc, domain=domain, params=params)


def _grid_config_echo(args, P) -> dict:
    return {"subeq": args.subeq, "bc": args.bc, "domain": args.domain,
            "h": P.grid.h, "shape": list(P.grid.shape),
            "stencil": args.stencil,
            "interior_nodes": int(len(P.interior_idx))}


def _cmd_solve(args):
    P = _build_problem(args)
    rep = perron_solve(P)
    write_field_csv(args.out_field, P.grid, rep.u)
    report = {"command": "solve", "config": _grid_config_echo(args, P),
              "report": rep.to_json_dict()}
    line = (f"[solve] {P.F.label} h={P.grid.h:g} sweeps={rep.sweeps} "
            f"{'converged' if rep.converged else 'NOT CONVERGED'} "
            f"residual={rep.residual:.3g}")
    return (0 if rep.converged else 2), report, line


def _cmd_obstacle(args):
    P = _build_problem(args)
    g = parse_expression(args.obstacle_expr)
    rep = obstacle_solve(P, g)
    write_field_csv(args.out_field, P.grid, rep.u)
    report = {"command": "obstacle", "config": _grid_config_echo(args, P),
              "obstacle": args.obstacle_expr, "report": rep.to_json_dict()}
    line = (f"[obstacle] {P.F.label} h={P.grid.h:g} sweeps={rep.sweeps} "
            f"contact={rep.contact_nodes} "
            f"{'converged' if rep.converged else 'NOT CONVERGED'}")
    return (0 if rep.converged else 2), report, line


def _cmd_bracket(args):
    P = _build_problem(args)
    res = dual_bracket_solve(P)
    write_field_csv(args.out_field, P.grid, res.U)
    write_field_csv(args.out_field_dual, P.grid, res.U_tilde)
    st = res.report.sweep_tol
    bracket_ok = res.min_gap >= -10.0 * st
    both = res.report.converged and res.report_dual.converged
    report = {"command": "bracket", "config": _grid_config_echo(args, P),
              "bracket_ok": bracket_ok,
              **res.to_json_dict()}
    line = (f"[bracket] {P.F.label} gap in [{res.min_gap:.3g}, "
            f"{res.max_gap:.3g}] bracket {'holds' if bracket_ok else 'FAILS'}")
    return (0 if (both and bracket_ok) else 2), report, line


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        try:
            cfg = _load_config(args.config)
            args = parser.parse_args(_config_to_argv(cfg))
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        except SystemExit:          # the parser has printed its usage error
            return 3
    if not args.command:
        parser.print_help()
        return 3
    try:
        code, report, line = args.run(args)
    except (SubeqError, ValueError) as exc:
        write_report({"command": args.command, "status": "config_error",
                      "error": str(exc)}, args.out)
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write_report(report, args.out)
    print(line)
    return code


if __name__ == "__main__":                               # pragma: no cover
    sys.exit(main())
