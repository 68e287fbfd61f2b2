#!/usr/bin/env python3
"""SHA-256 digests of the CLI's artefacts for a fixed list of configs.

Each config runs as ``python -m subeq.cli`` in its own temporary directory,
with ``src/`` of the given checkout on ``PYTHONPATH``.  One line per config:

    <name> exit=<code> json=<sha> csv=<sha> stdout=<sha> stderr=<sha>

``csv`` digests the CSV files the command wrote (field dumps or the
convexity table), concatenated in sorted file-name order; ``-`` when the
command writes none.  A config given as ``["--config", "<JSON>"]`` is
written to ``config.json`` in the temporary directory and run from there.
Reports are byte-stable for a fixed config, so two checkouts that should
behave alike can be compared with ``diff``:

    python3 scripts/cli_digests.py > change.txt
    python3 scripts/cli_digests.py /path/to/other/checkout > other.txt
    diff other.txt change.txt

A solver change may move the last bits of a field without moving the
fixed point.  ``--compare OTHER`` runs every config in both checkouts and,
for the solve, obstacle and bracket configs, prints numbers instead of
digests:

    <name> exit=<a>/<b> converged=<a>/<b> sweeps=<a>/<b> du/sweep_tol=<q>
           csv=<same|DIFFERS> <same>

where ``du`` is the largest |u_a - u_b| over all field CSVs of the config
(the NaN masks must agree, else ``du`` is ``inf``), ``sweep_tol`` the one
quoted in the first checkout's report, and ``csv`` says whether the field
dumps are byte-identical, whatever the reports do.  Every other config
keeps its digest line.  When the two reports' digests differ, the line
also carries ``json-diff=<path>,...``: the dotted key paths at which the
parsed reports differ (``config.order`` for a dropped key; ``.`` when one
side wrote no report or the two differ only in bytes), so a schema change
reads apart from moved numbers.  Each line ends in ``same`` when all
digests agree with the other side, else ``DIFFERS``.

Usage:  python3 scripts/cli_digests.py [checkout] [--compare OTHER]
        (checkout defaults to this one)
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CONFIGS = [
    ("check-branch", ["check", "--subeq", "branch:real:k=1:n=3"]),
    ("check-pucci", ["check", "--subeq", "pucci:lam=1:Lam=2:n=3"]),
    ("check-appb4", ["check", "--subeq", "appb:case=4:n=2:gamma=1"]),
    ("check-sigma", ["check", "--subeq", "sigma:k=2:n=3"]),
    ("check-appb3", ["check", "--subeq", "appb:case=3:n=3:angle=30"]),
    # M(gamma, D, R) with the r-term alone
    ("check-appb2", ["check", "--subeq", "appb:case=2:n=2"]),
    # pure second-order sets without a spectral form: members are decided
    # on A before r and p are drawn
    ("check-complex", ["check", "--subeq", "branch:complex:k=1:n=2"]),
    ("check-quaternionic", ["check", "--subeq",
                            "branch:quaternionic:k=1:n=2"]),
    ("check-geom", ["check", "--subeq", "geom:p=1:n=3"]),
    # 2-plane frames: the one config that reaches grassmann_sample's
    # general-p path
    ("check-geom-p2", ["check", "--subeq", "geom:p=2:n=3"]),
    # a key the family never reads: exit 3 with a config_error report
    ("check-unknown-key", ["check", "--subeq", "slag:C=0.5:n=2"]),
    ("dual-branch", ["dual-test", "--subeq", "branch:real:k=1:n=3"]),
    ("dual-slag", ["dual-test", "--subeq", "slag:c=0.5:n=2"]),
    ("mono-branch", ["mono-test", "--subeq", "branch:real:k=2:n=3",
                     "--cone", "branch:real:k=1:n=3"]),
    ("mono-appb5", ["mono-test", "--subeq", "laplace:n=2",
                    "--cone", "appb:case=5:n=2:lam=1"]),
    ("mono-appb6", ["mono-test", "--subeq", "laplace:n=2",
                    "--cone", "appb:case=6:n=2:R=1"]),
    # matrix-first draws for F, M and dual(F), F's at margin DEFAULT_EPS_B
    ("mono-complex", ["mono-test", "--subeq", "branch:complex:k=1:n=2",
                      "--cone", "branch:complex:k=1:n=2"]),
    ("riesz-pucci", ["riesz", "--cone", "pucci:lam=1:Lam=2:n=3"]),
    ("riesz-pcone", ["riesz", "--cone", "pcone:p=2.5:n=4", "--tol", "1e-8"]),
    ("riesz-geom", ["riesz", "--cone", "geom:p=1:n=3:frames=64",
                    "--tol", "1e-8"]),
    ("riesz-sigma", ["riesz", "--cone", "sigma:k=2:n=3"]),
    # the config route: the JSON is written to a file that --config reads
    ("config-riesz", ["--config",
                      '{"command": "riesz", "cone": "delta:d=1:n=3"}']),
    ("garding-sigma", ["garding", "--poly", "sigma:2", "--n", "3",
                       "--matrix", "2,0.5,0;0.5,1,0.25;0,0.25,-0.5",
                       "--check-trials", "50"]),
    ("garding-det", ["garding", "--poly", "det", "--n", "2",
                     "--matrix", "1,0.5;0.5,-2"]),
    ("garding-sigma3", ["garding", "--poly", "sigma:3", "--n", "4",
                        "--matrix", "2,0.5,0,0.1;0.5,1,0.25,0;0,0.25,-0.5,0.3;"
                        "0.1,0,0.3,0.75", "--check-trials", "50"]),
    ("garding-det3", ["garding", "--poly", "det", "--n", "3",
                      "--matrix", "1,0.5,0;0.5,-2,0.25;0,0.25,0.5"]),
    ("convexity-klapinf-ball", ["convexity", "--subeq", "klap:k=inf:n=2",
                                "--domain", "ball:n=2"]),
    ("convexity-klap1-star", ["convexity", "--subeq", "klap:k=1:n=2",
                              "--domain", "star:n=2"]),
    ("convexity-branch-expr", ["convexity", "--subeq", "branch:real:k=1:n=2",
                               "--domain", "x*x+2*y*y-1"]),
    ("convexity-klapinf-annulus", ["convexity", "--subeq", "klap:k=inf:n=2",
                                   "--domain", "annulus:n=2"]),
    ("convexity-branch-ball3", ["convexity", "--subeq", "branch:real:k=1:n=3",
                                "--domain", "ball:n=3"]),
    ("solve-lambda1-m33", ["solve", "--subeq", "branch:real:k=1:n=2",
                           "--bc", "x^2", "--box=-1,1", "--m", "33"]),
    ("solve-laplace-wide16", ["solve", "--subeq", "laplace:n=2",
                              "--bc", "x^2-y^2", "--domain", "ball:n=2",
                              "--stencil", "wide16", "--m", "25"]),
    ("solve-cy-ball", ["solve", "--subeq", "cy:n=2", "--bc", "0",
                       "--domain", "ball:n=2", "--m", "21"]),
    ("solve-pucci-ball", ["solve", "--subeq", "pucci:lam=1:Lam=2:n=2",
                          "--bc", "x^2+0.5*y^2+0.25*x*y^2",
                          "--domain", "ball:n=2", "--m", "21"]),
    # a double eigenvalue: the margin touches zero quadratically
    ("solve-sigma2-ball", ["solve", "--subeq", "sigma:k=2:n=2",
                           "--bc", "x^2+y^2", "--domain", "ball:n=2",
                           "--m", "21"]),
    ("solve-klapinf-ball", ["solve", "--subeq", "klap:k=inf:n=2",
                            "--bc", "x", "--domain", "ball:n=2", "--m", "17"]),
    # the finite-k line restriction on a mask
    ("solve-klap3-ball-m21", ["solve", "--subeq", "klap:k=3:n=2",
                              "--bc", "x", "--domain", "ball:n=2",
                              "--m", "21"]),
    # a p-dependent set's line restriction on the wide16 stencil
    ("solve-klap3-wide16-m21", ["solve", "--subeq", "klap:k=3:n=2",
                                "--bc", "x", "--box=-1,1", "--m", "21",
                                "--stencil", "wide16"]),
    # Newton is abandoned on the coarsest level: the Perron cascade
    ("solve-klapinf-box-m33", ["solve", "--subeq", "klap:k=inf:n=2",
                               "--bc", "abs(x)^(4/3)-abs(y)^(4/3)",
                               "--box=-1,1", "--m", "33"]),
    # Newton is abandoned on the finest level (Krylov growth)
    ("solve-cone-m129", ["solve", "--subeq", "branch:real:k=1:n=2",
                         "--bc", "(x^2+y^2)^0.5", "--box=1,3,-1,1",
                         "--m", "129"]),
    # the one 3-D field dump: slabs of the leading index
    ("solve-lambda1-3d-m9", ["solve", "--subeq", "branch:real:k=1:n=3",
                             "--bc", "x^2", "--box=-1,1", "--m", "9"]),
    ("solve-lambda1-tol", ["solve", "--subeq", "branch:real:k=1:n=2",
                           "--bc", "x^2", "--box=-1,1", "--m", "17",
                           "--sweep-tol", "1e-8"]),
    # a masked domain with 33 or more nodes per axis: one Newton level
    ("solve-cy-ball-m65", ["solve", "--subeq", "cy:n=2", "--bc", "x^2+y^2",
                           "--domain", "ball:n=2", "--m", "65"]),
    # the one Newton-certified p-dependent config: the Jacobian's p columns
    ("solve-klap3-m33", ["solve", "--subeq", "klap:k=3:n=2",
                         "--bc", "x^2+y^2", "--box=1,2", "--m", "33"]),
    # an even node count has no ladder: one Newton level from the Laplace
    # start, as on a masked domain
    ("solve-laplace-m64", ["solve", "--subeq", "laplace:n=2",
                           "--bc", "x^2-y^2", "--m", "64"]),
    # masked 3-D Newton, and a second 3-D field dump
    ("solve-laplace3-annulus-m33", ["solve", "--subeq", "laplace:n=3",
                                    "--bc", "(x^2+y^2+z^2)^(-0.5)",
                                    "--domain", "annulus:n=3:r_in=0.4:r_out=1",
                                    "--box=-1,1", "--m", "33"]),
    # masked Newton on Riesz-kernel data, then the certifying sweep
    ("solve-pucci-annulus-m65", ["solve", "--subeq", "pucci:lam=1:Lam=2:n=2",
                                 "--bc", "(x^2+y^2)^0.25",
                                 "--domain", "annulus:n=2:r_in=0.4:r_out=1",
                                 "--box=-1,1", "--m", "65"]),
    # the 3-D rectangle ladder: Newton on both levels
    ("solve-slag3-m33", ["solve", "--subeq", "slag:c=0:n=3",
                         "--bc", "x^2+y^2-z^2", "--box=-1,1", "--m", "33"]),
    # Howard's rows for the clamp over the 25 -> 385 ladder
    ("obstacle-well-m385", ["obstacle", "--subeq", "branch:real:k=1:n=1",
                            "--bc", "(x*x-1)^2", "--obstacle", "(x*x-1)^2",
                            "--box=-1.5,1.5", "--m", "385"]),
    ("obstacle-laplace", ["obstacle", "--subeq", "laplace:n=2", "--bc", "0",
                          "--obstacle", "(x-0.5)^2+(y-0.5)^2-0.05",
                          "--m", "17"]),
    ("bracket-laplace", ["bracket", "--subeq", "laplace:n=2",
                         "--bc", "x^2-y^2", "--m", "17"]),
    # the dual line restrictions of sets that are not spectral
    ("bracket-klapinf-ball-m17", ["bracket", "--subeq", "klap:k=inf:n=2",
                                  "--bc", "x", "--domain", "ball:n=2",
                                  "--m", "17"]),
    ("bracket-cy-ball-m21", ["bracket", "--subeq", "cy:n=2",
                             "--bc", "x^2+y^2", "--domain", "ball:n=2",
                             "--m", "21"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


SOLVES = ("solve", "obstacle", "bracket")


def run_config(src: Path, argv: list) -> dict:
    """Run one config; returns its digest line, exit code, parsed report
    (or None) and field values (last CSV column, by file name)."""
    # one BLAS thread on both sides, so the thread count cannot move bits
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        if argv[0] == "--config":
            Path(tmp, "config.json").write_text(argv[1])
            argv = ["--config", "config.json"]
        proc = subprocess.run([sys.executable, "-m", "subeq.cli"] + argv,
                              cwd=tmp, env=env, capture_output=True)
        report = Path(tmp, "subeq-report.json")
        csvs = sorted(Path(tmp).glob("*.csv"))
        json_sha = _sha(report.read_bytes()) if report.exists() else "-"
        csv_sha = _sha(b"".join(p.read_bytes() for p in csvs)) if csvs else "-"
        fields = {}
        if argv[0] in SOLVES:
            fields = {p.name: np.loadtxt(p, delimiter=",", skiprows=1,
                                         ndmin=2)[:, -1] for p in csvs}
        rep = json.loads(report.read_text()) if report.exists() else None
    line = (f"exit={proc.returncode} json={json_sha} csv={csv_sha} "
            f"stdout={_sha(proc.stdout)} stderr={_sha(proc.stderr)}")
    return {"line": line, "exit": proc.returncode, "json": json_sha,
            "csv": csv_sha, "report": rep, "fields": fields}


def _solve_stats(rep) -> tuple:
    """(converged, sweeps, sweep_tol) of a solve-family report; bracket
    reports join their two solves."""
    if rep is None or "report" not in rep:
        return "-", "-", None
    reps = [rep["report"]] + ([rep["report_dual"]] if "report_dual" in rep
                              else [])
    conv = "+".join(str(r["converged"]).lower() for r in reps)
    sweeps = "+".join(str(r["sweeps"]) for r in reps)
    return conv, sweeps, reps[0]["sweep_tol"]


def _max_du(fa: dict, fb: dict) -> float:
    if fa.keys() != fb.keys() or not fa:
        return float("inf")
    worst = 0.0
    for key, a in fa.items():
        b = fb[key]
        if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
            return float("inf")
        ok = ~np.isnan(a)
        worst = max(worst, float(np.abs(a[ok] - b[ok]).max(initial=0.0)))
    return worst


def _diff_paths(a, b, path: str = "") -> list:
    """Dotted key paths at which two parsed reports differ; lists and
    scalars are compared whole."""
    if not (isinstance(a, dict) and isinstance(b, dict)):
        return [] if a == b else [path or "."]
    out = []
    for key in sorted(a.keys() | b.keys()):
        sub = f"{path}.{key}" if path else key
        out += ([sub] if key not in a or key not in b
                else _diff_paths(a[key], b[key], sub))
    return out


def compare_line(argv: list, a: dict, b: dict) -> str:
    same = "same" if a["line"] == b["line"] else "DIFFERS"
    if a["json"] != b["json"]:
        paths = _diff_paths(a["report"], b["report"])
        same = f"json-diff={','.join(paths) or '.'} {same}"
    if argv[0] not in SOLVES:
        return f"{a['line']} {same}"
    conv_a, sweeps_a, tol = _solve_stats(a["report"])
    conv_b, sweeps_b, _ = _solve_stats(b["report"])
    du = _max_du(a["fields"], b["fields"])
    q = f"{du / tol:.3g}" if tol else "-"
    csv = "same" if a["csv"] == b["csv"] else "DIFFERS"
    return (f"exit={a['exit']}/{b['exit']} converged={conv_a}/{conv_b} "
            f"sweeps={sweeps_a}/{sweeps_b} du/sweep_tol={q} csv={csv} {same}")


def _src(root) -> Path:
    src = Path(root).resolve() / "src"
    if not (src / "subeq").is_dir():
        raise SystemExit(f"no src/subeq under {root}")
    return src


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", nargs="?",
                    default=Path(__file__).resolve().parent.parent)
    ap.add_argument("--compare", metavar="OTHER", default=None,
                    help="second checkout: compare solves numerically")
    args = ap.parse_args()
    src = _src(args.checkout)
    other = _src(args.compare) if args.compare else None
    for name, argv in CONFIGS:
        a = run_config(src, argv)
        line = (a["line"] if other is None
                else compare_line(argv, a, run_config(other, argv)))
        print(f"{name} {line}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
