#!/usr/bin/env python3
"""SHA-256 digests of the CLI's artefacts for a fixed list of configs.

Each config runs as ``python -m subeq.cli`` in its own temporary directory,
with ``src/`` of the given checkout on ``PYTHONPATH``.  One line per config:

    <name> exit=<code> json=<sha> csv=<sha> stdout=<sha> stderr=<sha>

``csv`` digests the CSV files the command wrote (field dumps or the
convexity table), concatenated in sorted file-name order; ``-`` when the
command writes none.  Reports are byte-stable for a fixed config, so two
checkouts that should behave alike can be compared with ``diff``:

    python3 scripts/cli_digests.py > change.txt
    python3 scripts/cli_digests.py /path/to/other/checkout > other.txt
    diff other.txt change.txt

Usage:  python3 scripts/cli_digests.py [checkout]   (default: this one)
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CONFIGS = [
    ("check-branch", ["check", "--subeq", "branch:real:k=1:n=3"]),
    ("check-pucci", ["check", "--subeq", "pucci:lam=1:Lam=2:n=3"]),
    ("check-appb4", ["check", "--subeq", "appb:case=4:n=2:gamma=1"]),
    ("check-sigma", ["check", "--subeq", "sigma:k=2:n=3"]),
    ("check-appb3", ["check", "--subeq", "appb:case=3:n=3:angle=30"]),
    ("dual-branch", ["dual-test", "--subeq", "branch:real:k=1:n=3"]),
    ("dual-slag", ["dual-test", "--subeq", "slag:c=0.5:n=2"]),
    ("mono-branch", ["mono-test", "--subeq", "branch:real:k=2:n=3",
                     "--cone", "branch:real:k=1:n=3"]),
    ("mono-appb5", ["mono-test", "--subeq", "laplace:n=2",
                    "--cone", "appb:case=5:n=2:lam=1"]),
    ("mono-appb6", ["mono-test", "--subeq", "laplace:n=2",
                    "--cone", "appb:case=6:n=2:R=1"]),
    ("riesz-pucci", ["riesz", "--cone", "pucci:lam=1:Lam=2:n=3"]),
    ("riesz-pcone", ["riesz", "--cone", "pcone:p=2.5:n=4", "--tol", "1e-8"]),
    ("riesz-geom", ["riesz", "--cone", "geom:p=1:n=3:frames=64",
                    "--tol", "1e-8"]),
    ("riesz-sigma", ["riesz", "--cone", "sigma:k=2:n=3"]),
    ("garding-sigma", ["garding", "--poly", "sigma:2", "--n", "3",
                       "--matrix", "2,0.5,0;0.5,1,0.25;0,0.25,-0.5",
                       "--check-trials", "50"]),
    ("garding-det", ["garding", "--poly", "det", "--n", "2",
                     "--matrix", "1,0.5;0.5,-2"]),
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
    ("solve-laplace-lex", ["solve", "--subeq", "laplace:n=2",
                           "--bc", "x^2-y^2", "--order", "lex", "--m", "9"]),
    ("solve-klapinf-ball", ["solve", "--subeq", "klap:k=inf:n=2",
                            "--bc", "x", "--domain", "ball:n=2", "--m", "17"]),
    ("solve-lambda1-tol", ["solve", "--subeq", "branch:real:k=1:n=2",
                           "--bc", "x^2", "--box=-1,1", "--m", "17",
                           "--sweep-tol", "1e-8"]),
    ("obstacle-laplace", ["obstacle", "--subeq", "laplace:n=2", "--bc", "0",
                          "--obstacle", "(x-0.5)^2+(y-0.5)^2-0.05",
                          "--m", "17"]),
    ("bracket-laplace", ["bracket", "--subeq", "laplace:n=2",
                         "--bc", "x^2-y^2", "--m", "17"]),
]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_config(src: Path, argv: list) -> str:
    # one BLAS thread on both sides, so the thread count cannot move bits
    env = dict(os.environ, PYTHONPATH=str(src), SUBEQ_THREADS="1")
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run([sys.executable, "-m", "subeq.cli"] + argv,
                              cwd=tmp, env=env, capture_output=True)
        report = Path(tmp, "subeq-report.json")
        csvs = sorted(Path(tmp).glob("*.csv"))
        json_sha = _sha(report.read_bytes()) if report.exists() else "-"
        csv_sha = _sha(b"".join(p.read_bytes() for p in csvs)) if csvs else "-"
    return (f"exit={proc.returncode} json={json_sha} csv={csv_sha} "
            f"stdout={_sha(proc.stdout)} stderr={_sha(proc.stderr)}")


def main() -> int:
    root = Path(sys.argv[1] if len(sys.argv) > 1
                else Path(__file__).resolve().parent.parent)
    src = root.resolve() / "src"
    if not (src / "subeq").is_dir():
        print(f"no src/subeq under {root}", file=sys.stderr)
        return 2
    for name, argv in CONFIGS:
        print(f"{name} {run_config(src, argv)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
