#!/usr/bin/env python3
"""Record and compare BENCH_<n>.json files: the benchmark's end-to-end
results for every workload and seed, with their environment lines.

    python3 scripts/bench_trajectory.py run --out BENCH_2.json \\
        [--checkout DIR] [--against OTHER --against-out BENCH_1.json] \\
        [--seeds 0,1,2,3] [--seconds 35]
    python3 scripts/bench_trajectory.py diff BENCH_1.json BENCH_2.json

``run`` calls ``python3 bench/run.py --workload W --seed S --trace 0`` in
the checkout (default: this one) for each workload and seed, and stores the
``#`` lines and the result line of each call, and beside them the call's
``PYTHONDONTWRITEBYTECODE`` (null when unset): without a bytecode cache
every fresh interpreter compiles the package again, which doubles
``setup_s``.  Each call is followed by one ``--trace 1 --seconds 2`` call,
whose work counts are stored under ``counts``: the per-layer metrics of
unit ``count`` and the count fields of its ``# op`` lines (``sweeps=``,
``rho_calls=``, ...).  They come from the first traced pass of each
operation, so the length of the call does not move them.  With
``--against`` it runs the same calls in a second checkout too, alternating
which checkout goes first from one call to the next, so that both files
see the same machine state.  Each checkout runs its own ``bench/``.

``diff`` prints, per workload and end-to-end metric, the median over seeds
of each file, their ratio, and in how many seeds the second file is lower;
then the same for each operation's median time, from the ``# op NAME: ...
median_s=...`` lines; then every work count of each workload and seed,
old -> new, with ``CHANGED`` on those that differ (files written before
the counts were recorded have none); then the failed operations of each
file, and the ``PYTHONDONTWRITEBYTECODE`` values of each file's runs when
the two files differ in them (``unset``, or ``not recorded`` for files
written before the field).
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

WORKLOADS = ("box-cascade", "masked-fallback", "calculus")
BYTECODE = "PYTHONDONTWRITEBYTECODE"
HERE = os.path.dirname(os.path.abspath(__file__))


def _bench(checkout: str, workload: str, seed: int, seconds: float,
           trace: int) -> list:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          check=True)
    return proc.stdout.strip().splitlines()


OP_FIELDS = re.compile(r"# op (.+?): (.*)")
COUNT_FIELD = re.compile(r"(\w+)=(\d+)(?=\s|$)")


def counts_once(checkout: str, workload: str, seed: int) -> dict:
    """The work counts of one traced call: {"metrics": {name: count},
    "ops": {op: {field: count}}}.  An op line's ``runs=`` counts
    repetitions, not work, and is left out."""
    lines = _bench(checkout, workload, seed, 2, 1)
    metrics = {name: v["value"] for name, v
               in json.loads(lines[-1])["metrics"].items()
               if v["unit"] == "count"}
    ops = {}
    for line in lines:
        m = OP_FIELDS.match(line)
        if m:
            ops[m[1]] = {k: int(v) for k, v in COUNT_FIELD.findall(m[2])
                         if k != "runs"}
    return {"metrics": metrics, "ops": ops}


def bench_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    lines = _bench(checkout, workload, seed, seconds, 0)
    return {"workload": workload, "seed": seed,
            "env": [ln for ln in lines if ln.startswith("#")],
            "PYTHONDONTWRITEBYTECODE": os.environ.get(BYTECODE),
            "result": json.loads(lines[-1]),
            "counts": counts_once(checkout, workload, seed)}


def run(args) -> None:
    sides = [(os.path.abspath(args.checkout), args.out)]
    if args.against:
        sides.append((os.path.abspath(args.against), args.against_out))
    runs = {out: [] for _, out in sides}
    k = 0
    for workload in WORKLOADS:
        for seed in args.seeds:
            order = sides if k % 2 == 0 else sides[::-1]
            k += 1
            for checkout, out in order:
                rec = bench_once(checkout, workload, seed, args.seconds)
                runs[out].append(rec)
                m = rec["result"]["metrics"]
                print(f"{os.path.basename(out)} {workload} seed {seed}: "
                      + ", ".join(f"{n} {v['value']:.4g}" for n, v in m.items()),
                      flush=True)
    for checkout, out in sides:
        doc = {"command": "python3 bench/run.py --workload W --seed S "
                          f"--seconds {args.seconds:g} --trace 0",
               "seeds": args.seeds, "runs": runs[out]}
        with open(out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


OP_LINE = re.compile(r"# op (.+?): .*\bmedian_s=(\S+)")


def _by_seed(doc) -> tuple:
    """{(workload, name): {seed: value}} for the end-to-end metrics and for
    the per-operation medians of the ``# op`` lines."""
    metrics, ops = {}, {}
    for rec in doc["runs"]:
        w, seed = rec["workload"], rec["seed"]
        for name, v in rec["result"]["metrics"].items():
            metrics.setdefault((w, name), {})[seed] = v["value"]
        for line in rec["env"]:
            m = OP_LINE.match(line)
            if m:
                ops.setdefault((w, m[1]), {})[seed] = float(m[2])
    return metrics, ops


def _print_table(column: str, width: int, old: dict, new: dict) -> None:
    print(f"{'workload':16s} {column:{width}s} {'old':>10s} {'new':>10s} "
          f"{'new/old':>8s}  lower in new")
    for key in sorted(set(old) & set(new)):
        seeds = sorted(set(old[key]) & set(new[key]))
        a = statistics.median(old[key][s] for s in seeds)
        b = statistics.median(new[key][s] for s in seeds)
        wins = sum(new[key][s] < old[key][s] for s in seeds)
        print(f"{key[0]:16s} {key[1]:{width}s} {a:10.4g} {b:10.4g} "
              f"{b / a:8.3f}  {wins}/{len(seeds)}")


def _bytecode_flag(rec: dict) -> str:
    if BYTECODE not in rec:
        return "not recorded"
    return "unset" if rec[BYTECODE] is None else repr(rec[BYTECODE])


def _print_counts(old_doc: dict, new_doc: dict) -> None:
    """Every work count of the runs both files hold, old -> new."""
    old = {(r["workload"], r["seed"]): r.get("counts")
           for r in old_doc["runs"]}
    changed = compared = 0
    for rec in new_doc["runs"]:
        key = (rec["workload"], rec["seed"])
        a, b = old.get(key), rec.get("counts")
        if a is None or b is None:
            continue
        compared += 1
        rows = [(name, a["metrics"].get(name), v)
                for name, v in b["metrics"].items()]
        rows += [(f"{op} {k}", a["ops"].get(op, {}).get(k), v)
                 for op, fields in b["ops"].items() for k, v in fields.items()]
        for name, x, y in rows:
            changed += x != y
            print(f"{key[0]:16s} {key[1]:4d} {name:40s} {x} -> {y}"
                  + ("" if x == y else "  CHANGED"))
    print(f"work counts: {changed} changed over {compared} runs"
          if compared else "work counts: not recorded in both files")


def diff(args) -> None:
    docs = []
    for path in (args.old, args.new):
        with open(path) as fh:
            docs.append(json.load(fh))
    (old, old_ops), (new, new_ops) = (_by_seed(doc) for doc in docs)
    _print_table("metric", 12, old, new)
    print()
    _print_table("op median_s", 24, old_ops, new_ops)
    print()
    _print_counts(*docs)
    for path, doc in zip((args.old, args.new), docs):
        failed = sum(r["result"]["failed"] for r in doc["runs"])
        attempted = sum(r["result"]["attempted"] for r in doc["runs"])
        print(f"{path}: {failed} of {attempted} operations failed")
    flags = [sorted({_bytecode_flag(r) for r in doc["runs"]}) for doc in docs]
    if flags[0] != flags[1]:
        for path, vals in zip((args.old, args.new), flags):
            print(f"{path}: {BYTECODE} {', '.join(vals)}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--out", required=True)
    r.add_argument("--checkout", default=os.path.dirname(HERE))
    r.add_argument("--against")
    r.add_argument("--against-out")
    r.add_argument("--seeds", default="0,1,2,3",
                   type=lambda s: [int(x) for x in s.split(",")])
    r.add_argument("--seconds", type=float, default=35.0)
    d = sub.add_parser("diff")
    d.add_argument("old")
    d.add_argument("new")
    args = ap.parse_args(argv)
    if args.cmd == "run":
        if bool(args.against) != bool(args.against_out):
            ap.error("--against and --against-out go together")
        run(args)
    else:
        diff(args)


if __name__ == "__main__":
    main()
