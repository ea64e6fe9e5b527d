#!/usr/bin/env python3
"""Pipeline ledger: build the benchmark binary and run one workload.

    python3 ledger/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 ledger/run.py --selftest

Run it from the root of an rdfviews checkout.  The binary is built from
source with dune, its shared cache off so nothing is written outside
the checkout.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  --selftest runs every
workload of BENCHMARK.json at a tiny scale, untraced and traced, and
checks that the printed metric names and units match the file.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "ledger", "ledger.exe")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "dune-project"))
            and os.path.isdir(os.path.join(ROOT, "lib"))):
        sys.exit("ledger: no rdfviews sources next to the benchmark")
    env = dict(os.environ, DUNE_CACHE="disabled")
    built = subprocess.run(
        ["dune", "build", "--root", ROOT, "./ledger/ledger.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("ledger: build failed")


def selftest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ok = True
    for workload in spec["workloads"]:
        for trace in (0, 1):
            out = subprocess.run(
                [EXE, "--workload", workload["name"], "--seed", "1",
                 "--seconds", "1", "--trace", str(trace), "--tiny"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
            result = json.loads(out.strip().splitlines()[-1])
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            want = expected[trace]
            problems = []
            if got != want:
                problems.append(
                    "missing %s, unexpected %s, wrong units %s" % (
                        sorted(set(want) - set(got)),
                        sorted(set(got) - set(want)),
                        sorted(n for n in got if n in want and got[n] != want[n])))
            if not result["correct"] or result["failed"]:
                problems.append("%d of %d operations failed"
                                % (result["failed"], result["attempted"]))
            print("selftest %s --trace %d: %s"
                  % (workload["name"], trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    build()
    if args.selftest:
        return selftest()
    return subprocess.run(
        [EXE, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
