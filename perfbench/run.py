#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from anywhere inside a checkout; every file it builds or writes stays
under the checkout's .bench_build directory.

One run (the last stdout line is the result JSON; the exit code is non-zero
when a check failed or the build did not succeed):

    python3 perfbench/run.py --workload write-skew --seed 1 --seconds 50 --trace 0

Steadiness report: run one workload N times with seeds seed..seed+N-1 and
print, per metric, the median and the interquartile range over the median,
next to the bound BENCHMARK.json gives it:

    python3 perfbench/run.py --steady 10 --workload read-large --seconds 50
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    binary = os.path.join(BUILD, "perfbench")
    res = subprocess.run(["go", "build", "-o", binary, "."], cwd=SRC, env=go_env(),
                         stdout=sys.stderr)
    if res.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        sys.exit(res.returncode or 1)
    return binary


def run(binary, args):
    """Runs the benchmark binary once; returns (exit code, stdout)."""
    cmd = [binary, "--workdir", os.path.join(BUILD, "run")] + args
    try:
        res = subprocess.run(cmd, cwd=ROOT, env=go_env(), stdout=subprocess.PIPE,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %ds" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    return res.returncode, res.stdout


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except OSError:
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(binary, opts, rest):
    values = {}
    units = {}
    for i in range(opts.steady):
        seed = opts.seed + i
        code, out = run(binary, rest + ["--workload", opts.workload, "--seed", str(seed)])
        if code != 0:
            print("run.py: seed %d failed with exit code %d" % (seed, code), file=sys.stderr)
            return code
        result = json.loads(out.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("seed %d: %s" % (seed, json.dumps({k: v["value"] for k, v in result["metrics"].items()})),
              flush=True)
    limit = bounds()
    print("%-22s %14s %10s %8s  %s" % ("metric", "median", "iqr/med", "bound", "unit"))
    for name in sorted(values):
        xs = values[name]
        med = statistics.median(xs)
        q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("inf")
        b = limit.get(name)
        print("%-22s %14.6g %10.4f %8s  %s" % (name, med, spread, "-" if b is None else b, units[name]))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--steady", type=int, default=0, help="run the workload this many times and report spreads")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    opts, rest = p.parse_known_args()
    binary = build()
    if opts.steady > 0:
        sys.exit(steady(binary, opts, rest))
    code, out = run(binary, rest + ["--workload", opts.workload or "", "--seed", str(opts.seed)])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
