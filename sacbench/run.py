#!/usr/bin/env python3
"""Builds and runs the paper-scale SAC serving benchmark.

One run (from the root of a checkout):

    python3 sacbench/run.py --workload query_mix --seed 1 --seconds 30 --trace 0

builds the benchmark package and the `sac-http` server from source (into
$CARGO_TARGET_DIR, default `.bench_build`), runs one workload and passes the
result through: notes prefixed with `#`, then one JSON line.

Steadiness mode runs one workload several times, one seed each, and prints
the median, quartiles and extremes of every metric against its bound in
BENCHMARK.json:

    python3 sacbench/run.py --steady 10 --workload query_mix --seconds 30

See sacbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Builds the benchmark and the server; returns the two binaries."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    manifest = os.path.join(HERE, "Cargo.toml")
    for package, binary in (("sacbench", "sacbench"), ("sac-live", "sac-http")):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, "-p", package, "--bin", binary]
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"run.py: building {binary} failed")
    release = os.path.join(target_dir(), "release")
    return os.path.join(release, "sacbench"), os.path.join(release, "sac-http")


def run_once(bench, server, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns (exit code, result object or None)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--server-bin", server, "--out", os.path.join(ROOT, ".bench_out")]
    # Its own process group, so a timeout also stops the server it started.
    child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        print(f"run.py: {workload} seed {seed} timed out", file=sys.stderr)
        return 1, None
    lines = stdout.splitlines()
    if echo:
        sys.stdout.write(stdout)
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return child.returncode, result


def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def bounds():
    spec = manifest()
    return {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}


def missing_or_extra(result, trace):
    """Names the metrics by which a result differs from BENCHMARK.json."""
    spec = manifest()["per_layer" if trace else "end_to_end"]
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m.get("unit") for name, m in result.get("metrics", {}).items()}
    wrong = [f"missing {n}" for n in expected if n not in got]
    wrong += [f"unexpected {n}" for n in got if n not in expected]
    wrong += [f"{n} in {got[n]}, not {u}" for n, u in expected.items()
              if n in got and got[n] != u]
    return wrong


def steady(bench, server, args):
    known = bounds()
    values = {}
    for i in range(args.steady):
        seed = args.seed + i
        code, result = run_once(bench, server, args.workload, seed, args.seconds,
                                args.trace, echo=False)
        if code != 0 or result is None or not result.get("correct"):
            print(f"seed {seed}: run failed (exit {code}): {result}")
            return 1
        wrong = missing_or_extra(result, args.trace)
        if wrong:
            print(f"seed {seed}: result differs from BENCHMARK.json: {', '.join(wrong)}")
            return 1
        summary = []
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            summary.append(f"{name}={m['value']:.4g}")
        print(f"seed {seed}: " + " ".join(summary), flush=True)
    print(f"\n{args.workload}: {args.steady} runs, seeds {args.seed}..{args.seed + args.steady - 1}")
    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12}"
          f" {'spread':>8} {'bound':>6}  verdict")
    worst = 0
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = known.get(name)
        verdict = ""
        if name == "setup_s":
            verdict = "(spread not gated; its median drift is)"
        elif bound is not None:
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO NOISY")
            if spread > bound:
                worst = 1
        print(f"{name:40} {med:12.5g} {q1:12.5g} {q3:12.5g} {min(vals):12.5g}"
              f" {max(vals):12.5g} {spread:8.4f} {bound if bound is not None else '-':>6}  {verdict}")
    return worst


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="N",
                   help="run N seeds (from --seed) and report each metric's spread")
    args = p.parse_args()
    bench, server = build()
    if args.steady:
        return steady(bench, server, args)
    code, result = run_once(bench, server, args.workload, args.seed, args.seconds, args.trace)
    if code == 0 and result is not None:
        wrong = missing_or_extra(result, args.trace)
        if wrong:
            print(f"run.py: result differs from BENCHMARK.json: {', '.join(wrong)}",
                  file=sys.stderr)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
