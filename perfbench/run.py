#!/usr/bin/env python3
"""Build and run the repository benchmark.

One workload per run:

    python3 perfbench/run.py --workload long-run --seed 7 --seconds 25 --trace 0

Run from the root of the repository. The first run builds the benchmark
(`perfbench/`, its own Cargo package) and the `bitline-serve` daemon into
`$CARGO_TARGET_DIR` (default `.bench_build`). The last line of stdout is
the result object; see perfbench/README.md for the metrics.

Steadiness report: repeat a workload over consecutive seeds and print each
end-to-end metric's median, quartiles and spread, (q3 - q1) / median. A
spread must be within the metric's bound in BENCHMARK.json (setup_s is
judged on its median only); below a third of the bound is the target and
is shown too. Then make two traced runs of the first seed and check the
exact per-layer counts repeat:

    python3 perfbench/run.py --workload long-run --seed 100 --seconds 25 --steadiness 10
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("suite-sweep", "long-run", "serve-mixed", "armed-stack")

# Workloads that simulate on one thread. They run pinned to one core, so
# that the benchmark's host-speed sampler shares that core with them (see
# perfbench/src/host.rs).
ONE_CORE = ("long-run", "armed-stack")

# Per-layer metrics that are counts of simulated work: they must repeat
# bit for bit between runs of one seed.
EXACT = (
    "cpu.cycles",
    "cpu.replays",
    "cache.l1d_miss_ratio",
    "cache.l1i_miss_ratio",
    "core.precharged_share.d",
    "faults.upsets",
    "ecc.corrected",
    "vdd.replays",
    "sim.checkpoint.bytes",
    "trace.bytes_per_instr",
    "failed_share",
)

RUN_TIMEOUT_S = 900


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(target):
    """Builds the benchmark and the daemon; returns their paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        fail("run from the repository root: Cargo.toml and crates/ are missing")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "bitline-serve"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=RUN_TIMEOUT_S)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "perfbench"), os.path.join(release, "bitline-serve")


def run_once(bench, serve, workload, seed, seconds, trace, quiet=False):
    """Runs one workload; returns (exit code, result dict or None, raw line)."""
    cmd = [bench, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--serve-bin", serve]
    cores = os.sched_getaffinity(0)
    pin = (lambda: os.sched_setaffinity(0, {min(cores)})) if workload in ONE_CORE else None
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL if quiet else None,
                       text=True, timeout=RUN_TIMEOUT_S, preexec_fn=pin)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return r.returncode or 1, None, None
    return 0, json.loads(lines[-1]), lines[-1]


def steadiness(bench, serve, args):
    with open("BENCHMARK.json") as f:
        bounds = {m["name"]: m["bound"] for m in json.load(f)["end_to_end"]}
    values = {}
    failed = 0
    seeds = range(args.seed, args.seed + args.steadiness)
    for seed in seeds:
        code, res, _ = run_once(bench, serve, args.workload, seed, args.seconds, 0, quiet=True)
        if res is None:
            fail(f"seed {seed}: exit {code}, no result")
        failed += res["failed"]
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())),
              file=sys.stderr)
    print(f"{args.workload}: {len(seeds)} runs, seeds {args.seed}..{args.seed + len(seeds) - 1}, "
          f"failed operations {failed}")
    print(f"{'metric':18s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}  "
          "within bound  below bound/3")
    steady = True
    for name in sorted(values):
        v = values[name]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        if name == "setup_s":
            # setup_s is judged on its median between sets of runs, not on
            # its spread; the spread is shown for reference.
            within, target = "median only", "-"
        else:
            ok = bound is not None and spread <= bound
            steady &= ok
            within = "yes" if ok else "NO"
            target = "yes" if bound is not None and spread < bound / 3 else "no"
        print(f"{name:18s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} {bound!s:>6s}  "
              f"{within:12s}  {target}")
    runs = [run_once(bench, serve, args.workload, args.seed, args.seconds, 1, quiet=True)[1] for _ in range(2)]
    if None in runs:
        fail("traced run failed")
    a, b = (r["metrics"] for r in runs)
    diff = [k for k in EXACT if a[k]["value"] != b[k]["value"]]
    print("exact counts repeat bit for bit: " + ("yes" if not diff else "NO: " + ", ".join(diff)))
    return steady and not diff and failed == 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", type=int, default=0, metavar="N",
                   help="repeat over N seeds and report medians and quartiles")
    args = p.parse_args()
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bench, serve = build(target)
    if args.steadiness:
        sys.exit(0 if steadiness(bench, serve, args) else 1)
    code, res, line = run_once(bench, serve, args.workload, args.seed, args.seconds, args.trace)
    try:
        os.rmdir(".perfbench_tmp")
    except OSError:
        pass
    if res is None:
        sys.exit(code)
    print(line)


if __name__ == "__main__":
    main()
