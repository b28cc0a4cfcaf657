#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload table2|sweep|diagnose \
        --seed N --seconds S --trace 0|1

It builds the `perfbench` package in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it. Build output
goes to standard error; the last line of standard output is the JSON
result. Exports and span files go under `<target>/perfbench`.
"""

import argparse
import os
import signal
import subprocess
import sys

WORKLOADS = ("table2", "sweep", "diagnose")
# A run measures for at most 60 s plus set-up; anything longer is a hang.
RUN_TIMEOUT_S = 170


def parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        p.error("--seed must be in 0..2^64")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in 1..60")
    return args


def main(argv):
    args = parse(argv)
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not os.path.isfile(manifest):
        print(f"perfbench: no {manifest}; run from the checkout root", file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    # A fixed mmap threshold makes glibc return every large buffer (the
    # packed traces) to the system when it is freed, so the peak
    # resident set follows live data instead of heap fragmentation,
    # which otherwise moves it by up to 40% between identical runs.
    run_env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--out", os.path.join(target, "perfbench"),
    ]
    # On SIGTERM, unwind through `finally` so the benchmark is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(cmd, env=run_env)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
