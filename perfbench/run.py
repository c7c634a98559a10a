"""Benchmark command: builds (see build.py), then runs one workload in a JVM.

    python3 perfbench/run.py --workload pmhl-ec --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

The last line of standard output is the result object; the line before it
is the run's host-noise record. A traced run writes its spans to
<build dir>/traces/<workload>-<seed>.jsonl. See README.md.
"""
import argparse
import json
import subprocess
import sys

sys.dont_write_bytecode = True
from build import BuildError, build, out_dir  # noqa: E402

# Fixed heap, two GC threads next to the one index worker thread.
JVM_OPTS = ["-Xms2g", "-Xmx2g", "-Xmn1200m", "-XX:+UseParallelGC", "-XX:ParallelGCThreads=2",
            "-XX:+AlwaysPreTouch", "-XX:+UseTransparentHugePages"]
JVM_TIMEOUT_S = 170


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    a = p.parse_args()
    if not a.self_check and not a.workload:
        p.error("--workload is required")
    try:
        cp = build()
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        return 2
    main_args = ["--self-check"] if a.self_check else [
        "--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
        "--trace", str(a.trace),
        "--trace-out", str(out_dir() / "traces" / f"{a.workload}-{a.seed}.jsonl")]
    cmd = ["java"] + JVM_OPTS + ["-cp", ":".join(cp), "repro.perfbench.Main"] + main_args
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=JVM_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"benchmark JVM exceeded {JVM_TIMEOUT_S} s", file=sys.stderr)
        return 3
    out = done.stdout.rstrip("\n")
    if done.returncode != 0:
        print(out, file=sys.stderr)
        return done.returncode
    if not a.self_check:
        json.loads(out.splitlines()[-1])  # the result must be the last line
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
