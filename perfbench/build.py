"""Build file of the benchmark.

Compiles the program's core packages (graph, core, partition, baseline,
throughput, util) together with the benchmark's own sources in
perfbench/src, using the Scala compiler jars shipped with the Spark
distribution (found through SPARK_HOME or spark-submit on PATH). Output goes
to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
repository root, and is reused while no source file changes.

Run it alone with `python3 perfbench/build.py`; run.py calls it first.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SCALA_VERSION = "2.13.17"
PROGRAM_PACKAGES = ["graph", "core", "partition", "baseline", "throughput", "util"]


class BuildError(Exception):
    pass


def jars_dir():
    candidates = []
    if os.environ.get("SPARK_HOME"):
        candidates.append(Path(os.environ["SPARK_HOME"]) / "jars")
    submit = shutil.which("spark-submit")
    if submit:
        candidates.append(Path(submit).resolve().parent.parent / "jars")
    for c in candidates:
        if (c / f"scala-compiler-{SCALA_VERSION}.jar").is_file():
            return c
    raise BuildError(f"no scala-compiler-{SCALA_VERSION}.jar found; set SPARK_HOME")


def sources():
    files = []
    for pkg in PROGRAM_PACKAGES:
        d = ROOT / "src" / "main" / "scala" / "repro" / pkg
        if not d.is_dir():
            raise BuildError(f"program sources missing: {d.relative_to(ROOT)}")
        files += sorted(d.rglob("*.scala"))
    files += sorted((BENCH_DIR / "src").rglob("*.scala"))
    return files


def out_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build():
    """Compiles if needed; returns the runtime classpath entries."""
    jars = jars_dir()
    srcs = sources()
    digest = hashlib.sha256(SCALA_VERSION.encode())
    for f in srcs:
        digest.update(str(f.relative_to(ROOT)).encode())
        digest.update(f.read_bytes())
    out = out_dir()
    classes, stamp = out / "classes", out / "stamp"
    runtime = [str(classes), str(jars / f"scala-library-{SCALA_VERSION}.jar")]
    if classes.is_dir() and stamp.is_file() and stamp.read_text() == digest.hexdigest():
        return runtime
    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    compiler = os.pathsep.join(
        str(jars / f"scala-{part}-{SCALA_VERSION}.jar") for part in ("compiler", "library", "reflect"))
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", compiler, "scala.tools.nsc.Main",
           "-usejavacp", "-deprecation", "-d", str(tmp)] + [str(f) for f in srcs]
    print(f"compiling {len(srcs)} sources into {classes}", file=sys.stderr)
    try:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=800)
    except subprocess.TimeoutExpired:
        raise BuildError("compilation timed out")
    if done.returncode != 0:
        raise BuildError(f"compilation failed ({done.returncode})")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(digest.hexdigest())
    return runtime


if __name__ == "__main__":
    try:
        build()
    except BuildError as e:
        print(f"build: {e}", file=sys.stderr)
        sys.exit(2)
