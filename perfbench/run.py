#!/usr/bin/env python3
"""Benchmark entry point: builds the program from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload layph-sssp-web --seed 1 --seconds 10 --trace 0

The first run in a checkout compiles the repository's main sources together
with perfbench/src through the sbt build in perfbench/ (output in
$CARGO_TARGET_DIR, default .bench_build/). Later runs reuse that build while
the sources are unchanged and start the JVM directly. The last line of
standard output is the result as one JSON object; see perfbench/README.md.
"""

import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM_SOURCES = ROOT / "src" / "main" / "scala"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

JVM_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def out_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def source_hash():
    """Hash of every file the build reads from this checkout."""
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for base in (PROGRAM_SOURCES, HERE / "src" / "main"):
        files += sorted(p for p in base.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_bounded(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"timed out after {timeout} s: {cmd[0]}", 3)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    return proc.returncode, out


def build(out, stamp):
    """Compiles with sbt unless a build of the same sources exists; returns the classpath."""
    cp_file, stamp_file = out / "classpath.txt", out / "source-hash.txt"
    if cp_file.is_file() and stamp_file.is_file() and stamp_file.read_text() == stamp:
        return cp_file.read_text().strip()
    out.mkdir(parents=True, exist_ok=True)
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dperfbench.out={out}", "compile", "export Runtime/fullClasspath"]
    code, text = run_bounded(cmd, BUILD_TIMEOUT_S, cwd=HERE, stdout=subprocess.PIPE,
                             stderr=subprocess.STDOUT, text=True)
    sys.stderr.write(text)
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    if code != 0 or not lines or lines[-1].startswith("["):
        fail(f"sbt build failed (exit {code})", 4)
    cp_file.write_text(lines[-1])
    stamp_file.write_text(stamp)
    return lines[-1]


def git_sha():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main(argv):
    if not PROGRAM_SOURCES.is_dir():
        fail(f"program sources not found at {PROGRAM_SOURCES.relative_to(ROOT)}; "
             "run from a full checkout of the repository")
    out = out_dir()
    stamp = source_hash()
    classpath = build(out, stamp)
    for sub in ("tmp", "spark-local", "warehouse"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    cmd = ["java", *(f"--add-opens={p}=ALL-UNNAMED" for p in JVM_OPENS),
           "-Djdk.reflect.useDirectMethodHandle=false", "-Xmx3g",
           f"-Djava.io.tmpdir={out / 'tmp'}",
           f"-Dspark.local.dir={out / 'spark-local'}",
           f"-Dspark.sql.warehouse.dir={out / 'warehouse'}",
           "-Dspark.driver.host=127.0.0.1",
           f"-Dperfbench.gitsha={git_sha()}", f"-Dperfbench.srchash={stamp}",
           "-cp", classpath, "perfbench.Main", *argv]
    code, _ = run_bounded(cmd, RUN_TIMEOUT_S, cwd=ROOT)
    sys.exit(code)


if __name__ == "__main__":
    main(sys.argv[1:])
