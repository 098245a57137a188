#!/usr/bin/env python3
"""Build the perfbench program from this checkout and run one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The Go build cache, temporary files and the binary stay under .bench_build/
in the checkout. The program's standard output is passed through; its last
line is the JSON result. When the program cannot be built, this exits with a
non-zero code without printing a result.
"""
import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 175


def find_go():
    """The go command: on PATH, under GOROOT, or where the official
    distribution installs it."""
    candidates = [shutil.which("go")]
    if os.environ.get("GOROOT"):
        candidates.append(os.path.join(os.environ["GOROOT"], "bin", "go"))
    candidates.append("/usr/local/go/bin/go")
    for c in candidates:
        if c and os.access(c, os.X_OK):
            return c
    return "go"


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "mod"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench")
    b = subprocess.run([find_go(), "build", "-o", binary, "."], cwd=here, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        sys.stderr.write("perfbench: build failed:\n" + b.stdout)
        return 1
    try:
        r = subprocess.run([binary] + sys.argv[1:], cwd=root, env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
