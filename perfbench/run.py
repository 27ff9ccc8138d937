#!/usr/bin/env python3
"""Build tmx and its benchmark from source, then run one workload.

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

Run from the root of a tmx checkout.  The arguments go to the benchmark
binary (perfbench/main.ml documents them); the last line of stdout is the
JSON result.  Exit status: the benchmark's own (0 correct, 1 wrong answer
or failed operation, 2 bad usage), or 3 when the sources are missing or do
not build.
"""

import hashlib
import os
import subprocess
import sys

SOURCES = ("dune-project", "lib", "perfbench")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(3)


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(".git"):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True)
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    h = hashlib.md5()
    for top in SOURCES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs
            if not d.startswith(os.path.join("perfbench", "out")))
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()


def main():
    for p in SOURCES:
        if not os.path.exists(p):
            fail(f"{p} not found: run from the root of a tmx checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        fail("build failed")
    args = ["_build/default/perfbench/main.exe", "run", *sys.argv[1:],
            "--commit", commit_id()]
    sys.stdout.flush()
    os.execv(args[0], args)


if __name__ == "__main__":
    main()
