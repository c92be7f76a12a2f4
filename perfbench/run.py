#!/usr/bin/env python3
"""Build the perfbench benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

The arguments pass through to the perfbench binary (see perfbench/main.go
and perfbench/WORKLOADS.md). The binary, the Go build cache and every
scratch file stay under .bench_build/ in the checkout. A failed build
exits non-zero without printing a result line.
"""
import os
import subprocess
import sys


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOTMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "-buildvcs=false",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr, stderr=sys.stderr)
    if built.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        sys.exit(built.returncode or 1)
    sys.stdout.flush()
    os.execve(binary, [binary] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
