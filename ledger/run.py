#!/usr/bin/env python3
"""Build the performance ledger from source, then run it.

Run from the repository root:

    python3 ledger/run.py --workload aba-b64 --seed 1 --seconds 10 --trace 0

The arguments are passed to `main.exe run` unchanged (see README.md).  The
build goes to $CARGO_TARGET_DIR when it is set, `_build` otherwise, with the
dune cache off so that nothing is written outside the working directory.
Build output goes to stderr; stdout carries only the benchmark's report,
whose last line is the JSON result.
"""

import os
import subprocess
import sys


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or "_build")
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", build_dir,
           "--display", "quiet", "./ledger/main.exe"]
    try:
        # a first build compiles the whole library stack; later ones are
        # no-ops, so the cap only matters if dune itself hangs
        built = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"ledger: build did not complete: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("ledger: build failed", file=sys.stderr)
        return built.returncode
    exe = os.path.join(build_dir, "default", "ledger", "main.exe")
    sys.stderr.flush()
    os.execv(exe, [exe, "run"] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
