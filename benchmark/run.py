#!/usr/bin/env python3
"""Build the phishsim benchmark and run one workload.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is a Cargo package of its
own (benchmark/Cargo.toml) over the repository's crates; it is built in
release mode into $CARGO_TARGET_DIR (default .bench_build) and then run
with the same arguments. Its last line of output is the result object.
Exits non-zero without a result when the build or the run fails.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join("benchmark", "Cargo.toml")


def main() -> int:
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("benchmark build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "phishbench")
    return subprocess.run([binary, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
