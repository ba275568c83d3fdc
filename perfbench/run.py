#!/usr/bin/env python3
"""Build and run perfbench from the root of a repository checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the perfbench package in release mode, offline, into
$CARGO_TARGET_DIR (default .bench_build), then runs it with the given
arguments. Build output goes to stderr; the last line of stdout is the
benchmark's JSON result. The exit code is the build's on failure, else the
benchmark's.
"""

import os
import subprocess
import sys

# The benchmark builds the repository's crates from source, with the
# offline stand-ins that .cargo/config.toml patches in.
REQUIRED = [
    "perfbench/Cargo.toml",
    "crates/dcache/Cargo.toml",
    "crates/netrpc/Cargo.toml",
    ".cargo/config.toml",
]


def main() -> int:
    missing = [p for p in REQUIRED if not os.path.isfile(p)]
    if missing:
        print(
            "perfbench: run from the root of a repository checkout; missing "
            + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "perfbench/Cargo.toml",
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
