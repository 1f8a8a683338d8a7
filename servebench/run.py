#!/usr/bin/env python3
"""Build the daemon and the benchmark client from source, then run one
benchmark run.

Run from the root of a checkout:

    python3 servebench/run.py --workload single-frozen --seed 1 --seconds 10 --trace 0

Builds `repro` (the daemon) and `servebench` (the client) in release mode
into $CARGO_TARGET_DIR (default `.bench_build`), then runs the client with
the given arguments. Build output goes to stderr; the client's last stdout
line is the JSON result. Exits with the first non-zero build or run status.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    root = Path.cwd()
    here = Path(__file__).resolve().parent
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    builds = [
        cargo + ["--manifest-path", str(root / "Cargo.toml"), "-p", "pathfinder-suite", "--bin", "repro"],
        cargo + ["--manifest-path", str(here / "Cargo.toml")],
    ]
    for cmd in builds:
        status = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr).returncode
        if status != 0:
            print(f"servebench: build failed ({status}): {' '.join(cmd)}", file=sys.stderr)
            return status
    client = target / "release" / "servebench"
    daemon = target / "release" / "repro"
    return subprocess.run([str(client), "--daemon", str(daemon), *sys.argv[1:]], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
