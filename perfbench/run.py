#!/usr/bin/env python3
"""Builds the benchmark and the daemon from source, then runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record-reference

Build outputs go to $CARGO_TARGET_DIR (default: .bench_build in the
checkout). Build messages go to standard error; the benchmark's result is
the last line of standard output.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
# What the program under test is built from: hashed into the result stamp.
SOURCE_GLOBS = ["Cargo.toml", "Cargo.lock", "crates/**/*.rs", "crates/**/Cargo.toml"]


def source_digest():
    h = hashlib.sha256()
    files = sorted({p for g in SOURCE_GLOBS for p in ROOT.glob(g) if p.is_file()})
    for p in files:
        h.update(str(p.relative_to(ROOT)).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def cargo_build(args, env):
    """Runs one quiet offline release build; its output goes to stderr."""
    cmd = ["cargo", "build", "--release", "--offline", "-q"] + args
    return subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    for args in (["--manifest-path", "perfbench/Cargo.toml"],
                 ["-p", "preexec-serve", "--bin", "preexecd"]):
        rc = cargo_build(args, env)
        if rc != 0:
            print(f"run.py: build failed ({' '.join(args)})", file=sys.stderr)
            return rc or 1
    env["PERFBENCH_GIT_COMMIT"] = git_commit()
    env["PERFBENCH_SOURCE_DIGEST"] = source_digest()
    argv = [str(target / "release" / "perfbench")] + sys.argv[1:]
    if sys.argv[1:2] != ["--record-reference"]:
        argv += ["--daemon", str(target / "release" / "preexecd")]
    return subprocess.run(argv, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
