#!/usr/bin/env python3
"""Builds the tdm-server binary and the perfbench load generator from
source, then runs one benchmark workload.

    python3 perfbench/run.py --workload paper-scan --seed 2009 --seconds 20 --trace 0

Run from the repository root. Build output goes to $CARGO_TARGET_DIR
(default `.bench_build`) and to stderr; the last line of stdout is the
result object.
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# What the benchmark's result depends on, for the run record's digest.
SOURCES = ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench")


def source_files():
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            yield path
            continue
        for parent, subdirs, names in os.walk(path):
            subdirs[:] = sorted(d for d in subdirs if d != "target")
            for name in sorted(names):
                yield os.path.join(parent, name)


def source_digest():
    digest = hashlib.sha256()
    for path in source_files():
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    """HEAD of the repository this checkout is, or "none" outside one."""
    try:
        top = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, check=True,
        ).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        return "none"
    if len(top) != 2 or os.path.realpath(top[0]) != os.path.realpath(ROOT):
        return "none"
    return top[1]


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"perfbench: no Cargo.toml in {ROOT}; run from a checkout of the repository")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, env["CARGO_TARGET_DIR"])
    builds = (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "tdm-server", "--bin", "tdm-server"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", "perfbench/Cargo.toml"],
    )
    for build in builds:
        done = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"perfbench: build failed: {' '.join(build)}")
    generator = os.path.join(target, "release", "perfbench")
    server = os.path.join(target, "release", "tdm-server")
    args = [generator, "--server-bin", server,
            "--source-digest", source_digest(), "--git-commit", git_commit()]
    os.chdir(ROOT)
    os.execv(generator, args + sys.argv[1:])


if __name__ == "__main__":
    main()
