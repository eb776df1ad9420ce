#!/usr/bin/env python3
"""Builds the benchmark and the `scsqd` daemon from source, then runs one
workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. Build output goes to
$CARGO_TARGET_DIR (default `.bench_build`); sockets, span files and the
run history (`runs.jsonl`) go to `<target>/perfbench-out`. The last line
of stdout is the result JSON. Exits non-zero without a result when the
build fails.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def source_id():
    """The commit, or a digest of the sources when there is no git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]:
        base = ROOT / top
        files = [base] if base.is_file() else sorted(p for p in base.rglob("*") if p.is_file())
        for path in files:
            if "target" in path.relative_to(ROOT).parts:
                continue
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def build(args):
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", *args],
        cwd=ROOT,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed: cargo build {' '.join(args)}")


def main():
    os.chdir(ROOT)
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build(["--manifest-path", "perfbench/Cargo.toml"])
    build(["--manifest-path", "Cargo.toml", "--bin", "scsqd"])
    release = Path(target) / "release"
    command = [
        str(release / "perfbench"),
        *sys.argv[1:],
        "--scsqd",
        str(release / "scsqd"),
        "--commit",
        source_id(),
        # Relative, so that the daemon's socket path stays short.
        "--out",
        os.path.relpath(Path(target) / "perfbench-out"),
    ]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
