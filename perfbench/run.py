#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --regen-refs

Builds `perfbench` (a cargo package of its own, depending on the
repository's crates by path) into $CARGO_TARGET_DIR, default `.bench_build`,
then runs it from the root of the checkout. The last line of standard output
is the run's JSON result; the exit code is the benchmark's. `--regen-refs`
rewrites `perfbench/refs/oracle.txt`, the committed reference digests for the
default seed. Any other arguments are passed to `perfbench run` unchanged
(`--scale tiny`, `--refs FILE`, `--out DIR`).
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = Path("perfbench/refs/oracle.txt")
ORACLE_HEADER = (
    "# Reference digests for the default seed, computed without the tier under test.\n"
    "# Columns: workload scale seed key digest. Regenerate with: python3 perfbench/run.py --regen-refs\n"
)


def build():
    """Build the benchmark; return the binary's path, or None on failure."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", "perfbench/Cargo.toml"]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return target / "release" / "perfbench"


def main(argv):
    os.chdir(ROOT)
    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if argv == ["--regen-refs"]:
        refs = subprocess.run(
            [str(binary), "refs", "--workload", "all", "--scale", "all"],
            stdout=subprocess.PIPE,
            text=True,
        )
        if refs.returncode != 0:
            return refs.returncode
        ORACLE.write_text(ORACLE_HEADER + refs.stdout)
        print(f"wrote {ORACLE}", file=sys.stderr)
        return 0
    return subprocess.run([str(binary), "run", *argv]).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
