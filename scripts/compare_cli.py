#!/usr/bin/env python3
"""Compare the command line of two source trees byte for byte.

    python scripts/compare_cli.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `heckelab` package (the
`src` directory of two checkouts).  Each command runs in a fresh
`python -m heckelab.cli` process on both trees:
- every argv of tests/data/cli_golden.json;
- the usage, rank-guard and rank-below-one errors of
  tests/data/cli_cases.json;
- each command of its "cache_dir" lists twice with --cache-dir, at the
  same path on both sides (a tree that still writes a Kazhdan-Lusztig
  cache there reads it back in the second run).
Every difference in exit code, stdout or stderr is printed, and the exit
code is 1 if there is any.  Four commands run at once.
HECKE_LAB_MAX_N is unset in the child processes, so the default size
guard applies on both sides.

Example, against a clone of the parent commit:
    git clone -q . /tmp/parent
    python scripts/compare_cli.py /tmp/parent/src src
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

DATA = Path(__file__).resolve().parent.parent / "tests/data"
GOLDEN, CASES = DATA / "cli_golden.json", DATA / "cli_cases.json"

FIELDS = ("exit code", "stdout", "stderr")


def outcomes(src: str, argv: list, runs: int, cache: str | None) -> list:
    """(exit code, stdout, stderr) of each of `runs` fresh processes of
    argv on the tree src, with --cache-dir cache if cache is set."""
    env = {k: v for k, v in os.environ.items() if k != "HECKE_LAB_MAX_N"}
    env["PYTHONPATH"] = src
    prefix = ["--cache-dir", cache] if cache else []
    out = []
    for _ in range(runs):
        done = subprocess.run(
            [sys.executable, "-m", "heckelab.cli", *prefix, *argv],
            capture_output=True, env=env, timeout=600)
        out.append((done.returncode, done.stdout, done.stderr))
    return out


def compare(old: str, new: str, argv: list, cached: bool) -> list:
    """The differences between the two trees on argv: one run, or two
    with --cache-dir naming a directory that does not exist."""
    with tempfile.TemporaryDirectory() as tmp:
        cache = os.path.join(tmp, "cache") if cached else None
        sides = [outcomes(src, argv, 2 if cached else 1, cache)
                 for src in (old, new)]
    return [f"{shlex.join(argv)} (run {i}): {what} differs: "
            f"{a!r:.300} against {b!r:.300}"
            for i, pair in enumerate(zip(*sides), 1)
            for what, a, b in zip(FIELDS, *pair) if a != b]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", help="source tree holding the heckelab package")
    ap.add_argument("new", help="source tree holding the heckelab package")
    args = ap.parse_args(argv)
    for src in (args.old, args.new):
        if not os.path.isfile(os.path.join(src, "heckelab", "cli.py")):
            ap.error(f"{src} holds no heckelab package")
    golden = [case["argv"]
              for case in json.loads(GOLDEN.read_text("utf-8"))["cases"]]
    cases = json.loads(CASES.read_text("utf-8"))
    errors = [shlex.split(argv) for argv in (
        *(argv for argv, _ in cases["usage_errors"].values()),
        *cases["rank_guard"], cases["rank_guard_before_bad_j"],
        *(argv for argv, _ in cases["rank_below_one"].values()))]
    cached = [shlex.split(argv) for verbs in cases["cache_dir"].values()
              for argv in verbs]
    tasks = [(argv, False) for argv in golden + errors]
    tasks += [(argv, True) for argv in cached]
    old, new = (os.path.abspath(src) for src in (args.old, args.new))
    with ThreadPoolExecutor(4) as pool:
        found = pool.map(lambda task: compare(old, new, *task), tasks)
        diffs = [d for ds in found for d in ds]
    for line in diffs:
        print(line)
    print(f"{len(tasks)} commands ({len(golden)} golden, {len(errors)} "
          f"errors, {len(cached)} run twice with --cache-dir): "
          f"{len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
