#!/usr/bin/env python3
"""Run the positivity/log-concavity/shifted-e scanners over a range of
symmetric groups and print verdict tables.

Example:
    python scripts/scan_conjectures.py --max-n 5
    python scripts/scan_conjectures.py --kinds shifted-e --max-n 4
    python scripts/scan_conjectures.py --kinds shifted-e --min-n 6 --max-n 6

The default run (n <= 5, all three kinds) takes under a second.  The
n=6 shifted-e scan (720 permutations, 230 class sums, one per symmetry
orbit) reports 0.07-0.10 s, KL table included, over three runs on a
2-vCPU Xeon VM with Python 3.11.7 (0.17-0.19 s with one class sum per
permutation).
"""

import argparse
import sys
import time
from dataclasses import dataclass
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from heckelab.chromatic import conjecture_scan  # noqa: E402


@dataclass(frozen=True)
class ScanConfig:
    kinds: tuple = ("h-positivity", "log-concavity", "shifted-e")
    min_n: int = 1
    max_n: int = 5
    show_failures_only: bool = False


def run(cfg: ScanConfig) -> int:
    failures = 0
    for n in range(cfg.min_n, cfg.max_n + 1):
        for kind in cfg.kinds:
            start = time.perf_counter()
            rows = conjecture_scan(kind, n)
            ok = sum(1 for r in rows if r.ok)
            elapsed = time.perf_counter() - start
            print(f"n={n} {kind}: {ok}/{len(rows)} hold "
                  f"({elapsed:.2f}s)")
            for r in rows:
                if not r.ok:
                    failures += 1
                    print(f"    {''.join(map(str, r.w))}: {r.detail}")
                elif not cfg.show_failures_only and n <= 3:
                    print(f"    {''.join(map(str, r.w))}: {r.detail}")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kinds", nargs="+",
                    default=["h-positivity", "log-concavity", "shifted-e"],
                    choices=["h-positivity", "log-concavity", "shifted-e"])
    ap.add_argument("--min-n", type=int, default=1)
    ap.add_argument("--max-n", type=int, default=5)
    ap.add_argument("--failures-only", action="store_true")
    args = ap.parse_args()
    cfg = ScanConfig(kinds=tuple(args.kinds), min_n=args.min_n,
                     max_n=args.max_n,
                     show_failures_only=args.failures_only)
    failures = run(cfg)
    print("no counterexamples found" if failures == 0
          else f"{failures} failing rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
