#!/usr/bin/env python3
"""Time the full Kazhdan-Lusztig table per rank and report polynomial
statistics (support sizes, largest coefficient) and the peak RSS of the
process so far (`ru_maxrss`, so run one rank per process to read a rank's
own peak).

Example:
    python scripts/kl_benchmark.py --max-n 6
    python scripts/kl_benchmark.py --min-n 7 --max-n 7
"""

import argparse
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from heckelab.coxeter import (  # noqa: E402
    all_permutations, identity, length,
)
from heckelab.hecke import KLContext  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--min-n", type=int, default=2)
    ap.add_argument("--max-n", type=int, default=6)
    args = ap.parse_args()
    for n in range(args.min_n, args.max_n + 1):
        start = time.perf_counter()
        ctx = KLContext(n)
        perms = sorted(all_permutations(n), key=lambda w: (length(w), w))
        for w in perms:
            ctx.element(w)
        elapsed = time.perf_counter() - start
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        terms = sum(len(ctx.element(w).terms) for w in perms)
        e = identity(n)
        biggest = max((max(p.c.values())
                       for w in perms for p in [ctx.polynomial(e, w)]),
                      default=0)
        nontriv = sum(1 for w in perms if ctx.polynomial(e, w).c != {0: 1})
        print(f"n={n}: {len(perms)} elements, {terms} stored terms, "
              f"{nontriv} singular, max P_(e,w) coefficient {biggest}, "
              f"{elapsed:.2f}s, peak RSS {peak_mb:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
