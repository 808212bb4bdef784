"""Regenerate perfbench/n7_pool.json: for every w in S_7 of length 15-18,
the number of KL elements a fresh KLContext(7) builds for element(w), the
number of terms it then stores, and the support size of B_w.  The stored
terms track the cold cost of the query and the support tracks the size
of its output (and so the peak RSS of `kl-basis`); unlike a time or an
RSS they are the same on every machine.  cli_session draws its n=7
queries from a band of this table.

    python3 perfbench/make_n7_pool.py     # about 6 minutes, < 100 MB

Run it from the root of a heckelab checkout.
"""

import json
import sys
from itertools import permutations
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from heckelab.hecke import KLContext  # noqa: E402
from inputs import N7_POOL_FILE, inversions  # noqa: E402


def main() -> int:
    perms = sorted((w for w in permutations(range(1, 8))
                    if 15 <= inversions(w) <= 18),
                   key=lambda w: (inversions(w), w))
    rows = []
    for w in perms:
        ctx = KLContext(7)
        support = len(ctx.element(w).terms)
        rows.append({"w": "".join(map(str, w)), "length": inversions(w),
                     "builds": len(ctx._elements), "support": support,
                     "terms": sum(len(e.terms)
                                  for e in ctx._elements.values())})
    N7_POOL_FILE.write_text(
        '{"about": "cold KL cost per w in S_7, lengths 15-18; written by '
        'make_n7_pool.py",\n "rows": [\n'
        + ",\n".join(json.dumps(r) for r in rows) + "\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
