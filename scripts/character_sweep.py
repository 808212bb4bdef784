#!/usr/bin/env python3
"""Cross-validate the induced-character pipelines on random words.  The
library's class-sum route (`induced_character` of the Bott-Samelson
product, from the closed Young-subgroup class traces) and its three word
counts (`bott_samelson_character`, `good_word_character`,
`good_word_characters_all_j`, which by the paper's theorem take that
same product and class sum) are compared with the combinatorial counts
in `tests/oracles.py`: the transfer-matrix sweeps of the quotient
fixed points and of the good words, for one J and for all J, and the
depth-first walks over all 2^k words.  The all-J counts are compared for
every J.  The Frobenius character of each product is also checked
against the monomial expansion sum_lam c_{J_lam} m_lam read off the
all-J good-word sweeps.

With the defaults (n=4, 200 cases, words up to 12 letters) a run takes
about 2.3 s with Python 3.11 on one core of a 2-vCPU x86-64 virtual
machine, most of it in the 2^k walks; the n=5 example below takes about
6.6 s there and the n=6 one about 5.5 s.

Examples:
    python scripts/character_sweep.py --n 5 --cases 100 --max-len 12
    python scripts/character_sweep.py --n 6 --cases 20 --max-len 10
"""

import argparse
import random
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from heckelab.hecke import bott_samelson_product  # noqa: E402
from heckelab.parabolic import (  # noqa: E402
    all_parabolic_subsets, bott_samelson_character, good_word_character,
    good_word_characters_all_j, induced_character, young_subgroup_generators,
)
from heckelab.symfunc import (  # noqa: E402
    SymFunc, frobenius_character, partitions,
)
from oracles import (  # noqa: E402
    dfs_bott_samelson_character, dfs_good_word_characters_all_j,
    sweep_bott_samelson_character, sweep_good_word_character,
    sweep_good_word_characters_all_j,
)


@dataclass(frozen=True)
class SweepConfig:
    n: int = 4
    cases: int = 200
    max_len: int = 12
    seed: int = 0


def run(cfg: SweepConfig) -> int:
    rng = random.Random(cfg.seed)
    gens = list(range(1, cfg.n))
    bad = 0
    start = time.perf_counter()
    for case in range(cfg.cases):
        k = rng.randint(0, cfg.max_len)
        sigma = tuple(rng.choice(gens) for _ in range(k))
        J = frozenset(rng.sample(gens, rng.randint(0, cfg.n - 1)))
        product = bott_samelson_product(sigma, cfg.n)
        trace = induced_character(product, J)
        routes = {
            "fixed": bott_samelson_character(sigma, J, cfg.n),
            "good": good_word_character(sigma, J, cfg.n),
            "sweep-fixed": sweep_bott_samelson_character(sigma, J, cfg.n),
            "sweep-good": sweep_good_word_character(sigma, J, cfg.n),
            "dfs-fixed": dfs_bott_samelson_character(sigma, J, cfg.n)}
        wrong = [f"{name}={c}" for name, c in routes.items() if c != trace]
        by_j = {"all-J": good_word_characters_all_j(sigma, cfg.n),
                "sweep-all-J": sweep_good_word_characters_all_j(sigma, cfg.n),
                "dfs-all-J": dfs_good_word_characters_all_j(sigma, cfg.n)}
        wrong_j = [(name, sorted(K)) for name, counts in by_j.items()
                   for K in all_parabolic_subsets(cfg.n)
                   if counts[K] != induced_character(product, K)]
        words_ch = SymFunc("m", cfg.n, {
            lam: by_j["sweep-all-J"][young_subgroup_generators(lam, cfg.n)]
            for lam in partitions(cfg.n)})
        frob_ok = frobenius_character(product) == words_ch
        if wrong or wrong_j or not frob_ok:
            bad += 1
            print(f"MISMATCH sigma={sigma} J={sorted(J)}: trace={trace} "
                  f"wrong routes {wrong}, all-J wrong at {wrong_j}, "
                  f"frobenius ok={frob_ok}")
    elapsed = time.perf_counter() - start
    print(f"{cfg.cases} cases over S_{cfg.n}, words up to {cfg.max_len}: "
          f"{cfg.cases - bad} agree ({elapsed:.2f}s)")
    return bad


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--cases", type=int, default=200)
    ap.add_argument("--max-len", type=int, default=12)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    bad = run(SweepConfig(args.n, args.cases, args.max_len, args.seed))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
