"""Seeded inputs for the four benchmark workloads.

Everything here is computed by the benchmark itself, without calling
heckelab, so the library only ever sees the generated inputs.  The same
(workload, seed) always gives the same inputs; every input is plain JSON
data so a run can record and repeat it.

Each workload has a fixed shape (op kinds, word lengths, size classes)
and the seed fills in the details (which permutations, letters, generator
sets, and the op order).  The shape fixes the amount of work, so runs on
different seeds measure the same cost while exercising different inputs.
"""

from __future__ import annotations

import json
import random
from itertools import permutations
from pathlib import Path

WORKLOADS = ("kl_table", "characters", "words", "cli_session")

HERE = Path(__file__).resolve().parent

# -- combinatorics of our own, independent of the library --------------------


def inversions(w) -> int:
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perms_by_length(n: int) -> list:
    """S_n in (length, one-line) order, as tuples."""
    return sorted(permutations(range(1, n + 1)), key=lambda w: (inversions(w), w))


def hessenberg_functions(n: int) -> list:
    """All m with m(j) >= j, m nondecreasing, m(n) = n, lexicographically."""
    out = []

    def rec(prefix):
        j = len(prefix)
        if j == n:
            out.append(tuple(prefix))
            return
        lo = max(j + 1, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            if j < n - 1 or v == n:
                rec(prefix + [v])

    rec([])
    return out


def codominant(m) -> tuple:
    """The lexicographically greatest w with w(i) <= m(i)."""
    used, out = set(), []
    for cap in m:
        x = cap
        while x in used:
            x -= 1
        used.add(x)
        out.append(x)
    return tuple(out)


def avoids(w, pattern) -> bool:
    k = len(pattern)
    target = sorted(range(k), key=lambda i: pattern[i])
    n = len(w)

    def rec(start, chosen):
        if len(chosen) == k:
            vals = [w[i] for i in chosen]
            return sorted(range(k), key=lambda i: vals[i]) != target
        return all(rec(i + 1, chosen + [i]) for i in range(start, n))

    return rec(0, [])


def below_by_reflections(w, steps: int, rng: random.Random) -> tuple:
    """A Bruhat-smaller element: swap `steps` random inverted position
    pairs, each swap lowering the length (so the result is <= w)."""
    u = list(w)
    for _ in range(steps):
        inv = [(i, j) for i in range(len(u)) for j in range(i + 1, len(u))
               if u[i] > u[j]]
        if not inv:
            break
        i, j = rng.choice(inv)
        u[i], u[j] = u[j], u[i]
    return tuple(u)


def lit(w) -> str:
    return "".join(map(str, w))


def csv(xs) -> str:
    return ",".join(map(str, xs))


# generator sets of S_5 grouped by |W_J|, so a slot can fix the quotient
# size |JW| = 120/|W_J| (and with it the cost of the quotient scans) while
# the seed picks which J of that size is used
J_CLASSES_5 = {
    1: [()],
    2: [(1,), (2,), (3,), (4,)],
    4: [(1, 3), (1, 4), (2, 4)],
    6: [(1, 2), (2, 3), (3, 4)],
    12: [(1, 2, 4), (1, 3, 4)],
    24: [(1, 2, 3), (2, 3, 4)],
}

# -- kl_table -------------------------------------------------------------------


def kl_table_inputs(seed: int) -> dict:
    # the whole of S_6 in (length, lex) order: nothing to sample, so every
    # seed gives the same table (recorded anyway, like every input)
    return {"n": 6, "order": [list(w) for w in perms_by_length(6)]}


# -- characters -----------------------------------------------------------------


def characters_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    s5 = perms_by_length(5)
    hess = hessenberg_functions(5)
    ops = [["pin_b3412_h"], ["pin_llt_3412"], ["pin_losevmanin_e"]]
    ops += [["frob_kl", list(w)] for w in s5]
    ops += [["frob_t", list(w)] for w in s5]
    ops += [["chss", list(m)] for m in hess]
    ops += [["llt", list(m), list(codominant(m))] for m in hess]
    ops += [["shifted_e", list(w)] for w in s5]
    rng.shuffle(ops)
    return {"n": 5, "ops": ops}


# -- words ------------------------------------------------------------------------

# (word length k, |W_J| class, counting kinds, enumerate?) per slot.  The
# cost of every counting op depends only on k and |JW|, both fixed here.
# run.py takes each op's fastest time over the passes and the percentiles
# over those 100 ops, so the slots are sized for each percentile to land
# in the middle of a group of ops of equal cost: op_p50_ms among the 10
# all-J scans at k=8 (44 cheaper ops lie below them), op_p90_ms among the
# 16 quotient scans at k=13 with |JW| = 20 (4 dearer ops lie above them).
# Enumeration, whose cost follows the number of good words and so the
# seed, sits between the two groups.
ALL = ("bs", "gw", "allj")
BS = ("bs",)
WORD_SLOTS = (
    [(8, size, ALL, False) for size in (1, 2, 4, 6, 12) * 2]
    + [(9, size, ALL, True) for size in (2, 4, 6)]
    + [(9, size, ALL, False) for size in (2, 4, 6, 12, 24)]
    + [(8, size, BS, False) for size in (2, 4, 6, 12, 24) * 2]
    + [(9, 24, BS, False)]
    + [(10, size, BS, False) for size in (4, 6, 12)] * 2
    + [(11, 4, ALL, False), (12, 24, BS, False), (13, 12, BS, False)]
    + [(14, 6, BS, False)] * 2
    + [(13, 6, BS, False)] * 16
)

def words_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    pairs = []
    for k, size, kinds, enum in WORD_SLOTS:
        sigma = [rng.randint(1, 4) for _ in range(k)]
        J = list(rng.choice(J_CLASSES_5[size]))
        pairs.append({"sigma": sigma, "J": J, "count": list(kinds),
                      "enumerate": enum})
    # kappa projects the good words found by the same pair's good_words op,
    # so the two stay adjacent when the op order is shuffled
    groups = []
    for i, p in enumerate(pairs):
        groups += [[[kind, i]] for kind in p["count"]]
        if p["enumerate"]:
            groups.append([["good_words", i], ["kappa", i]])
    rng.shuffle(groups)
    order = [op for group in groups for op in group]
    return {"n": 5, "pairs": pairs, "ops": order}


# -- cli_session --------------------------------------------------------------------

README_PINNED = [
    (["kl-poly", "--u", "1234", "--w", "3412"], "1+q\n"),
    (["bs-char", "--n", "4", "--J", "1,3", "--word", "1,2"], "2+6q+2q^2\n"),
    (["ih-poincare", "--w", "3412"], "1+4q+6q^2+4q^3+q^4\n"),
    (["frobenius", "--w", "3412", "--basis", "h", "--format", "latex"],
     "(1+2q+2q^2+2q^3+q^4)h_{4}+(q+2q^2+q^3)h_{3,1}+(q+2q^2+q^3)h_{2,2}\n"),
]

N7_POOL_FILE = HERE / "n7_pool.json"
# the cold cost of one n=7 KL element follows the terms its table stores,
# and the size of a kl-basis answer (its peak RSS) follows the support of
# B_w; these bands keep each n=7 query near 0.3-0.4 s and the kl-basis
# answer at about 2,100 terms on every seed
N7_TERMS_BAND = (13000, 15000)
N7_SUPPORT_BAND = (2000, 2200)
CACHE_SLOT = "{cache}"      # replaced by the pass's cache directory


def _n7_pool(support=(0, float("inf"))) -> list:
    rows = json.loads(N7_POOL_FILE.read_text())["rows"]
    (lo, hi), (slo, shi) = N7_TERMS_BAND, support
    return [r["w"] for r in rows
            if lo <= r["terms"] <= hi and slo <= r["support"] <= shi]


def _small_command(rng: random.Random, verb: str, n: int, i: int) -> list:
    """The i-th command of this verb.  Choices that change its cost (scan
    kind, KL or T element, LLT route) cycle with i, so every session has
    the same mix; the seed picks the arguments."""
    fmt = rng.choice(("plain", "plain", "json", "latex"))
    gens = list(range(1, n))
    if verb == "bs-char":
        word = [rng.choice(gens) for _ in range(rng.randint(3, 6))]
        J = sorted(rng.sample(gens, rng.randint(0, n - 1)))
        return ["bs-char", "--n", str(n), "--J", csv(J), "--word", csv(word),
                "--format", fmt]
    if verb == "good-words":
        word = [rng.choice(gens) for _ in range(rng.randint(3, 5))]
        J = sorted(rng.sample(gens, rng.randint(0, n - 1)))
        return ["good-words", "--n", str(n), "--J", csv(J), "--word",
                csv(word), "--format", rng.choice(("plain", "json"))]
    if verb == "frobenius":
        w = rng.choice(perms_by_length(n))
        return ["frobenius", "--w", lit(w), "--basis",
                rng.choice("ehpms"), "--of", ("kl", "t")[i % 2],
                "--format", fmt]
    if verb == "csf":
        m = rng.choice(hessenberg_functions(n))
        return ["csf", "--m", csv(m), "--basis", rng.choice("ehpms"),
                "--format", fmt]
    if verb == "chss-check":
        m = rng.choice(hessenberg_functions(n))
        return ["chss-check", "--m", csv(m),
                "--format", rng.choice(("plain", "json"))]
    if verb == "llt":
        m = rng.choice(hessenberg_functions(n))
        if i % 2:
            return ["llt", "--m", csv(m), "--format", fmt]
        return ["llt", "--w", lit(codominant(m)), "--format", fmt]
    if verb == "scan":
        return ["scan", "--kind",
                ("h-positivity", "log-concavity", "shifted-e")[i % 3],
                "--n", str(n), "--format", rng.choice(("plain", "json"))]
    raise ValueError(verb)


SMALL_VERBS = ("bs-char", "good-words", "frobenius", "csf", "chss-check",
               "llt", "scan")
N7_KL_POLY, N7_KL_BASIS = 14, 6
N4_COMMANDS = 72
N5_COMMANDS = [("frobenius", 5), ("chss-check", 5), ("bs-char", 5),
               ("bs-char", 5), ("csf", 5), ("good-words", 5)]


def cli_session_inputs(seed: int) -> dict:
    """One closed-loop session: each entry is one CLI invocation with the
    check its stdout must pass ("exact" references are filled in by the
    runner from uncached in-process runs)."""
    rng = random.Random(seed)
    cmds = []
    for argv, out in README_PINNED:
        cmds.append({"argv": argv, "check": "pinned", "expect": out})
    # n=7 point queries without a cache: the 20 slowest commands (about 18%
    # of the session), so op_p90_ms falls inside this group of KL queries of
    # similar cost rather than on the edge between two groups
    for w7 in rng.sample(_n7_pool(), N7_KL_POLY):
        u7 = below_by_reflections(w7, rng.randint(2, 5), rng)
        cmds.append({"argv": ["kl-poly", "--u", lit(u7), "--w", w7],
                     "check": "kl_poly"})
    for w7 in rng.sample(_n7_pool(N7_SUPPORT_BAND), N7_KL_BASIS):
        cmds.append({"argv": ["kl-basis", "--w", w7, "--format", "json"],
                     "check": "kl_basis_json", "w": w7})
    # n=6 KL verbs sharing one cache directory that grows in the session
    s6 = [w for w in perms_by_length(6) if 9 <= inversions(w) <= 11]
    six = []
    for verb in ("kl-poly", "kl-basis", "ih-poincare", "induced-char"):
        for _ in range(2):
            w = rng.choice(s6)
            if verb == "kl-poly":
                u = below_by_reflections(w, rng.randint(2, 4), rng)
                argv = ["kl-poly", "--u", lit(u), "--w", lit(w)]
            elif verb == "kl-basis":
                argv = ["kl-basis", "--w", lit(w)]
            elif verb == "ih-poincare":
                argv = ["ih-poincare", "--w", lit(w)]
            else:
                # four generators: |JW| <= 15, so the trace table is small
                J = sorted(rng.sample(range(1, 6), 4))
                argv = ["induced-char", "--J", csv(J), "--kl", lit(w)]
            six.append({"argv": ["--cache-dir", CACHE_SLOT] + argv,
                        "check": "exact", "reference": argv})
    cmds += six
    # a fixed verb mix keeps the session's cost the same on every seed
    small = [(SMALL_VERBS[i % len(SMALL_VERBS)], 4) for i in range(N4_COMMANDS)]
    seen: dict = {}
    for verb, n in small + N5_COMMANDS:
        i = seen[verb, n] = seen.get((verb, n), -1) + 1
        argv = _small_command(rng, verb, n, i)
        cmds.append({"argv": argv, "check": "exact", "reference": argv})
    rng.shuffle(cmds)
    return {"commands": cmds}


def make_inputs(workload: str, seed: int) -> dict:
    return {"kl_table": kl_table_inputs, "characters": characters_inputs,
            "words": words_inputs,
            "cli_session": cli_session_inputs}[workload](seed)
