"""
Independent brute-force oracles used to freeze expected values.

Nothing here imports the implementation strategies it is checking:
the complete permutation table is built row by row on tuples, Bruhat
order comes from subword enumeration, symmetric functions from
explicit monomial expansion in n variables (semistandard tableaux for
Schur), coloring counts and the q-weighted coloring sums from direct
enumeration (all n^n colorings, or backtracking over the proper ones),
changes of basis from term-by-term LaurentQ arithmetic through the Schur
basis (`oracle_to_basis`, which also takes the `LaurentFrac` coefficients
the library's packed route cannot), binary-word counts and word sets
from depth-first walks over all 2^k words, the counts also from
transfer-matrix sweeps over the library's shared quotients (`sweep_*`),
Bott-Samelson products from LaurentQ products and from a packed loop on
permutation tuples (`tuple_bott_samelson_product`), Kazhdan-Lusztig
expansions by elimination on whole `HeckeElement` residues
(`residue_expand_cprime`), induced characters
from per-z trace matrices on the quotient module, the traces of the
T_{w_mu} from the diagonal of its action and the class-sum route from
dict convolutions (`mac_young_characters`), Kazhdan-Lusztig elements
from T-basis products B_s * B_{w'} on permutation tuples, their
postcondition check by shifts and masks on each packed polynomial
(`shift_defect`) and by du Cloux's extremal-pair equalities
(`pair_defect`), the plethystic
LLT from power sums rescaled over rational functions in q (`LaurentFrac`
normal forms by polynomial gcd) and from the per-n linear map on the
monomial basis over n! [n]_q! with one exact division per Schur
coefficient (`map_llt_plethysm`), the q -> q+1 shift by the Pascal
transform (`binomial_q_shift`), and the power-sum and determinantal
forms of n! e_n and n! h_n (`newton_check`), skew Schur functions
from the Jacobi-Trudi determinant expanded term by term
(`direct_jacobi_trudi`), and conjecture scans with one class sum per
permutation (`per_w_conjecture_scan`).  The helpers only tests need
live here too: right inversions and the weak order, transpositions and
their left action, coset minima (`min_coset_rep`), Gauss numbers, class
sizes and `z_matrix`.
"""

import math
from fractions import Fraction
from functools import lru_cache
from itertools import (
    accumulate, combinations, permutations, product, zip_longest,
)
from types import SimpleNamespace

from heckelab import chromatic, config
from heckelab.coxeter import (
    apply_s_left, apply_s_right, evaluate_word, inverse, left_descents,
    length, perm_table, right_descents,
)
from heckelab.hecke import W, HeckeElement, kl_context
from heckelab.laurentq import (
    ONE, Q, ZERO, LaurentQ, from_q_coefficients, pack_signed, q_power,
    signed_width, unpack_signed,
)
from heckelab.coxeter import cycle_type
from heckelab.parabolic import (
    _gen_mask, _scan, _young_trace, all_parabolic_subsets,
    induced_character,
)
from heckelab.symfunc import (
    SymFunc, _h_chars, _kostka, conjugate_partition, frobenius_character,
    immanant, murnaghan_nakayama, omega, partitions, sign_partition, z_mu,
)


def subword_bruhat_leq(u, w) -> bool:
    """u <= w iff u appears as a subword product of one reduced word of w."""
    word = _any_reduced_word(w)
    n = len(w)
    for k in range(len(word) + 1):
        for idx in combinations(range(len(word)), k):
            if evaluate_word(tuple(word[i] for i in idx), n) == u:
                return True
    return False


def _any_reduced_word(w):
    # bubble-sort word: sorting w to the identity uses exactly inv(w)
    # adjacent swaps, so the reversed swap sequence is reduced
    target = tuple(w)
    w = list(w)
    n = len(w)
    word = []
    for i in range(n):
        for j in range(n - 1, i, -1):
            if w[j - 1] > w[j]:
                w[j - 1], w[j] = w[j], w[j - 1]
                word.append(j)
    word.reverse()
    assert evaluate_word(tuple(word), n) == target
    return tuple(word)


def right_inversions(w) -> frozenset:
    """All position pairs (i, j), i < j, with w(i) > w(j); these are the
    transpositions t with length(w*t) < length(w)."""
    n = len(w)
    return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                     if w[i - 1] > w[j - 1])


def weak_left_leq(u, w) -> bool:
    """Weak left order: u <=_L w iff w = x*u with lengths adding.

    Equivalent to containment of right inversion sets.
    """
    return right_inversions(u) <= right_inversions(w)


def apply_transposition_left(w, t):
    """(a b) * w for a transposition t = (a, b): swap the values a, b."""
    a, b = t
    return tuple(b if x == a else a if x == b else x for x in w)


def transpositions(n: int):
    """All (i, j) with 1 <= i < j <= n."""
    return [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]


def min_coset_rep(w, J):
    """The minimal-length element of W_J w (strip left descents in J)."""
    J = frozenset(J)
    while ds := left_descents(w) & J:
        w = apply_s_left(w, min(ds))
    return w


def eager_perm_table(n: int) -> SimpleNamespace:
    """All of S_n in (length, one-line) order with its multiplication
    tables, built row by row on tuples (the library table's reference)."""
    perms = sorted(permutations(range(1, n + 1)), key=lambda w: (length(w), w))
    index = {w: p for p, w in enumerate(perms)}
    lengths = [length(w) for w in perms]
    lmult = [[index[apply_s_left(w, i)] for i in range(1, n)] for w in perms]
    return SimpleNamespace(
        perms=perms, index=index, lengths=lengths, lmult=lmult,
        rmult=[[index[apply_s_right(w, i)] for i in range(1, n)]
               for w in perms],
        inv=[index[inverse(w)] for w in perms],
        conj=[index[tuple(n + 1 - x for x in reversed(w))] for w in perms],
        ldesc=[sum(1 << t for t, sw in enumerate(row) if lengths[sw] < lw)
               for row, lw in zip(lmult, lengths)])


# -- monomial expansions -------------------------------------------------------

def poly_mul(a: dict, b: dict, nvars: int) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
            if not out[e]:
                del out[e]
    return out


def _unit(nvars):
    return {(0,) * nvars: 1}


def expand_e(k: int, nvars: int) -> dict:
    out = {}
    for idx in combinations(range(nvars), k):
        e = tuple(1 if i in idx else 0 for i in range(nvars))
        out[e] = 1
    return out


def expand_h(k: int, nvars: int) -> dict:
    out = {}
    for idx in combinations(range(nvars + k - 1), k):
        e = [0] * nvars
        prev = -1
        # stars and bars
        for pos_i, pos in enumerate(idx):
            e[pos - pos_i] += 1
        out[tuple(e)] = out.get(tuple(e), 0) + 1
    return out


def expand_p(k: int, nvars: int) -> dict:
    return {tuple(k if i == j else 0 for i in range(nvars)): 1
            for j in range(nvars)}


def expand_m(lam, nvars: int) -> dict:
    lam = tuple(lam)
    if len(lam) > nvars:
        return {}
    padded = lam + (0,) * (nvars - len(lam))
    return {e: 1 for e in set(permutations(padded))}


def ssyt_fillings(lam, nvars: int):
    """All semistandard fillings of lam with entries in 1..nvars."""
    lam = tuple(lam)
    rows = len(lam)

    def rec(r, above, acc):
        if r == rows:
            yield acc
            return
        width = lam[r]

        def fill(c, row):
            if c == width:
                yield from rec(r + 1, row, acc + [tuple(row)])
                return
            lo = row[c - 1] if c else 1
            if above is not None and c < len(above):
                lo = max(lo, above[c] + 1)
            for v in range(lo, nvars + 1):
                yield from fill(c + 1, row + [v])

        yield from fill(0, [])

    yield from rec(0, None, [])


def expand_s(lam, nvars: int) -> dict:
    out = {}
    for filling in ssyt_fillings(lam, nvars):
        e = [0] * nvars
        for row in filling:
            for v in row:
                e[v - 1] += 1
        e = tuple(e)
        out[e] = out.get(e, 0) + 1
    return out


def expand_basis_element(basis: str, lam, nvars: int) -> dict:
    lam = tuple(lam)
    if basis == "m":
        return expand_m(lam, nvars)
    if basis == "s":
        return expand_s(lam, nvars)
    single = {"e": expand_e, "h": expand_h, "p": expand_p}[basis]
    out = _unit(nvars)
    for k in lam:
        out = poly_mul(out, single(k, nvars), nvars)
    return out


def count_syt(lam) -> int:
    """Standard Young tableaux by brute-force growth."""
    lam = tuple(lam)
    n = sum(lam)

    def rec(shape):
        if sum(shape) == n:
            return 1
        count = 0
        for r in range(len(lam)):
            above = shape[r - 1] if r else n + 1
            if shape[r] < lam[r] and shape[r] < above:
                count += rec(shape[:r] + (shape[r] + 1,) + shape[r + 1:])
        return count

    return rec((0,) * len(lam))


def gauss_number(k: int) -> LaurentQ:
    """[k]_q = 1 + q + ... + q^(k-1)."""
    return from_q_coefficients([1] * k)


def class_size(mu) -> int:
    """Number of permutations of cycle type mu: n!/z_mu."""
    return math.factorial(sum(mu)) // z_mu(mu)


def dominates(lam, mu) -> bool:
    """lam >= mu in dominance order (partial sums dominate)."""
    return all(d >= 0 for d in accumulate(
        a - b for a, b in zip_longest(lam, mu, fillvalue=0)))


# -- basis changes ------------------------------------------------------------
#
# The library's first route: every coefficient carried through the Kostka
# and character tables by LaurentQ (or LaurentFrac) arithmetic, term by
# term, into the Schur basis and out of it, solving the unitriangular
# systems as it goes.

def _acc(d: dict, key, val) -> None:
    s = d.get(key, ZERO) + val
    if s:
        d[key] = s
    else:
        d.pop(key, None)


def oracle_to_basis(f: SymFunc, target: str) -> SymFunc:
    """f in the target basis, through the Schur basis one term at a time."""
    if target == f.basis:
        return f
    in_s = _oracle_to_schur(f)
    return in_s if target == "s" else _oracle_schur_to(in_s, target)


def _oracle_to_schur(f: SymFunc) -> SymFunc:
    n, parts = f.degree, partitions(f.degree)
    out: dict = {}
    if f.basis == "s":
        return f
    if f.basis in ("h", "e"):
        K = _kostka(n)
        for mu, c in f.coeffs.items():
            for lam in parts:
                k = K[lam].get(mu, 0)
                if k:
                    tgt = conjugate_partition(lam) if f.basis == "e" else lam
                    _acc(out, tgt, c * k)
    elif f.basis == "p":
        for mu, c in f.coeffs.items():
            for lam in parts:
                k = murnaghan_nakayama(lam, mu)
                if k:
                    _acc(out, lam, c * k)
    elif f.basis == "m":
        # solve sum_lam b_lam K[lam][mu] = c_mu by back-substitution
        # (K is unitriangular against the descending-lex order)
        K = _kostka(n)
        need = dict(f.coeffs)
        b: dict = {}
        for lam in parts:  # descending lex; lam can only involve mu <= lam
            c = need.get(lam, ZERO)
            if c:
                b[lam] = c
                for mu, k in K[lam].items():
                    if mu != lam:
                        _acc(need, mu, c * (-k))
                need.pop(lam, None)
        out = b
    return SymFunc("s", n, out)


def _oracle_schur_to(f: SymFunc, target: str) -> SymFunc:
    n, parts = f.degree, partitions(f.degree)
    out: dict = {}
    if target == "m":
        K = _kostka(n)
        for lam, c in f.coeffs.items():
            for mu, k in K[lam].items():
                _acc(out, mu, c * k)
    elif target in ("h", "e"):
        # b_lam = sum_mu K[lam][mu] x_mu with K unitriangular; solve
        # for x ascending in lex order, whose smaller entries are known
        K = _kostka(n)
        need = {lam: c for lam, c in f.coeffs.items()}
        if target == "e":
            need = {conjugate_partition(lam): c for lam, c in need.items()}
        x: dict = {}
        for mu in reversed(parts):
            c = need.get(mu, ZERO)
            for nu, k in K[mu].items():
                if nu != mu and nu in x:
                    c = c - x[nu] * k
            if c:
                x[mu] = c
        out = x
    elif target == "p":
        for mu in parts:
            total = ZERO
            for lam, c in f.coeffs.items():
                k = murnaghan_nakayama(lam, mu)
                if k:
                    total = total + c * k
            total = total * Fraction(1, z_mu(mu))
            if total:
                out[mu] = total
    return SymFunc(target, n, out)


def binomial_q_shift(f: LaurentQ) -> LaurentQ:
    """f(q + 1) by the Pascal transform b_j = sum_k c_k C(k, j) of the
    q-coefficients c_k of f (f must be a polynomial in q)."""
    cs = f.q_coefficients()
    return from_q_coefficients([
        sum(c * math.comb(k, j) for k, c in enumerate(cs[j:], j))
        for j in range(len(cs))])


def horner_q_shift(f: LaurentQ) -> LaurentQ:
    """f(q + 1) by Horner's rule in LaurentQ arithmetic (f must be a
    polynomial in q)."""
    out = ZERO
    for c in reversed(f.q_coefficients()):
        out = out * (Q + ONE) + c
    return out


# -- graph colorings ----------------------------------------------------------

def count_proper_colorings(n: int, edges, k: int) -> int:
    total = 0
    for kappa in product(range(k), repeat=n):
        if all(kappa[i - 1] != kappa[j - 1] for i, j in edges):
            total += 1
    return total


def backtrack_coloring_sums(n: int, edges) -> dict:
    """{content vector: {ascents: count}} over the proper colorings
    kappa: [n] -> [n], by backtracking one vertex at a time."""
    below = [[i for i in range(1, j) if (i, j) in edges]
             for j in range(n + 1)]
    vectors: dict = {}
    color = [0] * (n + 1)  # color[v] for v = 1..n
    counts = [0] * n       # multiplicity of each color in the current prefix

    def rec(v: int, asc: int):
        if v > n:
            d = vectors.setdefault(tuple(counts), {})
            d[asc] = d.get(asc, 0) + 1
            return
        for c in range(1, n + 1):
            if any(color[u] == c for u in below[v]):
                continue
            color[v] = c
            counts[c - 1] += 1
            rec(v + 1, asc + sum(1 for u in below[v] if color[u] < c))
            counts[c - 1] -= 1
        color[v] = 0

    rec(1, 0)
    return vectors


def all_coloring_sums(n: int, edges) -> dict:
    """{content vector: {ascents: count}} over all n^n colorings
    kappa: [n] -> [n]."""
    edges = sorted(edges)
    vectors: dict = {}
    for kappa in product(range(1, n + 1), repeat=n):
        asc = sum(1 for i, j in edges if kappa[i - 1] < kappa[j - 1])
        counts = [0] * n
        for c in kappa:
            counts[c - 1] += 1
        d = vectors.setdefault(tuple(counts), {})
        d[asc] = d.get(asc, 0) + 1
    return vectors


def monomials_of_shape(lam, k: int) -> int:
    """m_lam evaluated at x_1 = ... = x_k = 1, rest 0."""
    lam = tuple(lam)
    if len(lam) > k:
        return 0
    padded = lam + (0,) * (k - len(lam))
    return len(set(permutations(padded)))


# -- binary-word counts --------------------------------------------------------
#
# Depth-first walks over all 2^k binary words, one start at a time; no
# two paths are merged, so these check the library's transfer-matrix
# counts word by word.  They build the quotient from the permutation
# table alone.

def _quotient(n: int, J):
    """(table, reps, dot): the table indices of the minimal coset reps in
    table order, and dot[i][s] = local index of reps[i] ._J s_(s+1)."""
    tbl = perm_table(n)
    lengths = tbl.lengths
    reps = [gi for gi in range(len(tbl))
            if all(lengths[tbl.lmult[gi][j - 1]] > lengths[gi] for j in J)]
    loc = {gi: i for i, gi in enumerate(reps)}
    dot = [[loc.get(tbl.rmult[gi][s], i) for s in range(n - 1)]
           for i, gi in enumerate(reps)]
    return tbl, reps, dot


def dfs_bott_samelson_character(sigma, J, n: int) -> LaurentQ:
    """c_J of prod (1+T_s) over sigma: q^(number of 1s) summed over the
    binary words whose quotient up/down composite fixes a quotient
    element."""
    tbl, reps, dot = _quotient(n, J)
    lengths = tbl.lengths
    sig = [s - 1 for s in sigma]
    k = len(sig)
    counts = [0] * (k + 1)

    def scan(start: int) -> None:
        # iterative DFS over (depth, state, ones)
        todo = [(0, start, 0)]
        while todo:
            i, u, ones = todo.pop()
            if i == k:
                if u == start:
                    counts[ones] += 1
                continue
            s = sig[i]
            v = dot[u][s]
            if v == u:
                # ws leaves JW: both bits stay at u
                todo.append((i + 1, u, ones + 1))
                todo.append((i + 1, u, ones))
            elif lengths[reps[v]] > lengths[reps[u]]:
                todo.append((i + 1, v, ones + 1))
                todo.append((i + 1, u, ones))
            else:
                todo.append((i + 1, u, ones + 1))
                todo.append((i + 1, v, ones))

    for start in range(len(reps)):
        scan(start)
    return LaurentQ({2 * e: c for e, c in enumerate(counts) if c})


def _good_scan(tbl, sig: list, w_gi: int, targets: list) -> dict:
    """stats[(witness_mask, ones)] -> count over the binary words whose
    absolute up/down composite fixes w_gi; bit i of the mask is set when
    some step u -> u s has u s = s_(targets[i]+1) u."""
    rmult, lmult, lengths = tbl.rmult, tbl.lmult, tbl.lengths
    k = len(sig)
    stats: dict = {}
    tmask = list(enumerate(targets))

    def rec(i, u, ones, mask):
        if i == k:
            if u == w_gi:
                key = (mask, ones)
                stats[key] = stats.get(key, 0) + 1
            return
        s = sig[i]
        us = rmult[u][s]
        for t_bit, t in tmask:
            if not (mask >> t_bit) & 1 and lmult[u][t] == us:
                mask |= 1 << t_bit
        if lengths[us] > lengths[u]:
            up, down = us, u
        else:
            up, down = u, us
        rec(i + 1, up, ones + 1, mask)
        rec(i + 1, down, ones, mask)

    rec(0, w_gi, 0, 0)
    return stats


def dfs_good_word_characters_all_j(sigma, n: int) -> dict:
    """{J: sum of q^(number of 1s) over the good pairs (w, b)} for every
    subset J of the generators: the absolute composite of b fixes w and
    every left descent of w in J has a witness step."""
    tbl = perm_table(n)
    sig = [s - 1 for s in sigma]
    subsets = [frozenset(g for g in range(1, n) if bits >> (g - 1) & 1)
               for bits in range(1 << (n - 1))]
    counts = {J: [0] * (len(sig) + 1) for J in subsets}
    for gi in range(len(tbl)):
        desc = [t for t in range(n - 1)
                if tbl.lengths[tbl.lmult[gi][t]] < tbl.lengths[gi]]
        stats = _good_scan(tbl, sig, gi, desc)
        for J in subsets:
            need = sum(1 << i for i, t in enumerate(desc) if t + 1 in J)
            for (mask, ones), cnt in stats.items():
                if mask & need == need:
                    counts[J][ones] += cnt
    return {J: LaurentQ({2 * e: c for e, c in enumerate(cs) if c})
            for J, cs in counts.items()}


def _word_walk(n: int, J, sigma, start: int) -> list:
    """(bits, end, witnessed) for every one of the 2^k binary words,
    walked depth first from the local index start of the quotient JW
    (all of S_n when J is empty): end is the local index the up/down
    composite reaches, and bit t of witnessed is set when some step
    u -> u s has u s = s_(t+1) u (read at J = {} only)."""
    tbl, reps, dot = _quotient(n, J)
    lengths = tbl.lengths
    sig = [s - 1 for s in sigma]
    k = len(sig)
    out = []
    bits: list = []

    def rec(i, u, mask):
        if i == k:
            out.append((tuple(bits), u, mask))
            return
        s = sig[i]
        v = dot[u][s]
        for t in range(n - 1):
            if tbl.lmult[reps[u]][t] == tbl.rmult[reps[u]][s]:
                mask |= 1 << t
        if lengths[reps[v]] > lengths[reps[u]]:
            up, down = v, u
        else:
            up, down = u, v
        bits.append(1)
        rec(i + 1, up, mask)
        bits[-1] = 0
        rec(i + 1, down, mask)
        bits.pop()

    rec(0, start, 0)
    return out


def dfs_bin_set(w, sigma, J, n: int) -> set:
    """The binary words whose quotient up/down composite fixes w in JW,
    out of all 2^k."""
    tbl, reps, _ = _quotient(n, J)
    start = reps.index(tbl.index[tuple(w)])
    return {b for b, end, _ in _word_walk(n, frozenset(J), tuple(sigma),
                                          start) if end == start}


def dfs_good_words(w, sigma, J) -> set:
    """The binary words good for w, out of all 2^k: the absolute
    composite fixes w and every left descent of w in J has a witness."""
    n = len(w)
    tbl = perm_table(n)
    start = tbl.index[tuple(w)]
    need = sum(1 << (t - 1) for t in left_descents(tuple(w)) if t in J)
    return {b for b, end, mask in _word_walk(n, frozenset(), tuple(sigma),
                                             start)
            if end == start and mask & need == need}


# -- binary-word counts by transfer-matrix sweeps ------------------------------
#
# The combinatorial side of the paper's identity, which the library computes as
# one product and one class sum; these count the words on the up/down kernel
# of each quotient on its own positions (`positions_kernel`, independent of
# the library's kernel on table indices).  Counts follow each orbit
# {u, us} or {u} of the first letter s from one start and merge the paths that
# meet at the same state (a transfer matrix): u and us step to the same up and
# down with the same witness bits, as (us)s(us)^-1 = usu^-1, so one sweep is
# read at both.  The count vector over the number of 1s rides in one int,
# `width` bits per coefficient (Kronecker packing): a 1-bit shifts by `width`,
# and merging two paths is an int add.  A sweep carries a chunk of orbits:
# orbit p starts as 1 << p * F, F = (k + 1) * width, so each state's int holds
# every orbit's vector in its own block, and the orbits share the steps at the
# states they all reach.  One start counts each word at most once and there are
# binom(k, e) words with e ones, so over m starts every coefficient is at most
# m * binom(k, k // 2); `width` is the bit length of that bound for all the
# quotient's starts plus a sign bit (`unpack_signed` reads signed fields), so
# no field carries into the next, nor a block into the next, and blocks add
# straight into the total.  The bound is reached (n = 3, J = {1, 2}), so one
# bit less would read it as negative.

@lru_cache(maxsize=None)
def positions_kernel(n: int, J: frozenset) -> tuple:
    """(reps, steps): reps[i] is the table index of position i of JW and
    steps[s][i] = (up, down, wit) on positions, up/down the max/min of i
    and its dot action by s_(s+1), and bit t of wit set when
    s_(t+1) reps[i] = reps[i] s_(s+1), found by scanning the left
    products.  Positions refine length, as table indices do."""
    tbl, reps, dot = _quotient(n, J)
    steps = []
    for s in range(n - 1):
        row = []
        for i, gi in enumerate(reps):
            j, ws = dot[i][s], tbl.rmult[gi][s]
            wit = sum(1 << t for t, tw in enumerate(tbl.lmult[gi])
                      if tw == ws)
            row.append((max(i, j), min(i, j), wit))
        steps.append(tuple(row))
    return reps, steps


def _count_width(k: int, starts: int) -> int:
    return (starts * math.comb(k, k // 2)).bit_length() + 1


# a chunk's int size in bits: fastest overall in BENCH_word_packing.json
BITS = 4096


def _orbits(reps: list, steps: list, sig: tuple) -> list:
    """The orbits of the first letter s of sig on the states: pairs
    (u, u.s) and fixed points (u,); each state alone for no letter."""
    if not sig:
        return [(u,) for u in range(len(reps))]
    return [(u,) if up == u else (u, up)
            for u, (up, down, _) in enumerate(steps[sig[0]])
            if down == u]


def _sweeps(steps: list, sig: tuple, orbits: list, need: int, width: int):
    """(orbit, its counts) for each of the orbits, all with the same need,
    swept BITS // F orbits at a time (at least one)."""
    size = max(1, BITS // ((len(sig) + 1) * width))
    for i in range(0, len(orbits), size):
        chunk = orbits[i:i + size]
        yield from zip(chunk, _sweep(steps, sig, chunk, need, width))


def _sweep(steps: list, sig: tuple, chunk: list, need: int,
           width: int) -> list:
    """For each orbit of the chunk, the packed counts of the words whose
    composite returns to a start of the orbit, keyed by (start, the set of
    witness bits inside need that they collect).  The starts of an orbit
    of the first letter share its step and witness bits, so one sweep
    from orbit[0] serves them all; orbit p rides in block p, the fields
    p * F .. p * F + F - 1 of each state's int, F = (k + 1) * width."""
    shift, block = need.bit_length(), (len(sig) + 1) * width
    low = (1 << shift) - 1
    # the state (u, mask) is the int u << shift | mask, as mask lies in need
    vec = {orbit[0] << shift: 1 << p * block for p, orbit in enumerate(chunk)}
    for s in sig:
        row, nxt = steps[s], {}
        get = nxt.get
        if not need:   # every mask is 0 and a state is u
            for u, x in vec.items():
                up, down, _ = row[u]
                nxt[up] = get(up, 0) + (x << width)
                nxt[down] = get(down, 0) + x
        else:
            for key, x in vec.items():
                up, down, wit = row[key >> shift]
                mask = key & low | wit & need
                key = up << shift | mask
                nxt[key] = get(key, 0) + (x << width)
                key = down << shift | mask
                nxt[key] = get(key, 0) + x
        vec = nxt
    subs = [m for m in range(need + 1) if not m & ~need]
    full = (1 << block) - 1
    return [{(t, m): y for t in orbit for m in subs
             if (y := vec.get(t << shift | m, 0) >> p * block & full)}
            for p, orbit in enumerate(chunk)]


def sweep_bott_samelson_character(sigma, J, n: int) -> LaurentQ:
    """c_J of prod (1+T_s) over sigma: the binary words fixing each
    quotient element under the up/down composites, counted by sweeps."""
    sig, J, _ = _scan(n, sigma, J)
    reps, steps = positions_kernel(n, J)
    width = _count_width(len(sig), len(reps))
    total = 0
    orbits = _orbits(reps, steps, sig)
    for _, counts in _sweeps(steps, sig, orbits, 0, width):
        total += sum(counts.values())
    return from_q_coefficients(unpack_signed(total, width))


def sweep_good_word_character(sigma, J, n: int) -> LaurentQ:
    """Sum of q^(number of 1s) over all good pairs (w, b), by sweeps."""
    J = frozenset(J)
    return _good_characters(sigma, n, [J])[J]


def sweep_good_word_characters_all_j(sigma, n: int) -> dict:
    """The good-word character for every subset J, by sweeps."""
    return _good_characters(sigma, n, all_parabolic_subsets(n))


def _good_characters(sigma, n: int, Js: list) -> dict:
    """{J: the good-word character} for J in Js.  The orbits of the first
    letter are swept in groups of one need, the left descents of their
    starts inside some J, whose witness bits the sweep tracks.  The counts
    are summed per (descent set d of the start inside those J, witnessed
    set m); J then reads, for each d, the words whose m covers d & J, and
    each (d, d & J) is summed once for all the J that share it."""
    sig, _, _ = _scan(n, sigma, ())
    reps, steps = positions_kernel(n, frozenset())
    width = _count_width(len(sig), len(reps))
    ldesc = [perm_table(n).ldesc[gi] for gi in reps]
    track = _gen_mask(frozenset().union(*Js))
    groups: dict = {}
    for orbit in _orbits(reps, steps, sig):
        groups.setdefault((ldesc[orbit[0]] | ldesc[orbit[-1]]) & track,
                          []).append(orbit)
    by_d: dict = {}   # {d: {m: packed counts}}
    for need, orbits in groups.items():
        for _, counts in _sweeps(steps, sig, orbits, need, width):
            for (t, m), x in counts.items():
                row = by_d.setdefault(ldesc[t] & track, {})
                row[m] = row.get(m, 0) + x
    covering: dict = {}   # {(d, own): the counts whose m covers own}
    totals = {}
    for J in Js:
        jmask, total = _gen_mask(J), 0
        for d, row in by_d.items():
            own = d & jmask
            if (d, own) not in covering:
                covering[d, own] = sum(x for m, x in row.items()
                                       if not own & ~m)
            total += covering[d, own]
        totals[J] = from_q_coefficients(unpack_signed(total, width))
    return totals


# -- the quotient module -------------------------------------------------------
#
# The action of H_n on the free module over JW, built from `_quotient`.
# The library's first route to c_J was the full table of traces of T_z on
# it, one sparse matrix product per z; its second read the traces of the
# T_{w_mu} off the diagonal of this action.  The library now reads c_J off
# class polynomials and a closed formula for those traces; these check it.

def dot_action(w, s: int, quot):
    """w ._J s = ws if ws stays in JW, else w, for quot a
    `ParabolicQuotient`.  Requires w in JW."""
    w = tuple(w)
    if not 1 <= s <= quot.n - 1:
        raise ValueError(f"generator index out of range: {s}")
    if w not in quot.index:
        raise ValueError(f"{w} is not a minimal coset representative")
    ws = apply_s_right(w, s)
    return ws if ws in quot.index else w


@lru_cache(maxsize=None)
def _action(n: int, J: frozenset) -> list:
    """action[s][u]: the row of right multiplication by T_(s+1) at basis
    vector u of the quotient module, as ((target, kind), ...) with kind
    0 -> 1, 1 -> q, 2 -> q-1."""
    tbl, reps, dot = _quotient(n, J)
    action = []
    for s in range(n - 1):
        rows = []
        for u in range(len(reps)):
            v = dot[u][s]
            if v == u:
                rows.append(((u, 1),))
            elif tbl.lengths[reps[v]] > tbl.lengths[reps[u]]:
                rows.append(((v, 0),))
            else:
                rows.append(((v, 1), (u, 2)))
        action.append(rows)
    return action


_KINDS = (ONE, Q, Q - ONE)


def hecke_dot_matrix(s: int, quot):
    """The matrix of right multiplication by T_s on the quotient module of
    the `ParabolicQuotient` quot, rows and columns in the order of its reps.

    Row w reads: q*[w] when ws leaves JW; [ws] when ws is a longer rep;
    q*[ws] + (q-1)*[w] when ws is a shorter rep.  At J = {} this is the
    regular representation of T_s.
    """
    if not 1 <= s <= quot.n - 1:
        raise ValueError(f"generator index out of range: {s}")
    rows = _action(quot.n, quot.J)[s - 1]
    out = [[ZERO] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, kind in row:
            out[i][j] = out[i][j] + _KINDS[kind]
    return out


def quotient_class_traces(n: int, J) -> dict:
    """{mu: c_J(T_{w_mu})} for every partition
    mu of n, w_mu the product of the Coxeter elements of the blocks of mu.

    The reduced word of w_mu uses each letter at most once, so pushing a
    basis vector x through it returns to x only on the path that stays at
    x: the trace is the sum over x of the products of the diagonal
    entries of T_s at x.
    """
    J = frozenset(J)
    action, m = _action(n, J), len(_quotient(n, J)[1])
    out = {}
    for mu in partitions(n):
        word, start = [], 0
        for part in mu:
            word.extend(range(start, start + part - 1))
            start += part
        total = ZERO
        for x in range(m):
            diag = ONE
            for s in word:
                kind = dict(action[s][x]).get(x)
                if kind is None:
                    break
                diag = diag * _KINDS[kind]
            else:
                total = total + diag
        out[mu] = total
    return out


def trace_table(n: int, J) -> dict:
    """{z: c_J(T_z)} for every z in S_n, read from the library's class
    route, to set against `build_trace_table`."""
    return {w: induced_character(HeckeElement.t_basis(n, w), J)
            for w in perm_table(n).perms}


def _mac(acc: dict, x: dict, y: dict) -> None:
    """acc += x * y on {v-exponent: coefficient} dicts (zeros are kept)."""
    for e, c in x.items():
        for d, b in y.items():
            acc[e + d] = acc.get(e + d, 0) + c * b


@lru_cache(maxsize=None)
def mac_class_polys(n: int) -> tuple:
    """(f, types): f[z] = {mu: f_{z,mu}} as {v-exponent: int} dicts for
    every perm_table index z, one shared dict per cyclic-shift class, by
    f_y = q f_{sys} + (q-1) f_{sy} on dicts, and the cycle types mu."""
    tbl = perm_table(n)
    lengths, lmult, rmult = tbl.lengths, tbl.lmult, tbl.rmult
    f: list = [None] * len(tbl)
    types = []
    for z in range(len(tbl)):
        if f[z] is not None:
            continue
        cls, seen, value = [z], {z}, None
        for y in cls:
            for s in range(n - 1):
                sy = lmult[y][s]
                sys = rmult[sy][s]
                if lengths[sys] == lengths[y] and sys not in seen:
                    seen.add(sys)
                    cls.append(sys)
                elif value is None and lengths[sys] < lengths[y]:
                    value = {}
                    for mu in f[sys].keys() | f[sy].keys():
                        acc: dict = {}
                        _mac(acc, f[sys].get(mu, {}), {2: 1})
                        _mac(acc, f[sy].get(mu, {}), {2: 1, 0: -1})
                        if acc := {e: c for e, c in acc.items() if c}:
                            value[mu] = acc
        if value is None:
            mu = cycle_type(tbl.perms[z])
            value = {mu: {0: 1}}
            if mu not in types:
                types.append(mu)
        for y in cls:
            f[y] = value
    return f, types


def mac_young_characters(a: HeckeElement, lams) -> list:
    """[c_lam(a) for lam in lams] as
    sum_mu (sum_z a_z f_{z,mu}) c_lam(T_{w_mu}) on {v-exponent: coeff}
    dicts: the coefficients of a are summed per cyclic-shift class, then
    one `_mac` convolution per (class, cycle type) pair and per
    (lam, cycle type) pair.  The route the packed class sums replaced."""
    tbl, (f, _) = perm_table(a.n), mac_class_polys(a.n)
    by_class: dict = {}   # id of a class's f dict -> (f dict, sum of a_z)
    for w, c in a.terms.items():
        p = f[tbl.index[w]]
        g = by_class.setdefault(id(p), (p, {}))[1]
        for e, x in c.c.items():
            g[e] = g.get(e, 0) + x
    sums: dict = {}
    for p, g in by_class.values():
        for mu, fp in p.items():
            _mac(sums.setdefault(mu, {}), fp, g)
    out = []
    for lam in lams:
        acc: dict = {}
        for mu, g in sums.items():
            _mac(acc, g, _young_trace(tuple(lam), mu).c)
        out.append(LaurentQ(acc))
    return out


def _min_right_descent(tbl, gi: int):
    li = tbl.lengths[gi]
    for s in range(tbl.n - 1):
        if tbl.lengths[tbl.rmult[gi][s]] < li:
            return s
    return None


@lru_cache(maxsize=None)
def build_trace_table(n: int, J: frozenset) -> dict:
    """trace of right multiplication by T_z on the quotient module, for
    every z in S_n, as a dict z -> LaurentQ.

    Walks the right weak order as a tree (parent strips the smallest
    right descent) depth-first, carrying the sparse matrix of T_(prefix)
    along each branch so every matrix is built exactly once.
    """
    tbl, reps, _ = _quotient(n, J)
    m = len(reps)
    action = _action(n, J)
    traces: list = [None] * len(tbl)

    def trace_of(mat) -> dict:
        total: dict = {}
        for i, row in enumerate(mat):
            for e, c in row.get(i, {}).items():
                total[e] = total.get(e, 0) + c
        return total

    def apply_gen(mat, s):
        act = action[s]
        out = []
        for row in mat:
            new: dict = {}
            for c, p in row.items():
                for c2, kind in act[c]:
                    tgt = new.setdefault(c2, {})
                    for e, v in p.items():
                        if kind == 0:
                            tgt[e] = tgt.get(e, 0) + v
                        else:
                            tgt[e + 1] = tgt.get(e + 1, 0) + v
                            if kind == 2:
                                tgt[e] = tgt.get(e, 0) - v
            out.append({c2: {e: v for e, v in tgt.items() if v}
                        for c2, tgt in new.items()})
        return out

    # an entry holds its parent's matrix and the child's is built when it
    # is popped, so only the matrices along one branch are alive
    stack = [(0, None, None)]
    while stack:
        gi, s, parent = stack.pop()
        if parent is None:
            mat = [{i: {0: 1}} for i in range(m)]
        else:
            mat = apply_gen(parent, s)
        traces[gi] = trace_of(mat)
        li = tbl.lengths[gi]
        for s in range(n - 1):
            us = tbl.rmult[gi][s]
            if tbl.lengths[us] > li and _min_right_descent(tbl, us) == s:
                stack.append((us, s, mat))

    return {tbl.perms[gi]: LaurentQ({2 * e: c for e, c in t.items()})
            for gi, t in enumerate(traces)}


def trace_route_character(a: HeckeElement, J) -> LaurentQ:
    """c_J(a) summed over the support of a from `build_trace_table`."""
    table = build_trace_table(a.n, frozenset(J))
    total = ZERO
    for w, c in a.terms.items():
        total = total + c * table[w]
    return total


# -- Kazhdan-Lusztig elements --------------------------------------------------
#
# The tuple-and-LaurentQ recursion that the library's index core replaced:
# B_w = B_s B_{w'} - sum mu(z, w') v^(len(w)-len(z)) B_z, computed with
# HeckeElement products, on the smallest left descent (`element`) or the
# smallest right descent (`element_right`).

def mul_ts_left(a: HeckeElement, i: int) -> HeckeElement:
    """T_{s_i} * a: T_s T_w = T_{sw} when sw is longer, else
    (q-1) T_w + q T_{sw}."""
    d: dict = {}
    for w, c in a.terms.items():
        sw = apply_s_left(w, i)
        if w.index(i) < w.index(i + 1):  # sw longer
            d[sw] = d.get(sw, ZERO) + c
        else:
            d[sw] = d.get(sw, ZERO) + c * Q
            d[w] = d.get(w, ZERO) + c * (Q - ONE)
    return HeckeElement(a.n, d)


def laurent_bott_samelson_product(word, n: int) -> HeckeElement:
    """prod (1 + T_s) over the word by LaurentQ products, one factor at a
    time."""
    out = HeckeElement.unit(n)
    for i in word:
        out = out + out.mul_ts_right(i)
    return out


def tuple_bott_samelson_product(word, n: int) -> HeckeElement:
    """prod (1 + T_s) over the word on permutation tuples, each term's
    q-coefficients packed in one int of signed (k + 2)-bit fields: the
    reference for the index kernel `hecke._product_terms`."""
    width = len(word) + 2
    terms = {tuple(range(1, n + 1)): 1}
    for i in word:
        nxt: dict = {}
        for w, x in terms.items():
            if w[i - 1] > w[i]:   # ws shorter
                x <<= width
            ws = w[:i - 1] + (w[i], w[i - 1]) + w[i + 1:]
            nxt[w] = nxt.get(w, 0) + x
            nxt[ws] = nxt.get(ws, 0) + x
        terms = nxt
    return HeckeElement(n, {w: from_q_coefficients(unpack_signed(x, width))
                            for w, x in terms.items()})


def residue_expand_cprime(ctx, a: HeckeElement) -> dict:
    """a = sum_w coeff(w) B_w by triangular elimination on whole
    `HeckeElement` residues, taking the largest (length, one-line) term of
    the residue at each step: the reference for `KLContext.expand_cprime`,
    which eliminates on the context's indices."""
    residue, out = a, {}
    while residue.terms:
        w = max(residue.terms, key=lambda u: (length(u), u))
        out[w] = c = residue.terms[w]
        residue = residue - ctx.element(w).scale(c)
    return out


class TupleKL:
    """Kazhdan-Lusztig elements of S_n by descent recursion on tuples."""

    def __init__(self, n: int):
        self.n = n
        self._left: dict = {}
        self._right: dict = {}

    def element(self, w) -> HeckeElement:
        return self._element(tuple(w), self._left, left_descents,
                             apply_s_left, mul_ts_left)

    def element_right(self, w) -> HeckeElement:
        return self._element(tuple(w), self._right, right_descents,
                             apply_s_right, HeckeElement.mul_ts_right)

    def _element(self, w, memo, descents, apply_s, mul_ts):
        out = memo.get(w)
        if out is not None:
            return out
        ds = descents(w)
        if not ds:
            out = HeckeElement.unit(self.n)
        else:
            s = min(ds)
            wp = apply_s(w, s)
            base = self._element(wp, memo, descents, apply_s, mul_ts)
            out = mul_ts(base, s) + base
            lw, lwp = length(w), length(wp)
            for z in sorted(base.terms, key=length, reverse=True):
                d = lwp - length(z) - 1
                if z == wp or s not in descents(z) or d % 2:
                    continue
                m = base.terms[z].coeff(d)
                if m:
                    out = out - self._element(
                        z, memo, descents, apply_s, mul_ts).scale(
                            LaurentQ({lw - length(z): m}))
        memo[w] = out
        return out


def shift_defect(ctx, w: int, terms: dict):
    """`KLContext._defect` by shifts and masks on each packed P_{z,w},
    with no per-polynomial bounds: the constant field is 1, bits 30 and
    31 of every field up to the top degree n(n-1)/2 are clear, and no
    field lies at or above q^((l(w)-l(z))/2) for z != w.  A z at least
    two longer than w makes the shift negative and raises ValueError."""
    field = (1 << W) - 1
    n, ix = ctx.n, ctx._index
    lengths, perms = ix.lengths, ix.perms
    if terms.get(w) != 1:
        return f"leading coefficient of B_{perms[w]} is not 1"
    lw = lengths[w]
    high = sum(3 << 30 << W * k for k in range(n * (n - 1) // 2 + 1))
    for z, p in terms.items():
        if p & high or p & field != 1 or (
                p >> W * ((lw - lengths[z] + 1) // 2) and z != w):
            return (f"constant term, degree bound or range fails for "
                    f"P_({perms[z]},{perms[w]}) = {ctx._views[p]}")
    return None


def pair_defect(ctx, w: int, terms: dict):
    """Why B_w = {z: P_{z,w}} on the indices of `ctx` breaks
    P_{x,w} = P_{sx,w} (s in D_L(w) \\ D_L(x)) or P_{x,w} = P_{xs,w}
    (s in D_R(w) \\ D_R(x)), du Cloux's extremal pairs, or lacks sx < x
    for some x (B_w lives on [e, w]), or None; for w != e these catch any
    single changed polynomial.  Numbers the right steps it takes."""
    ix = ctx._index
    ldesc, rdesc, perms = ix.ldesc, ix.rdesc, ix.perms
    for x, p in terms.items():
        for mask, mult, want in ((ldesc[x], ix.left, None),
                                 (ldesc[w] & ~ldesc[x], ix.left, p),
                                 (rdesc[w] & ~rdesc[x], ix.right, p)):
            while mask:
                s = (mask & -mask).bit_length() - 1
                mask &= mask - 1
                if (y := mult(x, s)) not in terms:
                    return (f"B_{perms[w]} has a term at {perms[x]} "
                            f"but none at {perms[y]}")
                if want and terms[y] != want:
                    return (f"P_({perms[x]},{perms[w]}) differs from "
                            f"P_({perms[y]},{perms[w]})")
    return None


# -- the plethystic LLT over rational functions ------------------------------

def _divmod_laurent(a: LaurentQ, b: LaurentQ):
    """Long division a = q*b + r, working in v after clearing valuations."""
    if not b.c:
        raise ZeroDivisionError("division by the zero polynomial")
    if not a.c:
        return ZERO, ZERO
    sa, sb = min(a.c), min(b.c)
    ra = {e - sa: c for e, c in a.c.items()}
    db = b.max_vexp() - sb
    lead = b.c[db + sb]
    rest = [(e - sb, c) for e, c in b.c.items() if e - sb != db]
    quot = {}
    for da in range(max(ra), db - 1, -1):
        c = ra.pop(da, 0)
        if c:
            exact = isinstance(c, int) and isinstance(lead, int) \
                and not c % lead
            f = quot[da - db] = c // lead if exact else Fraction(c) / lead
            for e, x in rest:
                ra[e + da - db] = ra.get(e + da - db, 0) - f * x
    return LaurentQ(quot).shift(sa - sb), LaurentQ(ra).shift(sa)


def exact_div(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """a / b in Q[v, 1/v]; ValueError if a remainder is left."""
    q, r = _divmod_laurent(a, b)
    if r.c:
        raise ValueError(f"inexact division: {a} by {b}")
    return q


def poly_gcd(a: LaurentQ, b: LaurentQ) -> LaurentQ:
    """Monic gcd over Q[v], up to units (v-powers are units here)."""
    if not a.c:
        x = b
    elif not b.c:
        x = a
    else:
        x, y = a.shift(-min(a.c)), b.shift(-min(b.c))
        while y.c:
            x, y = y, _divmod_laurent(x, y)[1]
            if y.c:
                y = y.shift(-min(y.c))
    if not x.c:
        return ZERO
    x = x.shift(-min(x.c))
    lead = x.c[x.max_vexp()]
    return x if lead == 1 else x * Fraction(1, lead)


class LaurentFrac:
    """A ratio of two LaurentQ values.

    Normal form: the denominator is a polynomial in v with valuation 0,
    monic, and coprime to the numerator.  `plethysm_scale` divides by
    q^k - 1 in this form before `frac_llt_plethysm` clears the
    denominators again.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentQ, den: LaurentQ = None):
        if den is None:
            den = ONE
        if not den.c:
            raise ZeroDivisionError("zero denominator")
        g = poly_gcd(num, den)
        if g.c and g != ONE:
            num = exact_div(num, g)
            den = exact_div(den, g)
        shift = min(den.c) if den.c else 0
        if shift:
            den = den.shift(-shift)
            num = num.shift(-shift)
        lead = den.c[den.max_vexp()]
        if lead != 1:
            inv = Fraction(1, lead)
            den = den * inv
            num = num * inv
        self.num = num
        self.den = den

    def __add__(self, other):
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return LaurentFrac(self.num * other.den + other.num * self.den,
                           self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return LaurentFrac(-self.num, self.den)

    def __sub__(self, other):
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return LaurentFrac(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce_frac(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __bool__(self):
        return bool(self.num)

    def is_polynomial(self) -> bool:
        return self.den == ONE

    def clear(self) -> LaurentQ:
        """Return the numerator, asserting the denominator has cleared."""
        if self.den != ONE:
            raise ValueError(f"denominator did not clear: {self.den}")
        return self.num

    def __str__(self):
        if self.den == ONE:
            return str(self.num)
        return f"({self.num})/({self.den})"

    def __repr__(self):
        return f"LaurentFrac({self.num!r}, {self.den!r})"


def _coerce_frac(x):
    if isinstance(x, LaurentFrac):
        return x
    if isinstance(x, LaurentQ):
        return LaurentFrac(x)
    if isinstance(x, (int, Fraction)):
        return LaurentFrac(LaurentQ({0: x}))
    return None


def plethysm_scale(f: SymFunc, mode: str) -> SymFunc:
    """Rescale power sums: p_k -> p_k (q^k - 1) ("times") or
    p_k / (q^k - 1) ("divide"), extended multiplicatively over p_lam and
    linearly.  The two modes are mutually inverse.

    In divide mode coefficients may leave the polynomial ring; they are
    returned as exact fractions and must be cleared by the caller
    (`SymFunc.map_coeffs` with `LaurentFrac.clear`) after the compensating
    multiplication.
    """
    if mode not in ("times", "divide"):
        raise ValueError(f"unknown mode {mode!r}")
    fp = oracle_to_basis(f, "p")
    out = {}
    for lam, c in fp.coeffs.items():
        factor = ONE
        for k in lam:
            factor = factor * (q_power(k) - ONE)
        if mode == "times":
            out[lam] = (c * factor if not isinstance(c, LaurentFrac)
                        else c * LaurentFrac(factor))
        else:
            if isinstance(c, LaurentFrac):
                out[lam] = c * LaurentFrac(ONE, factor)
            else:
                out[lam] = LaurentFrac(c, factor)
    return SymFunc("p", fp.degree, out)


def frac_llt_plethysm(w) -> SymFunc:
    """(q-1)^n omega(ch(B_w))[x/(q-1)] in the Schur basis: power sums
    rescaled by 1/(q^k - 1) as LaurentFrac coefficients, multiplied by
    (q-1)^n, and cleared one coefficient at a time."""
    w = tuple(w)
    n = len(w)
    ch = frobenius_character(kl_context(n).element(w))
    scaled = plethysm_scale(omega(ch), "divide")
    qm1n = (Q - ONE) ** n
    cleared = scaled.map_coeffs(
        lambda c: (c * qm1n).clear() if isinstance(c, LaurentFrac)
        else c * qm1n)
    return oracle_to_basis(cleared, "s")


@lru_cache(maxsize=None)
def _llt_map(n: int) -> tuple:
    """(cols, top, den): f -> (q-1)^n omega(f)[x/(q-1)] from the m-basis
    to the Schur basis over one denominator.  The image of m_nu is
    sum_mu cols[nu][mu] s_mu / den, cols[nu][mu] a list of integer
    q-coefficients (constant term first) whose absolute values are at
    most top.

    omega(m_nu) = sum_lam a_lam p_lam, and the substitution sends p_lam to
    p_lam (q-1)^n / prod_i (q^lam_i - 1) = p_lam g_lam / [n]_q! with
    g_lam = [n]_q! (q-1)^(n - len(lam)) / prod_i [lam_i]_q, a polynomial
    because prod_i [lam_i]_q divides [n]_q!.  Each z_lam divides n!, so
    den = n! [n]_q! clears the rational a_lam too.
    """
    den = math.prod(map(gauss_number, range(2, n + 1)),
                    start=LaurentQ({0: math.factorial(n)}))
    cols = {}
    for nu in partitions(n):
        scaled = {}
        for lam, a in omega(SymFunc.basis_element("m", nu)
                            .to_basis("p")).coeffs.items():
            g = (den * (Q - ONE) ** (n - len(lam)) * a).q_coefficients()
            for k in lam:
                g = _divide(g, [1] * k)   # by [k]_q
            scaled[lam] = from_q_coefficients(g)
        cols[nu] = {mu: g.q_coefficients() for mu, g in
                    SymFunc("p", n, scaled).to_basis("s").coeffs.items()}
    top = max(abs(c) for col in cols.values() for g in col.values()
              for c in g)
    return cols, top, den


@lru_cache(maxsize=None)
def _packed_cols(n: int, bits: int) -> dict:
    """The columns of `_llt_map(n)`, each packed into one int."""
    return {nu: {mu: pack_signed(enumerate(g), bits)
                  for mu, g in col.items()}
            for nu, col in _llt_map(n)[0].items()}


def map_llt_plethysm(a: HeckeElement) -> SymFunc:
    """(q-1)^n omega(ch(a))[x/(q-1)] in the Schur basis: ch(a) pushed
    through the linear map `_llt_map(n)` on packed integer columns, then
    one exact division of each Schur coefficient by the common
    denominator (ValueError if a remainder is left).  The route the class
    sum from closed seeds replaced."""
    n = a.n
    ch = frobenius_character(a)
    _, top, den = _llt_map(n)
    chq = {nu: c.q_coefficients() for nu, c in ch.coeffs.items()}
    # no coefficient of a numerator exceeds top * (sum of |ch coefficients|)
    bits = signed_width(top * sum(abs(c) for cs in chq.values() for c in cs))
    packed = _packed_cols(n, bits)
    nums: dict = {}
    for nu, cs in chq.items():
        x = pack_signed(enumerate(cs), bits)
        for mu, y in packed[nu].items():
            nums[mu] = nums.get(mu, 0) + x * y
    dcs = den.q_coefficients()
    return SymFunc("s", n)._like({
        mu: from_q_coefficients(_divide(unpack_signed(x, bits), dcs))
        for mu, x in nums.items() if x})


def _divide(num: list, den: list) -> list:
    """num / den on integer q-coefficient lists; ValueError on a remainder."""
    rem, quot, top = list(num), [], len(den) - 1
    for i in reversed(range(len(num) - top)):
        t = rem[i + top] // den[-1]   # an inexact step leaves a remainder
        quot.append(t)
        for j, d in enumerate(den):
            rem[i + j] -= t * d
    if any(rem):
        raise ValueError(f"inexact division: {from_q_coefficients(num)} "
                         f"by {from_q_coefficients(den)}")
    return quot[::-1]


def per_w_conjecture_scan(kind: str, n: int) -> list:
    """`conjecture_scan` with its own class sum for every permutation,
    reading the kernel through the module (so a test can replace it)."""
    shifted, good, yes, no = chromatic._SCANS[kind]
    ctx = kl_context(n)
    cc = chromatic._llt_chars(n, True) if shifted else _h_chars(n)
    rows = []
    for w in perm_table(n).perms:
        bad = [lam for lam, c in
               chromatic._class_sum(cc, ctx.terms(w)).items() if not good(c)]
        rows.append(chromatic.ScanRow(
            w, kind, not bad, no + chromatic._plist(bad) if bad else yes))
    return rows


def direct_jacobi_trudi(lam, mu=()) -> SymFunc:
    """det(h_(lam_i - mu_j + j - i)) in the h-basis, one signed term per
    permutation of the rows with no negative index (h_0 = 1)."""
    k = max(len(lam), len(mu))
    lamp = tuple(lam) + (0,) * (k - len(lam))
    mup = tuple(mu) + (0,) * (k - len(mu))
    total: dict = {}
    for w in permutations(range(k)):
        inv = sum(1 for i in range(k) for j in range(i + 1, k)
                  if w[i] > w[j])
        ds = [lamp[i] - mup[w[i]] + w[i] - i for i in range(k)]
        if all(d >= 0 for d in ds):
            key = tuple(sorted((d for d in ds if d), reverse=True))
            _acc(total, key, LaurentQ({0: -1 if inv % 2 else 1}))
    return SymFunc("h", sum(lam) - sum(mu), total)


def z_matrix(n: int):
    """The n x n matrix with p_(j-i+1) on and above the diagonal, the
    integers 1..n-1 on the subdiagonal, zeros below; its determinant is
    n! e_n and its permanent n! h_n."""
    rows = []
    for i in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j >= i:
                row.append(SymFunc.basis_element("p", (j - i + 1,)))
            elif j == i - 1:
                row.append(i - 1)
            else:
                row.append(0)
        rows.append(row)
    return rows


def newton_check(n: int) -> bool:
    """Verify the factorial expansions of e_n and h_n through power sums
    and through the determinant/permanent of `z_matrix`, by exact
    expansion; raises on the first failing identity."""
    config.check_n(n)
    fact = 1
    for i in range(2, n + 1):
        fact *= i
    en = {mu: LaurentQ({0: class_size(mu) * sign_partition(mu)})
          for mu in partitions(n)}
    hn = {mu: LaurentQ({0: class_size(mu)}) for mu in partitions(n)}
    e_ref = SymFunc("e", n, {(n,): fact}).to_basis("p")
    h_ref = SymFunc("h", n, {(n,): fact}).to_basis("p")
    if SymFunc("p", n, en) != e_ref:
        raise AssertionError("power-sum expansion of n! e_n failed")
    if SymFunc("p", n, hn) != h_ref:
        raise AssertionError("power-sum expansion of n! h_n failed")
    if n >= 1:
        zn = z_matrix(n)
        det = immanant((1,) * n, zn)
        per = immanant((n,), zn)
        if det.to_basis("p") != e_ref:
            raise AssertionError("determinant form of n! e_n failed")
        if per.to_basis("p") != h_ref:
            raise AssertionError("permanent form of n! h_n failed")
    return True
