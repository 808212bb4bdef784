"""
Parabolic quotients of S_n and induced characters of Hecke elements.

For J a set of simple-transposition indices, W_J is the Young subgroup
they generate and JW denotes the minimal-length representatives of the
right cosets W_J \\ w, ordered by (length, one-line notation).  The right
action w ._J s keeps w when ws leaves JW and moves to ws otherwise; it
extends to an action of H_n on the free module over JW, and the trace of
right multiplication by a is the induced character c_J(a).

Two independent routes to c_J are implemented:

  * class polynomials, for any a: c_J is fixed by its values on T_{w_mu},
    w_mu of minimal length in the class of cycle type mu, and
    c_J(a) = sum_mu (sum_z a_z f_{z,mu}) c_J(T_{w_mu}) with integer class
    polynomials f_{z,mu}; and
  * binary words, for a product (1+T_{s_1})...(1+T_{s_k}): the fixed
    points of the up/down maps phi_{J,s,1}(w) = max(w ._J s, w),
    phi_{J,s,0}(w) = min(w ._J s, w) composed along the word, weighted by
    q^(number of 1s).

The trace route (traces of T_z from sparse matrix products) is kept as a
cross-check in `tests/oracles.py`.

A third route runs over all of W rather than JW: a binary word b is
*good* for w if the composite of the absolute up/down maps fixes w and
every left descent of w inside J is witnessed by a step where right
multiplication by the letter equals left multiplication by the descent.
Summing q^(number of 1s) over good pairs gives the same character, and
projecting good pairs to coset minima is a bijection onto the quotient
fixed-point pairs.  Good pairs also carry a sequence of positive roots
(one per 1-bit) certifying an affine cell of that dimension.

All binary-word routes step through one up/down kernel per quotient
table (the absolute dynamics is the table at J = {}).  The fixed-point
and good-word *counts* merge the paths that meet at the same state, so
they cost O(k * |states|) per start for a word of length k, where a
state is a quotient element or a pair (permutation, witness mask).
`bin_set` and `good_words` keep only the states some word passes, so
they cost O(k * (states + words found)) per start; `kappa` checks and
projects one pair on indices in O(k + len(w)) steps.

Everything here is exact and deterministic; the hot loops run on integer
indices from `coxeter.perm_table`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache

from .coxeter import (
    Perm, Word, apply_s_left, apply_s_right, cycle_type, identity,
    left_descents, left_inversions, perm_table,
)
from .hecke import HeckeElement
from .laurentq import ONE, ZERO, LaurentQ, from_packed

__all__ = [
    "ParabolicQuotient", "parabolic_quotient", "min_coset_rep",
    "dot_action", "hecke_dot_matrix", "induced_character",
    "induced_characters", "trace_table",
    "bott_samelson_character", "phi", "bin_set",
    "good_words", "good_word_character", "good_word_characters_all_j",
    "kappa", "derive_root_sequence", "is_good_sequence",
    "young_subgroup_generators", "all_parabolic_subsets",
]


def _check_j(n: int, J) -> frozenset:
    return _valid_j(n, frozenset(J))


@cache
def _valid_j(n: int, J: frozenset) -> frozenset:
    J = frozenset(int(j) for j in J)
    if any(not 1 <= j <= n - 1 for j in J):
        raise ValueError(f"invalid generator indices for n={n}: {sorted(J)}")
    return J


def min_coset_rep(w: Perm, J) -> Perm:
    """The minimal-length element of W_J w (strip left descents in J)."""
    J = _check_j(len(w), J)
    while ds := left_descents(w) & J:
        w = apply_s_left(w, min(ds))
    return w


@dataclass(frozen=True)
class ParabolicQuotient:
    """The set JW of minimal right-coset representatives, in a fixed order."""
    n: int
    J: frozenset
    reps: tuple
    index: dict = field(repr=False)

    def __len__(self):
        return len(self.reps)

    def __contains__(self, w):
        return tuple(w) in self.index


class _QuotientTable:
    """Index-level data for one (n, J): local numbering of JW, the dot
    action, and the induced-module action of each T_s."""

    def __init__(self, n: int, J: frozenset):
        tbl = perm_table(n)
        self.tbl, self.n, self.J = tbl, n, J
        # no left descent in J; table order is (length, lex) already
        jmask = _gen_mask(J)
        reps = self.reps = [gi for gi in range(len(tbl))
                            if not tbl.ldesc[gi] & jmask]
        self.loc = {gi: i for i, gi in enumerate(reps)}
        # steps[s-1][i] = (up, down, wit): the up/down step kernel on local
        # indices.  up = max(w ._J s, w) and down = the min; the two differ
        # in length unless they coincide, and local order refines length,
        # so max/min on indices are max/min in the Bruhat order.  Bit t-1
        # of wit is set when s_t w = w s (the witness condition of good
        # words); at J = {} this is the absolute dynamics on all of W.
        self.steps = []
        for s in range(n - 1):
            row = []
            for i, gi in enumerate(reps):
                ws = tbl.rmult[gi][s]
                j = self.loc.get(ws, i)
                wit = sum(1 << t for t, tw in enumerate(tbl.lmult[gi])
                          if tw == ws)
                row.append((max(i, j), min(i, j), wit))
            self.steps.append(row)
        # action[s-1][i]: the row of right multiplication by T_s at basis
        # vector i, as ((target, kind), ...) with kind 0 -> 1, 1 -> q,
        # 2 -> q-1
        self.action = []
        for s in range(n - 1):
            rows = []
            for i, gi in enumerate(reps):
                ws = tbl.rmult[gi][s]
                j = self.loc.get(ws)
                if j is None:
                    rows.append(((i, 1),))
                elif tbl.lengths[ws] > tbl.lengths[gi]:
                    rows.append(((j, 0),))
                else:
                    rows.append(((j, 1), (i, 2)))
            self.action.append(rows)


_quotients: dict = {}


def _quotient_table(n: int, J: frozenset) -> _QuotientTable:
    key = (n, J)
    qt = _quotients.get(key)
    if qt is None:
        qt = _quotients.setdefault(key, _QuotientTable(n, J))
    return qt


def parabolic_quotient(n: int, J) -> ParabolicQuotient:
    """The quotient JW with reps sorted by (length, one-line notation)."""
    J = _check_j(n, J)
    qt = _quotient_table(n, J)
    reps = tuple(qt.tbl.perms[gi] for gi in qt.reps)
    return ParabolicQuotient(n, J, reps, {w: i for i, w in enumerate(reps)})


def dot_action(w: Perm, s: int, Q: ParabolicQuotient) -> Perm:
    """w ._J s = ws if ws stays in JW, else w.  Requires w in JW."""
    w = tuple(w)
    if not 1 <= s <= Q.n - 1:
        raise ValueError(f"generator index out of range: {s}")
    if w not in Q.index:
        raise ValueError(f"{w} is not a minimal coset representative")
    ws = apply_s_right(w, s)
    return ws if ws in Q.index else w


def hecke_dot_matrix(s: int, Q: ParabolicQuotient):
    """The matrix of right multiplication by T_s on the quotient module,
    rows and columns in the order of Q.reps.

    Row w reads: q*[w] when ws leaves JW; [ws] when ws is a longer rep;
    q*[ws] + (q-1)*[w] when ws is a shorter rep.  At J = {} this is the
    regular representation of T_s.
    """
    if not 1 <= s <= Q.n - 1:
        raise ValueError(f"generator index out of range: {s}")
    qt = _quotient_table(Q.n, Q.J)
    m = len(qt.reps)
    kinds = (ONE, LaurentQ({2: 1}), LaurentQ({2: 1, 0: -1}))
    out = [[ZERO] * m for _ in range(m)]
    for i, row in enumerate(qt.action[s - 1]):
        for j, kind in row:
            out[i][j] = out[i][j] + kinds[kind]
    return out


# -- characters from class polynomials ---------------------------------------
#
# A character chi of H_n is a trace function.  When l(sys) = l(y), T_y and
# T_{sys} are T_s X and X T_s for one X, so chi agrees on them (a cyclic
# shift); when l(sys) = l(y) - 2, T_y = T_s T_{sys} T_s gives
#     chi(T_y) = q chi(T_{sys}) + (q-1) chi(T_{sy}).
# Every cyclic-shift class either holds such a y or has minimal length in
# its conjugacy class, where chi is constant (Geck-Pfeiffer, ch. 3 and 8).
# So chi(T_z) = sum_mu f_{z,mu} chi(T_{w_mu}) with integer class
# polynomials f_{z,mu}, w_mu the product of the Coxeter elements of the
# blocks of the cycle type mu.  Polynomials are {v-exponent: int} dicts.

def _mac(acc: dict, x: dict, y: dict) -> None:
    """acc += x * y on {v-exponent: coefficient} dicts (zeros are kept)."""
    for e, c in x.items():
        for d, b in y.items():
            acc[e + d] = acc.get(e + d, 0) + c * b


@cache
def _class_polys(n: int) -> tuple:
    """(f, types): f[z] = {mu: f_{z,mu}} for every perm_table index z, one
    shared dict per cyclic-shift class, and the cycle types mu."""
    tbl = perm_table(n)
    lengths, lmult, rmult = tbl.lengths, tbl.lmult, tbl.rmult
    f: list = [None] * len(tbl)
    types = []
    # table order is by length, so every shorter element is done already
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


@cache
def _class_traces(n: int, J: frozenset) -> dict:
    """{mu: c_J(T_{w_mu})} for every cycle type mu.

    The reduced word of w_mu uses each letter at most once, so a nonempty
    set of moves along it never multiplies back to the identity: pushing
    the basis vector x through the word returns to x only on the path that
    stays at x.  The trace is therefore the sum over x of the products of
    the diagonal entries of T_s at x: q when xs leaves JW, q-1 when xs is
    a shorter rep, 0 when it is a longer one.
    """
    qt = _quotient_table(n, J)
    out = {}
    for mu in _class_polys(n)[1]:
        word, start = [], 0
        for part in mu:
            word.extend(range(start, start + part - 1))
            start += part
        acc: dict = {}
        for x in range(len(qt.reps)):
            kinds = [dict(qt.action[s][x]).get(x) for s in word]
            if None not in kinds:   # q^a (q-1)^b
                a, b = kinds.count(1), kinds.count(2)
                for j in range(b + 1):
                    e = 2 * (a + j)
                    acc[e] = acc.get(e, 0) + (-1) ** (b - j) * math.comb(b, j)
        out[mu] = {e: c for e, c in acc.items() if c}
    return out


def induced_characters(a: HeckeElement, Js) -> list:
    """[c_J(a) for J in Js]: the trace of right multiplication by a on each
    quotient module, as sum_mu (sum_z a_z f_{z,mu}) c_J(T_{w_mu}); the
    inner sums are formed once for all J."""
    tbl, (f, _) = perm_table(a.n), _class_polys(a.n)
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
    for J in Js:
        traces = _class_traces(a.n, _check_j(a.n, J))
        acc: dict = {}
        for mu, g in sums.items():
            _mac(acc, g, traces[mu])
        out.append(LaurentQ(acc))
    return out


def induced_character(a: HeckeElement, J) -> LaurentQ:
    """c_J(a): the trace of right multiplication by a on the quotient
    module, extended linearly over the T-basis support of a."""
    return induced_characters(a, [J])[0]


def trace_table(n: int, J) -> dict:
    """{z: trace of T_z on the quotient module} for every z in S_n."""
    return {w: induced_character(HeckeElement.t_basis(n, w), J)
            for w in perm_table(n).perms}


# -- binary words --------------------------------------------------------------
#
# Every route below steps through the kernel `steps` of a quotient table;
# the absolute dynamics on all of W is the table at J = {}.  Counts sweep
# the word once per start and merge the paths that meet at the same state
# (a transfer matrix), so a start costs at most k * |states| steps.  The
# count vector over the number of 1s rides in one int, `width` bits per
# coefficient (Kronecker packing): a 1-bit shifts by `width`, and merging
# two paths is an int add.  One start counts each word at most once and
# there are binom(k, e) words with e ones, so over m starts every
# coefficient is at most m * binom(k, k // 2); `width` is the bit length
# of that bound, and no field carries into the next.  The bound is
# reached (n = 3, J = {1, 2}), so one bit less would overflow.
# Enumeration keeps only the states from which some word returns, so a
# start costs O(k * (states + words found)).

def _word_indices(sigma: Word, n: int) -> tuple:
    return _valid_word(tuple(sigma), n)


@lru_cache(maxsize=1 << 12)
def _valid_word(sigma: tuple, n: int) -> tuple:
    sigma = tuple(int(s) for s in sigma)
    if any(not 1 <= s <= n - 1 for s in sigma):
        raise ValueError(f"word {sigma} has letters outside 1..{n - 1}")
    return tuple(s - 1 for s in sigma)


def _bits(b, k: int) -> tuple:
    """b as a tuple of ints, checked to be a binary word of length k."""
    b = tuple(map(int, b))
    if len(b) != k:
        raise ValueError("binary word and letter word differ in length")
    if set(b) - {0, 1}:
        raise ValueError(f"not a binary word: {b}")
    return b


def _state(qt: _QuotientTable, w: Perm) -> int:
    if (gi := qt.tbl.index.get(w)) is None:
        raise ValueError(f"not a permutation of 1..{qt.n}: {w}")
    if (i := qt.loc.get(gi)) is None:
        raise ValueError(f"{w} is not a minimal coset representative")
    return i


@cache
def _gen_mask(J: frozenset) -> int:
    return sum(1 << (j - 1) for j in J)


def _count_width(k: int, starts: int) -> int:
    return (starts * math.comb(k, k // 2)).bit_length()


def _sweep(steps: list, sig: tuple, start: int, need: int,
           width: int) -> dict:
    """Packed counts of the words whose composite returns to start, keyed
    by the set of witness bits inside need that they collect."""
    vec = {(start, 0): 1}
    for s in sig:
        row = steps[s]
        nxt: dict = {}
        get = nxt.get
        for (u, mask), x in vec.items():
            up, down, wit = row[u]
            mask |= wit & need
            key = (up, mask)
            nxt[key] = get(key, 0) + (x << width)
            key = (down, mask)
            nxt[key] = get(key, 0) + x
        vec = nxt
    return {mask: x for (u, mask), x in vec.items() if u == start}


def _walk(steps: list, sig: tuple, start: int, need: int) -> set:
    """The words whose composite returns to start and that collect every
    witness bit in need.  A forward sweep finds the states (u, mask) at
    each step, a backward one the tails completing a word from each; dead
    states get none, and every tail kept is part of a word."""
    reach = [{(start, 0)}]
    for s in sig:
        row, nxt = steps[s], set()
        for u, mask in reach[-1]:
            up, down, wit = row[u]
            mask |= wit & need
            nxt.add((up, mask))
            nxt.add((down, mask))
        reach.append(nxt)
    if (start, need) not in reach[-1]:
        return set()
    tails = {(start, need): [()]}
    for i in range(len(sig) - 1, -1, -1):
        row, get, tails = steps[sig[i]], tails.get, {}
        for u, mask in reach[i]:
            up, down, wit = row[u]
            m = mask | wit & need
            hi, lo = get((up, m), ()), get((down, m), ())
            if hi or lo:
                tails[u, mask] = ([(1,) + t for t in hi]
                                  + [(0,) + t for t in lo])
    return set(tails.get((start, 0), ()))


def bott_samelson_character(sigma: Word, J, n: int) -> LaurentQ:
    """c_J of the product (1+T_{s_1})...(1+T_{s_k}), by counting binary
    words fixing each quotient element under the up/down composites,
    weighted by q^(number of 1s)."""
    J = _check_j(n, J)
    qt = _quotient_table(n, J)
    sig = _word_indices(sigma, n)
    width = _count_width(len(sig), len(qt.reps))
    total = 0
    for start in range(len(qt.reps)):
        total += _sweep(qt.steps, sig, start, 0, width).get(0, 0)
    return from_packed(total, width)


def _run(w: Perm, sigma: Word, b, J) -> tuple:
    """Check the input and follow b from w in the quotient table qt of J:
    (qt, b as ints, the path w_0..w_k as local indices, witness bits)."""
    w = tuple(w)
    sig = _word_indices(sigma, len(w))
    b = _bits(b, len(sig))
    qt = _quotient_table(len(w), _check_j(len(w), J))
    path, witnessed = [_state(qt, w)], 0
    for s, bit in zip(sig, b):
        up, down, wit = qt.steps[s][path[-1]]
        witnessed |= wit
        path.append(up if bit else down)
    return qt, b, path, witnessed


def phi(w: Perm, sigma: Word, b, J=None) -> Perm:
    """Apply the up/down composite to w: at step i go to
    max(w ._J s_i, w) when b_i = 1, to the min when b_i = 0.  With J
    absent the absolute version on all of W is used (every ws counts)."""
    qt, _, path, _ = _run(w, sigma, b, () if J is None else J)
    return qt.tbl.perms[qt.reps[path[-1]]]


def bin_set(w: Perm, sigma: Word, J, n: int | None = None) -> set:
    """All binary words whose quotient composite fixes w (w must lie in
    JW), in O(k * (states + words found)) for a word of length k."""
    w = tuple(w)
    n = len(w) if n is None else n
    qt = _quotient_table(n, _check_j(n, J))
    return _walk(qt.steps, _word_indices(sigma, n), _state(qt, w), 0)


# -- good words ---------------------------------------------------------------

def good_words(w: Perm, sigma: Word, J) -> set:
    """All binary words good for w: the absolute composite fixes w and
    every left descent of w lying in J is witnessed at some step."""
    w = tuple(w)
    qt = _quotient_table(len(w), frozenset())
    start = _state(qt, w)
    need = qt.tbl.ldesc[start] & _gen_mask(_check_j(len(w), J))
    return _walk(qt.steps, _word_indices(sigma, len(w)), start, need)


def good_word_character(sigma: Word, J, n: int) -> LaurentQ:
    """Sum of q^(number of 1s) over all good pairs (w, b), w in S_n."""
    jmask = _gen_mask(_check_j(n, J))
    qt = _quotient_table(n, frozenset())
    sig = _word_indices(sigma, n)
    width = _count_width(len(sig), len(qt.reps))
    total = 0
    for start in range(len(qt.reps)):
        need = qt.tbl.ldesc[start] & jmask
        total += _sweep(qt.steps, sig, start, need, width).get(need, 0)
    return from_packed(total, width)


def good_word_characters_all_j(sigma: Word, n: int) -> dict:
    """The good-word character for every subset J at once.

    One sweep per starting permutation tracks witness bits for all its
    left descents; each J then reads off the words whose witnessed set
    covers its own descents.  Returns {frozenset J: LaurentQ}.
    """
    qt = _quotient_table(n, frozenset())
    sig = _word_indices(sigma, n)
    width = _count_width(len(sig), len(qt.reps))
    totals = {J: 0 for J in all_parabolic_subsets(n)}
    jmasks = [(J, _gen_mask(J)) for J in totals]
    for start in range(len(qt.reps)):
        desc = qt.tbl.ldesc[start]
        counts = _sweep(qt.steps, sig, start, desc, width)
        # many J share one need: sum the covering masks once per need
        covering: dict = {}
        for J, jmask in jmasks:
            need = desc & jmask
            if need not in covering:
                covering[need] = sum(x for mask, x in counts.items()
                                     if mask & need == need)
            totals[J] += covering[need]
    return {J: from_packed(x, width) for J, x in totals.items()}


def all_parabolic_subsets(n: int) -> list:
    """All subsets of {1..n-1} as frozensets, in a deterministic order."""
    gens = range(1, n)
    return sorted((frozenset(g for g in gens if bits >> (g - 1) & 1)
                   for bits in range(1 << len(gens))),
                  key=lambda J: (len(J), sorted(J)))


def _check_good(w: Perm, sigma: Word, b, J) -> tuple:
    """Validate that b is good for w; return b as ints, the path
    w_0..w_k as perm_table indices, and the table."""
    qt, b, path, witnessed = _run(w, sigma, b, ())
    w, jmask = tuple(w), _gen_mask(_check_j(len(w), J))
    if path[-1] != path[0]:
        raise ValueError(f"{b} does not fix {w} along {tuple(sigma)}")
    if missing := qt.tbl.ldesc[path[0]] & jmask & ~witnessed:
        raise ValueError(f"{b} is not good for {w}: descent "
                         f"{(missing & -missing).bit_length()} has no "
                         "witness step")
    return b, path, qt.tbl


def kappa(w: Perm, b, sigma: Word, J):
    """Project a good pair (w, b) to (min coset representative, b).

    This map is a bijection onto the pairs (wbar, b) with wbar in JW
    fixed by the quotient composite of b.

    >>> kappa((4, 3, 1, 2), (1, 1), (1, 2), {1, 3})
    ((3, 4, 1, 2), (1, 1))
    """
    b, path, tbl = _check_good(w, sigma, b, J)
    u, jmask = path[0], _gen_mask(_check_j(len(w), J))
    while d := tbl.ldesc[u] & jmask:   # strip the lowest descent in J
        u = tbl.lmult[u][(d & -d).bit_length() - 1]
    return tbl.perms[u], b


def derive_root_sequence(w: Perm, sigma: Word, b, J) -> tuple:
    """The positive roots read off the 1-steps of a good pair.

    At the i-th position with b_i = 1 the step satisfies
    t * w_(i-1) = w_(i-1) * s_i for a unique transposition t, namely the
    one swapping the values at positions s_i, s_i + 1 of w_(i-1); the
    sequence of those t (as sorted pairs) is returned.
    """
    b, path, tbl = _check_good(w, sigma, b, J)
    out = []
    for i, (s, bit) in enumerate(zip(sigma, b)):
        if bit:
            u = tbl.perms[path[i]]
            a, c = u[s - 1], u[s]
            out.append((a, c) if a < c else (c, a))
    return tuple(out)


def is_good_sequence(delta, u: Perm, J=None) -> bool:
    """Certificate check for a sequence of positive roots against u.

    Roots are pairs (i, j), i < j, standing for e_i - e_j; the inversion
    roots of u are its left inversions.  The sequence is good for u if
    every inversion root g of u either appears in delta, or g is not
    simple and for each simple root a with g - a a root outside the
    inversion set there is an index where g - a occurs in delta with no
    earlier occurrence of a.

    J restricts the ambient group: u must lie in W_J (for roots g inside
    W_J the relevant simple roots stay inside W_J automatically).
    """
    u = tuple(u)
    n = len(u)
    delta = [tuple(r) for r in delta]
    for i, j in delta:
        if not 1 <= i < j <= n:
            raise ValueError(f"not a positive root for n={n}: {(i, j)}")
    if J is not None:
        J = _check_j(n, J)
        if min_coset_rep(u, J) != identity(n):
            raise ValueError(f"{u} does not lie in the parabolic subgroup")
    inv = left_inversions(u)

    def witnessed(rem, alpha):
        for idx, d in enumerate(delta):
            if d == rem:
                return alpha not in delta[:idx]
        return False

    for g in inv:
        if g in delta:
            continue
        i, j = g
        if j - i == 1:
            return False
        for alpha, rem in (((i, i + 1), (i + 1, j)), ((j - 1, j), (i, j - 1))):
            if rem not in inv and not witnessed(rem, alpha):
                return False
    return True


def young_subgroup_generators(parts, n: int) -> frozenset:
    """The generator set J with W_J the Young subgroup S_parts: all
    indices except the partial sums of the composition."""
    if sum(parts) != n:
        raise ValueError(f"{parts} is not a composition of {n}")
    cuts = set()
    acc = 0
    for p in parts[:-1]:
        acc += p
        cuts.add(acc)
    return frozenset(i for i in range(1, n) if i not in cuts)
