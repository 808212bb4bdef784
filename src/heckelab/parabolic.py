"""
Parabolic quotients of S_n and induced characters of Hecke elements.

For J a set of simple-transposition indices, W_J is the Young subgroup
they generate and JW denotes the minimal-length representatives of the
right cosets W_J \\ w, ordered by (length, one-line notation).  The right
action w ._J s keeps w when ws leaves JW and moves to ws otherwise; it
extends to an action of H_n on the free module over JW, and the trace of
right multiplication by a is the induced character c_J(a).  It depends
only on the sorted block sizes lam of J (W_J is conjugate to S_lam).

Two independent routes to c_J are implemented:

  * class polynomials, for any a: c_J is fixed by its values on T_{w_mu},
    w_mu of minimal length in the class of cycle type mu, which come from
    a closed formula in lam and mu, with no quotient module built; the
    characters of every cyclic-shift class follow from them by the class
    reduction, one packed int per class, and
    c_J(a) = sum_c c * sum_{z : a_z = c} c_J(T_z); and
  * binary words, for a product (1+T_{s_1})...(1+T_{s_k}): the fixed
    points of the up/down maps phi_{J,s,1}(w) = max(w ._J s, w),
    phi_{J,s,0}(w) = min(w ._J s, w) composed along the word, weighted by
    q^(number of 1s).

The trace route (traces of T_z from sparse matrix products on the
quotient module) and the class sums by dict convolutions are kept as
cross-checks in `tests/oracles.py`.

A third route runs over all of W rather than JW: a binary word b is
*good* for w if the composite of the absolute up/down maps fixes w and
every left descent of w inside J is witnessed by a step where right
multiplication by the letter equals left multiplication by the descent.
Summing q^(number of 1s) over good pairs gives the same character, and
projecting good pairs to coset minima is a bijection onto the quotient
fixed-point pairs.  Good pairs also carry a sequence of positive roots
(one per 1-bit) certifying an affine cell of that dimension.

All binary-word routes step through one up/down kernel per quotient
table (the absolute dynamics is the table at J = {}); the tables serve
only these routes and `parabolic_quotient`.  The fixed-point
and good-word *counts* merge the paths that meet at the same state and
sweep a chunk of orbits of the first letter at once, each orbit's
counts in its own block of every state's int: O(k * |states|) shift-adds
per chunk, k the word's length and a state a quotient element or a
(permutation, witness mask) that some orbit of the chunk reaches.
`bin_set` and `good_words` keep only the states some word passes, so
they cost O(k * (states + words found)) per start; `kappa` checks and
projects one pair on indices in O(k + len(w)) steps.

Everything here is exact and deterministic; the hot loops run on integer
indices from `coxeter.perm_table`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, product

from . import config
from .coxeter import (
    Perm, Word, _ints, cycle_type, left_inversions, perm_table,
)
from .hecke import HeckeElement
from .laurentq import (
    ONE, ZERO, LaurentQ, _raw, from_q_coefficients, pack_signed,
    signed_width, unpack_signed,
)

__all__ = [
    "ParabolicQuotient", "parabolic_quotient",
    "induced_character", "induced_characters",
    "bott_samelson_character", "phi", "bin_set",
    "good_words", "good_word_character", "good_word_characters_all_j",
    "kappa", "derive_root_sequence", "is_good_sequence",
    "young_subgroup_generators", "all_parabolic_subsets",
]


def _check_j(n: int, J) -> frozenset:
    return _valid_j(n, frozenset(J))


@cache
def _valid_j(n: int, J: frozenset) -> frozenset:
    J = frozenset(_ints(J, "generator index"))
    if any(not 1 <= j <= n - 1 for j in J):
        raise ValueError(f"invalid generator indices for n={n}: {sorted(J)}")
    return J


class ParabolicQuotient:
    """The set JW of minimal right-coset representatives, in a fixed order,
    and the position of each (`index`); immutable, and equal to another
    with the same reps (which fix n and J)."""

    __slots__ = ("n", "J", "reps", "index")
    __hash__ = None   # index is a dict

    def __init__(self, n: int, J: frozenset, reps: tuple, index: dict):
        for name, x in zip(self.__slots__, (n, J, reps, index)):
            object.__setattr__(self, name, x)

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot set or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __eq__(self, other):
        return type(other) is type(self) and other.reps == self.reps

    def __repr__(self):
        return f"ParabolicQuotient(n={self.n}, J={self.J}, reps={self.reps})"

    def __len__(self):
        return len(self.reps)

    def __contains__(self, w):
        return tuple(w) in self.index


class _QuotientTable:
    """Index-level data for one (n, J) for the binary-word routes: local
    numbering of JW and the up/down step kernel of the dot action."""

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


_quotient_tables = cache(_QuotientTable)


def _quotient_table(n: int, J: frozenset) -> _QuotientTable:
    """The shared table of (n, J), behind the rank guard on every call."""
    config.check_n(n)
    return _quotient_tables(n, J)


def parabolic_quotient(n: int, J) -> ParabolicQuotient:
    """The quotient JW with reps sorted by (length, one-line notation)."""
    J = _check_j(n, J)
    qt = _quotient_table(n, J)
    reps = tuple(qt.tbl.perms[gi] for gi in qt.reps)
    return ParabolicQuotient(n, J, reps, {w: i for i, w in enumerate(reps)})


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
# blocks of the cycle type mu; `_classes` records which reduction gives
# each class, and the characters follow it without forming f: every class
# is filled once, when the kernel is built, and shorter classes first.
#
# ch(T_z) = sum_lam c_lam(T_z) m_lam follows the same rule, and so does any
# Z[q]-linear image of it: the h-expansion, or the LLT image
# (q-1)^n omega(ch)[X/(q-1)] in e, which is (q-1)^(n-len(mu)) e_mu on
# T_{w_mu} (Ram's Coxeter-element values, Invent. Math. 106, 1991); at
# q+1 the seeds become q^(n-len(mu)) e_mu and the rule (q+1, q).  So
# `_ClassChars` takes the seeds and the rule as data.  In
# L(a) = sum_c c * sum_{z : a_z = c} L(T_z) each class's L(T_z) is one int
# over all lam, the T-terms are summed per coefficient (KL views share one
# LaurentQ per polynomial) at one int add each, and each sum is multiplied
# by its coefficient once, by shift-adds, at one field width per sum
# (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).

@cache
def _classes(n: int) -> tuple:
    """(cls, rules, types): cls[z] numbers the cyclic-shift class of each
    perm_table index z; rules[k] is (class of sys, class of sy) for a y in
    class k with l(sys) = l(y) - 2, or (-1, mu) for a class of minimal
    length in its conjugacy class, of cycle type mu; types lists the mu."""
    tbl = perm_table(n)
    lengths, lmult, rmult = tbl.lengths, tbl.lmult, tbl.rmult
    cls: list = [None] * len(tbl)
    rules: list = []
    types = []
    # table order is by length, so every shorter element is done already
    for z in range(len(tbl)):
        if cls[z] is not None:
            continue
        cls[z], members, rule = len(rules), [z], None
        for y in members:
            for s in range(n - 1):
                sy = lmult[y][s]
                sys = rmult[sy][s]
                if lengths[sys] == lengths[y] and cls[sys] is None:
                    cls[sys] = cls[z]
                    members.append(sys)
                elif rule is None and lengths[sys] < lengths[y]:
                    rule = cls[sys], cls[sy]
        if rule is None:
            rule = -1, cycle_type(tbl.perms[z])
            if rule[1] not in types:
                types.append(rule[1])
        rules.append(rule)
    return cls, rules, types


@cache
def _young_type(n: int, J: frozenset) -> tuple:
    """The block sizes of J, largest first: W_J is conjugate to S_lam."""
    cuts = [0, *(i for i in range(1, n) if i not in J), n]
    return tuple(sorted((b - a for a, b in zip(cuts, cuts[1:]) if b > a),
                        reverse=True))


@cache
def _young_trace(content: tuple, mu: tuple) -> LaurentQ:
    """c_lam(T_{w_mu}) for the Young subgroup S_lam, lam = content.

    Read a coset rep x as the word of the J-blocks holding x(1..n); its
    content is lam.  The diagonal entry of T_s at x is q on equal letters
    (xs leaves JW), q-1 on a descent (xs is a shorter rep) and 0 on an
    ascent.  The reduced word of w_mu uses each letter at most once, so
    pushing x through it returns to x only along the diagonal: x counts
    exactly when its word weakly decreases along each block of mu.  A
    block of size k that takes d distinct letters has one such
    arrangement, weighing q^(k-d) (q-1)^(d-1).  Summing the products of
    those weights over the ways of splitting lam into one multiset per
    block gives the trace; what a block leaves is keyed by its sorted
    content.

    >>> print(_young_trace((2, 1), (3,)))
    -q+q^2
    """
    if not mu:
        return ONE
    k, out = mu[0], ZERO
    for take in product(*(range(c + 1) for c in content)):
        if sum(take) == k:
            d = len(take) - take.count(0)
            rest = sorted((c - a for c, a in zip(content, take) if c > a),
                          reverse=True)
            weight = LaurentQ({2 * (k - d + j): (-1) ** (d - 1 - j)
                               * math.comb(d - 1, j) for j in range(d)})
            out = out + weight * _young_trace(tuple(rest), mu[1:])
    return out


class _ClassChars:
    """The packed images L(T_z) of the cyclic-shift classes of S_n under a
    Z[q]-linear map L given as data: `seeds`, {mu: {lam: L(T_{w_mu}) at
    lam}} over the cycle types mu, and `rule` (A, B), q-coefficient lists
    with L(T_y) = A L(T_sys) + B L(T_sy).  By default L = ch in m: the
    Young traces c_lam(T_{w_mu}) and (q, q-1).  `coeff`, if given, maps
    the terms of each coefficient of a summed element.

    Field k * m + i of an int holds the q^k coefficient at lams[i], the m
    partitions in descending lexicographic order: times q is a shift by m
    fields, and an int is as long as its degree.  Every class is filled
    once, at construction and in table order: a class of minimal length
    packs its seed, any other is A x_sys + B x_sy of two shorter classes.
    Its fields are at most the largest |coefficient| of its seed, or
    |A| top(sys) + |B| top(sy), |.| the sum of |coefficients| and top(k)
    the largest |field| of class k as filled; when that bound reaches
    2^(width-1) the fill starts over at the width the bound needs.  The
    fill's `width`, `top` (the largest |field| of any class) and the ints
    never change; `packs` {width: ints} also keeps what `at` repacks.
    """

    def __init__(self, n: int, seeds: dict | None = None,
                 rule: tuple = ((0, 1), (-1, 1)), coeff=None):
        self.cls, rules, types = _classes(n)
        self.index = perm_table(n).index
        self.lams = sorted(types, reverse=True)
        self.seeds = seeds if seeds is not None else {
            mu: {lam: _young_trace(lam, mu) for lam in self.lams}
            for mu in types}
        self.coeff = coeff
        self.width, ints, tops = self._fill(rules, rule, 32)
        self.top, self.packs = max(tops), {self.width: ints}

    def _fill(self, rules: list, rule: tuple, width: int) -> tuple:
        """(width, ints, tops) of every class, filled at `width` or at the
        width the first class that does not fit needs."""
        m = len(self.lams)
        a, b = ([(j * m * width, c) for j, c in enumerate(r) if c]
                for r in rule)   # times q^j is a shift by j * m fields
        na, nb = (sum(map(abs, r)) for r in rule)
        ints, tops = [], []
        for sys_, sy in rules:
            if sys_ < 0:
                fields = [(e // 2 * m + i, c)
                          for i, lam in enumerate(self.lams)
                          for e, c in self.seeds[sy].get(lam, ZERO).c.items()]
                x = pack_signed(fields, width)
                bound = max((abs(c) for _, c in fields), default=0)
            else:
                x = (sum(c * ints[sys_] << j for j, c in a)
                     + sum(c * ints[sy] << j for j, c in b))
                bound = na * tops[sys_] + nb * tops[sy]
            if bound >> width - 1:
                return self._fill(rules, rule, signed_width(bound))
            ints.append(x)
            row = unpack_signed(x, width) or [0]
            tops.append(max(max(row), -min(row)))
        return width, ints, tops

    def at(self, width: int) -> list:
        """The class ints at `width`, no less than the fill's: repacked
        from the fill on first use."""
        ints = self.packs.get(width)
        if ints is None:
            ints = self.packs[width] = [
                pack_signed(enumerate(unpack_signed(x, self.width)), width)
                for x in self.packs[self.width]]
        return ints


_class_chars = cache(_ClassChars)


def _class_sum(cc: _ClassChars, ws, cs) -> dict:
    """{lam: the coefficient of L(a) at lam} over the nonzero ones, for
    the map L of cc and a = sum_i cs[i] T_{ws[i]} (ws and cs iterables in
    step, as the keys and values of a.terms or `KLContext.terms`):
    L(a) = sum_c c * S_c, S_c the sum of the class ints of the T-terms of
    a with coefficient c.

    The terms are grouped per coefficient object, and the groups of equal
    coefficients in distinct objects merged.  Then c is shifted to
    nonnegative v-exponents (from lo, the least one) and cleared of
    denominators (times scale), and S_c times each of its terms goes into
    one accumulator per v-parity.  A field of an accumulator is at most
    cc.top * sum_c terms(c) l1(c * scale), l1 the sum of |coefficients|,
    so the sum runs at the least width that holds this bound and the
    classes, chosen once, and every field is exact.
    """
    cs, m = list(cs), len(cc.lams)
    ids = list(map(id, cs))
    ks = list(map(cc.cls.__getitem__, map(cc.index.__getitem__, ws)))
    objs = dict(zip(ids, cs))
    by_id: dict = {i: [] for i in objs}
    for i, k in zip(ids, ks):
        by_id[i].append(k)
    groups: dict = {}   # equal coefficients in distinct objects
    for i, c in objs.items():
        key = tuple(c.c.items())
        key = cc.coeff(key) if cc.coeff else key
        groups[key] = groups.get(key, []) + by_id[i]
    scale = math.lcm(*(x.denominator for key in groups for _, x in key
                       if type(x) is not int))
    lo = min((e for key in groups for e, _ in key), default=0)
    terms = [(ks, [(e - lo, int(x * scale)) for e, x in key])
             for key, ks in groups.items()]
    mass = sum(len(ks) * sum(abs(x) for _, x in c) for ks, c in terms)
    width = max(cc.width, signed_width(cc.top * mass))
    ints = cc.at(width)
    sums = [sum(map(ints.__getitem__, ks)) for ks, _ in terms]
    accs: dict = {}
    for s, (_, c) in zip(sums, terms):
        for e, x in c:
            accs[e & 1] = accs.get(e & 1, 0) + (x * s << width * m * (e >> 1))
    out: dict = {}
    for p, x in accs.items():
        row = unpack_signed(x, width)
        for i, lam in enumerate(cc.lams):
            if d := {lo + p + 2 * k: y for k, y in enumerate(row[i::m]) if y}:
                out.setdefault(lam, {}).update(d)   # parities never meet
    return {lam: _raw(d) if scale == 1 else
            LaurentQ({e: Fraction(y, scale) for e, y in d.items()})
            for lam, d in out.items()}


def _young_characters(a: HeckeElement) -> dict:
    """{lam: c_lam(a)} for the partitions lam of a.n with c_lam(a) != 0:
    the induced characters of a from the Young subgroups S_lam, one class
    sum of the packed ch(T_z) in the monomial basis.

    >>> ch = _young_characters(HeckeElement.t_basis(3, (2, 1, 3)))
    >>> print(ch[(3,)], ch[(2, 1)], ch[(1, 1, 1)])
    q -1+2q -3+3q
    """
    return _class_sum(_class_chars(a.n), a.terms, a.terms.values())


def induced_characters(a: HeckeElement, Js) -> list:
    """[c_J(a) for J in Js]: the trace of right multiplication by a on each
    quotient module, which is the character induced from S_lam for lam
    the block sizes of J."""
    chars = _young_characters(a)
    return [chars.get(_young_type(a.n, _check_j(a.n, J)), ZERO) for J in Js]


def induced_character(a: HeckeElement, J) -> LaurentQ:
    """c_J(a): the trace of right multiplication by a on the quotient
    module, extended linearly over the T-basis support of a."""
    return induced_characters(a, [J])[0]


# -- binary words --------------------------------------------------------------
#
# Every route below steps through the kernel `steps` of a quotient table;
# the absolute dynamics on all of W is the table at J = {}.  Counts follow
# each orbit {u, us} or {u} of the first letter s from one start and merge
# the paths that meet at the same state (a transfer matrix): u and us step
# to the same up and down with the same witness bits, as
# (us)s(us)^-1 = usu^-1, so one sweep is read at both.  The
# count vector over the number of 1s rides in one int, `width` bits per
# coefficient (Kronecker packing): a 1-bit shifts by `width`, and merging
# two paths is an int add.  A sweep carries a chunk of orbits: orbit p
# starts as 1 << p * F, F = (k + 1) * width, so each state's int holds
# every orbit's vector in its own block, and the orbits share the steps
# at the states they all reach.  One start counts each word at most once
# and there are binom(k, e) words with e ones, so over m starts every
# coefficient is at most m * binom(k, k // 2); `width` is the bit length
# of that bound for all the quotient's starts plus a sign bit
# (`unpack_signed` reads signed fields), so no field carries into the
# next, nor a block into the next, and blocks add straight into the
# total.  The bound is reached (n = 3, J = {1, 2}), so one bit less would
# read it as negative.  Blocks as narrow as one orbit's 2 starts fit more
# orbits into a chunk, but each must then be unpacked before the sum,
# which cost more than it saved on the n = 5 words of the benchmark.
# Enumeration keeps only the states from which some word returns, so a
# start costs O(k * (states + words found)).

def _word_indices(sigma: Word, n: int) -> tuple:
    return _valid_word(tuple(sigma), n)


@lru_cache(maxsize=1 << 12)
def _valid_word(sigma: tuple, n: int) -> tuple:
    sigma = _ints(sigma, "letter")
    if any(not 1 <= s <= n - 1 for s in sigma):
        raise ValueError(f"word {sigma} has letters outside 1..{n - 1}")
    return tuple(s - 1 for s in sigma)


def _bits(b, k: int) -> tuple:
    """b as a tuple of ints, checked to be a binary word of length k."""
    b = _ints(b, "bit")
    if len(b) != k:
        raise ValueError("binary word and letter word differ in length")
    if set(b) - {0, 1}:
        raise ValueError(f"not a binary word: {b}")
    return b


def _state(qt: _QuotientTable, w: Perm) -> int:
    if (i := qt.loc.get(qt.tbl(w))) is None:   # tbl(w) checks w
        raise ValueError(f"{w} is not a minimal coset representative")
    return i


@cache
def _gen_mask(J: frozenset) -> int:
    return sum(1 << (j - 1) for j in J)


def _count_width(k: int, starts: int) -> int:
    return (starts * math.comb(k, k // 2)).bit_length() + 1


# a chunk's int size in bits: fastest overall in BENCH_word_packing.json
BITS = 4096


def _orbits(qt: _QuotientTable, sig: tuple) -> list:
    """The orbits of the first letter s of sig on the states: pairs
    (u, u.s) and fixed points (u,); each state alone for no letter."""
    if not sig:
        return [(u,) for u in range(len(qt.reps))]
    return [(u,) if up == u else (u, up)
            for u, (up, down, _) in enumerate(qt.steps[sig[0]]) if down == u]


def _sweeps(qt: _QuotientTable, sig: tuple, orbits: list, need: int,
            width: int):
    """(orbit, its counts) for each of the orbits, all with the same need,
    swept BITS // F orbits at a time (at least one)."""
    size = max(1, BITS // ((len(sig) + 1) * width))
    for i in range(0, len(orbits), size):
        chunk = orbits[i:i + size]
        yield from zip(chunk, _sweep(qt, sig, chunk, need, width))


def _sweep(qt: _QuotientTable, sig: tuple, chunk: list, need: int,
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
        row, nxt = qt.steps[s], {}
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
    weighted by q^(number of 1s).

    >>> bott_samelson_character((1, 2), {1, 3}, 4)
    LaurentQ({0: 2, 2: 6, 4: 2})
    """
    J = _check_j(n, J)
    qt = _quotient_table(n, J)
    sig = _word_indices(sigma, n)
    width = _count_width(len(sig), len(qt.reps))
    total = 0
    for _, counts in _sweeps(qt, sig, _orbits(qt, sig), 0, width):
        total += sum(counts.values())
    return from_q_coefficients(unpack_signed(total, width))


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
    J = _check_j(n, J)
    return _good_characters(sigma, n, [J])[J]


def good_word_characters_all_j(sigma: Word, n: int) -> dict:
    """The good-word character for every subset J at once: {frozenset J:
    LaurentQ}."""
    return _good_characters(sigma, n, all_parabolic_subsets(n))


def _good_characters(sigma: Word, n: int, Js: list) -> dict:
    """{J: the good-word character} for J in Js.  The orbits of the first
    letter are swept in groups of one need, the left descents of their
    starts inside some J, whose witness bits the sweep tracks; each J
    then reads off the words whose witnessed set covers a start's own
    descents in J."""
    qt = _quotient_table(n, frozenset())
    sig = _word_indices(sigma, n)
    width = _count_width(len(sig), len(qt.reps))
    totals = {J: 0 for J in Js}
    jmasks = [(J, _gen_mask(J)) for J in totals]
    ldesc, track = qt.tbl.ldesc, _gen_mask(frozenset().union(*Js))
    groups: dict = {}
    for orbit in _orbits(qt, sig):
        groups.setdefault((ldesc[orbit[0]] | ldesc[orbit[-1]]) & track,
                          []).append(orbit)
    for need, orbits in groups.items():
        for orbit, counts in _sweeps(qt, sig, orbits, need, width):
            for start in orbit:
                mine = [(m, x) for (t, m), x in counts.items() if t == start]
                # many J share one descent set: sum the covering masks once
                covering: dict = {}
                for J, jmask in jmasks:
                    own = ldesc[start] & jmask
                    if own not in covering:
                        covering[own] = sum(x for m, x in mine
                                            if not own & ~m)
                    totals[J] += covering[own]
    return {J: from_q_coefficients(unpack_signed(x, width))
            for J, x in totals.items()}


def all_parabolic_subsets(n: int) -> list:
    """All subsets of {1..n-1} as frozensets, in a deterministic order."""
    gens = range(1, n)
    return sorted((frozenset(g for g in gens if bits >> (g - 1) & 1)
                   for bits in range(1 << len(gens))),
                  key=lambda J: (len(J), sorted(J)))


def _check_good(w: Perm, sigma: Word, b, J) -> tuple:
    """Validate that b is good for w; return b as ints, the path
    w_0..w_k as perm_table indices, the table and the mask of J."""
    qt, b, path, witnessed = _run(w, sigma, b, ())
    w, jmask = tuple(w), _gen_mask(_check_j(len(w), J))
    if path[-1] != path[0]:
        raise ValueError(f"{b} does not fix {w} along {tuple(sigma)}")
    if missing := qt.tbl.ldesc[path[0]] & jmask & ~witnessed:
        raise ValueError(f"{b} is not good for {w}: descent "
                         f"{(missing & -missing).bit_length()} has no "
                         "witness step")
    return b, path, qt.tbl, jmask


def kappa(w: Perm, b, sigma: Word, J):
    """Project a good pair (w, b) to (min coset representative, b).

    This map is a bijection onto the pairs (wbar, b) with wbar in JW
    fixed by the quotient composite of b.

    >>> kappa((4, 3, 1, 2), (1, 1), (1, 2), {1, 3})
    ((3, 4, 1, 2), (1, 1))
    """
    b, path, tbl, jmask = _check_good(w, sigma, b, J)
    u = path[0]
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
    b, path, tbl, _ = _check_good(w, sigma, b, J)
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

    J restricts the ambient group: u must lie in W_J, that is, every
    inversion root (i, j) of u has {i, ..., j-1} inside J (for roots g
    inside W_J the relevant simple roots stay inside W_J automatically).
    """
    u = tuple(u)
    n = len(u)
    delta = [tuple(r) for r in delta]
    for i, j in delta:
        if not 1 <= i < j <= n:
            raise ValueError(f"not a positive root for n={n}: {(i, j)}")
    J = frozenset(range(1, n)) if J is None else _check_j(n, J)
    inv = left_inversions(u)
    if any(not J.issuperset(range(i, j)) for i, j in inv):
        raise ValueError(f"{u} does not lie in the parabolic subgroup")

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
    parts = _ints(parts, "part")
    if (low := min(parts, default=1)) < 1:
        raise ValueError(f"part {low} of {parts} is not positive")
    if sum(parts) != n:
        raise ValueError(f"{parts} is not a composition of {n}")
    cuts = set(accumulate(parts[:-1]))
    return frozenset(i for i in range(1, n) if i not in cuts)
