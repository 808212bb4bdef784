"""
Parabolic quotients of S_n and induced characters of Hecke elements.

For J a set of simple-transposition indices, W_J is the Young subgroup
they generate and JW denotes the minimal-length representatives of the
right cosets W_J \\ w, ordered by (length, one-line notation).  The right
action w ._J s keeps w when ws leaves JW and moves to ws otherwise; it
extends to an action of H_n on the free module over JW, and the trace of
right multiplication by a is the induced character c_J(a).  It depends
only on the sorted block sizes lam of J (W_J is conjugate to S_lam).

c_J(a) comes from class polynomials: c_J is fixed by its values on
T_{w_mu}, w_mu of minimal length in the class of cycle type mu, which
have a closed formula in lam and mu (no quotient module is built); the
class reduction gives every cyclic-shift class one packed int, and
c_J(a) = sum_c c * sum_{z : a_z = c} c_J(T_z).

For a = (1+T_{s_1})...(1+T_{s_k}), c_J(a) counts binary words, each
weighing q^(number of 1s): those whose composite of the up/down maps
phi_{J,s,1}(w) = max(w ._J s, w), phi_{J,s,0}(w) = min(w ._J s, w) fixes
some w in JW, or, over all of W, the *good* words of w: the absolute
composite fixes w and every left descent of w in J is witnessed by a
step where right multiplication by the letter equals left multiplication
by the descent (the paper's theorem).  The counts are computed as c_J(a);
the words are listed and checked on `perm_table` indices (`_kernel`),
in O(k * (states + words found)) per start and
O(k + len(w)) per pair, the word and J of a call checked once per
(n, word, J) (`_scan`).
Good pairs project to coset minima bijectively onto the quotient
fixed-point pairs, and carry positive roots certifying an affine cell.

The trace route (traces of T_z on the quotient module), the class sums
by dict convolutions and the word counts by transfer-matrix sweeps and
by walks over all 2^k words are kept as cross-checks in
`tests/oracles.py`.

Everything here is exact and deterministic; the hot loops run on integer
indices from `coxeter.perm_table`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import accumulate, product
from types import MappingProxyType

from . import config
from .coxeter import (
    Perm, Word, _ints, check_permutation, cycle_type, left_inversions,
    perm_table,
)
from .hecke import HeckeElement, _product_terms
from .laurentq import (
    ONE, ZERO, LaurentQ, _raw, pack_signed, signed_width, unpack_signed,
)

__all__ = [
    "ParabolicQuotient", "parabolic_quotient",
    "induced_character", "induced_characters",
    "bott_samelson_character", "phi", "bin_set",
    "good_words", "good_word_character", "good_word_characters_all_j",
    "kappa", "derive_root_sequence", "is_good_sequence",
    "young_subgroup_generators", "all_parabolic_subsets",
]


@cache
def _valid_j(n: int, J: frozenset) -> frozenset:
    J = frozenset(_ints(J, "generator index"))
    if any(not 1 <= j <= n - 1 for j in J):
        raise ValueError(f"invalid generator indices for n={n}: {sorted(J)}")
    return J


class ParabolicQuotient:
    """The minimal right-coset representatives JW of S_n: `reps`, the
    perms of `perm_table(n)` with no left descent in J, in table order,
    and the position of each (`index`, read-only).  One immutable value
    per (n, J), shared (`_quotients`), equal to one with the same reps."""

    __slots__ = ("n", "J", "reps", "index")
    __hash__ = None   # its index is a mapping

    def __init__(self, n: int, J):
        J = _valid_j(n, frozenset(J))
        tbl, jmask = perm_table(n), _gen_mask(J)
        reps = tuple(w for w, d in zip(tbl.perms, tbl.ldesc) if not d & jmask)
        index = MappingProxyType({w: i for i, w in enumerate(reps)})
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


_quotients = cache(ParabolicQuotient)


def parabolic_quotient(n: int, J) -> ParabolicQuotient:
    """The shared quotient JW, behind the J check and the rank guard."""
    J = _valid_j(n, frozenset(J))
    config.check_n(n)
    return _quotients(n, J)


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
# (q-1)^n omega(ch)[X/(q-1)], which is (q-1)^(n-len(mu)) e_mu on
# T_{w_mu} (Ram's Coxeter-element values, Invent. Math. 106, 1991); at
# q+1 the seeds become q^(n-len(mu)) e_mu and the rule (q+1, q).  So
# `_ClassChars` takes the seeds and the rule as data, and `_class_total`
# sums each class's L(T_z), one int over all lam, per coefficient.

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


def _class_sum(cc: _ClassChars, terms) -> dict:
    """`_class_total` of a = sum c T_w over the (w, c) pairs of terms (the
    items of a.terms, or `KLContext.terms`), grouped in one pass per
    coefficient object, then per equal coefficient after cc.coeff."""
    cls, index = cc.cls, cc.index
    by_id: dict = {}   # id(c) -> (c, the classes of its w)
    for w, c in terms:
        if (g := by_id.get(id(c))) is None:
            g = by_id[id(c)] = c, []
        g[1].append(cls[index[w]])
    groups: dict = {}   # equal coefficients in distinct objects
    for c, ks in by_id.values():
        key = tuple(sorted(c.c.items()))   # not in insertion order
        key = cc.coeff(key) if cc.coeff else key
        groups.setdefault(key, []).extend(ks)
    return _class_total(cc, groups)


def _class_total(cc: _ClassChars, groups: dict) -> dict:
    """{lam: the coefficient of L(a) at lam} over the nonzero ones, for
    the map L of cc and a = sum_c c * sum_{z in groups[c]} T_z, each c a
    tuple of (v-exponent, value) pairs and each z given by its class:
    L(a) = sum_c c * S_c, S_c the sum of the class ints of groups[c]
    (Kronecker substitution; Harvey, J. Symbolic Comput. 44, 2009).

    The c are cleared of denominators (times scale), and S_c times each of
    their terms goes into one accumulator per run and v-parity, shifted
    from its least v-exponent there: a run holds the exponents closer
    together than the span of the S_c, so runs never share a field and an
    int is as long as its run.  A field of an accumulator is at most
    cc.top * sum_c |groups[c]| l1(c * scale), l1 the sum of |coefficients|,
    so the sum runs at the least width that holds this bound and the
    classes, chosen once, and every field is exact.
    """
    m = len(cc.lams)
    scale = math.lcm(*(x.denominator for key in groups for _, x in key
                       if type(x) is not int))
    terms = [(ks, [(e, int(x * scale)) for e, x in key])
             for key, ks in groups.items()]
    mass = sum(len(ks) * sum(abs(x) for _, x in c) for ks, c in terms)
    width = max(cc.width, signed_width(cc.top * mass))
    ints = cc.at(width)
    sums = [sum(map(ints.__getitem__, ks)) for ks, _ in terms]
    # S_c has no field past its bit length // width: at e, it spans e..e+span
    span = 2 * (max(map(int.bit_length, sums), default=0) // width // m)
    # first[e]: the least exponent of e's run that has e's parity
    first, lo, last = {}, 0, -math.inf
    for e in sorted({e for _, c in terms for e, _ in c}):
        lo, last = e if e - last > span else lo, e
        first[e] = lo + (e - lo & 1)
    accs: dict = {}
    for s, (_, c) in zip(sums, terms):
        for e, x in c:
            b = first[e]
            accs[b] = accs.get(b, 0) + (x * s << width * m * (e - b >> 1))
    out: dict = {}
    for b, x in accs.items():
        row = unpack_signed(x, width)
        for i, lam in enumerate(cc.lams):
            if d := {b + 2 * k: y for k, y in enumerate(row[i::m]) if y}:
                out.setdefault(lam, {}).update(d)   # keys never meet
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
    return _class_sum(_class_chars(a.n), a.terms.items())


def induced_characters(a: HeckeElement, Js) -> list:
    """[c_J(a) for J in Js]: the trace of right multiplication by a on each
    quotient module, which is the character induced from S_lam for lam
    the block sizes of J."""
    chars = _young_characters(a)
    return [chars.get(_young_type(a.n, _valid_j(a.n, frozenset(J))), ZERO)
            for J in Js]


def induced_character(a: HeckeElement, J) -> LaurentQ:
    """c_J(a): the trace of right multiplication by a on the quotient
    module, extended linearly over the T-basis support of a."""
    return induced_characters(a, [J])[0]


# -- Bott-Samelson characters --------------------------------------------------

def _word_characters(n: int, sig: tuple) -> dict:
    """{lam: c_lam((1+T_{s_1})...(1+T_{s_k}))} over the nonzero ones, for
    the checked letter indices sig: by the paper's theorem, the word counts
    of every J from one product, on `perm_table(n)` for the class ids, and
    one class sum.  The w0 rule of `bott_samelson_product` guards a KL
    expansion, not this sum over at most n! terms."""
    cc, width = _class_chars(n), len(sig) + 2
    terms = _product_terms(perm_table(n), sig, width)
    groups: dict = {}   # equal coefficients share one group
    for z, x in terms.items():
        groups.setdefault(x, []).append(cc.cls[z])
    return _class_total(cc, {
        tuple((2 * j, c) for j, c in enumerate(unpack_signed(x, width)) if c):
        ks for x, ks in groups.items()})


def bott_samelson_character(sigma: Word, J, n: int) -> LaurentQ:
    """c_J of the product (1+T_{s_1})...(1+T_{s_k}): the number of binary
    words fixing each quotient element under the up/down composites,
    weighted by q^(number of 1s).

    >>> bott_samelson_character((1, 2), {1, 3}, 4)
    LaurentQ({0: 2, 2: 6, 4: 2})
    """
    sig, J, _ = _scan(n, sigma, J)
    return _word_characters(n, sig).get(_young_type(n, J), ZERO)


def good_word_character(sigma: Word, J, n: int) -> LaurentQ:
    """Sum of q^(number of 1s) over all good pairs (w, b), w in S_n."""
    return bott_samelson_character(sigma, J, n)


def good_word_characters_all_j(sigma: Word, n: int) -> dict:
    """{frozenset J: the good-word character} for every subset J."""
    chars = _word_characters(n, _scan(n, sigma, ())[0])
    return {J: chars.get(_young_type(n, J), ZERO)
            for J in all_parabolic_subsets(n)}


# -- binary words --------------------------------------------------------------

def _scan(n: int, sigma: Word, J) -> tuple:
    """(letter indices, J checked, mask of J) at rank n, sigma and J read
    once: the rank guard every call (so a caller may take its kernel from
    `_kernel`), the rest once per (n, word, J)."""
    config.check_n(n)
    return _checked(n, tuple(sigma), frozenset(J))


@lru_cache(maxsize=1 << 10)
def _checked(n: int, sigma: tuple, J: frozenset) -> tuple:
    J = _valid_j(n, J)
    sigma = _ints(sigma, "letter")
    if any(not 1 <= s <= n - 1 for s in sigma):
        raise ValueError(f"word {sigma} has letters outside 1..{n - 1}")
    return tuple(s - 1 for s in sigma), J, _gen_mask(J)


def _bits(b, k: int) -> tuple:
    """b as a tuple of ints, checked to be a binary word of length k.  A
    word of ints and bools is read as bytes in one step; anything else
    takes the full check, where 1.0 reads as 1 and 1.5 or "1" fail."""
    b = tuple(b)
    try:
        raw = bytes(b)
    except (TypeError, ValueError):   # an entry is not an int in 0..255
        raw = b"\2"
    if len(raw) == k and not raw.translate(None, b"\0\1"):
        return tuple(raw)
    b = _ints(b, "bit")
    if len(b) != k:
        raise ValueError("binary word and letter word differ in length")
    if set(b) - {0, 1}:
        raise ValueError(f"not a binary word: {b}")
    return b


@cache
def _kernel(n: int, stay: int) -> tuple:
    """(perm_table(n), steps) for the walks on the perms with no left
    descent in the mask stay (None elsewhere): steps[s][u] = (max(u, v),
    min(u, v), wit), v = us = u s_(s+1), or u when us has a left descent in
    stay; table order refines length, so these are the Bruhat max and min.
    us = r u for r swapping the values a, b at positions s+1, s+2 of u; r
    = s_t (t = min(a, b)) iff |a - b| = 1, and then only left descent t
    changes: bit t-1 of wit = ldesc[u] ^ ldesc[us] is set iff s_t u = us."""
    tbl = perm_table(n)
    ldesc, steps = tbl.ldesc, [[None] * len(tbl) for _ in range(n - 1)]
    for u in (u for u, d in enumerate(ldesc) if not d & stay):
        for s, us in enumerate(tbl.rmult[u]):
            v = u if ldesc[us] & stay else us
            steps[s][u] = max(u, v), min(u, v), ldesc[u] ^ ldesc[us]
    return tbl, tuple(map(tuple, steps))


def _state(tbl, stay: int, w: Perm) -> int:
    if (u := tbl.index.get(w)) is None or tbl.ldesc[u] & stay:
        tbl(w)   # refuses what is not a permutation of 1..n
        raise ValueError(f"{w} is not a minimal coset representative")
    return u


def _gen_mask(J: frozenset) -> int:
    return sum(1 << (j - 1) for j in J)


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


def _path(steps: list, sig: tuple, b: tuple, u: int) -> tuple:
    """Follow b from the table index u: (the path u_0..u_k, the witness
    bits of its steps)."""
    path, witnessed = [u], 0
    add = path.append
    for s, bit in zip(sig, b):
        up, down, wit = steps[s][u]
        witnessed |= wit
        u = up if bit else down
        add(u)
    return path, witnessed


def phi(w: Perm, sigma: Word, b, J=None) -> Perm:
    """Apply the up/down composite to w: at step i go to
    max(w ._J s_i, w) when b_i = 1, to the min when b_i = 0.  With J
    absent the absolute version on all of W is used (every ws counts).

    >>> phi((1, 2, 3), (1, 2), (1, 1)), phi((1, 2, 3), (1, 2), (1, 1), {1})
    ((2, 3, 1), (1, 3, 2))
    """
    w = tuple(w)
    sig, _, stay = _scan(len(w), sigma, () if J is None else J)
    tbl, steps = _kernel(len(w), stay)
    path, _ = _path(steps, sig, _bits(b, len(sig)), _state(tbl, stay, w))
    return tbl.perms[path[-1]]


def bin_set(w: Perm, sigma: Word, J, n: int | None = None) -> set:
    """All binary words whose quotient composite fixes w (w must lie in
    JW), in O(k * (states + words found)) for a word of length k."""
    w = tuple(w)
    n = len(w) if n is None else n
    sig, _, stay = _scan(n, sigma, J)
    tbl, steps = _kernel(n, stay)
    return _walk(steps, sig, _state(tbl, stay, w), 0)


# -- good words ---------------------------------------------------------------

def good_words(w: Perm, sigma: Word, J) -> set:
    """All binary words good for w: the absolute composite fixes w and
    every left descent of w lying in J is witnessed at some step."""
    w = tuple(w)
    sig, _, jmask = _scan(len(w), sigma, J)
    tbl, steps = _kernel(len(w), 0)
    start = _state(tbl, 0, w)
    return _walk(steps, sig, start, tbl.ldesc[start] & jmask)


def all_parabolic_subsets(n: int) -> list:
    """All subsets of {1..n-1} as frozensets, in a deterministic order."""
    gens = range(1, n)
    return sorted((frozenset(g for g in gens if bits >> (g - 1) & 1)
                   for bits in range(1 << len(gens))),
                  key=lambda J: (len(J), sorted(J)))


def _check_good(w: Perm, sigma: Word, b, J) -> tuple:
    """Validate that b is good for w; return the letter indices, b as
    ints, the path w_0..w_k as perm_table indices, the table and the mask
    of J."""
    w, sigma = tuple(w), tuple(sigma)
    sig, _, jmask = _scan(len(w), sigma, J)
    tbl, steps = _kernel(len(w), 0)
    b = _bits(b, len(sig))
    path, witnessed = _path(steps, sig, b, _state(tbl, 0, w))
    if path[-1] != path[0]:
        raise ValueError(f"{b} does not fix {w} along {sigma}")
    if missing := tbl.ldesc[path[0]] & jmask & ~witnessed:
        raise ValueError(f"{b} is not good for {w}: descent "
                         f"{(missing & -missing).bit_length()} has no "
                         "witness step")
    return sig, b, path, tbl, jmask


def kappa(w: Perm, b, sigma: Word, J):
    """Project a good pair (w, b) to (min coset representative, b).

    This map is a bijection onto the pairs (wbar, b) with wbar in JW
    fixed by the quotient composite of b.

    >>> kappa((4, 3, 1, 2), (1, 1), (1, 2), {1, 3})
    ((3, 4, 1, 2), (1, 1))
    """
    _, b, path, tbl, jmask = _check_good(w, sigma, b, J)
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

    >>> derive_root_sequence((2, 1, 3), (1, 2, 1), (1, 0, 1), {1})
    ((1, 2), (1, 2))
    """
    sig, b, path, tbl, _ = _check_good(w, sigma, b, J)
    return tuple(tuple(sorted(tbl.perms[u][s:s + 2]))
                 for u, s, bit in zip(path, sig, b) if bit)


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
    u = check_permutation(u)
    n = len(u)
    delta = [_ints(r, "root entry") for r in delta]
    for i, j in delta:
        if not 1 <= i < j <= n:
            raise ValueError(f"not a positive root for n={n}: {(i, j)}")
    J = frozenset(range(1, n)) if J is None else _valid_j(n, frozenset(J))
    inv = left_inversions(u)
    if any(not J.issuperset(range(i, j)) for i, j in inv):
        raise ValueError(f"{u} does not lie in the parabolic subgroup")

    for g in inv:
        if g in delta:
            continue
        i, j = g
        if j - i == 1:
            return False
        for alpha, rem in (((i, i + 1), (i + 1, j)), ((j - 1, j), (i, j - 1))):
            # rem must occur, with no alpha before its first occurrence
            if rem not in inv and (rem not in delta or
                                   alpha in delta[:delta.index(rem)]):
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
