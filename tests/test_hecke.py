"""Hecke algebra relations, the bar involution, and Kazhdan-Lusztig data."""

import json
import math
import random
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import given, strategies as st

from heckelab import config
from heckelab.coxeter import (
    _descents, all_permutations, apply_s_right, avoids_patterns, bruhat_leq,
    evaluate_word, identity, inverse, length, perm_table, reduced_word,
    right_descents,
)
from heckelab.hecke import (
    W, HeckeElement, KLContext, bott_samelson_product, kl_context,
    springer_decomposition,
)
from heckelab.laurentq import (
    LaurentQ, ONE, Q, from_q_coefficients, q_power, v_power,
)

from oracles import (
    TupleKL, laurent_bott_samelson_product, pair_defect, residue_expand_cprime,
    shift_defect, tuple_bott_samelson_product,
)

E4 = identity(4)
S1 = (2, 1, 3, 4)
S2 = (1, 3, 2, 4)

# the T-expansion of the integral Kazhdan-Lusztig element of 3412:
# coefficient 1+q on 1234 and 1324, coefficient 1 on the other twelve
B_3412_TABLE = {
    (1, 2, 3, 4): (1, 1), (1, 3, 2, 4): (1, 1),
    (2, 1, 3, 4): (1,), (1, 2, 4, 3): (1,), (1, 3, 4, 2): (1,),
    (1, 4, 2, 3): (1,), (2, 1, 4, 3): (1,), (3, 1, 2, 4): (1,),
    (2, 3, 1, 4): (1,), (1, 4, 3, 2): (1,), (3, 1, 4, 2): (1,),
    (2, 4, 1, 3): (1,), (3, 2, 1, 4): (1,), (3, 4, 1, 2): (1,),
}


def random_element(n, rng, size=4):
    perms = list(all_permutations(n))
    terms = {}
    for _ in range(size):
        w = rng.choice(perms)
        terms[w] = LaurentQ({rng.randint(-3, 3): rng.randint(-5, 5)})
    return HeckeElement(n, terms)


def test_quadratic_relation():
    ts = HeckeElement.t_basis(4, S1)
    sq = ts.mul_ts_right(1)
    assert sq == HeckeElement(4, {S1: Q - ONE, E4: Q})
    assert HeckeElement.unit(4).mul_ts_right(1) == ts
    assert HeckeElement.t_basis(4, S1).mul_ts_right(2) == \
        HeckeElement.t_basis(4, (2, 3, 1, 4))


def test_braid_relation():
    a = HeckeElement.unit(3).mul_word_right((1, 2, 1))
    b = HeckeElement.unit(3).mul_word_right((2, 1, 2))
    assert a == b


def test_mul_unit_and_associativity():
    rng = random.Random(7)
    for _ in range(10):
        a = random_element(4, rng)
        assert a.mul(HeckeElement.unit(4)) == a
        b = random_element(4, rng, size=2)
        c = random_element(4, rng, size=2)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_mul_size_mismatch():
    with pytest.raises(ValueError):
        HeckeElement.unit(3).mul(HeckeElement.unit(4))


def test_bar_on_generator():
    # solving T_s x = T_e against the quadratic relation gives
    # T_s^(-1) = q^(-1) T_s + (q^(-1)-1) T_e
    b = HeckeElement.t_basis(4, S1).bar_involution()
    assert b == HeckeElement(4, {S1: q_power(-1), E4: q_power(-1) - ONE})
    assert HeckeElement.t_basis(4, S1).mul(b) == HeckeElement.unit(4)
    assert HeckeElement.unit(4).bar_involution() == HeckeElement.unit(4)


def test_bar_involutive_and_multiplicative():
    rng = random.Random(11)
    for _ in range(8):
        a = random_element(3, rng, size=3)
        assert a.bar_involution().bar_involution() == a
    x = HeckeElement.t_basis(3, (2, 1, 3))
    y = HeckeElement.t_basis(3, (3, 1, 2))
    assert x.mul(y).bar_involution() == \
        x.bar_involution().mul(y.bar_involution())


def test_kl_polynomial_examples():
    ctx = kl_context(4)
    assert ctx.polynomial(E4, (3, 4, 1, 2)) == ONE + Q
    # classical nontrivial values in S_5
    ctx5 = kl_context(5)
    assert ctx5.polynomial(identity(5), (4, 5, 3, 1, 2)) == \
        ONE + q_power(2)
    assert ctx5.polynomial(identity(5), (5, 2, 3, 4, 1)) == \
        ONE + LaurentQ({2: 2}) + q_power(2)
    for w in all_permutations(4):
        assert ctx.polynomial(w, w) == ONE
    ctx3 = kl_context(3)
    for u in all_permutations(3):
        for w in all_permutations(3):
            from heckelab.coxeter import bruhat_leq
            if bruhat_leq(u, w):
                assert ctx3.polynomial(u, w) == ONE
    with pytest.raises(ValueError):
        ctx.polynomial((2, 1, 3, 4), E4)


def test_kl_element_examples():
    ctx = kl_context(4)
    assert ctx.element(E4) == HeckeElement.unit(4)
    assert ctx.element(S1) == HeckeElement(4, {E4: ONE, S1: ONE})
    B = ctx.element((3, 4, 1, 2))
    expected = {w: LaurentQ({2 * k: c for k, c in enumerate(cs)})
                for w, cs in B_3412_TABLE.items()}
    assert B.terms == expected


def test_bar_invariance_exhaustive_n4():
    ctx = kl_context(4)
    for w in all_permutations(4):
        B = ctx.element(w)
        assert B.bar_involution() == B.scale(v_power(-2 * length(w)))


def test_bar_invariance_n5():
    ctx = kl_context(5)
    for w in all_permutations(5):
        B = ctx.element(w)
        assert B.bar_involution() == B.scale(v_power(-2 * length(w)))


def test_degree_bound_and_nonnegativity():
    for n in (4, 5):
        ctx = kl_context(n)
        for w in all_permutations(n):
            lw = length(w)
            for z, p in ctx.element(w).terms.items():
                assert p.is_q_polynomial()
                assert all(isinstance(c, int) and c >= 0
                           for c in p.c.values()), (z, w)
                if z != w:
                    assert p.max_vexp() < lw - length(z)


def test_smoothness_criterion_n5():
    patterns = [(3, 4, 1, 2), (4, 2, 3, 1)]
    for n in (4, 5):
        ctx = kl_context(n)
        e = identity(n)
        for w in all_permutations(n):
            assert (ctx.polynomial(e, w) == ONE) == \
                avoids_patterns(w, patterns), w


def test_left_and_right_recursions_agree():
    for n in (3, 4):
        oracle = TupleKL(n)
        for w in all_permutations(n):
            assert oracle.element(w) == oracle.element_right(w), w


@pytest.mark.parametrize("n, total", [(1, 1), (2, 3), (3, 19), (4, 213),
                                      (5, 3781), (6, 98407)])
def test_index_core_matches_tuple_oracle(n, total):
    ctx, oracle = KLContext(n), TupleKL(n)
    terms = 0
    for w in all_permutations(n):
        B = ctx.element(w)
        assert B.terms == oracle.element(w).terms, w
        terms += len(B.terms)
    assert terms == total


_oracle = cache(TupleKL)   # one memoized tuple oracle per n


def _by_length(n):
    return sorted(all_permutations(n), key=lambda u: (length(u), u))


def _counting(ctx):
    """ctx with its recursion counted in ctx.recursions."""
    ctx.recursions, recurse = 0, ctx._recurse

    def counted(w):
        ctx.recursions += 1
        return recurse(w)

    ctx._recurse = counted
    return ctx


def _seed(ctx, src, w):
    """Put B_w of the context src into ctx, re-indexed on ctx's own
    table, as if ctx had built it."""
    perms, ix = src._index.perms, ctx._index
    ctx._table[ix(w)] = {ix(perms[z]): ctx._intern(p)
                         for z, p in src._get(src._index(w)).items()}


@pytest.mark.parametrize("order", ["length-lex", "reversed", "shuffled"])
def test_relabeled_elements_match_tuple_oracle(order):
    # an element is relabeled whenever an image under x -> x^-1, w0 x w0
    # or w0 x^-1 w0 is held, which depends on the build order
    for n in range(1, 7):
        ws = _by_length(n)
        if order == "reversed":
            ws.reverse()
        elif order == "shuffled":
            random.Random(n).shuffle(ws)
        ctx = _counting(KLContext(n))
        for w in ws:
            assert ctx.element(w).terms == _oracle(n).element(w).terms, w
        assert len(ctx) == math.factorial(n)
        assert ctx.recursions < len(ctx) or n < 3, n


def test_full_table_recurses_once_per_orbit():
    for n, orbits in ((4, 13), (5, 45), (6, 230)):
        tbl = perm_table(n)
        assert len({min(x, tbl.inv[x], tbl.conj[x], tbl.conj[tbl.inv[x]])
                    for x in range(len(tbl))}) == orbits
        ctx = _counting(KLContext(n))
        for w in _by_length(n):
            ctx.element(w)
        assert ctx.recursions == orbits, n


def test_relabeled_from_a_cache_of_the_inverse_only():
    # a held B_{w^-1} alone gives B_w with no recursion and no other
    # element built
    for n in (4, 5):
        full = KLContext(n)
        for w in _by_length(n):
            full.element(w)
        for w in all_permutations(n):
            if inverse(w) == w:
                continue
            ctx = _counting(KLContext(n))
            _seed(ctx, full, inverse(w))
            assert ctx.element(w).terms == _oracle(n).element(w).terms, w
            assert ctx.recursions == 0 and len(ctx) == 2, w


def test_relabeled_element_is_checked():
    ctx = KLContext(4)
    u, w = (3, 1, 4, 2), (2, 4, 1, 3)   # w = u^-1
    src = ctx._get(ctx._index(u))
    src[ctx._index(E4)] = ctx._intern(1 + (1 << 30))
    held = len(ctx)
    with pytest.raises(AssertionError, match="range fails"):
        ctx.element(w)
    assert len(ctx) == held   # the relabeled copy is refused, not stored


def test_cold_point_query_matches_full_table():
    # the lazy index numbers permutations in the order the recursion
    # reaches them; the elements must not depend on that order (the n=7
    # w are from perfbench/n7_pool.json, lengths 15-18)
    for n, ws in ((5, list(all_permutations(5))),
                  (7, [(6, 2, 7, 4, 5, 3, 1), (3, 7, 4, 6, 5, 2, 1),
                       (5, 7, 6, 3, 4, 2, 1)])):
        full = KLContext(n)   # built in (length, lex) order
        for w in sorted(all_permutations(n), key=lambda u: (length(u), u)):
            full.element(w)
        for w in ws:
            assert KLContext(n).element(w) == full.element(w), w


def test_point_query_indexes_only_the_interval():
    from heckelab import coxeter
    coxeter._tables.pop(8, None)
    w = (3, 6, 1, 4, 5, 7, 8, 2)
    ctx = KLContext(8)
    support = ctx.element(w).terms
    assert 8 not in coxeter._tables
    assert len(ctx) <= len(support)
    assert set(ctx._index.perms) <= set(support)


def test_lazy_table_entries_agree_with_the_complete_table():
    # a point query fills left steps only; checking the extremal pairs of
    # the elements it built, copied to a fresh context, fills right steps
    # too.  Mapped to permutations, every entry either lazy table filled
    # is the complete table's.
    full = perm_table(6)
    ctx = KLContext(6)
    ctx.element((4, 6, 2, 5, 1, 3))
    seeded = KLContext(6)
    for w in ctx._elements:
        _seed(seeded, ctx, w)
    for w, terms in seeded._table.items():
        assert pair_defect(seeded, w, terms) is None
    for lazy, filled in ((ctx._index, "lmult"), (seeded._index, "rmult")):
        assert 0 < len(lazy) < len(full)
        assert any(y is not None for row in getattr(lazy, filled)
                   for y in row)
        for x, w in enumerate(lazy.perms):
            g = full.index[w]
            assert (lazy.lengths[x], lazy.ldesc[x], lazy.rdesc[x]) == \
                (full.lengths[g], full.ldesc[g], full.rdesc[g]), w
            for mult, ref in ((lazy.lmult, full.lmult),
                              (lazy.rmult, full.rmult)):
                for s, y in enumerate(mult[x]):
                    assert y is None or lazy.perms[y] == \
                        full.perms[ref[g][s]], (w, s)


def test_polynomial_not_below_on_a_cold_context():
    ctx = KLContext(5)
    with pytest.raises(ValueError, match="not below"):
        ctx.polynomial((2, 1, 3, 4, 5), (1, 3, 2, 4, 5))
    with pytest.raises(ValueError, match="not below"):
        ctx.polynomial((5, 4, 3, 2, 1), (3, 4, 5, 1, 2))
    assert len(ctx) == 0   # refused before any element is built


def test_polynomial_not_below_builds_nothing_at_n9(monkeypatch):
    # u not below w is an O(n^2) rank test, not a walk over all of B_w
    monkeypatch.setattr(config, "_override", 9)
    ctx = KLContext(9)
    with pytest.raises(ValueError, match="not below"):
        ctx.polynomial((9, 8, 7, 6, 5, 4, 3, 2, 1), (3, 9, 1, 8, 6, 7, 4, 5, 2))
    assert len(ctx) == 0 and len(ctx._index.perms) == 2


def test_elements_keys_every_held_element_by_permutation():
    ctx = KLContext(4)
    ctx.element((3, 4, 1, 2))
    held = ctx._elements   # read by perfbench/make_n7_pool.py
    assert len(held) == len(ctx) and (3, 4, 1, 2) in held
    assert held == {w: kl_context(4).element(w) for w in held}


def test_non_permutations_are_rejected():
    ctx = KLContext(3)
    for bad in ((1, 1, 3), (1, 2), (0, 1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="not a permutation"):
            ctx.element(bad)
        with pytest.raises(ValueError, match="not a permutation"):
            ctx.polynomial(bad, (3, 2, 1))
        with pytest.raises(ValueError, match="not a permutation"):
            ctx.mu((1, 2, 3), bad)


def test_hecke_element_keys_are_checked():
    # unchecked, (1, 1, 1) printed T[1,1,1] and its induced character
    # ended in a bare KeyError; (1.0, 2, 3) printed T[1.0,2,3]
    with pytest.raises(ValueError, match=r"\(1, 1, 1\)"):
        HeckeElement(3, {(1, 1, 1): 1})
    with pytest.raises(ValueError, match="entry 1.5 is not an integer"):
        HeckeElement(3, {(1.5, 2, 3): 1})
    with pytest.raises(ValueError, match=r"size mismatch: \(2, 1\)"):
        HeckeElement(3, {(2, 1): 1})
    a = HeckeElement(3, {(1.0, 2, 3): 1})
    assert str(a) == "T[1,2,3]" and a == HeckeElement.unit(3)
    assert all(type(x) is int for w in a.terms for x in w)


def test_mu_is_the_top_allowed_coefficient():
    # mu(u, w) is the coefficient of q^((l(w)-l(u)-1)/2) in P_{u,w}, and
    # 0 when l(w) - l(u) is even
    ctx = KLContext(4)
    nonzero = 0
    for w in all_permutations(4):
        for u in all_permutations(4):
            if u == w or not bruhat_leq(u, w):
                continue
            d = length(w) - length(u) - 1
            want = ctx.polynomial(u, w).coeff(d) if d % 2 == 0 else 0
            assert ctx.mu(u, w) == want, (u, w)
            nonzero += want != 0
    assert nonzero > 0
    assert ctx.mu((3, 4, 1, 2), (2, 1, 3, 4)) == 0   # u above w
    assert ctx.mu((1, 2, 3, 4), (3, 4, 1, 2)) == 0   # even difference
    assert ctx.mu((1, 3, 2, 4), (3, 4, 1, 2)) == 1   # P = 1 + q, d = 2


def test_cprime_expand_examples():
    ctx = kl_context(3)
    # basis elements expand to themselves
    for w in all_permutations(3):
        assert ctx.expand_cprime(ctx.element(w)) == {w: ONE}
    assert ctx.expand_cprime(HeckeElement.unit(3)) == {identity(3): ONE}
    prod = bott_samelson_product((1, 2, 1), 3)
    assert ctx.expand_cprime(prod) == {(3, 2, 1): ONE, (2, 1, 3): Q}


def test_cprime_round_trip_random():
    rng = random.Random(23)
    for n in (3, 4, 5):
        ctx = kl_context(n)
        for _ in range(12):
            a = random_element(n, rng)
            expansion = ctx.expand_cprime(a)
            back = HeckeElement.zero(n)
            for w, c in expansion.items():
                back = back + ctx.element(w).scale(c)
            assert back == a


def test_expansion_matches_the_residue_oracle():
    # every KL element of S_n, n <= 5, and seeded (not necessarily
    # reduced) products at n <= 7, against the elimination on whole
    # HeckeElement residues
    for n in range(1, 6):
        ctx = kl_context(n)
        for w in all_permutations(n):
            b = ctx.element(w)
            assert ctx.expand_cprime(b) == residue_expand_cprime(ctx, b)
    rng = random.Random(30)
    for n in range(2, 8):
        ctx = kl_context(n)
        for _ in range(4):
            word = tuple(rng.randint(1, n - 1)
                         for _ in range(rng.randint(n, 2 * n)))
            a = bott_samelson_product(word, n)
            assert ctx.expand_cprime(a) == residue_expand_cprime(ctx, a), word


def test_expansion_of_fractional_json_elements():
    # fractions and negative or odd v-exponents are scaled and shifted
    # into ints on the way in and back on the way out
    rng = random.Random(31)
    for n, count in ((3, 10), (4, 10), (5, 4)):
        ctx, perms = kl_context(n), list(all_permutations(n))
        for _ in range(count):
            payload = {"n": n, "terms": [
                {"perm": list(w), "coeff": {"v": {
                    str(rng.randint(-7, 4)): f"{rng.randint(-9, 9)}/"
                    f"{rng.randint(1, 6)}" for _ in range(3)}}}
                for w in rng.sample(perms, 5)]}
            a = HeckeElement.from_json(json.loads(json.dumps(payload)))
            expansion = ctx.expand_cprime(a)
            assert expansion == residue_expand_cprime(ctx, a), payload
            assert HeckeElement(n, expansion).to_json() == \
                HeckeElement(n, residue_expand_cprime(ctx, a)).to_json()


def test_expansion_of_exponent_runs_apart():
    # v-exponents farther apart than len(w0) = 6 are expanded as separate
    # runs, whose terms must never meet; gaps on both sides of that length
    ctx = kl_context(4)
    for gap in range(1, 10):
        a = HeckeElement(4, {(4, 3, 2, 1): LaurentQ({0: 1, gap: -2}),
                             (2, 1, 3, 4): LaurentQ({gap: 3}),
                             (3, 4, 1, 2): LaurentQ({-gap: Fraction(1, 3)})})
        assert ctx.expand_cprime(a) == residue_expand_cprime(ctx, a), gap


def test_expansion_needs_fields_wider_than_64_bits():
    # X T_e with X = 2^95 - 1 fills the 96-bit fields its bound asks for,
    # and fits no narrower ones; in X T_s - X T_e the step at s lifts the
    # bound to 2X, so the pass restarts at 128 bits, where -2X at e fits;
    # X' T_w0 scales the inverse KL polynomials of S_4 past 64 bits, also
    # with fractions and negative v-exponents
    ctx, x = kl_context(4), (1 << 95) - 1
    s, e, w0 = (2, 1, 3, 4), identity(4), (4, 3, 2, 1)
    cases = [(HeckeElement(4, {e: x}), {e: LaurentQ({0: x})}),
             (HeckeElement(4, {s: x, e: -x}), {s: LaurentQ({0: x}),
                                               e: LaurentQ({0: -2 * x})}),
             (HeckeElement(4, {w0: (1 << 64) + 1}), None),
             (HeckeElement(4, {w0: LaurentQ({-3: Fraction((1 << 66) + 1, 3),
                                             2: -1}), s: Q}), None)]
    for a, want in cases:
        expansion = ctx.expand_cprime(a)
        assert expansion == residue_expand_cprime(ctx, a)
        assert want is None or expansion == want
        assert max(abs(c) for cs in expansion.values()
                   for c in cs.c.values()) > 1 << 64


def test_bott_samelson_examples():
    assert bott_samelson_product((), 3) == HeckeElement.unit(3)
    one_plus_ts = bott_samelson_product((1,), 3)
    assert one_plus_ts == HeckeElement(3, {identity(3): ONE, (2, 1, 3): ONE})
    assert one_plus_ts == kl_context(3).element((2, 1, 3))
    p = bott_samelson_product((1, 2), 3)
    assert p.terms == {identity(3): ONE, (2, 1, 3): ONE,
                       (1, 3, 2): ONE, (2, 3, 1): ONE}


def test_empty_product_is_the_unit():
    # k = 0: the coefficient 1 = 2^k needs a field of k + 2 signed bits;
    # in k + 1 = 1 bit it would read as -1
    for n in range(1, 6):
        assert bott_samelson_product((), n) == HeckeElement.unit(n)


def test_packed_product_matches_laurent_oracle():
    # term by term against the LaurentQ products and the tuple loop: every
    # word of length <= 6 at n <= 4, then seeded words at n = 5-7 (the
    # lazy table is shared, so later words reuse and extend the numbering
    # of earlier ones)
    for n in range(1, 5):
        for k in range(7):
            for word in product(range(1, n), repeat=k):
                terms = bott_samelson_product(word, n).terms
                assert terms == laurent_bott_samelson_product(word, n).terms \
                    == tuple_bott_samelson_product(word, n).terms, word
    rng = random.Random(23)
    for n in (5, 6):
        for k in (12, 20, 30):
            word = tuple(rng.randint(1, n - 1) for _ in range(k))
            assert bott_samelson_product(word, n) == \
                laurent_bott_samelson_product(word, n), word
    for _ in range(200):
        n = rng.randint(5, 7)
        word = tuple(rng.randint(1, n - 1) for _ in range(rng.randint(0, 14)))
        assert bott_samelson_product(word, n).terms == \
            tuple_bott_samelson_product(word, n).terms, word


def test_packed_product_width_bound():
    # (1 + T_s)^k = (1+q)^(k-1) (T_e + T_s): the fields hold binom(k-1, j)
    k = 60
    c = from_q_coefficients([math.comb(k - 1, j) for j in range(k)])
    assert bott_samelson_product((1,) * k, 2).terms == \
        {(1, 2): c, (2, 1): c}
    for k in (40, 61):
        word = (1, 2) * (k // 2)
        assert bott_samelson_product(word, 3) == \
            laurent_bott_samelson_product(word, 3), k


def test_product_rejects_letters_out_of_range():
    for word in ((0,), (1, 3), (2, 1, 4)):
        with pytest.raises(ValueError, match="out of range"):
            bott_samelson_product(word, 3)


def test_letters_are_read_as_integers():
    # a float letter once indexed a list: 1.0 reads as 1, 1.5 is refused
    t = HeckeElement.unit(3)
    routes = (lambda word: evaluate_word(word, 3),
              lambda word: bott_samelson_product(word, 3),
              lambda word: springer_decomposition(word, 3),
              lambda word: t.mul_word_right(word),
              lambda word: t.mul_ts_right(*word))
    for route in routes:
        assert route((1.0,)) == route((1,)) == route((True,))
        for bad in (1.5, "1"):
            with pytest.raises(ValueError, match=f"letter {bad!r} is not"):
                route((bad,))
    assert evaluate_word((2.0, 1.0), 3) == evaluate_word((2, 1), 3)


def test_product_over_w0_follows_the_group_guard(monkeypatch):
    # Demazure product w0 means all n! terms: refused from n = 8 on
    # unless a guard is set explicitly; other words pass
    monkeypatch.delenv("HECKE_LAB_MAX_N", raising=False)
    w0_word = reduced_word(tuple(range(8, 0, -1)))
    with pytest.raises(config.BudgetError, match="8! = 40,320"):
        bott_samelson_product(w0_word, 8)
    with pytest.raises(config.BudgetError):
        bott_samelson_product((1, 1) + w0_word, 8)   # not reduced
    assert len(bott_samelson_product(tuple(range(1, 8)), 8).terms) == 128
    previous = config._override
    config.set_max_n(3)
    try:
        with pytest.raises(config.BudgetError, match="size guard 3"):
            bott_samelson_product((1, 2, 1, 3, 2, 1), 4)
        assert bott_samelson_product((1, 2, 1, 3, 2), 4) == \
            laurent_bott_samelson_product((1, 2, 1, 3, 2), 4)
    finally:
        config.set_max_n(previous)


def all_reduced_words(w):
    if length(w) == 0:
        yield ()
        return
    for i in sorted(right_descents(w)):
        for rest in all_reduced_words(apply_s_right(w, i)):
            yield rest + (i,)


def test_springer_decomposition_examples():
    assert springer_decomposition((1,), 3) == {(2, 1, 3): ONE}
    dec = springer_decomposition((1, 2, 1), 3)
    assert dec == {(3, 2, 1): ONE, (2, 1, 3): Q}
    with pytest.raises(ValueError):
        springer_decomposition((1, 1), 3)


def test_springer_properties():
    # top coefficient 1; all coefficients palindromic about
    # (len(w) - len(u))/2 with nonnegative integers
    for n in (3, 4):
        ctx = kl_context(n)
        for w in all_permutations(n):
            for word in all_reduced_words(w):
                dec = springer_decomposition(word, n, ctx)
                assert dec[w] == ONE
                for u, c in dec.items():
                    d = length(w) - length(u)
                    assert c.is_palindromic(d / 2), (word, u, str(c))
                    assert all(isinstance(x, int) and x > 0
                               for x in c.c.values())
    # sampled words in S5
    rng = random.Random(5)
    ctx5 = kl_context(5)
    perms5 = list(all_permutations(5))
    for _ in range(25):
        w = rng.choice(perms5)
        word = reduced_word(w)
        dec = springer_decomposition(word, 5, ctx5)
        assert dec[w] == ONE
        for u, c in dec.items():
            assert c.is_palindromic((length(w) - length(u)) / 2)


def test_budget_guard():
    from heckelab.config import BudgetError
    with pytest.raises(BudgetError):
        KLContext(9)


def test_shared_context_is_guarded_on_every_call(monkeypatch):
    # the shared context existed before the guard was lowered, and it
    # still built elements until the guard was checked on every call
    monkeypatch.delenv("HECKE_LAB_MAX_N", raising=False)
    kl_context(5)
    previous = config._override
    config.set_max_n(4)
    try:
        with pytest.raises(config.BudgetError) as exc:
            kl_context(5).element((2, 1, 3, 4, 5))
        assert str(exc.value) == (
            "n=5 exceeds the size guard 4; raise it explicitly "
            "(HECKE_LAB_MAX_N or --max-n) if this is intentional")
    finally:
        config.set_max_n(previous)


def test_json_round_trip():
    ctx = kl_context(4)
    B = ctx.element((3, 4, 1, 2))
    assert HeckeElement.from_json(B.to_json()) == B


def test_float_coefficient_is_refused():
    with pytest.raises(ValueError, match="coefficient 0.1 is not an"):
        HeckeElement(2, {(1, 2): 0.1})
    with pytest.raises(ValueError, match="coefficient 0.5 is not an"):
        HeckeElement.unit(2).scale(0.5)


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["terms"][0].update(perm=[1.9, 2, 3]),
     "letter 1.9 is not an integer"),
    (lambda d: d.update(n=3.7), "rank 3.7 is not an integer"),
], ids=["letter", "rank"])
def test_json_non_integers_are_refused(edit, message):
    # int() would read [1.9, 2, 3] as T[1,2,3] and 3.7 as 3
    data = HeckeElement.unit(3).to_json()
    edit(data)
    with pytest.raises(ValueError, match=message):
        HeckeElement.from_json(data)


def test_json_repeated_permutation_is_refused():
    # the last of two terms on T[2,1] used to win
    term = {"perm": [2, 1], "coeff": {"v": {"0": "1"}}}
    with pytest.raises(ValueError, match=r"repeated permutation \[2, 1\]"):
        HeckeElement.from_json({"n": 2, "terms": [term, dict(term)]})


def test_defect_refuses_fields_outside_the_range():
    # a stored field >= 2^30 or < 0 would let the next sum P_lo + q P_hi
    # carry into, or borrow from, the field above it
    ctx = KLContext(4)
    w, e = ctx._index((3, 4, 1, 2)), ctx._index(E4)
    terms = dict(ctx._get(w))
    assert ctx._defect(w, terms) is None
    for c in (1 << 30, (1 << 32) - 1, -1):
        terms[e] = ctx._intern(1 + (c << 32))
        assert "range fails for P_((1, 2, 3, 4)," in ctx._defect(w, terms)


def test_defect_agrees_with_the_shift_oracle():
    # the per-polynomial bounds refuse what the shifts and masks refuse
    # and name the same P: on every element of S_n as it is built,
    # recursed or relabeled, and on tampered copies of it.  Only a term
    # longer than w made the shifts raise instead.
    for n in range(1, 6):
        ctx = KLContext(n)
        ix, check, mirror, relabeled = ctx._index, ctx._defect, ctx._mirror, []

        def defect(w, terms):
            assert (why := check(w, terms)) == shift_defect(ctx, w, terms)
            return why

        def relabel(w):
            relabeled.append((out := mirror(w)) is not None)
            return out

        ctx._defect, ctx._mirror = defect, relabel
        for w in all_permutations(n):
            ctx.element(w)
        assert len(relabeled) == math.factorial(n)
        assert n < 3 or 0 < sum(relabeled) < len(relabeled)
        w0 = ix(tuple(range(n, 0, -1)))
        for w, terms in list(ctx._table.items()):
            lw, copies = ix.lengths[w], [dict(terms)]
            del copies[0][w]   # no leading 1
            for z, p in terms.items():
                k = max(lw - ix.lengths[z] - 1, 0) // 2   # top degree allowed
                c = p >> W * k & (1 << W) - 1   # its coefficient
                for bad in (p + (1 << W * ((lw - ix.lengths[z] + 1) // 2)),
                            p + 1, p + (1 << 30 << W * k),
                            p - (c + 1 << W * k)):
                    copies.append({**terms, z: ctx._intern(bad)})
            for bad in copies:
                assert check(w, bad) == shift_defect(ctx, w, bad) is not None
            if w != w0:   # a term longer than w
                why = check(w, bad := {**terms, w0: 1})
                assert f"fails for P_({ix.perms[w0]},{ix.perms[w]}) = 1" in why
                if ix.lengths[w0] - lw >= 2:
                    with pytest.raises(ValueError, match="negative shift"):
                        shift_defect(ctx, w, bad)
                else:
                    assert why == shift_defect(ctx, w, bad)


def _fresh_entries(ctx):
    """Every permutation the context numbered, with its length and
    left and right descent masks counted afresh, and as stored."""
    ix = ctx._index
    return ([(w, length(w), _descents(inverse(w)), _descents(w))
             for w in ix.perms],
            list(zip(ix.perms, ix.lengths, ix.ldesc, ix.rdesc)))


def test_numbered_permutations_have_their_descents():
    # left and right take the length and both masks of a new permutation
    # from the one it came from; a full table, cold point queries and the
    # extremal-pair check of a copied table (right steps in `pair_defect`)
    # all keep them exact
    full = {}
    for n in range(1, 7):
        ctx = full[n] = KLContext(n)
        for w in all_permutations(n):
            ctx.element(w)
        fresh, stored = _fresh_entries(ctx)
        assert len(fresh) == math.factorial(n) and fresh == stored, n
    for w in random.Random(7).sample(list(all_permutations(7)), 20):
        ctx = KLContext(7)
        ctx.element(w)
        fresh, stored = _fresh_entries(ctx)
        assert fresh == stored, w
    seeded = KLContext(4)
    for w in all_permutations(4):
        _seed(seeded, full[4], w)
    for w, terms in seeded._table.items():
        assert pair_defect(seeded, w, terms) is None
    assert any(y is not None for row in seeded._index.rmult for y in row)
    fresh, stored = _fresh_entries(seeded)
    assert fresh == stored


def test_built_elements_pass_the_extremal_pair_check():
    # every element of the full tables for n <= 6, and of 20 cold n=7
    # point queries, keeps P_{x,w} = P_{sx,w} and P_{x,w} = P_{xs,w}
    for n in range(1, 7):
        ctx = KLContext(n)
        for w in all_permutations(n):
            ctx.element(w)
        for w, terms in ctx._table.items():
            assert pair_defect(ctx, w, terms) is None, (n, ctx._index.perms[w])
    for w in random.Random(7).sample(list(all_permutations(7)), 20):
        ctx = KLContext(7)
        ctx.element(w)
        wi = ctx._index(w)
        assert pair_defect(ctx, wi, ctx._table[wi]) is None, w


def _raised(ctx, w, xs, j):
    """B_w on the indices of ctx with q^j added to P_{x,w}, x in xs."""
    ix = ctx._index
    terms = dict(ctx._get(ix(w)))
    for x in xs:
        terms[ix(x)] = ctx._intern(terms[ix(x)] + (1 << W * j))
    return terms


def test_load_json_rejects_plausible_changes():
    # the extremal-pair check that guarded loaded tables, now the
    # `pair_defect` oracle:
    # P_{x,w} + q^j keeps the constant term, the leading 1 and the degree
    # bound whenever j < (l(w) - l(x)) / 2; only the extremal-pair
    # equalities can tell it from the true polynomial.  Every such single
    # change at n = 4, and 300 of the 3,441 at n = 5.
    for n, sample in ((4, None), (5, 300)):
        ctx = KLContext(n)   # not the shared context: `_raised` interns
        changes = [(w, x, j) for w in all_permutations(n)
                   for x in ctx.element(w).terms
                   for j in range(1, (length(w) - length(x) + 1) // 2)]
        if sample:
            changes = random.Random(n).sample(changes, sample)
        for w, x, j in changes:
            raised = _raised(ctx, w, {x}, j)
            assert ctx._defect(ctx._index(w), raised) is None
            assert "differs from" in pair_defect(ctx, ctx._index(w), raised)
    # {12345, 21345} is closed under the left-hand equalities for
    # w = 23451, so only a right-hand one sees both raised together
    w = (2, 3, 4, 5, 1)
    raised = _raised(ctx, w, {(1, 2, 3, 4, 5), (2, 1, 3, 4, 5)}, 1)
    assert "differs from" in pair_defect(ctx, ctx._index(w), raised)


@given(st.integers(min_value=2, max_value=5), st.data())
def test_t_basis_products_respect_lengths(n, data):
    word = data.draw(st.lists(st.integers(1, n - 1), max_size=6))
    elem = HeckeElement.unit(n).mul_word_right(tuple(word))
    w = identity(n)
    for i in word:
        w = apply_s_right(w, i)
    # the product is supported on Bruhat-below permutations and the
    # coefficient of the full product survives when the word is reduced
    if length(w) == len(word):
        assert elem.coeff(w) == ONE


def test_terms_are_the_element_without_its_dict():
    # KLContext.terms gives the (permutation, shared coefficient object)
    # pairs of element(w)
    ctx = kl_context(4)
    for w in all_permutations(4):
        pairs = list(ctx.terms(w))
        assert dict(pairs) == ctx.element(w).terms and \
            len(pairs) == len(ctx.element(w).terms), w
        assert all(c is ctx.element(w).terms[z] for z, c in pairs), w
