"""Permutation combinatorics: words, orders, patterns, Hessenberg maps."""

import pytest
from hypothesis import given, strategies as st

from heckelab.coxeter import (
    PermTable, all_hessenberg_functions, all_permutations, apply_s_left,
    apply_s_right,
    avoids_patterns, bruhat_leq, check_hessenberg, codominant_from_hessenberg,
    cycle_type, evaluate_word, identity, inverse, left_descents,
    left_inversions, length, multiply, perm_table, reduced_word,
    right_descents, w0_conjugate,
)
from oracles import (
    apply_transposition_left, eager_perm_table, subword_bruhat_leq,
    transpositions, weak_left_leq,
)

SMOOTH_PATTERNS = [(3, 4, 1, 2), (4, 2, 3, 1)]


def perms_strategy(max_n=6):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1)))).map(tuple)


def same_n_pairs(max_n=5):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(st.permutations(list(range(1, n + 1))),
                            st.permutations(list(range(1, n + 1))))
    ).map(lambda p: (tuple(p[0]), tuple(p[1])))


def test_multiply_examples():
    assert multiply((2, 1, 3), (1, 3, 2)) == (2, 3, 1)
    w = (3, 1, 4, 2)
    assert multiply(identity(4), w) == w
    assert multiply(w, inverse(w)) == identity(4)
    with pytest.raises(ValueError):
        multiply((1, 2), (1, 2, 3))


@given(same_n_pairs(), st.data())
def test_multiply_associative(pair, data):
    u, w = pair
    v = tuple(data.draw(st.permutations(list(range(1, len(u) + 1)))))
    assert multiply(multiply(u, v), w) == multiply(u, multiply(v, w))


def test_length_examples():
    assert length((4, 2, 1, 3)) == 4
    assert length((1, 2, 3, 4)) == 0
    assert length((4, 3, 2, 1)) == 6


def test_left_inversions_examples():
    # the inversion set of 4213 consists of the value pairs
    # (1,2), (1,4), (2,4), (3,4)
    assert left_inversions((4, 2, 1, 3)) == \
        frozenset({(1, 2), (1, 4), (2, 4), (3, 4)})
    assert left_inversions(identity(3)) == frozenset()
    assert left_inversions((4, 3, 2, 1)) == frozenset(transpositions(4))


def test_inversion_count_matches_length():
    for n in range(1, 6):
        for w in all_permutations(n):
            assert len(left_inversions(w)) == length(w)


def test_left_inversions_are_length_droppers():
    # defining property: t is a left inversion iff t*w is shorter
    for n in range(1, 5):
        for w in all_permutations(n):
            expected = frozenset(
                t for t in transpositions(n)
                if length(apply_transposition_left(w, t)) < length(w))
            assert left_inversions(w) == expected


def test_left_descents_examples():
    assert left_descents((4, 2, 1, 3)) == frozenset({1, 3})
    assert left_descents(identity(4)) == frozenset()
    assert left_descents((2, 1, 3, 4)) == frozenset({1})


def test_left_multiplication_changes_length_by_one():
    for n in range(2, 6):
        for w in all_permutations(n):
            for s in range(1, n):
                assert abs(length(apply_s_left(w, s)) - length(w)) == 1


def test_updown_lemma_exhaustive():
    # if s'w > w and ws > w then s'ws = w, or s'ws dominates both
    for n in range(2, 6):
        for w in all_permutations(n):
            lw = length(w)
            for sp in range(1, n):
                if length(apply_s_left(w, sp)) < lw:
                    continue
                for s in range(1, n):
                    if length(apply_s_right(w, s)) < lw:
                        continue
                    x = apply_s_left(apply_s_right(w, s), sp)
                    if x == w:
                        continue
                    assert length(x) == lw + 2


def test_inversion_growth_lemma():
    # ws > w implies the inversion set grows by exactly the transposition
    # t with t w = ws
    for n in range(2, 6):
        for w in all_permutations(n):
            for s in range(1, n):
                ws = apply_s_right(w, s)
                if length(ws) < length(w):
                    continue
                a, b = sorted((w[s - 1], w[s]))
                assert left_inversions(ws) == \
                    left_inversions(w) | {(a, b)}


def test_bruhat_examples():
    assert bruhat_leq((1, 3, 4, 2), (3, 4, 1, 2))
    w = (2, 4, 1, 3)
    assert bruhat_leq(w, w)
    assert not bruhat_leq((4, 3, 2, 1), (1, 2, 3, 4))
    for u in all_permutations(3):
        assert bruhat_leq(identity(3), u)
    with pytest.raises(ValueError):
        bruhat_leq((1, 2), (1, 2, 3))


def test_bruhat_against_subword_oracle():
    for n in range(1, 5):
        for u in all_permutations(n):
            for w in all_permutations(n):
                assert bruhat_leq(u, w) == subword_bruhat_leq(u, w), (u, w)


def test_reduced_word_examples():
    assert reduced_word((3, 4, 1, 2)) == (2, 1, 3, 2)
    assert reduced_word(identity(5)) == ()
    assert reduced_word((2, 1, 3)) == (1,)


@given(perms_strategy())
def test_reduced_word_round_trip(w):
    word = reduced_word(w)
    assert len(word) == length(w)
    assert evaluate_word(word, len(w)) == w


def test_avoids_patterns_examples():
    assert not avoids_patterns((3, 4, 1, 2), SMOOTH_PATTERNS)
    assert avoids_patterns((1, 2, 3, 4), SMOOTH_PATTERNS)
    assert not avoids_patterns((4, 5, 3, 1, 2), SMOOTH_PATTERNS)
    with pytest.raises(ValueError):
        avoids_patterns((1, 2, 3), [])


def test_codominant_examples():
    assert codominant_from_hessenberg((2, 3, 4, 4)) == (2, 3, 4, 1)
    for n in range(1, 6):
        assert codominant_from_hessenberg(tuple(range(1, n + 1))) == \
            identity(n)
        assert codominant_from_hessenberg((n,) * n) == \
            tuple(range(n, 0, -1))


def test_codominant_bound_and_maximality():
    for n in range(1, 6):
        for m in all_hessenberg_functions(n):
            w = codominant_from_hessenberg(m)
            assert all(w[i] <= m[i] for i in range(n))
            # lexicographically greatest among fitting permutations
            for u in all_permutations(n):
                if all(u[i] <= m[i] for i in range(n)):
                    assert u <= w


def test_codominant_avoids_patterns_up_to_7():
    for n in range(1, 8):
        for m in all_hessenberg_functions(n):
            assert avoids_patterns(codominant_from_hessenberg(m),
                                   SMOOTH_PATTERNS), m


def test_hessenberg_validation():
    check_hessenberg((2, 3, 4, 4))
    check_hessenberg((2, 2))
    with pytest.raises(ValueError):
        check_hessenberg((1, 1, 3))  # m(2) < 2
    with pytest.raises(ValueError):
        check_hessenberg((3, 2, 3))  # not nondecreasing
    with pytest.raises(ValueError):
        check_hessenberg((2, 3))  # values must end at n


def test_non_integer_hessenberg_value_is_refused():
    # int() would read (2.5, 3, 3) as the valid (2, 3, 3)
    with pytest.raises(ValueError, match="Hessenberg value 2.5 is not an"):
        check_hessenberg((2.5, 3, 3))


def test_cycle_type_examples():
    assert cycle_type((2, 3, 4, 1)) == (4,)
    assert cycle_type(identity(4)) == (1, 1, 1, 1)
    assert cycle_type((2, 1, 4, 3)) == (2, 2)


@given(same_n_pairs())
def test_cycle_type_conjugation_invariant(pair):
    u, w = pair
    assert cycle_type(multiply(multiply(u, w), inverse(u))) == cycle_type(w)


def test_weak_left_order():
    assert weak_left_leq((1, 2, 3), (3, 2, 1))
    assert not weak_left_leq((2, 1, 3), (1, 3, 2))


def test_perm_table_consistency():
    tbl = perm_table(4)
    assert tbl.perms[0] == identity(4)
    for gi, w in enumerate(tbl.perms):
        assert tbl.lengths[gi] == length(w)
        for s in range(1, 4):
            assert tbl.perms[tbl.rmult[gi][s - 1]] == apply_s_right(w, s)
            assert tbl.perms[tbl.lmult[gi][s - 1]] == apply_s_left(w, s)
        assert tbl.perms[tbl.inv[gi]] == inverse(w)
        w0 = tuple(range(4, 0, -1))
        assert tbl.perms[tbl.conj[gi]] == w0_conjugate(w) == \
            multiply(multiply(w0, w), w0)


def test_shared_perm_table_is_guarded_on_every_call(monkeypatch):
    from heckelab import config
    monkeypatch.delenv("HECKE_LAB_MAX_N", raising=False)
    perm_table(5)
    previous = config._override
    config.set_max_n(4)
    try:
        with pytest.raises(config.BudgetError, match="n=5 exceeds the "
                           "size guard 4"):
            perm_table(5)
        assert len(perm_table(4)) == 24
    finally:
        config.set_max_n(previous)
    assert len(perm_table(5)) == 120


def test_perm_table_matches_the_eager_oracle():
    for n in range(1, 8):
        tbl, ref = perm_table(n), eager_perm_table(n)
        for name in ("perms", "index", "lengths", "lmult", "rmult", "ldesc",
                     "inv", "conj"):
            assert getattr(tbl, name) == getattr(ref, name), (n, name)
        assert tbl.rdesc == [sum(1 << (i - 1) for i in right_descents(w))
                             for w in tbl.perms], n


def test_steps_from_the_identity_number_s_n_with_exact_entries():
    # every permutation numbered by `left` alone, or by `right` alone,
    # takes its length and descent masks from the one it came from
    for n in range(1, 7):
        full = perm_table(n)
        for step in ("left", "right"):
            tbl = PermTable(n)
            tbl(identity(n))
            x = 0
            while x < len(tbl):
                for s in range(n - 1):
                    getattr(tbl, step)(x, s)
                x += 1
            assert len(tbl) == len(full), (n, step)
            for y, w in enumerate(tbl.perms):
                g = full.index[w]
                assert (tbl.lengths[y], tbl.ldesc[y], tbl.rdesc[y]) == \
                    (full.lengths[g], full.ldesc[g], full.rdesc[g]), (w, step)
