"""Parabolic quotients, the two character pipelines, good words and roots.

The worked S4 example with J = {1,3} (cosets under the Young subgroup
S_2 x S_2) is used as ground truth throughout; its quotient, dot action,
fixed-point sets, good sets, and character value 2q^2+6q+2 are all pinned
here.
"""

import math
import random
import sys
import threading
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from heckelab.coxeter import (
    all_permutations, apply_s_left, cycle_type, identity, left_inversions,
    length, multiply, perm_table,
)
from heckelab.hecke import HeckeElement, bott_samelson_product, kl_context
from heckelab.laurentq import LaurentQ, ONE, Q, ZERO, from_q_coefficients, \
    q_power
from heckelab import cli, parabolic
from heckelab.parabolic import (
    _ClassChars, _class_chars, _classes, _young_characters, _young_type,
    all_parabolic_subsets, bin_set,
    bott_samelson_character, derive_root_sequence, good_word_character,
    good_word_characters_all_j, good_words, induced_character,
    induced_characters,
    is_good_sequence, kappa, parabolic_quotient, phi,
    young_subgroup_generators,
)
from heckelab.symfunc import SymFunc, frobenius_character, partitions
from oracles import (
    build_trace_table, dfs_bin_set, dfs_bott_samelson_character,
    dfs_good_word_characters_all_j, dfs_good_words, dot_action,
    gauss_number, hecke_dot_matrix, mac_class_polys, mac_young_characters,
    min_coset_rep, quotient_class_traces, trace_route_character,
    trace_table, weak_left_leq,
)

J13 = frozenset({1, 3})
SIGMA = (1, 2)
CJS_VALUE = from_q_coefficients([2, 6, 2])


def test_quotient_example():
    Q4 = parabolic_quotient(4, J13)
    assert Q4.reps == ((1, 2, 3, 4), (1, 3, 2, 4), (1, 3, 4, 2),
                       (3, 1, 2, 4), (3, 1, 4, 2), (3, 4, 1, 2))


def test_quotient_is_an_immutable_value():
    a = parabolic_quotient(4, J13)
    assert a == parabolic_quotient(4, {3, 1}) != parabolic_quotient(4, {1})
    assert a != a.reps
    assert repr(a).startswith("ParabolicQuotient(n=4, J=frozenset({1, 3}), "
                              "reps=((1, 2, 3, 4), (1, 3, 2, 4), ")
    assert "index" not in repr(a) and a.index[(3, 4, 1, 2)] == 5
    assert len(a) == 6 and [3, 4, 1, 2] in a and (2, 1, 3, 4) not in a
    for name in ("n", "reps", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, name, None)
    with pytest.raises(AttributeError):
        del a.J
    with pytest.raises(TypeError):
        hash(a)   # its index is a dict


def test_quotient_sizes_and_minimality():
    for n in range(1, 6):
        fact = math.factorial(n)
        for J in all_parabolic_subsets(n):
            Qj = parabolic_quotient(n, J)
            assert Qj.reps[0] == identity(n)
            order = 1
            # |W_J| = product of factorials of block sizes
            blocks = []
            run = 0
            for i in range(1, n):
                if i in J:
                    run += 1
                else:
                    blocks.append(run + 1)
                    run = 0
            blocks.append(run + 1)
            for b in blocks:
                order *= math.factorial(b)
            assert len(Qj.reps) == fact // order, (n, sorted(J))
            seen = set()
            for w in Qj.reps:
                assert min_coset_rep(w, J) == w
                seen.add(min_coset_rep(w, J))
            assert len(seen) == len(Qj.reps)


def test_dot_action_example():
    Q4 = parabolic_quotient(4, J13)
    w = (1, 3, 4, 2)
    assert dot_action(w, 1, Q4) == (3, 1, 4, 2)
    assert dot_action(w, 2, Q4) == (1, 3, 4, 2)
    assert dot_action(w, 3, Q4) == (1, 3, 2, 4)
    e = identity(4)
    for s in J13:
        assert dot_action(e, s, Q4) == e
    with pytest.raises(ValueError):
        dot_action((2, 1, 3, 4), 1, Q4)


def test_dot_matrix_example_rows():
    Q4 = parabolic_quotient(4, J13)
    i = Q4.index[(1, 3, 4, 2)]

    def row(s):
        M = hecke_dot_matrix(s, Q4)
        return {Q4.reps[j]: c for j, c in enumerate(M[i]) if c}

    assert row(1) == {(3, 1, 4, 2): ONE}
    assert row(2) == {(1, 3, 4, 2): Q}
    assert row(3) == {(1, 3, 2, 4): Q, (1, 3, 4, 2): Q - ONE}


def test_dot_matrix_regular_representation():
    Q0 = parabolic_quotient(3, frozenset())
    for s in (1, 2):
        M = hecke_dot_matrix(s, Q0)
        for i, u in enumerate(Q0.reps):
            got = {Q0.reps[j]: c for j, c in enumerate(M[i]) if c}
            assert got == HeckeElement.t_basis(3, u).mul_ts_right(s).terms


def test_induced_character_basics():
    assert induced_character(HeckeElement.unit(4), J13) == LaurentQ({0: 6})
    S = frozenset({1, 2, 3})
    for w in all_permutations(4):
        assert induced_character(HeckeElement.t_basis(4, w), S) == \
            q_power(length(w))


def test_induced_character_of_kl_element():
    # q^2 C'_3412 at the full parabolic: sum of P_{z,w} q^len(z) over the
    # fourteen-term table gives 1+4q+6q^2+4q^3+q^4
    B = kl_context(4).element((3, 4, 1, 2))
    expected = ZERO
    for z, p in B.terms.items():
        expected = expected + p * q_power(length(z))
    assert expected == from_q_coefficients([1, 4, 6, 4, 1])
    assert induced_character(B, frozenset({1, 2, 3})) == expected


def test_bott_samelson_character_example():
    assert bott_samelson_character(SIGMA, J13, 4) == CJS_VALUE
    assert induced_character(bott_samelson_product(SIGMA, 4), J13) == \
        CJS_VALUE


def test_quotient_action_vectors_of_worked_example():
    # the full row vectors of (1+T_s1)(1+T_s2) on the six basis elements,
    # in the scaled convention where moving up along the dot action costs
    # a factor q: row w carries q max + min at each step
    Q4 = parabolic_quotient(4, J13)
    qt_rows = {
        (1, 2, 3, 4): {(1, 3, 2, 4): Q * (Q + ONE), (1, 2, 3, 4): Q + ONE},
        (1, 3, 2, 4): {(3, 1, 2, 4): Q * (Q + ONE), (1, 3, 2, 4): Q,
                       (1, 2, 3, 4): ONE},
        (1, 3, 4, 2): {(3, 4, 1, 2): Q * Q, (3, 1, 4, 2): Q,
                       (1, 3, 4, 2): Q + ONE},
        (3, 1, 2, 4): {(3, 1, 2, 4): Q * (Q + ONE), (1, 3, 2, 4): Q,
                       (1, 2, 3, 4): ONE},
        (3, 1, 4, 2): {(3, 4, 1, 2): Q * Q, (3, 1, 4, 2): Q,
                       (1, 3, 4, 2): Q + ONE},
        (3, 4, 1, 2): {(3, 4, 1, 2): Q * (Q + ONE), (3, 1, 4, 2): Q + ONE},
    }
    # realize the scaled convention by conjugating the module action with
    # the diagonal q^len(w): D M D^(-1) with M the product of the two
    # one-plus-generator matrices
    m = len(Q4.reps)
    M1 = hecke_dot_matrix(1, Q4)
    M2 = hecke_dot_matrix(2, Q4)
    prod = [[M1[i][j] + (ONE if i == j else LaurentQ())
             for j in range(m)] for i in range(m)]  # 1 + T_s1
    step2 = [[M2[i][j] + (ONE if i == j else LaurentQ())
              for j in range(m)] for i in range(m)]  # 1 + T_s2
    full = [[sum((prod[i][k] * step2[k][j] for k in range(m)),
                 start=LaurentQ()) for j in range(m)] for i in range(m)]
    for i, w in enumerate(Q4.reps):
        row = {}
        for j, u in enumerate(Q4.reps):
            c = full[i][j] * q_power(length(u) - length(w))
            if c:
                row[u] = c
        assert row == qt_rows[w], w


def test_projection_sets_of_worked_example():
    # the good pairs over the whole group and the fixed pairs over the
    # quotient for the length-two word, and the projection between them
    F1 = {((1, 2, 3, 4), (0, 0)), ((1, 3, 2, 4), (0, 1)),
          ((1, 3, 4, 2), (0, 0)), ((1, 4, 3, 2), (0, 1)),
          ((2, 1, 3, 4), (1, 0)), ((3, 1, 2, 4), (1, 0)),
          ((3, 1, 4, 2), (1, 0)), ((3, 2, 1, 4), (1, 1)),
          ((3, 4, 1, 2), (0, 1)), ((4, 3, 1, 2), (1, 1))}
    got = {(w, b) for w in all_permutations(4)
           for b in good_words(w, SIGMA, J13)}
    assert got == F1
    F2 = {((1, 2, 3, 4), (0, 0)), ((1, 2, 3, 4), (1, 0)),
          ((1, 3, 2, 4), (0, 1)), ((1, 3, 4, 2), (0, 0)),
          ((1, 3, 4, 2), (0, 1)), ((3, 1, 2, 4), (1, 0)),
          ((3, 1, 2, 4), (1, 1)), ((3, 1, 4, 2), (1, 0)),
          ((3, 4, 1, 2), (0, 1)), ((3, 4, 1, 2), (1, 1))}
    Q4 = parabolic_quotient(4, J13)
    got2 = {(w, b) for w in Q4.reps for b in bin_set(w, SIGMA, J13)}
    assert got2 == F2
    assert {kappa(w, b, SIGMA, J13) for w, b in F1} == F2


def test_bott_samelson_character_empty_word():
    for n in range(1, 5):
        for J in all_parabolic_subsets(n):
            Qj = parabolic_quotient(n, J)
            assert bott_samelson_character((), J, n) == \
                LaurentQ({0: len(Qj.reps)})


def test_character_monic_when_all_generators_appear():
    rng = random.Random(3)
    for n in (3, 4, 5):
        gens = list(range(1, n))
        for _ in range(8):
            word = gens + [rng.choice(gens) for _ in range(rng.randint(0, 3))]
            rng.shuffle(word)
            word = tuple(word)
            for J in (frozenset(), frozenset(gens),
                      frozenset(rng.sample(gens, rng.randint(0, n - 1)))):
                c = bott_samelson_character(word, J, n)
                assert c.coeff(2 * len(word)) == 1, (word, sorted(J))


def test_character_palindromic_for_reduced_words():
    from heckelab.coxeter import reduced_word
    for n in (3, 4):
        for w in all_permutations(n):
            word = reduced_word(w)
            for J in all_parabolic_subsets(n):
                c = bott_samelson_character(word, J, n)
                assert c.is_palindromic(len(word) / 2), (w, sorted(J))


def test_phi_examples():
    assert phi((1, 2, 3, 4), SIGMA, (1, 0), J13) == (1, 2, 3, 4)
    # all-zero words never move the identity
    for sigma in product((1, 2), repeat=3):
        assert phi(identity(3), sigma, (0,) * 3) == identity(3)
    with pytest.raises(ValueError):
        phi((2, 1, 3, 4), SIGMA, (1, 0), J13)
    with pytest.raises(ValueError):
        phi((1, 2, 3, 4), SIGMA, (1, 0, 1), J13)


def test_phi_full_trace_of_worked_example():
    # w = 4213 (not 4231: that variant is not fixed by this pair), with
    # the length-six word and bits 101110; the intermediate chain is
    # 4213, 2413, 2431, 2431, 4231, 4213
    w = (4, 2, 1, 3)
    sigma = (2, 1, 3, 2, 1, 3)
    bits = (1, 0, 1, 1, 1, 0)
    chain = [(4, 2, 1, 3), (2, 4, 1, 3), (2, 4, 3, 1), (2, 4, 3, 1),
             (4, 2, 3, 1), (4, 2, 1, 3)]
    for k in range(1, 7):
        assert phi(w, sigma[:k], bits[:k]) == chain[k - 1]
    assert bits in good_words(w, sigma, frozenset({1, 2, 3}))


def test_bin_sets_example():
    expected = {
        (1, 2, 3, 4): {(1, 0), (0, 0)},
        (1, 3, 2, 4): {(0, 1)},
        (1, 3, 4, 2): {(0, 0), (0, 1)},
        (3, 1, 2, 4): {(1, 1), (1, 0)},
        (3, 1, 4, 2): {(1, 0)},
        (3, 4, 1, 2): {(1, 1), (0, 1)},
    }
    for w, bins in expected.items():
        assert bin_set(w, SIGMA, J13) == bins
    assert bin_set(identity(3), (), frozenset()) == {()}


def test_good_sets_example():
    expected = {
        (1, 2, 3, 4): {(0, 0)}, (1, 3, 2, 4): {(0, 1)},
        (1, 3, 4, 2): {(0, 0)}, (1, 4, 3, 2): {(0, 1)},
        (2, 1, 3, 4): {(1, 0)}, (3, 1, 2, 4): {(1, 0)},
        (3, 1, 4, 2): {(1, 0)}, (3, 2, 1, 4): {(1, 1)},
        (3, 4, 1, 2): {(0, 1)}, (4, 3, 1, 2): {(1, 1)},
    }
    for w in all_permutations(4):
        assert good_words(w, SIGMA, J13) == expected.get(w, set()), w


def test_good_word_character_example():
    assert good_word_character(SIGMA, J13, 4) == CJS_VALUE
    assert good_word_characters_all_j(SIGMA, 4)[J13] == CJS_VALUE


def test_good_word_character_empty_word():
    # only the words with no witnesses to provide survive: exactly the
    # minimal coset representatives contribute the empty word
    for n in range(1, 5):
        for J in all_parabolic_subsets(n):
            Qj = parabolic_quotient(n, J)
            assert good_word_character((), J, n) == \
                LaurentQ({0: len(Qj.reps)})


def test_all_zero_word_is_good_for_identity():
    for n in (2, 3, 4):
        for k in range(0, 4):
            for sigma in product(range(1, n), repeat=k):
                for J in all_parabolic_subsets(n):
                    assert (0,) * k in good_words(identity(n), sigma, J)


def test_trace_and_enumeration_pipelines_agree_n3():
    for k in range(0, 5):
        for sigma in product((1, 2), repeat=k):
            for J in all_parabolic_subsets(3):
                trace = bott_samelson_character(sigma, J, 3)
                good = good_word_character(sigma, J, 3)
                alt = induced_character(bott_samelson_product(sigma, 3), J)
                assert trace == good == alt, (sigma, sorted(J))


def test_kappa_examples():
    assert kappa((2, 1, 3, 4), (1, 0), SIGMA, J13) == ((1, 2, 3, 4), (1, 0))
    assert kappa((3, 4, 1, 2), (0, 1), SIGMA, J13) == ((3, 4, 1, 2), (0, 1))
    assert kappa((4, 3, 1, 2), (1, 1), SIGMA, J13) == ((3, 4, 1, 2), (1, 1))
    with pytest.raises(ValueError):
        kappa((1, 2, 3, 4), (1, 1), SIGMA, J13)


def test_kappa_bijection_small():
    for k in range(0, 4):
        for sigma in product((1, 2), repeat=k):
            for J in all_parabolic_subsets(3):
                F1 = [(w, b) for w in all_permutations(3)
                      for b in sorted(good_words(w, sigma, J))]
                Qj = parabolic_quotient(3, J)
                F2 = {(w, b) for w in Qj.reps for b in bin_set(w, sigma, J)}
                image = [kappa(w, b, sigma, J) for w, b in F1]
                assert len(set(image)) == len(image), (sigma, sorted(J))
                assert set(image) == F2, (sigma, sorted(J))


def test_kappa_keeps_its_error_messages():
    with pytest.raises(ValueError, match=r"\(1, 1\) does not fix "
                       r"\(1, 2, 3, 4\) along \(1, 2\)"):
        kappa((1, 2, 3, 4), (1, 1), SIGMA, J13)
    # 2134 is fixed by the empty word, but its descent 1 in J is unwitnessed
    with pytest.raises(ValueError, match=r"\(\) is not good for "
                       r"\(2, 1, 3, 4\): descent 1 has no witness step"):
        kappa((2, 1, 3, 4), (), (), J13)
    with pytest.raises(ValueError, match="descent 3 has no witness step"):
        kappa((1, 2, 4, 3), (0, 0), SIGMA, J13)


def test_quotient_tables_are_guarded_on_every_call(monkeypatch):
    # the shared quotient tables existed before the guard was lowered, and
    # they still answered at n=5 until the guard was checked on every call
    from heckelab import config
    monkeypatch.delenv("HECKE_LAB_MAX_N", raising=False)
    e = identity(5)
    calls = [lambda: bott_samelson_character((1, 2, 3, 4), (), 5),
             lambda: good_word_character((1, 2), {1}, 5),
             lambda: good_word_characters_all_j((1, 2), 5),
             lambda: bin_set(e, (1, 2), {3}, 5),
             lambda: kappa(e, (0, 0), (1, 2), {1})]
    before = [f() for f in calls]
    assert str(before[1]) == "13+46q+13q^2"
    previous = config._override
    config.set_max_n(4)
    try:
        for f in calls:
            with pytest.raises(config.BudgetError) as exc:
                f()
            assert str(exc.value) == (
                "n=5 exceeds the size guard 4; raise it explicitly "
                "(HECKE_LAB_MAX_N or --max-n) if this is intentional")
    finally:
        config.set_max_n(previous)
    assert [f() for f in calls] == before


def test_binary_words_are_checked():
    e, empty = (1, 2, 3), frozenset()
    for b in ((0, 1), ()):
        with pytest.raises(ValueError, match="differ in length"):
            kappa(e, b, (1,), empty)
    with pytest.raises(ValueError, match=r"not a binary word: \(2, 0\)"):
        kappa(e, (2, 0), (1, 1), empty)
    with pytest.raises(ValueError, match="differ in length"):
        derive_root_sequence(e, (1,), (0, 1), empty)
    with pytest.raises(ValueError, match="not a binary word"):
        derive_root_sequence(e, (1,), (3,), empty)


def test_non_permutations_are_named():
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.4: "
                       r"\(1, 2, 3\)"):
        bin_set((1, 2, 3), (1,), {1}, n=4)
    with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3: "
                       r"\(1, 1, 2\)"):
        good_words((1, 1, 2), (1,), frozenset())
    with pytest.raises(ValueError, match="not a permutation"):
        kappa((1, 1, 2), (0,), (1,), frozenset())
    with pytest.raises(ValueError, match="not a minimal coset representative"):
        bin_set((2, 1, 3), (1,), {1})


def test_non_integer_letters_are_refused():
    # int() would truncate the letter 1.5 to 1 and count 3 + 3q
    for route in (bott_samelson_character, good_word_character):
        with pytest.raises(ValueError, match="letter 1.5 is not an integer"):
            route((1.5,), (), 3)
    with pytest.raises(ValueError, match="letter '1' is not an integer"):
        bin_set((1, 2, 3), ("1",), ())


def test_non_integer_generators_are_refused():
    # int() would read J = {1.9} as {1}
    with pytest.raises(ValueError,
                       match="generator index 1.9 is not an integer"):
        bott_samelson_character((1,), {1.9}, 3)
    with pytest.raises(ValueError, match="generator index 1.9"):
        induced_character(HeckeElement.unit(3), {1.9})


def test_non_integer_bits_are_refused():
    e = (1, 2, 3)
    with pytest.raises(ValueError, match="bit 0.5 is not an integer"):
        phi(e, (1,), (0.5,))
    with pytest.raises(ValueError, match="bit 1.5 is not an integer"):
        kappa(e, (1.5, 0), (1, 1), frozenset())


def test_phi_left_multiplication_lemma():
    # applying one up/down step to s'w lands on phi(w) or s' phi(w), and
    # the step preserves the weak left order
    for n in (3, 4):
        for w in all_permutations(n):
            for sp in range(1, n):
                sw = apply_s_left(w, sp)
                for s in range(1, n):
                    for b in (0, 1):
                        a = phi(sw, (s,), (b,))
                        x = phi(w, (s,), (b,))
                        assert a in (x, apply_s_left(x, sp))
        pairs = [(u, w) for u in all_permutations(n)
                 for w in all_permutations(n) if weak_left_leq(u, w)]
        for u, w in pairs:
            for s in range(1, n):
                for b in (0, 1):
                    assert weak_left_leq(phi(u, (s,), (b,)),
                                         phi(w, (s,), (b,)))


def test_phi_respects_cosets():
    # the absolute composite maps the coset of a minimal rep into the
    # coset of its quotient image: projecting any element's image to the
    # minimum recovers the quotient composite
    rng = random.Random(9)
    for n in (3, 4):
        gens = list(range(1, n))
        for _ in range(60):
            k = rng.randint(0, 4)
            sigma = tuple(rng.choice(gens) for _ in range(k))
            b = tuple(rng.randint(0, 1) for _ in range(k))
            J = frozenset(rng.sample(gens, rng.randint(0, n - 1)))
            Qj = parabolic_quotient(n, J)
            wbar = rng.choice(Qj.reps)
            target = phi(wbar, sigma, b, J)
            for w in all_permutations(n):
                if min_coset_rep(w, J) == wbar:
                    assert min_coset_rep(phi(w, sigma, b), J) == target


def test_derive_root_sequence_example():
    w = (4, 2, 1, 3)
    sigma = (2, 1, 3, 2, 1, 3)
    bits = (1, 0, 1, 1, 1, 0)
    delta = derive_root_sequence(w, sigma, bits, frozenset({1, 2, 3}))
    assert delta == ((1, 2), (1, 3), (3, 4), (2, 4))
    assert is_good_sequence(delta, w, frozenset({1, 2, 3}))
    # all-zero word gives the empty sequence
    assert derive_root_sequence(identity(3), (1, 2), (0, 0),
                                frozenset({1})) == ()
    with pytest.raises(ValueError):
        derive_root_sequence(w, sigma, (1, 1, 1, 1, 1, 1),
                             frozenset({1, 2, 3}))


def test_is_good_sequence_basics():
    assert is_good_sequence((), identity(4))
    # a nonempty inversion set can never be certified by the empty
    # sequence: simple inversion roots must appear explicitly
    assert not is_good_sequence((), (2, 1, 3))
    assert not is_good_sequence((), (3, 1, 2))
    assert not is_good_sequence((), (3, 2, 1))
    with pytest.raises(ValueError):
        is_good_sequence(((1, 2),), (2, 1, 3), frozenset({2}))
    with pytest.raises(ValueError):
        is_good_sequence(((2, 1),), (2, 1, 3))


def test_subgroup_check_matches_coset_minima():
    # u lies in W_J iff its coset minimum is e; a sequence holding every
    # inversion root of u is good, so only the W_J check can fail
    for n in range(1, 6):
        for J in all_parabolic_subsets(n):
            for u in all_permutations(n):
                delta = sorted(left_inversions(u))
                if min_coset_rep(u, J) == identity(n):
                    assert is_good_sequence(delta, u, J), (u, sorted(J))
                else:
                    with pytest.raises(ValueError, match="does not lie"):
                        is_good_sequence(delta, u, J)
        for bad in ({0}, {n}, {1.5}):
            with pytest.raises(ValueError, match="generator ind"):
                is_good_sequence((), identity(n), bad)


def test_derived_sequences_are_good():
    # every good pair yields a certified sequence for the W_J part
    for n in (3, 4):
        gens = tuple(range(1, n))
        for k in range(0, 4):
            for sigma in product(gens, repeat=k):
                for J in all_parabolic_subsets(n):
                    for w in all_permutations(n):
                        for b in good_words(w, sigma, J):
                            delta = derive_root_sequence(w, sigma, b, J)
                            wbar = min_coset_rep(w, J)
                            u = multiply(w, tuple(
                                _inv(wbar)))
                            assert is_good_sequence(delta, u, J), \
                                (w, sigma, b, sorted(J))


def _inv(w):
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return out


def test_young_subgroup_generators():
    assert young_subgroup_generators((3, 1), 4) == frozenset({1, 2})
    assert young_subgroup_generators((1, 1, 1, 1), 4) == frozenset()
    assert young_subgroup_generators((4,), 4) == frozenset({1, 2, 3})
    assert young_subgroup_generators((2, 2), 4) == frozenset({1, 3})
    with pytest.raises(ValueError):
        young_subgroup_generators((3, 2), 4)


def test_young_subgroup_generators_refuse_nonpositive_parts():
    # (4, -1) sums to 3; unchecked, its cut at 4 leaves J = {1, 2}
    with pytest.raises(ValueError, match=r"part -1 of \(4, -1\)"):
        young_subgroup_generators((4, -1), 3)
    with pytest.raises(ValueError, match="part 0 "):
        young_subgroup_generators((2, 0, 1), 3)


def test_trace_table_values_small():
    # regular representation of S_2: trace(T_e) = 2, trace(T_s) = q-1
    t = trace_table(2, frozenset())
    assert t[(1, 2)] == LaurentQ({0: 2})
    assert t[(2, 1)] == Q - ONE


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_word_counts_match_dfs_and_trace(n, data):
    # the transfer-matrix counts against the 2^k walks and the trace route
    gens = list(range(1, n))
    sigma = tuple(data.draw(st.lists(st.sampled_from(gens), max_size=10)))
    by_j = good_word_characters_all_j(sigma, n)
    dfs_by_j = dfs_good_word_characters_all_j(sigma, n)
    element = bott_samelson_product(sigma, n)
    for J in all_parabolic_subsets(n):
        trace = induced_character(element, J)
        assert bott_samelson_character(sigma, J, n) == trace, sorted(J)
        assert good_word_character(sigma, J, n) == trace, sorted(J)
        assert by_j[J] == trace, sorted(J)
        assert dfs_bott_samelson_character(sigma, J, n) == trace, sorted(J)
        assert dfs_by_j[J] == trace, sorted(J)


@settings(max_examples=30)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_word_sets_match_the_exhaustive_walk(n, data):
    # listing the words against the walks over all 2^k binary words
    gens = list(range(1, n))
    sigma = tuple(data.draw(st.lists(st.sampled_from(gens), max_size=10)))
    J = frozenset(data.draw(st.sets(st.sampled_from(gens))))
    for w in perm_table(n).perms:
        assert good_words(w, sigma, J) == dfs_good_words(w, sigma, J), w
    for w in parabolic_quotient(n, J).reps:
        assert bin_set(w, sigma, J) == dfs_bin_set(w, sigma, J, n), w


def test_word_sets_match_the_exhaustive_walk_at_k16():
    rng = random.Random(16)
    for n, J in ((4, J13), (5, frozenset({2, 4}))):
        sigma = tuple(rng.randint(1, n - 1) for _ in range(16))
        perms = perm_table(n).perms
        for w in (perms[0], rng.choice(perms)):
            good = good_words(w, sigma, J)
            assert good and good == dfs_good_words(w, sigma, J), w
        reps = parabolic_quotient(n, J).reps
        for w in (reps[-1], rng.choice(reps)):
            assert bin_set(w, sigma, J) == dfs_bin_set(w, sigma, J, n), w


def test_count_width_holds_binomial_coefficients():
    # n = 3, J = {1, 2}: one start that both bits keep, so c_J is the
    # binomial row, and binom(60, 30) needs all 57 value bits below the
    # sign bit of its 58-bit field: a field one bit narrower reads it as
    # negative
    J = frozenset({1, 2})
    for route, k in ((bott_samelson_character, 60),
                     (good_word_character, 40)):
        c = route((1, 2) * (k // 2), J, 3)
        assert c == from_q_coefficients([math.comb(k, j)
                                         for j in range(k + 1)]), route


def test_word_counts_match_dfs_and_trace_on_every_short_word():
    # every word of up to 4 letters, the empty one included, and every J:
    # first letters that fix every start (n=3, J={1,2}), some or none
    for n in range(1, 5):
        for k in range(5 if n > 1 else 1):
            for sigma in product(range(1, n), repeat=k):
                by_j = good_word_characters_all_j(sigma, n)
                dfs_by_j = dfs_good_word_characters_all_j(sigma, n)
                element = bott_samelson_product(sigma, n)
                for J in all_parabolic_subsets(n):
                    trace = induced_character(element, J)
                    assert dfs_bott_samelson_character(sigma, J, n) == \
                        dfs_by_j[J] == trace, (sigma, sorted(J))
                    assert bott_samelson_character(sigma, J, n) == trace, \
                        (sigma, sorted(J))
                    assert good_word_character(sigma, J, n) == trace, \
                        (sigma, sorted(J))
                    assert by_j[J] == trace, (sigma, sorted(J))


def _record_chunks(monkeypatch) -> list:
    """Patch the count kernel to log (chunk, the most orbits a chunk may
    hold at the BITS of the call) for every sweep."""
    chunks = []
    sweep = parabolic._sweep

    def record(qt, sig, chunk, need, width):
        most = max(1, parabolic.BITS // ((len(sig) + 1) * width))
        chunks.append((chunk, most))
        return sweep(qt, sig, chunk, need, width)

    monkeypatch.setattr(parabolic, "_sweep", record)
    return chunks


def test_one_sweep_per_orbit_of_the_first_letter(monkeypatch):
    # s_1 pairs u with u s_1 (or fixes u) and both starts of a pair share
    # their first step, so the counts sweep each orbit once: 60 orbits,
    # not 120 starts, on all of S_5, and each start alone for the empty
    # word; the orbits ride in chunks of at most BITS // F
    chunks = _record_chunks(monkeypatch)
    sigma, empty = (2, 1, 3, 4, 2, 3), frozenset()
    quot = parabolic_quotient(5, J13)
    fixed = sum(dot_action(w, 2, quot) == w for w in quot.reps)
    assert (len(quot), fixed) == (30, 6)
    for bits in (parabolic.BITS, 1000, 1):
        monkeypatch.setattr(parabolic, "BITS", bits)
        for count, expected in (
                (lambda: bott_samelson_character(sigma, empty, 5), 60),
                (lambda: good_word_character(sigma, J13, 5), 60),
                (lambda: good_word_characters_all_j(sigma, 5), 60),
                (lambda: bott_samelson_character((), empty, 5), 120),
                (lambda: good_word_characters_all_j((), 5), 120),
                # s_2 fixes 6 of the 30 cosets of W_{1,3} and pairs the rest
                (lambda: bott_samelson_character(sigma, J13, 5), 6 + 12),
                # one coset, fixed by every letter
                (lambda: bott_samelson_character((1, 2), {1, 2}, 3), 1)):
            chunks.clear()
            count()
            orbits = [orbit for chunk, _ in chunks for orbit in chunk]
            assert len(orbits) == expected, (bits, chunks)
            starts = [t for orbit in orbits for t in orbit]
            assert sorted(starts) == list(range(len(starts))), bits
            assert all(1 <= len(chunk) <= most for chunk, most in chunks)
            if bits == 1:
                assert len(chunks) == expected


def test_word_counts_match_the_oracles_across_chunks(monkeypatch):
    # one orbit per chunk (BITS = 1), and chunks of a few orbits that end
    # inside the orbit list of S_5 and S_6, read at blocks p > 0
    chunks = _record_chunks(monkeypatch)
    rng = random.Random(22)
    words = [(n, tuple(rng.randint(1, n - 1) for _ in range(k)))
             for n, k in ((2, 3), (3, 6), (4, 8), (5, 7), (5, 10))]
    long_word = tuple(rng.randint(1, 5) for _ in range(12))
    long_trace = induced_character(bott_samelson_product(long_word, 6),
                                   frozenset())
    for bits in (1, 1500):
        monkeypatch.setattr(parabolic, "BITS", bits)
        chunks.clear()
        for n, sigma in words:
            element = bott_samelson_product(sigma, n)
            by_j = good_word_characters_all_j(sigma, n)
            dfs_by_j = dfs_good_word_characters_all_j(sigma, n)
            for J in all_parabolic_subsets(n):
                trace = induced_character(element, J)
                assert bott_samelson_character(sigma, J, n) == trace == \
                    dfs_bott_samelson_character(sigma, J, n), (sigma, J)
                assert good_word_character(sigma, J, n) == by_j[J] == \
                    dfs_by_j[J] == trace, (sigma, sorted(J))
        # a chunk holds 2-start orbits and fixed points (J != {})
        assert any(len({len(orbit) for orbit in chunk}) == 2
                   for chunk, _ in chunks) == (bits > 1)
        chunks.clear()
        assert bott_samelson_character(long_word, (), 6) == long_trace
        assert good_word_character(long_word, (), 6) == long_trace
        # 360 orbits of s_1 for each route: one chunk each, or a few each
        if bits == 1:
            assert len(chunks) == 2 * 360
        else:
            assert 4 <= len(chunks) < 2 * 360
    assert long_trace == dfs_bott_samelson_character(long_word, (), 6)


def test_long_word_count_matches_trace():
    sigma = tuple(random.Random(30).choice((1, 2, 3, 4)) for _ in range(30))
    assert bott_samelson_character(sigma, frozenset(), 5) == \
        induced_character(bott_samelson_product(sigma, 5), frozenset())


# -- the class-polynomial route ------------------------------------------------

def _element(n, data):
    """A B_w, a T_w or a Bott-Samelson product of S_n."""
    perms = perm_table(n).perms
    kind = data.draw(st.sampled_from(("kl", "t", "bs")))
    if kind == "bs":
        word = data.draw(st.lists(st.integers(1, n - 1), max_size=8))
        return bott_samelson_product(tuple(word), n)
    w = data.draw(st.sampled_from(perms))
    return kl_context(n).element(w) if kind == "kl" else \
        HeckeElement.t_basis(n, w)


@settings(max_examples=40)
@given(st.integers(min_value=2, max_value=5), st.data())
def test_class_route_matches_trace_route(n, data):
    # one element, or a small combination with coefficients Laurent in v
    a = _element(n, data)
    if data.draw(st.booleans()):
        a = HeckeElement.zero(n)
        for _ in range(data.draw(st.integers(1, 3))):
            c = LaurentQ({data.draw(st.integers(-3, 3)):
                          data.draw(st.integers(-3, 3))})
            a = a + _element(n, data).scale(c)
    for J in all_parabolic_subsets(n):
        assert induced_character(a, J) == trace_route_character(a, J), \
            sorted(J)


def test_trace_table_matches_trace_route():
    for n in range(1, 6):
        for J in all_parabolic_subsets(n):
            assert trace_table(n, J) == build_trace_table(n, J), (n, sorted(J))


def test_young_traces_match_quotient_module_traces():
    # the closed content-splitting formula against the diagonal of the
    # quotient-module action: every J (every composition, so the order of
    # the blocks is checked too) up to n = 6, the Young J at n = 7
    cases = [(n, J) for n in range(1, 7) for J in all_parabolic_subsets(n)]
    cases += [(7, young_subgroup_generators(lam, 7))
              for lam in partitions(7)]
    assert len(cases) == 63 + 15
    for n, J in cases:
        lam = _young_type(n, J)
        assert {mu: seed[lam] for mu, seed in _class_chars(n).seeds.items()} \
            == quotient_class_traces(n, J), (n, sorted(J))


def test_character_route_builds_no_quotient_module(monkeypatch, capsys):
    def refuse(n, J):
        raise AssertionError(f"quotient table built for n={n}, J={set(J)}")

    monkeypatch.setattr(parabolic, "_quotient_table", refuse)
    _class_chars.cache_clear()
    w = (3, 5, 1, 4, 2)
    for a in (kl_context(5).element(w), HeckeElement.t_basis(5, w),
              bott_samelson_product((1, 3, 2, 4, 1), 5)):
        ch = frobenius_character(a)
        for J in all_parabolic_subsets(5):
            assert ch.coeffs.get(_young_type(5, J), ZERO) == \
                induced_character(a, J), sorted(J)
    assert cli.main(["ih-poincare", "--w", "35142"]) == 0
    assert capsys.readouterr().out.strip()


def test_class_polynomials_at_q1_are_cycle_type_indicators():
    for n in range(1, 7):
        f, types = mac_class_polys(n)
        assert sorted(types) == sorted(partitions(n))
        for z, w in enumerate(perm_table(n).perms):
            at_one = {mu: sum(p.values()) for mu, p in f[z].items()}
            assert {mu: c for mu, c in at_one.items() if c} == \
                {cycle_type(w): 1}, w


def test_class_polynomials_respect_every_conjugation():
    # f is constant on cyclic-shift classes, and the reduction
    # f_y = q f_{sys} + (q-1) f_{sy} holds for every length-reducing s,
    # not only the one the table was built from
    for n in range(2, 7):
        tbl = perm_table(n)
        f, _ = mac_class_polys(n)
        for y in range(len(tbl)):
            for s in range(n - 1):
                sy = tbl.lmult[y][s]
                sys = tbl.rmult[sy][s]
                if tbl.lengths[sys] == tbl.lengths[y]:
                    assert f[sys] == f[y]
                elif tbl.lengths[sys] < tbl.lengths[y]:
                    for mu in f[y].keys() | f[sys].keys() | f[sy].keys():
                        assert LaurentQ(f[y].get(mu)) == \
                            Q * LaurentQ(f[sys].get(mu)) + \
                            (Q - ONE) * LaurentQ(f[sy].get(mu))


def test_sum_of_all_t_basis_elements():
    # E = sum_z T_z satisfies E T_s = q E, so it spans the index
    # representation, which each quotient module holds once: c_J(E) is
    # sum_z q^l(z) = [n]_q! for every J, and ch(E) = [n]_q! h_n
    n = 6
    E = HeckeElement(n, {w: ONE for w in perm_table(n).perms})
    qfact = ONE
    for k in range(1, n + 1):
        qfact = qfact * gauss_number(k)
    for J in all_parabolic_subsets(n):
        assert induced_character(E, J) == qfact, sorted(J)
    assert frobenius_character(E).to_basis("h") == \
        SymFunc("h", n, {(n,): qfact})


# -- packed class sums against the dict-convolution route ----------------------

def _mac_chars(a):
    lams = partitions(a.n)
    return {lam: c for lam, c in zip(lams, mac_young_characters(a, lams))
            if c}


def test_class_sums_match_mac_route_for_every_element_to_n5():
    for n in range(1, 6):
        ctx = kl_context(n)
        for w in perm_table(n).perms:
            for a in (ctx.element(w), HeckeElement.t_basis(n, w)):
                assert _young_characters(a) == _mac_chars(a), (n, w)


def test_class_sums_match_mac_route_on_samples_at_n6_n7():
    # every class of S_6 and S_7 is filled on the way; the samples are
    # kept small because the dict route is the slow one
    rng = random.Random(20261018)
    for n, count in ((6, 30), (7, 4)):
        ctx, perms = kl_context(n), perm_table(n).perms
        for w in rng.sample(perms, count):
            for a in (ctx.element(w), HeckeElement.t_basis(n, w)):
                assert _young_characters(a) == _mac_chars(a), (n, w)


def test_class_sums_are_exact_on_any_coefficients():
    # Fractions, odd and negative v-exponents, v-spans wider than the
    # q-slots of the layout, and values that overflow 32-bit fields
    rng = random.Random(7)
    for n in (3, 4, 5):
        perms = perm_table(n).perms
        w0 = perms[-1]
        cases = [
            HeckeElement(n),
            HeckeElement(n, {w0: LaurentQ({-41: 1, 0: 2, 60: -3}),
                             perms[0]: LaurentQ({101: 1})}),
            kl_context(n).element(w0).scale(2 ** 40),
            # |c_(1^n)(T_e)| = n! times 2^25 needs more than 32 bits
            HeckeElement.t_basis(n, perms[0]).scale(2 ** 25),
            kl_context(n).element(w0).scale(
                LaurentQ({-3: 1, 5: Fraction(1, 7)})),
            kl_context(n).element(perms[len(perms) // 2]).scale(
                Fraction(2 ** 90, 3)),
        ]
        for _ in range(15):
            cases.append(HeckeElement(n, {
                w: LaurentQ({rng.randint(-9, 9): rng.choice(
                    [1, -2, Fraction(1, 3), Fraction(-5, 6), 7 * 2 ** 40])
                    for _ in range(rng.randint(1, 3))})
                for w in rng.sample(perms, rng.randint(1, len(perms)))}))
        # signs aligned on one field of c_(1^n), so that the terms add up
        # there: 2^23 times the sum of |c_(1^n)(T_z)| at q^2 passes 2^31
        ones = (1,) * n
        field = {w: _mac_chars(HeckeElement.t_basis(n, w))[ones].coeff(4)
                 for w in perms}
        cases.append(HeckeElement(n, {w: 2 ** 23 * (1 if c > 0 else -1)
                                      for w, c in field.items() if c}))
        for a in cases:
            assert _young_characters(a) == _mac_chars(a), (n, a.terms)
        assert _young_characters(HeckeElement(n)) == {}
    # 2^40 needs 64-bit fields, 2^90 / 3 cleared of its denominator 128
    assert {32, 64, 128} <= set(_class_chars(5).packs)


def test_class_too_wide_for_the_fields_widens_the_sum(monkeypatch):
    # with seeds of 2^40 times the Young traces no class fits 32-bit
    # fields: the fill starts over at 64 bits, and the sums run there
    seeds = {mu: {lam: c * 2 ** 40 for lam, c in seed.items()}
             for mu, seed in _class_chars(5).seeds.items()}
    cc = _ClassChars(5, seeds)
    monkeypatch.setattr(parabolic, "_class_chars", lambda n: cc)
    ctx = kl_context(5)
    for w in perm_table(5).perms[::7]:
        assert _young_characters(ctx.element(w)) == \
            _mac_chars(ctx.element(w).scale(2 ** 40)), w
    assert cc.width == 64 and set(cc.packs) == {64}
    # the longest class of S_3 is q x_sys + (q-1) x_sy, sys of type (2,1)
    # and sy of type (3): its bound is top(sys) + 2 top(sy) from the
    # measured largest fields of the two, not its own fields (at most
    # 2^30 + 2^29 here)
    assert _classes(3)[1][-1] == (1, 3)

    def kernel(top_sys):
        return _ClassChars(3, {(1, 1, 1): {},
                               (2, 1): {(3,): LaurentQ({0: top_sys})},
                               (3,): {(3,): LaurentQ({0: 2 ** 29})}})

    assert (kernel(2 ** 30 - 1).width, kernel(2 ** 30).width) == (32, 64)
    assert kernel(2 ** 30).top < 2 ** 31


def test_induced_characters_repeated_and_every_j():
    a = kl_context(4).element((3, 4, 1, 2)).scale(LaurentQ({-1: 2, 2: 1}))
    Js = all_parabolic_subsets(4)
    Js = Js + Js[::-1] + [frozenset({1, 3})] * 3
    got = induced_characters(a, Js)
    assert len(got) == len(Js)
    for J, c in zip(Js, got):
        assert c == mac_young_characters(a, [_young_type(4, J)])[0], J
        assert c == induced_character(a, J)
    assert induced_characters(a, []) == []


def test_class_sums_from_many_threads(monkeypatch):
    # the class ints are fixed at construction, and the only shared state
    # left is the cache of ints repacked wider (`at`): threads racing to
    # repack must still get exact sums
    cc = _ClassChars(6)
    monkeypatch.setattr(parabolic, "_class_chars", lambda n: cc)
    ctx = kl_context(6)
    perms = perm_table(6).perms
    elements = [ctx.element(w) for w in perms[::9]]
    elements += [e.scale(2 ** 40) for e in elements[::4]]
    want = [_mac_chars(a) for a in elements]
    got = [None] * len(elements)

    def work(start):
        for i in range(start, len(elements), 3):
            got[i] = _young_characters(elements[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i % 3,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want
