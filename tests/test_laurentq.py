"""Ring, involution and shape-predicate tests for the coefficient ring."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heckelab.laurentq import (
    LaurentQ, ONE, Q, V, ZERO, from_q_coefficients, pack_signed, q_power,
    unpack_signed,
)
from oracles import (
    LaurentFrac, binomial_q_shift, exact_div, gauss_number, horner_q_shift,
    poly_gcd,
)

small_coeffs = st.integers(min_value=-9, max_value=9)
small_exps = st.integers(min_value=-6, max_value=6)
laurents = st.dictionaries(small_exps, small_coeffs, max_size=5).map(LaurentQ)


def test_difference_of_squares():
    assert (Q - ONE) * (Q + ONE) == Q * Q - ONE


def test_mul_identity_and_halves():
    a = LaurentQ({3: 2, -1: 5})
    assert a * ONE == a
    assert V * V == Q
    assert q_power(3) == V ** 6


@given(laurents, laurents, laurents)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == ZERO


def test_bar_examples():
    assert Q.bar() == q_power(-1)
    assert (ONE + Q).bar() == q_power(-1) + ONE


@given(laurents)
def test_bar_involutive(a):
    assert a.bar().bar() == a


@given(laurents, laurents)
def test_bar_is_ring_hom(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()


@given(laurents, laurents)
def test_eval_at_one_is_ring_hom(a, b):
    assert (a * b).subs_v(1) == a.subs_v(1) * b.subs_v(1)
    assert (a + b).subs_v(1) == a.subs_v(1) + b.subs_v(1)


def test_palindromic():
    assert from_q_coefficients([2, 6, 2]).is_palindromic(1)
    assert Q.is_palindromic(1)
    assert V.is_palindromic(Fraction(1, 2))
    assert not (ONE + Q).is_palindromic(0)
    assert ZERO.is_palindromic(0)


def test_unimodal():
    assert from_q_coefficients([1, 2, 2, 2, 1]).is_unimodal_nonneg()
    assert ONE.is_unimodal_nonneg()
    assert not from_q_coefficients([1, 0, 0, 1]).is_unimodal_nonneg()
    assert not from_q_coefficients([1, -1, 1]).is_unimodal_nonneg()
    with pytest.raises(ValueError):
        V.is_unimodal_nonneg()


def test_log_concave():
    assert from_q_coefficients([1, 2, 1]).is_log_concave()
    assert from_q_coefficients([0, 1, 2, 1]).is_log_concave()
    assert not from_q_coefficients([1, 1, 3]).is_log_concave()
    with pytest.raises(ValueError):
        q_power(-1).is_log_concave()


def test_gauss_number():
    assert gauss_number(3) == ONE + Q + Q * Q
    assert gauss_number(1) == ONE


def test_exact_div():
    a = (Q - ONE) * (Q + ONE) * LaurentQ({-2: 3})
    assert exact_div(a, Q - ONE) == (Q + ONE) * LaurentQ({-2: 3})
    with pytest.raises(ValueError):
        exact_div(Q + ONE, Q - ONE)


@given(laurents, laurents)
def test_exact_div_undoes_mul(a, b):
    if not a or not b:
        return
    assert exact_div(a * b, b) == a


def test_poly_gcd():
    # gcd is monic with v-valuation zero
    assert poly_gcd((Q - ONE) * (Q + ONE), (Q - ONE) * Q) == Q - ONE
    assert poly_gcd(Q + ONE, Q - ONE) == ONE
    assert poly_gcd(ZERO, Q - ONE) == Q - ONE


def test_fraction_normal_form():
    f = LaurentFrac((Q - ONE) * (Q + ONE), (Q - ONE) * LaurentQ({0: 2}))
    assert f.is_polynomial()
    assert f.clear() == (Q + ONE) * Fraction(1, 2)
    g = LaurentFrac(ONE, Q - ONE)
    assert not g.is_polynomial()
    with pytest.raises(ValueError):
        g.clear()
    assert g * (Q - ONE) == LaurentFrac(ONE)
    # monic denominator with valuation zero
    h = LaurentFrac(V, LaurentQ({3: 2, 1: -2}))
    assert h.den.c[h.den.max_vexp()] == 1
    assert min(h.den.c) == 0


def test_q_shift_substitution():
    f = from_q_coefficients([1, 1])  # 1 + q
    assert f.substitute_q_shift() == from_q_coefficients([2, 1])
    assert Q.substitute_q_shift() == Q + ONE
    assert ZERO.substitute_q_shift() == ZERO
    for bad in (V, LaurentQ({-2: 1}), Q + LaurentQ({3: 1})):
        with pytest.raises(ValueError, match="not a polynomial in q"):
            bad.substitute_q_shift()


q_coeffs = st.one_of(small_coeffs, st.fractions(min_value=-9, max_value=9,
                                                 max_denominator=12))


@given(st.lists(q_coeffs, max_size=12))
def test_q_shift_matches_horner(cs):
    # the Pascal transform b_j = sum_k c_k C(k, j) against f(q + 1)
    # expanded by Horner's rule, on integer and Fraction coefficients
    f = from_q_coefficients(cs)
    assert f.substitute_q_shift() == horner_q_shift(f)


@given(st.lists(st.one_of(st.just(0), st.integers(-3, 3),
                          st.integers(-2 ** 70, 2 ** 70)), max_size=25),
       st.integers(1, 7))
def test_q_shift_matches_binomial_sum(cs, den):
    # the packed Horner evaluation at 2^W + 1 against the Pascal
    # transform, on negative, zero and wide coefficients, also over a
    # common denominator
    f = from_q_coefficients([Fraction(c, den) for c in cs])
    assert f.substitute_q_shift() == binomial_q_shift(f)


def test_rendering():
    assert str(from_q_coefficients([2, 6, 2])) == "2+6q+2q^2"
    assert str(V ** 3) == "q^{3/2}"
    assert str(ZERO) == "0"
    assert str(-Q) == "-q"
    assert (q_power(-1) - ONE).latex() == "q^{-1}-1"
    assert from_q_coefficients([1, 2, 0, 1]).latex() == "1+2q+q^3"


def test_json_round_trip():
    a = LaurentQ({-3: 4, 0: -1, 5: Fraction(2, 3)})
    assert LaurentQ.from_json(a.to_json()) == a
    assert a.to_json()["v"]["5"] == "2/3"


def test_json_integer_coefficients():
    # JSON numbers are read as the integers they name, like "7"
    assert LaurentQ.from_json({"v": {"0": 7, "-3": -2, "2": "1/2"}}) == \
        LaurentQ({0: 7, -3: -2, 2: Fraction(1, 2)})


@pytest.mark.parametrize("value", [7.0, True, None, [1], {"a": 1}, "1.5",
                                   "x", "1/0"])
def test_json_refuses_non_integer_coefficients(value):
    with pytest.raises(ValueError, match=r"of v\^2 is not an integer") \
            as info:
        LaurentQ.from_json({"v": {"0": "1", "2": value}})
    assert repr(value) in str(info.value)


@pytest.mark.parametrize("value", ["1_0", " 1", "1 ", "+1", "1\n", "１",
                                   "1/0", "1/00", "1/-2", "1_0/3", "1/2/3"])
def test_json_refuses_loose_integer_strings(value):
    # int() reads "1_0" as 10 and " 1" as 1; only -?[0-9]+ and
    # -?[0-9]+/[0-9]+ are coefficients
    with pytest.raises(ValueError, match=r"of v\^2 is not an integer") \
            as info:
        LaurentQ.from_json({"v": {"0": "1", "2": value}})
    assert repr(value) in str(info.value)


@pytest.mark.parametrize("key", ["1_0", " 2", "2 ", "+2", "2.0", "２", "",
                                 "-", 2.0, True, None])
def test_json_refuses_loose_exponent_keys(key):
    # {"1_0": "1"} used to read as q^5
    with pytest.raises(ValueError, match="exponent key .* is not an "
                                         "integer") as info:
        LaurentQ.from_json({"v": {"0": "1", key: "1"}})
    assert repr(key) in str(info.value)


@pytest.mark.parametrize("key", ["-0", "00", 0])
def test_json_refuses_repeated_exponents(key):
    # {"0": "1", "-0": "2"} used to read as 2: the last key won
    with pytest.raises(ValueError, match=r"exponent key .* repeats v\^0") \
            as info:
        LaurentQ.from_json({"v": {"0": "1", key: "2"}})
    assert repr(key) in str(info.value)


def test_json_reads_plain_integer_strings():
    assert LaurentQ.from_json({"v": {"-3": "-12", "0": "007", "4": "-3/6",
                                     "10": "0", 6: 1}}) == \
        LaurentQ({-3: -12, 0: 7, 4: Fraction(-1, 2), 6: 1})


@pytest.mark.parametrize("value", [0.1, 1.0, 1e30, "1", None])
def test_constructor_refuses_inexact_coefficients(value):
    # a float used to be kept: LaurentQ({0: 0.1}) * 3 printed
    # 0.30000000000000004
    with pytest.raises(ValueError, match="is not an integer or a fraction") \
            as info:
        LaurentQ({0: value})
    assert repr(value) in str(info.value)


def test_constructor_keeps_exact_coefficients():
    assert LaurentQ({0: Fraction(6, 3), 2: Fraction(1, 2)}).c == \
        {0: 2, 2: Fraction(1, 2)}
    assert type(LaurentQ({0: Fraction(6, 3)}).c[0]) is int
    assert (LaurentQ({0: 1}) * 3).c == {0: 3}


@pytest.mark.parametrize("width", [-1, 0, 1])
def test_packing_refuses_fields_below_two_bits(width):
    # a 1-bit signed field holds only 0 and -1: unpacking 1 never ended
    with pytest.raises(ValueError, match="below 2 bits"):
        unpack_signed(1, width)
    with pytest.raises(ValueError, match="below 2 bits"):
        pack_signed([(0, 1)], width)
    assert unpack_signed(pack_signed([(0, 1), (2, -1)], 2), 2) == [1, 0, -1]


def _unpack_by_fields(x: int, width: int) -> list:
    """`unpack_signed` one field at a time: the low field read as signed,
    subtracted, and the rest shifted down."""
    out, mask, half = [], (1 << width) - 1, 1 << (width - 1)
    while x:
        out.append(c := ((x + half) & mask) - half)
        x = (x - c) >> width
    return out


@pytest.mark.parametrize("width", [32, 64])
@given(data=st.data())
def test_unpack_in_one_step_matches_the_field_loop(width, data):
    # any signed fields, the extremes among them, a negative top field
    # and x = 0 (no fields) included
    half = 1 << (width - 1)
    field = st.one_of(st.integers(-half, half - 1),
                      st.sampled_from([-half, half - 1, -1, 0, 1]))
    fields = data.draw(st.lists(field, max_size=8))
    if data.draw(st.booleans()):
        fields.append(data.draw(st.integers(-half, -1)))   # negative top
    x = pack_signed(enumerate(fields), width)
    while fields and not fields[-1]:
        fields.pop()
    assert unpack_signed(x, width) == _unpack_by_fields(x, width) == fields
    assert unpack_signed(0, width) == []


@pytest.mark.parametrize("e", [0.5, 1.5, -0.25, "2"])
def test_non_integral_exponents_are_refused(e):
    # int() truncated them: {0.5: 1} printed 1 and {1.5: 2} 2q^{1/2}
    with pytest.raises(ValueError, match=f"exponent {e!r} is not an integer"):
        LaurentQ({e: 1})
    assert LaurentQ({2.0: 3}) == LaurentQ({2: 3}) == 3 * Q
    assert type(next(iter(LaurentQ({2.0: 3}).c))) is int

