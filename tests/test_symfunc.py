"""Symmetric-function bases, characters, immanants, and the Frobenius map.

Basis conversions are checked against an independent oracle that expands
both sides into explicit monomials in n variables (semistandard fillings
for Schur functions), so the Kostka/character machinery is validated
end-to-end against first principles.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, strategies as st

from heckelab.coxeter import all_permutations, cycle_type, length
from heckelab.hecke import HeckeElement, kl_context
from heckelab.laurentq import (
    LaurentQ, ONE, Q, ZERO, from_q_coefficients, q_power,
)
from heckelab.symfunc import (
    SymFunc, check_partition, conjugate_partition, frobenius_character,
    hall_inner_product, immanant, jacobi_trudi, multiply,
    murnaghan_nakayama, omega, partitions, sign_partition, z_mu,
)
from oracles import (
    LaurentFrac, class_size, count_syt, direct_jacobi_trudi, dominates,
    expand_basis_element, newton_check, oracle_to_basis, plethysm_scale,
    z_matrix,
)


def test_partition_order_is_dominance_compatible():
    for n in range(1, 9):
        parts = partitions(n)
        assert parts[0] == (n,)
        assert parts[-1] == (1,) * n
        for i, lam in enumerate(parts):
            for mu in parts[i + 1:]:
                assert not dominates(mu, lam) or mu == lam


def test_conjugate_and_zmu():
    assert conjugate_partition((3, 1)) == (2, 1, 1)
    assert conjugate_partition(()) == ()
    assert z_mu((2, 2)) == 8
    assert class_size((2, 2)) == 3
    assert sign_partition((2, 2)) == 1
    assert sign_partition((2, 1)) == -1


def test_character_table_rows():
    for n in range(1, 7):
        for mu in partitions(n):
            assert murnaghan_nakayama((n,), mu) == 1
            assert murnaghan_nakayama((1,) * n, mu) == sign_partition(mu)


def test_character_degrees_match_tableau_counts():
    for n in range(1, 7):
        for lam in partitions(n):
            assert murnaghan_nakayama(lam, (1,) * n) == count_syt(lam), lam


def test_murnaghan_nakayama_examples():
    assert murnaghan_nakayama((2, 1), (1, 1, 1)) == 2
    assert murnaghan_nakayama((2,), (2,)) == 1
    assert murnaghan_nakayama((1, 1), (2,)) == -1


def test_column_orthogonality():
    for n in range(1, 9):
        for mu in partitions(n):
            assert sum(murnaghan_nakayama(lam, mu) ** 2
                       for lam in partitions(n)) == z_mu(mu)


def _monomials(f: SymFunc, nvars: int) -> dict:
    """Expand a SymFunc with constant coefficients via the oracle tables."""
    out = {}
    for lam, c in f.coeffs.items():
        scalar = c.subs_v(1)
        assert c == LaurentQ({0: scalar}), "expected a constant coefficient"
        for e, k in expand_basis_element(f.basis, lam, nvars).items():
            out[e] = out.get(e, 0) + scalar * k
            if not out[e]:
                del out[e]
    return out


def test_conversions_against_monomial_oracle():
    for n in range(1, 5):
        for b1 in "ehpms":
            for lam in partitions(n):
                reference = expand_basis_element(b1, lam, n)
                f = SymFunc.basis_element(b1, lam)
                for b2 in "ehpms":
                    assert _monomials(f.to_basis(b2), n) == reference, \
                        (b1, b2, lam)


def test_conversion_examples():
    assert SymFunc.basis_element("e", (4,)).to_basis("s") == \
        SymFunc.basis_element("s", (1, 1, 1, 1))
    assert SymFunc.basis_element("h", (4,)).to_basis("s") == \
        SymFunc.basis_element("s", (4,))
    p2 = SymFunc.basis_element("p", (2,)).to_basis("s")
    assert p2.coeffs == {(2,): ONE, (1, 1): -ONE}


def test_round_trips_all_pairs_degree_8():
    for n in range(1, 9):
        for b1 in "ehpms":
            for lam in partitions(n):
                f = SymFunc.basis_element(b1, lam)
                for b2 in "ehpms":
                    assert f.to_basis(b2).to_basis(b1) == f


@given(st.integers(min_value=1, max_value=6), st.data())
def test_round_trip_random_elements(n, data):
    parts = list(partitions(n))
    lams = data.draw(st.lists(st.sampled_from(parts), min_size=1, max_size=3))
    coeffs = {}
    for lam in lams:
        coeffs[lam] = LaurentQ({data.draw(st.integers(-3, 3)):
                                data.draw(st.integers(-5, 5))})
    b1 = data.draw(st.sampled_from("ehpms"))
    b2 = data.draw(st.sampled_from("ehpms"))
    f = SymFunc(b1, n, coeffs)
    assert f.to_basis(b2).to_basis(b1) == f


def test_to_basis_matches_oracle_on_basis_elements():
    # the cached integer matrices against term-by-term LaurentQ arithmetic
    # through the Schur basis, for every ordered pair of bases
    for n in range(7):
        for b1 in "ehpms":
            for lam in partitions(n):
                f = SymFunc.basis_element(b1, lam)
                for b2 in "ehpms":
                    assert f.to_basis(b2) == oracle_to_basis(f, b2), \
                        (b1, b2, lam)


scalars = st.one_of(st.integers(-30, 30),
                    st.fractions(min_value=-30, max_value=30,
                                 max_denominator=24))


@given(st.integers(min_value=0, max_value=5), st.sampled_from("ehpms"),
       st.sampled_from("ehpms"), st.data())
def test_to_basis_matches_oracle_random(n, b1, b2, data):
    # odd and negative v-exponents, Fraction and zero coefficients,
    # degree 0 and the empty function
    lams = data.draw(st.lists(st.sampled_from(partitions(n)), max_size=4))
    f = SymFunc(b1, n, {lam: LaurentQ(data.draw(st.dictionaries(
        st.integers(-7, 7), scalars, max_size=4))) for lam in lams})
    got = f.to_basis(b2)
    assert got == oracle_to_basis(f, b2)
    assert (got.basis, got.degree) == (b2, n)
    assert all(got.coeffs.values())


def test_to_basis_all_pairs_against_oracle():
    # all 20 ordered pairs at degrees 0-6 on seeded random functions: the
    # empty one, odd, mixed-parity, even and negative v-exponents, small,
    # wide and Fraction coefficients; each result coefficient has the
    # oracle's type, an int where it is integral and a Fraction otherwise
    rng = random.Random(24)
    scalars = (1, -1, 7, -30, 2 ** 40, Fraction(1, 2), Fraction(-5, 6),
               Fraction(7, 24))
    for n in range(7):
        parts = partitions(n)
        for b1 in "ehpms":
            fs = [SymFunc(b1, n)]
            for exps in (range(-7, 8, 2), range(-6, 7), range(-4, 9, 2)):
                for k in {1, min(3, len(parts)), len(parts)}:
                    fs.append(SymFunc(b1, n, {lam: LaurentQ({
                        e: rng.choice(scalars)
                        for e in rng.sample(exps, rng.randint(1, 4))})
                        for lam in rng.sample(parts, k)}))
            for b2 in "ehpms".replace(b1, ""):
                for f in fs:
                    got, want = f.to_basis(b2), oracle_to_basis(f, b2)
                    assert got == want, (b1, b2, f)
                    assert _types(got) == _types(want), (b1, b2, f)


def _types(f: SymFunc) -> dict:
    return {(lam, e): type(x) for lam, c in f.coeffs.items()
            for e, x in c.c.items()}


def test_to_basis_keeps_scalar_forms():
    # integral results are ints, rational ones Fractions in lowest terms
    f = SymFunc("s", 3, {(2, 1): LaurentQ({-1: Fraction(3, 2), 4: 6})})
    p = f.to_basis("p")
    assert p.coeffs[(3,)].c == {-1: Fraction(-1, 2), 4: -2}
    assert type(p.coeffs[(3,)].c[4]) is int
    assert p.to_basis("s") == f
    with pytest.raises(ValueError, match="unknown basis"):
        f.to_basis("x")


def test_omega_examples():
    assert omega(SymFunc.basis_element("e", (4,))) == \
        SymFunc.basis_element("h", (4,))
    assert omega(SymFunc.basis_element("s", (2, 1))) == \
        SymFunc.basis_element("s", (2, 1))
    assert omega(SymFunc.basis_element("p", (2, 1))) == \
        SymFunc.basis_element("p", (2, 1)).scale(-1)


@given(st.sampled_from("ehpms"), st.integers(min_value=1, max_value=6),
       st.data())
def test_omega_involutive(basis, n, data):
    parts = list(partitions(n))
    coeffs = {lam: LaurentQ({0: data.draw(st.integers(-4, 4))})
              for lam in data.draw(st.lists(st.sampled_from(parts),
                                            max_size=3))}
    f = SymFunc(basis, n, coeffs)
    assert omega(omega(f)) == f


def test_hall_inner_product():
    for lam in partitions(4):
        for mu in partitions(4):
            delta = ONE if lam == mu else ZERO
            assert hall_inner_product(SymFunc.basis_element("s", lam),
                                      SymFunc.basis_element("s", mu)) == delta
            assert hall_inner_product(SymFunc.basis_element("h", lam),
                                      SymFunc.basis_element("m", mu)) == delta
    with pytest.raises(ValueError):
        hall_inner_product(SymFunc.basis_element("s", (2,)),
                           SymFunc.basis_element("s", (3,)))


def test_power_sum_pairing():
    # <p_lam, p_mu> = z_mu delta
    for lam in partitions(4):
        for mu in partitions(4):
            v = hall_inner_product(SymFunc.basis_element("p", lam),
                                   SymFunc.basis_element("p", mu))
            assert v == (LaurentQ({0: z_mu(mu)}) if lam == mu else ZERO)


def test_frobenius_of_kl_element_3412():
    B = kl_context(4).element((3, 4, 1, 2))
    h = frobenius_character(B).to_basis("h")
    assert h.coeffs == {
        (4,): from_q_coefficients([1, 2, 2, 2, 1]),
        (3, 1): from_q_coefficients([0, 1, 2, 1]),
        (2, 2): from_q_coefficients([0, 1, 2, 1]),
    }


def test_frobenius_of_unit():
    # the monomial coefficients of ch(T_e) are the quotient sizes, i.e.
    # multinomial coefficients; at q = 1 this is the expansion of p_1^n
    import math
    for n in range(1, 5):
        ch = frobenius_character(HeckeElement.unit(n))
        for lam, c in ch.coeffs.items():
            size = math.factorial(n)
            for part in lam:
                size //= math.factorial(part)
            assert c == LaurentQ({0: size})
        assert ch.to_basis("p") == SymFunc.basis_element("p", (1,) * n)


def test_frobenius_t_basis_at_q1_is_power_sum():
    for n in range(1, 6):
        for w in all_permutations(n):
            ch = frobenius_character(HeckeElement.t_basis(n, w))
            at1 = ch.map_coeffs(lambda c: LaurentQ({0: c.subs_v(1)}))
            assert at1.to_basis("p") == \
                SymFunc.basis_element("p", cycle_type(w)), w


def test_schur_coefficient_of_frobenius_is_character():
    # in the Schur basis the coefficients of ch(T_w) specialize at q=1 to
    # the character table column of the cycle type
    n = 4
    for w in all_permutations(n):
        s = frobenius_character(HeckeElement.t_basis(n, w)).to_basis("s")
        for lam in partitions(n):
            assert s.coeff(lam).subs_v(1) == \
                murnaghan_nakayama(lam, cycle_type(w))


def test_trivial_character_equals_length_generating_sum():
    # the coefficient of s_(n) in ch(B_w) is the trace at the full
    # parabolic, i.e. sum of P_{z,w} q^len(z) over the support of B_w
    for n in range(1, 6):
        ctx = kl_context(n)
        for w in all_permutations(n):
            B = ctx.element(w)
            s = frobenius_character(B).to_basis("s")
            expected = ZERO
            for z, p in B.terms.items():
                expected = expected + p * q_power(length(z))
            assert s.coeff((n,)) == expected, w


def test_newton_identities():
    # c(mu) counts verified directly on S_4
    from collections import Counter
    counts = Counter(cycle_type(w) for w in all_permutations(4))
    for mu in partitions(4):
        assert counts[mu] == class_size(mu)
    for n in range(1, 5):
        assert newton_check(n)


def test_jacobi_trudi_examples():
    jt = jacobi_trudi((2, 1))
    assert jt.coeffs == {(2, 1): ONE, (3,): -ONE}
    assert jt.to_basis("s") == SymFunc.basis_element("s", (2, 1))
    assert jacobi_trudi((3,)) == SymFunc.basis_element("h", (3,))
    assert jacobi_trudi((2, 2), (2, 2)).coeffs == {(): ONE}
    with pytest.raises(ValueError):
        jacobi_trudi((2, 2), (3,))


def test_jacobi_trudi_straight_shapes_are_schur():
    for n in range(1, 6):
        for lam in partitions(n):
            assert jacobi_trudi(lam).to_basis("s") == \
                SymFunc.basis_element("s", lam)


def test_jacobi_trudi_matches_direct_expansion():
    # the sign immanant of the h-matrix against the determinant expanded
    # term by term; (1^8) and the 8-row skew shape pass the default
    # immanant guard of 7
    shapes = [(lam, ()) for n in range(7) for lam in partitions(n)] + [
        ((2, 2), (1,)), ((3, 1), (1,)), ((3, 2, 1), (1, 1)),
        ((2, 2), (2, 2)), ((4, 3, 2), (2, 1)), ((3, 3, 3), (2, 2)),
        ((3,) * 7, (2, 1)), ((1,) * 8, ()), ((2, 2) + (1,) * 6, (1,))]
    for lam, mu in shapes:
        jt = jacobi_trudi(lam, mu)
        assert (jt.basis, jt.degree) == ("h", sum(lam) - sum(mu))
        assert jt == direct_jacobi_trudi(lam, mu), (lam, mu)


def test_jacobi_trudi_of_a_long_column_is_quick():
    # the h-matrix of (1^12) is upper Hessenberg: with its sparsest rows
    # expanded first no branch dead-ends, and 2^11 of the 12! permutations
    # avoid its zeros; e_12 = sum_lam (-1)^(12 - len(lam)) (rearrangements
    # of lam) h_lam
    start = time.perf_counter()
    f = jacobi_trudi((1,) * 12)
    assert time.perf_counter() - start < 5
    assert f.coeffs == {lam: LaurentQ({0: (-1) ** (12 - len(lam)) * (
        factorial(len(lam)) // prod(map(factorial, Counter(lam).values())))})
        for lam in partitions(12)}


def test_skew_schur_via_sign_immanant():
    # the sign immanant of the Jacobi-Trudi matrix recovers the skew
    # Schur function
    cases = [((2, 2), (1,)), ((3, 1), (1,)), ((3, 2, 1), (1, 1))]
    for lam, mu in cases:
        k = len(lam)
        lamp = lam + (0,) * (k - len(lam))
        mup = mu + (0,) * (k - len(mu))
        matrix = []
        for i in range(k):
            row = []
            for j in range(k):
                d = lamp[i] - mup[j] + j - i
                if d < 0:
                    row.append(0)
                elif d == 0:
                    row.append(1)
                else:
                    row.append(SymFunc.basis_element("h", (d,)))
            matrix.append(row)
        assert immanant((1,) * k, matrix) == jacobi_trudi(lam, mu)


def test_z_matrix_immanants():
    assert immanant((2,), z_matrix(2)).to_basis("h") == \
        SymFunc.basis_element("h", (2,)).scale(2)
    assert immanant((1, 1), z_matrix(2)).to_basis("e") == \
        SymFunc.basis_element("e", (2,)).scale(2)
    for lam in partitions(3):
        assert immanant(lam, z_matrix(3)).to_basis("s") == \
            SymFunc.basis_element("s", lam).scale(6), lam


def test_immanant_validation():
    with pytest.raises(ValueError):
        immanant((2,), [[1, 2]])
    with pytest.raises(ValueError):
        immanant((3,), z_matrix(2))
    from heckelab.config import BudgetError
    with pytest.raises(BudgetError):
        immanant((8,), [[1] * 8] * 8)


def test_multiply_routes_through_power_sums():
    f = SymFunc.basis_element("e", (1,))
    g = multiply(f, f)
    assert g.to_basis("m").coeffs == {(2,): ONE, (1, 1): LaurentQ({0: 2})}


def test_plethysm_scale_examples():
    pl = plethysm_scale(SymFunc.basis_element("p", (1,)), "divide")
    c = pl.coeffs[(1,)]
    assert isinstance(c, LaurentFrac)
    assert c.num == ONE and c.den == Q - ONE
    assert plethysm_scale(SymFunc("p", 3, {}), "divide") == SymFunc("p", 3, {})
    with pytest.raises(ValueError):
        plethysm_scale(SymFunc.basis_element("p", (1,)), "sideways")


@given(st.integers(min_value=1, max_value=5), st.data())
def test_plethysm_scale_round_trip(n, data):
    parts = list(partitions(n))
    coeffs = {lam: LaurentQ({2 * data.draw(st.integers(0, 3)):
                             data.draw(st.integers(-4, 4))})
              for lam in data.draw(st.lists(st.sampled_from(parts),
                                            min_size=1, max_size=3))}
    f = SymFunc("p", n, coeffs)
    back = plethysm_scale(plethysm_scale(f, "divide"), "times")
    cleared = back.map_coeffs(
        lambda c: c.clear() if isinstance(c, LaurentFrac) else c)
    assert cleared == f


def test_budget_guard_on_conversions():
    from heckelab.config import BudgetError
    f = SymFunc.basis_element("h", (13,))
    with pytest.raises(BudgetError):
        f.to_basis("s")


def test_fixed_guards_name_their_limit(monkeypatch):
    # the degree and matrix-size limits follow neither HECKE_LAB_MAX_N nor
    # --max-n, so their messages name the fixed limit and advise neither
    from heckelab.config import BudgetError
    monkeypatch.setenv("HECKE_LAB_MAX_N", "20")
    with pytest.raises(BudgetError) as exc:
        SymFunc.basis_element("h", (13,)).to_basis("s")
    assert str(exc.value) == (
        "degree=13 exceeds the fixed limit symfunc_max_degree=12; "
        "HECKE_LAB_MAX_N and --max-n do not change it")
    with pytest.raises(BudgetError) as exc:
        immanant((8,), [[1] * 8] * 8)
    assert str(exc.value) == (
        "matrix size=8 exceeds the fixed limit immanant_max_n=7; "
        "HECKE_LAB_MAX_N and --max-n do not change it")


@pytest.mark.parametrize("make", [
    lambda: check_partition((2.7, 1)),
    lambda: SymFunc("m", 3, {(2.7, 1): 1}),
], ids=["check_partition", "constructor"])
def test_non_integer_part_is_refused(make):
    # int() would read the part 2.7 as 2 and give m[2,1]
    with pytest.raises(ValueError, match="part 2.7 is not an integer"):
        make()


@pytest.mark.parametrize("payload, message", [
    ({"basis": "m", "degree": 3.2, "coeffs": []},
     "degree 3.2 is not an integer"),
    ({"basis": "m", "degree": 3, "coeffs": [
        {"partition": [2, 1.5], "coeff": {"v": {"0": "1"}}}]},
     "part 1.5 is not an integer"),
], ids=["degree", "partition"])
def test_json_non_integers_are_refused(payload, message):
    with pytest.raises(ValueError, match=message):
        SymFunc.from_json(payload)


def test_json_repeated_partition_is_refused():
    # the last of two terms on m[2,1] used to win; 2.0 reads as 2
    term = {"partition": [2, 1], "coeff": {"v": {"0": "1"}}}
    with pytest.raises(ValueError, match=r"repeated partition \[2\.0, 1\]"):
        SymFunc.from_json({"basis": "m", "degree": 3,
                           "coeffs": [term, {**term, "partition": [2.0, 1]}]})


def test_float_coefficient_is_refused():
    # a bare float used to be stored, and str() then failed
    with pytest.raises(ValueError, match="coefficient 1.5 is not an"):
        SymFunc("m", 3, {(3,): 1.5})
    f = SymFunc("m", 3, {(3,): Fraction(3, 2), (2, 1): 2})
    assert f.coeffs == {(3,): LaurentQ({0: Fraction(3, 2)}),
                        (2, 1): LaurentQ({0: 2})}


def test_json_and_rendering():
    f = SymFunc("h", 4, {(3, 1): Q, (4,): ONE + Q})
    assert SymFunc.from_json(f.to_json()) == f
    assert str(f) == "(1+q)*h[4] + q*h[3,1]"
    assert f.latex() == "(1+q)h_{4}+qh_{3,1}"


@pytest.mark.parametrize("payload", [
    {},
    {"basis": "m", "degree": 3},
    [1, 2],
    {"basis": "m", "degree": 3, "coeffs": [{"coeff": {"v": {"0": "1"}}}]},
], ids=["empty", "no-coeffs", "not-an-object", "term-without-partition"])
def test_malformed_json_is_value_error(payload):
    with pytest.raises(ValueError, match="malformed symmetric function JSON"):
        SymFunc.from_json(payload)


@pytest.mark.parametrize("degree", [3.5, -0.5, "3"])
def test_non_integral_degrees_are_refused(degree):
    with pytest.raises(ValueError, match=f"degree {degree!r} is not an "):
        SymFunc("m", degree, {})
    f = SymFunc("m", 3.0, {(3,): 1})
    assert f.space == ("m", 3) and type(f.degree) is int
    assert f == SymFunc("m", 3, {(3,): 1})


def test_frobenius_character_in_every_basis():
    # m and h are class sums of their own; the others go through to_basis
    ctx = kl_context(4)
    for w in ((3, 4, 1, 2), (4, 3, 2, 1), (2, 1, 4, 3)):
        for a in (ctx.element(w), HeckeElement.t_basis(4, w)):
            ch = frobenius_character(a)
            for basis in "ehmps":
                got = frobenius_character(a, basis)
                assert got.basis == basis and got == ch.to_basis(basis)
