"""Coloring generating functions and their Hecke-character counterparts."""

import functools
import math
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from heckelab import chromatic
from heckelab.chromatic import (
    IndifferenceGraph, ScanRow, chss_check, conjecture_scan, csf_q,
    llt_direct, llt_plethysm,
)
from heckelab.chromatic import _llt_chars
from heckelab.coxeter import (
    all_hessenberg_functions, all_permutations, codominant_from_hessenberg,
    cycle_type, identity, perm_table,
)
from heckelab.hecke import HeckeElement, kl_context
from heckelab.parabolic import _ClassChars, _class_sum, _classes
from heckelab.laurentq import (
    LaurentQ, ONE, Q, from_q_coefficients, pack_signed, unpack_signed,
)
from heckelab.symfunc import SymFunc, frobenius_character, omega, partitions
import oracles
from oracles import (
    LaurentFrac, all_coloring_sums, backtrack_coloring_sums,
    count_proper_colorings, frac_llt_plethysm, gauss_number,
    map_llt_plethysm, monomials_of_shape, oracle_to_basis,
    per_w_conjecture_scan, plethysm_scale,
)


def test_graph_construction():
    g = IndifferenceGraph.from_hessenberg((2, 3, 4, 4))
    assert g.edges == frozenset({(1, 2), (2, 3), (3, 4)})
    k = IndifferenceGraph.from_hessenberg((3, 3, 3))
    assert k.edges == frozenset({(1, 2), (1, 3), (2, 3)})
    # interval property holds by construction
    for m in all_hessenberg_functions(5):
        gm = IndifferenceGraph.from_hessenberg(m)
        for i, j in gm.edges:
            for mid in range(i + 1, j):
                assert (i, mid) in gm.edges and (mid, j) in gm.edges


def test_csf_path_graph_display():
    f = csf_q((2, 3, 4, 4)).to_basis("e")
    assert f.coeffs == {
        (4,): from_q_coefficients([1, 1, 1, 1]),
        (3, 1): from_q_coefficients([0, 1, 1]),
        (2, 2): from_q_coefficients([0, 1, 1]),
    }


def test_csf_edgeless():
    for n in (1, 2, 3, 4):
        f = csf_q(tuple(range(1, n + 1)))
        assert f.to_basis("p") == SymFunc.basis_element("p", (1,) * n)


def test_csf_complete_graph():
    # all proper colorings are injective; the ascent statistic matches
    # the inversion generating function, giving the q-factorial
    for n in (2, 3, 4):
        f = csf_q((n,) * n).to_basis("e")
        qfact = ONE
        for k in range(1, n + 1):
            qfact = qfact * gauss_number(k)
        assert f.coeffs == {(n,): qfact}


def test_csf_specializes_to_coloring_counts():
    # q = 1, x_1 = ... = x_k = 1: the number of proper colorings with k
    # colors, checked against direct enumeration
    for n in range(1, 6):
        for m in all_hessenberg_functions(n):
            f = csf_q(m)
            g = IndifferenceGraph.from_hessenberg(m)
            for k in range(0, n + 1):
                value = sum(c.subs_v(1) * monomials_of_shape(lam, k)
                            for lam, c in f.coeffs.items())
                assert value == count_proper_colorings(n, g.edges, k), (m, k)


def test_csf_budget():
    from heckelab.config import BudgetError
    with pytest.raises(BudgetError):
        csf_q(tuple(range(1, 10)))


def test_chss_examples():
    ok, lhs, rhs = chss_check((2, 3, 4, 4))
    assert ok
    # both sides are omega of the displayed e-expansion
    display = SymFunc("e", 4, {
        (4,): from_q_coefficients([1, 1, 1, 1]),
        (3, 1): from_q_coefficients([0, 1, 1]),
        (2, 2): from_q_coefficients([0, 1, 1]),
    })
    assert lhs == omega(display).to_basis("m")
    for n in range(1, 5):
        assert chss_check(tuple(range(1, n + 1)))[0]


def test_chss_exhaustive_small():
    for n in range(1, 5):
        for m in all_hessenberg_functions(n):
            assert chss_check(m)[0], m


def test_graph_and_scan_row_are_immutable_values():
    g = IndifferenceGraph.from_hessenberg((2, 3, 3))
    assert g == IndifferenceGraph(3, frozenset({(2, 3), (1, 2)}))
    assert hash(g) == hash(IndifferenceGraph(3, g.edges))
    assert repr(g) == f"IndifferenceGraph(n=3, edges={g.edges!r})"
    r = ScanRow((2, 1), "shifted-e", True, "ok")
    assert r == ScanRow((2, 1), "shifted-e", True, "ok") and hash(r)
    assert repr(r) == \
        "ScanRow(w=(2, 1), kind='shifted-e', ok=True, detail='ok')"
    for x, name in ((g, "n"), (r, "ok")):
        with pytest.raises(AttributeError):
            setattr(x, name, None)


def test_llt_direct_edgeless():
    f = llt_direct((1, 2, 3)).to_basis("p")
    assert f == SymFunc.basis_element("p", (1, 1, 1))


def test_llt_direct_single_edge():
    # colorings of one edge on two vertices: x1^2, x2^2, (1+q) x1 x2
    f = llt_direct((2, 2))
    assert f.coeffs == {(2,): ONE, (1, 1): ONE + Q}


def test_llt_plethysm_3412_display():
    L = llt_plethysm((3, 4, 1, 2))
    assert L.coeffs == {
        (1, 1, 1, 1): LaurentQ({8: 1, 6: 1}),
        (2, 1, 1): LaurentQ({6: 3, 4: 3}),
        (2, 2): LaurentQ({6: 1, 4: 2, 2: 1}),
        (3, 1): LaurentQ({4: 3, 2: 3}),
        (4,): LaurentQ({2: 1, 0: 1}),
    }


def test_llt_plethysm_trivial_cases():
    assert llt_plethysm((1,)) == SymFunc.basis_element("s", (1,))
    # identity: ch is h_1^n, the substitution returns p_1^n
    f = llt_plethysm(identity(3)).to_basis("p")
    assert f == SymFunc.basis_element("p", (1, 1, 1))


def test_llt_plethysm_matches_direct_enumeration():
    for n in range(1, 7):
        for m in all_hessenberg_functions(n):
            w = codominant_from_hessenberg(m)
            assert llt_plethysm(w) == llt_direct(m).to_basis("s"), m


def _on_palette(n: int, sums: dict) -> dict:
    """{content vector: {ascents: count}} over the palette [n]: each
    composition of block sizes placed, in order, on every set of colors
    of its length."""
    vectors = {}
    for sizes, poly in sums.items():
        for colors in combinations(range(n), len(sizes)):
            vec = [0] * n
            for c, k in zip(colors, sizes):
                vec[c] = k
            vectors[tuple(vec)] = poly
    return vectors


def _decoded(g, proper: bool) -> dict:
    """The sweep's packed sums as {composition: {ascents: count}}."""
    width, sums = chromatic._coloring_sums(g, proper)
    return {sizes: {a: c for a, c in enumerate(unpack_signed(x, width)) if c}
            for sizes, x in sums.items()}


def test_coloring_sums_match_enumeration():
    # the weak-order sweep, placed on the palette [n], gives the same
    # {content: {ascents: count}} as backtracking over proper colorings
    # and as all n^n colorings
    sample6 = random.Random(6).sample(sorted(all_hessenberg_functions(6)), 4)
    for m in [m for n in range(1, 6) for m in all_hessenberg_functions(n)] \
            + sample6:
        g = IndifferenceGraph.from_hessenberg(m)
        assert _on_palette(g.n, _decoded(g, proper=True)) \
            == backtrack_coloring_sums(g.n, g.edges), m
        assert _on_palette(g.n, _decoded(g, proper=False)) \
            == all_coloring_sums(g.n, g.edges), m


def test_coloring_sums_are_keyed_by_compositions():
    # the path 1-2-3: a proper weak order puts 1 and 3 together or apart;
    # {1,3} < {2} ascends on edge 12 only, {2} < {1,3} on edge 23 only
    g = IndifferenceGraph.from_hessenberg((2, 3, 3))
    assert _decoded(g, proper=True) == {
        (2, 1): {1: 1}, (1, 2): {1: 1}, (1, 1, 1): {0: 1, 1: 4, 2: 1}}
    assert set(_decoded(g, proper=False)) == {
        (3,), (2, 1), (1, 2), (1, 1, 1)}


def test_collect_monomials_rejects_tampered_sums():
    g = IndifferenceGraph.from_hessenberg((2, 3, 3))
    width, sums = chromatic._coloring_sums(g, proper=False)
    assert chromatic._collect_monomials(3, width, dict(sums)) == llt_direct(g)
    # one rearrangement of (2, 1) tampered, then one deleted
    lopsided = dict(sums)
    lopsided[(2, 1)] = pack_signed(
        ((a, c + 1) for a, c in _decoded(g, False)[(2, 1)].items()), width)
    with pytest.raises(AssertionError, match="not symmetric"):
        chromatic._collect_monomials(3, width, lopsided)
    partial = dict(sums)
    del partial[(1, 2)]
    with pytest.raises(AssertionError, match="incomplete monomial orbit"):
        chromatic._collect_monomials(3, width, partial)


def test_llt_direct_complete_graph_n8_is_quick():
    # all colorings of K_8 would be 8^8; the sweep sees 2^7 weak orders
    start = time.perf_counter()
    f = llt_direct((8,) * 8)
    assert time.perf_counter() - start < 1.0
    qfact = ONE
    for k in range(1, 9):
        qfact = qfact * gauss_number(k)
    assert f.coeffs[(1,) * 8] == qfact and f.coeffs[(8,)] == ONE


def test_llt_plethysm_matches_frac_oracle():
    # every w, including the non-codominant ones llt_direct cannot reach
    for n in range(1, 6):
        for w in all_permutations(n):
            assert llt_plethysm(w) == frac_llt_plethysm(w), w
    for w in random.Random(6).sample(sorted(all_permutations(6)), 12):
        assert llt_plethysm(w) == frac_llt_plethysm(w), w


def test_llt_map_columns_match_frac_oracle():
    # column nu is the image of m_nu, with rational-function Schur
    # coefficients; compare them in LaurentFrac normal form
    for n in range(1, 6):
        cols, top, den = oracles._llt_map(n)
        d = LaurentQ({0: math.factorial(n)})
        for k in range(2, n + 1):
            d = d * gauss_number(k)
        assert den == d
        qm1n = (Q - ONE) ** n
        for nu in partitions(n):
            f = plethysm_scale(omega(SymFunc.basis_element("m", nu)),
                               "divide")
            f = oracle_to_basis(f.map_coeffs(lambda c: c * qm1n), "s")
            got = {mu: LaurentFrac(from_q_coefficients(c), den)
                   for mu, c in cols[nu].items()}
            assert got == f.coeffs, nu
            assert top >= max(abs(x) for c in cols[nu].values() for x in c)


def test_llt_plethysm_remainder_is_value_error(monkeypatch):
    # a polynomial remainder, and a quotient that is rational but not
    # integral: the integer division of the map route refuses both
    cols, top, den = oracles._llt_map(4)
    for bad in (den * (Q + 2), den * 2):
        monkeypatch.setattr(oracles, "_llt_map",
                            lambda n, bad=bad: (cols, top, bad))
        with pytest.raises(ValueError, match="inexact division"):
            map_llt_plethysm(kl_context(4).element((3, 4, 1, 2)))


# -- the class kernels against the map route ----------------------------------

def _llt(a, shifted: bool = False) -> dict:
    """The class kernel's LLT of a: in s, or at q+1 in e if shifted."""
    return _class_sum(_llt_chars(a.n, shifted), a.terms.items())


def _e_seed(n: int, mu: tuple) -> SymFunc:
    return SymFunc("e", n, {mu: (Q - ONE) ** (n - len(mu))})


def test_llt_of_minimal_length_class_elements_is_the_seed():
    # LLT(T_{w_mu}) = (q-1)^(n-len(mu)) e_mu on every element of minimal
    # length in its conjugacy class, by the map route and by the kernel
    count = 0
    for n in range(2, 7):
        cls, rules, _ = _classes(n)
        for z, w in enumerate(perm_table(n).perms):
            if rules[cls[z]][0] < 0:
                count += 1
                seed = _e_seed(n, cycle_type(w))
                a = HeckeElement.t_basis(n, w)
                assert map_llt_plethysm(a) == seed.to_basis("s"), w
                assert _llt(a) == seed.to_basis("s").coeffs, w
    assert count == 143


def _llt_cases():
    rng = random.Random(16)
    cases = [w for n in range(1, 6) for w in all_permutations(n)]
    return cases + rng.sample(perm_table(6).perms, 60) \
        + rng.sample(perm_table(7).perms, 8)


@functools.cache
def _e_chars(n: int) -> _ClassChars:
    """The LLT class kernel seeded in e: (q-1)^(n-len(mu)) e_mu."""
    return _ClassChars(n, {mu: _e_seed(n, mu).coeffs for mu in partitions(n)})


def test_schur_seeded_kernel_matches_e_seeded_sum():
    # the kernel seeded in s against a kernel seeded in e, (q-1)^(n-len(mu))
    # e_mu, whose class sum is changed to s afterwards, and the map oracle
    for w in _llt_cases()[:153 + 30]:   # all of S_1..S_5, 30 of S_6
        n = len(w)
        e_chars = _e_chars(n)
        for a in (kl_context(n).element(w), HeckeElement.t_basis(n, w)):
            e = SymFunc("e", n)._like(_class_sum(e_chars, a.terms.items()))
            assert _llt(a) == e.to_basis("s").coeffs, w
            assert _llt(a) == map_llt_plethysm(a).coeffs, w
        assert llt_plethysm(w).coeffs == _llt(kl_context(n).element(w)), w


def test_llt_kernel_matches_map_oracle():
    # every w up to n = 5 and seeded samples at n = 6 and 7; for a
    # codominant w the coloring sum is a third route
    codominant = {codominant_from_hessenberg(m): m
                  for n in range(1, 8) for m in all_hessenberg_functions(n)}
    for w in _llt_cases():
        a, f = kl_context(len(w)).element(w), llt_plethysm(w)
        assert f == map_llt_plethysm(a), w
        assert f.coeffs == _llt(a), w
        if w in codominant:
            assert f == llt_direct(codominant[w]).to_basis("s"), w


def test_h_and_shifted_kernels_match_basis_changes():
    # ch in h against to_basis("h"), and the LLT at q+1 against
    # to_basis("e") followed by q -> q+1, on KL and T-basis elements
    shift = LaurentQ.substitute_q_shift
    for w in _llt_cases()[:153 + 30]:   # all of S_1..S_5, 30 of S_6
        n = len(w)
        for a in (kl_context(n).element(w), HeckeElement.t_basis(n, w)):
            assert frobenius_character(a, "h") == \
                frobenius_character(a).to_basis("h"), w
            e = SymFunc("s", n)._like(_llt(a)).to_basis("e")
            assert _llt(a, shifted=True) == e.map_coeffs(shift).coeffs, w
        assert llt_plethysm(w).to_basis("e").map_coeffs(shift).coeffs == \
            _class_sum(_llt_chars(n, True), kl_context(n).terms(w)), w


def test_h_kernel_on_any_coefficients():
    # Fractions, odd v-exponents and wide values go through the same sum
    rng = random.Random(5)
    for n in (3, 4, 5):
        perms = perm_table(n).perms
        for _ in range(10):
            a = HeckeElement(n, {w: LaurentQ({rng.randint(-7, 7): rng.choice(
                [1, -3, Fraction(2, 5), 9 * 2 ** 50])})
                for w in rng.sample(perms, rng.randint(1, len(perms)))})
            assert frobenius_character(a, "h") == \
                frobenius_character(a).to_basis("h")


def _per_w_row(kind: str, w, sign: int = 1) -> ScanRow:
    """The verdict of one w from ch(B_w).to_basis("h"), or from the map
    route's LLT of B_w to_basis("e") at q+1, coefficients times sign."""
    n = len(w)
    if kind == "shifted-e":
        f = map_llt_plethysm(kl_context(n).element(w)).to_basis("e")
        f = f.map_coeffs(
            lambda c: c.substitute_q_shift() * sign)
        bad = [lam for lam, c in f.coeffs.items()
               if any(x < 0 for x in c.q_coefficients())]
        text = ("all shifted e-coefficients nonnegative",
                "negative shifted e-coefficient at ")
    else:
        h = frobenius_character(kl_context(n).element(w)).to_basis("h")
        h = h.map_coeffs(lambda c: c * sign)
        if kind == "h-positivity":
            bad = [lam for lam, c in h.coeffs.items()
                   if any(x < 0 for x in c.q_coefficients())]
            text = "h-positive", "negative h-coefficient at "
        else:
            bad = [lam for lam, c in h.coeffs.items()
                   if not c.is_log_concave()]
            text = "all h-coefficients log-concave", "not log-concave at "
    detail = text[1] + ", ".join(
        "(" + ",".join(map(str, lam)) + ")"
        for lam in sorted(bad, reverse=True)) if bad else text[0]
    return ScanRow(w, kind, not bad, detail)


@pytest.mark.parametrize("kind", ["h-positivity", "log-concavity",
                                  "shifted-e"])
def test_scan_rows_match_per_w_route(kind, monkeypatch):
    for n in range(1, 6):
        assert conjecture_scan(kind, n) == \
            [_per_w_row(kind, w) for w in perm_table(n).perms]
    # every verdict holds, so negate the kernel's coefficients to reach
    # the failure texts: a negated h-coefficient c is log-concave iff c is
    monkeypatch.setattr(chromatic, "_class_sum", lambda cc, terms: {
        lam: -c for lam, c in _class_sum(cc, terms).items()})
    rows = conjecture_scan(kind, 4)
    assert rows == [_per_w_row(kind, w, -1) for w in perm_table(4).perms]
    assert (kind == "log-concavity") == all(r.ok for r in rows)


@pytest.mark.parametrize("kind", ["h-positivity", "log-concavity",
                                  "shifted-e"])
def test_scan_per_orbit_matches_per_w_oracle(kind, monkeypatch):
    # one class sum per orbit of w -> w^-1, w0 w w0 gives the rows of one
    # class sum per w, in the same order
    for n in range(1, 7):
        assert conjecture_scan(kind, n) == per_w_conjecture_scan(kind, n), n
    # with the kernel negated, failing verdicts are shared the same way
    monkeypatch.setattr(chromatic, "_class_sum", lambda cc, terms: {
        lam: -c for lam, c in _class_sum(cc, terms).items()})
    assert conjecture_scan(kind, 5) == per_w_conjecture_scan(kind, 5)


def test_scan_sums_once_per_orbit(monkeypatch):
    sums = []
    monkeypatch.setattr(chromatic, "_class_sum", lambda cc, terms: (
        sums.append(1), _class_sum(cc, terms))[1])
    for n, orbits in ((4, 13), (5, 45), (6, 230)):
        sums.clear()
        assert len(conjecture_scan("h-positivity", n)) == math.factorial(n)
        assert len(sums) == orbits, n


@given(st.integers(min_value=2, max_value=80), st.data())
def test_packed_products_are_exact(bits, data):
    # a product of packed lists unpacks to the convolution whenever its
    # coefficients stay inside the signed width
    half = 1 << (bits - 1)
    lists = st.lists(st.integers(-8, 8), min_size=1, max_size=6)
    a, b = data.draw(lists), data.draw(lists)
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    while conv and not conv[-1]:
        conv.pop()
    if any(abs(c) >= half for c in conv):
        return
    got = unpack_signed(pack_signed(enumerate(a), bits)
                        * pack_signed(enumerate(b), bits), bits)
    assert got == conv


def test_llt_symmetry_assertion_n6_sample():
    # the m-basis collection asserts symmetry internally; exercise a few
    # larger graphs
    for m in [(2, 3, 4, 5, 6, 6), (6, 6, 6, 6, 6, 6), (1, 2, 3, 4, 5, 6),
              (3, 3, 4, 5, 6, 6)]:
        csf_q(m)
    llt_direct((2, 3, 4, 5, 6, 6))


def test_scan_reports():
    rows = conjecture_scan("h-positivity", 4)
    assert len(rows) == 24
    by_w = {r.w: r for r in rows}
    assert by_w[(3, 4, 1, 2)].ok  # the singular example is h-positive
    assert all(isinstance(r, ScanRow) for r in rows)
    rows = conjecture_scan("log-concavity", 4)
    assert len(rows) == 24 and all(r.kind == "log-concavity" for r in rows)
    rows = conjecture_scan("shifted-e", 3)
    assert len(rows) == 6
    with pytest.raises(ValueError):
        conjecture_scan("positivity-of-everything", 3)
