"""
Indifference graphs and their coloring generating functions.

A Hessenberg function m (nondecreasing, m(j) >= j, m(n) = n) determines
the graph on [n] with edges {i, j} for i < j <= m(i); these are exactly
the indifference graphs.  Two q-weighted sums over colorings kappa, each
weighted by q^(number of edges with kappa(i) < kappa(j) for i < j), are
summed exactly: `csf_q` over the proper colorings and `llt_direct` over
all of them.  Neither visits colorings one at a time: a sum depends only
on the weak order a coloring induces on [n], and one transfer sweep over
the vertices counts the weak orders by ascents.

A weak order with block sizes (k_1, ..., k_l) gives the same count to
every monomial x_(c_1)^(k_1) ... x_(c_l)^(k_l) with c_1 < ... < c_l, so
the coefficient of m_lam is the count at any rearrangement of lam; the
collection asserts that every rearrangement is present with the same
count (the sums are symmetric).

`chss_check` compares omega(csf_q) against the Frobenius character of the
Kazhdan-Lusztig element of the codominant permutation of m, the two sides
computed through fully independent pipelines.  `llt_plethysm` produces
the same object as `llt_direct` for codominant permutations through the
plethystic substitution x -> x/(q-1), and is defined for every
permutation.  The substitution does not depend on w: it is one linear
map per n on the monomial basis over the common denominator
n! [n]_q!, built on first use and cached, so an LLT costs integer
polynomial products and one exact division per Schur coefficient.
`conjecture_scan` reports (never asserts) positivity and log-concavity
patterns of the h-expansions.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import cache

from . import config
from .coxeter import Perm, check_hessenberg, codominant_from_hessenberg, \
    perm_table
from .hecke import kl_context
from .laurentq import (
    ONE, Q, LaurentQ, from_q_coefficients, gauss_number, pack_signed,
    signed_width, unpack_signed,
)
from .symfunc import (
    SymFunc, frobenius_character, omega, partitions,
)

__all__ = [
    "IndifferenceGraph", "csf_q", "llt_direct", "llt_plethysm",
    "chss_check", "conjecture_scan", "ScanRow",
]


@dataclass(frozen=True)
class IndifferenceGraph:
    """The graph on [n] with edges {i,j}, i < j <= m(i)."""
    n: int
    edges: frozenset

    @staticmethod
    def from_hessenberg(m) -> "IndifferenceGraph":
        m = check_hessenberg(m)
        n = len(m)
        edges = frozenset((i, j) for i in range(1, n + 1)
                          for j in range(i + 1, m[i - 1] + 1))
        return IndifferenceGraph(n, edges)


def _coloring_sums(g: IndifferenceGraph, proper: bool) -> tuple:
    """(width, {composition of block sizes: counts}) over the weak orders
    of the colorings of g, proper ones only if `proper`; the count at a
    ascents is field a of the int, and as none exceeds the n^n colorings,
    width = bit length of n^n plus a sign bit holds it exactly.

    One sweep over the vertices counts the weak orders (blocks of equal
    colors, in color order) by ascents.  A state is the block sizes so
    far and the levels of the placed vertices that a later vertex still
    sees, one sorted tuple per departure value m(i) >= v: the lower
    neighbours of v are the i < v with m(i) >= v.  Vertex v joins a
    block (not a neighbour's, if proper) or opens one at a gap, and
    gains an ascent per visible level below its own (a shift by width).
    After the last vertex nothing is seen, so the block sizes alone key
    a final state.
    """
    n = g.n
    width = (n ** n).bit_length() + 1
    m = [max((j for i, j in g.edges if i == v), default=v)
         for v in range(1, n + 1)]
    states = {((), ((),) * n): 1}   # groups[k]: departure value v + k
    for v in range(1, n + 1):
        slot = m[v - 1] - v - 1        # v's group after groups[0] leaves
        nxt: dict = {}
        for (sizes, groups), counts in states.items():
            seen = sorted(x for grp in groups for x in grp)
            rest = groups[1:]
            moves = [(b, sizes[:b] + (sizes[b] + 1,) + sizes[b + 1:], rest)
                     for b in range(len(sizes))
                     if not (proper and b in seen)]
            moves += [(b, sizes[:b] + (1,) + sizes[b:],
                       tuple(tuple(x + (x >= b) for x in grp)
                             for grp in rest))
                      for b in range(len(sizes) + 1)]
            for b, new_sizes, new_groups in moves:
                if slot >= 0:
                    new_groups = (new_groups[:slot]
                                  + (tuple(sorted(new_groups[slot] + (b,))),)
                                  + new_groups[slot + 1:])
                up = bisect_left(seen, b)
                key = (new_sizes, new_groups)
                nxt[key] = nxt.get(key, 0) + (counts << width * up)
        states = nxt
    return width, {sizes: x for (sizes, _), x in states.items()}


def _collect_monomials(n: int, width: int, sums: dict) -> SymFunc:
    """Turn the packed {composition: counts} of `_coloring_sums` into a
    monomial-basis SymFunc of degree n, asserting the data is symmetric:
    every rearrangement of each partition is present, all with the same
    counts."""
    orbits: dict = {}
    for sizes, x in sums.items():
        orbits.setdefault(tuple(sorted(sizes, reverse=True)), []).append(x)
    coeffs = {}
    for lam, orbit in orbits.items():
        first = orbit[0]
        if any(x != first for x in orbit[1:]):
            raise AssertionError(
                f"coloring sum is not symmetric at shape {lam}; "
                "this indicates a bug, not a mathematical possibility")
        if len(orbit) != math.factorial(len(lam)) // math.prod(
                map(math.factorial, Counter(lam).values())):
            raise AssertionError(f"incomplete monomial orbit at {lam}")
        if first:
            coeffs[lam] = from_q_coefficients(unpack_signed(first, width))
    return SymFunc("m", n)._like(coeffs)


def _coloring_function(g, budget: int | None, proper: bool) -> SymFunc:
    if not isinstance(g, IndifferenceGraph):
        g = IndifferenceGraph.from_hessenberg(g)
    config.check_n(g.n, budget)   # budget None: the rank guard, max_n()
    return _collect_monomials(g.n, *_coloring_sums(g, proper))


def csf_q(g, budget: int | None = None) -> SymFunc:
    """The proper-coloring sum with ascent statistic, in the monomial
    basis: sum over proper kappa: [n] -> [n] of q^(ascents) x_kappa.

    >>> print(csf_q((2, 3, 4, 4)).to_basis("e"))
    (1+q+q^2+q^3)*e[4] + (q+q^2)*e[3,1] + (q+q^2)*e[2,2]
    """
    return _coloring_function(g, budget, proper=True)


def llt_direct(g, budget: int | None = None) -> SymFunc:
    """The all-colorings sum with ascent statistic: sum over all
    kappa: [n] -> [n] of q^(ascents) x_kappa, in the monomial basis.

    >>> print(llt_direct((2, 3, 3)))
    m[3] + (1+2q)*m[2,1] + (1+4q+q^2)*m[1,1,1]
    """
    return _coloring_function(g, budget, proper=False)


@cache
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


@cache
def _packed_cols(n: int, bits: int) -> dict:
    """The columns of `_llt_map(n)`, each packed into one int."""
    return {nu: {mu: pack_signed(enumerate(g), bits)
                  for mu, g in col.items()}
            for nu, col in _llt_map(n)[0].items()}


def llt_plethysm(w: Perm, budget: int | None = None) -> SymFunc:
    """(q-1)^n omega(ch(B_w))[x/(q-1)] in the Schur basis, where B_w is
    the integral Kazhdan-Lusztig element of w: ch(B_w) pushed through the
    cached linear map `_llt_map(n)`, then one exact division of each
    Schur coefficient by the common denominator, on integer coefficient
    lists (ValueError if a remainder is left)."""
    w = tuple(w)
    n = len(w)
    config.check_n(n, budget, what="n")
    ch = frobenius_character(kl_context(n).element(w))
    _, top, den = _llt_map(n)
    chq = {nu: c.q_coefficients() for nu, c in ch.coeffs.items()}
    # no coefficient of a numerator exceeds top * (sum of |ch coefficients|);
    # widths are multiples of 32 so that few packed maps get cached
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


def chss_check(m, budget: int | None = None):
    """Compare ch(B_(w_m)) with omega(csf_q(G_m)) through independent
    pipelines; returns (equal, lhs, rhs) in the monomial basis."""
    m = check_hessenberg(m)
    w = codominant_from_hessenberg(m)
    lhs = frobenius_character(kl_context(len(m)).element(w))
    rhs = omega(csf_q(m, budget=budget)).to_basis("m")
    return lhs == rhs, lhs, rhs


@dataclass(frozen=True)
class ScanRow:
    """One permutation's verdicts in a conjecture scan."""
    w: Perm
    kind: str
    ok: bool
    detail: str


def conjecture_scan(kind: str, n: int, budget: int | None = None) -> list:
    """Scan all of S_n and report one row per permutation; verdicts are
    reported, never asserted.

    kinds:
      h-positivity:   all h-coefficients of ch(B_w) have nonnegative
                      integer q-coefficients
      log-concavity:  every h-coefficient of ch(B_w) is log-concave in q
      shifted-e:      all e-coefficients of the plethystic LLT of w are
                      nonnegative after substituting q -> q + 1
                      (convention: plain e-expansion of LLT(w) at q+1)
    """
    if kind not in ("h-positivity", "log-concavity", "shifted-e"):
        raise ValueError(f"unknown scan kind {kind!r}")
    config.check_n(n, budget if budget is not None
                   else config.max_n(config.DEFAULTS.group_max_n),
                   what=f"scan over S_{n} ({n}! = {math.factorial(n):,} "
                        "KL elements): n")
    ctx = kl_context(n)
    rows = []
    for w in perm_table(n).perms:
        if kind == "shifted-e":
            f = llt_plethysm(w).to_basis("e")
            shifted = f.map_coeffs(lambda c: c.substitute_q_shift())
            bad = [lam for lam, c in shifted.coeffs.items()
                   if any(x < 0 for x in c.q_coefficients())]
            ok = not bad
            detail = "all shifted e-coefficients nonnegative" if ok else \
                "negative shifted e-coefficient at " + _plist(bad)
        else:
            h = frobenius_character(ctx.element(w)).to_basis("h")
            if kind == "h-positivity":
                bad = [lam for lam, c in h.coeffs.items()
                       if not c.is_q_polynomial()
                       or any(x < 0 for x in c.q_coefficients())]
                ok = not bad
                detail = "h-positive" if ok else \
                    "negative h-coefficient at " + _plist(bad)
            else:
                bad = [lam for lam, c in h.coeffs.items()
                       if not c.is_log_concave()]
                ok = not bad
                detail = "all h-coefficients log-concave" if ok else \
                    "not log-concave at " + _plist(bad)
        rows.append(ScanRow(w, kind, ok, detail))
    return rows


def _plist(lams) -> str:
    return ", ".join("(" + ",".join(map(str, lam)) + ")"
                     for lam in sorted(lams, reverse=True))
