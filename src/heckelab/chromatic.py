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
permutation.  It is linear in the Hecke element and is
(q-1)^(n-len(mu)) e_mu on the minimal-length T_{w_mu}, so
LLT(B_w) = sum_z P_{z,w} LLT(T_z) is one class sum from those seeds,
each changed to the Schur basis once per n, with no plethysm map, no
division and no basis change per w.  `conjecture_scan`
reports (never asserts) positivity and log-concavity of the
h-expansions, and the sign of the e-coefficients of the LLT at q+1,
each read off its own class sum, once per orbit of the symmetries of
ch(B_w).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import Counter, namedtuple
from functools import cache

from . import config
from .coxeter import Perm, check_hessenberg, codominant_from_hessenberg, \
    perm_table
from .hecke import kl_context
from .laurentq import ONE, Q, LaurentQ, _raw, from_q_coefficients, \
    unpack_signed
from .parabolic import _ClassChars, _class_sum
from .symfunc import SymFunc, _h_chars, frobenius_character, omega, \
    partitions

__all__ = [
    "IndifferenceGraph", "csf_q", "llt_direct", "llt_plethysm",
    "chss_check", "conjecture_scan", "ScanRow",
]


class IndifferenceGraph(namedtuple("IndifferenceGraph", "n edges")):
    """The graph on [n] with edges {i,j}, i < j <= m(i)."""
    __slots__ = ()

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


def _coloring_function(g, proper: bool) -> SymFunc:
    if not isinstance(g, IndifferenceGraph):
        g = IndifferenceGraph.from_hessenberg(g)
    config.check_n(g.n)
    return _collect_monomials(g.n, *_coloring_sums(g, proper))


def csf_q(g) -> SymFunc:
    """The proper-coloring sum with ascent statistic, in the monomial
    basis: sum over proper kappa: [n] -> [n] of q^(ascents) x_kappa.

    >>> print(csf_q((2, 3, 4, 4)).to_basis("e"))
    (1+q+q^2+q^3)*e[4] + (q+q^2)*e[3,1] + (q+q^2)*e[2,2]
    """
    return _coloring_function(g, proper=True)


def llt_direct(g) -> SymFunc:
    """The all-colorings sum with ascent statistic: sum over all
    kappa: [n] -> [n] of q^(ascents) x_kappa, in the monomial basis.

    >>> print(llt_direct((2, 3, 3)))
    m[3] + (1+2q)*m[2,1] + (1+4q+q^2)*m[1,1,1]
    """
    return _coloring_function(g, proper=False)


@cache
def _llt_chars(n: int, shifted: bool = False) -> _ClassChars:
    """The class kernel of LLT(T_z) = (q-1)^n omega(ch(T_z))[X/(q-1)] in
    s: seeds (q-1)^(n-len(mu)) e_mu changed to s, the rule of ch (q, q-1).
    Shifted, in e and at q+1: seeds q^(n-len(mu)) e_mu, the rule (q+1, q)
    and each coefficient of a summed element through `substitute_q_shift`."""
    x = Q if shifted else Q - ONE
    seeds = {mu: {mu: x ** (n - len(mu))} for mu in partitions(n)}
    if shifted:   # one substitution per coefficient value
        return _ClassChars(n, seeds, ((1, 1), (0, 1)), cache(
            lambda t: tuple(_raw(dict(t)).substitute_q_shift().c.items())))
    return _ClassChars(n, {mu: SymFunc("e", n, seed).to_basis("s").coeffs
                           for mu, seed in seeds.items()})


def llt_plethysm(w: Perm) -> SymFunc:
    """(q-1)^n omega(ch(B_w))[x/(q-1)] in the Schur basis, where B_w is
    the integral Kazhdan-Lusztig element of w: sum_z P_{z,w} LLT(T_z),
    one class sum read in s (`_llt_chars`)."""
    w = tuple(w)
    n = len(w)
    config.check_n(n)
    return SymFunc("s", n)._like(_class_sum(_llt_chars(n),
                                            kl_context(n).terms(w)))


def chss_check(m):
    """Compare ch(B_(w_m)) with omega(csf_q(G_m)) through independent
    pipelines; returns (equal, lhs, rhs) in the monomial basis."""
    m = check_hessenberg(m)
    w = codominant_from_hessenberg(m)
    lhs = frobenius_character(kl_context(len(m)).element(w))
    rhs = omega(csf_q(m)).to_basis("m")
    return lhs == rhs, lhs, rhs


ScanRow = namedtuple("ScanRow", "w kind ok detail")
ScanRow.__doc__ = "One permutation's verdicts in a conjecture scan."


_SCANS = {   # kind: (shifted LLT?, verdict per coefficient, ok, not ok at)
    "h-positivity": (False, lambda c: c.is_q_polynomial() and min(
        c.c.values()) >= 0, "h-positive", "negative h-coefficient at "),
    "log-concavity": (False, LaurentQ.is_log_concave,
                      "all h-coefficients log-concave", "not log-concave at "),
    "shifted-e": (True, lambda c: min(c.c.values()) >= 0,
                  "all shifted e-coefficients nonnegative",
                  "negative shifted e-coefficient at "),
}


def conjecture_scan(kind: str, n: int) -> list:
    """Scan all of S_n and report one row per permutation; verdicts are
    reported, never asserted.

    kinds:
      h-positivity:   all h-coefficients of ch(B_w) have nonnegative
                      integer q-coefficients
      log-concavity:  every h-coefficient of ch(B_w) is log-concave in q
      shifted-e:      all e-coefficients of the plethystic LLT of w are
                      nonnegative after substituting q -> q + 1
                      (convention: plain e-expansion of LLT(w) at q+1)

    The h-scans read the class sum of ch in h, and shifted-e the class sum
    of the LLT at q+1 in e; no basis change or substitution runs per w.
    Every shifted-e verdict holds by Kazhdan-Lusztig positivity: the
    coefficients P_{z,w}(q+1), the seeds q^(n-len(mu)) e_mu and the rule
    (q+1, q) are all nonnegative.  The scan still computes and checks the
    coefficients.

    One verdict is computed per orbit of w -> w^-1, w -> w0 w w0, at the
    orbit's least `perm_table` index, and shared by its other members:
    ch(B_w) = ch(B_{w^-1}) = ch(B_{w0 w w0}) (Geck-Pfeiffer 2000), and
    every kind reads a function of ch(B_w).  That is 1,388 class sums for
    the 5,040 rows at n=7.
    """
    if kind not in _SCANS:
        raise ValueError(f"unknown scan kind {kind!r}")
    config.check_n(n, config.max_n(config.DEFAULTS.group_max_n),
                   what=lambda: f"scan over S_{n} ({n}! = "
                   f"{math.factorial(n):,} KL elements): n")
    shifted, good, yes, no = _SCANS[kind]
    ctx, cc = kl_context(n), _llt_chars(n, True) if shifted else _h_chars(n)
    tbl = perm_table(n)
    inv, conj = tbl.inv, tbl.conj
    verdicts: list = []   # table order visits each orbit's least index first
    for x, w in enumerate(tbl.perms):
        least = min(x, inv[x], conj[x], conj[inv[x]])
        if least < x:
            verdicts.append(verdicts[least])
            continue
        bad = [lam for lam, c in _class_sum(cc, ctx.terms(w)).items()
               if not good(c)]
        verdicts.append((not bad, no + _plist(bad) if bad else yes))
    return [ScanRow(w, kind, *v) for w, v in zip(tbl.perms, verdicts)]


def _plist(lams) -> str:
    return ", ".join("(" + ",".join(map(str, lam)) + ")"
                     for lam in sorted(lams, reverse=True))
