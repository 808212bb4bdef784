"""
The Hecke algebra H_n of S_n over Laurent polynomials in v = q^(1/2).

Elements are finitely supported maps from permutations to LaurentQ in the
standard basis {T_w}, with

    T_u T_w = T_{uw}            when lengths add,
    T_s^2   = (q-1) T_s + q     for a simple transposition s.

The bar involution sends q^(1/2) to q^(-1/2) and T_w to the inverse of
T_{w^{-1}}.  `KLContext` computes the integral Kazhdan-Lusztig elements

    B_w := q^(len(w)/2) C'_w = sum_{z <= w} P_{z,w}(q) T_z

by the classical recursion on a left descent, with mu-correction terms,
on indices of a lazy `coxeter.PermTable` that numbers only the
permutations it reaches (for B_w, the interval [e, w]) and interned
packed ints, one 32-bit field per q-coefficient (no LaurentQ
arithmetic).  Since P_{u,w} = P_{u^-1,w^-1} = P_{w0 u w0, w0 w w0}
(Kazhdan-Lusztig 1979), an element whose image under one of these maps
is already held is relabeled from it instead: a full table runs the
recursion once per orbit (230 of 720 elements at n=6, 1,388 of 5,040 at
n=7).  Every element, recursed or relabeled, is checked for its
leading 1, constant terms 1, the degree bound deg P_{z,w} <
(len(w)-len(z))/2 and fields in [0, 2^30), at one comparison per term:
each interned polynomial p records its need, the least len(w)-len(z)
it may sit at, 2 deg p + 1 (infinite when its constant term or a field
fails).  Elements are memoized per n behind a size guard.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from . import config
from .coxeter import (
    Perm, PermTable, Word, _ints, apply_s_right, bruhat_leq,
    check_permutation, evaluate_word, identity, inverse, length, reduced_word,
    w0_conjugate,
)
from .laurentq import (
    ONE, ZERO, LaurentQ, Q, Terms, from_q_coefficients, pack_signed, q_power,
    signed_width, unpack_signed,
)

__all__ = [
    "HeckeElement", "KLContext", "kl_context",
    "bott_samelson_product", "springer_decomposition",
]

_QM1 = Q - ONE  # q - 1

# P_{z,w} is an int, its q^k coefficient in bits [W k, W (k+1)).  KL
# coefficients are nonnegative (Kazhdan-Lusztig 1980) and stored ones are
# below 2^30 (`KLContext._defect`), so the recursion's P_lo + q P_hi has
# fields below 2^31, and the mu-corrections (mu >= 0) only lower them.
W = signed_width((1 << 31) - 1)   # 32
_FIELD = (1 << W) - 1


class HeckeElement(Terms):
    """A finitely supported sum of T_w with LaurentQ coefficients.

    Immutable by convention.  All permutations in the support share the
    same n, the space tag.  Terms are displayed in (length, one-line)
    order.
    """

    __slots__ = ()
    n = Terms.space   # the rank, stored as the space tag

    def __init__(self, n: int, terms=None):
        self.n = n
        clean = {}
        if terms:
            for w, c in terms.items():
                if len(w := check_permutation(w)) != n:
                    raise ValueError(f"size mismatch: {w} in H_{n}")
                if not isinstance(c, LaurentQ):
                    c = LaurentQ({0: c})
                if c:
                    clean[w] = c
        self.terms = clean

    # -- constructors --------------------------------------------------

    @staticmethod
    def t_basis(n: int, w: Perm) -> "HeckeElement":
        return HeckeElement(n, {tuple(w): ONE})

    @staticmethod
    def unit(n: int) -> "HeckeElement":
        return HeckeElement.t_basis(n, identity(n))

    @staticmethod
    def zero(n: int) -> "HeckeElement":
        return HeckeElement(n)

    @staticmethod
    def _raw(n: int, terms: dict) -> "HeckeElement":
        """An element on terms that are already nonzero and of size n."""
        out = HeckeElement.__new__(HeckeElement)
        out.n, out.terms = n, terms
        return out

    # -- products ----------------------------------------------------------

    def mul_ts_right(self, i: int) -> "HeckeElement":
        """Right multiplication by T_{s_i}.

        T_w T_s = T_{ws} when ws is longer, else (q-1) T_w + q T_{ws}.
        """
        (i,) = _ints((i,), "letter")
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index out of range: {i}")
        d = {}
        for w, c in self.terms.items():
            ws = apply_s_right(w, i)
            if w[i - 1] < w[i]:  # ws longer
                d[ws] = d.get(ws, ZERO) + c
            else:
                d[ws] = d.get(ws, ZERO) + c * Q
                d[w] = d.get(w, ZERO) + c * _QM1
        return HeckeElement._raw(self.n, {w: c for w, c in d.items() if c})

    def mul(self, other: "HeckeElement") -> "HeckeElement":
        """Algebra product, extending bilinearly over reduced words of the
        right factor's support."""
        self._check(other)
        out = HeckeElement.zero(self.n)
        for w, c in sorted(other.terms.items()):
            # w = s_{i1}...s_{ik} stripped from the left, so right
            # multiplication applies the letters in word order
            out = out + self.scale(c).mul_word_right(reduced_word(w))
        return out

    def mul_word_right(self, word: Word) -> "HeckeElement":
        part = self
        for i in word:
            part = part.mul_ts_right(i)
        return part

    # -- bar involution -----------------------------------------------------

    def bar_involution(self) -> "HeckeElement":
        """The ring involution with q^(1/2) -> q^(-1/2), T_w -> (T_{w^-1})^-1."""
        out = HeckeElement.zero(self.n)
        for w, c in self.terms.items():
            out = out + _t_bar(self.n, w).scale(c.bar())
        return out

    # -- rendering / serialization -------------------------------------------

    @staticmethod
    def _order(w: Perm):
        return length(w), w

    def _name(self, w: Perm, latex: bool, label: str = "T") -> str:
        """label[w1,...,wn]; in LaTeX, T-basis elements are T_{w1...wn}
        (entries comma-separated from n = 10 on)."""
        if latex and label == "T":
            return "T_{%s}" % ("" if self.n <= 9 else ",").join(map(str, w))
        return "%s[%s]" % (label, ",".join(map(str, w)))

    def __repr__(self):
        return f"HeckeElement(n={self.n}, {len(self.terms)} terms)"

    def to_json(self) -> dict:
        coeffs: dict = {}   # id of a shared coefficient -> its JSON, once
        return {"n": self.n, "terms": [
            {"perm": list(w), "coeff": coeffs.get(id(c))
             or coeffs.setdefault(id(c), c.to_json())}
            for w, c in self.sorted_terms()]}

    @staticmethod
    def from_json(data: dict) -> "HeckeElement":
        try:
            n, = _ints([data["n"]], "rank")
            terms = {}
            for item in data["terms"]:
                if (w := _ints(item["perm"], "letter")) in terms:
                    raise ValueError(f"repeated permutation {list(w)}")
                terms[w] = LaurentQ.from_json(item["coeff"])
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed Hecke element JSON ({exc!r}); "
                             'expected {"n": n, "terms": [{"perm": [...], '
                             '"coeff": {"v": {...}}}]}') from None
        return HeckeElement(n, terms)


@cache
def _t_bar(n: int, w: Perm) -> HeckeElement:
    """The inverse of T_{w^{-1}}, memoized: the image of T_w under the bar
    involution before conjugating coefficients."""
    elem = HeckeElement.unit(n)
    qinv = q_power(-1)
    qinv_m1 = qinv - ONE
    for i in reversed(reduced_word(inverse(w))):
        # T_s^{-1} = q^{-1} T_s + (q^{-1} - 1) T_e
        elem = elem.mul_ts_right(i).scale(qinv) + elem.scale(qinv_m1)
    return elem


def _plus_ts(terms: dict, sig, desc: list, mult: list, move,
             width: int) -> dict:
    """terms {z: x}, x packing q-coefficients in width-bit fields, times
    (1 + T_{s_1})...(1 + T_{s_k}) for the 0-based letters sig, on the
    side of a `PermTable` whose descents, products and `left` or `right`
    are desc, mult and move.  T_z (1 + T_s) is T_z + T_zs or q T_z +
    q T_zs, so both of {z, zs} get x_z + q x_zs for z the shorter, which
    a lower Bruhat interval holds."""
    for s in sig:
        out, bit = {}, 1 << s
        for z, x in terms.items():
            if not desc[z] & bit:
                zs = mult[z][s] or move(z, s)   # index 0 is filled already
                out[z] = out[zs] = x + (terms.get(zs, 0) << width)
        terms = out
    return terms


def _product_terms(table: PermTable, sig, width: int) -> dict:
    """(1 + T_{s_1})...(1 + T_{s_k}) on table's indices, sig 0-based."""
    return _plus_ts({table(range(1, table.n + 1)): 1}, sig, table.rdesc,
                    table.rmult, table.right, width)


_product_tables = cache(PermTable)   # per n, lazy: what products reach


def bott_samelson_product(word: Word, n: int) -> HeckeElement:
    """The product (1 + T_{s_1})(1 + T_{s_2})...(1 + T_{s_k}) in the T-basis.

    The word need not be reduced.  Coefficients stay in N[q] and each
    factor doubles their sum at q = 1, so none exceeds 2^k: a term rides
    in one int as signed (k + 2)-bit q-fields that never carry, on a lazy
    table shared per n.  The support lies below the word's Demazure
    product; when that is w0 (n! terms) the guard for all of S_n applies
    to the KL expansion its callers do next (`parabolic` takes the product
    on `perm_table` indices, without this rule).

    >>> print(bott_samelson_product((1,), 2))
    T[1,2] + T[2,1]
    """
    word = _ints(word, "letter")
    top = list(range(1, n + 1))   # the Demazure product, O(k + n)
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index out of range: {i}")
        if top[i - 1] < top[i]:
            top[i - 1], top[i] = top[i], top[i - 1]
    if top == list(range(n, 0, -1)):
        config.check_n(n, config.max_n(config.DEFAULTS.group_max_n),
                       what=lambda: f"product over a word whose Demazure "
                       f"product is w0 ({n}! = {math.factorial(n):,} "
                       "terms): n")
    width = len(word) + 2   # 2^k needs k + 1 bits plus the sign bit
    table = _product_tables(n)
    terms = _product_terms(table, [i - 1 for i in word], width)
    views = {x: from_q_coefficients(unpack_signed(x, width))
             for x in set(terms.values())}   # one LaurentQ per coefficient
    return HeckeElement._raw(n, {table.perms[z]: views[x]
                                 for z, x in terms.items()})


class KLContext:
    """Kazhdan-Lusztig data for one symmetric group S_n.

    `element(w)` returns the integral basis element
    B_w = q^(len(w)/2) C'_w expanded in the T-basis; `polynomial(u, w)`
    reads off P_{u,w}(q).  Each B_w is stored on indices of the context's
    own lazy `PermTable` (a point query numbers only [e, w]) as
    {z: P_{z,w}}, P an int packing its q-coefficients in W-bit fields,
    constant term lowest, interned per context, and built by recursion on
    the smallest left descent unless it is relabeled from a held image
    (`_mirror`).  `element` returns a `HeckeElement` view keyed by
    permutation; views share one `LaurentQ` per interned polynomial.
    """

    def __init__(self, n: int):
        config.check_n(n)
        self.n = n
        self._index = PermTable(n)   # numbers only what queries reach
        self._table: dict = {}   # w index -> {z index: interned P_{z,w}}
        self._polys: dict = {}   # packed polynomial -> its interned copy
        self._views: dict = {}   # interned polynomial -> shared LaurentQ
        self._need: dict = {}   # interned polynomial -> its need (`_defect`)
        # x -> x^-1, w0 x w0 and w0 x^-1 w0: each a length-preserving
        # involution, with its index map filled only where an element was
        # relabeled through it
        self._mirrors = tuple((image, {}) for image in (
            inverse, w0_conjugate, lambda x: w0_conjugate(inverse(x))))

    def __len__(self):
        """Number of elements held."""
        return len(self._table)

    def _intern(self, p: int) -> int:
        if p not in self._polys:
            self._polys[p] = p
            cs = unpack_signed(p, W)
            self._views[p] = from_q_coefficients(cs)
            self._need[p] = 2 * len(cs) - 1 if cs[:1] == [1] and all(
                0 <= c < 1 << 30 for c in cs) else math.inf
        return self._polys[p]

    # -- core recursion -----------------------------------------------------

    def element(self, w: Perm) -> HeckeElement:
        """B_w = q^(len(w)/2) C'_w as a T-basis element."""
        perms, views = self._index.perms, self._views
        return HeckeElement._raw(self.n, {
            perms[z]: views[p] for z, p in self._get(self._index(w)).items()})

    def terms(self, w: Perm):
        """The terms of B_w as an iterator of (z, P_{z,w}) pairs, each P
        the shared view: `element` without building its dict."""
        perms, views = self._index.perms, self._views
        return ((perms[z], views[p])
                for z, p in self._get(self._index(w)).items())

    def _get(self, w: int) -> dict:
        """B_w as {z: P_{z,w}}, built on first use."""
        out = self._table.get(w)
        if out is None:
            out = self._mirror(w) or self._recurse(w)
            if why := self._defect(w, out):
                raise AssertionError(why)
            self._table[w] = out
        return out

    def _mirror(self, w: int):
        """B_w relabeled from a held B_u, u = f(w) for one of the maps f in
        `_mirrors`, or None.  P_{x,w} = P_{f(x),u}, and f maps [e, u] onto
        [e, w], so only permutations of [e, w] are numbered."""
        ix, table = self._index, self._table
        perm, perms, index = ix.perms[w], ix.perms, ix.index
        for image, f in self._mirrors:
            src = table.get(index.get(image(perm)))
            if src is not None:
                out = {}
                for x, p in src.items():
                    if (y := f.get(x)) is None:
                        y = f[x] = ix(image(perms[x]))
                        f[y] = x
                    out[y] = p
                return out
        return None

    def _recurse(self, w: int) -> dict:
        """B_w by the recursion on its smallest left descent s: B_s B_{sw}
        less the mu-corrections."""
        ix = self._index
        lengths, lmult, ldesc, left = ix.lengths, ix.lmult, ix.ldesc, ix.left
        bit = ldesc[w] & -ldesc[w]
        if not bit:
            return {w: self._intern(1)}
        s = bit.bit_length() - 1
        wp = left(w, s)
        base = self._get(wp)
        # B_s B_{w'} = (1 + T_s) B_{w'}, B_{w'} on the interval [e, w']
        out = _plus_ts(base, (s,), ldesc, lmult, left, W)
        # minus sum mu(z, w') q^((len(w)-len(z))/2) B_z over z < w' with s
        # a left descent of z
        lw = lengths[w]
        for z in [z for z in base if ldesc[z] & bit]:
            m = self._mu(base, z, wp)
            if m:
                k = W * ((lw - lengths[z]) // 2)
                for x, p in self._get(z).items():
                    out[x] -= m * p << k
        polys = self._polys
        return {x: polys.get(p) or self._intern(p) for x, p in out.items()}

    def _mu(self, terms: dict, z: int, w: int):
        """mu(z, w) = coefficient of q^((len(w)-len(z)-1)/2) in P_{z,w}."""
        lengths = self._index.lengths
        d = lengths[w] - lengths[z] - 1
        return 0 if d < 0 or d % 2 else terms.get(z, 0) >> W * d // 2 & _FIELD

    def _defect(self, w: int, terms: dict):
        """Why B_w breaks a postcondition (leading 1 at w, constant term 1,
        deg P_{z,w} < (len(w)-len(z))/2 for z != w, every coefficient in
        [0, 2^30)), or None."""
        lengths, perms = self._index.lengths, self._index.perms
        if terms.get(w) != 1:
            return f"leading coefficient of B_{perms[w]} is not 1"
        lw, need = lengths[w], self._need
        for z, p in terms.items():
            if lw - lengths[z] < need[p] and z != w:
                return (f"constant term, degree bound or range fails for "
                        f"P_({perms[z]},{perms[w]}) = {self._views[p]}")
        return None

    @property
    def _elements(self) -> dict:
        """Every element held, as views keyed by permutation (read by
        perfbench/make_n7_pool.py)."""
        perms = self._index.perms
        return {perms[w]: self.element(perms[w]) for w in self._table}

    # -- derived data ---------------------------------------------------------

    def polynomial(self, u: Perm, w: Perm) -> LaurentQ:
        """The Kazhdan-Lusztig polynomial P_{u,w}(q); requires u <= w."""
        ui, wi = self._index(u), self._index(w)
        if not bruhat_leq(tuple(u), tuple(w)):
            raise ValueError(
                f"{tuple(u)} is not below {tuple(w)} in Bruhat order")
        return self._views[self._get(wi)[ui]]

    def mu(self, u: Perm, w: Perm):
        wi = self._index(w)
        return self._mu(self._get(wi), self._index(u), wi)

    def expand_cprime(self, a: HeckeElement) -> dict:
        """Expand a = sum_w coeff(w) B_w (`_eliminate`), the coefficients
        cleared of denominators (times scale) and shifted into ints on the
        way in, and back on the way out.  The expansion adds at most
        len(w0) to a v-exponent, so runs of exponents farther apart are
        expanded apart, each shifted by its least exponent lo."""
        ix, runs, out = self._index, {}, {}
        cs = {ix(w): c.c for w, c in a.terms.items()}
        scale = math.lcm(*(x.denominator for c in cs.values()
                           for x in c.values() if type(x) is not int))
        span = self.n * (self.n - 1) // 2   # len(w0)
        first, last = {}, -math.inf   # first[e]: the least exponent of its run
        for e in sorted({e for c in cs.values() for e in c}):
            first[e] = first[last] if e - last <= span else e
            last = e
        for z, c in cs.items():
            for e, x in c.items():
                runs.setdefault(first[e], {}).setdefault(z, []).append(
                    (e - first[e], int(x * scale)))
        for lo, terms in runs.items():
            for w, c in self._eliminate(terms).items():
                out.setdefault(ix.perms[w], {}).update(
                    (lo + e, Fraction(x, scale)) for e, x in enumerate(c))
        return {w: LaurentQ(c) for w, c in out.items()}

    def _eliminate(self, terms: dict, need: int = 0) -> dict:
        """{w: v-coefficients of c_w} for sum_z terms[z] T_z = sum_w c_w B_w,
        from the largest (length, one-line) z down: a step subtracts c_w
        P_{z,w}, P packed on v once per pass, at the z of B_w only.  As
        |x - c P| <= |x| + |c| P(1) for P >= 0 (|.| the sum of |fields|),
        no residue exceeds total, the largest |terms[z]| plus |c_w| max P(1)
        per step; a pass reads one only while total fits a field."""
        lengths, perms = self._index.lengths, self._index.perms
        total = max([need] + [sum(abs(x) for _, x in c)
                              for c in terms.values()])
        width = signed_width(total)
        res = {z: pack_signed(c, width) for z, c in terms.items()}
        levels, on_v, out, top = {}, {}, {}, 0   # top: the largest P(1)
        for z in res:
            levels.setdefault(lengths[z], []).append(z)
        while levels:
            for w in sorted(levels.pop(max(levels)), key=perms.__getitem__,
                            reverse=True):
                if total >> width - 1:
                    return self._eliminate(terms, total)
                if c := res[w]:   # w is never visited again
                    out[w] = cs = unpack_signed(c, width)
                    for z, p in self._get(w).items():
                        if (v := on_v.get(p)) is None:
                            qs = unpack_signed(p, W)
                            top = max(top, sum(qs))
                            v = on_v[p] = pack_signed(
                                ((2 * k, x) for k, x in enumerate(qs)), width)
                        if z not in res:
                            levels.setdefault(lengths[z], []).append(z)
                        res[z] = res.get(z, 0) - c * v
                    total += sum(map(abs, cs)) * top
        return out


_contexts: dict = {}


def kl_context(n: int) -> KLContext:
    """The shared per-n context, behind the rank guard on every call."""
    config.check_n(n)
    ctx = _contexts.get(n)
    if ctx is None:
        ctx = _contexts.setdefault(n, KLContext(n))
    return ctx


def springer_decomposition(word: Word, n: int,
                           ctx: KLContext | None = None) -> dict:
    """Expand the product prod (1 + T_{s_i}) over a reduced word in the
    Kazhdan-Lusztig basis.

    Returns {u: Q_u} with  prod (1+T_{s_i}) = sum_u Q_u B_u,  so that
    Q_u = q^((len(w)-len(u))/2) P_u(q^(1/2)) where the P_u are the
    multiplicity series of the decomposition: each Q_u is a polynomial in
    v with nonnegative integer coefficients, palindromic about
    (len(w)-len(u))/2, and Q_w = 1 for the top element.
    """
    word = tuple(word)
    w = evaluate_word(word, n)
    if length(w) != len(word):
        raise ValueError(f"word {word} is not reduced")
    if ctx is None:
        ctx = kl_context(n)
    return ctx.expand_cprime(bott_samelson_product(word, n))
