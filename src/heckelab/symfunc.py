"""
Symmetric functions of one homogeneous degree over the Laurent ring in
q^(1/2): the classical bases e, h, p, m, s, exact transitions between
them, the omega involution, Hall pairing, Frobenius characters of Hecke
elements, and immanants.

A change of basis is one cached integer matrix per (degree, source,
target) over one integer denominator, acting on coefficients packed into
one int each.  It composes the map into the Schur basis (Kostka numbers
by iterated Pieri multiplication, their inverse by integer
back-substitution along the dominance-compatible order, the character
table by the Murnaghan-Nakayama rule on beta-sets) with the map out of
it, read off by Hall duality; only a map into p has a denominator.

Partitions are weakly decreasing tuples of positive integers.  Where a
total order is needed, partitions of n are listed in descending
lexicographic order, which refines dominance.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import factorial, lcm
from numbers import Number
from operator import mul

from . import config
from .coxeter import _ints, cycle_type
from .hecke import HeckeElement
from .laurentq import (ONE, ZERO, LaurentQ, Terms, _raw, signed_width,
                       unpack_signed)
from .parabolic import _ClassChars, _class_chars, _class_sum

__all__ = [
    "Partition", "partitions", "check_partition", "conjugate_partition",
    "z_mu", "sign_partition",
    "murnaghan_nakayama",
    "SymFunc", "omega", "hall_inner_product", "frobenius_character",
    "multiply", "jacobi_trudi", "immanant",
]

Partition = tuple

BASES = ("e", "h", "p", "m", "s")


# -- partition utilities -----------------------------------------------------

@lru_cache(maxsize=None)
def partitions(n: int) -> tuple:
    """Partitions of n in descending lexicographic order (refines
    dominance: larger parts first).

    >>> partitions(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    return tuple(rec(n, n))


def check_partition(lam) -> Partition:
    lam = _ints(lam, "part")
    if any(a <= 0 for a in lam) or any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"not a partition: {lam}")
    return lam


def conjugate_partition(lam) -> Partition:
    lam = tuple(lam)
    if not lam:
        return ()
    return tuple(sum(1 for a in lam if a >= i) for i in range(1, lam[0] + 1))


def z_mu(mu) -> int:
    """The centralizer order: prod i^(m_i) m_i! over multiplicities."""
    z = 1
    for a in set(mu):
        m = mu.count(a)
        z *= a ** m * factorial(m)
    return z


def sign_partition(mu) -> int:
    """(-1)^(n - number of parts)."""
    return -1 if (sum(mu) - len(mu)) % 2 else 1


# -- character table -----------------------------------------------------------

@lru_cache(maxsize=None)
def _mn_beta(beta: tuple, mu: tuple) -> int:
    """Murnaghan-Nakayama on a beta-set (sorted strictly decreasing)."""
    if not mu:
        return 1
    k = mu[0]
    rest = mu[1:]
    bset = set(beta)
    total = 0
    for pos, b in enumerate(beta):
        t = b - k
        if t < 0 or t in bset:
            continue
        crossings = sum(1 for c in beta if t < c < b)
        newbeta = tuple(sorted((set(beta) - {b}) | {t}, reverse=True))
        term = _mn_beta(newbeta, rest)
        total += -term if crossings % 2 else term
    return total


def murnaghan_nakayama(lam, mu) -> int:
    """The irreducible character value chi^lam(mu)."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise ValueError(f"sizes differ: {lam} vs {mu}")
    m = len(lam)
    beta = tuple(lam[i] + (m - 1 - i) for i in range(m))
    return _mn_beta(beta, mu)


# -- Kostka numbers via Pieri ----------------------------------------------------

def _pieri_row(nu: Partition, k: int):
    """Shapes lam obtained from nu by adding a horizontal strip of size k:
    row i grows to at most nu[i-1], row 0 freely."""
    nu = tuple(nu) + (0,)
    out = []

    def rec(i, remaining, acc):
        if i == len(nu):
            if remaining == 0:
                out.append(tuple(a for a in acc if a))
            return
        cap = min(nu[i - 1] if i else nu[0] + remaining, nu[i] + remaining)
        for new in range(nu[i], cap + 1):
            rec(i + 1, remaining - (new - nu[i]), acc + (new,))

    rec(0, k, ())
    return out


@lru_cache(maxsize=None)
def _kostka(n: int) -> dict:
    """K[lam][mu] with h_mu = sum K[lam][mu] s_lam and
    s_lam = sum K[lam][mu] m_mu."""
    parts = partitions(n)
    K = {lam: {} for lam in parts}
    for mu in parts:
        expans = {(): 1}
        for k in mu:
            nxt: dict = {}
            for nu, c in expans.items():
                for lam in _pieri_row(nu, k):
                    nxt[lam] = nxt.get(lam, 0) + c
            expans = nxt
        for lam, c in expans.items():
            K[lam][mu] = c
    return K


@lru_cache(maxsize=None)
def _schur_rows(n: int, basis: str) -> dict:
    """rows[mu][lam], the coefficient of s_lam in the basis element b_mu:
    h_mu = sum K[lam][mu] s_lam, e_mu = sum K[lam][mu] s_lam', p_mu = sum
    chi^lam(mu) s_lam, and for m the inverse of K (s_lam = sum K[lam][mu]
    m_mu), unitriangular against the order of `partitions`."""
    parts = partitions(n)
    if basis == "s":
        return {lam: {lam: 1} for lam in parts}
    if basis == "p":
        return {mu: {lam: c for lam in parts
                     if (c := murnaghan_nakayama(lam, mu))}
                for mu in parts}
    K = _kostka(n)
    if basis == "m":   # m_mu = s_mu - sum K[mu][nu] m_nu over nu after mu
        inv: dict = {}
        for mu in reversed(parts):
            row = inv[mu] = {mu: 1}
            for nu, k in K[mu].items():
                for lam, c in inv[nu].items() if nu != mu else ():
                    row[lam] = row.get(lam, 0) - k * c
        return inv
    conj = conjugate_partition if basis == "e" else tuple
    return {mu: {conj(lam): K[lam][mu] for lam in parts if mu in K[lam]}
            for mu in parts}


@lru_cache(maxsize=None)
def _basis_map(n: int, source: str, target: str) -> tuple:
    """(rows, den, top): source_mu = sum k target_lam / den over the pairs
    (lam, k) of rows[mu], integers k != 0 with |k| <= top.  Out of s by
    Hall duality: <h_mu, m_nu>, <p_mu, p_nu> / z_mu and <s_mu, s_nu> are
    [mu = nu], and omega swaps e_mu with h_mu and s_lam with s_lam'; den is
    the lcm of the z_nu for p, a divisor of n!."""
    norm = z_mu if target == "p" else (lambda nu: 1)
    den = lcm(*map(norm, partitions(n)))
    conj = conjugate_partition if target == "e" else tuple
    out: dict = {}   # den * (b_nu in s_lam) at out[conj(lam)][nu]
    dual = {"h": "m", "e": "m", "m": "h"}.get(target, target)
    for nu, col in _schur_rows(n, dual).items():
        for lam, b in col.items():
            out.setdefault(lam, {})[nu] = b * (den // norm(nu))
    rows = {}
    for mu, col in _schur_rows(n, source).items():
        acc: dict = {}
        for lam, a in col.items():
            for nu, b in out.get(conj(lam), {}).items():
                acc[nu] = acc.get(nu, 0) + a * b
        rows[mu] = tuple((nu, k) for nu, k in acc.items() if k)
    top = max((abs(k) for row in rows.values() for _, k in row), default=0)
    return rows, den, top


# -- the SymFunc value type --------------------------------------------------------

class SymFunc(Terms):
    """A homogeneous symmetric function tagged with its basis.

    coeffs maps partitions of ``degree`` to LaurentQ; the space tag is
    (basis, degree), and terms are displayed in the order of
    `partitions`.  Immutable by convention.
    """

    __slots__ = ()
    coeffs = Terms.terms
    basis = property(lambda self: self.space[0])
    degree = property(lambda self: self.space[1])

    def __init__(self, basis: str, degree: int, coeffs=None):
        if basis not in BASES:
            raise ValueError(f"unknown basis {basis!r}")
        degree, = _ints((degree,), "degree")   # 3.0 reads as 3, 3.5 fails
        self.space = basis, degree
        clean = {}
        if coeffs:
            for lam, c in coeffs.items():
                lam = check_partition(lam)
                if sum(lam) != degree:
                    raise ValueError(f"{lam} is not a partition of {degree}")
                if not isinstance(c, LaurentQ) and isinstance(c, Number):
                    c = LaurentQ({0: c})   # ValueError unless exact
                if c:
                    clean[lam] = c
        self.coeffs = clean

    @staticmethod
    def basis_element(basis: str, lam) -> "SymFunc":
        lam = check_partition(lam)
        return SymFunc(basis, sum(lam), {lam: ONE})

    # -- basis conversion -------------------------------------------------------

    def to_basis(self, target: str) -> "SymFunc":
        """The same function in the target basis, by the cached integer
        matrix `_basis_map` acting on packed coefficients."""
        if target not in BASES:
            raise ValueError(f"unknown basis {target!r}")
        if target == self.basis:
            return self
        n = self.degree
        config.check_fixed(n, "symfunc_max_degree", what="degree")
        rows, den, top = _basis_map(n, self.basis, target)
        polys = [c.c for c in self.coeffs.values()]
        xs = [x for d in polys for x in d.values()]
        l1 = sum(map(abs, xs))   # an int unless some x is a Fraction
        scale = 1 if type(l1) is int else lcm(*(x.denominator for x in xs))
        # field i of a packed coefficient: its term at the i-th least
        # v-exponent, times scale (a basis change never mixes exponents)
        exps = sorted(set().union(*polys))
        # no field of the result exceeds top times the l1 norm of the input;
        # a multiple of 32 bits, which `unpack_signed` reads in one step
        width = signed_width(top * int(scale * l1))
        place = {e: scale << i * width for i, e in enumerate(exps)}
        acc: dict = {}
        for mu, d in zip(self.coeffs, polys):
            x = int(sum(map(mul, d.values(), map(place.__getitem__, d))))
            for lam, k in rows[mu]:
                acc[lam] = acc.get(lam, 0) + k * x
        div, out = den * scale, {}
        for lam, x in acc.items():
            if row := x and unpack_signed(x, width):
                d = dict(compress(zip(exps, row), row))
                out[lam] = _raw(d) if div == 1 else LaurentQ(
                    {e: Fraction(c, div) for e, c in d.items()})
        return SymFunc(target, n)._like(out)

    # -- rendering / serialization -----------------------------------------------

    @staticmethod
    def _order(lam: Partition):
        return tuple(-a for a in lam)   # descending lex, as in `partitions`

    def _name(self, lam: Partition, latex: bool) -> str:
        sub = ",".join(map(str, lam))
        return f"{self.basis}_{{{sub}}}" if latex else f"{self.basis}[{sub}]"

    def __repr__(self):
        return f"SymFunc({self.basis!r}, {self.degree}, {len(self.coeffs)} terms)"

    def to_json(self) -> dict:
        return {"basis": self.basis, "degree": self.degree,
                "coeffs": [{"partition": list(lam), "coeff": c.to_json()}
                           for lam, c in self.sorted_terms()]}

    @staticmethod
    def from_json(data: dict) -> "SymFunc":
        try:
            basis, degree, coeffs = data["basis"], data["degree"], {}
            for item in data["coeffs"]:
                if (lam := tuple(item["partition"])) in coeffs:
                    raise ValueError(f"repeated partition {list(lam)}")
                coeffs[lam] = LaurentQ.from_json(item["coeff"])
            return SymFunc(basis, degree, coeffs)
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed symmetric function JSON ({exc!r}); "
                             'expected {"basis": b, "degree": n, "coeffs": '
                             '[{"partition": [...], "coeff": {"v": {...}}}]}'
                             ) from None


def _acc(d: dict, key, val) -> None:
    s = d.get(key, ZERO) + val
    if s:
        d[key] = s
    else:
        d.pop(key, None)


# -- classical operations ------------------------------------------------------

def omega(f: SymFunc) -> SymFunc:
    """The involution with omega(e_lam) = h_lam, omega(p_k) = (-1)^(k-1) p_k,
    omega(s_lam) = s_(lam transposed)."""
    if f.basis == "e":
        return SymFunc("h", f.degree, f.coeffs)
    if f.basis == "h":
        return SymFunc("e", f.degree, f.coeffs)
    if f.basis == "p":
        return SymFunc("p", f.degree,
                       {lam: (c if sign_partition(lam) > 0 else -c)
                        for lam, c in f.coeffs.items()})
    if f.basis == "s":
        return SymFunc("s", f.degree,
                       {conjugate_partition(lam): c
                        for lam, c in f.coeffs.items()})
    return omega(f.to_basis("s")).to_basis("m")


def hall_inner_product(f: SymFunc, g: SymFunc) -> LaurentQ:
    """The pairing with orthonormal Schur basis."""
    if f.degree != g.degree:
        raise ValueError(f"degree mismatch: {f.degree} vs {g.degree}")
    fs, gs = f.to_basis("s"), g.to_basis("s")
    total = ZERO
    for lam, c in fs.coeffs.items():
        d = gs.coeffs.get(lam)
        if d:
            total = total + c * d
    return total


def frobenius_character(a: HeckeElement, basis: str = "m") -> SymFunc:
    """ch(a) in the monomial basis, or in h: the m_lam coefficient is the
    induced character of a from the Young subgroup S_lam (trivial
    module); in the Schur basis the coefficients become the irreducible
    character values.  Either basis is one sum of packed class images;
    any other goes through `SymFunc.to_basis` from m."""
    b = "h" if basis == "h" else "m"
    cc = _h_chars(a.n) if b == "h" else _class_chars(a.n)
    return SymFunc(b, a.n)._like(_class_sum(cc, a.terms.items())
                                 ).to_basis(basis)


@lru_cache(maxsize=None)
def _h_chars(n: int) -> _ClassChars:
    """The class kernel of ch in the h-basis: the seeds of ch in m, each
    changed to h once."""
    return _ClassChars(n, {mu: SymFunc("m", n, seed).to_basis("h").coeffs
                           for mu, seed in _class_chars(n).seeds.items()})


def _times(a: dict, b: dict) -> dict:
    """The product of two partition sums {partition: coeff} in one
    multiplicative basis."""
    out: dict = {}
    for lam, c in a.items():
        for mu, d in b.items():
            _acc(out, tuple(sorted(lam + mu, reverse=True)), c * d)
    return out


def multiply(f: SymFunc, g: SymFunc) -> SymFunc:
    """Product, via the power-sum basis (rational scalars may appear in
    intermediate coefficients; the result is exact)."""
    return SymFunc("p", f.degree + g.degree, _times(
        f.to_basis("p").coeffs, g.to_basis("p").coeffs)).to_basis(f.basis)


# -- immanants and determinantal identities ---------------------------------------

def _entry_terms(entry) -> dict:
    """A matrix entry as {partition: coeff}: a symmetric function in a
    multiplicative basis, or a scalar c read as {(): c} ({} if c = 0)."""
    if isinstance(entry, SymFunc):
        if entry.basis not in ("e", "h", "p"):
            raise ValueError("matrix entries must use a multiplicative basis")
        return entry.coeffs
    if isinstance(entry, (int, Fraction, LaurentQ)):
        return {(): ONE * entry} if entry else {}
    raise ValueError(f"unsupported matrix entry: {entry!r}")


def immanant(chi_label, matrix) -> SymFunc:
    """Imm_chi(A) = sum_w chi(w) prod_i A[i][w(i)] for the irreducible
    character labelled by a partition of the matrix size.

    Entries may be scalars or symmetric functions in one shared
    multiplicative basis ({e, h, p}); the result must come out
    homogeneous.  The product is expanded row by row over the unused
    columns, a zero partial product ending its branch; rows and columns
    are first conjugated (cycle types stay) to put the sparsest rows first.
    Matrices above `config.DEFAULTS.immanant_max_n` rows are refused.
    """
    k = len(matrix)
    if any(len(row) != k for row in matrix):
        raise ValueError("matrix is not square")
    config.check_fixed(k, "immanant_max_n", what="matrix size")
    return _immanant(chi_label, matrix)


def _immanant(chi_label, matrix) -> SymFunc:
    """`immanant` of a square matrix, without the size guard."""
    k = len(matrix)
    chi_label = check_partition(chi_label)
    if sum(chi_label) != k:
        raise ValueError(f"character label {chi_label} does not match size {k}")

    bases = {x.basis for row in matrix for x in row if isinstance(x, SymFunc)}
    if len(bases) > 1:
        raise ValueError("matrix entries mix bases")
    order = sorted(range(k), key=lambda i: sum(map(bool, matrix[i])))
    rows = [[_entry_terms(matrix[i][j]) for j in order] for i in order]

    total: dict = {}

    def expand(w: tuple, acc: dict) -> None:
        if len(w) == k:
            if c := murnaghan_nakayama(chi_label, cycle_type(w)):
                for key, x in acc.items():
                    _acc(total, key, x * c)
            return
        for j, data in enumerate(rows[len(w)], 1):
            if j not in w and (nxt := _times(acc, data)):
                expand(w + (j,), nxt)

    expand((), {(): ONE})
    degrees = {sum(key) for key in total} or {0}
    if len(degrees) > 1:
        raise ValueError(f"inhomogeneous immanant: degrees {sorted(degrees)}")
    return SymFunc(bases.pop() if bases else "p", degrees.pop(), total)


def jacobi_trudi(lam, mu=()) -> SymFunc:
    """The skew Schur function as the h-determinant
    det(h_(lam_i - mu_j + j - i)), returned in the h-basis: the sign
    immanant of that matrix, with no size guard."""
    lam, mu = check_partition(lam), check_partition(mu)
    k = len(lam)
    if len(mu) > k or any(a < b for a, b in zip(lam, mu)):
        raise ValueError(f"{mu} is not contained in {lam}")
    mu += (0,) * (k - len(mu))
    h = [1] + [SymFunc.basis_element("h", (d,))
               for d in range(1, sum(lam) + k)]   # h[d] = h_d
    matrix = [[h[d] if (d := lam[i] - mu[j] + j - i) >= 0 else 0
               for j in range(k)] for i in range(k)]
    return SymFunc("h", sum(lam) - sum(mu),
                   _immanant((1,) * k, matrix).coeffs)

