"""
Exact Laurent polynomials in v = q^(1/2), the coefficient ring for the
whole package.

A value is a finitely supported map from integer v-exponents to exact
coefficients (Python ints, or `fractions.Fraction` where rational scalars
are unavoidable).  The variable q is represented by v-exponent 2, so the
statement "f is a polynomial in q" means "all v-exponents of f are even
and nonnegative".  Keeping a single integer exponent avoids half-integer
bookkeeping: every formula we need becomes integral in v.

There is no rational-function type and no polynomial division: the
plethystic LLT in `chromatic`, which divides by q^k - 1, is summed from
closed polynomial values instead.

Below LaurentQ the engines keep a q-polynomial as one int (Kronecker
substitution), coefficient i in the signed field of bits [width i,
width (i+1)); `signed_width` rounds a width up to 32 or 64 bits, which
`unpack_signed` reads in one step, and `hecke` fixes 32 for KL data.

`Terms` is the linear structure and display shared by Hecke elements and
symmetric functions: finite sums of basis elements with LaurentQ
coefficients.

>>> print(Q * Q - ONE)
-1+q^2
>>> print((Q - ONE) * (Q + ONE))
-1+q^2
>>> print(V ** 3)
q^{3/2}
>>> print(q_power(2).bar())
q^{-2}
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import lcm
from re import fullmatch
from sys import byteorder

from .coxeter import _ints

__all__ = [
    "LaurentQ", "Terms",
    "ZERO", "ONE", "Q", "V",
    "q_power", "v_power", "from_q_coefficients",
    "pack_signed", "unpack_signed", "signed_width",
]


def _norm_coeff(c):
    """c as an exact coefficient: integral Fractions collapse to int, and
    anything but an int or a Fraction (a float) is a ValueError."""
    if type(c) is int:   # the common case, without the ABC instance check
        return c
    if isinstance(c, (int, Fraction)):
        return int(c) if c.denominator == 1 else c
    raise ValueError(f"coefficient {c!r} is not an integer or a fraction")


class LaurentQ:
    """A Laurent polynomial in v = q^(1/2) with exact coefficients.

    Immutable by convention: no method mutates ``self``.
    """

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        d = {}
        if coeffs:
            for e, c in coeffs.items():
                c = _norm_coeff(c)
                if c:
                    d[e if type(e) is int else _ints((e,), "exponent")[0]] = c
        self.c = d

    def __repr__(self):
        return f"LaurentQ({self.c!r})"

    # -- ring structure ----------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentQ):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentQ({0: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        d = dict(self.c)
        for e, c in other.c.items():
            s = _norm_coeff(d.get(e, 0) + c)
            if s:
                d[e] = s
            else:
                d.pop(e, None)
        return _raw(d)

    __radd__ = __add__

    def __neg__(self):
        return _raw({e: -c for e, c in self.c.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.c, other.c
        if len(a) > len(b):
            a, b = b, a
        d = {}
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = e1 + e2
                s = _norm_coeff(d.get(e, 0) + c1 * c2)
                if s:
                    d[e] = s
                else:
                    d.pop(e, None)
        return _raw(d)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers are not defined here")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.c == other.c

    def __bool__(self):
        return bool(self.c)

    # -- inspection ----------------------------------------------------

    def coeff(self, vexp: int):
        return self.c.get(vexp, 0)

    def max_vexp(self) -> int:
        return max(self.c)

    def shift(self, vexp: int) -> "LaurentQ":
        """Multiply by v^vexp."""
        return _raw({e + vexp: c for e, c in self.c.items()})

    def bar(self) -> "LaurentQ":
        """The involution v -> 1/v (that is, q^(1/2) -> q^(-1/2))."""
        return _raw({-e: c for e, c in self.c.items()})

    def subs_v(self, x):
        """Evaluate at a concrete value of v (exactly; x may be Fraction)."""
        total = 0
        for e, c in self.c.items():
            total += c * Fraction(x) ** e
        return _norm_coeff(total)

    def is_q_polynomial(self) -> bool:
        """True iff all v-exponents are even and nonnegative."""
        return all(e >= 0 and e % 2 == 0 for e in self.c)

    def q_coefficients(self) -> list:
        """Coefficient list [c0, c1, ...] in q, lowest degree first.

        >>> from_q_coefficients([2, 6, 2]).q_coefficients()
        [2, 6, 2]
        """
        if not self.c:
            return []
        if not self.is_q_polynomial():
            raise ValueError(f"not a polynomial in q: {self}")
        top = self.max_vexp() // 2
        return [self.c.get(2 * k, 0) for k in range(top + 1)]

    def substitute_q_shift(self) -> "LaurentQ":
        """The substitution q -> q + 1 (input must be a polynomial in q):
        q-coefficients c_k become b_j = sum_k c_k C(k, j).

        f(2^W + 1) by Horner's rule, cleared of denominators, packs the
        b_j in W-bit fields; |b_j| <= sum_k |c_k| 2^k bounds them.

        >>> print(from_q_coefficients([1, -2, 1]).substitute_q_shift())
        q^2
        """
        cs = self.q_coefficients()
        scale = lcm(*(c.denominator for c in cs if type(c) is not int))
        cs = cs if scale == 1 else [int(c * scale) for c in cs]
        width = signed_width(sum(abs(c) << k for k, c in enumerate(cs)))
        x = 0
        for c in reversed(cs):
            x += (x << width) + c
        bs = unpack_signed(x, width)
        return from_q_coefficients(
            bs if scale == 1 else [Fraction(b, scale) for b in bs])

    # -- shape predicates ----------------------------------------------

    def is_palindromic(self, center) -> bool:
        """True iff coefficients are symmetric about q^center.

        ``center`` may be a half-integer; internally c = 2*center must be
        an integer v-exponent.

        >>> from_q_coefficients([2, 6, 2]).is_palindromic(1)
        True
        >>> (ONE + Q).is_palindromic(0)
        False
        """
        c2 = Fraction(center) * 2
        if c2.denominator != 1:
            return False
        c2 = int(c2)
        return all(self.c.get(c2 + k, 0) == self.c.get(c2 - k, 0)
                   for e in self.c for k in (e - c2, c2 - e))

    def is_unimodal_nonneg(self) -> bool:
        """True iff q-coefficients are nonnegative and rise then fall.

        >>> from_q_coefficients([1, 2, 2, 2, 1]).is_unimodal_nonneg()
        True
        >>> from_q_coefficients([1, 0, 0, 1]).is_unimodal_nonneg()
        False
        """
        cs = self.q_coefficients()
        if any(c < 0 for c in cs):
            return False
        falling = False
        for prev, nxt in zip(cs, cs[1:]):
            if nxt < prev:
                falling = True
            elif nxt > prev and falling:
                return False
        return True

    def is_log_concave(self) -> bool:
        """True iff c_k^2 >= c_{k-1} c_{k+1} for all interior k.

        >>> from_q_coefficients([1, 2, 1]).is_log_concave()
        True
        >>> from_q_coefficients([1, 1, 3]).is_log_concave()
        False
        """
        cs = self.q_coefficients()
        return all(cs[k] * cs[k] >= cs[k - 1] * cs[k + 1]
                   for k in range(1, len(cs) - 1))

    # -- rendering and serialization -------------------------------------

    def __str__(self):
        return self.render()

    def latex(self) -> str:
        return self.render(latex=True)

    def render(self, latex: bool = False) -> str:
        """Monomials in ascending order: coefficients 1 and -1 dropped,
        q^e with e a braced fraction or negative where needed."""
        if not self.c:
            return "0"
        parts = []
        for e in sorted(self.c):
            c = self.c[e]
            if e == 0:
                mono = ""
            else:
                num = Fraction(e, 2)
                if num == 1:
                    mono = "q"
                else:
                    es = str(num)
                    if latex:
                        mono = "q^" + (es if len(es) == 1 else "{%s}" % es)
                    else:
                        mono = "q^" + (es if "/" not in es and "-" not in es
                                       else "{%s}" % es)
            if mono == "":
                parts.append(("+", str(c)) if c > 0 else ("-", str(-c)))
            elif c == 1:
                parts.append(("+", mono))
            elif c == -1:
                parts.append(("-", mono))
            elif c > 0:
                parts.append(("+", f"{c}{mono}"))
            else:
                parts.append(("-", f"{-c}{mono}"))
        sign, first = parts[0]
        text = ("-" if sign == "-" else "") + first
        for sign, part in parts[1:]:
            text += sign + part
        return text

    def to_json(self) -> dict:
        return {"v": {str(e): str(self.c[e]) for e in sorted(self.c)}}

    @staticmethod
    def from_json(data: dict) -> "LaurentQ":
        """The inverse of `to_json`: exponent keys -?[0-9]+ (or ints), one per
        exponent, coefficients ints or strings -?[0-9]+ or -?[0-9]+/[0-9]+.
        Anything else is a ValueError naming the key or the value."""
        out = {}
        for e, c in data["v"].items():
            if type(e) not in (int, str) or not fullmatch(r"-?[0-9]+", str(e)):
                raise ValueError(f"exponent key {e!r} is not an integer")
            if int(e) in out:
                raise ValueError(f"exponent key {e!r} repeats v^{int(e)}")
            if type(c) is str and fullmatch(r"-?[0-9]+(/0*[1-9][0-9]*)?", c):
                c = Fraction(c) if "/" in c else int(c)
            elif type(c) is not int:   # bools and floats too
                raise ValueError(f"coefficient {c!r} of v^{e} is not an "
                                 "integer or a fraction")
            out[int(e)] = c
        return LaurentQ(out)


def _raw(d: dict) -> LaurentQ:
    """The LaurentQ on d, whose coefficients are already normalized and
    nonzero."""
    out = LaurentQ.__new__(LaurentQ)
    out.c = d
    return out


def q_power(k: int) -> LaurentQ:
    """q^k as a LaurentQ (v-exponent 2k)."""
    return LaurentQ({2 * k: 1})


def v_power(k: int) -> LaurentQ:
    return LaurentQ({k: 1})


def from_q_coefficients(coeffs) -> LaurentQ:
    """Build a q-polynomial from its coefficient list, constant term first."""
    return LaurentQ({2 * k: c for k, c in enumerate(coeffs)})


def pack_signed(fields, width: int) -> int:
    """The int sum c 2^(width i) over the (i, c) pairs of `fields`
    (Kronecker substitution).  Sums and products of packed values unpack
    to those of the polynomials while every coefficient lies strictly
    between -2^(width-1) and 2^(width-1); width must be at least 2.

    >>> a = pack_signed(enumerate([3, -1, 0, 2]), 8)
    >>> b = pack_signed({0: 1, 1: 1}.items(), 8)
    >>> unpack_signed(a * b, 8), unpack_signed(a - 5 * b, 8)
    ([3, 2, -1, 2, 2], [-2, -6, 0, 2])
    """
    _check_width(width)
    return sum(c << (width * i) for i, c in fields)


def unpack_signed(x: int, width: int) -> list:
    """The coefficients packed in x by `pack_signed`, lowest first and
    without trailing zeros: `width`-bit fields read as signed.

    Fields of 32 or 64 bits are read in one step: |x| < 2^(width (k-1))
    for k = bit_length // width + 2, so adding 2^(width-1) to each of k
    fields (_bias) leaves every field in [0, 2^width) with no borrow; the
    xor with the bias then holds each field in two's complement, and the
    bytes are cast to C ints.  Other widths are read field by field."""
    if ctype := {32: "i", 64: "q"}.get(width):   # memoryview formats
        bias = _bias(width, x.bit_length() // width + 2)
        y = (x + bias) ^ bias
        return memoryview(y.to_bytes(-(-y.bit_length() // width) * width // 8,
                                     byteorder)).cast(ctype).tolist()
    _check_width(width)
    out, mask, half = [], (1 << width) - 1, 1 << (width - 1)
    while x:
        out.append(c := ((x + half) & mask) - half)
        x = (x - c) >> width
    return out


@cache
def _bias(width: int, k: int) -> int:
    """2^(width-1) in each of k fields (width a multiple of 8)."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * k, "little")


def signed_width(bound: int) -> int:
    """The least multiple of 32 bits whose signed fields hold every
    |x| <= bound.  Rounding up lets a cache of packed maps keep few
    widths, and `unpack_signed` reads them in one step.

    >>> signed_width(0), signed_width(2**31 - 1), signed_width(2**31)
    (32, 32, 64)
    """
    return 32 * (bound.bit_length() // 32 + 1)


def _check_width(width: int) -> None:
    # a 1-bit signed field holds only 0 and -1, and 1 would never unpack
    if width < 2:
        raise ValueError(f"field width {width} is below 2 bits")


ZERO = LaurentQ()
ONE = LaurentQ({0: 1})
Q = LaurentQ({2: 1})
V = LaurentQ({1: 1})


class Terms:
    """A finite sum of basis elements with nonzero LaurentQ coefficients.

    ``terms`` maps basis keys to coefficients and ``space`` tags where
    the sum lives; sums from different spaces do not mix.  A subclass
    sets ``space`` and validates in its own constructor, and supplies the
    term order (`_order`, a sort key) and the name of a basis element
    (`_name`).  Immutable by convention.
    """

    __slots__ = ("space", "terms")

    def _like(self, terms: dict) -> "Terms":
        """A sum in the same space on terms that are already nonzero."""
        out = object.__new__(type(self))
        out.space, out.terms = self.space, terms
        return out

    def _check(self, other) -> None:
        if type(other) is not type(self) or other.space != self.space:
            raise ValueError(f"cannot mix {self!r} with {other!r}")

    # -- linear structure ------------------------------------------------

    def __add__(self, other):
        self._check(other)
        d = dict(self.terms)
        for k, c in other.terms.items():
            s = d[k] + c if k in d else c
            if s:
                d[k] = s
            else:
                del d[k]
        return self._like(d)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """Every coefficient times c (a LaurentQ or an exact scalar)."""
        if not isinstance(c, LaurentQ):
            c = LaurentQ({0: c})
        return self._like({k: x * c for k, x in self.terms.items()}
                          if c else {})

    def map_coeffs(self, f):
        """Apply f to every coefficient, dropping zeros."""
        return self._like({k: y for k, x in self.terms.items()
                           if (y := f(x))})

    def __eq__(self, other):
        return (type(other) is type(self) and other.space == self.space
                and other.terms == self.terms)

    def __bool__(self):
        return bool(self.terms)

    def coeff(self, key) -> LaurentQ:
        return self.terms.get(tuple(key), ZERO)

    # -- rendering -------------------------------------------------------

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: self._order(kv[0]))

    def render(self, latex: bool = False, **name) -> str:
        """The terms in order, joined by " + " (LaTeX: "+").  A coefficient
        1 is dropped; any other precedes the basis element, parenthesized
        unless it is a single monomial, with "*" between them in plain
        text.  ``name`` goes on to `_name`."""
        star, bits, heads = "" if latex else "*", [], {}
        for k, c in self.sorted_terms():
            if (head := heads.get(id(c))) is None:   # once per shared c
                cs = c.render(latex)
                head = heads[id(c)] = ("" if cs == "1" else cs + star
                                       if len(c.c) == 1 else f"({cs}){star}")
            bits.append(head + self._name(k, latex, **name))
        return ("+" if latex else " + ").join(bits) or "0"

    def __str__(self):
        return self.render()

    def latex(self) -> str:
        return self.render(latex=True)
