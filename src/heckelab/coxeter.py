"""
Symmetric-group combinatorics: one-line permutations, words in the simple
transpositions, inversion sets, descents, Bruhat order, pattern avoidance,
and the dictionary between Hessenberg functions and codominant permutations.

Permutations are plain tuples of 1-based entries, w = (w(1), ..., w(n)).
The generator s_i (i = 1..n-1) is the transposition (i, i+1); multiplying
by s_i on the right swaps positions i, i+1, on the left it swaps the
values i, i+1.

`PermTable` numbers permutations for the engines that step on indices: a
lazy table per Kazhdan-Lusztig context, and the complete `perm_table(n)`
for the cyclic-shift classes, the binary-word scans and the scanners.

>>> multiply((2, 1, 3), (1, 3, 2))
(2, 3, 1)
>>> length((4, 2, 1, 3))
4
>>> reduced_word((3, 4, 1, 2))
(2, 1, 3, 2)
"""

from __future__ import annotations

from itertools import combinations, permutations, product

from . import config

__all__ = [
    "Perm", "Word",
    "identity", "check_permutation", "multiply", "inverse", "w0_conjugate",
    "length",
    "apply_s_right", "apply_s_left",
    "left_inversions", "left_descents", "right_descents",
    "bruhat_leq", "rank_matrix", "reduced_word", "evaluate_word",
    "avoids_patterns", "cycle_type",
    "check_hessenberg", "codominant_from_hessenberg",
    "all_hessenberg_functions", "all_permutations",
    "PermTable", "perm_table",
]

Perm = tuple
Word = tuple


def identity(n: int) -> Perm:
    return tuple(range(1, n + 1))


def _ints(xs, what: str) -> tuple:
    """xs as ints, refusing what int() would truncate or parse (1.5, "1")."""
    xs = tuple(xs)
    if (out := tuple(map(int, xs))) != xs:
        bad = next(x for x, i in zip(xs, out) if x != i)
        raise ValueError(f"{what} {bad!r} is not an integer")
    return out


def check_permutation(w) -> Perm:
    w = _ints(w, "entry")   # 1.0 reads as 1, 1.5 fails
    n = len(w)
    if n < 1 or sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation in one-line notation: {w}")
    return w


def multiply(u: Perm, w: Perm) -> Perm:
    """(u*w)(i) = u(w(i)); function composition, u after w."""
    if len(u) != len(w):
        raise ValueError(f"size mismatch: {len(u)} vs {len(w)}")
    return tuple(u[x - 1] for x in w)


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, x in enumerate(w):
        out[x - 1] = i + 1
    return tuple(out)


def w0_conjugate(w: Perm) -> Perm:
    """w0 w w0, w0 the longest element: reverse positions and values.

    >>> w0_conjugate((2, 3, 1, 4))
    (1, 4, 2, 3)
    """
    n = len(w) + 1
    return tuple(n - x for x in reversed(w))


def length(w: Perm) -> int:
    """Number of inversion pairs i < j with w(i) > w(j).

    >>> length((1, 2, 3, 4)), length((4, 3, 2, 1))
    (0, 6)
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def apply_s_right(w: Perm, i: int) -> Perm:
    """w * s_i: swap positions i, i+1 (1-based i <= n-1)."""
    lst = list(w)
    lst[i - 1], lst[i] = lst[i], lst[i - 1]
    return tuple(lst)


def apply_s_left(w: Perm, i: int) -> Perm:
    """s_i * w: swap the values i, i+1."""
    return tuple(i + 1 if x == i else i if x == i + 1 else x for x in w)


def left_inversions(w: Perm) -> frozenset:
    """All (i, j), i < j, whose values appear out of order in w.

    These are exactly the transpositions t with length(t*w) < length(w);
    there are length(w) of them.
    """
    inv = inverse(w)
    n = len(w)
    return frozenset((i, j) for i in range(1, n) for j in range(i + 1, n + 1)
                     if inv[i - 1] > inv[j - 1])


def left_descents(w: Perm) -> frozenset:
    """Generator indices i with length(s_i * w) < length(w)."""
    inv = inverse(w)
    return frozenset(i for i in range(1, len(w))
                     if inv[i - 1] > inv[i])


def right_descents(w: Perm) -> frozenset:
    """Generator indices i with length(w * s_i) < length(w)."""
    return frozenset(i for i in range(1, len(w)) if w[i - 1] > w[i])


def rank_matrix(w: Perm):
    """r[i][j] = #{k <= i : w(k) <= j}, for i, j = 1..n (0-padded borders)."""
    n = len(w)
    r = [[0] * (n + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            r[i][j] = r[i - 1][j] + (1 if w[i - 1] <= j else 0)
    return r


def bruhat_leq(u: Perm, w: Perm) -> bool:
    """Bruhat order on S_n via the rank-matrix criterion.

    u <= w iff every rank count of u dominates the one of w; this is an
    O(n^2) test, checked against the exponential subword characterization
    in the test suite.
    """
    if len(u) != len(w):
        raise ValueError(f"size mismatch: {len(u)} vs {len(w)}")
    ru, rw = rank_matrix(u), rank_matrix(w)
    n = len(u)
    return all(ru[i][j] >= rw[i][j]
               for i in range(1, n + 1) for j in range(1, n + 1))


def reduced_word(w: Perm) -> Word:
    """A reduced word for w, deterministic: repeatedly strip the
    smallest-index left descent, so w = s_{i1} s_{i2} ... s_{ik}.

    >>> evaluate_word(reduced_word((3, 4, 1, 2)), 4)
    (3, 4, 1, 2)
    """
    word = []
    while True:
        ds = left_descents(w)
        if not ds:
            return tuple(word)
        i = min(ds)
        word.append(i)
        w = apply_s_left(w, i)


def evaluate_word(word: Word, n: int) -> Perm:
    """The product s_{i1} s_{i2} ... s_{ik} as a permutation of [n]."""
    w = identity(n)
    for i in _ints(word, "letter"):
        if not 1 <= i <= n - 1:
            raise ValueError(f"generator index out of range: {i} (n={n})")
        w = apply_s_right(w, i)
    return w


def avoids_patterns(w: Perm, patterns) -> bool:
    """True iff no subsequence of w is order-isomorphic to any pattern.

    >>> avoids_patterns((4, 5, 3, 1, 2), [(3, 4, 1, 2), (4, 2, 3, 1)])
    False
    """
    patterns = [check_permutation(p) for p in patterns]
    if not patterns:
        raise ValueError("patterns must be nonempty")
    n = len(w)
    for p in patterns:
        k = len(p)
        if k > n:
            continue
        target = tuple(sorted(range(k), key=lambda i: p[i]))
        for positions in combinations(range(n), k):
            vals = [w[i] for i in positions]
            if tuple(sorted(range(k), key=lambda i: vals[i])) == target:
                return False
    return True


def cycle_type(w: Perm) -> tuple:
    """Cycle lengths of w as a partition (weakly decreasing).

    >>> cycle_type((2, 1, 4, 3))
    (2, 2)
    """
    n = len(w)
    seen = [False] * n
    sizes = []
    for start in range(n):
        if seen[start]:
            continue
        size = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = w[i] - 1
            size += 1
        sizes.append(size)
    return tuple(sorted(sizes, reverse=True))


# -- Hessenberg functions ---------------------------------------------------

def check_hessenberg(m) -> tuple:
    """Validate m(j) >= j, m nondecreasing, m(n) = n."""
    m = _ints(m, "Hessenberg value")
    n = len(m)
    ok = (n >= 1 and m[-1] == n
          and all(m[j] >= j + 1 for j in range(n))
          and all(m[j + 1] >= m[j] for j in range(n - 1)))
    if not ok:
        raise ValueError(f"not a Hessenberg function: {m}")
    return m


def codominant_from_hessenberg(m) -> Perm:
    """The lexicographically greatest w with w(i) <= m(i) for all i.

    Greedy: at each position take the largest unused value that fits.
    The result always avoids the patterns 3412 and 4231.

    >>> codominant_from_hessenberg((2, 3, 4, 4))
    (2, 3, 4, 1)
    """
    m = check_hessenberg(m)
    used = set()
    out = []
    for cap in m:
        x = cap
        while x in used:
            x -= 1
        used.add(x)
        out.append(x)
    return tuple(out)


def all_hessenberg_functions(n: int):
    """All Hessenberg functions on [n], lexicographically (Catalan many)."""
    def rec(prefix, j):
        if j == n:
            yield tuple(prefix)
            return
        lo = max(j + 1, prefix[-1] if prefix else 1)
        for v in range(lo, n + 1):
            if j == n - 1 and v != n:
                continue
            yield from rec(prefix + [v], j + 1)
    yield from rec([], 0)


def all_permutations(n: int):
    return (tuple(p) for p in permutations(range(1, n + 1)))


# -- indexed tables ---------------------------------------------------------

def _descents(seq) -> int:
    """Bitmask with bit t set iff seq[t] > seq[t+1]."""
    return sum(1 << t for t in range(len(seq) - 1) if seq[t] > seq[t + 1])


def _swapped(mask: int, s: int, lo: bool, hi: bool) -> int:
    """The descent mask after swapping the entries s, s+1: bit s flips,
    and bits s-1 and s+1 become lo and hi (lo is dropped at s = 0)."""
    return (mask ^ 1 << s) & ~(5 << s >> 1) | (lo | hi << 2) << s >> 1


class PermTable:
    """Permutations of 1..n numbered in the order they are added.  Calling
    the table validates and numbers a permutation; `left` and `right` fill
    the multiplication tables on demand, numbering what they reach.

    perms[p] is the one-line tuple and index the inverse map, lengths[p]
    the Coxeter length; lmult[p][s] and rmult[p][s] are the indices of
    s_{s+1} perms[p] and perms[p] s_{s+1} (None until filled), and bit s
    of ldesc[p] (rdesc[p]) is set iff that left (right) product is shorter.

    >>> t = PermTable(3)
    >>> t((1, 3, 2)), t.left(0, 0), t.right(0, 0), t.left(1, 0)
    (0, 1, 2, 0)
    >>> t.perms, t.lengths, t.lmult[0]
    ([(1, 3, 2), (2, 3, 1), (3, 1, 2)], [1, 2, 2], [1, None])
    """

    def __init__(self, n: int):
        self.n = n
        self.perms, self.index, self.lengths = [], {}, []
        self.ldesc, self.rdesc, self.lmult, self.rmult = [], [], [], []

    def __len__(self):
        return len(self.perms)

    def __call__(self, w) -> int:
        w = tuple(w)
        if (i := self.index.get(w)) is None:
            if sorted(w) != list(range(1, self.n + 1)):
                raise ValueError(f"not a permutation of 1..{self.n}: {w}")
            i = self._add(w, length(w), _descents(inverse(w)), _descents(w))
        return i

    def _add(self, w: Perm, lw: int, ld: int, rd: int) -> int:
        i = self.index[w] = len(self.perms)
        self.perms.append(w)
        self.lengths.append(lw)
        self.ldesc.append(ld)
        self.rdesc.append(rd)
        self.lmult.append([None] * (self.n - 1))
        self.rmult.append([None] * (self.n - 1))
        return i

    def left(self, x: int, s: int) -> int:
        """s_{s+1} x: one swap of the values s+1, s+2, at positions a, b.  A
        new entry takes its length (one up or down), left descents
        (`_swapped`) and right descents (changed iff |a - b| = 1) from x."""
        if (y := self.lmult[x][s]) is None:
            w = list(self.perms[x])
            a, b = w.index(s + 1), w.index(s + 2)
            w[a], w[b] = s + 2, s + 1
            if (y := self.index.get(w := tuple(w))) is None:
                d = self.ldesc[x]
                y = self._add(
                    w, self.lengths[x] + 1 - 2 * (d >> s & 1),
                    _swapped(d, s, s and w.index(s) > b,
                             s + 3 <= self.n and a > w.index(s + 3)),
                    self.rdesc[x] ^ (abs(a - b) == 1) << min(a, b))
            self.lmult[x][s], self.lmult[y][s] = y, x
        return y

    def right(self, x: int, s: int) -> int:
        """x s_{s+1}: one swap of the positions s, s+1, holding u, v; as in
        `left`, with positions and values exchanged."""
        if (y := self.rmult[x][s]) is None:
            w = self.perms[x]
            u, v = w[s], w[s + 1]
            if (y := self.index.get(ws := w[:s] + (v, u) + w[s + 2:])) is None:
                d = self.rdesc[x]
                y = self._add(
                    ws, self.lengths[x] + 1 - 2 * (d >> s & 1),
                    self.ldesc[x] ^ (abs(u - v) == 1) << min(u, v) - 1,
                    _swapped(d, s, s and w[s - 1] > v,
                             s + 2 < self.n and u > w[s + 2]))
            self.rmult[x][s], self.rmult[y][s] = y, x
        return y


_tables: dict = {}


def perm_table(n: int) -> PermTable:
    """The shared complete table of S_n: (length, one-line) order, every
    entry filled, `inv` (index -> index of the inverse permutation) and
    `conj` (index -> index of its conjugate by w0)."""
    config.check_n(n)
    table = _tables.get(n)
    if table is None:
        table = PermTable(n)
        for lw, w in sorted((length(w), w) for w in all_permutations(n)):
            table._add(w, lw, _descents(inverse(w)), _descents(w))
        for x, s in product(range(len(table)), range(n - 1)):
            table.left(x, s)
            table.right(x, s)
        table.inv = [table.index[inverse(w)] for w in table.perms]
        table.conj = [table.index[w0_conjugate(w)] for w in table.perms]
        table = _tables.setdefault(n, table)
    return table
