"""Exact matrices over Z[1/rt2] and the level ordering used by synthesis.

A matrix is stored as rt2^-k times an integer combination: one shared
exponent k plus flat row-major coefficient tuples.  The representation is
canonical (k is the least denominator exponent of the whole matrix), so
equality is plain tuple comparison.  RowState, the evaluator that row
operations act on, keeps each row as its own pair of lists at its own
exponent instead.  Public indices are 1-based, matching the generator
notation Z[a], X[b,c], H[b,c].
"""

from __future__ import annotations

from operator import add, itemgetter, neg, sub
from typing import NamedTuple, Sequence

from ._core import kron_nums, mat_mul_nums, reduce_nums
from .ring import RingError, RingInt, format_ringint, parse_natural, parse_ringint

SQRT2 = 2.0**0.5


class LinAlgError(ValueError):
    pass


# The dimension budget.  parse_matrix, words.parse_word and lang.parse_type
# refuse a larger dimension before they allocate anything of that size, and
# every walk of a term refuses a larger source type, such as an inferred
# one.  A dense matrix at the limit holds 2 * 1024^2 coefficients.
MAX_DIM = 1024


class ExactMatrix:
    """Square matrix rt2^-k * (aa + bb*rt2), canonical shared exponent."""

    __slots__ = ("n", "k", "aa", "bb")

    def __init__(self, n: int, k: int, aa: Sequence[int], bb: Sequence[int]):
        # n = 0 is legal: Zero-typed program paths denote empty blocks
        if not (n >= 0 and k >= 0 and len(aa) == n * n and len(bb) == n * n):
            raise LinAlgError(
                f"bad matrix data: n={n}, k={k}, {len(aa)} and {len(bb)} coefficients"
            )
        k, aa, bb = reduce_nums(k, aa, bb)
        self.n = n
        self.k = k
        self.aa = tuple(aa)
        self.bb = tuple(bb)

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        aa = [0] * (n * n)
        for i in range(n):
            aa[i * n + i] = 1
        return cls(n, 0, aa, [0] * (n * n))

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise LinAlgError(f"dimension mismatch {self.n} vs {other.n}")
        ca, cb = mat_mul_nums(self.n, self.aa, self.bb, other.aa, other.bb)
        return ExactMatrix(self.n, self.k + other.k, ca, cb)

    __matmul__ = matmul

    def transpose(self) -> "ExactMatrix":
        n = self.n
        aa = [self.aa[j * n + i] for i in range(n) for j in range(n)]
        bb = [self.bb[j * n + i] for i in range(n) for j in range(n)]
        return ExactMatrix(n, self.k, aa, bb)

    def direct_sum(self, other: "ExactMatrix") -> "ExactMatrix":
        n = self.n + other.n
        k = max(self.k, other.k)
        aa = [0] * (n * n)
        bb = [0] * (n * n)
        for block, off in ((self, 0), (other, self.n)):
            m = block.n
            ba, bl = _lift(block.aa, block.bb, k - block.k)
            for i in range(m):
                q = (i + off) * n + off
                aa[q : q + m] = ba[i * m : i * m + m]
                bb[q : q + m] = bl[i * m : i * m + m]
        return ExactMatrix(n, k, aa, bb)

    def tensor(self, other: "ExactMatrix") -> "ExactMatrix":
        ca, cb = kron_nums(self.n, self.aa, self.bb, other.n, other.aa, other.bb)
        return ExactMatrix(self.n * other.n, self.k + other.k, ca, cb)

    def is_identity(self) -> bool:
        if self.k != 0 or any(self.bb):
            return False
        n = self.n
        return all(
            self.aa[i * n + j] == (1 if i == j else 0)
            for i in range(n)
            for j in range(n)
        )

    def is_orthogonal(self) -> bool:
        return self.transpose().matmul(self).is_identity()

    def to_float(self) -> list[list[float]]:
        # an entry is p + q*rt2 with p, q dyadic: a/2^h and b/2^h for k = 2h,
        # b/2^h and a/2^(h+1) for k = 2h+1.  The Galois conjugate of an
        # orthogonal matrix is orthogonal, so |p| and |q| are at most 1, and
        # integer true division rounds them correctly without overflow.
        n, h = self.n, 2 ** (self.k // 2)
        if self.k % 2 == 0:
            ps, qs, qh = self.aa, self.bb, h
        else:
            ps, qs, qh = self.bb, self.aa, 2 * h
        return [
            [ps[i * n + j] / h + qs[i * n + j] / qh * SQRT2 for j in range(n)] for i in range(n)
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.n == other.n
            and self.k == other.k
            and self.aa == other.aa
            and self.bb == other.bb
        )

    def __hash__(self) -> int:
        return hash((self.n, self.k, self.aa, self.bb))

    def __repr__(self) -> str:
        return f"ExactMatrix(n={self.n}, k={self.k})"


def m_level_embed(small: ExactMatrix, rows: Sequence[int], n: int) -> ExactMatrix:
    """Place small at the given 1-based rows/columns of an n*n identity.

    The index list must be distinct but need not be sorted; an unsorted
    list permutes the block accordingly (H[c,b] with c > b arises this way).
    """
    m = small.n
    if len(rows) != m or len(set(rows)) != m:
        raise LinAlgError("index list must have one distinct entry per row")
    if not all(1 <= r <= n for r in rows):
        raise LinAlgError(f"indices must lie in 1..{n}")
    (one_a,), (one_b,) = _lift([1], [0], small.k)
    aa = [0] * (n * n)
    bb = [0] * (n * n)
    for i in range(n):
        aa[i * n + i] = one_a
        bb[i * n + i] = one_b
    for p in range(m):
        for q in range(m):
            t = (rows[p] - 1) * n + (rows[q] - 1)
            aa[t] = small.aa[p * m + q]
            bb[t] = small.bb[p * m + q]
    return ExactMatrix(n, small.k, aa, bb)


class Level(NamedTuple):
    """Synthesis progress measure of an orthogonal matrix, compared
    lexicographically, (0,0,0) exactly for the identity: j is the greatest
    column moved by the matrix, k the least exponent of that column, and l
    the number of odd residues in the scaled column (0 if k=0)."""

    j: int
    k: int
    l: int

    def __str__(self) -> str:
        return f"({self.j},{self.k},{self.l})"


def _level_unchecked(
    state: "RowState", top: int = 0
) -> tuple[Level, list[int], list[int]]:
    """Level of the orthogonal matrix held by state, with the numerators
    ca, cb of column Level.j scaled by rt2^Level.k (empty for the identity).

    Columns are scanned from top (default n) down; the caller vouches that
    every column above top is a unit column.
    """
    n, ks, ra, rb = state.n, state.ks, state.ra, state.rb
    for j in range(top or n, 0, -1):
        p = j - 1
        entry = itemgetter(p)
        ca, cb = list(map(entry, ra)), list(map(entry, rb))
        # e_j: numerator rt2^ks[p] on the diagonal, zero everywhere else
        half = ks[p] >> 1
        one = (0, 1 << half) if ks[p] & 1 else (1 << half, 0)
        if (ca[p], cb[p]) == one and ca.count(0) + cb.count(0) == 2 * n - 1:
            continue
        k, ca, cb = _reduced_column(ks, ca, cb)
        return Level(j, k, sum(a & 1 for a in ca) if k else 0), ca, cb
    return Level(0, 0, 0), [], []


def _reduced_column(
    ks: list[int], ca: list[int], cb: list[int]
) -> tuple[int, list[int], list[int]]:
    """A column whose entry i is rt2^-ks[i] * (ca[i] + cb[i]*rt2), at its
    own least exponent: every entry is lifted in place to the largest row
    exponent, and reduce_nums then finds the column's own."""
    top = max(ks, default=0)
    if min(ks, default=0) < top:
        for i, k in enumerate(ks):
            d = top - k
            if d and (ca[i] or cb[i]):
                h = d >> 1
                if d & 1:  # (a + b*rt2) * rt2 = 2b + a*rt2
                    ca[i], cb[i] = cb[i] << (h + 1), ca[i] << h
                else:
                    ca[i], cb[i] = ca[i] << h, cb[i] << h
    return reduce_nums(top, ca, cb)


class Generator(NamedTuple):
    """One- or two-level generator: Z[a], X[b,c] or H[b,c] with b < c."""

    kind: str
    idx: tuple[int, ...]

    def __str__(self) -> str:
        return f"{self.kind}[{','.join(map(str, self.idx))}]"


def _lift(
    ra: Sequence[int], rb: Sequence[int], d: int
) -> tuple[Sequence[int], Sequence[int]]:
    """Multiply numerators a + b*rt2 by rt2^d (d >= 0); d = 0 returns them,
    and d = 1 returns ra as the new rt2-part."""
    h = d >> 1
    if d & 1:
        return [b << (h + 1) for b in rb], [a << h for a in ra] if h else ra
    if h:
        return [a << h for a in ra], [b << h for b in rb]
    return ra, rb


def apply_generator_rows(
    g: Generator, ks: list[int], ra: list[list[int]], rb: list[list[int]]
) -> None:
    """Left-multiply the row state by g in place: row i is
    rt2^-ks[i] * (ra[i] + rb[i]*rt2).

    Z negates a row, X swaps two rows with their exponents, H sends rows
    (r1, r2) to ((r1+r2)/rt2, (r1-r2)/rt2).  Only those rows change, and
    each keeps its own least exponent.  X moves references in O(1); Z and H
    build new row lists in O(n) and never edit a row list in place, so
    rows that X has swapped stay independent.
    """
    kind, idx = g
    i1 = idx[0] - 1
    if kind == "Z":
        ra[i1] = list(map(neg, ra[i1]))
        rb[i1] = list(map(neg, rb[i1]))
        return
    i2 = idx[1] - 1
    if kind == "X":
        ra[i1], ra[i2] = ra[i2], ra[i1]
        rb[i1], rb[i2] = rb[i2], rb[i1]
        ks[i1], ks[i2] = ks[i2], ks[i1]
        return
    # lift both rows to a common exponent k; their sum and difference
    # then sit at exponent k+1 and are reduced row by row
    k, k2 = ks[i1], ks[i2]
    xa, xb, ya, yb = ra[i1], rb[i1], ra[i2], rb[i2]
    if k < k2:
        xa, xb = _lift(xa, xb, k2 - k)
        k = k2
    elif k2 < k:
        ya, yb = _lift(ya, yb, k - k2)
    sa, sb = list(map(add, xa, ya)), list(map(add, xb, yb))
    da, db = list(map(sub, xa, ya)), list(map(sub, xb, yb))
    # the two rows differ by 2*y entrywise, so their a-parts are odd at the
    # same entries, and one odd entry leaves both irreducible at k+1
    for a in sa:
        if a & 1:
            ks[i1] = ks[i2] = k + 1
            ra[i1], rb[i1], ra[i2], rb[i2] = sa, sb, da, db
            return
    ks[i1], ra[i1], rb[i1] = reduce_nums(k + 1, sa, sb)
    ks[i2], ra[i2], rb[i2] = reduce_nums(k + 1, da, db)


class RowState:
    """Mutable matrix under row operations: the one evaluator that
    word_sem, lang.sem and synthesis left-multiply in place.

    Row i is rt2^-ks[i] * (ra[i] + rb[i]*rt2), each row its own pair of
    lists at its own least exponent, so a generator touches only its rows
    and X only swaps references.  No two rows share a list object.
    RowState(M) reduces every row of M; RowState.identity(n), the start of
    every evaluation, is built reduced.
    """

    __slots__ = ("n", "ks", "ra", "rb")

    def __init__(self, M: ExactMatrix):
        n = self.n = M.n
        self.ks, self.ra, self.rb = [], [], []
        for i in range(n):
            k, ra, rb = reduce_nums(
                M.k, list(M.aa[i * n : i * n + n]), list(M.bb[i * n : i * n + n])
            )
            self.ks.append(k)
            self.ra.append(ra)
            self.rb.append(rb)

    @classmethod
    def identity(cls, n: int) -> "RowState":
        """The n x n identity: every row at exponent 0, so none needs reducing."""
        state = cls.__new__(cls)
        state.n, state.ks = n, [0] * n
        state.ra = [[0] * n for _ in range(n)]
        state.rb = [[0] * n for _ in range(n)]
        for i, row in enumerate(state.ra):
            row[i] = 1
        return state

    def snapshot(self) -> ExactMatrix:
        """The matrix, every row lifted to the largest row exponent."""
        n, top = self.n, max(self.ks, default=0)
        aa, bb = [0] * (n * n), [0] * (n * n)
        for i, (k, ra, rb) in enumerate(zip(self.ks, self.ra, self.rb)):
            aa[i * n : i * n + n], bb[i * n : i * n + n] = _lift(ra, rb, top - k)
        return ExactMatrix(n, top, aa, bb)

    def is_identity(self) -> bool:
        """Whether the state holds the identity, read off its rows: each row
        is at its least exponent, so it must be e_i at exponent 0."""
        n = self.n
        return (
            not any(self.ks)
            and all(r.count(0) == n for r in self.rb)
            and all(r[i] == 1 and r.count(0) == n - 1 for i, r in enumerate(self.ra))
        )

    def column(self, j: int) -> tuple[int, list[int], list[int]]:
        """Column j (1-based) with its own least exponent k: numerators ca,
        cb with entry i equal to rt2^-k * (ca[i] + cb[i]*rt2)."""
        entry = itemgetter(j - 1)
        return _reduced_column(self.ks, list(map(entry, self.ra)), list(map(entry, self.rb)))

    def apply_word(self, gens: Sequence[Generator]) -> None:
        """Left-multiply by the word's matrix: rightmost generator acts first."""
        ks, ra, rb = self.ks, self.ra, self.rb
        for g in reversed(gens):
            apply_generator_rows(g, ks, ra, rb)


def gen_z(a: int) -> Generator:
    if a < 1:
        raise LinAlgError(f"Z[{a}]: index must be at least 1")
    return Generator("Z", (a,))


def gen_x(b: int, c: int) -> Generator:
    """Swap generator; symmetric, so indices are sorted silently."""
    if not (b >= 1 and c >= 1 and b != c):
        raise LinAlgError(f"X[{b},{c}]: indices must be distinct and at least 1")
    return Generator("X", (min(b, c), max(b, c)))


def gen_h(b: int, c: int) -> Generator:
    """Two-level Hadamard; orientation matters, so b < c is required."""
    if not 1 <= b < c:
        raise LinAlgError(f"H[{b},{c}]: indices must satisfy 1 <= b < c")
    return Generator("H", (b, c))


def parse_matrix(text: str) -> ExactMatrix:
    """Read the dim/lde/rows dump format back into a matrix."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("dim ") or not lines[1].startswith("lde "):
        raise LinAlgError("expected 'dim <n>' then 'lde <k>' header lines")
    n = parse_natural(lines[0][4:].strip(), "the dimension", LinAlgError)
    k = parse_natural(lines[1][4:].strip(), "the lde", LinAlgError)
    if n > MAX_DIM:
        raise LinAlgError(f"dimension {n} is past the limit of {MAX_DIM} (MAX_DIM)")
    if len(lines) != 2 + n:
        raise LinAlgError(f"expected {n} rows after the header")
    aa = [0] * (n * n)
    bb = [0] * (n * n)
    for i, ln in enumerate(lines[2:]):
        toks = ln.split()
        if len(toks) != n:
            raise LinAlgError(f"row {i + 1}: expected {n} entries, got {len(toks)}")
        for j, tok in enumerate(toks):
            try:
                num = parse_ringint(tok)
            except ValueError as exc:
                raise LinAlgError(f"row {i + 1} entry {j + 1}: {exc}") from None
            aa[i * n + j] = num.a
            bb[i * n + j] = num.b
    return ExactMatrix(n, k, aa, bb)


def format_matrix(M: ExactMatrix) -> str:
    """The dim/lde/rows dump format that parse_matrix reads; refuses an
    entry that parse_matrix would refuse for its length."""
    n = M.n
    out = [f"dim {n}", f"lde {M.k}"]
    for i in range(n):
        row = []
        for j in range(n):
            try:
                row.append(format_ringint(RingInt(M.aa[i * n + j], M.bb[i * n + j])))
            except RingError as exc:
                raise LinAlgError(f"row {i + 1} entry {j + 1}: {exc}") from None
        out.append(" ".join(row))
    return "\n".join(out)
