"""Exact matrices over Z[1/rt2] and the level ordering used by synthesis.

A matrix holds each row as its own pair of integer tuples at its own
least rt2 exponent.  That form is canonical, so equality compares rows.
Row operations (apply_generator_rows), the one evaluator that words,
programs and synthesis share, act on the rows, and new matrices are built
from the rows they leave with no lift and no reduction.  The dense
operations (matmul, tensor, m_level_embed, format_matrix, to_float)
read one derived flat view, every row lifted to the lde; no other
module of the package reads it.  Public indices are 1-based,
matching the generator notation Z[a], X[b,c], H[b,c].
"""

from __future__ import annotations

from operator import add, itemgetter, mul, neg, sub
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
    """Square matrix over Z[1/rt2] held by rows: row i is
    rt2^-ks[i] * (ra[i] + rb[i]*rt2), each row at its own least exponent.

    The form is canonical, so equality compares rows, and the lde k is the
    largest row exponent.  Rows are shared between matrices (row operations
    move them by reference), so no code may edit a row in place: each row
    is a tuple, and no code edits the lists ks, ra or rb of a matrix once
    it is handed out.
    """

    __slots__ = ("n", "ks", "ra", "rb")

    def __init__(self, n: int, k: int, aa: Sequence[int], bb: Sequence[int]):
        """The matrix rt2^-k * (aa + bb*rt2) of flat row-major numerators,
        each row reduced to its own least exponent."""
        # n = 0 is legal: Zero-typed program paths denote empty blocks
        if not (n >= 0 and k >= 0 and len(aa) == n * n and len(bb) == n * n):
            raise LinAlgError(
                f"bad matrix data: n={n}, k={k}, {len(aa)} and {len(bb)} coefficients"
            )
        self.n = n
        ks, ra, rb = self.ks, self.ra, self.rb = [], [], []
        for i in range(n):
            ki, a, b = reduce_nums(k, aa[i * n : i * n + n], bb[i * n : i * n + n])
            ks.append(ki)
            ra.append(tuple(a))
            rb.append(tuple(b))

    @classmethod
    def from_rows(
        cls, ks: list[int], ra: Sequence[Sequence[int]], rb: Sequence[Sequence[int]]
    ) -> "ExactMatrix":
        """The matrix of rows already at their least exponents, neither
        lifted nor reduced.  ks and each tuple row are taken by reference;
        a row list, as row operations build them, is frozen into a tuple."""
        M = cls.__new__(cls)
        M.n, M.ks, M.ra, M.rb = len(ks), ks, list(map(tuple, ra)), list(map(tuple, rb))
        return M

    @classmethod
    def identity(cls, n: int) -> "ExactMatrix":
        zero = (0,) * n
        ra = [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)]
        return cls.from_rows([0] * n, ra, [zero] * n)

    @property
    def k(self) -> int:
        """The lde of the matrix: its largest row exponent."""
        return max(self.ks, default=0)

    def flat(self) -> tuple[list[int], list[int]]:
        """Flat row-major numerators aa, bb at the exponent k: entry (i, j)
        is rt2^-k * (aa[i*n + j] + bb[i*n + j]*rt2)."""
        top, aa, bb = self.k, [], []
        for k, ra, rb in zip(self.ks, self.ra, self.rb):
            a, b = _lift(ra, rb, top - k)
            aa += a
            bb += b
        return aa, bb

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.n != other.n:
            raise LinAlgError(f"dimension mismatch {self.n} vs {other.n}")
        ca, cb = mat_mul_nums(self.n, *self.flat(), *other.flat())
        return ExactMatrix(self.n, self.k + other.k, ca, cb)

    __matmul__ = matmul

    def direct_sum(self, other: "ExactMatrix") -> "ExactMatrix":
        # zeros padding a row leave its least exponent as it is
        right, left = (0,) * other.n, (0,) * self.n
        return ExactMatrix.from_rows(
            self.ks + other.ks,
            [r + right for r in self.ra] + [left + r for r in other.ra],
            [r + right for r in self.rb] + [left + r for r in other.rb],
        )

    def tensor(self, other: "ExactMatrix") -> "ExactMatrix":
        ca, cb = kron_nums(self.n, *self.flat(), other.n, *other.flat())
        return ExactMatrix(self.n * other.n, self.k + other.k, ca, cb)

    def is_identity(self) -> bool:
        """Read off the rows: each is at its least exponent, so row i must
        be e_i at exponent 0."""
        n = self.n
        return (
            not any(self.ks)
            and all(r.count(0) == n for r in self.rb)
            and all(r[i] == 1 and r.count(0) == n - 1 for i, r in enumerate(self.ra))
        )

    def is_orthogonal(self) -> bool:
        """Whether M Mt = I, which for a square M gives Mt M = I too.  The
        entries of M Mt are taken one row pair at a time, and the first one
        off the identity decides."""
        ra, rb = self.ra, self.rb
        for i, (k, a, b) in enumerate(zip(self.ks, ra, rb), 1):
            # row i dotted with itself, rt2^-2k * ((a.a + 2 b.b) + 2 a.b*rt2),
            # is 1 exactly when a.b = 0 and a.a + 2 b.b = 2^k: a power of two
            # of bit length k + 1, tested without building 2^k
            s = sum(map(mul, a, a)) + 2 * sum(map(mul, b, b))
            if sum(map(mul, a, b)) or s & (s - 1) or s.bit_length() != k + 1:
                return False
            # row i dotted with a later row: both parts must vanish
            for c, d in zip(ra[i:], rb[i:]):
                if sum(map(mul, a, c)) + 2 * sum(map(mul, b, d)):
                    return False
                if sum(map(mul, a, d)) + sum(map(mul, b, c)):
                    return False
        return True

    def to_float(self) -> list[list[float]]:
        # an entry is p + q*rt2 with p, q dyadic: a/2^h and b/2^h for k = 2h,
        # b/2^h and a/2^(h+1) for k = 2h+1.  The Galois conjugate of an
        # orthogonal matrix is orthogonal, so |p| and |q| are at most 1, and
        # integer true division rounds them correctly without overflow.
        n, k = self.n, self.k
        aa, bb = self.flat()
        h = 2 ** (k // 2)
        if k % 2 == 0:
            ps, qs, qh = aa, bb, h
        else:
            ps, qs, qh = bb, aa, 2 * h
        return [
            [ps[i * n + j] / h + qs[i * n + j] / qh * SQRT2 for j in range(n)] for i in range(n)
        ]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ExactMatrix)
            and self.n == other.n
            and self.ks == other.ks
            and self.ra == other.ra
            and self.rb == other.rb
        )

    def __hash__(self) -> int:
        return hash((self.n, tuple(self.ks), tuple(self.ra), tuple(self.rb)))

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
    sa, sb = small.flat()
    (one_a,), (one_b,) = _lift([1], [0], small.k)
    aa = [0] * (n * n)
    bb = [0] * (n * n)
    for i in range(n):
        aa[i * n + i] = one_a
        bb[i * n + i] = one_b
    for p in range(m):
        for q in range(m):
            t = (rows[p] - 1) * n + (rows[q] - 1)
            aa[t] = sa[p * m + q]
            bb[t] = sb[p * m + q]
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
    ks: list[int], ra: list[Sequence[int]], rb: list[Sequence[int]], top: int = 0
) -> tuple[Level, list[int], list[int]]:
    """Level of the orthogonal matrix of rows ks, ra, rb (as held by an
    ExactMatrix), with the numerators ca, cb of column Level.j scaled by
    rt2^Level.k (empty for the identity).

    Columns are scanned from top (default n) down; the caller vouches that
    every column above top is a unit column.
    """
    n = len(ks)
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
    g: Generator, ks: list[int], ra: list[Sequence[int]], rb: list[Sequence[int]]
) -> None:
    """Left-multiply the rows of a matrix by g, replacing entries of the
    caller's lists ks, ra, rb: row i is rt2^-ks[i] * (ra[i] + rb[i]*rt2).

    Z negates a row, X swaps two rows with their exponents, H sends rows
    (r1, r2) to ((r1+r2)/rt2, (r1-r2)/rt2).  Only those rows change, and
    each keeps its own least exponent.  X moves references in O(1); Z and H
    build new row lists in O(n) and never edit a row in place, so a row
    that another matrix shares stays as it is.
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
    # same entries, and one odd entry leaves both irreducible at k+1.  The
    # scan stops at that entry; a gcd would read every entry, which costs
    # more on the long rows of large numerators that a large n builds.
    for a in sa:
        if a & 1:
            ks[i1] = ks[i2] = k + 1
            ra[i1], rb[i1], ra[i2], rb[i2] = sa, sb, da, db
            return
    ks[i1], ra[i1], rb[i1] = reduce_nums(k + 1, sa, sb)
    ks[i2], ra[i2], rb[i2] = reduce_nums(k + 1, da, db)


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
    aa, bb = M.flat()
    out = [f"dim {n}", f"lde {M.k}"]
    for i in range(n):
        row = []
        for j in range(n):
            try:
                row.append(format_ringint(RingInt(aa[i * n + j], bb[i * n + j])))
            except RingError as exc:
                raise LinAlgError(f"row {i + 1} entry {j + 1}: {exc}") from None
        out.append(" ".join(row))
    return "\n".join(out)
