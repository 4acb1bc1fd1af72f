"""Exact matrices over Z[1/rt2] and the level ordering used by synthesis.

A matrix is stored as rt2^-k times an integer combination: one shared
exponent k plus flat row-major coefficient tuples.  The representation is
canonical (k is the least denominator exponent of the whole matrix), so
equality is plain tuple comparison.  Public indices are 1-based, matching
the generator notation Z[a], X[b,c], H[b,c].
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ._core import kron_nums, mat_mul_nums, reduce_nums
from .ring import Dyadic, RingInt, dyadic, format_ringint, parse_ringint

SQRT2 = 2.0**0.5


class LinAlgError(ValueError):
    pass


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

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Dyadic]]) -> "ExactMatrix":
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise LinAlgError("matrix must be square")
        k = max((v.k for r in rows for v in r), default=0)
        aa = [0] * (n * n)
        bb = [0] * (n * n)
        for i, r in enumerate(rows):
            for j, v in enumerate(r):
                num = v.num.mul_pow_rt2(k - v.k)
                aa[i * n + j] = num.a
                bb[i * n + j] = num.b
        return cls(n, k, aa, bb)

    def entry(self, i: int, j: int) -> Dyadic:
        """Entry at 1-based (i, j), reduced to its own exponent."""
        p = (i - 1) * self.n + (j - 1)
        return dyadic(RingInt(self.aa[p], self.bb[p]), self.k)

    def column(self, j: int) -> tuple[int, list[RingInt]]:
        """Column j (1-based) with its own least exponent."""
        n = self.n
        ca = [self.aa[i * n + j - 1] for i in range(n)]
        cb = [self.bb[i * n + j - 1] for i in range(n)]
        k, ca, cb = reduce_nums(self.k, ca, cb)
        return k, [RingInt(a, b) for a, b in zip(ca, cb)]

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
            shift = k - block.k
            for i in range(block.n):
                for j in range(block.n):
                    p = i * block.n + j
                    num = RingInt(block.aa[p], block.bb[p]).mul_pow_rt2(shift)
                    q = (i + off) * n + (j + off)
                    aa[q] = num.a
                    bb[q] = num.b
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
        n, scale = self.n, SQRT2**-self.k
        return [
            [
                (self.aa[i * n + j] + self.bb[i * n + j] * SQRT2) * scale
                for j in range(n)
            ]
            for i in range(n)
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
    one = RingInt(1, 0).mul_pow_rt2(small.k)
    aa = [0] * (n * n)
    bb = [0] * (n * n)
    for i in range(n):
        aa[i * n + i] = one.a
        bb[i * n + i] = one.b
    for p in range(m):
        for q in range(m):
            t = (rows[p] - 1) * n + (rows[q] - 1)
            aa[t] = small.aa[p * m + q]
            bb[t] = small.bb[p * m + q]
    return ExactMatrix(n, small.k, aa, bb)


class Level(NamedTuple):
    """Synthesis progress measure, compared lexicographically."""

    j: int
    k: int
    l: int

    def __str__(self) -> str:
        return f"({self.j},{self.k},{self.l})"


def level(M: ExactMatrix) -> Level:
    """Level triple of an orthogonal matrix; (0,0,0) exactly for identity.

    j is the greatest column moved by M, k the least exponent of that
    column, l the number of odd residues in the scaled column (0 if k=0).
    """
    if not M.is_orthogonal():
        raise LinAlgError("level is defined for orthogonal matrices only")
    return _level_unchecked(M)


def _level_unchecked(M: ExactMatrix) -> Level:
    for j in range(M.n, 0, -1):
        k, col = M.column(j)
        if k == 0 and all(
            x == (RingInt(1, 0) if i == j else RingInt(0, 0))
            for i, x in enumerate(col, start=1)
        ):
            continue
        if k == 0:
            return Level(j, 0, 0)
        return Level(j, k, sum(1 for x in col if x.residue().is_odd))
    return Level(0, 0, 0)


# Generator matrices: the 1x1 sign flip and the 2x2 swap and Hadamard blocks.
MINUS_ONE = ExactMatrix(1, 0, [-1], [0])
X_BLOCK = ExactMatrix(2, 0, [0, 1, 1, 0], [0, 0, 0, 0])
H_BLOCK = ExactMatrix(2, 1, [1, 1, 1, -1], [0, 0, 0, 0])


class Generator(NamedTuple):
    """One- or two-level generator: Z[a], X[b,c] or H[b,c] with b < c."""

    kind: str
    idx: tuple[int, ...]

    def matrix(self, n: int) -> ExactMatrix:
        if self.kind == "Z":
            return m_level_embed(MINUS_ONE, self.idx, n)
        block = X_BLOCK if self.kind == "X" else H_BLOCK
        return m_level_embed(block, self.idx, n)

    def __str__(self) -> str:
        return f"{self.kind}[{','.join(map(str, self.idx))}]"


def apply_generator_rows(
    g: Generator, k: int, aa: list[int], bb: list[int], n: int
) -> tuple[int, list[int], list[int]]:
    """Left-multiply the flat matrix state rt2^-k*(aa+bb*rt2) by g.

    Z negates a row, X swaps two rows, H sends rows (r1, r2) to
    ((r1+r2)/rt2, (r1-r2)/rt2); the exponent is re-reduced after H so the
    state stays canonical.  Mutates the lists and returns the new state.
    """
    if g.kind == "Z":
        base = (g.idx[0] - 1) * n
        for t in range(base, base + n):
            aa[t] = -aa[t]
            bb[t] = -bb[t]
        return k, aa, bb
    b1 = (g.idx[0] - 1) * n
    b2 = (g.idx[1] - 1) * n
    if g.kind == "X":
        for t in range(n):
            aa[b1 + t], aa[b2 + t] = aa[b2 + t], aa[b1 + t]
            bb[b1 + t], bb[b2 + t] = bb[b2 + t], bb[b1 + t]
        return k, aa, bb
    # Exponent rises to k+1: numerators at the two combined rows are the
    # plain sum/difference, every other row is rescaled by rt2.
    for i in range(n):
        base = i * n
        if base != b1 and base != b2:
            for t in range(base, base + n):
                aa[t], bb[t] = 2 * bb[t], aa[t]
    for t in range(n):
        s_a, s_b = aa[b1 + t] + aa[b2 + t], bb[b1 + t] + bb[b2 + t]
        d_a, d_b = aa[b1 + t] - aa[b2 + t], bb[b1 + t] - bb[b2 + t]
        aa[b1 + t], bb[b1 + t] = s_a, s_b
        aa[b2 + t], bb[b2 + t] = d_a, d_b
    return reduce_nums(k + 1, aa, bb)


def gen_z(a: int) -> Generator:
    assert a >= 1
    return Generator("Z", (a,))


def gen_x(b: int, c: int) -> Generator:
    """Swap generator; symmetric, so indices are sorted silently."""
    assert b >= 1 and c >= 1 and b != c
    return Generator("X", (min(b, c), max(b, c)))


def gen_h(b: int, c: int) -> Generator:
    """Two-level Hadamard; orientation matters, so b < c is required."""
    assert 1 <= b < c
    return Generator("H", (b, c))


def parse_matrix(text: str) -> ExactMatrix:
    """Read the dim/lde/rows dump format back into a matrix."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("dim ") or not lines[1].startswith("lde "):
        raise LinAlgError("expected 'dim <n>' then 'lde <k>' header lines")
    try:
        n = int(lines[0][4:])
        k = int(lines[1][4:])
    except ValueError as exc:
        raise LinAlgError(f"bad matrix header: {exc}") from None
    if n < 0 or k < 0 or len(lines) != 2 + n:
        raise LinAlgError(f"expected {max(n, 0)} rows after the header")
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
    out = [f"dim {M.n}", f"lde {M.k}"]
    for i in range(M.n):
        out.append(
            " ".join(
                format_ringint(RingInt(M.aa[i * M.n + j], M.bb[i * M.n + j]))
                for j in range(M.n)
            )
        )
    return "\n".join(out)
