"""Independent exact oracles used across the test suite.

Everything here works with Fractions in the form p + q*sqrt(2) and plain
list-of-lists matrices.  Package values enter only as plain integers: a
numerator pair (a, b) with its exponent k, or the fields n, k, aa, bb of
an ExactMatrix.  No code is shared with the package internals: agreement
between the two is the evidence.
"""

from __future__ import annotations

from fractions import Fraction


class FracRT2:
    """Oracle scalar p + q*sqrt(2), p and q exact rationals."""

    def __init__(self, p, q=0):
        self.p = Fraction(p)
        self.q = Fraction(q)

    @classmethod
    def of(cls, a: int, b: int, k: int) -> "FracRT2":
        """The value (a + b*rt2) / rt2^k."""
        if k % 2 == 0:
            d = 2 ** (k // 2)
            return cls(Fraction(a, d), Fraction(b, d))
        # (a + b*rt2) / (m*rt2) = b/m + (a/(2m))*rt2
        m = 2 ** ((k - 1) // 2)
        return cls(Fraction(b, m), Fraction(a, 2 * m))

    def __add__(self, other):
        return FracRT2(self.p + other.p, self.q + other.q)

    def __sub__(self, other):
        return FracRT2(self.p - other.p, self.q - other.q)

    def __mul__(self, other):
        return FracRT2(
            self.p * other.p + 2 * self.q * other.q,
            self.p * other.q + self.q * other.p,
        )

    def __neg__(self):
        return FracRT2(-self.p, -self.q)

    def __eq__(self, other):
        return self.p == other.p and self.q == other.q

    def __hash__(self):
        return hash((self.p, self.q))

    def __repr__(self):
        return f"FracRT2({self.p}, {self.q})"

    def scaled_by_rt2_pow(self, k: int) -> "FracRT2":
        out = self
        for _ in range(k):
            out = FracRT2(2 * out.q, out.p)
        return out

    def in_z_rt2(self) -> bool:
        return self.p.denominator == 1 and self.q.denominator == 1


FR_ZERO = FracRT2(0)
FR_ONE = FracRT2(1)


def oracle_lde(*ws: FracRT2, bound: int = 200) -> int:
    """Minimal k with rt2^k * w integral for every w, by brute-force scan."""
    for k in range(bound):
        if all(w.in_z_rt2() for w in ws):
            return k
        ws = tuple(w.scaled_by_rt2_pow(1) for w in ws)
    raise AssertionError("no exponent found within bound")


def frac_of_matrix(M) -> list[list[FracRT2]]:
    """The entries of an ExactMatrix, read from its n, k, aa, bb fields."""
    n = M.n
    return [
        [FracRT2.of(M.aa[i * n + j], M.bb[i * n + j], M.k) for j in range(n)]
        for i in range(n)
    ]


def frac_identity(n: int) -> list[list[FracRT2]]:
    return [[FR_ONE if i == j else FR_ZERO for j in range(n)] for i in range(n)]


def frac_mul(A, B):
    n = len(A)
    return [
        [sum((A[i][t] * B[t][j] for t in range(n)), FR_ZERO) for j in range(n)]
        for i in range(n)
    ]


def frac_kron(A, B):
    n1, n2 = len(A), len(B)
    return [
        [A[i1][j1] * B[i2][j2] for j1 in range(n1) for j2 in range(n2)]
        for i1 in range(n1)
        for i2 in range(n2)
    ]


def frac_direct_sum(A, B):
    n1, n2 = len(A), len(B)
    n = n1 + n2
    out = [[FR_ZERO] * n for _ in range(n)]
    for i in range(n1):
        out[i][:n1] = A[i]
    for i in range(n2):
        out[n1 + i][n1:] = B[i]
    return out


def frac_transpose(A):
    n = len(A)
    return [[A[j][i] for j in range(n)] for i in range(n)]


def frac_eq(A, B) -> bool:
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def oracle_level(M) -> tuple[int, int, int]:
    """Level triple computed from the Fraction form, by the definition."""
    F = frac_of_matrix(M)
    n = len(F)
    ident = frac_identity(n)
    moved = [j for j in range(n) if [F[i][j] for i in range(n)] != [ident[i][j] for i in range(n)]]
    if not moved:
        return (0, 0, 0)
    j = max(moved)
    col = [F[i][j] for i in range(n)]
    k = 0
    while not all(x.in_z_rt2() for x in col):
        col = [x.scaled_by_rt2_pow(1) for x in col]
        k += 1
    if k == 0:
        return (j + 1, 0, 0)
    odd = sum(1 for x in col if int(x.p) % 2 == 1)
    return (j + 1, k, odd)


def reduce_nums_stepwise(k: int, aa: list[int], bb: list[int]):
    """Reference rt2 stripping, one factor per pass: (a + b*rt2)/rt2 is
    b + (a/2)*rt2, legal while every a is even and k > 0."""
    while k > 0:
        if any(a & 1 for a in aa):
            break
        aa, bb = list(bb), [a >> 1 for a in aa]
        k -= 1
    return k, aa, bb
