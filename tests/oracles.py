"""Independent exact oracles used across the test suite.

Everything here but the last section works with Fractions in the form
p + q*sqrt(2) and plain list-of-lists matrices.  Package values enter only
as plain integers: a numerator pair (a, b) with its exponent k, or the
fields n, k, aa, bb of an ExactMatrix; package terms and types are read by
class name and fields.  No code is shared with the package internals:
agreement between the two is the evidence.  The last two sections build
the dense generator matrices that tests multiply out, from ExactMatrix and
m_level_embed, and translate programs to Words of Generators clause by
clause.
"""

from __future__ import annotations

from fractions import Fraction

from hadpi.linalg import ExactMatrix, Generator, m_level_embed
from hadpi.words import Word, WordError


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
    """The entries of an ExactMatrix, read from its flat view at its lde k."""
    n, k = M.n, M.k
    aa, bb = M.flat()
    return [[FracRT2.of(aa[i * n + j], bb[i * n + j], k) for j in range(n)] for i in range(n)]


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


def transpose(M: ExactMatrix) -> ExactMatrix:
    """The transpose of M, built densely from its flat view."""
    n = M.n
    aa, bb = M.flat()
    # aa[j::n] is column j
    at = [a for j in range(n) for a in aa[j::n]]
    return ExactMatrix(n, M.k, at, [b for j in range(n) for b in bb[j::n]])


def frac_eq(A, B) -> bool:
    return len(A) == len(B) and all(ra == rb for ra, rb in zip(A, B))


def oracle_level(M) -> tuple[int, int, int]:
    """Level triple computed from the Fraction form, by the definition."""
    return _frac_level(frac_of_matrix(M))[0]


def _frac_level(F) -> tuple[tuple[int, int, int], list[FracRT2]]:
    """Level triple of the Fraction matrix F, with the column it names
    scaled by rt2^k into Z[rt2] (empty for the identity).  The columns are
    read from n down; nothing is carried over from an earlier call."""
    n = len(F)
    for j in reversed(range(n)):
        col = [F[i][j] for i in range(n)]
        if col == [FR_ONE if i == j else FR_ZERO for i in range(n)]:
            continue
        k = 0
        while not all(x.in_z_rt2() for x in col):
            col = [x.scaled_by_rt2_pow(1) for x in col]
            k += 1
        odd = sum(1 for x in col if int(x.p) % 2 == 1) if k else 0
        return (j + 1, k, odd), col
    return (0, 0, 0), []


_HALF_RT2 = FracRT2(0, Fraction(1, 2))  # 1/rt2


def oracle_synthesize(M):
    """The synthesis algorithm run on Fractions, with full rows and the
    level read afresh from the whole matrix after every syllable.

    Returns (initial, syllables, levels): level triples, and each syllable
    as a tuple of (kind, indices) generator pairs, 1-based.  A syllable
    acts rightmost generator first.  While column j has exponent k > 0, the
    odd rows of its scaled entries fall into two classes by the parity of
    their rt2-part.  Each class with at least two rows offers the two of
    least (row exponent, index), a row's exponent being the least e with
    rt2^e times the whole row in Z[rt2]; the offer of least (exponent sum,
    second row's exponent, first index, second index) wins.  With p < q
    its rows, the syllable is H[1,q] X[1,p] (H[1,q] alone when p = 1).
    Once column j is a signed basis vector s*e_a, it is X[a,j] (a < j),
    with Z[a] after it when s = -1, or Z[j] alone when a = j.  Only for
    orthogonal M."""
    F = [list(row) for row in frac_of_matrix(M)]
    level, col = _frac_level(F)
    initial, syllables, levels = level, [], []
    while level[0]:
        j, k, _ = level
        if k:
            offers = []
            for parity in (0, 1):
                rows = sorted(
                    (oracle_lde(*F[i - 1]), i)
                    for i, x in enumerate(col, 1)
                    if int(x.p) % 2 == 1 and int(x.q) % 2 == parity
                )
                if len(rows) >= 2:
                    (k1, r1), (k2, r2) = rows[:2]
                    offers.append((k1 + k2, k2, r1, r2))
            p, q = sorted(min(offers)[2:])
            syl = (("H", (1, q)),) if p == 1 else (("H", (1, q)), ("X", (1, p)))
        else:
            a = next(i for i, x in enumerate(col, 1) if x != FR_ZERO)
            if a == j:
                syl = (("Z", (j,)),)
            elif col[a - 1] == FR_ONE:
                syl = (("X", (a, j)),)
            else:
                syl = (("X", (a, j)), ("Z", (a,)))
        for kind, idx in reversed(syl):
            r = [i - 1 for i in idx]
            if kind == "Z":
                F[r[0]] = [-x for x in F[r[0]]]
            elif kind == "X":
                F[r[0]], F[r[1]] = F[r[1]], F[r[0]]
            else:
                top, bot = F[r[0]], F[r[1]]
                F[r[0]] = [(x + y) * _HALF_RT2 for x, y in zip(top, bot)]
                F[r[1]] = [(x - y) * _HALF_RT2 for x, y in zip(top, bot)]
        level, col = _frac_level(F)
        syllables.append(syl)
        levels.append(level)
    return initial, tuple(syllables), tuple(levels)


def pair_by_sorting(odd: list[int], cb: list[int], ks: list[int]):
    """Reference pair choice on synthesis's own inputs: the odd rows (1-based,
    in any order), the scaled rt2-parts cb of the column and the row
    exponents ks.  Each residue class (the parity of cb) sorts its rows by
    (row exponent, index) and offers its first two; the offer of least
    (exponent sum, second row's exponent, first index, second index)
    wins, returned as rows p < q.  None when no class has two rows."""
    classes: tuple[list, list] = ([], [])
    for i in odd:
        classes[cb[i - 1] & 1].append((ks[i - 1], i))
    offers = []
    for rows in classes:
        if len(rows) >= 2:
            rows.sort()
            (k1, r1), (k2, r2) = rows[:2]
            offers.append((k1 + k2, k2, r1, r2))
    if not offers:
        return None
    r1, r2 = min(offers)[2:]
    return (r1, r2) if r1 < r2 else (r2, r1)


def reduce_nums_stepwise(k: int, aa: list[int], bb: list[int]):
    """Reference rt2 stripping, one factor per pass: (a + b*rt2)/rt2 is
    b + (a/2)*rt2, legal while every a is even and k > 0."""
    while k > 0:
        if any(a & 1 for a in aa):
            break
        aa, bb = list(bb), [a >> 1 for a in aa]
        k -= 1
    return k, aa, bb


# ---------------------------------------------------------------------------
# programs, by their denotation
#
# Types are nested tuples: ("0",), ("1",), ("+", left, right), ("*", left,
# right).  Package types and terms are read by class name and fields only.


class OracleTypeError(ValueError):
    """The oracle found a term ill-typed at its input."""


def oracle_type(b) -> tuple:
    """A package value type as a nested tuple."""
    kind = type(b).__name__
    if kind == "Zero":
        return ("0",)
    if kind == "One":
        return ("1",)
    return ("+" if kind == "Sum" else "*", oracle_type(b.left), oracle_type(b.right))


def oracle_dim(t: tuple) -> int:
    if t[0] in ("0", "1"):
        return int(t[0])
    left, right = oracle_dim(t[1]), oracle_dim(t[2])
    return left + right if t[0] == "+" else left * right


def _perm_matrix(images: list[int]) -> list[list[FracRT2]]:
    """Basis vector j goes to basis vector images[j] (0-based)."""
    n = len(images)
    out = [[FR_ZERO] * n for _ in range(n)]
    for j, i in enumerate(images):
        out[i][j] = FR_ONE
    return out


_ORACLE_PRIMS = {
    "pi": {
        "id", "swap+", "assocr+", "assocl+", "unite+", "uniti+", "swap*",
        "assocr*", "assocl*", "unite*", "uniti*", "dist", "factor", "absorb",
    },
}
_ORACLE_PRIMS["hpi"] = _ORACLE_PRIMS["pi"] | {"had"}
_ORACLE_PRIMS["qpi"] = _ORACLE_PRIMS["hpi"] | {"neg1"}


def _oracle_prim_type(name: str, t: tuple, lang: str) -> tuple:
    """Target type of one primitive at input t."""
    if name not in _ORACLE_PRIMS[lang]:
        raise OracleTypeError(f"{name} is not in {lang}")

    def need(ok):
        if not ok:
            raise OracleTypeError(f"{name} does not accept {t}")

    op = t[0]
    if name == "id":
        return t
    if name in ("swap+", "swap*"):
        need(op == name[-1])
        return (op, t[2], t[1])
    if name in ("assocr+", "assocr*"):
        need(op == name[-1] and t[1][0] == op)
        return (op, t[1][1], (op, t[1][2], t[2]))
    if name in ("assocl+", "assocl*"):
        need(op == name[-1] and t[2][0] == op)
        return (op, (op, t[1], t[2][1]), t[2][2])
    if name == "unite+":
        need(op == "+" and t[1] == ("0",))
        return t[2]
    if name == "unite*":
        need(op == "*" and t[1] == ("1",))
        return t[2]
    if name == "uniti+":
        return ("+", ("0",), t)
    if name == "uniti*":
        return ("*", ("1",), t)
    if name == "dist":
        need(op == "*" and t[1][0] == "+")
        (_, b1, b2), b3 = t[1], t[2]
        return ("+", ("*", b1, b3), ("*", b2, b3))
    if name == "factor":
        need(op == "+" and t[1][0] == t[2][0] == "*" and t[1][2] == t[2][2])
        return ("*", ("+", t[1][1], t[2][1]), t[1][2])
    if name == "absorb":
        need(op == "*" and t[2] == ("0",))
        return ("0",)
    need(t == (("1",) if name == "neg1" else ("+", ("1",), ("1",))))
    return t


def _swap_images(name: str, t: tuple) -> list[int]:
    """Where swap+ or swap* at input t sends each basis vector (0-based)."""
    n1, n2 = oracle_dim(t[1]), oracle_dim(t[2])
    if name == "swap+":
        return [j + n2 for j in range(n1)] + [j - n1 for j in range(n1, n1 + n2)]
    return [(j % n2) * n1 + j // n2 for j in range(n1 * n2)]


def _oracle_prim(name: str, t: tuple, lang: str):
    """Target type and matrix of one primitive at input t."""
    dst = _oracle_prim_type(name, t, lang)
    if name in ("swap+", "swap*"):
        return dst, _perm_matrix(_swap_images(name, t))
    if name == "absorb":
        return dst, []
    if name == "neg1":
        return dst, [[-FR_ONE]]
    if name == "had":
        h = FracRT2.of(1, 0, 1)
        return dst, [[h, h], [h, -h]]
    return dst, frac_identity(oracle_dim(t))


def oracle_term(c, t: tuple, lang: str = "qpi"):
    """Target type and matrix of the package term c at the input t, from
    the definitions: a primitive's matrix moves basis vectors (or is neg1 or
    had), c1 ; c2 is sem(c2) sem(c1), c1 + c2 is a direct sum and c1 * c2 a
    Kronecker product."""
    kind = type(c).__name__
    if kind == "Prim":
        return _oracle_prim(c.name, t, lang)
    if kind == "Factorz":
        if t != ("0",):
            raise OracleTypeError(f"factorz does not accept {t}")
        return ("*", oracle_type(c.operand), ("0",)), []
    if kind == "Seq":
        mid, m1 = oracle_term(c.fst, t, lang)
        dst, m2 = oracle_term(c.snd, mid, lang)
        return dst, frac_mul(m2, m1)
    op = "+" if kind == "SumC" else "*"
    if t[0] != op:
        raise OracleTypeError(f"{kind} does not accept {t}")
    d1, m1 = oracle_term(c.left, t[1], lang)
    d2, m2 = oracle_term(c.right, t[2], lang)
    both = frac_direct_sum if op == "+" else frac_kron
    return (op, d1, d2), both(m1, m2)


# ---------------------------------------------------------------------------
# dense generator matrices: the 1x1 sign flip and the 2x2 swap and Hadamard
# blocks, placed at a generator's rows of the identity

MINUS_ONE = ExactMatrix(1, 0, [-1], [0])
X_BLOCK = ExactMatrix(2, 0, [0, 1, 1, 0], [0, 0, 0, 0])
H_BLOCK = ExactMatrix(2, 1, [1, 1, 1, -1], [0, 0, 0, 0])
_BLOCKS = {"Z": MINUS_ONE, "X": X_BLOCK, "H": H_BLOCK}


def generator_matrix(g, n: int) -> ExactMatrix:
    """The n x n matrix of the generator g (Z[a], X[b,c] or H[b,c])."""
    return m_level_embed(_BLOCKS[g.kind], g.idx, n)


# ---------------------------------------------------------------------------
# programs to words, clause by clause
#
# The structural translation of a program to a generator word, read off the
# definitions as oracle_term reads the matrix: it shares no code with the
# lowering that both lang.sem and translate.wsem run, so a fault there still
# shows against it.  Words are package Words over package Generators.


def shift(w: Word, m: int) -> Word:
    """Raise every index by m; semantics becomes I_m (+) [[w]]."""
    if m < 0:
        raise WordError(f"cannot shift a word by {m}; the shift must be a natural number")
    return Word(
        w.n + m,
        tuple(Generator(g.kind, tuple(i + m for i in g.idx)) for g in w.gens),
    )


def embed(w: Word, n: int) -> Word:
    """View the same generators in a larger ambient; pads I on the right."""
    if n < w.n:
        raise WordError(f"cannot embed a word over G_{w.n} into G_{n}")
    return Word(n, w.gens)


def _spread(w: Word, m: int) -> Word:
    """The word of [[w]] (x) I_m: each generator once per index i < m, its
    index a moved to (a-1)*m + i + 1."""
    return Word(
        w.n * m,
        tuple(
            Generator(g.kind, tuple((a - 1) * m + i + 1 for a in g.idx))
            for g in w.gens
            for i in range(m)
        ),
    )


def _permutation_word(images: list[int]) -> tuple:
    """X generators whose product sends basis vector j to images[j] (0-based):
    P = X_1 ... X_k when X_k ... X_1 P = I, and left-multiplying by X[j,a]
    trades the images j and a."""
    images = list(images)
    gens = []
    for j in range(len(images)):
        a = images[j]  # a > j: the images below j are in place
        if a != j:
            images = [a if v == j else j if v == a else v for v in images]
            gens.append(Generator("X", (j + 1, a + 1)))
    return tuple(gens)


def oracle_word(c, t: tuple, lang: str = "qpi"):
    """Target type and word of the package term c at the input t: had and
    neg1 are H[1,2] and Z[1], swap+ and swap* the transpositions of their
    permutation, every other primitive the empty word; c1 ; c2 is c2's word
    then c1's, c1 + c2 puts c2's word past c1's rows, and c1 * c2 is
    ([[c1]] (x) I)(I (x) [[c2]])."""
    kind = type(c).__name__
    n = oracle_dim(t)
    if kind == "Prim":
        name = c.name
        dst = _oracle_prim_type(name, t, lang)
        if name == "neg1":
            gens = (Generator("Z", (1,)),)
        elif name == "had":
            gens = (Generator("H", (1, 2)),)
        elif name in ("swap+", "swap*"):
            gens = _permutation_word(_swap_images(name, t))
        else:
            gens = ()
        return dst, Word(n, gens)
    if kind == "Factorz":
        if t != ("0",):
            raise OracleTypeError(f"factorz does not accept {t}")
        return ("*", oracle_type(c.operand), ("0",)), Word(0, ())
    if kind == "Seq":
        mid, w1 = oracle_word(c.fst, t, lang)
        dst, w2 = oracle_word(c.snd, mid, lang)
        return dst, Word(n, w2.gens + w1.gens)
    op = "+" if kind == "SumC" else "*"
    if t[0] != op:
        raise OracleTypeError(f"{kind} does not accept {t}")
    n1, n2 = oracle_dim(t[1]), oracle_dim(t[2])
    d1, w1 = oracle_word(c.left, t[1], lang)
    d2, w2 = oracle_word(c.right, t[2], lang)
    if op == "+":
        gens = embed(w1, n).gens + embed(shift(w2, n1), n).gens
    else:
        gens = _spread(w1, n2).gens + tuple(g for i in range(n1) for g in shift(w2, i * n2).gens)
    return (op, d1, d2), Word(n, gens)
