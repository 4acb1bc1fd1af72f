"""Exact synthesis of orthogonal matrices over Z[1/rt2] into generator words.

The algorithm fixes columns n down to 1.  While column j has a positive
denominator exponent its scaled entries have odd rows, of residue 1 or
1+rt2 mod 2, and any two odd rows of the same residue can be paired by a
Hadamard step that lowers the exponent.  The pair chosen is the one whose
rows have the least exponents (see _pair): pairing the two least indices
instead raised the exponents of the columns not yet fixed, and normal
forms of random words at n >= 24 ran to 10^5 generators.  The choice
does not bound the growth, which still shows at n = 64, so a budget of
MAX_SYLLABLES syllables bounds the work instead.  Once the column
is integral it is a signed basis vector, fixed by a signed transposition.
Every emitted syllable strictly decreases the level triple, and every
choice depends on the matrix alone, which is what makes the output word
canonical.  The normal form reads the inverted syllables through the
signed relabelling of words._run, so their X and Z moves cost no
generators but one signed permutation word (see _trace_word).
Programs are normalized and compared on their runs: a run that leaves
no H is decided on its signed labels (words.label_word) with no matrix
built, and only a program whose run leaves an H is synthesized.

The loop works on the rows of the input matrix, taken by reference, and
on the active column j.  It keeps that column as numerators at its
exponent, so a syllable updates it in O(1) and one O(n) reduction follows
each drop of the exponent.  Every syllable goes through
apply_generator_rows: its X moves two row references, and its H builds
the two new rows in O(n), so the input matrix stays as it is.  Before
any row operation, each row's exponent is checked against what a unit
row allows.  The matrix is scanned once per fixed column, and after
each signed transposition or each syllable that touches a row past j
(which only a matrix that is not orthogonal has); every scan
checks that the level went down.  The end state is tested for the
identity on its rows.  Per syllable the loop keeps only plain values:
the level as a triple, made a Level once at the end, and the syllable
of a pair p < q as one shared object per pair, found by an integer key.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Sequence

from .linalg import ExactMatrix, Generator, Level, _level_unchecked, gen_x, gen_z
# words.word_sem is looked up per call, where hadpibench/tracing.py patches it
from . import words
from .words import Word, WordError, _check

# hadpibench/tracing.py patches these bindings
from .linalg import apply_generator_rows, reduce_nums


class SynthesisError(ValueError):
    pass


class SynthesisBudgetError(SynthesisError):
    """Raised when a normal form would need more than MAX_SYLLABLES."""


# The synthesis budget, checked once per syllable.  The pair choice does
# not bound the growth of normal forms: of 56 random words of 4n generators
# at n = 16..64, 54 need at most 4,409 syllables, while two at n = 64 need
# 65,120 and more than 100,000.  The budget refuses those two, each after
# about 1.5 s.
MAX_SYLLABLES = 20_000


class Syllable(NamedTuple):
    """One output step: Z[a], X[a,j]Z[a]^t, H[1,b] or H[1,b]X[1,c]."""

    gens: tuple[Generator, ...]

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.gens)


class SynthesisTrace(NamedTuple):
    """Emitted syllables with the level reached after each one.

    Multiplying the syllables onto the input in emission order reaches
    the identity: W_l ... W_1 M = I.
    """

    n: int
    initial: Level
    syllables: tuple[Syllable, ...]
    levels: tuple[Level, ...]


def synthesize(M: ExactMatrix) -> SynthesisTrace:
    """Decompose an orthogonal matrix into syllables driving it to identity.

    Reaching the identity through generator syllables proves M orthogonal,
    so the dense O(n^3) check runs only to name the cause of a failure.
    """
    try:
        return _synthesize(M)
    except SynthesisBudgetError:
        raise  # the O(n^3) diagnosis would add to the time the budget bounds
    except SynthesisError:
        if not M.is_orthogonal():
            raise SynthesisError("synthesis requires an orthogonal matrix") from None
        raise


def _synthesize(M: ExactMatrix) -> SynthesisTrace:
    n = M.n
    # the rows of M by reference: row operations replace rows of these
    # lists and never edit a row, so M stays as it is
    ks, ra, rb = list(M.ks), list(M.ra), list(M.rb)
    # Each row of an orthogonal matrix is a unit vector, and a unit vector
    # at exponent k has sum(a*a + 2*b*b) = 2^k, so k is at most
    # 2*bits + log2(3n) for numerators of at most `bits` bits.  A row past
    # that cannot be orthogonal, and the row operations would build
    # numerators of k/2 bits from it.
    lim = (3 * n).bit_length()
    for k, a, b in zip(ks, ra, rb):
        if k > lim and k > 2 * max(map(abs, a + b)).bit_length() + lim:
            raise SynthesisError("exponent too large for a unit column")
    syllables: list[Syllable] = []
    # one syllable per distinct pair p < q, which a long trace repeats,
    # keyed by the integer p*w + q
    w = n + 1
    shared: dict[int, Syllable] = {}
    # the levels as plain triples, made Level values once at the end
    levels: list[tuple[int, int, int]] = []
    # the level names the column to fix next, j, and brings its numerators
    # ca, cb scaled by rt2^k; odd lists the rows whose ca is odd, in no
    # particular order
    current, ca, cb = _level_unchecked(ks, ra, rb)
    odd = _odd_rows(current.k, ca)
    initial = current
    while current[0]:
        if len(syllables) >= MAX_SYLLABLES:
            raise SynthesisBudgetError(
                f"the normal form passes the limit of {MAX_SYLLABLES} syllables (MAX_SYLLABLES)"
            )
        j, k = current[0], current[1]
        lv = None
        if k > 0:
            if not odd:
                raise SynthesisError("positive exponent requires an odd entry")
            # the pair of one residue with the least row exponents: rows
            # p < q, brought to rows 1 and q by X[1,p]
            pair = _pair(odd, cb, ks)
            if pair is None:
                raise SynthesisError("odd residues must pair up in a unit column")
            p, q = pair
            syl = shared.get(p * w + q)
            if syl is None:
                # 1 <= p < q, so the generators are valid as built
                h = Generator("H", (1, q))
                syl = Syllable((h,) if p == 1 else (h, Generator("X", (1, p))))
                shared[p * w + q] = syl
        else:
            a = next((i for i in range(1, n + 1) if ca[i - 1] or cb[i - 1]), 0)
            if not (a and a <= j and ca[a - 1] in (1, -1) and cb[a - 1] == 0):
                raise SynthesisError(f"column {j} is not a signed basis vector")
            tau = ca[a - 1] < 0
            if a == j:
                gens = (gen_z(a),)  # column j is -e_j: +e_j would not be at level j
            else:
                gens = (gen_x(a, j), gen_z(a)) if tau else (gen_x(a, j),)
            syl = Syllable(gens)
        for g in reversed(syl.gens):
            apply_generator_rows(g, ks, ra, rb)
        if k > 0 and q <= j:
            # The syllable leaves every unit column above j alone.  In
            # column j, X[1,p] swaps entries 1 and p and H[1,q] sends the
            # odd pair to (x1 +- x2)/rt2, whose numerators at rt2^-k are
            # b1 +- b2 and (a1 +- a2)/2: both a-parts are even.
            a1, b1, a2, b2 = ca[p - 1], cb[p - 1], ca[q - 1], cb[q - 1]
            ca[p - 1], cb[p - 1] = ca[0], cb[0]
            ca[0], cb[0] = b1 + b2, (a1 + a2) >> 1
            ca[q - 1], cb[q - 1] = b1 - b2, (a1 - a2) >> 1
            # rows 1 and q are now even; an odd row 1 outside the pair
            # moved to row p
            if len(odd) > 2:
                odd = [p if i == 1 else i for i in odd if i != p and i != q]
            else:
                odd = []
            if not odd:
                k, ca, cb = reduce_nums(k, ca, cb)
                odd = _odd_rows(k, ca)
            # a column that became e_j is left to the scan below
            if k or ca[j - 1] != 1 or ca.count(0) + cb.count(0) != 2 * n - 1:
                lv = (j, k, len(odd))
        if lv is None:
            # A row operation changes a unit column c only if it touches row
            # c, and every column above j is a unit column, so the scan may
            # start at the higher of j and the top touched row.
            top = max(j, *(i for g in syl.gens for i in g.idx))
            lv, ca, cb = _level_unchecked(ks, ra, rb, top)
            odd = _odd_rows(lv[1], ca)
        if not lv < current:
            raise SynthesisError(
                f"syllable did not lower the level: {Level(*lv)} !< {Level(*current)}"
            )
        current = lv
        syllables.append(syl)
        levels.append(lv)
    if not ExactMatrix.from_rows(ks, ra, rb).is_identity():
        raise SynthesisError("synthesis did not reach identity")
    return SynthesisTrace(n, initial, tuple(syllables), tuple(map(Level._make, levels)))


def _pair(odd: list[int], cb: list[int], ks: list[int]) -> tuple[int, int] | None:
    """The two rows p < q that the next syllable pairs, or None if no two
    odd rows share a residue.

    The odd rows fall into two residue classes, 1 and 1+rt2 mod 2, by the
    parity of their scaled rt2-part cb.  Each class with two rows offers
    its two of least (row exponent, index); of the offers, the one of
    least (exponent sum, second row's exponent, first index, second
    index) wins.  A row i is keyed by the integer ks[i-1]*w + i, with w
    past every index, which orders rows as (row exponent, index) does.
    """
    if len(odd) == 2:  # the common case: the two rows pair if they share a class
        p, q = odd
        if (cb[p - 1] - cb[q - 1]) & 1:
            return None
        return (p, q) if p < q else (q, p)
    w = len(ks) + 1
    classes: tuple[list[int], list[int]] = ([], [])
    for i in odd:
        classes[cb[i - 1] & 1].append(ks[i - 1] * w + i)
    best = None
    for keys in classes:
        if len(keys) >= 2:
            keys.sort()
            (k1, r1), (k2, r2) = divmod(keys[0], w), divmod(keys[1], w)
            offer = (k1 + k2, k2, r1, r2)
            if best is None or offer < best:
                best = offer
    if best is None:
        return None
    r1, r2 = best[2:]
    return (r1, r2) if r1 < r2 else (r2, r1)


def _odd_rows(k: int, ca: list[int]) -> list[int]:
    """The rows (1-based, ascending) of a column at exponent k > 0 whose
    scaled a-part is odd; none at k = 0, where no row is paired."""
    return [i for i, a in enumerate(ca, 1) if a & 1] if k else []


def normal_form_word(M: ExactMatrix) -> Word:
    """Canonical word for M: the trace's syllables inverted in turn, read
    through the signed relabelling (see _trace_word).

    Every generator is an involution, so a syllable's inverse is its
    reversed generator list, and the inverted syllables in emission order
    multiply out to M itself.  Determinism of the synthesis and of the
    relabelling makes the result canonical: equal matrices yield
    token-identical words."""
    return _trace_word(synthesize(M))


def program_normal_form(ops: Iterable[tuple], n: int) -> Word:
    """The normal form of a program of placed primitives on n rows.  A run
    that leaves no H reads as the word of its signed labels, which is the
    normal form of its signed permutation matrix, with no matrix built; any
    other program's matrix is synthesized."""
    word, at = words.program_form(ops, n)
    return word if at is not None else normal_form_word(words.word_sem(word))


class Equivalence(NamedTuple):
    """Whether two programs are equal, with the normal forms that decided it."""

    equal: bool
    lhs: Word
    rhs: Word


def equivalence(
    p1: Iterable[tuple], p2: Iterable[tuple], n: int, matrices: Callable[[], tuple]
) -> Equivalence:
    """Decide whether two programs of placed primitives on n rows are equal
    by comparing canonical normal forms: the words of the signed labels when
    neither run leaves an H, else the synthesized forms of the two matrices
    that matrices() builds apart from the runs' words (word_sem of a word,
    program_matrix of a term's program).  Raises unless the forms agree
    exactly when the labels, or the matrices, do, so a fault in either
    normal form cannot turn into a wrong verdict."""
    (w1, at1), (w2, at2) = words.program_form(p1, n), words.program_form(p2, n)
    if at1 is not None and at2 is not None:
        nf1, nf2, same = w1, w2, at1 == at2
    else:
        m1, m2 = matrices()
        nf1, nf2, same = normal_form_word(m1), normal_form_word(m2), m1 == m2
    equal = nf1.gens == nf2.gens
    if equal != same:
        raise SynthesisError("normal forms disagree with matrix equality")
    return Equivalence(equal, nf1, nf2)


def word_equivalence(w1: Word, w2: Word) -> Equivalence:
    """Decide [[w1]] = [[w2]], with the normal forms that decided it."""
    if w1.n != w2.n:
        raise WordError(f"ambient dimensions differ: {w1.n} vs {w2.n}")
    _check(w1)
    _check(w2)
    p1, p2 = words.word_program(w1.gens), words.word_program(w2.gens)
    return equivalence(p1, p2, w1.n, lambda: (words.word_sem(w1), words.word_sem(w2)))


def _trace_word(trace: SynthesisTrace) -> Word:
    """The normal form of the trace's input matrix.  The syllables inverted
    in turn form a word of that matrix; words.program_form reads it as a
    program (words.word_program), so each X and Z there only relabels rows.
    The word is a Z per negated row, one permutation word of at most n-1 X,
    and the trace's H generators, less those that cancel, in word order.
    Every step of the relabelling is a catalog relation."""
    word = [g for syl in trace.syllables for g in reversed(syl.gens)]
    return words.program_form(words.word_program(word), trace.n)[0]


def permutation_matrix(perm: Sequence[int]) -> ExactMatrix:
    """Matrix sending e_j to e_perm[j] (1-based images)."""
    n = len(perm)
    if sorted(perm) != list(range(1, n + 1)):
        raise SynthesisError(f"not a permutation of 1..{n}: {list(perm)}")
    aa = [0] * (n * n)
    for j, image in enumerate(perm, start=1):
        aa[(image - 1) * n + (j - 1)] = 1
    return ExactMatrix(n, 0, aa, [0] * (n * n))


def hpermute(perm: Sequence[int]) -> Word:
    """Canonical word whose semantics is the permutation matrix of perm,
    the normal form of that matrix, built in O(n) by words.permutation_word."""
    target = permutation_matrix(perm)
    word = Word(len(perm), tuple(words.permutation_word(perm)))
    if words.word_sem(word) != target:
        raise SynthesisError(f"word for permutation {list(perm)} has the wrong matrix")
    return word


def format_trace(trace: SynthesisTrace) -> str:
    lines = [f"# initial level {trace.initial}"]
    for syl, lv in zip(trace.syllables, trace.levels):
        lines.append(f"{syl}  # level {lv}")
    return "\n".join(lines)
