"""Exact synthesis of orthogonal matrices over Z[1/rt2] into generator words.

The algorithm fixes columns n down to 1.  While column j has a positive
denominator exponent it pairs the two least rows whose scaled entries are
odd (residue 1 or 1+rt2 mod 2) and emits a Hadamard step that lowers the
exponent; once the column is integral it is a signed basis vector, fixed
by a signed transposition.  Every emitted syllable strictly decreases the
level triple, which is what makes the output word canonical.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ._core import reduce_nums
from .linalg import (
    ExactMatrix,
    Generator,
    Level,
    _level_unchecked,
    apply_generator_rows,
    gen_h,
    gen_x,
    gen_z,
)
from .ring import RingInt
from .words import Word


class SynthesisError(ValueError):
    pass


class Syllable(NamedTuple):
    """One output step: Z[a], X[a,j]Z[a]^t, H[1,b] or H[1,b]X[1,c]."""

    gens: tuple[Generator, ...]

    def __str__(self) -> str:
        return " ".join(str(g) for g in self.gens)


class SynthesisTrace(NamedTuple):
    """Emitted syllables with the level snapshot after each one.

    Multiplying the syllables onto the input in emission order reaches
    the identity: W_l ... W_1 M = I.
    """

    n: int
    initial: Level
    syllables: tuple[Syllable, ...]
    levels: tuple[Level, ...]


class _Work:
    """Mutable matrix rt2^-k * (aa + bb*rt2) under row operations."""

    __slots__ = ("n", "k", "aa", "bb")

    def __init__(self, M: ExactMatrix):
        self.n = M.n
        self.k = M.k
        self.aa = list(M.aa)
        self.bb = list(M.bb)

    def snapshot(self) -> ExactMatrix:
        return ExactMatrix(self.n, self.k, self.aa, self.bb)

    def column(self, j: int) -> tuple[int, list[RingInt]]:
        n = self.n
        ca = [self.aa[i * n + j - 1] for i in range(n)]
        cb = [self.bb[i * n + j - 1] for i in range(n)]
        k, ca, cb = reduce_nums(self.k, ca, cb)
        return k, [RingInt(a, b) for a, b in zip(ca, cb)]

    def apply_word(self, gens: Sequence[Generator]) -> None:
        """Left-multiply by the word's matrix: rightmost generator acts first."""
        for g in reversed(gens):
            self.k, self.aa, self.bb = apply_generator_rows(
                g, self.k, self.aa, self.bb, self.n
            )


def synthesize(M: ExactMatrix) -> SynthesisTrace:
    """Decompose an orthogonal matrix into syllables driving it to identity."""
    if not M.is_orthogonal():
        raise SynthesisError("synthesis requires an orthogonal matrix")
    n = M.n
    work = _Work(M)
    syllables: list[Syllable] = []
    levels: list[Level] = []
    current = _level_unchecked(M)
    initial = current

    def emit(gens: list[Generator]) -> None:
        nonlocal current
        work.apply_word(gens)
        lv = _level_unchecked(work.snapshot())
        if not lv < current:
            raise SynthesisError(f"syllable did not lower the level: {lv} !< {current}")
        current = lv
        syllables.append(Syllable(tuple(gens)))
        levels.append(lv)

    for j in range(n, 0, -1):
        k, col = work.column(j)
        while k > 0:
            res = [x.residue() for x in col]
            odd = [i for i in range(1, n + 1) if res[i - 1].is_odd]
            if not odd:
                raise SynthesisError("positive exponent requires an odd entry")
            i1 = odd[0]
            i2 = next((i for i in odd[1:] if res[i - 1] is res[i1 - 1]), None)
            if i2 is None:
                raise SynthesisError("odd residues must pair up in a unit column")
            if i1 == 1:
                emit([gen_h(1, i2)])
            else:
                emit([gen_h(1, i2), gen_x(1, i1)])
            k, col = work.column(j)
        a = next(i for i in range(1, n + 1) if not col[i - 1].is_zero)
        if not (a <= j and col[a - 1].a in (1, -1) and col[a - 1].b == 0):
            raise SynthesisError(f"column {j} is not a signed basis vector")
        tau = col[a - 1].a < 0
        if a == j and not tau:
            continue
        if a == j:
            emit([gen_z(a)])
        else:
            emit([gen_x(a, j), gen_z(a)] if tau else [gen_x(a, j)])
    if not work.snapshot().is_identity():
        raise SynthesisError("synthesis did not reach identity")
    return SynthesisTrace(n, initial, tuple(syllables), tuple(levels))


def normal_form_word(M: ExactMatrix) -> Word:
    """Canonical word for M: invert the trace syllable by syllable.

    Every generator is an involution, so a syllable's inverse is its
    reversed generator list; the concatenation in emission order then
    multiplies out to M itself.  Determinism of the synthesis makes the
    result canonical: equal matrices yield token-identical words.
    """
    return _trace_word(synthesize(M))


def _trace_word(trace: SynthesisTrace) -> Word:
    """The word of the trace's input matrix: each syllable inverted in turn."""
    gens = [g for syl in trace.syllables for g in reversed(syl.gens)]
    return Word(trace.n, tuple(gens))


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
    """Canonical word whose semantics is the permutation matrix of perm."""
    target = permutation_matrix(perm)
    word = normal_form_word(target)
    from .words import word_sem

    if word_sem(word) != target:
        raise SynthesisError(f"word for permutation {list(perm)} has the wrong matrix")
    return word


def format_trace(trace: SynthesisTrace) -> str:
    lines = [f"# initial level {trace.initial}"]
    for syl, lv in zip(trace.syllables, trace.levels):
        lines.append(f"{syl}  # level {lv}")
    return "\n".join(lines)
