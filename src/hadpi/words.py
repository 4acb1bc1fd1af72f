"""Words over the generators, the relation catalog, and derivations.

A word reads left to right as G1 G2 ... Gl and denotes the matrix product
in that order.  The catalog lists every axiomatic identity between words
as index-schematic data; instantiating a schematic with distinct concrete
indices yields two words with equal semantics.  Derivations are sequences
of such rewrite steps; this module replays them and reads and writes their
file format.  Equivalence of words is decided in synthesis.

A word whose generators touch only the rows S is the identity off S, and
on S it is the same word with each index replaced by its rank in S
(support_ranks).  So replay decides each step on the window where the two
words differ, relabelled to its support.  Relabelling a relation's indices
by any permutation conjugates both of its sides by one permutation matrix,
so relations-verify decides each relation once.

The module also holds _run, the one evaluator of a program of placed
primitives, which keeps a signed relabelling of the rows, and its
readers: program_matrix (lang.sem) and program_form (translate.wsem, and
the normal forms and equivalence of synthesis, a word read as a program
by word_program).  label_word writes the word of a signed relabelling;
program_form ends with it, and a run that leaves no H is that word alone.
word_sem and program_matrix apply their generators as row operations
(linalg.apply_generator_rows) to the rows of a new identity, and those
rows, each at its own least exponent and frozen as a tuple, are the
matrix they return.
"""

from __future__ import annotations

import re
from operator import neg
from typing import Iterable, Iterator, NamedTuple, Sequence

from .linalg import MAX_DIM, ExactMatrix, Generator, gen_h, gen_x, gen_z
from .ring import parse_natural

# word_sem and program_matrix look apply_generator_rows up per call, where
# hadpibench/tracing.py patches it; m_level_embed is re-exported unused
from .linalg import apply_generator_rows, m_level_embed  # noqa: F401


class WordError(ValueError):
    pass


class StepError(WordError):
    pass


class Word(NamedTuple):
    """Finite generator sequence with its ambient dimension; may be empty."""

    n: int
    gens: tuple[Generator, ...]


def _check(w: Word) -> None:
    n = w.n
    for g in w.gens:
        for i in g.idx:
            if not 1 <= i <= n:
                raise WordError(f"generator {g} out of range for n={n}")


def word_sem(w: Word) -> ExactMatrix:
    """Exact product of the generator matrices in listed order: the
    generators act as row operations on the rows of a new identity, the
    last one first."""
    _check(w)
    identity = ExactMatrix.identity(w.n)
    ks, ra, rb = identity.ks, identity.ra, identity.rb
    for g in reversed(w.gens):
        apply_generator_rows(g, ks, ra, rb)
    return ExactMatrix.from_rows(ks, ra, rb)


def support_ranks(indices: Iterable[int]) -> dict[int, int]:
    """Each distinct index mapped to its 1-based rank among them.

    The map keeps order, so a relabelled X stays sorted and a relabelled
    H[b,c] keeps its orientation: a word over the rows S and its relabelling
    to 1..|S| have the same matrix on S, and both are the identity elsewhere.
    """
    return {i: r for r, i in enumerate(sorted(set(indices)), start=1)}


# The signed relabelling.  A program of placed primitives is a list of
# (name, base, copies, stride, n1, n2) (see lang.lower): the primitive acts
# on rows o, o + stride, ... (from 0) for each row o of its grid, [base] with
# each (count, step) pair of copies taking every o to o, o + step, ...,
# o + (count-1)*step in turn; n1, n2 are the block sizes of swap+ and swap*.
# A word is such a program too, read one primitive at a time (word_program).


def _run(ops: Iterable[tuple], n: int) -> tuple[list[Generator], list[int]]:
    """The one evaluator of a program of placed primitives on n rows,
    read by program_matrix and program_form: its H generators in
    application order, each on ascending rows, and its final signed
    relabelling.  Program row r (from 0) is row |at[r]| (from 1) of the
    product of the generators, negated when at[r] < 0.  Permutations
    permute the labels and neg1 flips a sign, so neither emits anything;
    had emits one H on the sorted rows of its two labels and relabels
    them (relations d1, d2 and e2 move a signed permutation past an H).
    An H on the two rows of the last live H on each of them cancels that
    H (a3, H H = 1; b6, H on disjoint rows commute).  Each step is a
    catalog relation, so the word read off the run (program_form) derives
    from the program's own word."""
    at = list(range(1, n + 1))
    gens: list[Generator | None] = []
    # per physical row, the indices in gens of the live H that touch it
    touched: list[list[int]] = [[] for _ in range(n + 1)]
    for name, base, copies, stride, n1, n2 in ops:
        offs = [base]
        if copies:  # most ops of a long program have none
            for count, step in copies:
                offs = [o + i * step for o in offs for i in range(count)]
        if name == "had":
            for o in offs:
                p = o + stride
                a, b = at[o], at[p]
                la, lb = abs(a), abs(b)
                lo, hi = (la, lb) if la < lb else (lb, la)
                # program rows (a, b) become ((a+b)/rt2, (a-b)/rt2): read
                # them back off H[lo,hi] of the physical rows
                if (a > 0) == (b > 0):
                    if la > lb:
                        at[o], at[p] = b, -a
                elif la < lb:
                    at[o], at[p] = -b, a
                else:
                    at[o], at[p] = -a, -b
                tl, th = touched[lo], touched[hi]
                if tl and th and tl[-1] == th[-1]:
                    gens[tl.pop()] = None
                    th.pop()
                else:
                    m = len(gens)
                    tl.append(m)
                    th.append(m)
                    gens.append(Generator("H", (lo, hi)))
        elif name == "neg1":
            for o in offs:
                at[o] = -at[o]
        elif name == "swap+":
            if n1 == 1 and n2 == 1:  # swap+ of 1+1: two labels trade places
                for o in offs:
                    p = o + stride
                    at[o], at[p] = at[p], at[o]
                continue
            # the left block of n1 rows moves past the right one
            for o in offs:
                block = at[o : o + (n1 + n2) * stride : stride]
                at[o : o + (n1 + n2) * stride : stride] = block[n1:] + block[:n1]
        else:
            # row (i1, i2) of the n1 x n2 grid moves to row (i2, i1)
            for o in offs:
                block = at[o : o + n1 * n2 * stride : stride]
                at[o : o + n1 * n2 * stride : stride] = [
                    a for i2 in range(n2) for a in block[i2::n2]
                ]
    return [g for g in gens if g is not None], at


def program_matrix(ops: Iterable[tuple], n: int) -> ExactMatrix:
    """The matrix of a program of placed primitives on n rows, read off
    _run: its H generators applied as row operations to the rows of the
    identity in application order, then program row r takes the row of
    physical row |at[r]|, negated when at[r] < 0.  A program whose run
    emits no H (one without had, or whose H pairs all cancel) takes no row
    operation: its signed permutation is the identity's rows relabelled."""
    gens, at = _run(ops, n)
    identity = ExactMatrix.identity(n)
    ks, ra, rb = identity.ks, identity.ra, identity.rb
    for g in gens:
        apply_generator_rows(g, ks, ra, rb)
    return ExactMatrix.from_rows(
        [ks[abs(a) - 1] for a in at],
        [ra[a - 1] if a > 0 else list(map(neg, ra[-a - 1])) for a in at],
        [rb[a - 1] if a > 0 else list(map(neg, rb[-a - 1])) for a in at],
    )


def program_form(ops: Iterable[tuple], n: int) -> tuple[Word, list[int] | None]:
    """The word of a program of placed primitives on n rows, read off _run:
    the word of its final relabelling (label_word), then the H generators
    in word order, the last one applied first.  With it come the final
    signed labels if no H is left, else None: the word is then their
    normal form, and two such programs are equal exactly when their
    labels are."""
    gens, at = _run(ops, n)
    return Word(n, tuple(label_word(at) + gens[::-1])), None if gens else at


def label_word(at: Sequence[int]) -> list[Generator]:
    """The word of a signed relabelling, the normal form of its signed
    permutation matrix: a Z per row r (from 1) whose label at[r-1] is
    negative, then one permutation word sending e_|at[r-1]| to e_r.  Row r
    of the matrix is +-e_|at[r-1]|, with the sign of the label.  program_form
    ends with it, so a run that leaves no H is normalized and compared
    through it alone, with no matrix built."""
    word = []
    perm = [0] * len(at)
    for r, a in enumerate(at, 1):
        if a < 0:
            word.append(Generator("Z", (r,)))
            a = -a
        perm[a - 1] = r
    return word + permutation_word(perm)


# the primitive that acts as each generator on its rows
_PRIMITIVE = {"H": "had", "X": "swap+", "Z": "neg1"}


def word_program(gens: Sequence[Generator]) -> Iterator[tuple]:
    """The program of placed primitives of the word G1 ... Gl, Gl applied
    first: H[b,c] is had at base b-1, stride c-b and no copies, X[b,c] is
    swap+ of 1+1 there, and Z[a] is neg1 at a-1, whose stride, 0, is unread.
    _run reads a program once, so the primitives come one at a time and
    the program of a long normal form is never held whole."""
    return (
        (_PRIMITIVE[kind], idx[0] - 1, (), idx[-1] - idx[0], 1, 1)
        for kind, idx in reversed(gens)
    )


def permutation_word(perm: Sequence[int]) -> list[Generator]:
    """The word of the permutation matrix sending e_j to e_perm[j] (1-based
    images of a permutation of 1..n), in O(n).  For columns j = n down to
    1, an X moves column j's 1 onto the diagonal: the word synthesis emits
    for that matrix.  Raises WordError unless the transpositions, replayed
    on an index array, give perm back."""
    n = len(perm)
    where = [0, *perm]  # where[c]: the row that holds column c's 1
    inverse = [0] * (n + 1)
    for c, r in enumerate(perm, 1):
        inverse[r] = c
    col = inverse[:]  # col[r]: the column whose 1 row r holds
    gens = []
    for j in range(n, 0, -1):
        a = where[j]
        if a != j:
            # rows a < j trade places: row j's column moves to row a, and
            # column j, now fixed, is not read again
            c = col[j]
            where[c], col[a] = a, c
            gens.append(Generator("X", (a, j)))
    # the product X_1 ... X_l applied to the identity, X_l first: row r
    # must hold the 1 of column inverse[r]
    rows = list(range(n + 1))
    for _, (b, c) in reversed(gens):
        rows[b], rows[c] = rows[c], rows[b]
    if rows != inverse:
        raise WordError(f"the word of permutation {list(perm)} replays to another")
    return gens


# Relation catalog.  Schematic tokens are (kind, formal indices); formals
# instantiate to distinct concrete indices.  e1/e2 define the reversed
# two-level generators, so their left sides deliberately use c > b.


class Relation(NamedTuple):
    id: str
    formals: tuple[str, ...]
    lhs: tuple[tuple[str, tuple[str, ...]], ...]
    rhs: tuple[tuple[str, tuple[str, ...]], ...]
    min_dim: int


def _toks(text: str) -> tuple[tuple[str, tuple[str, ...]], ...]:
    out = []
    for tok in text.split():
        kind, rest = tok[0], tok[2:-1]
        out.append((kind, tuple(rest.split(","))))
    return tuple(out)


def _rel(rid: str, lhs: str, rhs: str, power: int = 1) -> Relation:
    left = _toks(lhs) * power
    right = _toks(rhs)
    # alphabetical order, so an index tuple always reads (a, b, c, ...)
    formals = sorted({f for _, idx in left + right for f in idx})
    return Relation(rid, tuple(formals), left, right, len(formals))


CATALOG: tuple[Relation, ...] = (
    _rel("a1", "Z[a] Z[a]", ""),
    _rel("a2", "X[a,b] X[a,b]", ""),
    _rel("a3", "H[a,b] H[a,b]", ""),
    _rel("b1", "Z[a] Z[b]", "Z[b] Z[a]"),
    _rel("b2", "Z[a] X[b,c]", "X[b,c] Z[a]"),
    _rel("b3", "X[a,b] X[c,d]", "X[c,d] X[a,b]"),
    _rel("b4", "Z[a] H[b,c]", "H[b,c] Z[a]"),
    _rel("b5", "X[a,b] H[c,d]", "H[c,d] X[a,b]"),
    _rel("b6", "H[a,b] H[c,d]", "H[c,d] H[a,b]"),
    _rel("c1", "Z[a] X[a,b]", "X[a,b] Z[b]"),
    _rel("c2", "X[b,c] X[a,b]", "X[a,b] X[a,c]"),
    _rel("c3", "X[a,c] X[b,c]", "X[b,c] X[a,b]"),
    _rel("c4", "H[b,c] X[a,b]", "X[a,b] H[a,c]"),
    _rel("c5", "H[a,c] X[b,c]", "X[b,c] H[a,b]"),
    _rel("d1", "Z[a] Z[b] H[a,b]", "H[a,b] Z[a] Z[b]"),
    _rel("d2", "Z[b] H[a,b]", "H[a,b] X[a,b]"),
    _rel("d3", "H[c,d] H[a,c] H[b,d]", "H[a,b] H[c,d]", power=4),
    _rel(
        "d4",
        "H[a,c] H[b,d] H[a,b] H[a,c] H[b,d] X[c,e] X[d,f]",
        "H[c,e] H[d,f] H[e,f] H[c,e] H[d,f] X[c,e] X[d,f]",
        power=3,
    ),
    _rel("e1", "X[c,b]", "X[b,c]"),
    _rel("e2", "H[c,b]", "X[b,c] H[b,c] X[b,c]"),
    _rel("f1", "H[a,b] H[c,d] H[a,c] H[b,d]", "", power=2),
    _rel("f2", "H[a,c] H[b,d] H[a,d] H[b,c]", "X[a,b] X[c,d]", power=2),
)

RELATION_BY_ID = {rel.id: rel for rel in CATALOG}


def _assignment_for(rel: Relation, indices: Sequence[int], n: int) -> dict[str, int]:
    if len(indices) != len(rel.formals):
        raise WordError(
            f"relation {rel.id} takes {len(rel.formals)} indices, got {len(indices)}"
        )
    if len(set(indices)) != len(indices):
        raise WordError(f"indices must be distinct: {list(indices)}")
    if not all(1 <= i <= n for i in indices):
        raise WordError(f"indices must lie in 1..{n}: {list(indices)}")
    return dict(zip(rel.formals, indices))


def verify_relation(rel: Relation, indices: Sequence[int], n: int) -> bool:
    """Check one instantiation of a catalog relation as a matrix identity.

    A reversed pair such as H[c,b] acts on its rows as listed: e1/e2 define it so.
    """
    asg = _assignment_for(rel, indices, n)
    lhs, rhs = (
        Word(n, tuple(Generator(kind, tuple(asg[f] for f in idx)) for kind, idx in side))
        for side in (rel.lhs, rel.rhs)
    )
    return word_sem(lhs) == word_sem(rhs)


def _normalize_token(kind: str, idx: tuple[int, ...]) -> tuple[Generator, ...]:
    """Canonical generators for a raw token; H[c,b] expands through (e2)."""
    if kind == "Z":
        return (gen_z(idx[0]),)
    b, c = idx
    if kind == "X":
        return (gen_x(b, c),)
    if b < c:
        return (gen_h(b, c),)
    x = gen_x(c, b)
    return (x, gen_h(c, b), x)


def _instantiate(
    tokens: Iterable[tuple[str, tuple[str, ...]]], asg: dict[str, int]
) -> tuple[Generator, ...]:
    out: list[Generator] = []
    for kind, formals in tokens:
        out.extend(_normalize_token(kind, tuple(asg[f] for f in formals)))
    return tuple(out)


class DerivationStep(NamedTuple):
    """One rewrite: replace a relation side at a position by the other side."""

    rel_id: str
    direction: str  # "L->R" or "R->L"
    indices: tuple[int, ...]
    pos: int


def apply_step(w: Word, step: DerivationStep) -> Word:
    """Rewrite w at the step's position; the semantics is unchanged."""
    rel = RELATION_BY_ID.get(step.rel_id)
    if rel is None:
        raise StepError(f"unknown relation id {step.rel_id!r}")
    if step.direction not in ("L->R", "R->L"):
        raise StepError(f"direction must be L->R or R->L, got {step.direction!r}")
    asg = _assignment_for(rel, step.indices, w.n)
    lhs = _instantiate(rel.lhs, asg)
    rhs = _instantiate(rel.rhs, asg)
    pattern, replacement = (lhs, rhs) if step.direction == "L->R" else (rhs, lhs)
    if not 0 <= step.pos <= len(w.gens) - len(pattern):
        raise StepError(f"position {step.pos} out of range")
    if w.gens[step.pos : step.pos + len(pattern)] != pattern:
        raise StepError(
            f"relation {rel.id} {step.direction} does not match at {step.pos}"
        )
    return Word(w.n, w.gens[: step.pos] + replacement + w.gens[step.pos + len(pattern) :])


def _changed_window(a: tuple[Generator, ...], b: tuple[Generator, ...]) -> tuple[Word, Word]:
    """The parts of a and b between their common prefix and common suffix,
    relabelled to the rows they touch (support_ranks)."""
    p, m = 0, min(len(a), len(b))
    while p < m and a[p] == b[p]:
        p += 1
    s = 0
    while s < m - p and a[-1 - s] == b[-1 - s]:
        s += 1
    a, b = a[p : len(a) - s], b[p : len(b) - s]
    rank = support_ranks(i for g in a + b for i in g.idx)
    return tuple(
        Word(len(rank), tuple(Generator(g.kind, tuple(rank[i] for i in g.idx)) for g in side))
        for side in (a, b)
    )


def replay(w0: Word, steps: Iterable[DerivationStep]) -> Iterator[Word]:
    """The words of a derivation, w0 first.  Raises StepError, naming the
    step, at the first step that does not apply or changes the semantics.

    Two consecutive words have equal semantics exactly when the windows
    where they differ do, so each step evaluates only that window,
    relabelled to its support.  The last word is then compared whole with w0.
    """
    yield w0
    w = w0
    for i, step in enumerate(steps, start=1):
        try:
            after = apply_step(w, step)
        except WordError as exc:
            raise StepError(f"step {i}: {exc}") from None
        a, b = _changed_window(w.gens, after.gens)
        if word_sem(a) != word_sem(b):
            raise StepError(f"step {i}: changed the semantics")
        w = after
        yield w
    if word_sem(w) != word_sem(w0):
        raise StepError("the final word's semantics differs from the start word's")


# Text formats: a word is "n=<dim>" followed by generator tokens; the
# empty word prints as eps.  A derivation file holds the start word, one
# step per line, and the final word.

_GEN_TOKEN_RE = re.compile(r"^([ZXH])\[(\d+)(?:,(\d+))?\]$")


def parse_word(text: str) -> Word:
    toks = text.split()
    if not toks or not toks[0].startswith("n="):
        raise WordError("word must start with its dimension, n=<dim>")
    # n=0 is the empty word on the zero-dimensional space, which normalize
    # and translate print for a program on 0; any generator is out of range
    n = parse_natural(toks[0][2:], "the dimension", WordError)
    if n > MAX_DIM:
        raise WordError(f"dimension {n} is past the limit of {MAX_DIM} (MAX_DIM)")
    gens: list[Generator] = []
    for tok in toks[1:]:
        if tok in ("eps", "ε"):
            continue
        m = _GEN_TOKEN_RE.match(tok)
        if not m:
            raise WordError(f"bad generator token {tok!r}")
        kind, i1, i2 = m.groups()
        i1 = parse_natural(i1, "a generator index", WordError)
        if kind == "Z":
            if i2 is not None:
                raise WordError(f"Z takes one index: {tok!r}")
            idx: tuple[int, ...] = (i1,)
        else:
            if i2 is None:
                raise WordError(f"{kind} takes two indices: {tok!r}")
            i2 = parse_natural(i2, "a generator index", WordError)
            if i2 == i1:
                raise WordError(f"indices must differ: {tok!r}")
            idx = (i1, i2)
        if not all(1 <= i <= n for i in idx):
            raise WordError(f"index out of range in {tok!r} for n={n}")
        gens.extend(_normalize_token(kind, idx))
    return Word(n, tuple(gens))


def format_word(w: Word) -> str:
    body = " ".join(str(g) for g in w.gens) if w.gens else "eps"
    return f"n={w.n} {body}"


_STEP_RE = re.compile(
    r"^step\s+(\w+)\s+(L->R|R->L)\s+at\s+(\d+)\s+with\s+(.*)$"
)


class Derivation(NamedTuple):
    """A derivation file: rewrite steps that should take start to final."""

    start: Word
    steps: tuple[DerivationStep, ...]
    final: Word


def parse_derivation(text: str) -> Derivation:
    """Read a derivation file.  Blank lines and lines that start with # are
    skipped; errors in a step name its line of the file."""
    lines = [(lineno, line.strip()) for lineno, line in enumerate(text.splitlines(), start=1)]
    body = [(lineno, line) for lineno, line in lines if line and not line.startswith("#")]
    if len(body) < 2 or not all(line.startswith("n=") for _, line in (body[0], body[-1])):
        raise WordError(
            "derivation file needs a word on the first and last line, steps between"
        )
    start, final = parse_word(body[0][1]), parse_word(body[-1][1])
    steps = []
    for lineno, line in body[1:-1]:
        m = _STEP_RE.match(line)
        if not m:
            raise WordError(f"line {lineno}: bad step syntax")
        rel_id, direction, pos, asg_text = m.groups()
        rel = RELATION_BY_ID.get(rel_id)
        if rel is None:
            raise WordError(f"line {lineno}: unknown relation {rel_id!r}")
        needs = f"line {lineno}: relation {rel_id} needs indices {','.join(rel.formals)}"
        pairs: dict[str, int] = {}
        for part in asg_text.replace(",", " ").split():
            name, eq, val = part.partition("=")
            if not eq:
                raise WordError(f"line {lineno}: bad binding {part!r}")
            if name not in rel.formals:
                raise WordError(needs)
            pairs[name] = parse_natural(val, f"line {lineno}: the index {name}", WordError)
        if set(pairs) != set(rel.formals):
            raise WordError(needs)
        indices = tuple(pairs[f] for f in rel.formals)
        pos = parse_natural(pos, f"line {lineno}: the position", WordError)
        steps.append(DerivationStep(rel_id, direction, indices, pos))
    return Derivation(start, tuple(steps), final)


def format_derivation(d: Derivation) -> str:
    lines = [format_word(d.start)]
    for s in d.steps:
        rel = RELATION_BY_ID[s.rel_id]
        asg = ",".join(f"{f}={i}" for f, i in zip(rel.formals, s.indices))
        lines.append(f"step {s.rel_id} {s.direction} at {s.pos} with {asg}")
    lines.append(format_word(d.final))
    return "\n".join(lines)
