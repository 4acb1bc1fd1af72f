"""Words over the generators, the relation catalog, and word equivalence.

A word reads left to right as G1 G2 ... Gl and denotes the matrix product
in that order.  The catalog lists every axiomatic identity between words
as index-schematic data; instantiating a schematic with distinct concrete
indices yields two words with equal semantics.  Derivations are sequences
of such rewrite steps, and equivalence of words is decided canonically by
comparing synthesized normal forms.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Sequence

from .linalg import (
    H_BLOCK,
    MINUS_ONE,
    X_BLOCK,
    ExactMatrix,
    Generator,
    apply_generator_rows,
    gen_h,
    gen_x,
    gen_z,
    m_level_embed,
)


class WordError(ValueError):
    pass


class StepError(WordError):
    pass


class Word(NamedTuple):
    """Finite generator sequence with its ambient dimension; may be empty."""

    n: int
    gens: tuple[Generator, ...]


def _check(w: Word) -> None:
    for g in w.gens:
        if not all(1 <= i <= w.n for i in g.idx):
            raise WordError(f"generator {g} out of range for n={w.n}")


def word_sem(w: Word) -> ExactMatrix:
    """Exact product of the generator matrices in listed order."""
    _check(w)
    n = w.n
    aa = [0] * (n * n)
    bb = [0] * (n * n)
    for i in range(n):
        aa[i * n + i] = 1
    k = 0
    for g in reversed(w.gens):
        k, aa, bb = apply_generator_rows(g, k, aa, bb, n)
    return ExactMatrix(n, k, aa, bb)


def shift(w: Word, m: int) -> Word:
    """Raise every index by m; semantics becomes I_m (+) [[w]]."""
    assert m >= 0
    return Word(
        w.n + m,
        tuple(Generator(g.kind, tuple(i + m for i in g.idx)) for g in w.gens),
    )


def embed(w: Word, n: int) -> Word:
    """View the same generators in a larger ambient; pads I on the right."""
    if n < w.n:
        raise WordError(f"cannot embed a word over G_{w.n} into G_{n}")
    return Word(n, w.gens)


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


def _raw_sem(
    tokens: Iterable[tuple[str, tuple[int, ...]]], n: int
) -> ExactMatrix:
    """Evaluate concrete tokens via direct embeddings, no index sorting.

    Reversed pairs denote the block placed at the permuted positions,
    which is exactly how e1/e2 define the extended generators.
    """
    M = ExactMatrix.identity(n)
    for kind, idx in tokens:
        block = {"Z": MINUS_ONE, "X": X_BLOCK, "H": H_BLOCK}[kind]
        M = M @ m_level_embed(block, idx, n)
    return M


def verify_relation(rel: Relation, indices: Sequence[int], n: int) -> bool:
    """Check one instantiation of a catalog relation as a matrix identity."""
    asg = _assignment_for(rel, indices, n)
    lhs = [(kind, tuple(asg[f] for f in idx)) for kind, idx in rel.lhs]
    rhs = [(kind, tuple(asg[f] for f in idx)) for kind, idx in rel.rhs]
    return _raw_sem(lhs, n) == _raw_sem(rhs, n)


def enumerate_assignments(rel: Relation, n: int) -> Iterable[tuple[int, ...]]:
    """All injective assignments of the relation's formals into 1..n."""
    from itertools import permutations

    return permutations(range(1, n + 1), len(rel.formals))


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


def check_derivation(
    w0: Word, steps: Sequence[DerivationStep], w_final: Word
) -> bool:
    """Run the steps from w0; true iff the result is exactly w_final."""
    current = w0
    reference = word_sem(w0)
    for i, step in enumerate(steps):
        try:
            current = apply_step(current, step)
        except StepError as exc:
            raise StepError(f"step {i + 1}: {exc}") from None
        if word_sem(current) != reference:
            raise StepError(f"step {i + 1}: changed the semantics")
    return current == w_final


def words_equiv(w1: Word, w2: Word) -> bool:
    """Decide [[w1]] = [[w2]] by comparing canonical normal forms."""
    if w1.n != w2.n:
        raise WordError(f"ambient dimensions differ: {w1.n} vs {w2.n}")
    from .synthesis import normal_form_word

    m1, m2 = word_sem(w1), word_sem(w2)
    nf1, nf2 = normal_form_word(m1), normal_form_word(m2)
    same = nf1.gens == nf2.gens
    if same != (m1 == m2):
        raise WordError("normal forms disagree with matrix equality")
    return same


# Text formats: a word is "n=<dim>" followed by generator tokens; the
# empty word prints as eps.  A derivation file holds one step per line.

_GEN_TOKEN_RE = re.compile(r"^([ZXH])\[(\d+)(?:,(\d+))?\]$")


def parse_word(text: str) -> Word:
    toks = text.split()
    if not toks or not toks[0].startswith("n="):
        raise WordError("word must start with its dimension, n=<dim>")
    try:
        n = int(toks[0][2:])
    except ValueError:
        raise WordError(f"bad dimension {toks[0]!r}") from None
    if n < 1:
        raise WordError("dimension must be at least 1")
    gens: list[Generator] = []
    for tok in toks[1:]:
        if tok in ("eps", "ε"):
            continue
        m = _GEN_TOKEN_RE.match(tok)
        if not m:
            raise WordError(f"bad generator token {tok!r}")
        kind, i1, i2 = m.group(1), int(m.group(2)), m.group(3)
        if kind == "Z":
            if i2 is not None:
                raise WordError(f"Z takes one index: {tok!r}")
            idx: tuple[int, ...] = (i1,)
        else:
            if i2 is None:
                raise WordError(f"{kind} takes two indices: {tok!r}")
            if int(i2) == i1:
                raise WordError(f"indices must differ: {tok!r}")
            idx = (i1, int(i2))
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


def parse_derivation(text: str) -> list[DerivationStep]:
    steps = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _STEP_RE.match(line)
        if not m:
            raise WordError(f"line {lineno}: bad step syntax")
        rel_id, direction, pos, asg_text = m.groups()
        rel = RELATION_BY_ID.get(rel_id)
        if rel is None:
            raise WordError(f"line {lineno}: unknown relation {rel_id!r}")
        pairs: dict[str, int] = {}
        for part in asg_text.replace(",", " ").split():
            if "=" not in part:
                raise WordError(f"line {lineno}: bad binding {part!r}")
            name, _, val = part.partition("=")
            try:
                pairs[name.strip()] = int(val)
            except ValueError:
                raise WordError(f"line {lineno}: bad binding {part!r}") from None
        if set(pairs) != set(rel.formals):
            raise WordError(
                f"line {lineno}: relation {rel_id} needs indices "
                f"{','.join(rel.formals)}"
            )
        indices = tuple(pairs[f] for f in rel.formals)
        steps.append(DerivationStep(rel_id, direction, indices, int(pos)))
    return steps


def format_derivation(steps: Sequence[DerivationStep]) -> str:
    lines = []
    for s in steps:
        rel = RELATION_BY_ID[s.rel_id]
        asg = ",".join(f"{f}={i}" for f, i in zip(rel.formals, s.indices))
        lines.append(f"step {s.rel_id} {s.direction} at {s.pos} with {asg}")
    return "\n".join(lines)
