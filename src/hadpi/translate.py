"""Translations between the combinator languages and generator words.

Four maps: wsem sends a program with neg1 and had to a generator word of
the same dimension; t_q sends a word back to a program over the
right-associated n-fold sum of 1; qsem embeds Hadamard-programs into the
neg1-bearing language (the trees coincide); t_h simulates neg1 away,
lifting a program of type b1 <-> b2 to one of type 1+b1 <-> 1+b2 whose
matrix gains an identity row on top.
"""

from dataclasses import dataclass
from typing import Optional

from .lang import (
    Factorz,
    LangError,
    ONE,
    One,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    Term,
    ValueType,
    Zero,
    _seq_items,
    _swap_prod_perm,
    _swap_sum_perm,
    hdim,
    nsum,
    sem,
    seqs,
    swap_plus_at,
    typecheck,
)
from .linalg import ExactMatrix, Generator, gen_h, gen_z
from .synthesis import hpermute
from .words import Word, WordError, embed, shift

_ID = Prim("id")


class TranslateError(ValueError):
    """Raised when a recorded translation fails its semantic re-check."""


@dataclass(frozen=True)
class TranslationReport:
    """A translation together with its re-verified semantic relation.

    padding = 0 records plain matrix equality; padding = k records that the
    result matrix is I_k (+) source matrix.
    """

    source: object
    result: object
    source_matrix: ExactMatrix
    result_matrix: ExactMatrix
    padding: int = 0

    def __post_init__(self):
        want = self.source_matrix
        if self.padding:
            want = ExactMatrix.identity(self.padding).direct_sum(want)
        if self.result_matrix != want:
            raise TranslateError("translation changed the semantics")

    @property
    def relation(self) -> str:
        if self.padding == 0:
            return "equal"
        return f"padded-equal (identity prefix {self.padding})"


# ---------------------------------------------------------------------------
# programs to words


def wsem(c: Term, input: ValueType) -> Word:
    """Generator word with the same matrix as c at the given source type."""
    typecheck(c, input, "qpi")
    return _w(c, input)


def _w(c: Term, b: ValueType) -> Word:
    n = hdim(b)
    if isinstance(c, Prim):
        name = c.name
        if name == "neg1":
            return Word(1, (gen_z(1),))
        if name == "had":
            return Word(2, (gen_h(1, 2),))
        if name == "swap+":
            return hpermute(_swap_sum_perm(hdim(b.left), hdim(b.right)))
        if name == "swap*":
            return hpermute(_swap_prod_perm(hdim(b.left), hdim(b.right)))
        return Word(n, ())
    if isinstance(c, Factorz):
        return Word(0, ())
    if isinstance(c, Seq):
        gens: tuple[Generator, ...] = ()
        cur = b
        for node, _ in _seq_items(c, ()):
            gens = _w(node, cur).gens + gens
            cur = typecheck(node, cur, "qpi").dst
        return Word(n, gens)
    if isinstance(c, SumC):
        n1 = hdim(b.left)
        w1 = embed(_w(c.left, b.left), n)
        w2 = shift(_w(c.right, b.right), n1)
        return Word(n, w1.gens + embed(w2, n).gens)
    if isinstance(c, ProdC):
        b1, b2 = b.left, b.right
        if c.left == _ID:
            return _w_id_times(b1, c.right, b2)
        n1, n2 = hdim(b1), hdim(b2)
        b4 = typecheck(c.right, b2, "qpi").dst
        first = _w_id_times(b1, c.right, b2)
        mid = hpermute(_swap_prod_perm(n1, n2))
        second = _w_id_times(b4, c.left, b1)
        last = hpermute(_swap_prod_perm(n2, n1))
        return Word(n, last.gens + second.gens + mid.gens + first.gens)
    raise LangError(f"not a term: {c!r}")


def _w_id_times(b: ValueType, c: Term, cb: ValueType) -> Word:
    # one copy of the word of c per basis vector of b, shifted blockwise
    w = _w(c, cb)
    d = hdim(cb)
    gens = []
    for i in range(hdim(b)):
        s = i * d
        gens.extend(Generator(g.kind, tuple(t + s for t in g.idx)) for g in w.gens)
    return Word(hdim(b) * d, tuple(gens))


# ---------------------------------------------------------------------------
# words to programs


def t_q(w: Word) -> Term:
    """Program over nsum(w.n) denoting the same matrix as w."""
    n = w.n
    for g in w.gens:
        if not all(1 <= i <= n for i in g.idx):
            raise WordError(f"generator {g} out of range for n={n}")
    parts = [_t_gen(g, n) for g in reversed(w.gens)]
    if not parts:
        return _ID
    return seqs(*parts)


def _at_last(c: Term, n: int) -> Term:
    # c on the deepest right summand of nsum(n)
    if n == 1:
        return c
    return SumC(_ID, _at_last(c, n - 1))


def _at_last_two(c: Term, n: int) -> Term:
    # c on the deepest 1+1 tail of nsum(n)
    if n == 2:
        return c
    return SumC(_ID, _at_last_two(c, n - 1))


def _t_gen(g: Generator, n: int) -> Term:
    if g.kind == "Z":
        move = swap_plus_at(g.idx[0], n, n)
        return seqs(move, _at_last(Prim("neg1"), n), move)
    if g.kind == "X":
        return swap_plus_at(g.idx[0], g.idx[1], n)
    b, c = g.idx
    # conjugate so b lands on position n-1 and c on n; moving c first
    # keeps the two transpositions from colliding when c = n-1
    outer = swap_plus_at(c, n, n)
    inner = swap_plus_at(b, n - 1, n)
    return seqs(outer, inner, _at_last_two(Prim("had"), n), inner, outer)


def roundtrip_check(c: Term, input: ValueType) -> TranslationReport:
    """Send a program through wsem and t_q and re-verify the semantics."""
    w = wsem(c, input)
    back = t_q(w)
    return TranslationReport(c, back, sem(c, input), sem(back, nsum(w.n)))


# ---------------------------------------------------------------------------
# embedding of Hadamard-programs


def qsem(c: Term) -> Term:
    """The identity embedding; rejects programs that mention neg1."""
    for node in _all_nodes(c):
        if isinstance(node, Prim) and node.name == "neg1":
            raise LangError("neg1 is not part of hpi")
    return c


def _all_nodes(c: Term):
    stack = [c]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Seq):
            stack.append(node.fst)
            stack.append(node.snd)
        elif isinstance(node, (SumC, ProdC)):
            stack.append(node.left)
            stack.append(node.right)


# ---------------------------------------------------------------------------
# simulating neg1 with had


def t_h(c: Term, input: ValueType) -> Term:
    """Hadamard-program of type 1+b1 <-> 1+b2 whose matrix is I1 (+) sem(c)."""
    typecheck(c, input, "qpi")
    return _th(c, input)


def _th(c: Term, b: ValueType) -> Term:
    if isinstance(c, Prim):
        if c.name == "neg1":
            return seqs(Prim("had"), Prim("swap+"), Prim("had"))
        return SumC(_ID, c)
    if isinstance(c, Factorz):
        return SumC(_ID, c)
    if isinstance(c, Seq):
        parts = []
        cur = b
        for node, _ in _seq_items(c, ()):
            parts.append(_th(node, cur))
            cur = typecheck(node, cur, "qpi").dst
        return seqs(*parts)
    if isinstance(c, SumC):
        b1, b2 = b.left, b.right
        return seqs(
            Prim("assocl+"),
            SumC(_th(c.left, b1), _ID),
            SumC(Prim("swap+"), _ID),
            Prim("assocr+"),
            SumC(_ID, _th(c.right, b2)),
            Prim("assocl+"),
            SumC(Prim("swap+"), _ID),
            Prim("assocr+"),
        )
    if isinstance(c, ProdC):
        b1, b2 = b.left, b.right
        if c.left == _ID:
            return _th_id_times(b1, c.right, b2)
        b3 = typecheck(c.left, b1, "qpi").dst
        return seqs(
            SumC(_ID, Prim("swap*")),
            _th_id_times(b2, c.left, b1),
            SumC(_ID, Prim("swap*")),
            _th_id_times(b3, c.right, b2),
        )
    raise LangError(f"not a term: {c!r}")


def rank(b: ValueType) -> int:
    """Termination measure for the id_b * c clauses of t_h."""
    if isinstance(b, Zero):
        return 1
    if isinstance(b, One):
        return 2
    if isinstance(b, Sum):
        return rank(b.left) + rank(b.right)
    return (rank(b.left) + 1) ** 2 * rank(b.right)


def _th_id_times(b: ValueType, c: Term, cb: ValueType) -> Term:
    r = rank(b)
    cd = typecheck(c, cb, "qpi").dst
    if isinstance(b, Zero):
        chain = seqs(Prim("swap*"), Prim("absorb"), _ID, Factorz(cd), Prim("swap*"))
        return SumC(_ID, chain)
    if isinstance(b, One):
        return seqs(
            SumC(_ID, Prim("unite*")), _th(c, cb), SumC(_ID, Prim("uniti*"))
        )
    if isinstance(b, Sum):
        assert rank(b.left) < r and rank(b.right) < r
        inner = SumC(ProdC(_ID, c), ProdC(_ID, c))
        mid_src = Sum(Prod(b.left, cb), Prod(b.right, cb))
        return seqs(
            SumC(_ID, Prim("dist")), _th(inner, mid_src), SumC(_ID, Prim("factor"))
        )
    bl, br = b.left, b.right
    if isinstance(bl, Zero):
        chain = seqs(
            Prim("assocr*"),
            Prim("swap*"),
            Prim("absorb"),
            _ID,
            Factorz(Prod(br, cd)),
            Prim("swap*"),
            Prim("assocl*"),
        )
        return SumC(_ID, chain)
    if isinstance(bl, One):
        assert rank(br) < r
        return seqs(
            SumC(_ID, Seq(Prim("assocr*"), Prim("unite*"))),
            _th_id_times(br, c, cb),
            SumC(_ID, Seq(Prim("uniti*"), Prim("assocl*"))),
        )
    if isinstance(bl, Sum):
        split = Sum(Prod(bl.left, br), Prod(bl.right, br))
        assert rank(split) < r
        return seqs(
            SumC(_ID, ProdC(Prim("dist"), _ID)),
            _th_id_times(split, c, cb),
            SumC(_ID, ProdC(Prim("factor"), _ID)),
        )
    reassoc = Prod(bl.left, Prod(bl.right, br))
    assert rank(reassoc) < r
    return seqs(
        SumC(_ID, ProdC(Prim("assocr*"), _ID)),
        _th_id_times(reassoc, c, cb),
        SumC(_ID, ProdC(Prim("assocl*"), _ID)),
    )
