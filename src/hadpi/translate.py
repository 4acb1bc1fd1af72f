"""Translations between the combinator languages and generator words.

Three maps: wsem sends a program with neg1 and had to a generator word of
the same dimension; t_q sends a word back to a program over the
right-associated n-fold sum of 1; t_h simulates neg1 away, lifting a
program of type b1 <-> b2 to one of type 1+b1 <-> 1+b2 whose matrix gains
an identity row on top.  Embedding a Hadamard-program in the neg1-bearing
language needs no map: it is the identity on terms.

wsem has no walk of its own: words.program_form reads the program of
placed primitives that lang.lower builds through words._run, the one
evaluator, which lang.sem reads too.  Swaps and neg1 there only permute
and sign the row labels, so a word spends no generators on them but one
signed permutation word for the final relabelling; each had costs at
most one ascending H, and H pairs that meet on the same rows cancel.
"""

from .lang import (
    Factorz,
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
    _Frozen,
    _at_tail,
    _depth_limit,
    fold,
    hdim,
    lower,
    seqs,
    swap_plus_at,
)

# re-exported unused: hadpibench/tracing.py patches these bindings
from .lang import sem, typecheck  # noqa: F401
from .linalg import ExactMatrix, Generator
from .words import Word, _check, program_form

# re-exported unused: hadpibench/tracing.py patches this binding
from .synthesis import hpermute  # noqa: F401

_ID, _HAD, _NEG1, _SWAPX = Prim("id"), Prim("had"), Prim("neg1"), Prim("swap*")

# the fixed fragments of t_h's output, one object each wherever they occur
_TH_NEG1 = seqs(_HAD, Prim("swap+"), _HAD)  # neg1, simulated on 1+1
# the turn of the padding row from the left summand to the right one
_TURN = (Prim("assocl+"), SumC(Prim("swap+"), _ID), Prim("assocr+"))
_ID_SWAP = SumC(_ID, _SWAPX)
_ID_DIST, _ID_FACTOR = SumC(_ID, Prim("dist")), SumC(_ID, Prim("factor"))
_ID_UNITE, _ID_UNITI = SumC(_ID, Prim("unite*")), SumC(_ID, Prim("uniti*"))
_ASSOCR, _ASSOCL, _ABSORB = Prim("assocr*"), Prim("assocl*"), Prim("absorb")
# the moves of id_b * c around the clause of b's reduct, by b's left factor
_TH_MOVES = {
    One: (SumC(_ID, Seq(_ASSOCR, Prim("unite*"))), SumC(_ID, Seq(Prim("uniti*"), _ASSOCL))),
    Sum: (SumC(_ID, ProdC(Prim("dist"), _ID)), SumC(_ID, ProdC(Prim("factor"), _ID))),
    Prod: (SumC(_ID, ProdC(_ASSOCR, _ID)), SumC(_ID, ProdC(_ASSOCL, _ID))),
}


class TranslateError(ValueError):
    """Raised when a recorded translation fails its semantic re-check."""


class TranslationReport(_Frozen):
    """A translation together with its re-verified semantic relation.

    padding = 0 records plain matrix equality; padding = k records that the
    result matrix is I_k (+) source matrix.  Construction runs the check.
    """

    __slots__ = ("source", "result", "source_matrix", "result_matrix", "padding")

    def __init__(
        self,
        source: object,
        result: object,
        source_matrix: ExactMatrix,
        result_matrix: ExactMatrix,
        padding: int = 0,
    ):
        for name, value in zip(
            self.__slots__, (source, result, source_matrix, result_matrix, padding)
        ):
            object.__setattr__(self, name, value)
        # looked up on the class, where hadpibench/tracing.py patches it
        self.__post_init__()

    def __post_init__(self):
        want = self.source_matrix
        if self.padding:
            want = ExactMatrix.identity(self.padding).direct_sum(want)
        if self.result_matrix != want:
            raise TranslateError("translation changed the semantics")


# ---------------------------------------------------------------------------
# programs to words


def wsem(c: Term, input: ValueType) -> Word:
    """Generator word with the same matrix as c at the given source type:
    words.program_form of the program lower builds, so a Z per program row
    whose final label is negative, one word of the final relabelling, then
    the ascending H generators of words._run in word order."""
    return program_form(lower(c, input)[1], hdim(input))[0]


# ---------------------------------------------------------------------------
# words to programs


def t_q(w: Word) -> Term:
    """Program over nsum(w.n) denoting the same matrix as w."""
    _check(w)
    n = w.n
    # the generators share their adjacent swaps (each rung one sum around
    # the one above it), their transpositions and their neg1 and had tails,
    # so that lowering the program walks each of them once per input type
    rungs: dict = {}
    tails: dict[str, Term] = {}
    parts = [_t_gen(g, n, rungs, tails) for g in reversed(w.gens)]
    if not parts:
        return _ID
    return seqs(*parts)


def _t_gen(g: Generator, n: int, rungs: dict, tails: dict[str, Term]) -> Term:
    if g.kind == "Z":
        move = swap_plus_at(g.idx[0], n, n, rungs)
        if "Z" not in tails:
            tails["Z"] = _at_tail(_NEG1, n - 1)
        return seqs(move, tails["Z"], move)
    if g.kind == "X":
        return swap_plus_at(g.idx[0], g.idx[1], n, rungs)
    b, c = g.idx
    # conjugate so b lands on position n-1 and c on n; moving c first
    # keeps the two transpositions from colliding when c = n-1
    outer = swap_plus_at(c, n, n, rungs)
    inner = swap_plus_at(b, n - 1, n, rungs)
    if "H" not in tails:
        tails["H"] = _at_tail(_HAD, n - 2)
    return seqs(outer, inner, tails["H"], inner, outer)


# ---------------------------------------------------------------------------
# simulating neg1 with had


def t_h(c: Term, input: ValueType) -> Term:
    """Hadamard-program of type 1+b1 <-> 1+b2 whose matrix is I1 (+) sem(c).
    The output is a DAG: its fixed fragments are module constants, each
    primitive's translation is built once per call, and each clause of an
    id_b * c once per (b, c's translation, c's target)."""
    done: dict = {}  # _th_id_times's record of its clauses
    leaves: dict[str, Term] = {"neg1": _TH_NEG1}  # primitive name -> translation

    def leaf(c: Term, b: ValueType) -> Term:
        if type(c) is Factorz:
            return SumC(_ID, c)
        out = leaves.get(c.name)
        if out is None:
            out = leaves[c.name] = SumC(_ID, c)
        return out

    def pair(c: Term, b: ValueType, d: ValueType, left: Term, right: Term) -> Term:
        if type(c) is SumC:
            return _th_sum(left, right)
        if c.left == _ID:
            return _th_id_times(b.left, right, d.right, done)
        first = _th_id_times(b.right, left, d.left, done)
        return seqs(_ID_SWAP, first, _ID_SWAP, _th_id_times(d.left, right, d.right, done))

    return fold(c, input, "qpi", leaf, lambda parts: seqs(*parts), pair)


def t_h_lower(h: Term, input: ValueType) -> tuple[ValueType, list[tuple]]:
    """lang.lower of h = t_h(c, input) on the padded source 1+input: its
    target, 1 + the target of c, and its program.  h puts each primitive of
    c one sum of terms deeper, so its types get the depth budget of input
    plus that one level."""
    return lower(h, Sum(ONE, input), "hpi", _depth_limit(input) + 1)


def _th_sum(left: Term, right: Term) -> Term:
    """The translation of a sum of terms, given those of its operands: the
    padding row turns from the left summand to the right one, and back."""
    assocl, swap, assocr = _TURN
    return seqs(assocl, SumC(left, _ID), swap, assocr, SumC(_ID, right), *_TURN)


def _th_id_times(b: ValueType, tc: Term, cd: ValueType, done: dict) -> Term:
    """The translation of id_b * c, given c's translation tc and target cd.
    It translates c once per basis vector of b, each time as tc, and done
    records each clause per (b, tc, cd), so lowering the output walks tc
    once per input type.  The key holds cd because one tc, a primitive's
    shared translation, may stand for c at several targets, and a clause
    below a 0 factor names c's target in its factorz.  A clause is built
    off an explicit stack once the clauses of the types it reduces to
    (_th_reducts) are, so b may nest past the recursion limit."""
    stack: list[tuple[ValueType, tuple | None]] = [(b, None)]
    while stack:
        t, reducts = stack.pop()
        key = (id(t), id(tc), id(cd))
        if key in done:
            continue
        if reducts is None:
            reducts = _th_reducts(t)
            stack.append((t, reducts))
            stack.extend((r, None) for r in reducts)
            continue
        parts = [done[(id(r), id(tc), id(cd))][-1] for r in reducts]
        done[key] = (t, tc, cd, _th_clause(t, tc, cd, parts))
    return done[(id(b), id(tc), id(cd))][-1]


def _th_reducts(b: ValueType) -> tuple[ValueType, ...]:
    """The types b' whose clauses id_b' * c the clause of id_b * c is built
    from: the two summands of a sum, the right factor beside a left factor
    1, and b distributed or reassociated beside a left factor that is a sum
    or a product."""
    bl, br = getattr(b, "left", None), getattr(b, "right", None)
    if isinstance(b, Sum):
        return bl, br
    if isinstance(b, (Zero, One)) or isinstance(bl, Zero):
        return ()
    if isinstance(bl, One):
        return (br,)
    if isinstance(bl, Sum):
        return (Sum(Prod(bl.left, br), Prod(bl.right, br)),)
    return (Prod(bl.left, Prod(bl.right, br)),)


def _th_clause(b: ValueType, tc: Term, cd: ValueType, parts: list[Term]) -> Term:
    """The clause of id_b * c, given the clauses of its reducts in order."""
    bl, br = getattr(b, "left", None), getattr(b, "right", None)
    if isinstance(b, Zero):
        return SumC(_ID, seqs(_SWAPX, _ABSORB, _ID, Factorz(cd), _SWAPX))
    if isinstance(b, One):
        return seqs(_ID_UNITE, tc, _ID_UNITI)
    if isinstance(b, Sum):
        return seqs(_ID_DIST, _th_sum(*parts), _ID_FACTOR)
    if isinstance(bl, Zero):
        chain = seqs(_ASSOCR, _SWAPX, _ABSORB, _ID, Factorz(Prod(br, cd)), _SWAPX, _ASSOCL)
        return SumC(_ID, chain)
    move, back = _TH_MOVES[type(bl)]
    return seqs(move, parts[0], back)
