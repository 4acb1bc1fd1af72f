"""ASTs, typing, and exact semantics for the reversible combinator languages.

Value types are the finite rig types built from 0, 1, +, and *; terms are
combinator programs between them.  A language tag gates the primitive set:
"pi" is the reversible core, "qpi" adds neg1 and had, "hpi" adds had only.
Evaluation is exact and composition runs left to right, so the matrix of
`c1 ; c2` is `sem(c2) @ sem(c1)`.  lang only emits a term's program of
placed primitives (lower); words reads it as a matrix or as a word.
"""

import functools
import itertools
import operator
import re
import weakref
from typing import NamedTuple, Optional, Union

from .linalg import MAX_DIM, ExactMatrix
from .synthesis import Equivalence, equivalence
from .words import program_matrix

# re-exported unused: hadpibench/tracing.py patches this binding
from .synthesis import permutation_matrix  # noqa: F401


class LangError(ValueError):
    """Raised for ill-typed terms, bad syntax, or out-of-range indices."""


class BudgetError(LangError):
    """Raised when walking a term would pass MAX_DIM or MAX_NESTING."""


# ---------------------------------------------------------------------------
# value types


# Types are hash-consed (Filliâtre and Conchon, "Type-safe modular
# hash-consing", 2006): building a type returns the one live object with its
# structure, so equal types are one object, and equality and hashing are
# identity.  A pattern that holds a hole of inference or a rule variable (its
# dim is None) is not interned.


class Zero:
    __slots__ = ()
    dim = 0
    depth = 0

    def __new__(cls):
        return ZERO

    def __repr__(self) -> str:
        return "Zero"


class One:
    __slots__ = ()
    dim = 1
    depth = 0

    def __new__(cls):
        return ONE

    def __repr__(self) -> str:
        return "One"


# (class, id(left), id(right)) -> a weak reference to the live type; a type
# holds its parts, so their ids stay unique while it lives, and its entry
# leaves the table when it dies
_TYPES: dict = {}


class _Pair:
    """A sum or product type: immutable, and interned unless dim is None."""

    __slots__ = ("left", "right", "dim", "depth", "__weakref__")

    def __new__(cls, left: "ValueType", right: "ValueType"):
        l, r = getattr(left, "dim", None), getattr(right, "dim", None)
        if l is None or r is None:
            key = None
        else:
            key = (cls, id(left), id(right))
            ref = _TYPES.get(key)
            if ref is not None and (t := ref()) is not None:
                return t
        t = object.__new__(cls)
        put = object.__setattr__
        put(t, "left", left)
        put(t, "right", right)
        put(t, "dim", None if key is None else cls._dim(l, r))
        l = 0 if left is None else left.depth
        r = 0 if right is None else right.depth
        put(t, "depth", (l if l > r else r) + 1)
        if key is not None:
            _TYPES[key] = weakref.ref(t, functools.partial(_TYPES.pop, key))
        return t

    def __setattr__(self, name, value=None):
        raise AttributeError(f"value types are immutable: cannot set {name}")

    __delattr__ = __setattr__

    def __reduce__(self):  # copies and pickles rebuild the interned type
        return type(self), (self.left, self.right)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.left!r}, {self.right!r})"


class Sum(_Pair):
    __slots__ = ()
    _dim = operator.add


class Prod(_Pair):
    __slots__ = ()
    _dim = operator.mul


ValueType = Union[Zero, One, Sum, Prod]

ZERO = object.__new__(Zero)
ONE = object.__new__(One)
TWO = Sum(ONE, ONE)

# The nesting budget, past which parsing and typing raise LangError.  Each
# parenthesis, `+` operand and `*` operand of a parsed term or type opens
# one level.  Within one typecheck, sem or inference pass a type may grow
# to MAX_NESTING levels past the deeper of its source and MAX_NESTING (see
# _depth_limit): a long chain of uniti+ would otherwise build a type too
# deep to print or unify, while a program built over a deeper source
# still runs.  No walk, fold or printing of a term or type recurses, so a
# term may nest past the recursion limit, as t_q's do near n = 1000.  On
# parsed input this budget bounds all that recurses: the parser, five frames
# per level at most, and the code directed by a pattern (unification, source
# inference, the printing of patterns in its errors).
MAX_NESTING = 100


def hdim(b: ValueType) -> int:
    """Dimension of the state space denoted by a type, held by the type."""
    d = getattr(b, "dim", None)
    if d is None:
        raise LangError(f"not a value type: {b!r}")
    return d


def nsum(n: int) -> ValueType:
    """The n-fold sum of 1, associated to the right; nsum(0) is 0."""
    if n < 0:
        raise LangError("nsum needs a natural number")
    out = ONE if n else ZERO
    for _ in range(n - 1):
        out = Sum(ONE, out)
    return out


# ---------------------------------------------------------------------------
# terms


class _Frozen:
    """A record whose __slots__ name its fields in constructor order, set once
    by __init__: setting or deleting a field raises AttributeError.  Copies
    and pickles rebuild it from its fields; it compares and hashes as the
    tuple of its fields and prints as Name(field=value, ...)."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        return tuple(map(self.__getattribute__, self.__slots__))

    def __reduce__(self):
        return type(self), self._fields()

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"


_set = object.__setattr__


class Prim(_Frozen):
    __slots__ = ("name",)

    def __init__(self, name: str):
        _set(self, "name", name)

    def __repr__(self) -> str:
        return f"Prim({self.name!r})"


class Factorz(_Frozen):
    """factorz{b} : 0 <-> b*0.  The annotation is the left factor."""

    __slots__ = ("operand",)

    def __init__(self, operand: ValueType):
        _set(self, "operand", operand)

    def __repr__(self) -> str:
        return f"Factorz({self.operand!r})"


def _preorder(c: "Term"):
    """The node classes and leaves of a term in pre-order, walked with an
    explicit stack: composition chains and translated sums of terms nest far
    past the recursion limit.  Two terms are equal exactly when their
    sequences are, which is how Seq, SumC and ProdC compare and hash; they
    print along it too."""
    stack = [c]
    while stack:
        c = stack.pop()
        if isinstance(c, _Composite):
            yield type(c)
            first, second = c.__slots__
            stack += (getattr(c, second), getattr(c, first))
        else:
            yield c


def _postorder(c: "Term") -> list:
    """The distinct nodes of a term in post-order, walked with an explicit
    stack: a leaf as itself and a composite as (class, i, j), its two parts
    the nodes at places i and j.  A node shared in c is listed once."""
    at: dict = {}  # id(node) -> its place; c holds the nodes, so ids stay unique
    out: list = []
    stack = [(c, False)]
    while stack:
        x, parts_done = stack.pop()
        if id(x) in at:
            continue
        if isinstance(x, _Composite):
            first, second = (getattr(x, f) for f in x.__slots__)
            if not parts_done:
                stack += ((x, True), (second, False), (first, False))
                continue
            entry = (type(x), at[id(first)], at[id(second)])
        else:
            entry = x
        at[id(x)] = len(out)
        out.append(entry)
    return out


def _from_postorder(nodes) -> "Term":
    """The term whose _postorder is the sequence nodes, built in one loop."""
    built: list = []
    for x in nodes:
        built.append(x[0](built[x[1]], built[x[2]]) if type(x) is tuple else x)
    return built[-1]


class _Composite(_Frozen):
    """A node of two subterms, compared, hashed and printed along _preorder.
    A copy is the node itself: terms are immutable, and copying field by
    field would recurse once per link of a seq chain.  For the same reason a
    pickle holds the flat _postorder list, which unpickling rebuilds in one
    loop: a subterm shared in the original is pickled and rebuilt once."""

    __slots__ = ()

    def __deepcopy__(self, memo=None):
        return self

    __copy__ = __deepcopy__

    def __reduce__(self):
        return _from_postorder, (tuple(_postorder(self)),)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        pairs = itertools.zip_longest(_preorder(self), _preorder(other))
        return all(a is b or a == b for a, b in pairs)

    def __hash__(self) -> int:
        return hash(tuple(_preorder(self)))

    def __repr__(self) -> str:
        # Name(first=..., second=...): a class in the pre-order opens a
        # composite, and each leaf closes the composites it completes, then
        # opens the second field of the innermost one still open
        out, ends = [], []
        for x in _preorder(self):
            if isinstance(x, type):
                first, second = x.__slots__
                out.append(f"{x.__name__}({first}=")
                ends += (")", f", {second}=")
                continue
            out.append(repr(x))
            while ends and ends[-1] == ")":
                out.append(ends.pop())
            if ends:
                out.append(ends.pop())
        return "".join(out)


class Seq(_Composite):
    __slots__ = ("fst", "snd")

    def __init__(self, fst: "Term", snd: "Term"):
        _set(self, "fst", fst)
        _set(self, "snd", snd)


class SumC(_Composite):
    __slots__ = ("left", "right")

    def __init__(self, left: "Term", right: "Term"):
        _set(self, "left", left)
        _set(self, "right", right)


class ProdC(_Composite):
    __slots__ = ("left", "right")

    def __init__(self, left: "Term", right: "Term"):
        _set(self, "left", left)
        _set(self, "right", right)


Term = Union[Prim, Factorz, Seq, SumC, ProdC]


# ---------------------------------------------------------------------------
# typing rules
#
# Each primitive is an isomorphism between two type shapes, written once in
# _RULES over the pattern variables b1, b2 and b3.  typecheck runs a step
# generated from the two shapes (_compile); source inference unifies its
# input with a fresh copy of the source shape and builds the target from the
# bindings, in one pass (_infer); inverse reads the inverse's name.  A shape
# holds a variable exactly when its dim is None.


class _Var:
    """A pattern variable of a typing rule; it stands for any type."""

    dim = None
    depth = 0


class _Rule(NamedTuple):
    src: object
    dst: object
    inv: str  # absorb's inverse is factorz{b1}, which is not a Prim
    needs: str  # what a typecheck error says the source must be
    langs: tuple = ("pi", "qpi", "hpi")


_b1, _b2, _b3 = _Var(), _Var(), _Var()

_RULES = {
    "id": _Rule(_b1, _b1, "id", ""),
    "swap+": _Rule(Sum(_b1, _b2), Sum(_b2, _b1), "swap+", "a sum input"),
    "assocr+": _Rule(
        Sum(Sum(_b1, _b2), _b3), Sum(_b1, Sum(_b2, _b3)), "assocl+", "input (b1+b2)+b3"
    ),
    "assocl+": _Rule(
        Sum(_b1, Sum(_b2, _b3)), Sum(Sum(_b1, _b2), _b3), "assocr+", "input b1+(b2+b3)"
    ),
    "unite+": _Rule(Sum(ZERO, _b1), _b1, "uniti+", "input 0+b"),
    "uniti+": _Rule(_b1, Sum(ZERO, _b1), "unite+", ""),
    "swap*": _Rule(Prod(_b1, _b2), Prod(_b2, _b1), "swap*", "a product input"),
    "assocr*": _Rule(
        Prod(Prod(_b1, _b2), _b3), Prod(_b1, Prod(_b2, _b3)), "assocl*", "input (b1*b2)*b3"
    ),
    "assocl*": _Rule(
        Prod(_b1, Prod(_b2, _b3)), Prod(Prod(_b1, _b2), _b3), "assocr*", "input b1*(b2*b3)"
    ),
    "unite*": _Rule(Prod(ONE, _b1), _b1, "uniti*", "input 1*b"),
    "uniti*": _Rule(_b1, Prod(ONE, _b1), "unite*", ""),
    "dist": _Rule(
        Prod(Sum(_b1, _b2), _b3),
        Sum(Prod(_b1, _b3), Prod(_b2, _b3)),
        "factor",
        "input (b1+b2)*b3",
    ),
    "factor": _Rule(
        Sum(Prod(_b1, _b3), Prod(_b2, _b3)),
        Prod(Sum(_b1, _b2), _b3),
        "dist",
        "input (b1*b3)+(b2*b3)",
    ),
    "absorb": _Rule(Prod(_b1, ZERO), ZERO, "factorz", "input b*0"),
    "neg1": _Rule(ONE, ONE, "neg1", "input 1", ("qpi",)),
    "had": _Rule(TWO, TWO, "had", "input 1+1", ("qpi", "hpi")),
}


def _compile(rule: _Rule):
    """typecheck's reading of a rule: a function from an input type b to
    its target, or to None when b does not have the source shape.  It is
    generated from the patterns as the one expression a hand-written step
    would be.  A recursive matcher over _RULES in its place cost 1.05-1.08x
    the op time of the benchmark's translate workload, about 0.5-1 us more
    per miss of the walk's step memo (about 29 misses per op)."""
    tests: list[str] = []
    at: dict = {}  # pattern variable -> where in b it is bound

    def visit(p, where: str) -> None:
        if type(p) is _Var:
            if p in at:  # met twice, as b3 in factor
                tests.append(f"{at[p]} is {where}")
            else:
                at[p] = where
            return
        tests.append(f"type({where}) is {type(p).__name__}")
        if p.depth:
            visit(p.left, where + ".left")
            visit(p.right, where + ".right")

    def build(p) -> str:
        if type(p) is _Var:
            return at[p]
        if not p.depth:
            return type(p).__name__.upper()  # ZERO or ONE
        return f"{type(p).__name__}({build(p.left)}, {build(p.right)})"

    visit(rule.src, "b")
    target = "b" if rule.dst is rule.src else build(rule.dst)
    code = f"lambda b: {target} if {' and '.join(tests) or 'True'} else None"
    names = {"Sum": Sum, "Prod": Prod, "Zero": Zero, "One": One, "ZERO": ZERO, "ONE": ONE}
    return eval(code, names)


# language tag -> primitive name -> its typing step
_STEPS = {name: _compile(rule) for name, rule in _RULES.items()}
_LANG_PRIMS = {
    lang: {name: _STEPS[name] for name, rule in _RULES.items() if lang in rule.langs}
    for lang in ("pi", "qpi", "hpi")
}


def primitives(lang: str) -> frozenset:
    """Primitive names admitted by a language tag."""
    try:
        return frozenset(_LANG_PRIMS[lang])
    except KeyError:
        raise LangError(f"unknown language tag {lang!r}; pick pi, qpi, or hpi") from None


class CombinatorType(NamedTuple):
    """Source and target of a well-typed term."""

    src: ValueType
    dst: ValueType

    def __str__(self) -> str:
        return f"{format_type(self.src)} <-> {format_type(self.dst)}"


def _depth_limit(source) -> int:
    """Deepest type one pass over a term may build from this source."""
    return max(getattr(source, "depth", 0), MAX_NESTING) + MAX_NESTING


def _too_deep(name: str) -> str:
    """The message for a primitive or factorz whose target is deeper than the
    levels left to the subtype it rewrites."""
    return (
        f"{name} nests the type more than {MAX_NESTING} levels (MAX_NESTING)"
        " past the deeper of its source and MAX_NESTING"
    )


# a longer path prints its first and last _PATH_ENDS steps around a count
_PATH_ENDS = 5


def _fail(steps: list[str], msg: str, error: type = LangError) -> "LangError":
    """The error at the subterm that steps lead to from the root."""
    if len(steps) > 3 * _PATH_ENDS:
        cut = len(steps) - 2 * _PATH_ENDS
        steps[_PATH_ENDS:-_PATH_ENDS] = [f"<{cut} steps>"]
    where = ".".join(steps) if steps else "term"
    return error(f"at {where}: {msg}")


class _Failure(Exception):
    """A failure inside a walk, raised at the failing subterm with the message
    and error class for _fail.  steps lists the steps down to that subterm,
    innermost first: each composite the failure leaves appends its own, so
    the walk names the subterm without walking again."""

    def __init__(self, msg: str, error: type = LangError):
        self.msg, self.error, self.steps = msg, error, []


def _prim_step(name: str, b: ValueType, lang: str) -> ValueType:
    """Target type of one primitive on input b."""
    try:
        step = _LANG_PRIMS[lang][name]
    except KeyError:
        if lang not in _LANG_PRIMS:
            raise LangError(f"unknown language tag {lang!r}; pick pi, qpi, or hpi") from None
        if name in _RULES:
            raise _Failure(f"primitive {name} is not part of {lang}") from None
        raise _Failure(f"unknown primitive {name}") from None
    dst = step(b)
    if dst is None:
        raise _Failure(f"{name} needs {_RULES[name].needs}, got {format_type(b)}")
    return dst


def term_prims(c: Term):
    """Every primitive node of a term, in the order of its text."""
    return (x for x in _preorder(c) if isinstance(x, Prim))


def _spine(c: Term) -> list[Term]:
    """Non-seq leaves of a seq spine in application order, iteratively."""
    out: list[Term] = []
    stack = [c]
    while stack:
        node = stack.pop()
        if isinstance(node, Seq):
            stack.append(node.snd)
            stack.append(node.fst)
        else:
            out.append(node)
    return out


# ---------------------------------------------------------------------------
# lowering: one memoized walk behind typecheck, sem, inverse and translation
#
# Every walk lowers: typecheck keeps its target, sem and the translations
# its program, and fold (inverse, t_h) the target types its memos hold.
#
# A subterm runs at a placement (base, copies, stride) in the rows of the
# source's basis, 0-based.  Inside a product of terms a factor runs once per
# basis vector of the other, so a product adds a (count, step) pair to the
# copies and sets the stride; the right operand of a sum of terms only
# moves base.  The copies are a grid, outermost pair first: from [base],
# each pair takes every row r to r, r + step, ..., r + (count-1)*step, and
# local row j of a copy at r is row r + j*stride.  A lowered program lists,
# in order, the primitives that move rows, each placed once for all copies:
#   ("had", base, copies, stride, 0, 0)      H on rows r and r + stride
#   ("neg1", base, copies, stride, 0, 0)     Z on row r
#   ("swap+", base, copies, stride, n1, n2)  the permutation of swap+ on n1 + n2
#   ("swap*", base, copies, stride, n1, n2)  the permutation of swap* on n1 * n2
# for each row r of the grid, which only words._run expands, in the order
# of its pairs.  A subterm met again at the same stride re-emits its ops at
# its new base, the copies it was recorded under replaced by the new ones.


class _Walk:
    """A walk of c at input b in a language, no type deeper than limit
    (default _depth_limit(b)): dst is c's target type and ops its program of
    placed primitives.  Its memos answer questions about the nodes of c
    (target) with no second walk.

    A primitive's target is memoized on its name and input type (equal
    types are one object).  Every other node but a leaf factorz is memoized
    on node and input type identity, a seq nested in a chain too: a node met
    again at its input type, no tighter depth limit, and the same stride,
    under any copies, returns its recorded target and re-emits its recorded
    ops at the new base and copies (see the comment above _Walk).  A failure
    names its subterm as it unwinds (_Failure), so no walk tracks paths."""

    __slots__ = ("lang", "ops", "steps", "memo", "dst")

    def __init__(self, c: Term, b: ValueType, lang: str, limit: Optional[int] = None):
        self.lang = lang
        self.ops: list[tuple] = []
        # (name, input) -> (target, moves rows, n1, n2): a primitive's
        # step, with the sizes an emitted swap carries
        self.steps: dict[tuple, tuple] = {}
        # (id(node), id(input)) -> (node, input, limit, target, copies,
        # base, stride, start, end); holding the node and the input keeps
        # their ids unique
        self.memo: dict[tuple, tuple] = {}
        if hdim(b) > MAX_DIM:
            raise BudgetError(
                f"the source type's dimension is past the limit of {MAX_DIM} (MAX_DIM)"
            )
        try:
            self.dst = self.node(c, b, _depth_limit(b) if limit is None else limit)
        except _Failure as exc:
            raise _fail(exc.steps[::-1], exc.msg, exc.error) from None

    def node(self, c: Term, b: ValueType, limit: int) -> ValueType:
        """Target type of c on input b, no deeper than limit, placed at base
        0 with no copies and stride 1, which the nodes below c move (see the
        comment above _Walk).  Each seq, sum and product of terms opens a
        frame on an explicit stack, which its finished operands resume: t_q
        nests a word thousands of nodes deep."""
        memo, ops = self.memo, self.ops
        # the composites open around the node x being walked: [node, input,
        # start of its ops, the step down to x's side of it], and for a sum
        # or product its limit, placement and its left operand's target
        frames: list[list] = []
        x, dst, base, copies, stride = c, b, 0, (), 1
        try:
            while True:
                kind = type(x)
                if kind is Prim:
                    name = x.name
                    step = self.steps.get((name, dst))
                    if step is None:
                        out = _prim_step(name, dst, self.lang)
                        if name == "swap+" or name == "swap*":
                            step = (out, True, dst.left.dim, dst.right.dim)
                        else:  # every other primitive but had and neg1 denotes an identity
                            step = (out, name == "had" or name == "neg1", 0, 0)
                        self.steps[name, dst] = step
                    dst, moves, n1, n2 = step
                    if dst.depth > limit:
                        raise _Failure(_too_deep(name), BudgetError)
                    if moves:
                        ops.append((name, base, copies, stride, n1, n2))
                elif kind is Factorz:
                    if dst is not ZERO:
                        raise _Failure(f"factorz needs input 0, got {format_type(dst)}")
                    dst = Prod(x.operand, ZERO)
                    if dst.depth > limit:
                        raise _Failure(_too_deep("factorz"), BudgetError)
                elif (
                    (entry := memo.get((id(x), id(dst)))) is not None
                    and entry[2] <= limit  # recorded under no looser limit
                    and entry[6] == stride
                ):
                    _, _, _, dst, was, shift, _, start, end = entry
                    shift = base - shift
                    if not shift and was == copies:
                        ops += ops[start:end]
                    else:  # each op's copies start with the node's: swap them for these
                        for name, at, grid, s, n1, n2 in ops[start:end]:
                            ops.append((name, at + shift, copies + grid[len(was) :], s, n1, n2))
                elif kind is Seq:
                    frames.append([x, dst, len(ops), "seq.fst"])
                    x = x.fst
                    continue
                elif kind is SumC or kind is ProdC:
                    what, at = ("sum", "sum.left") if kind is SumC else ("product", "prod.left")
                    if type(dst) is not (Sum if kind is SumC else Prod):
                        got = format_type(dst)
                        raise _Failure(f"{what} of terms needs a {what} input, got {got}")
                    # a factor outgrows the source only beside a 0 factor, and each
                    # term below still runs once per row of the other factor
                    n1, n2 = dst.left.dim, dst.right.dim
                    if n1 > MAX_DIM or n2 > MAX_DIM:
                        raise _Failure(
                            f"product of terms has a factor whose dimension is past the limit"
                            f" of {MAX_DIM} (MAX_DIM)",
                            BudgetError,
                        )
                    frames.append([x, dst, len(ops), at, limit, copies, base, stride, None])
                    if kind is ProdC:
                        # (c1 (x) I)(I (x) c2): c1 once per right index, c2 once per left one
                        copies += ((n2, stride),)
                        stride *= n2
                    x, dst, limit = x.left, dst.left, limit - 1
                    continue
                else:
                    raise _Failure(f"not a term: {x!r}")
                # x is done, at its own placement: finish each frame it ends,
                # then go down the second operand of the innermost one open
                while frames:
                    frame = frames[-1]
                    at = frame[3]
                    if at == "seq.fst":  # a seq's operands share its placement
                        frame[3], x = "seq.snd", frame[0].snd
                        break
                    if at == "seq.snd":
                        y, yb, start, _ = frames.pop()
                    else:  # back at the sum's or product's own placement
                        y, yb, start, at, limit, copies, base, stride, left = frame
                        if at == "sum.left" or at == "prod.left":
                            n1, n2 = yb.left.dim, yb.right.dim
                            if at == "sum.left":
                                base += n1 * stride
                            else:
                                copies += ((n1, n2 * stride),)
                            frame[3] = "sum.right" if at == "sum.left" else "prod.right"
                            frame[8] = dst
                            x, dst, limit = y.right, yb.right, limit - 1
                            break
                        frames.pop()
                        dst = yb if left is yb.left and dst is yb.right else type(yb)(left, dst)
                    memo[id(y), id(yb)] = (y, yb, limit, dst, copies, base, stride, start, len(ops))
                else:
                    return dst
        except _Failure as exc:
            exc.steps += [frame[3] for frame in reversed(frames)]
            raise

    def target(self, c: Term, b: ValueType) -> ValueType:
        """Target type of a node of c at an input b this walk met it at: a
        primitive's from its step, a factorz's from its operand, and any
        other node's from its memo entry."""
        if type(c) is Prim:
            return self.steps[c.name, b][0]
        if type(c) is Factorz:
            return Prod(c.operand, ZERO)
        return self.memo[id(c), id(b)][3]


def lower(
    c: Term, b: ValueType, lang: str = "qpi", limit: Optional[int] = None
) -> tuple[ValueType, list[tuple]]:
    """Target type of c on input b, no type deeper than limit (default
    _depth_limit(b)), and its program of placed primitives (see the comment
    above _Walk); each distinct subterm is walked once per input type and
    stride."""
    walk = _Walk(c, b, lang, limit)
    return walk.dst, walk.ops


def typecheck(c: Term, input: ValueType, lang: str = "qpi") -> CombinatorType:
    """Propagate the source type through c; the target is determined."""
    return CombinatorType(input, lower(c, input, lang)[0])


def sem(c: Term, input: ValueType, lang: str = "qpi") -> ExactMatrix:
    """Exact matrix denotation of c at the given source type."""
    return program_matrix(lower(c, input, lang)[1], hdim(input))


def term_equivalence(c1: Term, c2: Term, input: ValueType, lang: str) -> Equivalence:
    """Decide whether two programs at one source type are equal, with their
    normal forms; each term is walked once.  Raises LangError unless both
    type at input with one target, and BudgetError past a budget."""
    try:
        (d1, ops1), (d2, ops2) = lower(c1, input, lang), lower(c2, input, lang)
    except BudgetError:
        raise
    except LangError as exc:
        raise LangError(f"incompatible at {format_type(input)}: {exc}") from None
    if d1 != d2:
        raise LangError(f"target types differ: {format_type(d1)} vs {format_type(d2)}")
    n = hdim(input)
    return equivalence(ops1, ops2, n, lambda: (program_matrix(ops1, n), program_matrix(ops2, n)))


# ---------------------------------------------------------------------------
# folds over a walk: inverse, and t_h in translate


def fold(c: Term, b: ValueType, lang: str, leaf, spine, pair):
    """The part for c at input b, folded bottom-up off an explicit stack
    over the nodes one _Walk of c met: leaf(x, xb) for a primitive or
    factorz x at input xb; spine(parts) for a seq chain, given the parts for
    its non-seq nodes in application order (_spine); pair(x, xb, target,
    left, right) for a sum or product of terms x, where target(y, yb) is the
    target type of a node y of c at its input yb, read off the walk's memos.
    A node met again at the same input type yields the part it first did,
    so the part for a shared node is shared."""
    target = _Walk(c, b, lang).target
    done: dict[tuple, tuple] = {}  # (id(node), id(input)) -> (node, input, part)
    # the composites open around x: (node, input, the nodes below it, their
    # parts so far)
    frames: list[tuple] = []
    x, xb = c, b
    while True:
        if (hit := done.get(key := (id(x), id(xb)))) is not None:
            part = hit[2]
        elif type(x) is Prim or type(x) is Factorz:
            part = leaf(x, xb)
            done[key] = (x, xb, part)
        else:
            nodes = _spine(x) if type(x) is Seq else (x.left, x.right)
            frames.append((x, xb, nodes, []))
            if type(x) is not Seq:
                xb = xb.left
            x = nodes[0]
            continue
        # x at input xb is done: resume the frames it finishes
        while frames:
            y, yb, nodes, parts = frames[-1]
            parts.append(part)
            if len(parts) < len(nodes):
                xb = target(x, xb) if type(y) is Seq else yb.right
                x = nodes[len(parts)]
                break
            frames.pop()
            part = spine(parts) if type(y) is Seq else pair(y, yb, target, *parts)
            done[id(y), id(yb)] = (y, yb, part)
            x, xb = y, yb
        else:
            return part


def inverse(c: Term, input: ValueType, lang: str = "qpi") -> Term:
    """Type-directed syntactic inverse: sem(inverse(c)) @ sem(c) = I."""
    pair = lambda c, b, target, left, right: type(c)(left, right)  # noqa: E731
    return fold(c, input, lang, _inv_leaf, lambda parts: seqs(*reversed(parts)), pair)


def _inv_leaf(c: Term, b: ValueType) -> Term:
    if type(c) is Factorz:
        return Prim("absorb")
    if c.name == "absorb":
        return Factorz(b.left)
    return Prim(_RULES[c.name].inv)


# ---------------------------------------------------------------------------
# derived combinators


def seqs(*terms: Term) -> Term:
    """Left-nested sequence of one or more terms, in application order."""
    if not terms:
        return Prim("id")
    out = terms[0]
    for t in terms[1:]:
        out = Seq(out, t)
    return out


def iterate(c: Term, m: int) -> Term:
    """m-fold self-composition c^m as a right-nested sequence."""
    if m < 0:
        raise LangError("iteration count must be a natural number")
    if m == 0:
        return Prim("id")
    out = c
    for _ in range(m - 1):
        out = Seq(c, out)
    return out


def ctrl(c: Term) -> Term:
    """Controlled c on (1+1)*b: identity on the first summand, c on the second."""
    return seqs(Prim("dist"), SumC(Prim("id"), ProdC(Prim("id"), c)), Prim("factor"))


GATE_X = Prim("swap+")
GATE_H = Prim("had")
GATE_CX = ctrl(GATE_X)
GATE_CH = ctrl(GATE_H)
GATE_CCX = ctrl(GATE_CX)


def _at_tail(c: Term, m: int) -> Term:
    """id + (id + ... (id + c)) with m ids: c on a right-associated sum of 1
    past its first m coordinates."""
    ident = Prim("id")
    for _ in range(m):
        c = SumC(ident, c)
    return c


# the adjacent swap at the head of a right-associated sum of 1 past its
# last two coordinates: a+(b+c) -> (b+a)+c -> b+(a+c)
_ADJ_TOP = seqs(Prim("assocl+"), SumC(Prim("swap+"), Prim("id")), Prim("assocr+"))


def _adj(k: int, n: int, rungs: dict) -> Term:
    """The swap of coordinates k and k+1 of the right-associated n-fold sum
    of 1 (1 <= k < n), kept in rungs under k.  Below the last, rung k is
    id + rung (k-1), one sum around the rung above it down to _ADJ_TOP, so
    the rungs of one n take one SumC each; the last, k = n-1, swaps the
    final 1+1 itself, past n-2 ids."""
    out = rungs.get(k)
    if out is None and k == n - 1:
        out = rungs[k] = _at_tail(Prim("swap+"), k - 1)
    elif out is None:
        low = k  # rungs low..k are missing; each is built on the one before
        while low > 1 and low - 1 not in rungs:
            low -= 1
        out = rungs.get(low - 1)
        for i in range(low, k + 1):
            out = rungs[i] = SumC(Prim("id"), out) if i > 1 else _ADJ_TOP
    return out


def swap_plus_at(j: int, k: int, n: int, rungs: Optional[dict] = None) -> Term:
    """Transposition (j k) on the type nsum(n), as a palindrome of
    adjacent swaps (_adj); sem equals the two-level permutation matrix.
    Calls for one n that pass the same dict as rungs share each adjacent
    swap (keyed by its first position) and each transposition (keyed
    (j, k)), so the rungs of all of them take O(n) nodes and a walk over
    their terms lowers each once per input type."""
    if not (1 <= j <= n and 1 <= k <= n):
        raise LangError(f"positions must lie in 1..{n}")
    if j > k:
        j, k = k, j
    if j == k:
        return Prim("id")
    if rungs is None:
        rungs = {}
    out = rungs.get((j, k))
    if out is None:
        swaps = [_adj(i, n, rungs) for i in range(j, k)]
        out = rungs[j, k] = seqs(*swaps, *reversed(swaps[:-1]))
    return out


# ---------------------------------------------------------------------------
# concrete syntax
#
# Terms are built over the rig operators of their types, so one tokenizer,
# one grammar of + and * chains and one renderer serve both languages.

# c^m is expanded at parse time to m copies of c, so powers multiply the
# work of everything after parsing; the expanded term may have at most
# this many primitive leaves once a power is applied.
MAX_TERM_LEAVES = 100_000

# a token, or else the one character that starts no token, past white
# space; names go longest first, so that factorz is not read as factor
_TOKEN_RE = re.compile(
    r"\s*(?:("
    + "|".join(map(re.escape, sorted([*_RULES, "factorz"], key=len, reverse=True)))
    + r"|[0-9]+|[;+*^(){}])|(\S))"
)

# the infix operators of terms and of types: token -> (binding level, node
# class); both associate to the right, and * binds tighter than +
_TERM_OPS = {"+": (2, SumC), "*": (3, ProdC)}
_TYPE_OPS = {"+": (2, Sum), "*": (3, Prod)}


class _Parser:
    def __init__(self, text: str, what: str, lang: str = "qpi"):
        # a term admits the primitives of lang, each refused as it is read
        self.lang, self.admitted = lang, primitives(lang)
        # (token, offset) pairs, closed by the sentinel (None, len(text))
        self.toks = []
        for m in _TOKEN_RE.finditer(text):
            if m[1] is None:
                raise LangError(f"{what}: unexpected character {m[2]!r} at offset {m.start(2)}")
            self.toks.append((m[1], m.start(1)))
        self.toks.append((None, len(text)))
        self.pos = 0
        self.what = what
        self.depth = 0  # open nesting levels
        self.leaves = 0  # primitive leaves of the expanded term so far

    def peek(self) -> Optional[str]:
        return self.toks[self.pos][0]

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise LangError(f"{self.what}: unexpected end of input")
        self.pos += 1
        return tok

    def offset(self) -> int:
        return self.toks[self.pos][1]

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            raise LangError(
                f"{self.what}: expected {tok!r}, got {got!r} at offset {self.offset()}"
            )
        self.pos += 1

    def nest(self, parse, *args):
        """parse(self, *args) one nesting level deeper, within MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise LangError(
                f"{self.what}: nested deeper than the limit of {MAX_NESTING} levels"
                f" (MAX_NESTING) at offset {self.offset()}"
            )
        self.depth += 1
        out = parse(self, *args)
        self.depth -= 1
        return out

    def done(self) -> None:
        tok, at = self.toks[self.pos]
        if tok is not None:
            raise LangError(f"{self.what}: trailing input {tok!r} at offset {at}")


def _parse_infix(p: _Parser, ops: dict, operand, level: int):
    """A chain of operands joined by the operators of ops that bind at level
    or tighter (Pratt, "Top down operator precedence", 1973).  Each operand
    after an operator is parsed one nesting level deeper."""
    out = operand(p)
    while (op := ops.get(p.peek())) is not None and op[0] >= level:
        p.take()
        out = op[1](out, p.nest(_parse_infix, ops, operand, op[0]))
    return out


def _parse_vatom(p: _Parser) -> ValueType:
    tok = p.take()
    if tok == "0":
        return ZERO
    if tok == "1":
        return ONE
    if tok == "(":
        inner = p.nest(_parse_vtype)
        p.expect(")")
        return inner
    raise LangError(f"{p.what}: expected a type, got {tok!r}")


_parse_vtype = functools.partial(_parse_infix, ops=_TYPE_OPS, operand=_parse_vatom, level=2)


def parse_type(text: str) -> ValueType:
    """Read a value type: 0, 1, +, * (both right-associated), parentheses."""
    p = _Parser(text, "type")
    out = _parse_vtype(p)
    p.done()
    if out.dim > MAX_DIM:
        raise LangError(f"type: its dimension is past the limit of {MAX_DIM} (MAX_DIM)")
    return out


def _parse_seq(p: _Parser) -> Term:
    out = _parse_infix(p, _TERM_OPS, _parse_power, 2)
    while p.peek() == ";":
        p.take()
        out = Seq(out, _parse_infix(p, _TERM_OPS, _parse_power, 2))
    return out


def _parse_power(p: _Parser) -> Term:
    start = p.leaves
    out = _parse_atom(p)
    while p.peek() == "^":
        p.take()
        at = p.offset()
        tok = p.take()
        if not tok.isdigit():
            raise LangError(f"{p.what}: power needs a natural number, got {tok!r}")
        # int() refuses texts of over 4300 digits; far fewer are over budget
        digits = tok.lstrip("0") or "0"
        m = int(digits) if len(digits) <= len(str(MAX_TERM_LEAVES)) else MAX_TERM_LEAVES + 1
        p.leaves = start + (m * (p.leaves - start) or 1)  # c^0 is id
        if p.leaves > MAX_TERM_LEAVES:
            raise LangError(
                f"{p.what}: the power at offset {at} expands the term past the limit"
                f" of {MAX_TERM_LEAVES} leaves (MAX_TERM_LEAVES)"
            )
        out = iterate(out, m)
    return out


def _parse_atom(p: _Parser) -> Term:
    tok = p.take()
    if tok == "(":
        inner = p.nest(_parse_seq)
        p.expect(")")
        return inner
    if tok == "factorz":
        p.leaves += 1
        if p.peek() == "{":
            p.take()
            operand = p.nest(_parse_vtype)
            p.expect("}")
            return Factorz(operand)
        return Factorz(ONE)
    if tok in p.admitted:
        p.leaves += 1
        return Prim(tok)
    if tok in _RULES:
        raise LangError(f"{tok} is not in {p.lang}")
    raise LangError(f"{p.what}: expected a term, got {tok!r}")


def parse_term(text: str, lang: str = "qpi") -> Term:
    """Read a program of the language lang.  Precedence is * over + over ;
    with ; left-associated and + and * right-associated, matching the type
    syntax; ^n repeats."""
    p = _Parser(text, "term", lang)
    out = _parse_seq(p)
    p.done()
    return out


def format_type(b: ValueType) -> str:
    """The text of a type: a sum is parenthesised as the left operand of a
    sum or inside a product, a product as the left operand of a product."""
    return _render(b)


def format_term(c: Term) -> str:
    """The text of a term, which parse_term reads back."""
    return _render(c)


# the chains of terms and types: node class -> (binding level, separator)
_CHAINS = {SumC: (2, " + "), ProdC: (3, " * "), Sum: (2, "+"), Prod: (3, "*")}


def _render(root) -> str:
    """The text of a term or type, rendered off an explicit stack: a t_q
    output nests thousands of nodes deep, and nsum(n) n levels.  Each
    composite is rendered once per binding level, so a shared part prints
    as the tree it stands for at the cost of the distinct nodes."""
    done: dict[tuple, str] = {}  # (id(node), level) -> text; root holds the nodes
    out: list[str] = []  # the text so far, in pieces
    # what is left to do, last first: text to write, a (node, level) to
    # render, or [key, start] to record the text from out[start] on as done
    work: list = [(root, 1)]
    while work:
        item = work.pop()
        if type(item) is str:
            out.append(item)
        elif type(item) is list:
            text = done[item[0]] = "".join(out[item[1] :])
            del out[item[1] :]
            out.append(text)
        elif type(x := item[0]) is Prim:
            out.append(x.name)
        elif x is ONE:
            out.append("1")
        elif x is ZERO:
            out.append("0")
        elif type(x) is Factorz:
            if x.operand is ONE:
                out.append("factorz")
            else:  # the operand type, at the top level inside its braces
                work += ("}", (x.operand, 1), "factorz{")
        elif (text := done.get(key := (id(x), item[1]))) is not None:
            out.append(text)
        else:
            work.append([key, len(out)])
            work += reversed(_layout(x, item[1], done))
    return "".join(out)


def _layout(c, minlvl: int, done: dict) -> list:
    """The text of a composite c at binding level minlvl (; = 1, left-
    associated; + = 2 and * = 3, right-associated) as text and (operand,
    level) pieces.  A chain is one run of operands, so it prints in linear
    time: the first operands of a seq, its last one if that is a seq not yet
    rendered (c^m nests to the right) inside a parenthesis, and the right
    operands of a sum or product of terms or types."""
    kind = type(c)
    if kind is not Seq:
        lvl, sep = _CHAINS[kind]
        pieces, node = [], c
        while True:
            pieces += ((node.left, lvl + 1), sep)
            node = node.right
            if type(node) is not kind or (id(node), lvl) in done:
                break
        pieces.append((node, lvl))
    else:
        lvl, pieces, opened, node = 1, [], 0, c
        while True:
            last, node = node.snd, node.fst
            spine: list = []
            while type(node) is Seq:
                x = node.snd  # a primitive, the commonest operand, is text at once
                spine.append(" ; " + x.name if type(x) is Prim else (x, 2))
                if type(x) is not Prim:
                    spine.append(" ; ")
                node = node.fst
            first = node.name if type(node) is Prim else (node, 1)
            spine += [first, "("] if opened else [first]
            pieces += reversed(spine)
            pieces.append(" ; ")
            if type(last) is not Seq or (id(last), 2) in done:
                break
            opened += 1
            node = last
        pieces += ((last, 2), ")" * opened)
    return ["(", *pieces, ")"] if lvl < minlvl else pieces


# ---------------------------------------------------------------------------
# source-type inference
#
# One pass of first-order unification (Robinson 1965), left to right: the
# source is a hole, and each node unifies its input with a fresh copy of the
# shape it needs.  A part two places share is one hole, bound once for both.


class _Hole:
    """An unknown part of a type, bound at most once (to).  room: the levels the
    source has left below the hole's shallowest place in it, inf while in none."""

    dim = None
    depth = 0
    to = None
    room = float("inf")


def _find(t):
    while type(t) is _Hole and t.to is not None:
        t = t.to
    return t


def _instance(p, env: dict):
    """Rule pattern p with each variable v replaced by _find(env[v]), new or not."""
    if type(p) is _Var:
        if p not in env:
            env[p] = _Hole()
        return _find(env[p])
    if p.dim is not None:
        return p
    return type(p)(_instance(p.left, env), _instance(p.right, env))


# Parts of a pattern may be shared (factor's b3 puts one part in two
# places), so each walk over a pattern below visits a part once, or once per
# tighter room, and not once per place.


def _equate(a, b, what: str, done: set) -> None:
    """Unify the input's pattern a with b, binding holes of b before those of
    a; done holds the pairs of parts already unified."""
    a, b = _find(a), _find(b)
    if type(a) is _Hole and type(b) is not _Hole:
        a, b = b, a
    if a is b:
        return
    if type(b) is _Hole:
        if b.room != _Hole.room and _holds(a, b, b.room, what, {}):
            p = _clip(a)
            raise LangError(f"cannot type {what}: the type ? would contain itself as {p}")
        b.to = a
    elif type(a) is not type(b):
        p, q = _clip(a), _clip(b)
        raise LangError(f"cannot type {what}: {p} clashes with {q}")
    elif a.depth:
        if (id(a), id(b)) in done:
            return
        done.add((id(a), id(b)))
        _equate(a.left, b.left, what, done)
        _equate(a.right, b.right, what, done)


def _holds(t, h: _Hole, room, what: str, seen: dict) -> bool:
    """Whether t holds the hole h.  t goes where room levels are left: a
    deeper t raises, and each hole in t keeps the room left at its place.
    seen maps each part found not to hold h to the most room it had."""
    t = _find(t)
    if t is h:
        return True
    if t.depth > room:
        raise _fail([], _too_deep(what), BudgetError)
    if type(t) is _Hole:
        t.room = min(t.room, room)
        return False
    # a part with a dimension holds no hole
    if t.dim is not None or seen.get(id(t), 0) >= room:
        return False
    seen[id(t)] = room
    return _holds(t.left, h, room - 1, what, seen) or _holds(t.right, h, room - 1, what, seen)


# a longer rendered pattern prints its first and last _PATTERN_ENDS
# characters around a count, as a long path does with its steps
_PATTERN_ENDS = 40


def _clip(p) -> str:
    """The text of pattern p.  Parts of a pattern may be shared (factor's b3),
    so the text may be exponentially long: it is measured from lengths
    memoized per node, and only its ends are rendered."""
    size = _text_length(p, {})
    if size <= 3 * _PATTERN_ENDS:
        return "".join(_chars(p, False))
    head = "".join(itertools.islice(_chars(p, False), _PATTERN_ENDS))
    tail = "".join(itertools.islice(_chars(p, True), _PATTERN_ENDS))[::-1]
    return f"{head}<{size - 2 * _PATTERN_ENDS} characters>{tail}"


def _text_length(p, done: dict) -> int:
    p = _find(p)
    if not p.depth:
        return 1
    size = done.get(id(p))
    if size is None:
        size = done[id(p)] = 3 + _text_length(p.left, done) + _text_length(p.right, done)
    return size


def _chars(p, backward: bool):
    """The characters of the text of pattern p, from its end if backward."""
    p = _find(p)
    if not p.depth:  # 0, 1, or a hole or variable, which has no dim
        yield "?" if p.dim is None else str(p.dim)
        return
    parts = ("(", p.left, "+" if isinstance(p, Sum) else "*", p.right, ")")
    for part in reversed(parts) if backward else parts:
        if type(part) is str:
            yield part
        else:
            yield from _chars(part, backward)


def _infer(c: Term, t, limit: int):
    """Target pattern of c on the input pattern t, no deeper than limit."""
    if isinstance(c, Seq):
        for node in _spine(c):
            t = _infer(node, t, limit)
        return t
    env: dict = {}
    if isinstance(c, Prim):
        what = c.name
        if what not in _RULES:
            raise LangError(f"unknown primitive {what}")
        src, dst = _RULES[what].src, _RULES[what].dst
    elif isinstance(c, Factorz):
        what, src, dst = "factorz", ZERO, Prod(c.operand, ZERO)
    elif isinstance(c, (SumC, ProdC)):
        shape, what = (Sum, "a sum") if isinstance(c, SumC) else (Prod, "a product")
        left, right = _Hole(), _Hole()
        _equate(t, shape(left, right), what + " of terms", set())
        left = _infer(c.left, _find(left), limit - 1)
        return shape(left, _infer(c.right, _find(right), limit - 1))
    else:
        raise LangError(f"not a term: {c!r}")
    _equate(t, _instance(src, env), what, set())
    out = t if dst is src else _instance(dst, env)
    if out.depth > limit:
        raise _fail([], _too_deep(what), BudgetError)
    return out


def _resolve(t, done: dict):
    """t with each bound hole replaced by what it is bound to; done holds the
    parts resolved so far by id, as parts of a pattern may be shared."""
    t = _find(t)
    if t.dim is not None or not t.depth:
        return t
    out = done.get(id(t))
    if out is None:
        left, right = _resolve(t.left, done), _resolve(t.right, done)
        out = t if left is t.left and right is t.right else type(t)(left, right)
        done[id(t)] = out
    return out


def infer_source(c: Term) -> ValueType:
    """The most general source type of a term, which must be unique (a bare id
    leaves it open).  The pass keeps every type to the depth limit of a shallow
    source; typing the inferred one then bounds every type typing meets."""
    source = _Hole()
    source.room = limit = _depth_limit(ZERO)
    _infer(c, source, limit)
    source = _resolve(source, {})
    if source.dim is None:  # it still holds a hole
        raise LangError(
            f"source type is ambiguous: inferred only {_clip(source)};"
            " supply it explicitly"
        )
    return source
