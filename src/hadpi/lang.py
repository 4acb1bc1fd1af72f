"""ASTs, typing, and exact semantics for the reversible combinator languages.

Value types are the finite rig types built from 0, 1, +, and *; terms are
combinator programs between them.  A language tag gates the primitive set:
"pi" is the reversible core, "qpi" adds neg1 and had, "hpi" adds had only.
Evaluation is exact and composition runs left to right, so the matrix of
`c1 ; c2` is `sem(c2) @ sem(c1)`.
"""

from dataclasses import dataclass
import re
from typing import Optional, Union

from .linalg import ExactMatrix, H_BLOCK, MINUS_ONE
from .synthesis import permutation_matrix


class LangError(ValueError):
    """Raised for ill-typed terms, bad syntax, or out-of-range indices."""


# ---------------------------------------------------------------------------
# value types


@dataclass(frozen=True)
class Zero:
    def __repr__(self) -> str:
        return "Zero"


@dataclass(frozen=True)
class One:
    def __repr__(self) -> str:
        return "One"


@dataclass(frozen=True)
class Sum:
    left: "ValueType"
    right: "ValueType"

    def __repr__(self) -> str:
        return f"Sum({self.left!r}, {self.right!r})"


@dataclass(frozen=True)
class Prod:
    left: "ValueType"
    right: "ValueType"

    def __repr__(self) -> str:
        return f"Prod({self.left!r}, {self.right!r})"


ValueType = Union[Zero, One, Sum, Prod]

ZERO = Zero()
ONE = One()
TWO = Sum(ONE, ONE)


def hdim(b: ValueType) -> int:
    """Dimension of the state space denoted by a type."""
    if isinstance(b, Zero):
        return 0
    if isinstance(b, One):
        return 1
    if isinstance(b, Sum):
        return hdim(b.left) + hdim(b.right)
    if isinstance(b, Prod):
        return hdim(b.left) * hdim(b.right)
    raise LangError(f"not a value type: {b!r}")


def nsum(n: int) -> ValueType:
    """The n-fold sum of 1, associated to the right; nsum(0) is 0."""
    if n < 0:
        raise LangError("nsum needs a natural number")
    if n == 0:
        return ZERO
    if n == 1:
        return ONE
    return Sum(ONE, nsum(n - 1))


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Prim:
    name: str

    def __repr__(self) -> str:
        return f"Prim({self.name!r})"


@dataclass(frozen=True)
class Factorz:
    """factorz{b} : 0 <-> b*0.  The annotation is the left factor."""

    operand: ValueType

    def __repr__(self) -> str:
        return f"Factorz({self.operand!r})"


@dataclass(frozen=True)
class Seq:
    fst: "Term"
    snd: "Term"

    # compare and hash along the left spine iteratively: composition
    # chains grow far past the interpreter recursion limit
    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Seq):
            return NotImplemented
        a: "Term" = self
        b: "Term" = other
        while isinstance(a, Seq) and isinstance(b, Seq):
            if a.snd != b.snd:
                return False
            a, b = a.fst, b.fst
        if isinstance(a, Seq) or isinstance(b, Seq):
            return False
        return a == b

    def __hash__(self):
        h = 0
        node: "Term" = self
        while isinstance(node, Seq):
            h = hash((h, node.snd))
            node = node.fst
        return hash((h, node))


@dataclass(frozen=True)
class SumC:
    left: "Term"
    right: "Term"


@dataclass(frozen=True)
class ProdC:
    left: "Term"
    right: "Term"


Term = Union[Prim, Factorz, Seq, SumC, ProdC]

# primitives of the shared reversible core
_CORE_PRIMS = frozenset(
    {
        "id",
        "swap+",
        "assocr+",
        "assocl+",
        "unite+",
        "uniti+",
        "swap*",
        "assocr*",
        "assocl*",
        "unite*",
        "uniti*",
        "dist",
        "factor",
        "absorb",
    }
)

_LANG_PRIMS = {
    "pi": _CORE_PRIMS,
    "qpi": _CORE_PRIMS | {"neg1", "had"},
    "hpi": _CORE_PRIMS | {"had"},
}


def primitives(lang: str) -> frozenset:
    """Primitive names admitted by a language tag."""
    try:
        return frozenset(_LANG_PRIMS[lang])
    except KeyError:
        raise LangError(f"unknown language tag {lang!r}; pick pi, qpi, or hpi") from None


class CombinatorType:
    """Source and target of a well-typed term."""

    __slots__ = ("src", "dst")

    def __init__(self, src: ValueType, dst: ValueType):
        self.src = src
        self.dst = dst

    def __eq__(self, other) -> bool:
        if not isinstance(other, CombinatorType):
            return NotImplemented
        return self.src == other.src and self.dst == other.dst

    def __repr__(self) -> str:
        return f"CombinatorType({self.src!r}, {self.dst!r})"

    def __str__(self) -> str:
        return f"{format_type(self.src)} <-> {format_type(self.dst)}"


# Where a subterm sits: () for the whole term, else (parent path, step).
# Linked so that extending it is O(1); a translated word's seq spine is
# thousands deep, and flat tuples would copy the prefix at every node.
_Path = tuple


def _fail(path: _Path, msg: str) -> "LangError":
    steps = []
    while path:
        path, step = path
        steps.append(step)
    where = ".".join(reversed(steps)) if steps else "term"
    return LangError(f"at {where}: {msg}")


def _swap_sum_perm(n1: int, n2: int) -> list[int]:
    # basis vector j of the left block moves past the whole right block
    n = n1 + n2
    return [j + n2 for j in range(1, n1 + 1)] + [j - n1 for j in range(n1 + 1, n + 1)]


def _swap_prod_perm(n1: int, n2: int) -> list[int]:
    # pair index (i1, i2) becomes (i2, i1)
    n = n1 * n2
    return [((p - 1) % n2) * n1 + (p - 1) // n2 + 1 for p in range(1, n + 1)]


def _prim_step(
    name: str, b: ValueType, lang: str, path: _Path, want: bool
) -> tuple[ValueType, Optional[ExactMatrix]]:
    """Target type of one primitive on input b, plus its matrix if asked."""
    allowed = _LANG_PRIMS.get(lang)
    if allowed is None:
        raise LangError(f"unknown language tag {lang!r}; pick pi, qpi, or hpi")
    if name not in allowed:
        if name in _LANG_PRIMS["qpi"]:
            raise _fail(path, f"primitive {name} is not part of {lang}")
        raise _fail(path, f"unknown primitive {name}")

    def skel(dst: ValueType) -> tuple[ValueType, Optional[ExactMatrix]]:
        return dst, ExactMatrix.identity(hdim(b)) if want else None

    if name == "id":
        return skel(b)
    if name == "swap+":
        if not isinstance(b, Sum):
            raise _fail(path, f"swap+ needs a sum input, got {format_type(b)}")
        dst = Sum(b.right, b.left)
        if not want:
            return dst, None
        return dst, permutation_matrix(_swap_sum_perm(hdim(b.left), hdim(b.right)))
    if name == "assocr+":
        if not (isinstance(b, Sum) and isinstance(b.left, Sum)):
            raise _fail(path, f"assocr+ needs input (b1+b2)+b3, got {format_type(b)}")
        return skel(Sum(b.left.left, Sum(b.left.right, b.right)))
    if name == "assocl+":
        if not (isinstance(b, Sum) and isinstance(b.right, Sum)):
            raise _fail(path, f"assocl+ needs input b1+(b2+b3), got {format_type(b)}")
        return skel(Sum(Sum(b.left, b.right.left), b.right.right))
    if name == "unite+":
        if not (isinstance(b, Sum) and isinstance(b.left, Zero)):
            raise _fail(path, f"unite+ needs input 0+b, got {format_type(b)}")
        return skel(b.right)
    if name == "uniti+":
        return skel(Sum(ZERO, b))
    if name == "swap*":
        if not isinstance(b, Prod):
            raise _fail(path, f"swap* needs a product input, got {format_type(b)}")
        dst = Prod(b.right, b.left)
        if not want:
            return dst, None
        return dst, permutation_matrix(_swap_prod_perm(hdim(b.left), hdim(b.right)))
    if name == "assocr*":
        if not (isinstance(b, Prod) and isinstance(b.left, Prod)):
            raise _fail(path, f"assocr* needs input (b1*b2)*b3, got {format_type(b)}")
        return skel(Prod(b.left.left, Prod(b.left.right, b.right)))
    if name == "assocl*":
        if not (isinstance(b, Prod) and isinstance(b.right, Prod)):
            raise _fail(path, f"assocl* needs input b1*(b2*b3), got {format_type(b)}")
        return skel(Prod(Prod(b.left, b.right.left), b.right.right))
    if name == "unite*":
        if not (isinstance(b, Prod) and isinstance(b.left, One)):
            raise _fail(path, f"unite* needs input 1*b, got {format_type(b)}")
        return skel(b.right)
    if name == "uniti*":
        return skel(Prod(ONE, b))
    if name == "dist":
        if not (isinstance(b, Prod) and isinstance(b.left, Sum)):
            raise _fail(path, f"dist needs input (b1+b2)*b3, got {format_type(b)}")
        b3 = b.right
        return skel(Sum(Prod(b.left.left, b3), Prod(b.left.right, b3)))
    if name == "factor":
        ok = (
            isinstance(b, Sum)
            and isinstance(b.left, Prod)
            and isinstance(b.right, Prod)
            and b.left.right == b.right.right
        )
        if not ok:
            raise _fail(
                path, f"factor needs input (b1*b3)+(b2*b3), got {format_type(b)}"
            )
        return skel(Prod(Sum(b.left.left, b.right.left), b.left.right))
    if name == "absorb":
        if not (isinstance(b, Prod) and isinstance(b.right, Zero)):
            raise _fail(path, f"absorb needs input b*0, got {format_type(b)}")
        return skel(ZERO)
    if name == "neg1":
        if not isinstance(b, One):
            raise _fail(path, f"neg1 needs input 1, got {format_type(b)}")
        return b, MINUS_ONE if want else None
    if name == "had":
        if b != TWO:
            raise _fail(path, f"had needs input 1+1, got {format_type(b)}")
        return b, H_BLOCK if want else None
    raise _fail(path, f"unknown primitive {name}")


def _seq_items(c: Term, path: _Path) -> list[tuple[Term, _Path]]:
    """Non-seq leaves of a seq spine in application order, iteratively."""
    out: list[tuple[Term, _Path]] = []
    stack = [(c, path)]
    while stack:
        node, p = stack.pop()
        if isinstance(node, Seq):
            stack.append((node.snd, (p, "seq.snd")))
            stack.append((node.fst, (p, "seq.fst")))
        else:
            out.append((node, p))
    return out


def _run(
    c: Term, b: ValueType, lang: str, path: _Path, want: bool
) -> tuple[ValueType, Optional[ExactMatrix]]:
    if isinstance(c, Prim):
        return _prim_step(c.name, b, lang, path, want)
    if isinstance(c, Factorz):
        if not isinstance(b, Zero):
            raise _fail(path, f"factorz needs input 0, got {format_type(b)}")
        return Prod(c.operand, ZERO), ExactMatrix.identity(0) if want else None
    if isinstance(c, Seq):
        # walk the whole spine iteratively: translated words compose
        # thousands of factors and would overrun the recursion limit
        cur = b
        mat: Optional[ExactMatrix] = None
        for node, p in _seq_items(c, path):
            cur, m = _run(node, cur, lang, p, want)
            if want:
                mat = m if mat is None else m.matmul(mat)
        return cur, mat
    if isinstance(c, SumC):
        if not isinstance(b, Sum):
            raise _fail(path, f"sum of terms needs a sum input, got {format_type(b)}")
        ld, lm = _run(c.left, b.left, lang, (path, "sum.left"), want)
        rd, rm = _run(c.right, b.right, lang, (path, "sum.right"), want)
        return Sum(ld, rd), lm.direct_sum(rm) if want else None
    if isinstance(c, ProdC):
        if not isinstance(b, Prod):
            raise _fail(
                path, f"product of terms needs a product input, got {format_type(b)}"
            )
        ld, lm = _run(c.left, b.left, lang, (path, "prod.left"), want)
        rd, rm = _run(c.right, b.right, lang, (path, "prod.right"), want)
        return Prod(ld, rd), lm.tensor(rm) if want else None
    raise _fail(path, f"not a term: {c!r}")


def typecheck(c: Term, input: ValueType, lang: str = "qpi") -> CombinatorType:
    """Propagate the source type through c; the target is determined."""
    dst, _ = _run(c, input, lang, (), False)
    return CombinatorType(input, dst)


def sem(c: Term, input: ValueType, lang: str = "qpi") -> ExactMatrix:
    """Exact matrix denotation of c at the given source type."""
    _, m = _run(c, input, lang, (), True)
    assert m is not None
    return m


def equiv_terms(c1: Term, c2: Term, input: ValueType, lang: str = "qpi") -> bool:
    """Decide whether two programs of the same type are extensionally equal."""
    t1 = typecheck(c1, input, lang)
    t2 = typecheck(c2, input, lang)
    if t1.dst != t2.dst:
        raise LangError(
            f"target types differ: {format_type(t1.dst)} vs {format_type(t2.dst)}"
        )
    return sem(c1, input, lang) == sem(c2, input, lang)


# ---------------------------------------------------------------------------
# syntactic inverse

_PRIM_INV = {
    "id": "id",
    "swap+": "swap+",
    "assocr+": "assocl+",
    "assocl+": "assocr+",
    "unite+": "uniti+",
    "uniti+": "unite+",
    "swap*": "swap*",
    "assocr*": "assocl*",
    "assocl*": "assocr*",
    "unite*": "uniti*",
    "uniti*": "unite*",
    "dist": "factor",
    "factor": "dist",
    "neg1": "neg1",
    "had": "had",
}


def inverse(c: Term, input: ValueType, lang: str = "qpi") -> Term:
    """Type-directed syntactic inverse: sem(inverse(c)) @ sem(c) = I."""
    typecheck(c, input, lang)
    return _inv(c, input, lang)


def _inv(c: Term, b: ValueType, lang: str) -> Term:
    if isinstance(c, Prim):
        if c.name == "absorb":
            assert isinstance(b, Prod)
            return Factorz(b.left)
        return Prim(_PRIM_INV[c.name])
    if isinstance(c, Factorz):
        return Prim("absorb")
    if isinstance(c, Seq):
        cur = b
        invs = []
        for node, _ in _seq_items(c, ()):
            invs.append(_inv(node, cur, lang))
            cur, _m = _run(node, cur, lang, (), False)
        return seqs(*reversed(invs))
    if isinstance(c, SumC):
        assert isinstance(b, Sum)
        return SumC(_inv(c.left, b.left, lang), _inv(c.right, b.right, lang))
    if isinstance(c, ProdC):
        assert isinstance(b, Prod)
        return ProdC(_inv(c.left, b.left, lang), _inv(c.right, b.right, lang))
    raise LangError(f"not a term: {c!r}")


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


def _adj(k: int, n: int) -> Term:
    # swap coordinates k and k+1 of the right-associated n-fold sum of 1
    assert 1 <= k < n
    if k > 1:
        return SumC(Prim("id"), _adj(k - 1, n - 1))
    if n == 2:
        return Prim("swap+")
    return seqs(Prim("assocl+"), SumC(Prim("swap+"), Prim("id")), Prim("assocr+"))


def swap_plus_at(j: int, k: int, n: int) -> Term:
    """Transposition (j k) on the type nsum(n), as a palindrome of
    adjacent swaps; sem equals the two-level permutation matrix."""
    if not (1 <= j <= n and 1 <= k <= n):
        raise LangError(f"positions must lie in 1..{n}")
    if j > k:
        j, k = k, j
    if j == k:
        return Prim("id")
    rungs = [_adj(i, n) for i in range(j, k)]
    return seqs(*rungs, *reversed(rungs[:-1]))


# ---------------------------------------------------------------------------
# concrete syntax

_TOKEN_RE = re.compile(
    r"""(assocr\+|assocl\+|unite\+|uniti\+
        |assocr\*|assocl\*|unite\*|uniti\*
        |swap\+|swap\*|factorz|factor|absorb|dist|neg1|had|id
        |\d+|[;+*^(){}])""",
    re.VERBOSE,
)


def _tokenize(text: str, what: str) -> list[tuple[str, int]]:
    toks = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise LangError(f"{what}: unexpected character {text[i]!r} at offset {i}")
        toks.append((m.group(1), i))
        i = m.end()
    return toks


class _Parser:
    def __init__(self, text: str, what: str):
        self.toks = _tokenize(text, what)
        self.pos = 0
        self.what = what
        self.end = len(text)

    def peek(self) -> Optional[str]:
        if self.pos < len(self.toks):
            return self.toks[self.pos][0]
        return None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise LangError(f"{self.what}: unexpected end of input")
        self.pos += 1
        return tok

    def expect(self, tok: str) -> None:
        got = self.peek()
        if got != tok:
            at = self.toks[self.pos][1] if self.pos < len(self.toks) else self.end
            raise LangError(f"{self.what}: expected {tok!r}, got {got!r} at offset {at}")
        self.pos += 1

    def done(self) -> None:
        if self.pos != len(self.toks):
            tok, at = self.toks[self.pos]
            raise LangError(f"{self.what}: trailing input {tok!r} at offset {at}")


def _parse_vtype(p: _Parser) -> ValueType:
    left = _parse_vfactor(p)
    if p.peek() == "+":
        p.take()
        return Sum(left, _parse_vtype(p))
    return left


def _parse_vfactor(p: _Parser) -> ValueType:
    left = _parse_vatom(p)
    if p.peek() == "*":
        p.take()
        return Prod(left, _parse_vfactor(p))
    return left


def _parse_vatom(p: _Parser) -> ValueType:
    tok = p.take()
    if tok == "0":
        return ZERO
    if tok == "1":
        return ONE
    if tok == "(":
        inner = _parse_vtype(p)
        p.expect(")")
        return inner
    raise LangError(f"{p.what}: expected a type, got {tok!r}")


def parse_type(text: str) -> ValueType:
    """Read a value type: 0, 1, +, * (both right-associated), parentheses."""
    p = _Parser(text, "type")
    out = _parse_vtype(p)
    p.done()
    return out


def format_type(b: ValueType) -> str:
    return _render_type(b, 0)


def _render_type(b: ValueType, ctx: int) -> str:
    if isinstance(b, Zero):
        return "0"
    if isinstance(b, One):
        return "1"
    if isinstance(b, Sum):
        s = _render_type(b.left, 1) + "+" + _render_type(b.right, 0)
        return f"({s})" if ctx > 0 else s
    s = _render_type(b.left, 2) + "*" + _render_type(b.right, 1)
    return f"({s})" if ctx > 1 else s


def _parse_seq(p: _Parser) -> Term:
    out = _parse_sum(p)
    while p.peek() == ";":
        p.take()
        out = Seq(out, _parse_sum(p))
    return out


def _parse_sum(p: _Parser) -> Term:
    left = _parse_prod(p)
    if p.peek() == "+":
        p.take()
        return SumC(left, _parse_sum(p))
    return left


def _parse_prod(p: _Parser) -> Term:
    left = _parse_power(p)
    if p.peek() == "*":
        p.take()
        return ProdC(left, _parse_prod(p))
    return left


def _parse_power(p: _Parser) -> Term:
    out = _parse_atom(p)
    while p.peek() == "^":
        p.take()
        tok = p.take()
        if not tok.isdigit():
            raise LangError(f"{p.what}: power needs a natural number, got {tok!r}")
        out = iterate(out, int(tok))
    return out


def _parse_atom(p: _Parser) -> Term:
    tok = p.take()
    if tok == "(":
        inner = _parse_seq(p)
        p.expect(")")
        return inner
    if tok == "factorz":
        if p.peek() == "{":
            p.take()
            operand = _parse_vtype(p)
            p.expect("}")
            return Factorz(operand)
        return Factorz(ONE)
    if tok in _LANG_PRIMS["qpi"]:
        return Prim(tok)
    raise LangError(f"{p.what}: expected a term, got {tok!r}")


def parse_term(text: str) -> Term:
    """Read a program.  Precedence is * over + over ; with ; left-associated
    and + and * right-associated, matching the type syntax; ^n repeats."""
    p = _Parser(text, "term")
    out = _parse_seq(p)
    p.done()
    return out


def format_term(c: Term) -> str:
    return _render_term(c, 1)


def _render_term(c: Term, minlvl: int) -> str:
    # binding levels: ; = 1 (left-assoc), + = 2, * = 3 (both right-assoc)
    if isinstance(c, Prim):
        return c.name
    if isinstance(c, Factorz):
        if c.operand == ONE:
            return "factorz"
        return "factorz{" + format_type(c.operand) + "}"
    if isinstance(c, Seq):
        # render the left spine iteratively; long chains are common
        lvl = 1
        parts = []
        node: Term = c
        while isinstance(node, Seq):
            parts.append(_render_term(node.snd, 2))
            node = node.fst
        parts.append(_render_term(node, 1))
        s = " ; ".join(reversed(parts))
    elif isinstance(c, SumC):
        lvl = 2
        s = _render_term(c.left, 3) + " + " + _render_term(c.right, 2)
    else:
        lvl = 3
        s = _render_term(c.left, 4) + " * " + _render_term(c.right, 3)
    return f"({s})" if lvl < minlvl else s


# ---------------------------------------------------------------------------
# source-type inference

_HOLE = None


def _unify(p, q, what: str):
    if p is None:
        return q
    if q is None:
        return p
    if type(p) is not type(q):
        raise LangError(
            f"cannot type {what}: {_render_pattern(p)} clashes with {_render_pattern(q)}"
        )
    if isinstance(p, (Zero, One)):
        return p
    return type(p)(
        _unify(p.left, q.left, what), _unify(p.right, q.right, what)
    )


def _render_pattern(p) -> str:
    if p is None:
        return "?"
    if isinstance(p, Zero):
        return "0"
    if isinstance(p, One):
        return "1"
    op = "+" if isinstance(p, Sum) else "*"
    return f"({_render_pattern(p.left)}{op}{_render_pattern(p.right)})"


def _flow(c: Term, pat, forward: bool):
    """Refine a source (forward) or target (backward) pattern through c.
    Returns (refined given pattern, pattern on the other side)."""
    if isinstance(c, Prim):
        return _flow_prim(c.name, pat, forward)
    if isinstance(c, Factorz):
        if forward:
            return _unify(pat, ZERO, "factorz"), Prod(c.operand, ZERO)
        return _unify(pat, Prod(c.operand, ZERO), "factorz"), ZERO
    if isinstance(c, Seq):
        items = [node for node, _ in _seq_items(c, ())]
        if not forward:
            items.reverse()
        refined = pat
        cur = pat
        for pos, node in enumerate(items):
            got, cur = _flow(node, cur, forward)
            if pos == 0:
                refined = got
        return refined, cur
    if isinstance(c, (SumC, ProdC)):
        shape = Sum if isinstance(c, SumC) else Prod
        name = "a sum of terms" if shape is Sum else "a product of terms"
        pat = _unify(pat, shape(None, None), name)
        _, lo = _flow(c.left, pat.left, forward)
        _, ro = _flow(c.right, pat.right, forward)
        return pat, shape(lo, ro)
    raise LangError(f"not a term: {c!r}")


def _flow_prim(name: str, pat, forward: bool):
    if name not in _LANG_PRIMS["qpi"]:
        raise LangError(f"unknown primitive {name}")
    if not forward and name != "absorb":
        inv = _PRIM_INV[name]
        got, other = _flow_prim(inv, pat, True)
        return got, other
    if not forward:  # absorb backwards
        pat = _unify(pat, ZERO, name)
        return pat, Prod(None, ZERO)
    if name == "id":
        return pat, pat
    if name == "swap+":
        pat = _unify(pat, Sum(None, None), name)
        return pat, Sum(pat.right, pat.left)
    if name == "assocr+":
        pat = _unify(pat, Sum(Sum(None, None), None), name)
        return pat, Sum(pat.left.left, Sum(pat.left.right, pat.right))
    if name == "assocl+":
        pat = _unify(pat, Sum(None, Sum(None, None)), name)
        return pat, Sum(Sum(pat.left, pat.right.left), pat.right.right)
    if name == "unite+":
        pat = _unify(pat, Sum(ZERO, None), name)
        return pat, pat.right
    if name == "uniti+":
        return pat, Sum(ZERO, pat)
    if name == "swap*":
        pat = _unify(pat, Prod(None, None), name)
        return pat, Prod(pat.right, pat.left)
    if name == "assocr*":
        pat = _unify(pat, Prod(Prod(None, None), None), name)
        return pat, Prod(pat.left.left, Prod(pat.left.right, pat.right))
    if name == "assocl*":
        pat = _unify(pat, Prod(None, Prod(None, None)), name)
        return pat, Prod(Prod(pat.left, pat.right.left), pat.right.right)
    if name == "unite*":
        pat = _unify(pat, Prod(ONE, None), name)
        return pat, pat.right
    if name == "uniti*":
        return pat, Prod(ONE, pat)
    if name == "dist":
        pat = _unify(pat, Prod(Sum(None, None), None), name)
        return pat, Sum(Prod(pat.left.left, pat.right), Prod(pat.left.right, pat.right))
    if name == "factor":
        pat = _unify(pat, Sum(Prod(None, None), Prod(None, None)), name)
        b3 = _unify(pat.left.right, pat.right.right, name)
        pat = Sum(Prod(pat.left.left, b3), Prod(pat.right.left, b3))
        return pat, Prod(Sum(pat.left.left, pat.right.left), b3)
    if name == "absorb":
        pat = _unify(pat, Prod(None, ZERO), name)
        return pat, ZERO
    if name == "neg1":
        return _unify(pat, ONE, name), ONE
    if name == "had":
        pat = _unify(pat, Sum(ONE, ONE), name)
        return pat, pat
    raise LangError(f"unknown primitive {name}")


def _fill(p) -> Optional[ValueType]:
    if p is None:
        return None
    if isinstance(p, (Zero, One)):
        return p
    left = _fill(p.left)
    right = _fill(p.right)
    if left is None or right is None:
        return None
    return type(p)(left, right)


def infer_source(c: Term) -> ValueType:
    """Pin down the source type forced by a term's structure, when unique.
    Raises if the term constrains it incompletely (e.g. a bare id)."""
    pin = _HOLE
    for _ in range(1000):
        refined, pout = _flow(c, pin, True)
        _, back = _flow(c, pout, False)
        merged = _unify(_unify(refined, back, "term"), pin, "term")
        if merged == pin:
            break
        pin = merged
    out = _fill(pin)
    if out is None:
        raise LangError(
            f"source type is ambiguous: inferred only {_render_pattern(pin)};"
            " supply it explicitly"
        )
    return out
