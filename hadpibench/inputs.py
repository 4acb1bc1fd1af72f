"""Seeded generators for benchmark inputs.

Everything here is built from a `random.Random` the caller seeds.  The
source and target types of generated programs are tracked by the small
rule table below, not by `hadpi.lang.typecheck`, and derivations are
instantiated by this module's own token rules, so both can serve as
references for the outputs they check.
"""

from __future__ import annotations

import random

from hadpi.lang import ONE, Prim, Prod, ProdC, Seq, Sum, SumC, ctrl, hdim, seqs
from hadpi.linalg import gen_h, gen_x, gen_z
from hadpi.words import Word

TWO = Sum(ONE, ONE)


def rand_word(rng: random.Random, n: int, length: int) -> Word:
    """A word of `length` generators over G_n, Z/X/H drawn uniformly."""
    gens = []
    for _ in range(length):
        kind = rng.choice("ZXH")
        if kind == "Z":
            gens.append(gen_z(rng.randint(1, n)))
        else:
            b, c = sorted(rng.sample(range(1, n + 1), 2))
            gens.append(gen_x(b, c) if kind == "X" else gen_h(b, c))
    return Word(n, tuple(gens))


def rand_type(rng: random.Random, max_dim: int, min_dim: int = 2):
    """A value type over 1, + and * with min_dim <= hdim <= max_dim."""
    while True:
        b = _grow_type(rng, 3)
        if min_dim <= hdim(b) <= max_dim:
            return b


def _grow_type(rng: random.Random, depth: int):
    r = rng.random()
    if depth == 0 or r < 0.4:
        return rng.choice((ONE, TWO))
    ctor = Sum if r < 0.75 else Prod
    return ctor(_grow_type(rng, depth - 1), _grow_type(rng, depth - 1))


def prim_dst(name: str, b):
    """Target type of a primitive on input b, or None if it does not apply.

    Covers the primitives that never introduce the empty type, so every
    generated type keeps a positive dimension.
    """
    S, P = Sum, Prod
    if name == "id":
        return b
    if name == "neg1":
        return b if b == ONE else None
    if name == "had":
        return b if b == TWO else None
    if isinstance(b, S):
        l, r = b.left, b.right
        if name == "swap+":
            return S(r, l)
        if name == "assocr+" and isinstance(l, S):
            return S(l.left, S(l.right, r))
        if name == "assocl+" and isinstance(r, S):
            return S(S(l, r.left), r.right)
        if name == "factor" and isinstance(l, P) and isinstance(r, P) and l.right == r.right:
            return P(S(l.left, r.left), l.right)
        return None
    if name == "uniti*":
        return P(ONE, b)
    if not isinstance(b, P):
        return None
    l, r = b.left, b.right
    if name == "swap*":
        return P(r, l)
    if name == "assocr*" and isinstance(l, P):
        return P(l.left, P(l.right, r))
    if name == "assocl*" and isinstance(r, P):
        return P(P(l, r.left), r.right)
    if name == "unite*" and l == ONE:
        return r
    if name == "dist" and isinstance(l, S):
        return S(P(l.left, r), P(l.right, r))
    return None


_PRIMS = (
    "id", "neg1", "had", "swap+", "assocr+", "assocl+", "factor",
    "uniti*", "swap*", "assocr*", "assocl*", "unite*", "dist",
)


def rand_term(rng: random.Random, b, depth: int = 4):
    """A random qpi program on input b; returns (term, target type)."""
    r = rng.random()
    if depth > 0 and r < 0.35:
        fst, mid = rand_term(rng, b, depth - 1)
        snd, dst = rand_term(rng, mid, depth - 1)
        return Seq(fst, snd), dst
    if depth > 0 and r < 0.6 and isinstance(b, (Sum, Prod)):
        lt, ld = rand_term(rng, b.left, depth - 1)
        rt, rd = rand_term(rng, b.right, depth - 1)
        if isinstance(b, Sum):
            return SumC(lt, rt), Sum(ld, rd)
        return ProdC(lt, rt), Prod(ld, rd)
    options = [(p, d) for p in _PRIMS if (d := prim_dst(p, b)) is not None]
    # prefer a non-identity primitive so programs do some work
    if len(options) > 1 and rng.random() < 0.8:
        options = options[1:]
    name, dst = rng.choice(options)
    return Prim(name), dst


# one-qubit gates on 1+1: Hadamard, NOT and the sign flip Z = id + neg1
_ONE_QUBIT = (Prim("had"), Prim("swap+"), SumC(Prim("id"), Prim("neg1")))


def register(k: int):
    """(1+1)*((1+1)*...): k qubits, associated to the right."""
    return TWO if k == 1 else Prod(TWO, register(k - 1))


def _on_wire(g, i: int, k: int):
    if k == 1:
        return g
    if i == 0:
        return ProdC(g, Prim("id"))
    return ProdC(Prim("id"), _on_wire(g, i - 1, k - 1))


def rand_circuit(rng: random.Random, k: int, local: int, controlled: int):
    """A qpi program on register(k), k >= 2: `local` one-qubit gates on any
    wire and `controlled` gates on wires 1.. controlled by wire 0."""
    kinds = [False] * local + [True] * controlled
    rng.shuffle(kinds)
    out = []
    for is_ctrl in kinds:
        u = rng.choice(_ONE_QUBIT)
        if is_ctrl:
            out.append(ctrl(_on_wire(u, rng.randrange(k - 1), k - 1)))
        else:
            out.append(_on_wire(u, rng.randrange(k), k))
    return seqs(*out)


def pin(b):
    """A program on b whose structure alone determines its source type b."""
    if b == ONE:
        return Prim("neg1")
    ctor = SumC if isinstance(b, Sum) else ProdC
    return ctor(pin(b.left), pin(b.right))


def non_identity(b):
    """A program of type b <-> b whose matrix is not the identity."""
    if b == ONE:
        return Prim("neg1")
    if isinstance(b, Sum):
        return SumC(non_identity(b.left), Prim("id"))
    return ProdC(non_identity(b.left), Prim("id"))


# Derivations: catalog relations instantiated by this module's own copy of
# the token rules (X sorted, H[c,b] with c > b expanded as X H X).


def _token(kind: str, idx: list[int]) -> list[str]:
    if kind == "Z":
        return [f"Z[{idx[0]}]"]
    b, c = idx
    if kind == "X":
        return [f"X[{min(b, c)},{max(b, c)}]"]
    if b < c:
        return [f"H[{b},{c}]"]
    return [f"X[{c},{b}]", f"H[{c},{b}]", f"X[{c},{b}]"]


def instantiate(tokens, asg: dict[str, int]) -> list[str]:
    out: list[str] = []
    for kind, formals in tokens:
        out.extend(_token(kind, [asg[f] for f in formals]))
    return out


def _filler(rng: random.Random, n: int) -> list[str]:
    w = rand_word(rng, n, rng.randint(0, 2))
    return [str(g) for g in w.gens]


def rand_derivation(rng: random.Random, catalog, n: int, steps: int):
    """A derivation file whose steps match by construction.

    Returns (text, number of steps).  The start word is fillers around one
    instance of each step's pattern; the steps rewrite the instances left
    to right, so every position and the final word follow from the block
    lengths alone.
    """
    fill = [_filler(rng, n)]
    patterns, replacements, lines = [], [], []
    usable = [rel for rel in catalog if rel.min_dim <= n]
    for _ in range(steps):
        rel = rng.choice(usable)
        indices = rng.sample(range(1, n + 1), len(rel.formals))
        asg = dict(zip(rel.formals, indices))
        lhs, rhs = instantiate(rel.lhs, asg), instantiate(rel.rhs, asg)
        direction = rng.choice(("L->R", "R->L"))
        pat, rep = (lhs, rhs) if direction == "L->R" else (rhs, lhs)
        patterns.append(pat)
        replacements.append(rep)
        binding = ",".join(f"{f}={i}" for f, i in asg.items())
        lines.append((rel.id, direction, binding))
        fill.append(_filler(rng, n))
    start, final = list(fill[0]), list(fill[0])
    text_steps = []
    for i, (rid, direction, binding) in enumerate(lines):
        # earlier blocks are already rewritten when step i runs
        text_steps.append(f"step {rid} {direction} at {len(final)} with {binding}")
        start += patterns[i] + fill[i + 1]
        final += replacements[i] + fill[i + 1]

    def word(tokens):
        return f"n={n} " + (" ".join(tokens) if tokens else "eps")

    return "\n".join([word(start), *text_steps, word(final)]), steps
