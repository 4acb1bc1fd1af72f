"""Random well-typed programs for the combinator languages.

Generation is input-driven, mirroring the type checker: at each node the
choices are the primitives that structurally match the current source type
plus the three combinators, so every emitted term typechecks by
construction.  shared_chain_term reuses one built seq chain object in
several places of a term.  qubit_circuits builds fixed gate circuits on
three qubits, and classical_circuit seeded circuits of X, CX and CCX on
register(k), the benchmark's k-qubit type.
"""

import importlib.util
import random
from pathlib import Path

from hadpi.lang import (
    Factorz,
    LangError,
    ONE,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    TWO,
    Term,
    ValueType,
    ZERO,
    Zero,
    ctrl,
    hdim,
    inverse,
    primitives,
    seqs,
    typecheck,
)


def rand_type(rng: random.Random, max_dim: int = 8, min_dim: int = 0) -> ValueType:
    """A small value type with min_dim <= hdim <= max_dim."""
    while True:
        b = _grow_type(rng, 3)
        if min_dim <= hdim(b) <= max_dim:
            return b


def _grow_type(rng: random.Random, depth: int) -> ValueType:
    r = rng.random()
    if depth == 0 or r < 0.45:
        return rng.choice((ZERO, ONE, ONE, TWO))
    ctor = Sum if r < 0.75 else Prod
    return ctor(_grow_type(rng, depth - 1), _grow_type(rng, depth - 1))


def _applicable(b: ValueType, lang: str) -> list:
    out = []
    for name in sorted(primitives(lang)):
        try:
            typecheck(Prim(name), b, lang)
        except LangError:
            continue
        out.append(Prim(name))
    if isinstance(b, Zero):
        out.append(Factorz(ONE))
        out.append(Factorz(TWO))
    return out


def rand_term(rng: random.Random, b: ValueType, lang: str = "qpi", depth: int = 4) -> Term:
    """A random term accepted by typecheck(_, b, lang)."""
    prims = _applicable(b, lang)
    if depth == 0:
        return rng.choice(prims)
    r = rng.random()
    if r < 0.45:
        return rng.choice(prims)
    if r < 0.75:
        fst = rand_term(rng, b, lang, depth - 1)
        mid = typecheck(fst, b, lang).dst
        return Seq(fst, rand_term(rng, mid, lang, depth - 1))
    if isinstance(b, Sum):
        return SumC(
            rand_term(rng, b.left, lang, depth - 1),
            rand_term(rng, b.right, lang, depth - 1),
        )
    if isinstance(b, Prod):
        return ProdC(
            rand_term(rng, b.left, lang, depth - 1),
            rand_term(rng, b.right, lang, depth - 1),
        )
    return rng.choice(prims)


def shared_chain_term(rng: random.Random, b: ValueType, lang: str = "qpi", depth: int = 3):
    """(term, s, back): a random chain s from b, back its inverse, and a term
    accepted at b that reuses the one object s at b in several places, in a
    longer chain and nested in it to the left and to the right.  The term's
    target is s's."""
    parts, t = [], b
    for _ in range(rng.randint(2, 4)):
        parts.append(rand_term(rng, t, lang, depth))
        t = typecheck(parts[-1], t, lang).dst
    s = seqs(*parts)
    back = inverse(s, b, lang)
    loop = Seq(s, back)
    return seqs(loop, s, back, Seq(loop, Seq(s, back)), s), s, back


# ---------------------------------------------------------------------------
# gate circuits on three qubits

QUBITS3 = Prod(TWO, Prod(TWO, TWO))
_GATES = {"H": Prim("had"), "X": Prim("swap+"), "Z": SumC(Prim("id"), Prim("neg1"))}


def _on_wire(g: Term, i: int, k: int) -> Term:
    """One-qubit gate g on wire i of k qubits, (1+1)*((1+1)*...)."""
    if k == 1:
        return g
    if i == 0:
        return ProdC(g, Prim("id"))
    return ProdC(Prim("id"), _on_wire(g, i - 1, k - 1))


def qubit_circuits() -> list[Term]:
    """Fixed circuits on QUBITS3: GHZ preparation, Toffoli, a conjugated
    controlled-controlled Z and a conjugated controlled H*Z, then 12 seeded
    ones of four one-qubit gates and three gates controlled by wire 0."""
    h = [_on_wire(_GATES["H"], i, 3) for i in range(3)]
    cx = [ctrl(_on_wire(_GATES["X"], i, 2)) for i in range(2)]
    out = [
        seqs(h[0], cx[0], cx[1]),
        ctrl(ctrl(_GATES["X"])),
        seqs(h[2], ctrl(ctrl(_GATES["Z"])), h[2]),
        seqs(*h, ctrl(ProdC(_GATES["H"], _GATES["Z"])), *h),
    ]
    rng = random.Random(3)
    return out + [rand_qubit_circuit(rng, 4, 3) for _ in range(12)]


def rand_qubit_circuit(rng: random.Random, local: int, controlled: int) -> Term:
    """A seeded circuit on QUBITS3: `local` one-qubit gates on any wire and
    `controlled` gates on wires 1 and 2 controlled by wire 0, shuffled."""
    kinds = [False] * local + [True] * controlled
    rng.shuffle(kinds)
    gates = []
    for is_ctrl in kinds:
        g = _GATES[rng.choice("HXZ")]
        if is_ctrl:
            gates.append(ctrl(_on_wire(g, rng.randrange(2), 2)))
        else:
            gates.append(_on_wire(g, rng.randrange(3), 3))
    return seqs(*gates)


def _load_bench_inputs():
    # the benchmark's inputs, loaded by path: hadpibench is not a package
    path = Path(__file__).resolve().parents[1] / "hadpibench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("hadpibench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


register = _load_bench_inputs().register


def classical_circuit(rng: random.Random, k: int, gates: int) -> Term:
    """A seeded circuit on register(k), k >= 3, of X, CX and CCX gates: the
    X on any wire past its controls, which are wires 0 and 1."""
    out = []
    for _ in range(gates):
        controls = rng.randrange(3)
        g = _on_wire(_GATES["X"], rng.randrange(k - controls), k - controls)
        for _ in range(controls):
            g = ctrl(g)
        out.append(g)
    return seqs(*out)
