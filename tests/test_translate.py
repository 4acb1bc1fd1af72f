"""Translations between programs and generator words."""

import hashlib
import math
import random
import sys

import pytest

import hadpi.lang
from hadpi import translate
from hadpi.lang import (
    Factorz,
    GATE_CX,
    GATE_H,
    LangError,
    ONE,
    One,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    TWO,
    ZERO,
    Zero,
    format_term,
    format_type,
    hdim,
    lower,
    nsum,
    parse_term,
    sem,
    seqs,
    typecheck,
)
from hadpi.linalg import (
    ExactMatrix,
    Generator,
    gen_h,
    gen_x,
    gen_z,
    m_level_embed,
)
from hadpi.translate import (
    TranslateError,
    TranslationReport,
    t_h,
    t_h_lower,
    t_q,
    wsem,
)
from hadpi.words import Word, WordError, format_word, program_matrix, word_sem
from oracles import H_BLOCK, oracle_type, oracle_word
from termgen import (
    QUBITS3,
    _load_bench_inputs,
    qubit_circuits,
    rand_qubit_circuit,
    rand_term,
    rand_type,
    register,
)

HAD = Prim("had")
NEG1 = Prim("neg1")
ID = Prim("id")


def pad(m):
    return ExactMatrix.identity(1).direct_sum(m)


# ---------------------------------------------------------------------------
# wsem


def test_wsem_primitives_frozen():
    assert wsem(NEG1, ONE) == Word(1, (gen_z(1),))
    assert wsem(HAD, TWO) == Word(2, (gen_h(1, 2),))
    assert wsem(ID, nsum(3)) == Word(3, ())
    assert wsem(Factorz(TWO), ZERO) == Word(0, ())
    # every unitary iso maps to the empty word over its dimension
    for name, b in [
        ("assocr+", Sum(Sum(ONE, ONE), ONE)),
        ("unite+", Sum(ZERO, TWO)),
        ("assocl*", Prod(TWO, Prod(TWO, ONE))),
        ("dist", Prod(Sum(ONE, ONE), TWO)),
        ("absorb", Prod(TWO, ZERO)),
    ]:
        w = wsem(Prim(name), b)
        assert w.gens == () and w.n == hdim(b)


def test_wsem_swaps_are_permutations():
    b = Sum(TWO, ONE)
    m = word_sem(wsem(Prim("swap+"), b))
    assert m == sem(Prim("swap+"), b)
    b = Prod(TWO, Sum(TWO, ONE))
    m = word_sem(wsem(Prim("swap*"), b))
    assert m == sem(Prim("swap*"), b)


def test_wsem_seq_order():
    # [[c1 ; c2]] = [[c2]] [[c1]], so c2's generators come first in the word
    c = Seq(HAD, SumC(NEG1, ID))
    assert wsem(c, TWO).gens == (gen_z(1), gen_h(1, 2))


def _oracle_matrix(c, b):
    """word_sem of the structural translation of c at b (tests/oracles.py)."""
    return word_sem(oracle_word(c, oracle_type(b))[1])


def test_wsem_sum_shifts_right_operand():
    # the right operand acts past the left one's rows, one generator each
    c = SumC(NEG1, HAD)
    w = wsem(c, Sum(ONE, TWO))
    assert w.n == 3 and sorted(w.gens) == [gen_h(2, 3), gen_z(1)]
    assert word_sem(w) == _oracle_matrix(c, Sum(ONE, TWO))


def test_wsem_id_times_copies_blocks():
    # one H per block of two rows, and no permutation word
    c = ProdC(ID, HAD)
    for m in (2, 3):
        b = Prod(nsum(m), TWO)
        w = wsem(c, b)
        assert w.n == 2 * m and sorted(w.gens) == [gen_h(2 * i + 1, 2 * i + 2) for i in range(m)]
        assert word_sem(w) == _oracle_matrix(c, b)


def test_wsem_general_product():
    for c, b in [
        (ProdC(HAD, ID), Prod(TWO, TWO)),
        (ProdC(HAD, NEG1), Prod(TWO, ONE)),
        (ProdC(SumC(NEG1, ID), HAD), Prod(TWO, TWO)),
        (ProdC(HAD, HAD), Prod(TWO, TWO)),
    ]:
        assert word_sem(wsem(c, b)) == sem(c, b)


def test_wsem_faithful_random():
    rng = random.Random(2026)
    for _ in range(250):
        b = rand_type(rng, max_dim=8)
        c = rand_term(rng, b, "qpi")
        w = wsem(c, b)
        assert w.n == hdim(b)
        assert word_sem(w) == sem(c, b)


def _wsem_corpus():
    """(source type, qpi program): seeded random terms, zero-dimension and
    swap* inputs among them, then three-qubit circuits of the benchmark's
    qpi->words shape, ten one-qubit gates and six controlled ones."""
    rng = random.Random(7)
    out = []
    for _ in range(200):
        b = rand_type(rng, max_dim=8)
        out.append((b, rand_term(rng, b, "qpi")))
    out += [(ZERO, Factorz(TWO)), (Prod(TWO, ZERO), Prim("swap*"))]
    swap_both = seqs(Prim("swap*"), ProdC(HAD, SumC(NEG1, Prim("swap+"))), Prim("swap*"))
    out.append((Prod(nsum(3), TWO), swap_both))
    return out + [(QUBITS3, rand_qubit_circuit(rng, 10, 6)) for _ in range(30)]


def test_wsem_agrees_with_sem_and_the_structural_oracle():
    # wsem and sem share the lowered program; the oracle translates clause
    # by clause, so a fault in the lowering shows against it
    corpus = _wsem_corpus()
    # _preorder lists a composite by its class
    kinds = {
        (x if isinstance(x, type) else type(x)).__name__
        for _, c in corpus
        for x in hadpi.lang._preorder(c)
    }
    assert {"SumC", "ProdC", "Seq", "Factorz"} <= kinds
    assert any(hdim(b) == 0 for b, _ in corpus)
    assert any(x == Prim("swap*") for _, c in corpus for x in hadpi.lang._preorder(c))
    for b, c in corpus:
        w = wsem(c, b)
        d, ow = oracle_word(c, oracle_type(b))
        assert w.n == ow.n == hdim(b)
        assert word_sem(w) == sem(c, b) == word_sem(ow), (format_term(c), format_type(b))
        assert d == oracle_type(typecheck(c, b).dst)


def test_wsem_words_are_a_signed_permutation_then_ascending_hs():
    # swaps and neg1 cost no generator inside the word: the Z and X of the
    # final signed relabelling come first, then at most one ascending H
    # per placed had copy
    for b, c in _wsem_corpus():
        gens = wsem(c, b).gens
        ops = lower(c, b)[1]
        copies = sum(math.prod(n for n, _ in grid) for name, _, grid, *_ in ops if name == "had")
        hs = [i for i, g in enumerate(gens) if g.kind == "H"]
        assert all(gens[i].idx[0] < gens[i].idx[1] for i in hs)
        assert hs == list(range(len(gens) - len(hs), len(gens))), format_term(c)
        assert len(hs) <= copies


# sha256 of the words of the wide-register corpus below, recorded when
# lang.lower placed each copy on a row list of its own
WIDE_GOLDEN_SHA256 = "5852348527f397ddbf9207a6556b8051ae0825fb3a21f63be6c17f9b16fc8967"


def test_wsem_words_on_wide_registers_are_pinned():
    # gates on registers of 4-10 qubits run on grids of up to 512 copies,
    # past the 3 qubits of the goldens, so the order of their Hs shows here
    inputs = _load_bench_inputs()
    digest = hashlib.sha256()
    for k in (4, 6, 8, 10):
        for s in range(3):
            c = inputs.rand_circuit(random.Random(f"wide-{k}-{s}"), k, 12, 6)
            digest.update((format_word(wsem(c, inputs.register(k))) + "\n").encode())
    assert digest.hexdigest() == WIDE_GOLDEN_SHA256


def test_wsem_rejects_ill_typed():
    with pytest.raises(LangError):
        wsem(NEG1, TWO)


# ---------------------------------------------------------------------------
# t_q


def test_t_q_empty_word():
    assert t_q(Word(3, ())) == ID


def test_t_q_generator_shapes_frozen():
    assert format_term(t_q(Word(1, (gen_z(1),)))) == "id ; neg1 ; id"
    assert format_term(t_q(Word(2, (gen_h(1, 2),)))) == "id ; id ; had ; id ; id"
    assert format_term(t_q(Word(2, (gen_x(1, 2),)))) == "swap+"


def test_t_q_single_generators_all_positions():
    for n in range(1, 7):
        for a in range(1, n + 1):
            w = Word(n, (gen_z(a),))
            assert sem(t_q(w), nsum(n)) == word_sem(w)
        for b in range(1, n + 1):
            for c in range(b + 1, n + 1):
                for mk in (gen_x, gen_h):
                    w = Word(n, (mk(b, c),))
                    got = t_q(w)
                    assert typecheck(got, nsum(n), "qpi").dst == nsum(n)
                    assert sem(got, nsum(n)) == word_sem(w)


def test_t_q_hadamard_next_to_top():
    # the conjugation must hold even when the target block touches n-1
    w = Word(4, (gen_h(2, 3),))
    m = sem(t_q(w), nsum(4))
    assert m == m_level_embed(H_BLOCK, [2, 3], 4)


def test_t_q_word_order():
    w = Word(2, (gen_z(1), gen_h(1, 2)))
    assert sem(t_q(w), nsum(2)) == word_sem(w)
    assert word_sem(w) != word_sem(Word(2, (gen_h(1, 2), gen_z(1))))


def _check_t_q_random(rng, n, length):
    gens = []
    for _ in range(length):
        kind = rng.choice("ZXH") if n >= 2 else "Z"
        if kind == "Z":
            gens.append(gen_z(rng.randint(1, n)))
        else:
            b = rng.randint(1, n - 1)
            gens.append(Generator(kind, (b, rng.randint(b + 1, n))))
    w = Word(n, tuple(gens))
    got = t_q(w)
    assert typecheck(got, nsum(n), "qpi").dst == nsum(n)
    assert sem(got, nsum(n)) == word_sem(w)


def test_t_q_random_words():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(1, 6)
        _check_t_q_random(rng, n, rng.randint(0, 14))
    # deep block offsets and strides in the evaluator
    _check_t_q_random(rng, 24, 48)


def test_t_q_rejects_out_of_range():
    with pytest.raises(WordError):
        t_q(Word(2, (gen_z(3),)))
    with pytest.raises(WordError):
        t_q(Word(3, (Generator("H", (0, 2)),)))


def test_roundtrip_programs_to_words_and_back():
    rng = random.Random(404)
    for _ in range(60):
        b = rand_type(rng, max_dim=8)
        c = rand_term(rng, b, "qpi")
        back = t_q(wsem(c, b))
        rep = TranslationReport(c, back, sem(c, b), sem(back, nsum(hdim(b))))
        assert rep.padding == 0
        assert rep.result_matrix == sem(c, b)
    back = t_q(wsem(GATE_CX, Prod(TWO, TWO)))
    rep = TranslationReport(GATE_CX, back, sem(GATE_CX, Prod(TWO, TWO)), sem(back, nsum(4)))
    assert rep.source_matrix == rep.result_matrix


# ---------------------------------------------------------------------------
# embedding of Hadamard-programs: the identity on terms, gated by the
# parser and by typing in hpi


def test_qsem_rejects_neg1():
    for text in ("had ; (neg1 + id)", "id * neg1"):
        with pytest.raises(LangError, match="^neg1 is not in hpi$"):
            parse_term(text, "hpi")
    # the walk names a nested primitive outside hpi by its path
    with pytest.raises(LangError) as exc:
        typecheck(seqs(HAD, SumC(NEG1, ID)), TWO, lang="hpi")
    assert str(exc.value) == "at seq.snd.sum.left: primitive neg1 is not part of hpi"
    with pytest.raises(LangError) as exc:
        typecheck(ProdC(ID, NEG1), Prod(TWO, ONE), lang="hpi")
    assert str(exc.value) == "at prod.right: primitive neg1 is not part of hpi"


# ---------------------------------------------------------------------------
# t_h


def test_t_h_neg1_becomes_conjugated_swap():
    c = t_h(NEG1, ONE)
    assert c == seqs(HAD, Prim("swap+"), HAD)
    assert sem(c, Sum(ONE, ONE)) == pad(sem(NEG1, ONE))


def test_t_h_pads_other_primitives():
    assert t_h(HAD, TWO) == SumC(ID, HAD)
    assert t_h(Prim("swap+"), Sum(ONE, TWO)) == SumC(ID, Prim("swap+"))
    assert t_h(Factorz(TWO), ZERO) == SumC(ID, Factorz(TWO))
    assert sem(t_h(Factorz(TWO), ZERO), Sum(ONE, ZERO)) == ExactMatrix.identity(1)


def test_t_h_seq_maps_pointwise():
    assert t_h(seqs(HAD, HAD), TWO) == seqs(SumC(ID, HAD), SumC(ID, HAD))


def test_t_h_sum_clause():
    c = SumC(NEG1, HAD)
    b = Sum(ONE, TWO)
    h = t_h(c, b)
    assert format_term(h).startswith("assocl+ ; ")
    assert typecheck(h, Sum(ONE, b), "hpi").dst == Sum(ONE, b)
    assert sem(h, Sum(ONE, b)) == pad(sem(c, b))


ID_TIMES_CASES = [
    (Prod(ZERO, TWO), "zero left factor"),
    (Prod(ONE, TWO), "unit left factor"),
    (Prod(Sum(ONE, ONE), TWO), "sum left factor"),
    (Prod(Prod(ZERO, ONE), TWO), "nested zero"),
    (Prod(Prod(ONE, TWO), TWO), "nested unit"),
    (Prod(Prod(Sum(ONE, ONE), ONE), TWO), "nested sum"),
    (Prod(Prod(Prod(ONE, ONE), ONE), TWO), "nested product"),
]


@pytest.mark.parametrize("b,label", ID_TIMES_CASES, ids=[l for _, l in ID_TIMES_CASES])
def test_t_h_id_times_clauses(b, label):
    c = ProdC(ID, HAD)
    h = t_h(c, b)
    assert typecheck(h, Sum(ONE, b), "hpi").dst == Sum(ONE, b)
    assert sem(h, Sum(ONE, b)) == pad(sem(c, b))


def test_t_h_zero_clause_annotates_factorz():
    h = t_h(ProdC(ID, HAD), Prod(ZERO, TWO))
    anns = [n.operand for n in _walk(h) if isinstance(n, Factorz)]
    assert anns == [TWO]
    h = t_h(ProdC(ID, HAD), Prod(Prod(ZERO, ONE), TWO))
    anns = [n.operand for n in _walk(h) if isinstance(n, Factorz)]
    assert anns == [Prod(ONE, TWO)]


def _walk(c):
    stack = [c]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Seq):
            stack.extend((node.fst, node.snd))
        elif isinstance(node, (SumC, ProdC)):
            stack.extend((node.left, node.right))


def test_t_h_clause_text_is_pinned():
    # a 0 factor's clause names c's target in its factorz: here 1, then 1+1
    h = t_h(SumC(ProdC(ID, ID), ProdC(ID, ID)), Sum(Prod(ZERO, ONE), Prod(ZERO, TWO)))
    assert format_term(h) == (
        "assocl+ ; (id + (swap* ; absorb ; id ; factorz ; swap*)) + id ; swap+ + id ;"
        " assocr+ ; id + id + (swap* ; absorb ; id ; factorz{1+1} ; swap*) ; assocl+ ;"
        " swap+ + id ; assocr+"
    )


def test_t_h_keeps_a_clause_per_target():
    # both swap+ leaves translate to one shared id + swap+, beside a 0
    # factor at two targets: each clause must name its own
    swap = Prim("swap+")
    c = SumC(ProdC(ID, swap), ProdC(ID, swap))
    b = Sum(Prod(ZERO, Sum(ONE, TWO)), Prod(ZERO, Sum(TWO, ONE)))
    h = t_h(c, b)
    anns = {n.operand for n in _walk(h) if isinstance(n, Factorz)}
    assert anns == {Sum(TWO, ONE), Sum(ONE, TWO)}
    assert typecheck(h, Sum(ONE, b), "hpi").dst == Sum(ONE, typecheck(c, b).dst)
    assert t_h_lower(h, b)[0] == Sum(ONE, Sum(Prod(ZERO, Sum(TWO, ONE)), Prod(ZERO, Sum(ONE, TWO))))


def test_t_h_general_product():
    c = ProdC(HAD, SumC(NEG1, ID))
    b = Prod(TWO, Sum(ONE, ONE))
    h = t_h(c, b)
    assert typecheck(h, Sum(ONE, b), "hpi").dst == Sum(ONE, b)
    assert sem(h, Sum(ONE, b)) == pad(sem(c, b))


def test_t_h_gates():
    for c, b in [(GATE_CX, Prod(TWO, TWO)), (GATE_H, TWO)]:
        assert sem(t_h(c, b), Sum(ONE, b)) == pad(sem(c, b))


def test_t_h_random():
    rng = random.Random(88)
    for _ in range(150):
        b = rand_type(rng, max_dim=6)
        c = rand_term(rng, b, "qpi")
        d = typecheck(c, b, "qpi").dst
        h = t_h(c, b)
        ty = typecheck(h, Sum(ONE, b), "hpi")
        assert ty.dst == Sum(ONE, d)
        assert sem(h, Sum(ONE, b)) == pad(sem(c, b))


def test_t_h_output_avoids_neg1():
    rng = random.Random(89)
    for _ in range(40):
        b = rand_type(rng, max_dim=6)
        c = rand_term(rng, b, "qpi")
        # typing in hpi refuses any primitive outside it
        typecheck(t_h(c, b), Sum(ONE, b), "hpi")


def rank(b) -> int:
    """Termination measure for the id_b * c clauses of t_h."""
    if isinstance(b, Zero):
        return 1
    if isinstance(b, One):
        return 2
    if isinstance(b, Sum):
        return rank(b.left) + rank(b.right)
    return (rank(b.left) + 1) ** 2 * rank(b.right)


def test_rank_frozen_values():
    assert rank(ZERO) == 1
    assert rank(ONE) == 2
    assert rank(Sum(ONE, ONE)) == 4
    assert rank(Prod(TWO, TWO)) == 100
    assert rank(Prod(ZERO, ONE)) == 8


def test_t_h_id_times_clauses_lower_the_measure(monkeypatch):
    # an id_b * c clause is built from the clauses id_b' * c, for the same
    # translation and target of c, only with rank(b') < rank(b): so t_h
    # terminates
    checked = 0
    real = translate._th_reducts

    def recording(b):
        nonlocal checked
        reducts = real(b)
        for r in reducts:
            assert rank(r) < rank(b), (format_type(r), format_type(b))
            checked += 1
        return reducts

    monkeypatch.setattr(translate, "_th_reducts", recording)
    for b, _ in ID_TIMES_CASES:
        t_h(ProdC(ID, HAD), b)
    rng = random.Random(90)
    for _ in range(60):
        b = rand_type(rng, max_dim=6)
        t_h(rand_term(rng, b, "qpi"), b)
    assert checked >= 20, checked


def test_t_h_of_id_times_a_deep_type_needs_no_recursion():
    # nsum(300) nests 299 sums: the clauses of id_b * had are built under a
    # recursion limit far below that depth
    c, b = ProdC(ID, HAD), Prod(nsum(300), nsum(2))
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 100)
    try:
        h = t_h(c, b)
    finally:
        sys.setrecursionlimit(saved)
    dst, ops = t_h_lower(h, b)
    assert dst == Sum(ONE, typecheck(c, b).dst)
    assert program_matrix(ops, hdim(b) + 1) == pad(sem(c, b))


def test_t_h_deep_chain():
    c = seqs(*([HAD] * 1200))
    h = t_h(c, TWO)
    assert sem(h, Sum(ONE, TWO)) == pad(sem(c, TWO))


# ---------------------------------------------------------------------------
# printed translations: shared subterms print as the tree they stand for


def _hpi_corpus():
    """(source type, qpi program): 40 seeded random terms, then the fixed
    three-qubit circuits."""
    rng = random.Random(2609)
    out = []
    for _ in range(40):
        b = rand_type(rng, 8, 1)
        out.append((b, rand_term(rng, b, "qpi", 4)))
    return out + [(QUBITS3, c) for c in qubit_circuits()]


# sha256 of the printed corpus below, recorded before t_h shared subterms;
# it changes only if the printed hpi translation changes
HPI_GOLDEN_SHA256 = "755c2c85274d6157b1913a3d00509412107bea1907eddde7799d65782300a678"


def test_t_h_output_text_is_pinned():
    text = "".join(
        f"{format_type(b)} | {format_term(c)} -> {format_term(t_h(c, b))}\n"
        for b, c in _hpi_corpus()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == HPI_GOLDEN_SHA256


def _distinct(c) -> list:
    """Every distinct node object of c, once."""
    seen, out, stack = set(), [], [c]
    while stack:
        x = stack.pop()
        if id(x) not in seen:
            seen.add(id(x))
            out.append(x)
            if isinstance(x, Seq):
                stack += (x.fst, x.snd)
            elif isinstance(x, (SumC, ProdC)):
                stack += (x.left, x.right)
    return out


def test_t_h_shares_its_fixed_fragments():
    hs = [t_h(c, QUBITS3) for c in qubit_circuits()]
    tree = sum(_node_counts(h)[0] for h in hs)
    distinct = sum(_node_counts(h)[1] for h in hs)
    # 9,575 composites in the trees, 3,691 distinct when each fixed
    # fragment and each primitive's translation was built at every use,
    # 2,596 when they are shared
    assert tree == 9575 and distinct <= 2596, distinct
    assert sum(len(_distinct(h)) for h in hs) <= 2903


def _t_q_corpus():
    """A seeded word of 2n generators at each n = 1..40."""
    rng = random.Random(2810)
    out = []
    for n in range(1, 41):
        gens = []
        for _ in range(2 * n):
            if n == 1 or rng.random() < 1 / 3:
                gens.append(gen_z(rng.randint(1, n)))
            else:
                b, c = sorted(rng.sample(range(1, n + 1), 2))
                gens.append(rng.choice((gen_x, gen_h))(b, c))
        out.append(Word(n, tuple(gens)))
    return out


# sha256 of the printed programs of the corpus above, recorded before t_q
# built each rung as one sum around the rung above it
TQ_GOLDEN_SHA256 = "8a21309fd211b2f70bd51d9a625558767ec8f9897bfb8b0b5182cf1d05e2fb7c"


def test_t_q_output_text_is_pinned():
    text = "".join(format_term(t_q(w)) + "\n" for w in _t_q_corpus())
    assert hashlib.sha256(text.encode()).hexdigest() == TQ_GOLDEN_SHA256


def test_t_q_rungs_take_a_sum_each():
    n = 1000
    sums = [x for x in _distinct(t_q(Word(n, (gen_z(1),)))) if isinstance(x, SumC)]
    # rungs 2..n-2 are one sum each; the last rung (ids around swap+) and
    # the neg1 tail are chains of n-2 and n-1 sums with leaves of their
    # own, so 3n-5 is the least of any program printing this text.  It was
    # about n^2/2 (500,498) when each rung was its own chain of ids
    assert len(sums) == 3 * n - 5, len(sums)


def _unshared(c):
    """A copy of c with a fresh object at every node of its tree."""
    if isinstance(c, Prim):
        return Prim(c.name)
    if isinstance(c, Factorz):
        return Factorz(c.operand)
    if isinstance(c, Seq):
        snds = []
        while isinstance(c, Seq):
            snds.append(c.snd)
            c = c.fst
        out = _unshared(c)
        for snd in reversed(snds):
            out = Seq(out, _unshared(snd))
        return out
    return type(c)(_unshared(c.left), _unshared(c.right))


def _rand_word(rng, n, length):
    gens = []
    for _ in range(length):
        b, c = sorted(rng.sample(range(1, n + 1), 2))
        gens.append(rng.choice((gen_z(b), gen_x(b, c), gen_h(b, c))))
    return Word(n, tuple(gens))


def _node_counts(c):
    """(composite nodes of c's tree, distinct composite node objects)."""
    nodes = [n for n in _walk(c) if isinstance(n, (Seq, SumC, ProdC))]
    return len(nodes), len({id(n) for n in nodes})


def test_shared_outputs_print_as_their_unshared_copies():
    rng = random.Random(4)
    terms = [t_h(c, QUBITS3) for c in qubit_circuits()]
    terms += [t_h(c, b) for b, c in _hpi_corpus()[:40:4]]
    terms += [t_q(_rand_word(rng, n, 2 * n)) for n in (3, 6, 12)]
    # one node at every binding level: bare, and in parentheses
    s = SumC(HAD, ID)
    x = Seq(HAD, HAD)
    terms.append(seqs(s, ProdC(s, s), SumC(s, s), SumC(x, x), ProdC(x, SumC(ID, x)), s))
    for c in terms:
        copy = _unshared(c)
        tree, distinct = _node_counts(copy)
        assert distinct == tree and (tree, copy) == (_node_counts(c)[0], c)
        assert format_term(c) == format_term(copy)
    # the circuits' translations and the words' programs do share nodes
    shared = [c for c in terms if _node_counts(c)[1] < _node_counts(c)[0]]
    assert len(shared) >= len(qubit_circuits())


def _shared_printed_texts() -> list[str]:
    """The printed t_h outputs of the three-qubit circuits, the printed t_q
    outputs of seeded words at n = 3, 6, 12 and 32, and printed types of
    nsum(n) and register(k), all built with shared parts."""
    rng = random.Random(35)
    texts = [format_term(t_h(c, QUBITS3)) for c in qubit_circuits()]
    texts += [format_term(t_q(_rand_word(rng, n, 2 * n))) for n in (3, 6, 12, 32)]
    texts += [format_type(nsum(n)) for n in (0, 1, 2, 5, 1000)]
    texts += [format_type(register(k)) for k in range(1, 11)]
    return texts


def test_shared_printed_text_is_pinned():
    # recorded before the printer lost its chain runs to one stack loop
    text = "\n".join(_shared_printed_texts())
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1231404962aec877a3f04b77fedfa22d47b752ada416b029c4fc45ea6e986df5"
    )


def test_printing_a_shared_program_renders_each_node_once(monkeypatch):
    c = t_q(_rand_word(random.Random(32), 32, 64))
    calls = 0

    class Counting(dict):
        # a composite that _render expands reads its level and separator here
        def __getitem__(self, kind):
            nonlocal calls
            calls += 1
            return dict.__getitem__(self, kind)

    monkeypatch.setattr(hadpi.lang, "_INFIX", Counting(hadpi.lang._INFIX))
    text = format_term(c)
    # an expansion per composite of the tree would be one per leaf at least
    leaves = sum(1 for node in _walk(c) if isinstance(node, Prim))
    assert calls < leaves / 10, (calls, leaves)
    # one separator per binary node of the tree
    assert sum(text.count(op) for op in (" ; ", " + ", " * ")) + 1 == leaves


# ---------------------------------------------------------------------------
# reports


def test_report_records_padding():
    m = ExactMatrix.identity(2)
    rep = TranslationReport(None, None, m, m)
    assert rep.padding == 0
    rep = TranslationReport(None, None, m, ExactMatrix.identity(1).direct_sum(m), 1)
    assert rep.padding == 1


def test_report_rejects_wrong_matrices():
    with pytest.raises(TranslateError):
        TranslationReport(None, None, ExactMatrix.identity(2), ExactMatrix.identity(3))
    with pytest.raises(TranslateError):
        TranslationReport(
            None, None, H_BLOCK, ExactMatrix.identity(3), padding=1
        )
