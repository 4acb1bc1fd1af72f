"""Typing, semantics, and syntax of the combinator languages."""

import copy
import gc
import hashlib
import pickle
import random
import sys
import time

import pytest

from hadpi.lang import (
    BudgetError,
    CombinatorType,
    Factorz,
    GATE_CCX,
    GATE_CH,
    GATE_CX,
    GATE_H,
    GATE_X,
    LangError,
    ONE,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    TWO,
    ZERO,
    ctrl,
    format_term,
    format_type,
    hdim,
    infer_source,
    inverse,
    iterate,
    nsum,
    parse_term,
    parse_type,
    primitives,
    sem,
    seqs,
    swap_plus_at,
    term_equivalence,
    typecheck,
)
import hadpi.lang
import hadpi.linalg
import hadpi.words
from hadpi.linalg import ExactMatrix, Generator, _reduced_column, m_level_embed
from hadpi.translate import TranslateError, TranslationReport, t_h, t_q, wsem
from hadpi.words import RELATION_BY_ID, Word, verify_relation, word_sem
from oracles import (
    _ORACLE_PRIMS, H_BLOCK, MINUS_ONE, X_BLOCK, OracleTypeError, _oracle_prim, oracle_type,
)
from termgen import classical_circuit, rand_term, rand_type, register

HAD = Prim("had")
NEG1 = Prim("neg1")
SWP = Prim("swap+")
ID = Prim("id")

HXH = seqs(HAD, SWP, HAD)


def test_hdim():
    assert hdim(TWO) == 2
    assert hdim(Prod(TWO, TWO)) == 4
    assert hdim(Prod(TWO, ZERO)) == 0
    assert hdim(Sum(Prod(TWO, TWO), ONE)) == 5
    assert nsum(0) == ZERO
    assert nsum(3) == Sum(ONE, Sum(ONE, ONE))
    assert hdim(nsum(9)) == 9
    assert hdim(nsum(1024)) == 1024 and nsum(1024).depth == 1023


def test_typecheck_primitives():
    assert typecheck(HAD, TWO) == CombinatorType(TWO, TWO)
    got = typecheck(Prim("dist"), Prod(TWO, ONE))
    assert got.dst == Sum(Prod(ONE, ONE), Prod(ONE, ONE))
    assert typecheck(Prim("uniti*"), TWO).dst == Prod(ONE, TWO)
    assert typecheck(Prim("unite+"), Sum(ZERO, TWO)).dst == TWO
    assert typecheck(Prim("absorb"), Prod(TWO, ZERO)).dst == ZERO
    assert typecheck(Factorz(TWO), ZERO).dst == Prod(TWO, ZERO)
    assert str(typecheck(HAD, TWO)) == "1+1 <-> 1+1"


def test_typecheck_error_paths():
    with pytest.raises(LangError, match=r"at term: swap\* needs a product"):
        typecheck(Prim("swap*"), TWO)
    with pytest.raises(LangError, match=r"at seq\.snd: had needs input 1\+1"):
        typecheck(Seq(ID, HAD), ONE)
    with pytest.raises(LangError, match=r"at seq\.snd\.sum\.left: neg1 needs input 1"):
        typecheck(Seq(ID, SumC(NEG1, ID)), Sum(TWO, ONE))
    with pytest.raises(LangError, match="factor needs input"):
        typecheck(Prim("factor"), Sum(Prod(ONE, TWO), Prod(ONE, ONE)))
    with pytest.raises(LangError, match="unknown primitive"):
        typecheck(Prim("swap"), TWO)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: typecheck(Factorz(nsum(201)), ZERO),
            BudgetError,
            "at term: factorz nests the type more than 100 levels (MAX_NESTING)"
            " past the deeper of its source and MAX_NESTING",
        ),
        (lambda: typecheck(SumC(ID, "had"), TWO), LangError, "at sum.right: not a term: 'had'"),
        (lambda: infer_source(Prim("foo")), LangError, "unknown primitive foo"),
        (lambda: infer_source(Seq(HAD, "x")), LangError, "not a term: 'x'"),
        (lambda: nsum(-1), LangError, "nsum needs a natural number"),
    ],
    ids=["factorz-too-deep", "typecheck-not-a-term", "infer-unknown", "infer-not-a-term", "nsum"],
)
def test_rare_refusals_are_pinned(call, error, message):
    # refusals that no other test reaches, each with its class and message
    with pytest.raises(LangError) as exc:
        call()
    assert type(exc.value) is error and str(exc.value) == message


def _types_to_depth(depth: int) -> list:
    """Every value type over 0 and 1 of depth at most depth."""
    if depth == 0:
        return [ZERO, ONE]
    sub = _types_to_depth(depth - 1)
    return [ZERO, ONE] + [ctor(l, r) for ctor in (Sum, Prod) for l in sub for r in sub]


def test_rule_table_agrees_with_the_oracle():
    # every type of depth <= 2, and a fixed sample of depth 3: all 81,610
    # types of depth <= 3 in three languages would take minutes
    shallow = _types_to_depth(2)
    rng = random.Random(3)
    deep = [rng.choice((Sum, Prod))(*rng.choices(shallow, k=2)) for _ in range(300)]
    # equal right factors, as factor needs
    for _ in range(100):
        x, y, z = rng.choices(shallow, k=3)
        deep.append(Sum(Prod(x, z), Prod(y, z)))
    infer = hadpi.lang._infer
    for lang in ("pi", "qpi", "hpi"):
        assert primitives(lang) == _ORACLE_PRIMS[lang]
        for name in sorted(_ORACLE_PRIMS["qpi"]):
            for b in shallow + deep:
                try:
                    want = _oracle_prim(name, oracle_type(b), lang)[0]
                except OracleTypeError:
                    want = None
                try:
                    dst = typecheck(Prim(name), b, lang).dst
                except LangError:
                    assert want is None, (name, b, lang)
                    continue
                assert oracle_type(dst) == want, (name, b, lang)
                # inference reads the same rule
                assert infer(Prim(name), b, 10**6) == dst
                assert typecheck(inverse(Prim(name), b, lang), dst, lang).dst == b


def test_language_gating():
    assert typecheck(NEG1, ONE, lang="qpi").dst == ONE
    for lang in ("pi", "hpi"):
        with pytest.raises(LangError, match="neg1 is not part of"):
            typecheck(NEG1, ONE, lang=lang)
    assert typecheck(HAD, TWO, lang="hpi").dst == TWO
    with pytest.raises(LangError, match="had is not part of pi"):
        typecheck(HAD, TWO, lang="pi")
    assert typecheck(SWP, TWO, lang="pi").dst == TWO
    with pytest.raises(LangError, match="unknown language"):
        typecheck(ID, ONE, lang="quantum")
    assert primitives("pi") < primitives("hpi") < primitives("qpi")


def test_sem_base_cases():
    assert sem(HAD, TWO) == H_BLOCK
    assert sem(NEG1, ONE) == MINUS_ONE
    assert sem(SWP, TWO) == X_BLOCK
    assert sem(ID, Prod(TWO, TWO)) == ExactMatrix.identity(4)
    assert sem(Seq(HAD, HAD), TWO).is_identity()
    for name in ("assocr+", "unite+", "dist"):
        b = {"assocr+": Sum(TWO, ONE), "unite+": Sum(ZERO, TWO), "dist": Prod(TWO, TWO)}[name]
        assert sem(Prim(name), b).is_identity()


def test_sem_swap_sum_blocks():
    # left block of size 2 rotates past the right block of size 3
    m = sem(SWP, Sum(nsum(2), nsum(3)))
    want = [(1, 4), (2, 5), (3, 1), (4, 2), (5, 3)]
    for j, image in want:
        column = _reduced_column(m.ks, [r[j - 1] for r in m.ra], [r[j - 1] for r in m.rb])
        assert column == (0, [1 if i == image else 0 for i in range(1, 6)], [0] * 5)


def test_sem_swap_prod_transposes_pairs():
    rng = random.Random(20260815)
    for _ in range(25):
        n1 = rng.randrange(1, 5)
        n2 = rng.randrange(1, 5)
        m = sem(Prim("swap*"), Prod(nsum(n1), nsum(n2)))
        for i1 in range(1, n1 + 1):
            for i2 in range(1, n2 + 1):
                src = (i1 - 1) * n2 + i2
                dst = (i2 - 1) * n1 + i1
                assert (m.ks[dst - 1], m.ra[dst - 1][src - 1]) == (0, 1)


def test_sem_swap_prod_is_4x4_swap_gate():
    assert sem(Prim("swap*"), Prod(TWO, TWO)) == m_level_embed(X_BLOCK, [2, 3], 4)


def test_functoriality_random():
    rng = random.Random(4711)
    for _ in range(60):
        b = rand_type(rng, max_dim=8)
        c1 = rand_term(rng, b, depth=3)
        mid = typecheck(c1, b).dst
        c2 = rand_term(rng, mid, depth=3)
        assert sem(Seq(c1, c2), b) == sem(c2, mid).matmul(sem(c1, b))
    for _ in range(40):
        bl, br = rand_type(rng, max_dim=5), rand_type(rng, max_dim=5)
        cl, cr = rand_term(rng, bl, depth=3), rand_term(rng, br, depth=3)
        assert sem(SumC(cl, cr), Sum(bl, br)) == sem(cl, bl).direct_sum(sem(cr, br))
        assert sem(ProdC(cl, cr), Prod(bl, br)) == sem(cl, bl).tensor(sem(cr, br))


def test_orthogonality_and_dimension_random():
    rng = random.Random(99)
    for _ in range(150):
        b = rand_type(rng, max_dim=9)
        c = rand_term(rng, b, depth=4)
        t = typecheck(c, b)
        assert hdim(t.dst) == hdim(b)
        m = sem(c, b)
        assert m.n == hdim(b)
        assert m.is_orthogonal()


def test_inverse_random():
    rng = random.Random(31337)
    for _ in range(80):
        b = rand_type(rng, max_dim=8)
        c = rand_term(rng, b, depth=4)
        dst = typecheck(c, b).dst
        inv = inverse(c, b)
        assert typecheck(inv, dst).dst == b
        assert sem(inv, dst).matmul(sem(c, b)).is_identity()
        assert sem(inverse(inv, dst), b) == sem(c, b)


def test_inverse_of_absorb_restores_the_factor():
    b = Prod(Sum(TWO, ONE), ZERO)
    inv = inverse(Prim("absorb"), b)
    assert inv == Factorz(Sum(TWO, ONE))
    assert typecheck(inv, ZERO).dst == b


def test_one_depth_budget_per_walk():
    # factorz{b} at 0 builds b*0, deeper than the budget of its own input 0
    # but within that of the source: the walks behind inverse, wsem and t_h
    # answer it under the budget typecheck accepted it within
    deep = nsum(250)
    c, b = Seq(Prim("absorb"), Factorz(deep)), Prod(deep, ZERO)
    assert typecheck(c, b).dst is b
    inv = inverse(c, b)
    assert inv == c and typecheck(inv, b).dst is b  # its own inverse
    assert wsem(c, b) == Word(0, ())
    h = t_h(c, b)
    assert format_term(h) == "id + absorb ; id + factorz{" + format_type(deep) + "}"


def test_axioms_qpi():
    assert term_equivalence(Seq(NEG1, NEG1), ID, ONE, "qpi").equal
    assert term_equivalence(Seq(HAD, HAD), ID, TWO, "qpi").equal
    assert term_equivalence(HXH, SumC(ID, NEG1), TWO, "qpi").equal
    assert not term_equivalence(HAD, SWP, TWO, "qpi").equal


def test_axioms_hpi():
    assert term_equivalence(iterate(HAD, 2), ID, TWO, "hpi").equal
    lhs = seqs(SumC(SWP, ID), Prim("assocr+"), SumC(ID, HXH), Prim("assocl+"))
    rhs = seqs(Prim("assocr+"), SumC(ID, HXH), Prim("assocl+"), SumC(SWP, ID))
    assert term_equivalence(lhs, rhs, Sum(TWO, ONE), "hpi").equal


def test_hx8():
    hx = Seq(HAD, SWP)
    assert sem(iterate(hx, 8), TWO).is_identity()
    assert term_equivalence(iterate(hx, 8), ID, TWO, "qpi").equal
    for m in range(1, 8):
        assert not term_equivalence(iterate(hx, m), ID, TWO, "qpi").equal


def test_gates():
    qq = Prod(TWO, TWO)
    assert sem(GATE_X, TWO) == X_BLOCK
    assert sem(GATE_H, TWO) == H_BLOCK
    assert sem(GATE_CX, qq) == m_level_embed(X_BLOCK, [3, 4], 4)
    assert sem(GATE_CH, qq) == m_level_embed(H_BLOCK, [3, 4], 4)
    toffoli = m_level_embed(X_BLOCK, [7, 8], 8)
    assert sem(GATE_CCX, Prod(TWO, qq)) == toffoli
    assert term_equivalence(ctrl(ID), ID, qq, "qpi").equal


def test_hhcxhh_is_swapped_cnot():
    qq = Prod(TWO, TWO)
    hh = ProdC(GATE_H, GATE_H)
    lhs = seqs(hh, GATE_CX, hh)
    rhs = seqs(Prim("swap*"), GATE_CX, Prim("swap*"))
    assert term_equivalence(lhs, rhs, qq, "qpi").equal


def test_classical_register_pair_is_decided_on_its_labels(monkeypatch):
    # a 30-gate X, CX and CCX circuit on register(10), n = 1,024, against
    # c ; inverse(c) ; c: neither run leaves an H, so no matrix is built
    b = register(10)
    c = classical_circuit(random.Random(3), 10, 30)
    other = seqs(c, inverse(c, b), c)

    def no_matrix(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(ExactMatrix, "identity", no_matrix)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        verdict = term_equivalence(c, other, b, "qpi")
        times.append(time.perf_counter() - start)
        assert verdict.equal and verdict.lhs == verdict.rhs
    # about 0.03 s; the bound leaves room for a slow or busy machine
    assert min(times) < 0.5, times
    assert not term_equivalence(c, seqs(c, c), b, "qpi").equal


def test_swap_plus_at():
    for n in range(1, 7):
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                t = swap_plus_at(j, k, n)
                want = (
                    ExactMatrix.identity(n)
                    if j == k
                    else m_level_embed(X_BLOCK, [j, k], n)
                )
                assert sem(t, nsum(n)) == want
    assert swap_plus_at(3, 1, 5) == swap_plus_at(1, 3, 5)
    with pytest.raises(LangError, match="positions"):
        swap_plus_at(0, 2, 3)
    with pytest.raises(LangError, match="positions"):
        swap_plus_at(1, 4, 3)


def test_iterate_shapes():
    assert iterate(HAD, 0) == ID
    assert iterate(HAD, 1) == HAD
    assert iterate(HAD, 3) == Seq(HAD, Seq(HAD, HAD))
    with pytest.raises(LangError):
        iterate(HAD, -1)


def test_parse_term_frozen():
    assert parse_term("dist ; id + id * swap+ ; factor") == GATE_CX
    assert parse_term("dist ; (id + (id * swap+)) ; factor") == GATE_CX
    assert parse_term("factorz") == Factorz(ONE)
    assert parse_term("factorz{1+1}") == Factorz(TWO)
    assert parse_term("had^2") == Seq(HAD, HAD)
    assert parse_term("(had ; swap+)^2") == iterate(Seq(HAD, SWP), 2)
    # ; is left-associated, + and * associate to the right
    assert parse_term("id ; had ; swap+") == Seq(Seq(ID, HAD), SWP)
    assert parse_term("id + had + swap+") == SumC(ID, SumC(HAD, SWP))
    assert parse_term("id * had * swap+") == ProdC(ID, ProdC(HAD, SWP))
    assert parse_term("id + had * swap+") == SumC(ID, ProdC(HAD, SWP))


def test_parse_term_rejects():
    for bad in ["", "had +", "(had", "had)", "swap", "had ^ x", "factorz{2}",
                "had swap+", "¬id", "had;;had", "had^\u0663", "had^1_0", "had^+2"]:
        with pytest.raises(LangError):
            parse_term(bad)


def test_parse_term_gates_the_language():
    with pytest.raises(LangError, match="^neg1 is not in hpi$"):
        parse_term("neg1", "hpi")
    # of two primitives outside pi, the first in the text is named
    with pytest.raises(LangError, match="^neg1 is not in pi$"):
        parse_term("id ; neg1 ; had", "pi")
    with pytest.raises(LangError, match="^had is not in pi$"):
        parse_term("id + had * neg1", "pi")
    with pytest.raises(LangError, match="unknown language tag 'quantum'"):
        parse_term("id", "quantum")
    # the gate reports before a later power past the budget
    with pytest.raises(LangError, match="^neg1 is not in hpi$"):
        parse_term("neg1 ; had^999999", "hpi")
    # the default, qpi, admits every primitive
    for name in sorted(hadpi.lang._RULES):
        assert parse_term(name) == Prim(name) == parse_term(name, "qpi")
    for lang in ("pi", "hpi"):
        for name in sorted(primitives(lang)):
            assert parse_term(name, lang) == Prim(name)


def test_parse_type_frozen():
    assert parse_type("1+1") == TWO
    assert parse_type("1+1+1") == Sum(ONE, Sum(ONE, ONE))
    assert parse_type("(1+1)+1") == Sum(TWO, ONE)
    assert parse_type("(1+1)*(1+1)") == Prod(TWO, TWO)
    assert parse_type("1*0+1") == Sum(Prod(ONE, ZERO), ONE)
    assert format_type(Prod(Sum(ONE, ZERO), TWO)) == "(1+0)*(1+1)"
    for bad in ["", "2", "1+", "(1", "1**1", "x"]:
        with pytest.raises(LangError):
            parse_type(bad)


def test_syntax_roundtrip_random():
    rng = random.Random(271828)
    for _ in range(120):
        b = rand_type(rng, max_dim=8)
        assert parse_type(format_type(b)) == b
        c = rand_term(rng, b, depth=4)
        assert parse_term(format_term(c)) == c


def test_infer_source():
    assert infer_source(HXH) == TWO
    assert infer_source(NEG1) == ONE
    assert infer_source(Factorz(TWO)) == ZERO
    assert infer_source(Seq(Prim("uniti*"), ProdC(ID, HAD))) == TWO
    assert infer_source(SumC(HAD, NEG1)) == Sum(TWO, ONE)
    assert infer_source(parse_term("unite+ ; had")) == Sum(ZERO, TWO)
    for ambiguous in (ID, SWP, ctrl(HAD)):
        with pytest.raises(LangError, match="ambiguous"):
            infer_source(ambiguous)
    with pytest.raises(LangError, match="cannot type"):
        infer_source(Seq(NEG1, HAD))


def test_infer_source_refuses_a_type_that_contains_itself():
    # factor needs the right factor c of both summands, and the second is
    # 0+c: c = 0+c has no finite solution, found at factor before the ids
    c = parse_term("(dist ; (id*id + id*uniti+) ; factor) ; id^99990")
    with pytest.raises(LangError, match=r"^cannot type factor: .*contain itself as \(0\+\?\)$"):
        infer_source(c)


def test_infer_source_visits_each_node_once(monkeypatch):
    # one pass: each node is met once, a seq spine as one node
    c = parse_term("dist ; (had * had + (neg1 * id ; swap* ; swap*)) ; factor ; id ; swap* ; had * id")
    met, stack = [], [(c, None)]
    while stack:
        node, parent = stack.pop()
        if not (isinstance(node, Seq) and isinstance(parent, Seq)):
            met.append(id(node))
        for part in ("fst", "snd", "left", "right"):
            if hasattr(node, part):
                stack.append((getattr(node, part), node))
    visits: dict = {}
    infer = hadpi.lang._infer

    def counted(node, t, limit):
        visits[id(node)] = visits.get(id(node), 0) + 1
        return infer(node, t, limit)

    monkeypatch.setattr(hadpi.lang, "_infer", counted)
    assert infer_source(c) == Prod(Sum(TWO, ONE), TWO)
    assert len(met) == 18 and visits == dict.fromkeys(met, 1)


@pytest.mark.parametrize("text", [
    "assocr+^300",
    "uniti+^150 ; unite+^150",
    "unite+^300",
    # factor unifies two right factors 150 levels deep, equal and then not
    "dist ; (id * uniti+^150 + id * (had ; uniti+^150)) ; factor",
    "dist ; (id * (uniti* ; uniti+^149) + id * (had ; uniti+^150)) ; factor",
])
def test_deep_inference_patterns_are_lang_errors(text):
    # every type inference builds stays within the depth limit of a shallow
    # source, so no walk over one overruns the recursion limit
    with pytest.raises(LangError):
        infer_source(parse_term(text))


def _factor_nest(k: int) -> tuple[str, str]:
    # t and its inverse u; factor's shared right factor makes the source of
    # t a pattern whose text grows 4x every two levels
    t, u = "factor", "dist"
    for _ in range(k):
        t, u = f"factor ; swap* ; ({t}) * id", f"({u}) * id ; swap* ; dist"
    return t, u


@pytest.mark.parametrize("form", [
    "T",  # resolved and rendered
    "(id * (T ; U)) + (id * id) ; factor",  # the occurs check walks the pattern
    "(id * (T ; U)) + (id * (T ; U)) ; factor",  # two such patterns unify
])
def test_inference_visits_shared_parts_once(form):
    # a tree walk of these patterns would visit about 4^15 parts
    t, u = _factor_nest(30)
    with pytest.raises(LangError, match=r"ambiguous: .*<\d+ characters>"):
        infer_source(parse_term(form.replace("T", t).replace("U", u)))


def test_long_error_paths_keep_their_ends():
    def fail_at(depth):
        return str(hadpi.lang._fail([f"s{i}" for i in range(depth)], "msg"))

    assert fail_at(0) == "at term: msg"
    assert fail_at(15) == "at " + ".".join(f"s{i}" for i in range(15)) + ": msg"
    assert fail_at(16) == "at s0.s1.s2.s3.s4.<6 steps>.s11.s12.s13.s14.s15: msg"
    assert fail_at(5000).startswith("at s0.s1.s2.s3.s4.<4990 steps>.s4995.")


def test_preorder_walks_every_node():
    def prims(c):
        return [x for x in hadpi.lang._preorder(c) if isinstance(x, Prim)]

    c = seqs(HAD, SumC(NEG1, ProdC(ID, Factorz(TWO))), Prim("swap+"))
    assert list(hadpi.lang._preorder(c)) == [
        Seq, Seq, HAD, SumC, NEG1, ProdC, ID, Factorz(TWO), Prim("swap+")
    ]
    assert [p.name for p in prims(c)] == ["had", "neg1", "id", "swap+"]
    assert prims(Factorz(TWO)) == []
    # a spine far deeper than the recursion limit
    deep = ID
    for _ in range(20_000):
        deep = Seq(deep, HAD)
    assert len(prims(deep)) == 20_001


def test_infer_source_agrees_with_typecheck_random():
    rng = random.Random(62)
    hits = 0
    for _ in range(200):
        b = rand_type(rng, max_dim=8)
        c = rand_term(rng, b, depth=4)
        try:
            got = infer_source(c)
        except LangError:
            continue
        hits += 1
        # the inferred source is the most general one, so a ground answer
        # is the only type the term admits: the one it was built at
        assert got == b
        typecheck(c, got)
    assert hits >= 25


def test_zero_dimensional_paths():
    assert sem(Prim("absorb"), Prod(TWO, ZERO)).n == 0
    assert sem(Factorz(TWO), ZERO).n == 0
    assert sem(Seq(Factorz(TWO), Prim("absorb")), ZERO).is_identity()
    assert sem(Prim("unite+"), Sum(ZERO, TWO)) == ExactMatrix.identity(2)
    b = Sum(TWO, ZERO)
    assert sem(SumC(HAD, ID), b) == H_BLOCK
    assert sem(SWP, b) == ExactMatrix.identity(2)
    assert typecheck(SWP, b).dst == Sum(ZERO, TWO)


def test_deep_composition_chains():
    # far past the interpreter recursion limit in every direction
    deep = seqs(*([HAD, SWP] * 1500))
    m = sem(deep, TWO)
    assert m.is_orthogonal()
    assert parse_term(format_term(deep)) == deep
    assert sem(inverse(deep, TWO), TWO).matmul(m).is_identity()
    assert infer_source(deep) == TWO


@pytest.mark.parametrize("m", [2, 3, 5000])
def test_powers_print_without_recursion(m):
    # c^m nests to the right, one parenthesis per link
    text = format_term(parse_term(f"had^{m}"))
    assert text == "had" + " ; (had" * (m - 2) + " ; had" + ")" * (m - 2)


def test_a_power_inside_a_chain_prints():
    text = format_term(parse_term("(had^3000) ; id"))
    assert text == "had" + " ; (had" * 2998 + " ; had" + ")" * 2998 + " ; id"


def test_term_equality_and_hash_do_not_recurse():
    a, b = parse_term("had^5000"), parse_term("had^5000")
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != parse_term("had^4999") and a != parse_term("had^4999 ; neg1")
    tail = hadpi.lang._at_tail
    assert tail(NEG1, 2000) == tail(NEG1, 2000)
    assert hash(tail(NEG1, 2000)) == hash(tail(NEG1, 2000))
    assert tail(NEG1, 2000) != tail(HAD, 2000) and tail(NEG1, 2000) != tail(NEG1, 1999)


def test_term_repr_does_not_recurse():
    assert repr(Seq(fst=Prim("had"), snd=Prim("id"))) == "Seq(fst=Prim('had'), snd=Prim('id'))"
    c = SumC(Seq(HAD, ID), ProdC(Factorz(ZERO), Seq(Seq(NEG1, SWP), ID)))
    assert repr(c) == (
        "SumC(left=Seq(fst=Prim('had'), snd=Prim('id')), right=ProdC(left=Factorz(Zero), "
        "right=Seq(fst=Seq(fst=Prim('neg1'), snd=Prim('swap+')), snd=Prim('id'))))"
    )
    m = 5000
    text = repr(parse_term(f"had^{m}"))
    assert text == "Seq(fst=Prim('had'), snd=" * (m - 1) + "Prim('had')" + ")" * (m - 1)


def test_deep_terms_copy_without_recursing():
    c = parse_term("had^5000")
    assert copy.copy(c) is c and copy.deepcopy(c) is c
    assert copy.deepcopy([c, c])[1] is c


def test_deep_and_shared_terms_pickle_without_recursing():
    # a t_q output shares its transpositions; the copy is the same tree
    w = Word(8, tuple(Generator(k, idx) for k, idx in
                      [("H", (2, 7)), ("Z", (3,)), ("X", (1, 8)), ("H", (7, 8)), ("Z", (8,))]))
    for c in (parse_term("had^5000"), t_q(w)):
        again = pickle.loads(pickle.dumps(c))
        assert again == c and hash(again) == hash(c)
        assert format_term(again) == format_term(c)
    assert sem(again, nsum(8)) == word_sem(w)


def test_term_equality_is_structural():
    assert Seq(Seq(HAD, SWP), ID) != Seq(HAD, Seq(SWP, ID))
    assert SumC(HAD, ID) != ProdC(HAD, ID) and ProdC(HAD, ID) != SumC(HAD, ID)
    assert Seq(HAD, ID) != HAD and HAD != Seq(HAD, ID)
    rng = random.Random(1618)
    for _ in range(60):
        b = rand_type(rng, max_dim=8)
        c = rand_term(rng, b, depth=4)
        again = parse_term(format_term(c))
        assert again == c and hash(again) == hash(c)
        assert Seq(c, ID) != c and {Seq(c, ID), Seq(again, ID)} == {Seq(c, ID)}


def test_evaluation_builds_no_dense_product(monkeypatch):
    # terms, words and relation checks all run as row operations
    toffoli = ExactMatrix.identity(1).direct_sum(m_level_embed(X_BLOCK, [7, 8], 8))

    def dense(*args):
        raise AssertionError("dense matrix product during evaluation")

    for name in ("matmul", "__matmul__", "tensor", "direct_sum"):
        monkeypatch.setattr(ExactMatrix, name, dense)
    monkeypatch.setattr(hadpi.linalg, "m_level_embed", dense)
    monkeypatch.setattr(hadpi.words, "m_level_embed", dense)

    rng = random.Random(24)
    gens = []
    for _ in range(24):
        kind, b = rng.choice("ZXH"), rng.randint(1, 11)
        gens.append(Generator(kind, (b,) if kind == "Z" else (b, rng.randint(b + 1, 12))))
    w = Word(12, tuple(gens))
    assert {g.kind for g in gens} == {"Z", "X", "H"}
    assert sem(t_q(w), nsum(12)) == word_sem(w)
    b = Prod(TWO, Prod(TWO, TWO))
    assert sem(t_h(GATE_CCX, b), Sum(ONE, b)) == toffoli
    assert verify_relation(RELATION_BY_ID["d4"], (1, 2, 3, 4, 5, 6), 6)


def test_equal_types_are_one_object():
    assert parse_type("(1+1)*(1+1)") is Prod(TWO, TWO)
    assert Sum(ONE, ONE) is TWO and Sum(ONE, TWO) is not Sum(TWO, ONE)
    c = parse_term("dist ; (had * had + (neg1 * id ; swap* ; swap*)) ; factor")
    source = infer_source(c)
    assert source is parse_type("((1+1)+1)*(1+1)")
    assert typecheck(c, parse_type("((1+1)+1)*(1+1)")).dst is source
    # a walk memoized on type identity returns the target it recorded
    assert typecheck(HXH, TWO).dst is TWO
    four = Prod(TWO, TWO)
    assert copy.deepcopy(four) is four and pickle.loads(pickle.dumps(four)) is four
    assert copy.copy(ZERO) is ZERO and pickle.loads(pickle.dumps(ONE)) is ONE


def test_types_are_immutable():
    for t, field in ((TWO, "left"), (Prod(TWO, ONE), "dim"), (ZERO, "dim")):
        with pytest.raises(AttributeError):
            setattr(t, field, ONE)
        with pytest.raises(AttributeError):
            delattr(t, field)
    assert TWO.left is ONE and TWO.dim == 2


def test_terms_and_reports_are_immutable_values():
    c = Seq(HAD, SumC(Factorz(ZERO), ProdC(ID, NEG1)))
    m = ExactMatrix.identity(2)
    report = TranslationReport(HAD, c, m, m)
    fields = (
        (HAD, "name"), (Factorz(ONE), "operand"), (c, "fst"), (c.snd, "left"),
        (c.snd.right, "right"), (report, "padding"),
    )
    for node, field in fields:
        with pytest.raises(AttributeError):
            setattr(node, field, ID)
        with pytest.raises(AttributeError):
            delattr(node, field)
    assert c.fst is HAD and report.padding == 0
    for node in (HAD, Factorz(TWO), c, report):
        for again in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
            assert type(again) is type(node) and again == node and hash(again) == hash(node)
    # leaves compare and hash as the tuple of their field
    assert hash(Prim("had")) == hash(("had",)) and hash(Factorz(ONE)) == hash((ONE,))
    assert Prim("id") != Factorz(ZERO) and Factorz(ZERO) != Prim("id")
    assert Prim(name="had") == HAD and Seq(fst=HAD, snd=ID) == Seq(HAD, ID)
    with pytest.raises(TranslateError):
        TranslationReport(HAD, HAD, m, ExactMatrix.identity(3))


def test_patterns_with_holes_are_not_interned():
    hole = hadpi.lang._Hole()
    assert Sum(hole, ONE) is not Sum(hole, ONE)
    assert Sum(None, ONE) is not Sum(None, ONE)
    assert Sum(hole, ONE).dim is None


def test_dropped_types_leave_the_table():
    gc.collect()
    size = len(hadpi.lang._TYPES)
    deep = ZERO
    for _ in range(500):
        deep = Prod(Sum(deep, ZERO), ONE)
    assert len(hadpi.lang._TYPES) == size + 1000
    del deep
    gc.collect()
    assert len(hadpi.lang._TYPES) == size


def test_type_holds_its_dimension():
    t = Prod(Sum(ONE, TWO), TWO)
    assert hdim(t) == t.dim == 6 and hdim(ZERO) == 0 and hdim(ONE) == 1
    # the stored dimension is invisible to equality, hashing and repr
    assert t == Prod(Sum(ONE, TWO), TWO) and hash(t) == hash(Prod(Sum(ONE, TWO), TWO))
    assert repr(t) == "Prod(Sum(One, Sum(One, One)), Sum(One, One))"
    assert format_type(parse_type("(1+1+1)*(1+1)")) == format_type(Prod(nsum(3), TWO))
    # far deeper than the recursion limit: hdim reads a number, it walks nothing
    deep = ONE
    for _ in range(5000):
        deep = Sum(ONE, deep)
    assert hdim(deep) == 5001 and hdim(Prod(deep, TWO)) == 10002
    for bad in (None, Sum(None, ONE), Prim("had")):
        with pytest.raises(LangError, match="not a value type"):
            hdim(bad)


def _stack_depth() -> int:
    """The number of frames on the caller's stack, the caller's own included."""
    depth, frame = 0, sys._getframe(1)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_type_errors_print_deep_types_without_recursion():
    # nsum(1024) nests 1,023 sums; wording the error prints it under a
    # recursion limit far below that depth
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 300)
    try:
        with pytest.raises(LangError, match=r"had needs input 1\+1"):
            typecheck(Prim("had"), nsum(1024))
        text = format_type(nsum(1024))
    finally:
        sys.setrecursionlimit(saved)
    assert text == "+".join(["1"] * 1024)


def _parsed_or_error(parse, fmt, text: str) -> str:
    """The printed text that parse reads from text, or the LangError it raises."""
    try:
        return fmt(parse(text))
    except LangError as exc:
        return f"{type(exc).__name__}: {exc}"


def _concrete_syntax_texts() -> list[str]:
    """The printed text of seeded types, terms and inverses, and the text of
    each LangError that parsing raises on malformed input."""
    rng = random.Random(31337)
    out = []
    for _ in range(400):
        b = rand_type(rng, max_dim=8)
        c = rand_term(rng, b, depth=4)
        out += [format_type(b), format_term(c), format_term(inverse(c, b))]
    out += [format_type(nsum(1024)), format_type(Prod(TWO, Prod(TWO, Prod(TWO, TWO))))]
    for text in ["factorz", "factorz{1}", "factorz{(1+1)*(1+1+1)}", "factorz{1*0+(1+1)}",
                 "factorz{1+1} ; absorb * id", "id + factorz{((0))} ; swap+"]:
        out.append(format_term(parse_term(text)))
    # 101 levels each, one past MAX_NESTING, of parentheses, + operands and
    # * operands, with @ for the leaf
    k = hadpi.lang.MAX_NESTING + 1
    deep = ["(" * k + "@" + ")" * k, "+".join(["@"] * (k + 1)), "*".join(["@"] * (k + 1))]
    terms = ["", "(had", "had)", "((had ; id)", "had swap+", "had ^ x", "had^+2", "had^1_0",
             "had^had", "had^", "had^\u0663", "had^100001", "\u00acid", "had ; x",
             "factorz{2}", "factorz{1+1", "had;;had", "had +", "had\u00a0;\u2003id",
             "had\u00a0x", "id\u2003had", *(d.replace("@", "id") for d in deep)]
    types = ["", "(1", "1)", "((1+1)", "1 1", "2", "1**1", "x", "1+", "1 + y",
             "1\u00a0+\u20031", "1\u2003y", "1\u00a0(1)", *(d.replace("@", "1") for d in deep)]
    for parse, texts, fmt in [(parse_term, terms, format_term), (parse_type, types, format_type)]:
        out += [_parsed_or_error(parse, fmt, text) for text in texts]
    return out


def test_concrete_syntax_is_pinned():
    # the digest of every text above, taken before parsing and printing of
    # terms and types came to share one tokenizer, grammar and renderer
    texts = _concrete_syntax_texts()
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == "27edb15cc0f780af50da3a28f4f8e69adcf25faae5dc9671e48e8c250386cecf"


def test_parser_edges_are_pinned():
    # where the nesting budget bites, at which offset, and how powers, ;
    # chains and the braces of factorz end: each open parenthesis, brace and
    # + or * operator is one level, and a ; chain is none
    term = lambda text: _parsed_or_error(parse_term, format_term, text)
    vtype = lambda text: _parsed_or_error(parse_type, format_type, text)
    deep = "LangError: term: nested deeper than the limit of 100 levels (MAX_NESTING) at offset"
    assert term(" + ".join(["id * id"] * 100)) == " + ".join(["id * id"] * 100)
    assert term(" + ".join(["id * id"] * 101)) == f"{deep} 1005"
    assert term("(" * 50 + " + ".join(["id"] * 51) + ")" * 50) == " + ".join(["id"] * 51)
    assert term("(" * 50 + " + ".join(["id"] * 52) + ")" * 50) == f"{deep} 305"
    for k, expected in [(99, "factorz"), (100, f"{deep} 108")]:
        assert term("(" * k + "factorz{1}" + ")" * k) == expected
        assert term("factorz{" + "(" * k + "1" + ")" * k + "}") == expected
    cases = {
        "(had ; id)^3": "had ; id ; (had ; id ; (had ; id))",
        "(had ; had)^50001": "LangError: term: the power at offset 12 expands the term"
        " past the limit of 100000 leaves (MAX_TERM_LEAVES)",
        "factorz{1+1}^2": "factorz{1+1} ; factorz{1+1}",
        "(had)^0": "id",
        "had ; ; had": "LangError: term: expected a term, got ';'",
        "; had": "LangError: term: expected a term, got ';'",
        "had ;": "LangError: term: unexpected end of input",
        "(had ; id": "LangError: term: expected ')', got None at offset 9",
        "factorz{1+1 ; id}": "LangError: term: expected '}', got ';' at offset 12",
        "factorz{(1+1)^2}": "LangError: term: expected '}', got '^' at offset 13",
    }
    assert {text: term(text) for text in cases} == cases
    assert vtype("1+1^2") == "LangError: type: trailing input '^' at offset 3"
    assert vtype("(1") == "LangError: type: expected ')', got None at offset 2"


def test_parser_does_not_recurse():
    # terms and types are read in one loop, so the deepest texts within
    # MAX_NESTING parse under a recursion limit of a few frames past the caller
    k = hadpi.lang.MAX_NESTING
    deepest = [
        (parse_term, "(" * k + "id" + ")" * k),
        (parse_term, " + ".join(["id"] * (k + 1))),
        (parse_term, " * ".join(["id"] * (k + 1))),
        (parse_type, "(" * k + "1" + ")" * k),
        (parse_type, "+".join(["1"] * (k + 1))),
        (parse_type, "*".join(["1"] * (k + 1))),
        (parse_term, "factorz{" + "(" * (k - 1) + "1" + ")" * (k - 1) + "}"),
    ]
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 20)
    try:
        parsed = [parse(text) for parse, text in deepest]
    finally:
        sys.setrecursionlimit(saved)
    assert [x.depth for x in parsed[3:6]] == [0, k, k]
    assert parsed[6] == Factorz(ONE)
