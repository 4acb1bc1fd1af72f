"""The memoized walk behind typecheck and sem, against a dense oracle.

lang.lower walks each node object once per input type and re-emits its row
operations wherever the node is met again.  The hazards are a node shared
at different input types, at different rows, inside the copies a product
of terms makes, and under a tighter depth budget; each case here is
checked against oracles.oracle_term, which shares no code with lang.
"""

import hashlib
import pickle
import random
import sys

import pytest
from oracles import (
    OracleTypeError,
    frac_direct_sum,
    frac_eq,
    frac_identity,
    frac_of_matrix,
    oracle_term,
    oracle_type,
    transpose,
)
from termgen import (
    QUBITS3,
    qubit_circuits,
    rand_qubit_circuit,
    rand_term,
    rand_type,
    shared_chain_term,
)

import hadpi.lang
import hadpi.words
from hadpi.lang import (
    ONE,
    TWO,
    Factorz,
    LangError,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    ZERO,
    _preorder,
    ctrl,
    format_term,
    format_type,
    hdim,
    inverse,
    iterate,
    lower,
    nsum,
    primitives,
    sem,
    seqs,
    term_prims,
    typecheck,
)
from hadpi.linalg import gen_h, gen_x, gen_z
from hadpi.translate import t_h, t_q, wsem
from hadpi.words import Word, word_sem

ID, HAD, NEG1, SWP = Prim("id"), Prim("had"), Prim("neg1"), Prim("swap+")


def assert_matches_oracle(c, b, lang="qpi"):
    dst, want = oracle_term(c, oracle_type(b), lang)
    assert oracle_type(typecheck(c, b, lang).dst) == dst
    assert frac_eq(frac_of_matrix(sem(c, b, lang)), want)
    return want


# ---------------------------------------------------------------------------
# random terms that reuse node objects


def _accepts(c, b, lang) -> bool:
    try:
        typecheck(c, b, lang)
    except LangError:
        return False
    return True


def _seeds(lang):
    """Small nodes that typecheck at many input types."""
    rung = seqs(Prim("assocl+"), SumC(SWP, ID), Prim("assocr+"))
    out = [SumC(SWP, ID), Seq(SWP, SWP), ProdC(ID, SWP), ProdC(SWP, ID), rung, SumC(ID, rung)]
    if lang != "pi":
        out += [SumC(HAD, ID), SumC(ID, HAD), ProdC(ID, HAD)]
    if lang == "qpi":
        out += [SumC(NEG1, SWP), Seq(SumC(ID, NEG1), SWP)]
    return out


def shared_term(rng, b, lang, depth, pool):
    """A random term accepted at b that, where it can, reuses a node object
    from pool; the composite nodes it builds join the pool."""
    fits = [s for s in pool if _accepts(s, b, lang)]
    if fits and rng.random() < 0.5:
        return rng.choice(fits)
    prims = [Prim(name) for name in sorted(primitives(lang)) if _accepts(Prim(name), b, lang)]
    if b == ZERO:
        prims.append(Factorz(rng.choice((ONE, TWO))))
    r = rng.random()
    if depth == 0 or r < 0.3:
        return rng.choice(prims)
    if r < 0.65:
        fst = shared_term(rng, b, lang, depth - 1, pool)
        mid = typecheck(fst, b, lang).dst
        c = Seq(fst, shared_term(rng, mid, lang, depth - 1, pool))
    elif isinstance(b, (Sum, Prod)):
        ctor = SumC if isinstance(b, Sum) else ProdC
        left = shared_term(rng, b.left, lang, depth - 1, pool)
        if b.left == b.right and rng.random() < 0.5:
            c = ctor(left, left)  # one node on both halves
        else:
            c = ctor(left, shared_term(rng, b.right, lang, depth - 1, pool))
    else:
        return rng.choice(prims)
    pool.append(c)
    return c


def _uses(c, t, lang, row, copies, out):
    """(input type, first row, copies) of every run of every node object."""
    out.setdefault(id(c), set()).add((t, row, copies))
    kind = type(c).__name__
    if kind == "Seq":
        _uses(c.fst, t, lang, row, copies, out)
        _uses(c.snd, oracle_term(c.fst, t, lang)[0], lang, row, copies, out)
    elif kind in ("SumC", "ProdC"):
        n1 = len(oracle_term(ID, t[1], lang)[1])
        n2 = len(oracle_term(ID, t[2], lang)[1])
        if kind == "SumC":
            _uses(c.left, t[1], lang, row, copies, out)
            _uses(c.right, t[2], lang, row + n1, copies, out)
        else:
            _uses(c.left, t[1], lang, row, copies * n2, out)
            _uses(c.right, t[2], lang, row, copies * n1, out)


@pytest.mark.parametrize("lang", ["pi", "qpi", "hpi"])
def test_shared_nodes_match_the_oracle(lang):
    rng = random.Random({"pi": 71, "qpi": 72, "hpi": 73}[lang])
    types, rows, copies, empty = set(), set(), set(), set()
    for i in range(100):
        b = rand_type(rng, 8, 1)
        if i % 2 == 0:
            # a product with a 0 factor first: its terms run with no copies,
            # and a node they share runs again on rows to its right
            b = Sum(Prod(b, ZERO), b) if rng.random() < 0.5 else Sum(Prod(ZERO, b), b)
        pool = _seeds(lang)
        c = shared_term(rng, b, lang, 5, pool)
        want = assert_matches_oracle(c, b, lang)
        uses: dict = {}
        _uses(c, oracle_type(b), lang, 0, 1, uses)
        for runs in uses.values():
            if len({t for t, _, _ in runs}) > 1:
                types.add(id(runs))
            if len({(t, r) for t, r, _ in runs}) > len({t for t, _, _ in runs}):
                rows.add(id(runs))
            if len(runs) > 1 and max(k for _, _, k in runs) > 1:
                copies.add(id(runs))
            if {t for t, _, k in runs if k == 0} & {t for t, _, k in runs if k > 0}:
                empty.add(id(runs))
        # the walks behind inverse, wsem and t_h read the same shared nodes
        dst = typecheck(c, b, lang).dst
        assert sem(inverse(c, b, lang), dst, lang) @ sem(c, b, lang) == sem(ID, b)
        if lang != "hpi":
            assert frac_eq(frac_of_matrix(word_sem(wsem(c, b))), want)
        if lang != "pi":
            padded = frac_direct_sum(frac_identity(1), want)
            assert frac_eq(frac_of_matrix(sem(t_h(c, b), Sum(ONE, b), "hpi")), padded)
    # every hazard occurred: one node at several types, at several rows for
    # one type, run more than once with copies made by a product, and run at
    # one type both with no copies and on rows
    assert types and rows and copies and empty


def test_a_shared_node_at_other_rows_strides_and_types():
    s = SumC(HAD, NEG1)  # at (1+1)+1
    t3 = Sum(TWO, ONE)
    swap = SumC(SWP, ID)
    cases = [
        (SumC(s, s), Sum(t3, t3)),  # the second copy three rows down
        (seqs(s, SumC(SWP, ID), s), t3),  # again at the same rows
        (ProdC(s, ID), Prod(t3, TWO)),  # twice, at stride 2
        (ProdC(ID, s), Prod(TWO, t3)),  # twice, three rows apart
        (
            seqs(ProdC(s, ID), Prim("swap*"), ProdC(ID, s), Prim("swap*"), ProdC(s, ID)),
            Prod(t3, TWO),
        ),
        (seqs(SumC(ProdC(s, s), s), SumC(ProdC(ID, s), ID)), Sum(Prod(t3, t3), t3)),
        # one node at two input types
        (SumC(swap, swap), Sum(Sum(TWO, ONE), Sum(Sum(ONE, TWO), TWO))),
    ]
    for c, b in cases:
        assert_matches_oracle(c, b)
        dst, ops = lower(c, b)
        assert dst == typecheck(c, b).dst and ops


def test_a_node_first_run_with_no_copies_runs_again_on_rows():
    # beside a 0 factor a factor runs on a grid of no copies, so the ops it
    # records sit on no rows; met again on rows, they are re-emitted there,
    # or, at another stride (the left factor beside 0 has stride 0), the
    # node is walked again
    x = Seq(HAD, HAD)
    h = SumC(HAD, ID)
    cases = [
        (SumC(ProdC(x, ID), x), Sum(Prod(TWO, ZERO), TWO)),
        (SumC(ProdC(ID, x), x), Sum(Prod(ZERO, TWO), TWO)),
        (SumC(ProdC(h, ID), h), Sum(Prod(Sum(TWO, ONE), ZERO), Sum(TWO, ONE))),
        # the node inside a composite that also runs with no copies
        (SumC(ProdC(SumC(x, ID), ID), SumC(x, ID)), Sum(Prod(Sum(TWO, ONE), ZERO), Sum(TWO, ONE))),
        # no copies again after rows: nothing to move
        (SumC(x, SumC(ProdC(x, ID), x)), Sum(TWO, Sum(Prod(TWO, ZERO), TWO))),
        # at stride 2 after the empty run
        (SumC(ProdC(x, ID), ProdC(x, ID)), Sum(Prod(TWO, ZERO), Prod(TWO, TWO))),
    ]
    for c, b in cases:
        assert_matches_oracle(c, b)


def test_the_memo_serves_a_node_under_other_copies():
    # g runs on X = (1+1)*((1+1)*(1+1)) once beside 1 and twice beside 1+1:
    # the second time it is met at its input type and stride, so its ops
    # are re-emitted on the new grid and none of its nodes is walked again
    writes = [0]

    class CountingMemo(dict):
        def __setitem__(self, key, value):
            writes[0] += 1
            super().__setitem__(key, value)

    class CountingWalk(hadpi.lang._Walk):
        __slots__ = ()

        def node(self, c, b, limit):
            self.memo = CountingMemo()
            return super().node(c, b, limit)

    g = ctrl(ctrl(SWP))
    X = Prod(TWO, Prod(TWO, TWO))
    c, b = SumC(ProdC(ID, g), ProdC(ID, g)), Sum(Prod(ONE, X), Prod(TWO, X))
    walk = CountingWalk(c, b, "qpi")
    # 19 when g is walked again under the other copies
    assert writes[0] == 11, writes
    assert frac_eq(
        frac_of_matrix(hadpi.words.program_matrix(walk.ops, hdim(b))),
        oracle_term(c, oracle_type(b), "qpi")[1],
    )


def test_lower_emits_row_operations_on_global_rows():
    b = Sum(ONE, Prod(TWO, TWO))
    c = SumC(NEG1, seqs(ProdC(HAD, ID), Prim("swap*")))
    dst, ops = lower(c, b)
    assert dst == b
    # had once per right index at stride 2, then the pair swap of 2x2
    assert ops == [
        ("neg1", 0, (), 1, 0, 0),
        ("had", 1, ((2, 1),), 2, 0, 0),
        ("swap*", 1, (), 1, 2, 2),
    ]


# ---------------------------------------------------------------------------
# the evaluator: swaps and signs relabel rows, and H pairs cancel


@pytest.mark.parametrize(
    "c, labels",
    [
        (HAD, [1, 2]),  # same signs, ascending
        (seqs(SWP, HAD), [1, -2]),  # same signs, descending
        (seqs(SumC(ID, NEG1), HAD), [2, 1]),  # opposite signs, ascending
        (seqs(SWP, SumC(ID, NEG1), HAD), [-2, 1]),  # opposite signs, descending
    ],
)
def test_had_emits_one_ascending_h_and_relabels(c, labels):
    assert hadpi.words._run(lower(c, TWO)[1], 2) == ([gen_h(1, 2)], labels)
    assert_matches_oracle(c, TWO)


def test_a_program_then_its_inverse_runs_to_nothing():
    # each H of inverse(c) meets the mirror H of c on the same two rows, once
    # every H emitted between them has cancelled
    rng = random.Random(22)
    cases = []
    for _ in range(200):
        b = rand_type(rng, max_dim=8)
        cases.append((rand_term(rng, b), b))
    cases += [(rand_qubit_circuit(rng, 10, 6), QUBITS3) for _ in range(30)]
    hs = 0
    for c, b in cases:
        n = hdim(b)
        hs += len(hadpi.words._run(lower(c, b)[1], n)[0])
        loop = lower(seqs(c, inverse(c, b)), b)[1]
        assert hadpi.words._run(loop, n) == ([], list(range(1, n + 1))), format_term(c)
    assert hs > 200


def test_program_matrix_of_a_lowered_term_matches_the_oracle():
    rng = random.Random(23)
    cases = []
    for lang in ("pi", "qpi", "hpi") * 50:
        b = rand_type(rng, max_dim=8)
        cases.append((rand_term(rng, b, lang), b, lang))
    # circuits put H on rows that overlap, where their order shows
    cases += [(rand_qubit_circuit(rng, 10, 6), QUBITS3, "qpi") for _ in range(4)]
    for c, b, lang in cases:
        dst, want = oracle_term(c, oracle_type(b), lang)
        got, ops = lower(c, b, lang)
        assert oracle_type(got) == dst
        M = hadpi.words.program_matrix(ops, hdim(b))
        assert frac_eq(frac_of_matrix(M), want), format_term(c)


def test_simulated_neg1_runs_with_no_h():
    # t_h(neg1) = had ; swap+ ; had: the swap only relabels, so the second H
    # lands on the first one's rows and cancels it, leaving the sign
    h = t_h(NEG1, ONE)
    assert hadpi.words._run(lower(h, TWO, "hpi")[1], 2) == ([], [1, -2])


def test_a_shared_node_failing_at_its_second_use_names_that_use():
    s = SumC(HAD, ID)
    b = Sum(Sum(TWO, ONE), Sum(Sum(ONE, TWO), ONE))
    with pytest.raises(LangError) as exc:
        typecheck(SumC(s, s), b)
    assert str(exc.value) == "at sum.right.sum.left: had needs input 1+1, got 1+1+1"
    with pytest.raises(OracleTypeError):
        oracle_term(SumC(s, s), oracle_type(b))
    # the same input type under a tighter depth budget: the first use has
    # 199 levels to spare, the second 197
    grow = iterate(Prim("uniti+"), 199)
    c = SumC(grow, SumC(ID, SumC(ID, grow)))
    b = nsum(4)
    for call in (typecheck, sem):
        with pytest.raises(LangError) as exc:
            call(c, b)
        msg = str(exc.value)
        assert msg.startswith("at sum.right.sum.right.sum.right.seq.snd.")
        assert msg.endswith("uniti+ nests the type more than 100 levels (MAX_NESTING)"
                            " past the deeper of its source and MAX_NESTING")
    # met first under the tighter budget, the node is reused under the looser
    grow = iterate(Prim("uniti+"), 197)
    ok = SumC(SumC(ID, SumC(ID, grow)), grow)
    dst = typecheck(ok, Sum(nsum(3), ONE)).dst
    assert dst.right is dst.left.right.right and dst.right.depth == 197


def _walked_nodes(monkeypatch):
    """A function counting, over every walk from now on, the composite
    nodes each walk recorded and the calls of lang._prim_step: a node walked
    again by another walk, or a term that lost its sharing, counts twice."""
    walks = []

    class RecordingWalk(hadpi.lang._Walk):
        __slots__ = ()

        def __init__(self, *args):
            walks.append(self)
            super().__init__(*args)

    monkeypatch.setattr(hadpi.lang, "_Walk", RecordingWalk)
    steps = _count_prim_steps(monkeypatch)
    return lambda: sum(len(walk.memo) for walk in walks) + steps[0]


def test_a_failing_walk_walks_once(monkeypatch):
    walked = _walked_nodes(monkeypatch)
    c = Seq(iterate(HAD, 999), Prim("swap*"))
    with pytest.raises(LangError) as exc:
        typecheck(c, TWO)
    assert str(exc.value) == "at seq.snd: swap* needs a product input, got 1+1"
    # the 998 seqs of the power and its two primitives; walking again to
    # name the failing subterm would about double the count
    leaves = sum(1 for _ in term_prims(c))
    assert walked() <= leaves + 1, (walked(), leaves)


def test_a_deep_sum_of_terms_needs_no_recursion():
    # t_q nests its terms one sum of terms per coordinate: 1,023 levels at
    # MAX_DIM pass through every walk, fold and printing of a term under a
    # recursion limit far below the depth
    b, c = nsum(1024), hadpi.lang._at_tail(NEG1, 1023)
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 300)
    try:
        dst = typecheck(c, b).dst
        m = sem(c, b)
        inv = inverse(c, b)
        w = wsem(c, b)
        h = t_h(c, b)
        texts = format_term(c), format_term(h)
    finally:
        sys.setrecursionlimit(saved)
    z = Word(1024, (gen_z(1024),))
    assert (dst, inv, w) == (b, c, z) and m == word_sem(z)
    # t_h sends each sum of terms to the same frame around its operand
    text = "had ; swap+ ; had"
    for _ in range(1023):
        text = (
            "assocl+ ; (id + id) + id ; swap+ + id ; assocr+ ; id + ("
            + text
            + ") ; assocl+ ; swap+ + id ; assocr+"
        )
    assert texts == ("id + " * 1023 + "neg1", text)


# ---------------------------------------------------------------------------
# one seq chain object met again at its input type, against the same tree
# rebuilt with no node shared


def _composites(c) -> list:
    """Every composite node object of c, once per place it holds."""
    out, stack = [], [c]
    while stack:
        x = stack.pop()
        if isinstance(x, (Seq, SumC, ProdC)):
            out.append(x)
            stack += [getattr(x, f) for f in x.__slots__]
    return out


def _outcome(c, b, lang):
    """(target, matrix) of c at b, or the class and text of its error."""
    try:
        return typecheck(c, b, lang).dst, sem(c, b, lang)
    except LangError as exc:
        return type(exc), str(exc)


def _failing_leaf(rng, t, lang):
    """A leaf that fails at input t."""
    bad = [Prim(name) for name in sorted(primitives(lang)) if not _accepts(Prim(name), t, lang)]
    if t != ZERO:
        bad.append(Factorz(ONE))
    return rng.choice(bad)


def _from_preorder(nodes):
    """The term whose _preorder is the sequence nodes, as a tree: a subterm
    shared in the original is built once per place."""
    stack: list = []
    for x in reversed(nodes):
        # a class opens a composite of the two terms built last
        stack.append(x(stack.pop(), stack.pop()) if isinstance(x, type) else x)
    return stack.pop()


@pytest.mark.parametrize("lang", ["pi", "qpi"])
def test_shared_chains_walk_as_the_unshared_tree(lang):
    rng = random.Random({"pi": 81, "qpi": 82}[lang])
    checked = failed = 0
    for _ in range(40):
        b = rand_type(rng, 4, 1)
        term, s, back = shared_chain_term(rng, b, lang)
        loop = Seq(s, back)
        d = typecheck(s, b, lang).dst
        bad = _failing_leaf(rng, d, lang)
        cases = [
            (term, b),
            (SumC(term, loop), Sum(b, b)),
            (ProdC(ID, term), Prod(TWO, b)),
            (seqs(ProdC(loop, ID), Prim("swap*"), ProdC(ID, term)), Prod(b, TWO)),
            # each fails after the walk has met s again at b
            (Seq(term, bad), b),
            (Seq(loop, Seq(s, Seq(back, Seq(s, bad)))), b),
            (Seq(Seq(loop, Seq(s, bad)), back), b),
            (SumC(loop, Seq(s, bad)), Sum(b, b)),
            (Seq(ProdC(ID, loop), ProdC(ID, Seq(s, bad))), Prod(TWO, b)),
        ]
        for c, t in cases:
            tree = _from_preorder(tuple(_preorder(c)))
            shared = _composites(c)
            assert len({id(x) for x in shared}) < len(shared)
            assert len({id(x) for x in _composites(tree)}) == len(shared)
            got, want = _outcome(c, t, lang), _outcome(tree, t, lang)
            assert got == want, (format_term(c), format_type(t))
            checked += 1
            failed += isinstance(got[0], type)
    assert failed == 40 * 5 and checked == 40 * 9


# ---------------------------------------------------------------------------
# t_q shares its rungs, so lowering its output walks each rung once


def _word(rng, n, g):
    gens = []
    for _ in range(g):
        kind = rng.choice("ZXH")
        if kind == "Z":
            gens.append(gen_z(rng.randint(1, n)))
        else:
            i, j = sorted(rng.sample(range(1, n + 1), 2))
            gens.append(gen_h(i, j) if kind == "H" else gen_x(i, j))
    return Word(n, tuple(gens))


def _count_prim_steps(monkeypatch) -> list[int]:
    """A one-element list counting the calls of lang._prim_step from now on."""
    steps = [0]
    prim_step = hadpi.lang._prim_step

    def counting(*args):
        steps[0] += 1
        return prim_step(*args)

    monkeypatch.setattr(hadpi.lang, "_prim_step", counting)
    return steps


def test_lowering_t_q_output_types_few_primitives(monkeypatch):
    w = _word(random.Random(32), 32, 64)
    c = t_q(w)
    leaves = sum(1 for _ in term_prims(c))
    steps = _count_prim_steps(monkeypatch)
    assert sem(c, nsum(32)) == word_sem(w)
    # without shared rungs or without the memo, every leaf is typed again
    assert steps[0] < leaves / 5, (steps, leaves)
    assert format_type(typecheck(c, nsum(32)).dst) == format_type(nsum(32))


def test_lowering_t_q_output_walks_few_nodes(monkeypatch):
    w = _word(random.Random(32), 32, 64)
    c = t_q(w)
    walked = _walked_nodes(monkeypatch)
    assert sem(c, nsum(32)) == word_sem(w)
    # 2,325 here; 28,295 when each generator builds its own rungs and
    # transpositions, and 118,058 for the tree of c with no node shared
    assert walked() < 28295 / 4, walked()


def test_t_q_output_pickles_with_its_sharing():
    # each distinct node is written once: 23 kB, where writing the tree
    # took 488 kB
    w = _word(random.Random(32), 32, 64)
    c = t_q(w)
    data = pickle.dumps(c)
    assert len(data) < 60_000, len(data)
    again = pickle.loads(data)
    assert again == c and hash(again) == hash(c)
    distinct = {id(x) for x in _composites(again)}
    assert len(distinct) == len({id(x) for x in _composites(c)}) < len(_composites(c)) / 10
    assert sem(again, nsum(32)) == word_sem(w)


def test_inverse_of_t_q_output_keeps_its_sharing(monkeypatch):
    w = _word(random.Random(32), 32, 64)
    c = t_q(w)
    inv = inverse(c, nsum(32))
    leaves = sum(1 for _ in term_prims(inv))
    steps = _count_prim_steps(monkeypatch)
    m = sem(inv, nsum(32))
    # an inverse that copied each shared rung would type every leaf again
    assert steps[0] < leaves / 5, (steps, leaves)
    assert m == transpose(word_sem(w))  # the matrices are orthogonal


def _inverse_corpus():
    """(source type, program): 200 seeded random terms, the fixed
    three-qubit circuits, then the programs t_q builds for three words."""
    rng = random.Random(2611)
    out = []
    for _ in range(200):
        b = rand_type(rng, 8, 0)
        out.append((b, rand_term(rng, b, "qpi", 5)))
    out += [(QUBITS3, c) for c in qubit_circuits()]
    return out + [(nsum(n), t_q(_word(rng, n, 2 * n))) for n in (3, 6, 12)]


# sha256 of the printed inverses of the corpus, recorded when inverse
# recursed on the term; it changes only if inverse's printed output does
INVERSE_GOLDEN_SHA256 = "62fdfa373158615e791d23da53703b46f6a2cd73fbd7ca22e0ccd3c09ee7f7a7"


def test_inverse_output_text_is_pinned():
    text = "".join(
        f"{format_type(b)} | {format_term(inverse(c, b))}\n" for b, c in _inverse_corpus()
    )
    assert hashlib.sha256(text.encode()).hexdigest() == INVERSE_GOLDEN_SHA256


def test_inverse_and_t_h_walk_each_term_once(monkeypatch):
    # a fold reads the target of each node of a seq chain, a factorz too,
    # off the memos of the one walk that checked the term
    walks, nodes = [], []

    class CountingWalk(hadpi.lang._Walk):
        __slots__ = ()

        def __init__(self, *args):
            walks.append(self)
            super().__init__(*args)

        def node(self, *args):
            nodes.append(self)
            return super().node(*args)

    f = seqs(Factorz(TWO), Prim("absorb"), Factorz(TWO))  # 0 <-> (1+1)*0
    s, p = SumC(f, HAD), ProdC(HAD, SumC(HAD, ID))  # shared below
    corpus = [
        (f, ZERO),
        (seqs(s, SumC(Prim("absorb"), HAD), s), Sum(ZERO, TWO)),
        (seqs(p, p, Prim("swap*"), ProdC(SumC(HAD, ID), HAD)), Prod(TWO, Sum(TWO, ONE))),
        (seqs(ProdC(ID, f), ProdC(ID, Prim("absorb")), ProdC(ID, f)), Prod(TWO, ZERO)),
    ]
    for c, b in corpus:
        assert sem(seqs(c, inverse(c, b)), b).is_identity()
    monkeypatch.setattr(hadpi.lang, "_Walk", CountingWalk)
    for c, b in corpus:
        for run in (inverse, t_h):
            walks.clear()
            nodes.clear()
            run(c, b)
            assert len(walks) == 1 and nodes == walks, (run.__name__, format_term(c))


# ---------------------------------------------------------------------------
# t_h translates a subterm once per input type, so its copies are shared


def test_lowering_t_h_output_types_few_primitives(monkeypatch):
    padded = Sum(ONE, QUBITS3)
    hs = [t_h(c, QUBITS3) for c in qubit_circuits()]
    leaves = sum(1 for h in hs for _ in term_prims(h))
    steps = _count_prim_steps(monkeypatch)
    for c, h in zip(qubit_circuits(), hs):
        want = frac_direct_sum(frac_identity(1), oracle_term(c, oracle_type(QUBITS3))[1])
        assert frac_eq(frac_of_matrix(sem(h, padded, "hpi")), want)
    # each id_b * c copies c's translation, once per basis vector of b; the
    # copies are one node, walked once: 4,107 steps for 9,591 leaves when
    # this was written, against one step per leaf when every copy was new
    assert steps[0] < 0.55 * leaves, (steps, leaves)
