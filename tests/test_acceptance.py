"""Acceptance gate: the top-level guarantees, each as one exact check.

Every criterion prints a single PASS line with its instance count and
elapsed time.  All comparisons are exact ring arithmetic; there are no
tolerances anywhere in this file.
"""

import random
import time
from fractions import Fraction
from itertools import permutations

from hadpi.cli import main
from hadpi.lang import (
    Factorz,
    GATE_CCX,
    GATE_CH,
    ONE,
    Prim,
    Prod,
    ProdC,
    Seq,
    Sum,
    SumC,
    TWO,
    ZERO,
    hdim,
    iterate,
    nsum,
    parse_term,
    sem,
    seqs,
    term_equivalence,
    typecheck,
)
from hadpi.linalg import ExactMatrix, _reduced_column, apply_generator_rows, m_level_embed
from hadpi.synthesis import normal_form_word, synthesize
from hadpi.translate import t_h, t_q, wsem
from hadpi.words import (
    CATALOG,
    DerivationStep,
    Generator,
    Word,
    apply_step,
    gen_h,
    gen_x,
    gen_z,
    verify_relation,
    word_sem,
)
from oracles import H_BLOCK, X_BLOCK, FracRT2, oracle_lde
from termgen import rand_term, rand_type

ID = Prim("id")
HAD = Prim("had")
NEG1 = Prim("neg1")
SWP = Prim("swap+")


def _report(n, detail):
    print(f"criterion {n} PASS: {detail}")


def _rand_gen(rng, n):
    kind = rng.choice("ZXH") if n >= 2 else "Z"
    if kind == "Z":
        return gen_z(rng.randint(1, n))
    b = rng.randint(1, n - 1)
    return Generator(kind, (b, rng.randint(b + 1, n)))


def _rand_word(rng, n, max_len):
    return Word(n, tuple(_rand_gen(rng, n) for _ in range(rng.randint(0, max_len))))


def test_criterion_1_relation_catalog_exhaustive():
    t0 = time.monotonic()
    total = 0
    for rel in CATALOG:
        n = max(rel.min_dim, 6)
        assert n <= 7
        for indices in permutations(range(1, n + 1), len(rel.formals)):
            assert verify_relation(rel, indices, n), (rel.id, indices)
            total += 1
    elapsed = time.monotonic() - t0
    assert total > 1000
    _report(1, f"{len(CATALOG)} relations, {total} instantiations, {elapsed:.1f}s")


def test_criterion_2_synthesis_correct_and_monotone():
    t0 = time.monotonic()
    rng = random.Random(20260815)
    words = 0
    for _ in range(500):
        n = rng.randint(2, 6)
        w = _rand_word(rng, n, 50)
        m = word_sem(w)
        trace = synthesize(m)
        cur = m
        for syl in trace.syllables:
            cur = word_sem(Word(n, syl.gens)).matmul(cur)
        assert cur.is_identity()
        levels = (trace.initial,) + trace.levels
        for before, after in zip(levels, levels[1:]):
            assert after < before, (before, after)
        assert word_sem(normal_form_word(m)) == m
        words += 1
    elapsed = time.monotonic() - t0
    _report(2, f"{words} random words synthesized, {elapsed:.1f}s")


def _random_rewrite(rng, w):
    for _ in range(40):
        rel = rng.choice(CATALOG)
        if rel.min_dim > w.n:
            continue
        indices = rng.sample(range(1, w.n + 1), len(rel.formals))
        direction = rng.choice(("L->R", "R->L"))
        step = DerivationStep(rel.id, direction, tuple(indices), 0)
        positions = list(range(len(w.gens) + 1))
        rng.shuffle(positions)
        for pos in positions:
            try:
                return apply_step(w, step._replace(pos=pos))
            except Exception:
                continue
    return w


def test_criterion_3_normal_form_canonical_on_equal_pairs():
    rng = random.Random(333)
    pairs = 0
    for _ in range(200):
        n = rng.randint(2, 6)
        w1 = _rand_word(rng, n, 12)
        w2 = w1
        for _ in range(rng.randint(1, 6)):
            w2 = _random_rewrite(rng, w2)
        assert word_sem(w1) == word_sem(w2)
        nf1 = normal_form_word(word_sem(w1))
        nf2 = normal_form_word(word_sem(w2))
        assert nf1.gens == nf2.gens
        pairs += 1
    _report(3, f"{pairs} semantically equal pairs, identical normal forms")


def test_criterion_4_hadamard_swap_eighth_power(capsys):
    c = parse_term("(had ; swap+)^8")
    assert sem(c, TWO).is_identity()
    assert term_equivalence(c, ID, TWO, "qpi").equal
    code = main(["equiv", "(had ; swap+)^8", "id"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[-1] == "EQUIV"
    _report(4, "(had ; swap+)^8 = I2, CLI agrees")


def test_criterion_5_equational_axioms():
    hxh = seqs(HAD, SWP, HAD)
    assert term_equivalence(Seq(NEG1, NEG1), ID, ONE, "qpi").equal
    assert term_equivalence(Seq(HAD, HAD), ID, TWO, "qpi").equal
    assert term_equivalence(hxh, SumC(ID, NEG1), TWO, "qpi").equal
    assert term_equivalence(iterate(HAD, 2), ID, TWO, "hpi").equal
    lhs = seqs(SumC(SWP, ID), Prim("assocr+"), SumC(ID, hxh), Prim("assocl+"))
    rhs = seqs(Prim("assocr+"), SumC(ID, hxh), Prim("assocl+"), SumC(SWP, ID))
    assert term_equivalence(lhs, rhs, Sum(TWO, ONE), "hpi").equal
    hh = ProdC(HAD, HAD)
    cx = parse_term("dist ; id + id * swap+ ; factor")
    b = Prod(TWO, TWO)
    left = sem(seqs(hh, cx, hh), b)
    right = sem(seqs(Prim("swap*"), cx, Prim("swap*")), b)
    assert left.n == 4 and left == right
    _report(5, "E1-E3, H1-H2, and the conjugated-cx law hold exactly")


def test_criterion_6_translation_contracts():
    t0 = time.monotonic()
    rng = random.Random(606)
    count = 0
    for _ in range(300):
        b = rand_type(rng, max_dim=8)
        c = rand_term(rng, b, "qpi")
        m = sem(c, b)
        w = wsem(c, b)
        assert sem(t_q(w), nsum(w.n)) == m
        d = typecheck(c, b, "qpi").dst
        h = t_h(c, b)
        assert typecheck(h, Sum(ONE, b), "hpi").dst == Sum(ONE, d)
        padded = sem(h, Sum(ONE, b))
        assert padded == m.identity(1).direct_sum(m)
        count += 1
    for _ in range(300):
        b = rand_type(rng, max_dim=8)
        h = rand_term(rng, b, "hpi")
        # hpi is a sublanguage of qpi: the embedding is the identity on terms
        assert sem(h, b) == sem(h, b, "hpi")
    elapsed = time.monotonic() - t0
    _report(6, f"{count} round-trip + padding checks, 300 embeddings, {elapsed:.1f}s")


def test_criterion_7_derived_gates():
    b3 = Prod(TWO, Prod(TWO, TWO))
    assert sem(GATE_CCX, b3) == m_level_embed(X_BLOCK, [7, 8], 8)
    assert sem(GATE_CH, Prod(TWO, TWO)) == m_level_embed(H_BLOCK, [3, 4], 4)
    _report(7, "ccx is the 8x8 Toffoli block, ch is diag(I2, H)")


def _law_pairs_unitality(rng):
    b = rand_type(rng, max_dim=6)
    c = rand_term(rng, b, "qpi")
    yield Seq(ID, c), c, b
    yield Seq(c, ID), c, b
    yield seqs(Prim("uniti+"), SumC(ID, c), Prim("unite+")), c, b
    yield seqs(Prim("unite+"), c, Prim("uniti+")), SumC(ID, c), Sum(ZERO, b)
    yield seqs(Prim("uniti*"), ProdC(ID, c), Prim("unite*")), c, b
    yield seqs(Prim("unite*"), c, Prim("uniti*")), ProdC(ID, c), Prod(ONE, b)


def _law_pairs_associativity(rng):
    b1 = rand_type(rng, max_dim=5)
    c1 = rand_term(rng, b1, "qpi")
    m1 = typecheck(c1, b1, "qpi").dst
    c2 = rand_term(rng, m1, "qpi")
    m2 = typecheck(c2, m1, "qpi").dst
    c3 = rand_term(rng, m2, "qpi")
    yield Seq(c1, Seq(c2, c3)), Seq(Seq(c1, c2), c3), b1
    b2, b3 = rand_type(rng, max_dim=4), rand_type(rng, max_dim=4)
    d1 = rand_term(rng, b1, "qpi")
    d2 = rand_term(rng, b2, "qpi")
    d3 = rand_term(rng, b3, "qpi")
    ar, al = Prim("assocr+"), Prim("assocl+")
    yield (
        seqs(ar, SumC(d1, SumC(d2, d3)), al),
        SumC(SumC(d1, d2), d3),
        Sum(Sum(b1, b2), b3),
    )
    yield (
        seqs(al, SumC(SumC(d1, d2), d3), ar),
        SumC(d1, SumC(d2, d3)),
        Sum(b1, Sum(b2, b3)),
    )
    arx, alx = Prim("assocr*"), Prim("assocl*")
    yield (
        seqs(arx, ProdC(d1, ProdC(d2, d3)), alx),
        ProdC(ProdC(d1, d2), d3),
        Prod(Prod(b1, b2), b3),
    )
    yield (
        seqs(alx, ProdC(ProdC(d1, d2), d3), arx),
        ProdC(d1, ProdC(d2, d3)),
        Prod(b1, Prod(b2, b3)),
    )
    b4 = rand_type(rng, max_dim=4)
    yield (
        Seq(ar, ar),
        seqs(SumC(ar, ID), ar, SumC(ID, ar)),
        Sum(Sum(Sum(b1, b2), b3), b4),
    )
    yield (
        Seq(arx, arx),
        seqs(ProdC(arx, ID), arx, ProdC(ID, arx)),
        Prod(Prod(Prod(b1, b2), b3), b4),
    )


def _law_pairs_annihilativity(rng):
    b = rand_type(rng, max_dim=6)
    c = rand_term(rng, b, "qpi")
    d = typecheck(c, b, "qpi").dst
    yield seqs(Factorz(b), ProdC(c, ID), Prim("absorb")), ID, ZERO
    yield Seq(Prim("absorb"), Factorz(d)), ProdC(c, ID), Prod(b, ZERO)


def _law_pairs_bifunctoriality(rng):
    b1, b2 = rand_type(rng, max_dim=5), rand_type(rng, max_dim=5)
    yield SumC(ID, ID), ID, Sum(b1, b2)
    yield ProdC(ID, ID), ID, Prod(b1, b2)
    c1 = rand_term(rng, b1, "qpi")
    c2 = rand_term(rng, b2, "qpi")
    c3 = rand_term(rng, typecheck(c1, b1, "qpi").dst, "qpi")
    c4 = rand_term(rng, typecheck(c2, b2, "qpi").dst, "qpi")
    yield (
        Seq(SumC(c1, c2), SumC(c3, c4)),
        SumC(Seq(c1, c3), Seq(c2, c4)),
        Sum(b1, b2),
    )
    yield (
        Seq(ProdC(c1, c2), ProdC(c3, c4)),
        ProdC(Seq(c1, c3), Seq(c2, c4)),
        Prod(b1, b2),
    )


def _law_pairs_distributivity(rng):
    b1, b2, b3 = (rand_type(rng, max_dim=4) for _ in range(3))
    c1 = rand_term(rng, b1, "qpi")
    c2 = rand_term(rng, b2, "qpi")
    c3 = rand_term(rng, b3, "qpi")
    yield (
        seqs(Prim("factor"), ProdC(SumC(c1, c2), c3), Prim("dist")),
        SumC(ProdC(c1, c3), ProdC(c2, c3)),
        Sum(Prod(b1, b3), Prod(b2, b3)),
    )
    yield (
        seqs(Prim("dist"), SumC(ProdC(c1, c3), ProdC(c2, c3)), Prim("factor")),
        ProdC(SumC(c1, c2), c3),
        Prod(Sum(b1, b2), b3),
    )


def _law_pairs_coherence(rng):
    b1, b2, b3 = (rand_type(rng, max_dim=4) for _ in range(3))
    ar, al, sw = Prim("assocr+"), Prim("assocl+"), Prim("swap+")
    arx, alx, swx = Prim("assocr*"), Prim("assocl*"), Prim("swap*")
    yield (
        Seq(ar, SumC(ID, Prim("unite+"))),
        Seq(SumC(sw, ID), SumC(Prim("unite+"), ID)),
        Sum(Sum(b1, ZERO), b3),
    )
    yield (
        Seq(arx, ProdC(ID, Prim("unite*"))),
        Seq(ProdC(swx, ID), ProdC(Prim("unite*"), ID)),
        Prod(Prod(b1, ONE), b3),
    )
    yield (
        seqs(ar, sw, ar),
        seqs(SumC(sw, ID), ar, SumC(ID, sw)),
        Sum(Sum(b1, b2), b3),
    )
    yield (
        seqs(al, sw, al),
        seqs(SumC(ID, sw), al, SumC(sw, ID)),
        Sum(b1, Sum(b2, b3)),
    )
    yield (
        seqs(arx, swx, arx),
        seqs(ProdC(swx, ID), arx, ProdC(ID, swx)),
        Prod(Prod(b1, b2), b3),
    )
    yield (
        seqs(alx, swx, alx),
        seqs(ProdC(ID, swx), alx, ProdC(swx, ID)),
        Prod(b1, Prod(b2, b3)),
    )


def _law_pairs_naturality(rng):
    b1, b2 = rand_type(rng, max_dim=5), rand_type(rng, max_dim=5)
    c1 = rand_term(rng, b1, "qpi")
    c2 = rand_term(rng, b2, "qpi")
    yield seqs(SWP, SumC(c1, c2), SWP), SumC(c2, c1), Sum(b2, b1)
    yield (
        seqs(Prim("swap*"), ProdC(c1, c2), Prim("swap*")),
        ProdC(c2, c1),
        Prod(b2, b1),
    )


LAW_FAMILIES = [
    ("unitality", _law_pairs_unitality),
    ("associativity", _law_pairs_associativity),
    ("annihilativity", _law_pairs_annihilativity),
    ("bifunctoriality", _law_pairs_bifunctoriality),
    ("distributivity", _law_pairs_distributivity),
    ("coherence", _law_pairs_coherence),
    ("naturality", _law_pairs_naturality),
]


def test_criterion_8_level2_law_suite():
    rng = random.Random(888)
    counts = {}
    for name, gen in LAW_FAMILIES:
        done = 0
        while done < 20:
            for lhs, rhs, b in gen(rng):
                tl = typecheck(lhs, b, "qpi")
                tr = typecheck(rhs, b, "qpi")
                assert tl.dst == tr.dst, name
                assert sem(lhs, b) == sem(rhs, b), (name, lhs, rhs, b)
                done += 1
        counts[name] = done
    assert all(v >= 20 for v in counts.values())
    _report(8, ", ".join(f"{k}={v}" for k, v in counts.items()))


def test_criterion_9_ring_oracle_cross_check():
    """The exact arithmetic the product runs, against the rational oracle:
    reduce_nums (each value and the least exponent of each row of an
    ExactMatrix), the H/Z/X row operations of apply_generator_rows, and
    the columns of _reduced_column."""
    t0 = time.monotonic()
    rng = random.Random(999)
    over_rt2 = FracRT2(0, Fraction(1, 2))  # 1/rt2 = rt2/2
    checked = 0
    while checked < 50_000:
        n = rng.randint(1, 6)
        aa = [rng.randint(-99, 99) for _ in range(n * n)]
        bb = [rng.randint(-99, 99) for _ in range(n * n)]
        # numerators times rt2^pad, so that rt2 factors are there to strip
        for _ in range(rng.randint(0, 8)):
            aa, bb = [2 * b for b in bb], aa
        k = rng.randint(0, 18)
        F = [[FracRT2.of(aa[i * n + j], bb[i * n + j], k) for j in range(n)] for i in range(n)]
        M = ExactMatrix(n, k, aa, bb)
        ks, ra, rb = list(M.ks), list(M.ra), list(M.rb)
        rows = list(range(n))
        for step in range(4):
            # every row after the reduction, then the rows each generator touched
            for i in rows:
                row = [FracRT2.of(a, b, ks[i]) for a, b in zip(ra[i], rb[i])]
                assert len(row) == n
                assert row == F[i]
                assert ks[i] == oracle_lde(*row)
                checked += n + 1
            if step == 3:
                break
            g = _rand_gen(rng, n)
            apply_generator_rows(g, ks, ra, rb)
            rows = [i - 1 for i in g.idx]
            if g.kind == "Z":
                F[rows[0]] = [-x for x in F[rows[0]]]
            elif g.kind == "X":
                F[rows[0]], F[rows[1]] = F[rows[1]], F[rows[0]]
            else:
                r1, r2 = F[rows[0]], F[rows[1]]
                F[rows[0]] = [(x + y) * over_rt2 for x, y in zip(r1, r2)]
                F[rows[1]] = [(x - y) * over_rt2 for x, y in zip(r1, r2)]
        j = rng.randint(1, n)
        ck, ca, cb = _reduced_column(ks, [r[j - 1] for r in ra], [r[j - 1] for r in rb])
        col = [FracRT2.of(a, b, ck) for a, b in zip(ca, cb)]
        assert col == [F[i][j - 1] for i in range(n)]
        assert ck == oracle_lde(*col)
        checked += n + 1
    _report(
        9,
        f"{checked} values and exponents of row reductions, H/Z/X row operations"
        f" and columns match the rational oracle in {time.monotonic() - t0:.2f}s",
    )
