"""Word semantics, the relation catalog, derivations, and equivalence."""

from __future__ import annotations

import random
from itertools import permutations
from os.path import commonprefix

import pytest
from oracles import (
    embed,
    frac_direct_sum,
    frac_eq,
    frac_identity,
    frac_of_matrix,
    generator_matrix,
    shift,
)

from hadpi import words
from hadpi.linalg import ExactMatrix, Generator, gen_h, gen_x, gen_z, m_level_embed
from hadpi.synthesis import word_equivalence
from hadpi.words import (
    CATALOG,
    RELATION_BY_ID,
    Derivation,
    DerivationStep,
    StepError,
    Word,
    WordError,
    apply_step,
    format_derivation,
    format_word,
    parse_derivation,
    parse_word,
    replay,
    support_ranks,
    verify_relation,
    word_sem,
)


def rand_word(rng: random.Random, n: int, max_len: int = 30) -> Word:
    gens = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice("ZXH")
        if kind == "Z":
            gens.append(gen_z(rng.randint(1, n)))
        else:
            b, c = sorted(rng.sample(range(1, n + 1), 2))
            gens.append(gen_x(b, c) if kind == "X" else gen_h(b, c))
    return Word(n, tuple(gens))


def test_word_sem_examples():
    assert word_sem(Word(3, ())) == ExactMatrix.identity(3)
    hh = Word(2, (gen_h(1, 2), gen_h(1, 2)))
    assert word_sem(hh).is_identity()
    lhs = Word(2, (gen_z(2), gen_h(1, 2)))
    rhs = Word(2, (gen_h(1, 2), gen_x(1, 2)))
    assert word_sem(lhs) == word_sem(rhs)


def test_word_sem_is_product_homomorphism():
    rng = random.Random(211)
    for _ in range(50):
        n = rng.randint(2, 6)
        w1, w2 = rand_word(rng, n), rand_word(rng, n)
        joined = Word(n, w1.gens + w2.gens)
        assert word_sem(joined) == word_sem(w1) @ word_sem(w2)


def _product(w: Word) -> ExactMatrix:
    """The dense product of the word's generator matrices, in listed order."""
    M = ExactMatrix.identity(w.n)
    for g in w.gens:
        M = M @ generator_matrix(g, w.n)
    return M


@pytest.mark.parametrize(
    "w, labels",
    [
        (Word(1, ()), [1]),
        (Word(1, (gen_z(1),)), [-1]),
        (Word(4, (gen_h(1, 3), gen_h(2, 4))), [1, 2, 3, 4]),  # the identity relabelling
        (Word(2, (gen_h(1, 2), gen_z(1), gen_z(2))), [-1, -2]),  # every label negated
        (Word(3, (gen_x(1, 3), gen_z(1), gen_z(2), gen_z(3))), [-3, -2, -1]),
    ],
)
def test_program_matrix_reads_the_final_labels(w, labels):
    program = list(words.word_program(w.gens))
    assert words._run(program, w.n)[1] == labels
    assert words.program_matrix(program, w.n) == _product(w)


def test_program_matrix_of_a_word_program_is_the_product(monkeypatch):
    calls = []
    apply_generator_rows = words.apply_generator_rows

    def recording(g, ks, ra, rb):
        calls.append(g)
        apply_generator_rows(g, ks, ra, rb)

    monkeypatch.setattr(words, "apply_generator_rows", recording)
    rng = random.Random(229)
    cases = [Word(1, (gen_z(1),) * rng.randint(0, 3)) for _ in range(5)]
    cases += [rand_word(rng, rng.randint(2, 8)) for _ in range(200)]
    with_h = took_rows = 0
    for w in cases:
        program = list(words.word_program(w.gens))
        before = len(calls)
        assert words.program_matrix(program, w.n) == _product(w), format_word(w)
        # the H path applies the run's H generators, one row operation each;
        # a run with no H builds its signed permutation with none
        gens = words._run(program, w.n)[0]
        assert calls[before:] == gens
        with_h += bool(gens)
        took_rows += len(calls) > before
    assert 0 < with_h < len(cases) and took_rows == with_h


def test_program_matrix_of_an_h_free_program_is_the_product(monkeypatch):
    # words of X and Z, and words whose H pairs all cancel in the run
    def no_row_operation(g, ks, ra, rb):
        raise AssertionError("an H-free program took the row operations")

    monkeypatch.setattr(words, "apply_generator_rows", no_row_operation)
    rng = random.Random(233)
    cases = [Word(0, ()), Word(1, ()), Word(1, (gen_z(1),))]
    for _ in range(150):
        n = rng.randint(2, 9)
        w = rand_word(rng, n)
        gens = [g for g in w.gens if g.kind != "H"]
        if rng.random() < 0.5:
            b, c = sorted(rng.sample(range(1, n + 1), 2))
            at = rng.randint(0, len(gens))
            gens[at:at] = [gen_h(b, c), gen_h(b, c)]
        cases.append(Word(n, tuple(gens)))
    for w in cases:
        program = list(words.word_program(w.gens))
        assert words._run(program, w.n)[0] == []
        assert words.program_matrix(program, w.n) == _product(w), format_word(w)


def test_word_sem_validates_indices():
    with pytest.raises(WordError):
        word_sem(Word(2, (gen_z(3),)))


def test_shift_examples():
    assert shift(Word(1, (gen_z(1),)), 2) == Word(3, (gen_z(3),))
    assert shift(Word(2, ()), 4) == Word(6, ())


def test_shift_refuses_a_negative_shift():
    # a WordError, not an assert that python -O strips
    with pytest.raises(WordError, match="shift"):
        shift(Word(1, (gen_z(1),)), -1)


def test_shift_semantics_lemma():
    rng = random.Random(223)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(0, 3)
        w = rand_word(rng, n)
        left = frac_of_matrix(word_sem(shift(w, m)))
        right = frac_direct_sum(frac_identity(m), frac_of_matrix(word_sem(w)))
        assert frac_eq(left, right)


def test_embed_semantics_lemma():
    rng = random.Random(227)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(0, 3)
        w = rand_word(rng, n)
        left = frac_of_matrix(word_sem(embed(w, n + m)))
        right = frac_direct_sum(frac_of_matrix(word_sem(w)), frac_identity(m))
        assert frac_eq(left, right)
    with pytest.raises(WordError):
        embed(Word(4, ()), 3)


def test_catalog_shape():
    assert len(CATALOG) == 22
    assert {r.id for r in CATALOG} == {
        "a1", "a2", "a3", "b1", "b2", "b3", "b4", "b5", "b6",
        "c1", "c2", "c3", "c4", "c5", "d1", "d2", "d3", "d4",
        "e1", "e2", "f1", "f2",
    }
    dims = {r.id: r.min_dim for r in CATALOG}
    assert dims["a1"] == 1 and dims["d4"] == 6 and dims["f1"] == 4
    assert len(RELATION_BY_ID["d3"].lhs) == 12 and len(RELATION_BY_ID["d3"].rhs) == 2


def test_named_relation_instances():
    assert verify_relation(RELATION_BY_ID["d3"], (1, 2, 3, 4), 4)
    assert verify_relation(RELATION_BY_ID["d4"], (1, 2, 3, 4, 5, 6), 6)
    assert verify_relation(RELATION_BY_ID["f2"], (1, 2, 3, 4), 4)


def test_all_relations_at_min_dim_all_assignments():
    for rel in CATALOG:
        n = rel.min_dim
        for idx in permutations(range(1, n + 1), len(rel.formals)):
            assert verify_relation(rel, idx, n), (rel.id, idx)


def test_relations_random_assignments_larger_ambient():
    rng = random.Random(229)
    for rel in CATALOG:
        for _ in range(5):
            n = rng.randint(rel.min_dim, 7)
            idx = tuple(rng.sample(range(1, n + 1), len(rel.formals)))
            assert verify_relation(rel, idx, n), (rel.id, idx, n)


def _on_support(gens: tuple[Generator, ...], n: int) -> bool:
    # the full-n matrix is the relabelled word's matrix placed at its support
    rank = support_ranks(i for g in gens for i in g.idx)
    small = Word(len(rank), tuple(Generator(g.kind, tuple(rank[i] for i in g.idx)) for g in gens))
    return word_sem(Word(n, gens)) == m_level_embed(word_sem(small), sorted(rank), n)


def test_support_ranks_keep_order():
    assert support_ranks([5, 2, 9]) == {2: 1, 5: 2, 9: 3}
    assert support_ranks([3, 3, 1]) == {1: 1, 3: 2}
    assert support_ranks([]) == {}


def test_relabelled_checks_agree_with_the_full_words():
    # every instance up to n=5 (n=6 for d4): each side, raw as verify_relation
    # builds it and spliced as apply_step builds it, is the identity off its
    # support and its relabelling on it, and the rank pattern decides the
    # instance as the full-n check does
    for rel in CATALOG:
        for n in range(rel.min_dim, max(rel.min_dim, 5) + 1):
            for idx in permutations(range(1, n + 1), len(rel.formals)):
                asg = dict(zip(rel.formals, idx))
                for side in (rel.lhs, rel.rhs):
                    raw = tuple(Generator(kind, tuple(asg[f] for f in fs)) for kind, fs in side)
                    assert _on_support(raw, n), (rel.id, idx, raw)
                    assert _on_support(words._instantiate(side, asg), n), (rel.id, idx)
                rank = support_ranks(idx)
                pattern = tuple(rank[i] for i in idx)
                full = word_sem(Word(n, words._instantiate(rel.lhs, asg))) == word_sem(
                    Word(n, words._instantiate(rel.rhs, asg))
                )
                assert verify_relation(rel, pattern, len(pattern)) == full, (rel.id, idx)


def _rand_relation(rng: random.Random, k: int) -> words.Relation:
    """A relation over the formals a, b, ... of k indices, not in the catalog:
    random Z, X and H tokens, H with its indices in either order.  Half of
    them hold, their right side the left one with a cancelling pair
    inserted; the others change a token, and hold only by chance."""
    formals = "abcdef"[:k]

    def token():
        kind = rng.choice("ZXH") if k > 1 else "Z"
        return (kind, tuple(rng.sample(formals, 1 if kind == "Z" else 2)))

    lhs = [token() for _ in range(rng.randint(1, 6))]
    rhs = list(lhs)
    if rng.random() < 0.5:
        t = token()
        rhs[rng.randint(0, len(rhs)) : 0] = [t, t]  # Z Z, X X and H H cancel
    else:
        rhs[rng.randrange(len(rhs))] = token()
    return words.Relation("r", tuple(formals), tuple(lhs), tuple(rhs), k)


def test_each_relation_has_one_verdict_for_every_assignment():
    # relabelling a relation's indices conjugates both sides by one
    # permutation matrix, and rows past the indices stay fixed: so
    # relations-verify checks (1..k) at dimension k alone
    rng = random.Random(61)
    rels = list(CATALOG) + [_rand_relation(rng, rng.randint(1, 4)) for _ in range(150)]
    verdicts = set()
    for rel in rels:
        k = len(rel.formals)
        once = verify_relation(rel, tuple(range(1, k + 1)), k)
        verdicts.add(once)
        for n in range(k, min(k + 2, 6) + 1):
            for idx in permutations(range(1, n + 1), k):
                assert verify_relation(rel, idx, n) == once, (rel, idx, n)
    assert verdicts == {False, True}


def test_verify_relation_rejects_bad_indices():
    rel = RELATION_BY_ID["c1"]
    with pytest.raises(WordError):
        verify_relation(rel, (1, 1), 3)
    with pytest.raises(WordError):
        verify_relation(rel, (1, 9), 3)
    with pytest.raises(WordError):
        verify_relation(rel, (1,), 3)


def test_apply_step_examples():
    hh = Word(2, (gen_h(1, 2), gen_h(1, 2)))
    assert apply_step(hh, DerivationStep("a3", "L->R", (1, 2), 0)) == Word(2, ())
    hx = Word(2, (gen_h(1, 2), gen_x(1, 2)))
    zh = apply_step(hx, DerivationStep("d2", "R->L", (1, 2), 0))
    assert zh == Word(2, (gen_z(2), gen_h(1, 2)))
    with pytest.raises(StepError):
        apply_step(hx, DerivationStep("a3", "L->R", (1, 2), 0))
    with pytest.raises(StepError):
        apply_step(hx, DerivationStep("a3", "L->R", (1, 2), 5))
    with pytest.raises(StepError):
        apply_step(hx, DerivationStep("zz", "L->R", (1, 2), 0))
    with pytest.raises(StepError):
        apply_step(hx, DerivationStep("a3", "sideways", (1, 2), 0))


def test_apply_step_insertion_and_preservation():
    # R->L on an involution relation inserts a cancelling pair anywhere
    rng = random.Random(233)
    for _ in range(60):
        n = rng.randint(2, 6)
        w = rand_word(rng, n)
        before = word_sem(w)
        candidates = [r for r in ("a1", "a2", "a3", "f1") if RELATION_BY_ID[r].min_dim <= n]
        rel_id = rng.choice(candidates)
        rel = RELATION_BY_ID[rel_id]
        idx = tuple(rng.sample(range(1, n + 1), len(rel.formals)))
        pos = rng.randint(0, len(w.gens))
        grown = apply_step(w, DerivationStep(rel_id, "R->L", idx, pos))
        assert word_sem(grown) == before
        shrunk = apply_step(grown, DerivationStep(rel_id, "L->R", idx, pos))
        assert shrunk == w


def test_apply_step_reversed_index_instantiation():
    # c4 with the H pattern instantiated through (e2) expansion
    rel = RELATION_BY_ID["e2"]
    w = Word(3, (gen_x(1, 3), gen_h(1, 3), gen_x(1, 3)))
    # lhs H[c,b] with b=1, c=3 normalizes to exactly w's three generators
    collapsed = apply_step(w, DerivationStep("e2", "L->R", (1, 3), 0))
    assert word_sem(collapsed) == word_sem(w)
    assert rel.min_dim == 2


def _last(w0, steps):
    *_, last = replay(w0, steps)
    return last


def test_check_derivation():
    w = Word(2, ())
    assert _last(w, []) == w
    # grow then shrink: H H X X  ->  eps
    start = Word(2, (gen_h(1, 2), gen_h(1, 2), gen_x(1, 2), gen_x(1, 2)))
    steps = [
        DerivationStep("a3", "L->R", (1, 2), 0),
        DerivationStep("a2", "L->R", (1, 2), 0),
    ]
    assert _last(start, steps) == Word(2, ())
    assert _last(start, steps) != Word(2, (gen_z(1),))
    with pytest.raises(StepError, match="step 2"):
        bad = [
            DerivationStep("a3", "L->R", (1, 2), 0),
            DerivationStep("a3", "L->R", (1, 2), 0),
        ]
        _last(start, bad)


def test_replay_yields_each_word_and_names_the_failing_step():
    start = Word(2, (gen_h(1, 2), gen_h(1, 2), gen_x(1, 2), gen_x(1, 2)))
    xx = Word(2, (gen_x(1, 2), gen_x(1, 2)))
    a3 = DerivationStep("a3", "L->R", (1, 2), 0)
    assert list(replay(start, [a3])) == [start, xx]
    trail = replay(start, [a3, a3])
    assert next(trail) == start and next(trail) == xx
    with pytest.raises(StepError, match=r"^step 2: relation a3 L->R does not match at 0$"):
        next(trail)
    # an index error of the relation's instantiation names its step too
    with pytest.raises(StepError, match=r"^step 1: indices must lie in 1\.\.2: \[1, 3\]$"):
        _last(start, [a3._replace(indices=(1, 3))])


def _windows_naive(a: Word, b: Word) -> tuple[Word, Word]:
    p = len(commonprefix([a.gens, b.gens]))
    s = len(commonprefix([a.gens[p:][::-1], b.gens[p:][::-1]]))
    ga, gb = a.gens[p : len(a.gens) - s], b.gens[p : len(b.gens) - s]
    rank = support_ranks(i for g in ga + gb for i in g.idx)
    return tuple(
        Word(len(rank), tuple(Generator(g.kind, tuple(rank[i] for i in g.idx)) for g in gs))
        for gs in (ga, gb)
    )


def test_a_step_is_decided_on_its_window():
    # the words of a splice are equal exactly when the relabelled windows
    # where they differ are, for sound and unsound splices alike
    rng = random.Random(239)
    for _ in range(300):
        n = rng.randint(2, 5)
        w = rand_word(rng, n)
        i = rng.randint(0, len(w.gens))
        j = rng.randint(i, min(len(w.gens), i + 4))
        if rng.random() < 0.5:
            piece = rand_word(rng, n, 4).gens
        else:
            rel = rng.choice([r for r in CATALOG if r.min_dim <= n])
            asg = dict(zip(rel.formals, rng.sample(range(1, n + 1), len(rel.formals))))
            piece = words._instantiate(rng.choice((rel.lhs, rel.rhs)), asg)
        v = Word(n, w.gens[:i] + piece + w.gens[j:])
        a, b = words._changed_window(w.gens, v.gens)
        assert (a, b) == _windows_naive(w, v)
        assert (word_sem(a) == word_sem(b)) == (word_sem(w) == word_sem(v))


def test_long_replay_evaluates_two_whole_words(monkeypatch):
    # 2,000 steps on an n=8 word of 200 generators: each pair inserts
    # H[a,b] H[a,b] somewhere and removes it again; with a > b each H
    # splices as X H X through (e2)
    rng = random.Random(241)
    gens = []
    for _ in range(200):
        b, c = sorted(rng.sample(range(1, 9), 2))
        gens.append(rng.choice((gen_z(b), gen_x(b, c), gen_h(b, c))))
    start = Word(8, tuple(gens))
    steps = []
    for _ in range(1000):
        pos, idx = rng.randint(0, 200), tuple(rng.sample(range(1, 9), 2))
        steps += [DerivationStep("a3", "R->L", idx, pos), DerivationStep("a3", "L->R", idx, pos)]
    sizes = []
    real_word_sem = words.word_sem

    def counted(w):
        sizes.append(w.n)
        return real_word_sem(w)

    monkeypatch.setattr(words, "word_sem", counted)
    trail = list(replay(start, steps))
    assert len(trail) == 2001 and trail[-1] == start
    assert sizes.count(8) == 2


def test_replay_fails_at_an_unsound_step(monkeypatch):
    # b1 with rhs Z[a] drops a Z: step 2 uses it
    unsound = RELATION_BY_ID["b1"]._replace(rhs=words._toks("Z[a]"))
    monkeypatch.setitem(words.RELATION_BY_ID, "b1", unsound)
    start = Word(3, (gen_h(1, 2), gen_h(1, 2), gen_z(1), gen_z(3)))
    steps = [
        DerivationStep("a3", "L->R", (1, 2), 0),
        DerivationStep("b1", "L->R", (1, 3), 0),
        DerivationStep("a1", "L->R", (1,), 0),
    ]
    with pytest.raises(StepError, match=r"^step 2: changed the semantics$"):
        _last(start, steps)
    # past step checks that decide nothing, the whole-word check still fails
    monkeypatch.setattr(words, "_changed_window", lambda a, b: (Word(0, ()), Word(0, ())))
    with pytest.raises(StepError, match=r"^the final word's semantics differs"):
        _last(start, steps[:2])


def test_word_equivalence_returns_the_normal_forms():
    hx = Word(2, (gen_h(1, 2), gen_x(1, 2)))
    same = word_equivalence(Word(2, hx.gens * 8), Word(2, ()))
    assert same == (True, Word(2, ()), Word(2, ()))
    differ = word_equivalence(hx, Word(2, ()))
    assert not differ.equal and word_sem(differ.lhs) == word_sem(hx)


def test_long_integer_tokens_are_word_errors():
    nines = "9" * 5000
    with pytest.raises(WordError, match="a generator index has more than 18 digits"):
        parse_word(f"n=3 X[1,{nines}]")
    with pytest.raises(WordError, match="line 2: the position has more than 18 digits"):
        parse_derivation(f"n=2 eps\nstep a3 L->R at {nines} with a=1,b=2\nn=2 eps")
    # errors name the line of the file, comments and blank lines included
    with pytest.raises(WordError, match="line 5: the index a has more than 18 digits"):
        parse_derivation(f"# comment\n\nn=2 eps\n#\nstep a3 L->R at 0 with a={nines},b=2\nn=2 eps")
    # leading zeros are not digits of the value
    assert parse_word("n=3 Z[" + "0" * 30 + "2]") == Word(3, (gen_z(2),))


def test_words_equiv():
    assert word_equivalence(Word(1, (gen_z(1), gen_z(1))), Word(1, ())).equal
    assert not word_equivalence(Word(2, (gen_h(1, 2),)), Word(2, (gen_x(1, 2),))).equal
    hx = (gen_h(1, 2), gen_x(1, 2))
    assert word_equivalence(Word(2, hx * 8), Word(2, ())).equal
    assert not word_equivalence(Word(2, hx * 4), Word(2, ())).equal
    with pytest.raises(WordError):
        word_equivalence(Word(2, ()), Word(3, ()))


def test_words_equiv_is_equivalence():
    rng = random.Random(239)
    ws = [rand_word(rng, 3, 12) for _ in range(8)]
    for w in ws:
        assert word_equivalence(w, w).equal
    for w1 in ws:
        for w2 in ws:
            assert word_equivalence(w1, w2).equal == word_equivalence(w2, w1).equal


def test_parse_and_format_word():
    w = parse_word("n=3 Z[1] X[1,2] H[2,3]")
    assert w == Word(3, (gen_z(1), gen_x(1, 2), gen_h(2, 3)))
    assert format_word(w) == "n=3 Z[1] X[1,2] H[2,3]"
    assert parse_word("n=2 eps") == Word(2, ())
    assert parse_word("n=2 ε") == Word(2, ())
    assert format_word(Word(2, ())) == "n=2 eps"
    # the empty word on 0, which normalize and synth print, reads back
    assert parse_word(format_word(Word(0, ()))) == Word(0, ())
    # multi-line input is fine
    assert parse_word("n=2\nH[1,2]\nH[1,2]") == Word(2, (gen_h(1, 2),) * 2)


def test_parse_word_normalizes_reversed_indices():
    assert parse_word("n=3 X[3,1]") == Word(3, (gen_x(1, 3),))
    assert parse_word("n=3 H[3,1]") == Word(
        3, (gen_x(1, 3), gen_h(1, 3), gen_x(1, 3))
    )


def test_parse_word_errors():
    for bad in [
        "",
        "Z[1]",
        "n=0 Z[1]",
        "n=2 Q[1]",
        "n=2 Z[1,2]",
        "n=2 X[1]",
        "n=2 X[1,1]",
        "n=2 H[1,3]",
        "n=2 Z[0]",
    ]:
        with pytest.raises(WordError):
            parse_word(bad)
    # int() reads these as 10, 2, 3 and 2; a dimension is ASCII digits only
    for bad in ["n=1_0 X[1,2]", "n=+2 eps", "n=\u0663 eps", "n= 2 eps", "n=2.0 eps"]:
        with pytest.raises(WordError, match="^the dimension is not a natural number$"):
            parse_word(bad)


def test_word_format_round_trip_random():
    rng = random.Random(241)
    for _ in range(60):
        w = rand_word(rng, rng.randint(2, 6))
        assert parse_word(format_word(w)) == w


def test_derivation_text_round_trip():
    steps = (
        DerivationStep("a3", "L->R", (1, 2), 0),
        DerivationStep("d4", "R->L", (1, 2, 3, 4, 5, 6), 7),
    )
    d = Derivation(Word(6, (gen_z(1),)), steps, Word(6, ()))
    text = format_derivation(d)
    assert text.splitlines()[:2] == ["n=6 Z[1]", "step a3 L->R at 0 with a=1,b=2"]
    assert text.splitlines()[-1] == "n=6 eps"
    assert parse_derivation(text) == d
    assert parse_derivation("# comment\n\n" + text + "\n# end\n") == d
    for bad in [
        "step a3 L->R at 0 with a=1",
        "step nope L->R at 0 with a=1,b=2",
        "step a3 up at 0 with a=1,b=2",
        "a3 L->R 0 a=1,b=2",
    ]:
        with pytest.raises(WordError, match="^line 3: "):
            parse_derivation(f"# start\nn=2 eps\n{bad}\nn=2 eps")
    # a word on the first and on the last line that is not a comment
    for bad in ["", "n=2 eps", "step a3 L->R at 0 with a=1,b=2\nn=2 eps", "n=2 eps\n# n=2 eps"]:
        with pytest.raises(WordError, match="needs a word on the first and last line"):
            parse_derivation(bad)
