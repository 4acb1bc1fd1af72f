"""Synthesis: correctness, level monotonicity, canonical normal forms."""

from __future__ import annotations

import random
from itertools import permutations, product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import generator_matrix, oracle_level, oracle_synthesize, pair_by_sorting
from test_synthesis_golden import CASES, golden_word

from hadpi.linalg import (
    ExactMatrix,
    Generator,
    Level,
    _reduced_column,
    apply_generator_rows,
    gen_h,
    gen_x,
    gen_z,
)
import hadpi.synthesis
from hadpi.synthesis import (
    SynthesisError,
    format_trace,
    hpermute,
    normal_form_word,
    permutation_matrix,
    program_normal_form,
    synthesize,
)
import hadpi.words
from hadpi.words import (
    Word,
    format_word,
    label_word,
    parse_word,
    permutation_word,
    word_program,
    word_sem,
)


def rand_word(rng: random.Random, n: int, max_len: int = 40) -> Word:
    gens = []
    for _ in range(rng.randint(0, max_len)):
        kind = rng.choice("ZXH")
        if kind == "Z":
            gens.append(gen_z(rng.randint(1, n)))
        else:
            b, c = sorted(rng.sample(range(1, n + 1), 2))
            gens.append(gen_x(b, c) if kind == "X" else gen_h(b, c))
    return Word(n, tuple(gens))


def test_identity_gives_empty_trace():
    tr = synthesize(ExactMatrix.identity(4))
    assert tr.syllables == () and tr.levels == ()
    assert tr.initial == Level(0, 0, 0)
    assert normal_form_word(ExactMatrix.identity(4)) == Word(4, ())


def test_one_by_one_sign():
    minus = ExactMatrix(1, 0, [-1], [0])
    tr = synthesize(minus)
    assert [str(s) for s in tr.syllables] == ["Z[1]"]
    assert format_word(normal_form_word(minus)) == "n=1 Z[1]"


def test_hadamard_single_syllable():
    H = generator_matrix(gen_h(1, 2), 2)
    tr = synthesize(H)
    assert [str(s) for s in tr.syllables] == ["H[1,2]"]
    assert tr.initial == Level(2, 1, 2)
    assert tr.levels == (Level(0, 0, 0),)
    assert format_word(normal_form_word(H)) == "n=2 H[1,2]"


def test_trace_format():
    H = generator_matrix(gen_h(1, 2), 2)
    assert format_trace(synthesize(H)) == (
        "# initial level (2,1,2)\nH[1,2]  # level (0,0,0)"
    )


def test_non_orthogonal_rejected():
    shear = ExactMatrix(2, 0, [1, 1, 0, 1], [0] * 4)
    with pytest.raises(SynthesisError):
        synthesize(shear)
    # column 1 is (1, 1+rt2)/rt2: its two odd rows have the residues 1 and
    # 1+rt2, so no pair of rows clears them
    unpaired = ExactMatrix(2, 1, [1, 1, 1, 1], [0, 0, 0, 1])
    with pytest.raises(SynthesisError, match="^odd residues must pair up in a unit column$"):
        hadpi.synthesis._synthesize(unpaired)
    with pytest.raises(SynthesisError, match="^synthesis requires an orthogonal matrix$"):
        synthesize(unpaired)


def test_exponent_guard_runs_per_row_before_any_row_operation(monkeypatch):
    def no_row_operation(g, ks, ra, rb):
        raise AssertionError("a row operation ran before the exponent guard")

    monkeypatch.setattr(hadpi.synthesis, "apply_generator_rows", no_row_operation)
    # row 1 is e_1 at exponent 0, and row 2 is e_2 / rt2^40: at the lde, 40,
    # row 1's numerator 2^20 would let a guard on the whole matrix pass
    M = ExactMatrix(2, 40, [2**20, 0, 0, 1], [0] * 4)
    assert M.ks == [0, 40]
    for bad in (M, ExactMatrix(1, 99999999999, [1], [0])):
        with pytest.raises(SynthesisError, match="^exponent too large for a unit column$"):
            hadpi.synthesis._synthesize(bad)


def _rows(M: ExactMatrix) -> tuple:
    return list(M.ks), [list(r) for r in M.ra], [list(r) for r in M.rb]


def test_synthesis_and_evaluation_leave_input_rows_unchanged():
    # matrices share rows by reference, so an operation that edited a row
    # in place would change the matrices it read
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(2, 6)
        A = word_sem(rand_word(rng, n))
        B = word_sem(rand_word(rng, n))
        before = _rows(A), _rows(B)
        S = A.direct_sum(B)
        summed = _rows(S)
        synthesize(A)
        synthesize(S)
        normal_form_word(S)
        word_sem(rand_word(rng, n))
        assert (_rows(A), _rows(B)) == before
        assert _rows(S) == summed


def test_syllable_product_reaches_identity():
    # multiply emitted syllables onto M through independent matrix products
    rng = random.Random(101)
    for _ in range(60):
        n = rng.randint(2, 6)
        M = word_sem(rand_word(rng, n))
        N = M
        for syl in synthesize(M).syllables:
            W = ExactMatrix.identity(n)
            for g in syl.gens:
                W = W @ generator_matrix(g, n)
            N = W @ N
        assert N.is_identity()


def test_levels_strictly_decrease():
    rng = random.Random(103)
    for _ in range(60):
        n = rng.randint(2, 6)
        M = word_sem(rand_word(rng, n))
        tr = synthesize(M)
        seq = [tr.initial, *tr.levels]
        assert all(b < a for a, b in zip(seq, seq[1:]))
        if tr.levels:
            assert tr.levels[-1] == Level(0, 0, 0)


def test_syllable_shapes():
    rng = random.Random(107)
    for _ in range(40):
        n = rng.randint(2, 6)
        M = word_sem(rand_word(rng, n))
        for syl in synthesize(M).syllables:
            kinds = tuple(g.kind for g in syl.gens)
            assert kinds in (("Z",), ("X",), ("X", "Z"), ("H",), ("H", "X"))


def test_normal_form_round_trip():
    rng = random.Random(109)
    for _ in range(100):
        n = rng.randint(2, 6)
        M = word_sem(rand_word(rng, n, 50))
        w = normal_form_word(M)
        assert word_sem(w) == M


def test_normal_form_idempotent():
    rng = random.Random(113)
    for _ in range(50):
        n = rng.randint(2, 5)
        M = word_sem(rand_word(rng, n))
        w = normal_form_word(M)
        assert normal_form_word(word_sem(w)) == w


def test_normal_form_canonical_across_presentations():
    # pad a word with involution pairs; normal forms must coincide
    rng = random.Random(127)
    for _ in range(40):
        n = rng.randint(2, 5)
        w = rand_word(rng, n)
        g = gen_h(1, 2) if rng.random() < 0.5 else gen_x(1, 2)
        pos = rng.randint(0, len(w.gens))
        padded = Word(n, w.gens[:pos] + (g, g) + w.gens[pos:])
        assert normal_form_word(word_sem(w)) == normal_form_word(word_sem(padded))


def test_permutation_matrix():
    P = permutation_matrix([2, 3, 1])
    # e1 -> e2, e2 -> e3, e3 -> e1
    assert P == ExactMatrix(3, 0, [0, 0, 1, 1, 0, 0, 0, 1, 0], [0] * 9)
    with pytest.raises(SynthesisError):
        permutation_matrix([1, 1, 3])


def test_hpermute_examples():
    assert hpermute([1, 2, 3]) == Word(3, ())
    w = hpermute([2, 1])
    assert word_sem(w) == generator_matrix(gen_x(1, 2), 2)
    cycle = hpermute([2, 3, 1])
    assert word_sem(cycle) == permutation_matrix([2, 3, 1])


def test_hpermute_random():
    rng = random.Random(131)
    for _ in range(60):
        n = rng.randint(1, 7)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        assert word_sem(hpermute(perm)) == permutation_matrix(perm)


def test_level_agrees_with_initial_snapshot():
    rng = random.Random(137)
    for _ in range(40):
        n = rng.randint(2, 6)
        M = word_sem(rand_word(rng, n))
        assert synthesize(M).initial == oracle_level(M)


def test_level_check_catches_a_disturbed_fixed_column(monkeypatch):
    # column 3 is e_3; one signed swap fixes column 2 (-e_1) and column 1 (e_2)
    M = ExactMatrix(3, 0, [0, -1, 0, 1, 0, 0, 0, 0, 1], [0] * 9)
    assert [str(s) for s in synthesize(M).syllables] == ["X[1,2] Z[1]"]

    def flip_after_swap(row):
        def faulty(g, ks, ra, rb):
            apply_generator_rows(g, ks, ra, rb)
            if g.kind == "X":
                apply_generator_rows(Generator("Z", (row,)), ks, ra, rb)

        return faulty

    # the swap also flips row 2, so column 2, which the syllable fixes,
    # ends as -e_2: the scan of the syllable's rows sees the level stay
    monkeypatch.setattr(hadpi.synthesis, "apply_generator_rows", flip_after_swap(2))
    with pytest.raises(SynthesisError, match="syllable did not lower the level"):
        synthesize(M)
    # the swap also flips row 3, which the syllable does not name, so no
    # scan reads the done column 3: the identity check on the rows fails
    monkeypatch.setattr(hadpi.synthesis, "apply_generator_rows", flip_after_swap(3))
    with pytest.raises(SynthesisError, match="synthesis did not reach identity"):
        synthesize(M)

    def z_also_flips_row_1(g, ks, ra, rb):
        apply_generator_rows(g, ks, ra, rb)
        if g.kind == "Z":
            apply_generator_rows(Generator("Z", (1,)), ks, ra, rb)

    # the syllable names Z[3] where it should name Z[1], and its rows take
    # both flips: column 2 ends as e_2 and the done column 3 as -e_3.  The
    # scan starts at the top row the syllable names, so it reads column 3.
    monkeypatch.setattr(hadpi.synthesis, "gen_z", lambda a: Generator("Z", (3,)))
    monkeypatch.setattr(hadpi.synthesis, "apply_generator_rows", z_also_flips_row_1)
    with pytest.raises(SynthesisError, match="syllable did not lower the level"):
        synthesize(M)


def test_level_check_catches_a_row_state_off_the_tracked_column(monkeypatch):
    # column 4 is e_4 and column 3 is (-1, 0, 1, 0)/rt2: H[1,3] makes it
    # -e_3, then Z[3] fixes it
    block = ExactMatrix(3, 1, [1, 0, -1, 0, 0, 0, 1, 0, 1], [0, 0, 0, 0, -1, 0, 0, 0, 0])
    M = block.direct_sum(ExactMatrix.identity(1))
    assert [str(s) for s in synthesize(M).syllables] == ["H[1,3]", "Z[3]", "Z[2]"]
    calls = []

    def flip_row_1_first(g, ks, ra, rb):
        # Z[1] before H[1,3] sends column 3 to e_1 in the rows, where the
        # column tracked from the syllable alone holds -e_3
        if not calls:
            apply_generator_rows(Generator("Z", (1,)), ks, ra, rb)
        calls.append(str(g))
        apply_generator_rows(g, ks, ra, rb)

    monkeypatch.setattr(hadpi.synthesis, "apply_generator_rows", flip_row_1_first)
    with pytest.raises(SynthesisError, match="syllable did not lower the level"):
        synthesize(M)
    assert calls[0] == "H[1,3]"  # the faulty syllable was the first one


def _plain(trace):
    syllables = tuple(tuple((g.kind, g.idx) for g in syl.gens) for syl in trace.syllables)
    return tuple(trace.initial), syllables, tuple(map(tuple, trace.levels))


@pytest.mark.parametrize("n", range(1, 17))
def test_trace_matches_full_rescan_oracle(n):
    # the oracle rescans every column after every syllable, on full rows
    rng = random.Random(139 + n)
    for _ in range(4):
        if n == 1:
            w = Word(1, (gen_z(1),) * rng.randint(0, 3))  # Z is the one generator at n=1
        else:
            w = rand_word(rng, n, 5 * n)
        M = word_sem(w)
        assert _plain(synthesize(M)) == oracle_synthesize(M)


@pytest.mark.parametrize("case", CASES, ids=lambda c: "n{}-len{}-seed{}".format(*c))
def test_golden_trace_matches_full_rescan_oracle(case):
    M = word_sem(golden_word(*case))
    assert _plain(synthesize(M)) == oracle_synthesize(M)


def test_odd_row_1_outside_the_pair_moves_to_row_p():
    # Column 5 scaled by rt2^2 is (1, 0, -1, -1, -1) and the row exponents
    # are 3, 2, 2, 3, 2: the odd rows 1, 3, 4, 5 share residue 1, and rows
    # 3 and 5 have the least exponents.  X[1,3] carries odd row 1 to row 3,
    # where the next syllable pairs it with row 4.
    M = word_sem(parse_word(
        "n=5 H[1,2] X[1,4] H[3,5] H[2,4] H[4,5] X[1,3] H[2,3] X[1,5] H[3,5] X[2,4] H[1,3]"
    ))
    column = _reduced_column(M.ks, [r[4] for r in M.ra], [r[4] for r in M.rb])
    assert column == (2, [1, 0, -1, -1, -1], [0] * 5)
    assert M.ks == [3, 2, 2, 3, 2]
    tr = synthesize(M)
    assert [str(s) for s in tr.syllables[:2]] == ["H[1,5] X[1,3]", "H[1,4] X[1,3]"]
    assert _plain(tr) == oracle_synthesize(M)


@st.composite
def pair_inputs(draw):
    """Odd rows in any order, with the cb and ks lists of their column:
    few exponents and small rt2-parts, so ties and lone rows are common."""
    n = draw(st.integers(1, 12))
    cb = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    ks = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    odd = draw(st.permutations(range(1, n + 1)))[: draw(st.integers(0, n))]
    return odd, cb, ks


@given(pair_inputs())
@example(([], [0], [0]))  # no odd row
@example(([2], [0, 1], [1, 1]))  # one row
@example(([1, 2], [0, 1], [1, 1]))  # one row per class: no pair
@example(([2, 1], [1, -1], [0, 0]))  # two rows of one class, listed high first
@example(([3, 1, 4, 2], [1, 1, -1, 1], [2, 2, 2, 2]))  # tied exponents: the indices decide
@example(([4, 3, 2, 1], [0, 0, 1, 1], [1, 2, 0, 2]))  # the exponent sum decides
@example(([1, 2, 3, 4], [1, 1, 0, 0], [0, 2, 1, 1]))  # tied sums: the second exponent
@example(([4, 2, 3, 1], [0, 1, 0, 1], [1, 1, 1, 1]))  # tied offers: the first index
def test_pair_agrees_with_the_sorting_reference(args):
    odd, cb, ks = args
    assert hadpi.synthesis._pair(list(odd), cb, ks) == pair_by_sorting(list(odd), cb, ks)


def test_permutation_word_is_the_synthesized_one():
    # permutation_word builds in O(n) the X syllables that synthesis emits
    # for a permutation matrix, and hpermute is that word
    rng = random.Random(149)
    for _ in range(300):
        n = rng.randint(1, 40)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        syllables = synthesize(permutation_matrix(perm)).syllables
        inverted = tuple(g for syl in syllables for g in reversed(syl.gens))
        assert tuple(permutation_word(perm)) == inverted
        assert hpermute(perm) == Word(n, inverted)


def test_normal_form_reads_the_trace_through_the_relabelling():
    # the trace's X and Z only relabel rows: at most n-1 X and n Z are left,
    # and no more H than the trace has H syllables
    rng = random.Random(151)
    for _ in range(120):
        n = rng.randint(1, 16)
        if n == 1:
            w = Word(1, (gen_z(1),) * rng.randint(0, 3))  # Z is the one generator at n=1
        else:
            w = rand_word(rng, n, 6 * n)
        M = word_sem(w)
        nf = normal_form_word(M)
        assert word_sem(nf) == M
        assert normal_form_word(word_sem(nf)) == nf
        kinds = [g.kind for g in nf.gens]
        hs = sum(syl.gens[0].kind == "H" for syl in synthesize(M).syllables)
        assert kinds.count("X") <= n - 1 and kinds.count("Z") <= n
        assert kinds.count("H") <= hs
        # a Z per negated row, one permutation word, then the H
        assert kinds == sorted(kinds, key="ZXH".index)


def test_normal_form_relabels_a_signed_permutation_away():
    # the matrix of had ; neg1 + id.  Its syllables inverted in turn read
    # H[1,2] Z[1] X[1,2] Z[1]; the X and the Z after the H relabel it
    M = word_sem(parse_word("n=2 Z[1] H[1,2]"))
    assert [str(s) for s in synthesize(M).syllables] == ["H[1,2]", "X[1,2] Z[1]", "Z[1]"]
    assert format_word(normal_form_word(M)) == "n=2 Z[1] H[1,2]"


def _signed_permutation(at: list[int]) -> ExactMatrix:
    """The matrix whose row r (from 0) is +-e_|at[r]|, signed as at[r]."""
    n = len(at)
    aa = [0] * (n * n)
    for r, a in enumerate(at):
        aa[r * n + abs(a) - 1] = 1 if a > 0 else -1
    return ExactMatrix(n, 0, aa, [0] * (n * n))


def test_signed_permutation_normal_form_is_read_off_its_labels(monkeypatch):
    # every signed permutation at n <= 4 (n = 0 included) and seeded random
    # ones up to n = 64: the synthesized normal form is the word of the
    # labels, and a program that runs to those labels is read off them
    # with no matrix built
    labellings = [
        [s * p for s, p in zip(signs, perm)]
        for n in range(5)
        for perm in permutations(range(1, n + 1))
        for signs in product((1, -1), repeat=n)
    ]
    rng = random.Random(157)
    for n in (5, 8, 13, 16, 24, 32, 47, 64) * 3:
        perm = rng.sample(range(1, n + 1), n)
        labellings.append([p * rng.choice((1, -1)) for p in perm])
    assert len(labellings) == 1 + 2 + 8 + 48 + 384 + 24
    want = [Word(len(at), tuple(label_word(at))) for at in labellings]
    for at, nf in zip(labellings, want):
        got = normal_form_word(_signed_permutation(at))
        assert format_word(got) == format_word(nf) and got == nf

    def no_matrix(*args):
        raise AssertionError("a signed permutation was evaluated or synthesized")

    monkeypatch.setattr(hadpi.synthesis, "synthesize", no_matrix)
    monkeypatch.setattr(hadpi.words, "word_sem", no_matrix)
    monkeypatch.setattr(hadpi.words, "program_matrix", no_matrix)
    for at, nf in zip(labellings, want):
        assert program_normal_form(word_program(label_word(at)), len(at)) == nf


@pytest.mark.parametrize(
    "n, aa, bb",
    [
        (2, [1, 1, 0, 1], [0] * 4),  # two +-1 in a row
        (2, [1, 0, 0, 2], [0] * 4),  # an entry 2
        (2, [1, 0, 0, 1], [0, 0, 0, 1]),  # a nonzero rt2 part at lde 0
        (3, [1, 0, 0, 0, 0, -1, 0, 0, 1], [0] * 9),  # a repeated column
        (3, [0, 1, 0, 0, 0, 0, 1, 0, 0], [0] * 9),  # a zero row
    ],
)
def test_lde_0_matrix_that_is_no_signed_permutation_is_synthesized(n, aa, bb):
    M = ExactMatrix(n, 0, aa, bb)
    assert M.k == 0
    with pytest.raises(SynthesisError) as synthesized:
        synthesize(M)
    with pytest.raises(SynthesisError) as read:
        normal_form_word(M)
    assert str(read.value) == str(synthesized.value) == "synthesis requires an orthogonal matrix"


# (n, seed) of golden_word(n, 4n, seed) words whose normal forms under the
# least-index pair choice had 25,974 to 178,812 generators or ran past 10 s
GROWTH_CASES = [(32, 6), (32, 8), (40, 1), (40, 2), (48, 2), (48, 5), (48, 8)]


@pytest.mark.parametrize("case", GROWTH_CASES, ids=lambda c: "n{}-seed{}".format(*c))
def test_pair_choice_keeps_large_normal_forms_short(case):
    n, seed = case
    M = word_sem(golden_word(n, 4 * n, seed))
    nf = normal_form_word(M)
    assert len(nf.gens) <= 10 * n
    assert word_sem(nf) == M
