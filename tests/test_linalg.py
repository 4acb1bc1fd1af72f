"""Exact matrix operations against the Fraction oracle."""

from __future__ import annotations

import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import (
    H_BLOCK,
    FracRT2,
    frac_direct_sum,
    frac_eq,
    frac_identity,
    frac_kron,
    frac_mul,
    frac_of_matrix,
    frac_transpose,
    generator_matrix,
    oracle_lde,
    oracle_level,
    reduce_nums_stepwise,
    transpose,
)

from hadpi._core import reduce_nums
from hadpi.linalg import (
    ExactMatrix,
    Generator,
    Level,
    LinAlgError,
    _level_unchecked,
    _reduced_column,
    apply_generator_rows,
    format_matrix,
    gen_h,
    gen_x,
    gen_z,
    m_level_embed,
    parse_matrix,
)
from hadpi.words import Word, program_matrix, word_program, word_sem


def rand_generator(rng: random.Random, n: int) -> Generator:
    kind = rng.choice("ZXH" if n >= 2 else "Z")
    if kind == "Z":
        return gen_z(rng.randint(1, n))
    b, c = rng.sample(range(1, n + 1), 2)
    return gen_x(b, c) if kind == "X" else gen_h(min(b, c), max(b, c))


def rand_orthogonal(rng: random.Random, n: int, length: int) -> ExactMatrix:
    M = ExactMatrix.identity(n)
    for _ in range(length):
        M = M @ generator_matrix(rand_generator(rng, n), n)
    return M


def rand_general(rng: random.Random, n: int) -> ExactMatrix:
    # entry (a + b*rt2) / rt2^e with its own e in 0..5, over the shared rt2^5
    aa, bb = [], []
    for _ in range(n * n):
        (a,), (b,) = _times_rt2_pow([rng.randint(-9, 9)], [rng.randint(-9, 9)], rng.randint(0, 5))
        aa.append(a)
        bb.append(b)
    return ExactMatrix(n, 5, aa, bb)


def test_identity_and_equality():
    I3 = ExactMatrix.identity(3)
    assert I3.is_identity() and I3.is_orthogonal()
    assert I3 == ExactMatrix(3, 0, [1, 0, 0, 0, 1, 0, 0, 0, 1], [0] * 9)
    assert I3 != ExactMatrix.identity(4)


def test_constructor_reduces_padding():
    # rt2^2 * I stored at exponent 2 collapses to exponent 0
    M = ExactMatrix(2, 2, [2, 0, 0, 2], [0, 0, 0, 0])
    assert M.k == 0 and M.is_identity()
    N = ExactMatrix(2, 1, [0, 0, 0, 0], [1, 0, 0, 1])
    assert N.k == 0 and N.is_identity()


def test_generator_matrices():
    assert generator_matrix(gen_z(1), 2) == ExactMatrix(2, 0, [-1, 0, 0, 1], [0] * 4)
    assert generator_matrix(gen_x(1, 2), 2) == ExactMatrix(2, 0, [0, 1, 1, 0], [0] * 4)
    assert generator_matrix(gen_h(1, 2), 2) == H_BLOCK
    assert gen_x(3, 1) == gen_x(1, 3)  # swap is symmetric


def test_all_generators_orthogonal_involutions():
    n = 5
    gens = [gen_z(a) for a in range(1, n + 1)]
    gens += [gen_x(b, c) for b in range(1, n + 1) for c in range(b + 1, n + 1)]
    gens += [gen_h(b, c) for b in range(1, n + 1) for c in range(b + 1, n + 1)]
    for g in gens:
        M = generator_matrix(g, n)
        assert M.is_orthogonal()
        assert (M @ M).is_identity()


def test_shear_not_orthogonal():
    shear = ExactMatrix(2, 0, [1, 1, 0, 1], [0] * 4)
    assert not shear.is_orthogonal()


def level(M: ExactMatrix) -> Level:
    # the scan synthesis runs, over the whole matrix
    return _level_unchecked(M.ks, M.ra, M.rb)[0]


def column(M: ExactMatrix, j: int) -> tuple[int, list[int], list[int]]:
    # column j (1-based) at its own least exponent
    return _reduced_column(M.ks, [r[j - 1] for r in M.ra], [r[j - 1] for r in M.rb])


def apply_word(gens: list[Generator], M: ExactMatrix) -> ExactMatrix:
    # the word's matrix times M, by row operations on M's rows, the last
    # generator first
    ks, ra, rb = list(M.ks), list(M.ra), list(M.rb)
    for g in reversed(gens):
        apply_generator_rows(g, ks, ra, rb)
    return ExactMatrix.from_rows(ks, ra, rb)


@st.composite
def perturbed_orthogonal(draw):
    """An orthogonal matrix of a random word, and that matrix with one
    numerator of its flat view moved, or read at the next exponent."""
    n = draw(st.integers(1, 6))
    rng = random.Random(draw(st.integers(0, 2**32)))
    M = rand_orthogonal(rng, n, draw(st.integers(0, 4 * n)))
    aa, bb = M.flat()
    t = draw(st.integers(0, n * n - 1))
    how = draw(st.sampled_from(["a", "b", "k"]))
    if how == "k":
        return M, ExactMatrix(n, M.k + 1, aa, bb)
    delta = draw(st.sampled_from([-2, -1, 1, 2]))
    (aa if how == "a" else bb)[t] += delta
    return M, ExactMatrix(n, M.k, aa, bb)


def _dense_orthogonal(M: ExactMatrix) -> bool:
    return transpose(M).matmul(M).is_identity()


@given(perturbed_orthogonal())
@example((ExactMatrix.identity(2), ExactMatrix(2, 0, [1, 0, 1, 0], [0] * 4)))  # equal unit rows
# rows (1+rt2, 1)/2 and (1, -1-rt2)/2 are orthogonal, and each has
# a.a + 2 b.b = 4 = 2^2, but a.b = 1: the diagonal has an rt2 part
@example((ExactMatrix.identity(2), ExactMatrix(2, 2, [1, 1, 1, -1], [1, 0, 0, -1])))
def test_is_orthogonal_agrees_with_the_dense_product(pair):
    M, perturbed = pair
    assert M.is_orthogonal() and _dense_orthogonal(M)
    assert perturbed.is_orthogonal() == _dense_orthogonal(perturbed)


def test_is_orthogonal_on_general_matrices_and_large_exponents():
    rng = random.Random(73)
    for _ in range(100):
        M = rand_general(rng, rng.randint(1, 5))
        assert M.is_orthogonal() == _dense_orthogonal(M)
    # the dense product would hold 2^99999999999; the row check does not
    assert not ExactMatrix(1, 99999999999, [1], [0]).is_orthogonal()
    # one row off the identity decides, so the all-ones matrix is quick
    n = 256
    assert not ExactMatrix(n, 0, [1] * (n * n), [0] * (n * n)).is_orthogonal()


def _canonical(M: ExactMatrix) -> None:
    # every row is a tuple, so rows compare equal whatever built them;
    # rebuilt from its flat view, M is equal with an equal hash, and
    # reduce_nums leaves each row as it is
    assert all(type(r) is tuple for r in M.ra + M.rb)
    again = ExactMatrix(M.n, M.k, *M.flat())
    assert again == M and hash(again) == hash(M)
    for k, ra, rb in zip(M.ks, M.ra, M.rb):
        got = reduce_nums(k, ra, rb)
        assert (got[0], tuple(got[1]), tuple(got[2])) == (k, ra, rb)


def test_every_constructor_builds_the_canonical_form():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 6)
        gens = [rand_generator(rng, n) for _ in range(rng.randint(0, 5 * n))]
        A = word_sem(Word(n, tuple(gens)))
        H_free = [g for g in gens if g.kind != "H"]
        B = rand_general(rng, rng.randint(1, 4))
        rows = rng.sample(range(1, n + 2), 2)
        for M in (
            A,
            program_matrix(word_program(gens), n),
            program_matrix(word_program(H_free), n),
            A.direct_sum(B),
            B.direct_sum(A),
            ExactMatrix.identity(n),
            parse_matrix(format_matrix(A)),
            A @ A,
            B @ B,
            m_level_embed(H_BLOCK, rows, n + 1),
            m_level_embed(A, sorted(rng.sample(range(1, n + 3), n)), n + 2),
        ):
            _canonical(M)
    assert word_sem(Word(0, ())) == ExactMatrix(0, 0, [], [])


def test_level_examples():
    assert level(ExactMatrix.identity(4)) == Level(0, 0, 0)
    assert level(generator_matrix(gen_h(1, 2), 2)) == Level(2, 1, 2)
    assert level(generator_matrix(gen_x(1, 2), 2)) == Level(2, 0, 0)


def test_level_identity_iff_zero():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 6)
        M = rand_orthogonal(rng, n, rng.randint(0, 12))
        assert (level(M) == Level(0, 0, 0)) == M.is_identity()


def test_level_matches_definition_oracle():
    rng = random.Random(37)
    for _ in range(150):
        n = rng.randint(2, 6)
        M = rand_orthogonal(rng, n, rng.randint(0, 15))
        assert tuple(level(M)) == oracle_level(M)


def test_matmul_against_oracle():
    rng = random.Random(41)
    for _ in range(80):
        n = rng.randint(1, 5)
        A, B = rand_general(rng, n), rand_general(rng, n)
        assert frac_eq(frac_of_matrix(A @ B), frac_mul(frac_of_matrix(A), frac_of_matrix(B)))


def test_tensor_and_direct_sum_against_oracle():
    rng = random.Random(43)
    for _ in range(60):
        A = rand_general(rng, rng.randint(1, 3))
        B = rand_general(rng, rng.randint(1, 3))
        assert frac_eq(
            frac_of_matrix(A.tensor(B)), frac_kron(frac_of_matrix(A), frac_of_matrix(B))
        )
        assert frac_eq(
            frac_of_matrix(A.direct_sum(B)),
            frac_direct_sum(frac_of_matrix(A), frac_of_matrix(B)),
        )


def test_matmul_dimension_mismatch():
    with pytest.raises(LinAlgError):
        ExactMatrix.identity(2) @ ExactMatrix.identity(3)


def test_column_has_own_exponent():
    # H at column 1 has exponent 1; after squaring, columns are integral
    M = generator_matrix(gen_h(1, 2), 3)
    assert column(M, 3) == (0, [0, 0, 1], [0, 0, 0])
    assert column(M, 1) == (1, [1, 1, 0], [0, 0, 0])


def test_embed_disjoint_blocks_commute():
    rng = random.Random(47)
    n = 6
    for _ in range(50):
        rows1 = rng.sample(range(1, n + 1), 2)
        rest = [r for r in range(1, n + 1) if r not in rows1]
        rows2 = rng.sample(rest, 2)
        A = m_level_embed(H_BLOCK, rows1, n)
        B = m_level_embed(H_BLOCK, rows2, n)
        assert A @ B == B @ A


def test_embed_unsorted_rows_permute_block():
    # H placed at reversed rows equals X * H * X on sorted rows
    n = 4
    rev = m_level_embed(H_BLOCK, [3, 2], n)
    X = generator_matrix(gen_x(2, 3), n)
    H = generator_matrix(gen_h(2, 3), n)
    assert rev == X @ H @ X


def test_embed_validation():
    with pytest.raises(LinAlgError):
        m_level_embed(H_BLOCK, [1, 1], 3)
    with pytest.raises(LinAlgError):
        m_level_embed(H_BLOCK, [1, 4], 3)
    with pytest.raises(LinAlgError):
        m_level_embed(H_BLOCK, [1], 3)


def test_matrix_dump_round_trip():
    assert format_matrix(generator_matrix(gen_h(1, 2), 2)) == "dim 2\nlde 1\n1 1\n1 -1"
    rng = random.Random(53)
    for _ in range(60):
        M = rand_general(rng, rng.randint(1, 4))
        assert parse_matrix(format_matrix(M)) == M
    with pytest.raises(LinAlgError):
        parse_matrix("dim 2\n1 0\n0 1")
    with pytest.raises(LinAlgError):
        parse_matrix("dim 2\nlde 0\n1 0\n0")
    # int() reads each of these header counts; a count is ASCII digits only
    for header, what in [("dim 0_2\nlde 1", "dimension"), ("dim +2\nlde 1", "dimension"),
                         ("dim 2\nlde +1", "lde"), ("dim 2\nlde \u0661", "lde"),
                         ("dim 2\nlde -1", "lde")]:
        with pytest.raises(LinAlgError, match=f"^the {what} is not a natural number$"):
            parse_matrix(header + "\n1 1\n1 -1")
    assert parse_matrix("dim  2\nlde 01\n1 1\n1 -1") == generator_matrix(gen_h(1, 2), 2)
    with pytest.raises(LinAlgError, match="entry 1: malformed ring element"):
        parse_matrix("dim 1\nlde 0\n\u0661")


def test_entry_and_float_view():
    H = generator_matrix(gen_h(1, 2), 2)
    # entry (i, j) is rt2^-k * (aa + bb*rt2) at the flat index (i-1)*n + (j-1)
    aa, bb = H.flat()
    assert (H.k, aa[0], bb[0]) == (1, 1, 0)
    assert (H.k, aa[3], bb[3]) == (1, -1, 0)
    approx = H.to_float()
    assert abs(approx[0][0] - 2**-0.5) < 1e-12
    assert abs(approx[1][1] + 2**-0.5) < 1e-12


def test_float_view_of_a_large_exponent():
    # lde 3000: rt2^3000 and the numerators are far past the float range,
    # while every entry of an orthogonal matrix lies in [-1, 1]
    m = apply_word([gen_h(1, 2), gen_h(2, 3), gen_x(1, 2)] * 1500, ExactMatrix.identity(3))
    assert m.k == 3000
    approx = m.to_float()
    aa, bb = m.flat()
    for i in range(3):
        for j in range(3):
            x = FracRT2.of(aa[i * 3 + j], bb[i * 3 + j], m.k)
            assert abs(approx[i][j] - (float(x.p) + float(x.q) * 2**0.5)) < 1e-12
            assert abs(approx[i][j]) <= 1


def test_matmul_padding_invariance():
    # multiplying by differently padded but equal operands gives equal results
    A = ExactMatrix(2, 0, [0, 1, 1, 0], [0] * 4)
    A_padded = ExactMatrix(2, 2, [0, 2, 2, 0], [0] * 4)
    assert A == A_padded
    B = generator_matrix(gen_h(1, 2), 2)
    assert A @ B == A_padded @ B


def test_transpose_involution():
    rng = random.Random(59)
    for _ in range(50):
        M = rand_general(rng, rng.randint(1, 4))
        assert frac_eq(frac_of_matrix(transpose(M)), frac_transpose(frac_of_matrix(M)))
        assert transpose(transpose(M)) == M


def _times_rt2_pow(aa: list[int], bb: list[int], d: int) -> tuple[list[int], list[int]]:
    for _ in range(d):
        aa, bb = [2 * b for b in bb], aa
    return aa, bb


@st.composite
def numerator_arrays(draw):
    """(k, aa, bb) with entries of either sign scaled by rt2^pad, so
    valuations reach past k, and one part all zeros in about a third of
    the draws (its gcd is 0, its valuation infinite)."""
    size = draw(st.integers(0, 8))
    entries = st.lists(st.integers(-(2**40), 2**40), min_size=size, max_size=size)
    aa, bb = draw(entries), draw(entries)
    zero = draw(st.sampled_from(["", "a", "b"]))
    if zero:
        aa, bb = ([0] * size, bb) if zero == "a" else (aa, [0] * size)
    aa, bb = _times_rt2_pow(aa, bb, draw(st.integers(0, 24)))
    return draw(st.integers(0, 24)), aa, bb


@given(numerator_arrays())
@example((0, [4, 2], [8, 0]))  # k = 0: nothing to strip
@example((5, [], []))  # empty arrays strip every factor
@example((6, [0, 0, 0], [3, 0, -6]))  # all-zero aa, odd b: exactly one factor
@example((6, [0, 0], [0, 0]))  # both parts zero: stop at k
@example((9, [-12, 4, 0], [0, 0, 0]))  # all-zero bb: v2(a) = 2 gives four factors
@example((7, [2, 3], [4, 4]))  # an odd a: returned unchanged
@example((7, [-6, -3], [4, 4]))  # an odd negative a: returned unchanged
@example((3, [64, -128], [32, 0]))  # valuations above k: stop at k
@example((4, [-64, 0], [-32, 96]))  # negative entries, valuations above k
@example((9, [-8, 24], [-4, 12]))  # negative entries: 2*v2(b) + 1 = 5 factors
def test_reduce_nums_matches_stepwise_reference(args):
    k, aa, bb = args
    got = reduce_nums(k, list(aa), list(bb))
    want = reduce_nums_stepwise(k, list(aa), list(bb))
    assert (got[0], list(got[1]), list(got[2])) == want


def test_reduce_nums_odd_entry_returns_input_unchanged():
    aa, bb = [2, 3, 0], [1, 1, 5]
    assert reduce_nums(4, aa, bb) == (4, [2, 3, 0], [1, 1, 5])
    assert reduce_nums(6, [0, 0], [3, -6]) == (5, [3, -6], [0, 0])
    assert reduce_nums(3, [64, -128], [32, 0]) == (0, [16, 0], [16, -32])


# H[1,2] on two rows (ks, ra, rb), each at its least exponent, with the rt2
# factors it strips from the sum and from the difference, which sit at the
# larger exponent plus one.  A row at a larger exponent k > 0 has an odd
# a-part, and the other row lifted to k has an even one, so rows at unequal
# exponents always give an irreducible sum.
H_ROW_CASES = {
    "irreducible": ([3, 3], [[1, -1, 1], [-3, -3, 0]], [[2, -2, 0], [2, 1, -3]], 0, 0),
    "irreducible-lifted": ([1, 3], [[2, 1, -1], [2, -2, 1]], [[0, 1, 1], [0, 2, 1]], 0, 0),
    "one-factor": ([0, 0], [[-3, -1, -3], [-3, 1, 1]], [[0, -3, -1], [0, 2, -2]], 1, 1),
    "two-factors": ([1, 1], [[-3, -1, -1], [1, 1, -1]], [[2, -1, 2], [0, -1, -2]], 2, 2),
    "three-factors": ([2, 2], [[0, 0, 3], [0, 0, -3]], [[0, 1, 0], [0, -3, 0]], 3, 2),
    "zero-difference": ([0, 0], [[1, 0, 0], [1, 0, 0]], [[0, 0, 0], [0, 0, 0]], 1, 1),
}


@pytest.mark.parametrize("case", H_ROW_CASES.values(), ids=H_ROW_CASES)
def test_h_row_operation_outcomes(case):
    ks, ra, rb, strip_sum, strip_diff = case
    x, y = ([FracRT2.of(a, b, ks[r]) for a, b in zip(ra[r], rb[r])] for r in (0, 1))
    assert [oracle_lde(*x), oracle_lde(*y)] == ks
    top = max(ks)
    ks, ra, rb = list(ks), list(ra), list(rb)
    apply_generator_rows(gen_h(1, 2), ks, ra, rb)
    assert [top + 1 - ks[0], top + 1 - ks[1]] == [strip_sum, strip_diff]
    half_rt2 = FracRT2.of(1, 0, 1)
    for r, want in ((0, [u + v for u, v in zip(x, y)]), (1, [u - v for u, v in zip(x, y)])):
        got = [FracRT2.of(a, b, ks[r]) for a, b in zip(ra[r], rb[r])]
        assert got == [w * half_rt2 for w in want]
        assert ks[r] == oracle_lde(*got)


def _deep_word(rng: random.Random, n: int, length: int) -> list[Generator]:
    # Hadamard-heavy, so exponents climb well past a few rt2 factors
    gens = []
    for _ in range(length):
        kind = rng.choice("HHHXZ")
        if kind == "Z":
            gens.append(gen_z(rng.randint(1, n)))
        else:
            b, c = sorted(rng.sample(range(1, n + 1), 2))
            gens.append(gen_h(b, c) if kind == "H" else gen_x(b, c))
    return gens


def _dense(gens: list[Generator], n: int) -> ExactMatrix:
    M = ExactMatrix.identity(n)
    for g in gens:
        M = M @ generator_matrix(g, n)
    return M


def _deep_cases() -> list[tuple[int, list[Generator]]]:
    rng = random.Random(61)
    sizes = [n for n in (4, 5, 6, 8, 10, 12) for _ in range(2)]
    return [(n, _deep_word(rng, n, max(100, 12 * n))) for n in sizes]


def test_row_state_matches_dense_products():
    rng = random.Random(67)
    for n, gens in _deep_cases():
        W = _dense(gens, n)
        assert W.k >= 15
        M = apply_word(gens, ExactMatrix.identity(n))
        assert M == W
        # each row sits at its own least exponent: positive only with an odd a
        for k, ra in zip(M.ks, M.ra):
            assert k == 0 or any(a & 1 for a in ra)
        # row operations on the rows of a dense product continue it
        more = _deep_word(rng, n, 2 * n)
        assert apply_word(more, W) == _dense(more, n) @ W


def test_row_operations_edit_no_row_in_place():
    # X swaps row references while Z and H build new rows, so a matrix whose
    # rows another matrix shares stays as it is
    rng = random.Random(71)
    for n in (1, 2, 3, 5, 8):
        for M in (
            ExactMatrix.identity(n),
            rand_orthogonal(rng, n, 3 * n),
            rand_general(rng, n),
        ):
            for _ in range(4):
                before = [list(r) for r in M.ra + M.rb], list(M.ks)
                N = apply_word([rand_generator(rng, n) for _ in range(4 * n)], M)
                assert ([list(r) for r in M.ra + M.rb], list(M.ks)) == before
                assert all(len(r) == n for r in N.ra + N.rb)
                M = N


def test_level_matches_percolumn_definition_deep():
    for n, gens in _deep_cases():
        M = _dense(gens, n)
        assert M.k >= 15
        assert tuple(level(M)) == oracle_level(M)
        F = frac_of_matrix(M)
        for j in range(1, n + 1):
            k, ca, cb = column(M, j)
            col = [F[i][j - 1] for i in range(n)]
            assert [FracRT2.of(a, b, k) for a, b in zip(ca, cb)] == col
            assert k == oracle_lde(*col)
