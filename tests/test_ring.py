"""Scalar arithmetic of Z[1/rt2], as the package runs it, against an
independent exact oracle.

A value is a numerator a + b*rt2 over rt2^k.  The package never boxes one:
it reduces rows of numerators with `_core.reduce_nums`, multiplies them in
`mat_mul_nums`, adds and subtracts them in the H row operation, and writes
them in the matrix dump format.  The oracle represents values as
p + q*sqrt(2) with exact Fractions p, q and shares no code with hadpi.
"""

from __future__ import annotations

import random

import pytest
from oracles import FracRT2, oracle_lde

from hadpi._core import mat_mul_nums, reduce_nums
from hadpi.linalg import (
    ExactMatrix,
    _lift,
    apply_generator_rows,
    format_matrix,
    gen_h,
    gen_z,
    parse_matrix,
)
from hadpi.ring import (
    MAX_ENTRY_DIGITS,
    RingError,
    RingInt,
    format_ringint,
    parse_natural,
    parse_ringint,
)


def rand_value(rng: random.Random) -> tuple[int, int, int]:
    """Numerator a, b and exponent k of a random value."""
    return rng.randint(-99, 99), rng.randint(-99, 99), rng.randint(0, 12)


def reduced(a: int, b: int, k: int) -> tuple[int, int, int]:
    """The value at its least exponent."""
    k, (a,), (b,) = reduce_nums(k, [a], [b])
    return a, b, k


def times(x: tuple[int, int, int], y: tuple[int, int, int]) -> tuple[int, int, int]:
    """Product of two values through the 1x1 matrix product kernel."""
    (a,), (b,) = mat_mul_nums(1, [x[0]], [x[1]], [y[0]], [y[1]])
    return reduced(a, b, x[2] + y[2])


def h_rows(x: tuple[int, int, int], y: tuple[int, int, int]):
    """The H row operation on the one-entry rows x, y: (x+y)/rt2, (x-y)/rt2."""
    ks, ra, rb = [x[2], y[2]], [[x[0]], [y[0]]], [[x[1]], [y[1]]]
    apply_generator_rows(gen_h(1, 2), ks, ra, rb)
    return (ra[0][0], rb[0][0], ks[0]), (ra[1][0], rb[1][0], ks[1])


def frac(x: tuple[int, int, int]) -> FracRT2:
    return FracRT2.of(*x)


def test_ringint_examples():
    # products in Z[rt2], exponent 0
    assert times((0, 1, 0), (0, 1, 0)) == (2, 0, 0)
    assert times((1, 1, 0), (1, -1, 0)) == (-1, 0, 0)
    assert times((1, 0, 0), (5, -4, 0)) == (5, -4, 0)
    assert times((0, 0, 0), (-7, 3, 0)) == (0, 0, 0)


def test_dyadic_reduce_examples():
    assert reduced(2, 0, 2) == (1, 0, 0)
    assert reduced(1, 1, 2) == (1, 1, 2)
    assert reduced(0, 0, 5) == (0, 0, 0)


def test_lde_examples():
    assert reduced(3, 0, 0)[2] == 0
    assert reduced(1, 0, 1)[2] == 1
    # (1 + rt2)/2 stored as (1+rt2)/rt2^2
    assert reduced(1, 1, 2)[2] == 2


def test_dyadic_add_aligns_and_reduces():
    # 1/rt2 and 1: the H operation lifts both rows to exponent 1 first
    plus, minus = h_rows((1, 0, 1), (1, 0, 0))
    # (1/rt2 + 1)/rt2 = (1 + rt2)/2 and (1/rt2 - 1)/rt2 = (1 - rt2)/2
    assert plus == (1, 1, 2) and minus == (1, -1, 2)
    # 1/rt2 + 1/rt2 = rt2, then divided by rt2: exactly 1, at exponent 0
    assert h_rows((1, 0, 1), (1, 0, 1)) == ((1, 0, 0), (0, 0, 0))


def test_canonicalization_padding_insensitive():
    rng = random.Random(11)
    for _ in range(200):
        v = reduced(*rand_value(rng))
        for m in (0, 1, 2, 5):
            (a,), (b,) = _lift([v[0]], [v[1]], m)
            assert reduced(a, b, v[2] + m) == v


def test_lde_matches_bruteforce_oracle():
    rng = random.Random(13)
    for _ in range(300):
        x = rand_value(rng)
        v = reduced(*x)
        assert frac(v) == frac(x)
        assert v[2] == oracle_lde(frac(x))


def test_product_denominator_bound():
    rng = random.Random(17)
    for _ in range(200):
        x, y = reduced(*rand_value(rng)), reduced(*rand_value(rng))
        prod = times(x, y)
        assert prod[2] <= x[2] + y[2]
        # rt2^(lde x + lde y) * (x*y) lands in Z[rt2]
        assert frac(prod).scaled_by_rt2_pow(x[2] + y[2]).in_z_rt2()


def test_ops_against_fraction_oracle():
    rng = random.Random(19)
    rt2 = FracRT2(0, 1)
    for _ in range(500):
        x, y = reduced(*rand_value(rng)), reduced(*rand_value(rng))
        plus, minus = h_rows(x, y)
        assert frac(plus) * rt2 == frac(x) + frac(y)
        assert frac(minus) * rt2 == frac(x) - frac(y)
        assert frac(times(x, y)) == frac(x) * frac(y)
        ks, ra, rb = [x[2]], [[x[0]]], [[x[1]]]
        apply_generator_rows(gen_z(1), ks, ra, rb)
        assert frac((ra[0][0], rb[0][0], ks[0])) == -frac(x)


@pytest.mark.parametrize(
    "text,value",
    [
        ("0", (0, 0, 0)),
        ("3", (3, 0, 0)),
        ("-2*rt2", (0, -2, 0)),
        ("1/rt2^1", (1, 0, 1)),
        ("(1+1*rt2)/rt2^2", (1, 1, 2)),
        ("(1-1*rt2)/rt2^3", (1, -1, 3)),
    ],
)
def test_dyadic_text_round_trip(text, value):
    # a value num/rt2^k is written in the matrix dump as lde k over num
    a, b, k = value
    num = text.partition("/")[0].strip("()")
    dump = f"dim 1\nlde {k}\n{num}"
    M = ExactMatrix(1, k, [a], [b])
    assert format_matrix(M) == dump
    assert parse_matrix(dump) == M
    assert parse_ringint(num) == RingInt(a, b)


def test_parse_leniencies():
    assert parse_ringint("rt2") == RingInt(0, 1)
    assert parse_ringint("-rt2") == RingInt(0, -1)
    assert parse_ringint("1+rt2") == RingInt(1, 1)
    assert parse_ringint("√2") == RingInt(0, 1)  # UTF-8 radical accepted
    assert parse_ringint(" 2 + 2*√2 ") == RingInt(2, 2)


def test_parse_rejects_malformed():
    # int() reads the digits of other scripts; an entry is ASCII digits only
    for bad in ["", "xyz", "1 2*rt2", "1/rt2", "1/rt2^-1", "2*rt2-1", "(1+rt2)",
                "\u0661", "1+\u0662*rt2", "1_0"]:
        with pytest.raises(RingError):
            parse_ringint(bad)


def test_parse_natural_reads_ascii_digits_only():
    assert parse_natural("0", "n", RingError) == 0
    assert parse_natural("007", "n", RingError) == 7
    assert parse_natural("0" * 40 + "9" * 18, "n", RingError) == 10**18 - 1
    # int() takes every one of these
    for bad in ["", "+1", "-1", "1_0", " 1", "1 ", "\u0663", "1\u0663"]:
        with pytest.raises(RingError, match="^the count is not a natural number$"):
            parse_natural(bad, "the count", RingError)
    with pytest.raises(KeyError, match="the count has more than 18 digits"):
        parse_natural("1" + "0" * 18, "the count", KeyError)


def test_format_ringint_signs():
    assert format_ringint(RingInt(1, -2)) == "1-2*rt2"
    assert format_ringint(RingInt(-1, 2)) == "-1+2*rt2"
    assert format_ringint(RingInt(0, 1)) == "1*rt2"


def test_entry_digits_are_bounded_both_ways():
    # the longest part that parse_ringint reads is the longest that
    # format_ringint writes
    longest = 10**MAX_ENTRY_DIGITS - 1
    for x in (RingInt(longest, 0), RingInt(3, -longest), RingInt(-longest, longest)):
        assert parse_ringint(format_ringint(x)) == x
    for x in (RingInt(longest + 1, 0), RingInt(0, -longest - 1)):
        with pytest.raises(RingError, match=r"more than 4300 digits \(MAX_ENTRY_DIGITS\)"):
            format_ringint(x)
    with pytest.raises(RingError, match="more than 4300 digits"):
        parse_ringint("1" + "0" * MAX_ENTRY_DIGITS)


def test_random_format_round_trip():
    rng = random.Random(23)
    for _ in range(300):
        x = RingInt(*rand_value(rng)[:2])
        assert parse_ringint(format_ringint(x)) == x
