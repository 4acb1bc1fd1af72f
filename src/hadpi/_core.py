"""Arithmetic kernels for coefficient lists.

A linalg.ExactMatrix over Z[1/rt2] holds each row as its own pair of
tuples, the integer and rt2 coefficients of its numerators, at its own
exponent; its dense operations read a flat row-major view of those lists
at one shared exponent.  Evaluation and synthesis apply row operations
(linalg.apply_generator_rows), so reduce_nums, applied to a row or a
column, is the one kernel on their path; mat_mul_nums and kron_nums serve
ExactMatrix.matmul and ExactMatrix.tensor, which only the tests call.
Coefficients must stay Python ints: entries grow with the exponent and
overflow any fixed width.
"""

from __future__ import annotations

from math import gcd

# the kernel implementation, named in benchmark series keys
BACKEND = "py"


def mat_mul_nums(n, Aa, Ab, Ba, Bb):
    """Multiply two n*n numerator arrays; exponent handling is the caller's."""
    Ca = [0] * (n * n)
    Cb = [0] * (n * n)
    for i in range(n):
        base = i * n
        for t in range(n):
            xa = Aa[base + t]
            xb = Ab[base + t]
            if xa == 0 and xb == 0:
                continue
            row = t * n
            for j in range(n):
                ya = Ba[row + j]
                yb = Bb[row + j]
                Ca[base + j] += xa * ya + 2 * xb * yb
                Cb[base + j] += xa * yb + xb * ya
    return Ca, Cb


def kron_nums(n1, Aa, Ab, n2, Ba, Bb):
    """Kronecker product of numerator arrays, result is (n1*n2) square."""
    n = n1 * n2
    Ca = [0] * (n * n)
    Cb = [0] * (n * n)
    for i1 in range(n1):
        for j1 in range(n1):
            xa = Aa[i1 * n1 + j1]
            xb = Ab[i1 * n1 + j1]
            if xa == 0 and xb == 0:
                continue
            for i2 in range(n2):
                out = (i1 * n2 + i2) * n + j1 * n2
                row = i2 * n2
                for j2 in range(n2):
                    ya = Ba[row + j2]
                    yb = Bb[row + j2]
                    Ca[out + j2] = xa * ya + 2 * xb * yb
                    Cb[out + j2] = xa * yb + xb * ya
    return Ca, Cb


def reduce_nums(k, aa, bb):
    """Strip common rt2 factors: divide by rt2^m for the largest m <= k that
    leaves every numerator an integer.

    rt2^m divides a + b*rt2 exactly when m <= 2*v2(a) and m <= 2*v2(b) + 1
    (v2 the 2-adic valuation, infinite at 0).  The gcd of a list has the
    least valuation of its entries, and is 0 only when every entry is, so
    one C-level gcd per part finds m.  The result may hold the input lists
    themselves: both when nothing is stripped, bb as the new aa when m = 1.
    """
    if k == 0:
        return k, aa, bb
    ga = gcd(*aa)
    if ga & 1:
        return k, aa, bb
    gb = gcd(*bb)
    m = k
    if ga:
        v = 2 * (ga & -ga).bit_length() - 2
        if v < m:
            m = v
    if gb:
        v = 2 * (gb & -gb).bit_length() - 1
        if v < m:
            m = v
    h = m >> 1
    if m & 1:
        # (a + b*rt2)/rt2 = b + (a/2)*rt2, then a plain shift by h; the
        # common m = 1 hands bb back unshifted
        return k - m, [b >> h for b in bb] if h else bb, [a >> (h + 1) for a in aa]
    return k - m, [a >> h for a in aa], [b >> h for b in bb]
