"""Arithmetic kernels for flat coefficient arrays.

A matrix over Z[1/rt2] is carried as a shared exponent k plus two flat
row-major lists aa, bb holding the integer and rt2 coefficients of the
numerators.  These three loops dominate evaluation time.  Coefficients
must stay Python ints: entries grow with the exponent and overflow any
fixed width.
"""

from __future__ import annotations

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
    """Strip common rt2 factors: divide through while k > 0 and all allow it.

    (a + b*rt2)/rt2 = b + (a/2)*rt2, legal only when every a is even.
    """
    while k > 0:
        if any(a & 1 for a in aa):
            break
        aa, bb = list(bb), [a >> 1 for a in aa]
        k -= 1
    return k, aa, bb
