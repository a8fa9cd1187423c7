"""Exact matrix permanents: Gray-code Ryser engines and a naive oracle.

The permanent is the determinant without sign alternation,
Per(A) = sum_sigma prod_i A[i, sigma(i)]. The naive sum over permutations is
kept as an independent cross-check for the Ryser implementations: a scalar
one for single matrices and a batched one for stacks of equal-size matrices.
"""

import itertools
import math

import numpy as np

from .errors import check_size

_PERM_CHUNK = 200_000


def _as_square(a):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def permanent_naive(a):
    """Permanent by direct summation over all permutations (O(n! n)).

    Guarded at n <= 10; use permanent_ryser beyond that.
    """
    a = _as_square(a)
    n = a.shape[0]
    check_size("naive permanent dimension", n)
    if n == 0:
        return 1 + 0j
    rows = np.arange(n)
    total = 0 + 0j
    perms = itertools.permutations(range(n))
    while True:
        chunk = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(perms, _PERM_CHUNK)),
            dtype=np.intp,
        )
        if chunk.size == 0:
            break
        cols = chunk.reshape(-1, n)
        total += complex(a[rows, cols].prod(axis=1).sum())
    return total


def permanent_ryser(a):
    """Permanent by Ryser's inclusion-exclusion formula (O(2^n n)).

    Column subsets are visited in Gray-code order, so the row sums change by
    one column per subset. Terms are accumulated with Kahan compensation
    because the 2^n-term sum cancels heavily for near-singular-permanent
    matrices.
    """
    a = _as_square(a)
    n = a.shape[0]
    check_size("Ryser permanent dimension", n)
    if n == 0:
        return 1 + 0j

    cols = [list(a[:, j]) for j in range(n)]
    total = 0j
    comp = 0j
    row_sums = [0j] * n
    gray = 0
    for k in range(1, 1 << n):
        flip = (k & -k).bit_length() - 1
        gray ^= 1 << flip
        col = cols[flip]
        if gray & (1 << flip):
            for i in range(n):
                row_sums[i] += col[i]
        else:
            for i in range(n):
                row_sums[i] -= col[i]
        sign = -1.0 if (gray.bit_count() & 1) else 1.0
        y = sign * math.prod(row_sums) - comp
        t = total + y
        comp = (t - total) - y
        total = t

    return total * (-1.0 if n & 1 else 1.0)


def permanent_ryser_batch(a):
    """Permanents of a stack of n x n matrices, shape (P, n, n) -> (P,).

    The same Gray-code Ryser sum with Kahan compensation as permanent_ryser,
    run as 2^n - 1 vector steps over the whole stack. Real and imaginary
    parts are carried separately and every step repeats the scalar engine's
    floating-point operations in the same order, so each result equals
    permanent_ryser of that matrix bit for bit.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise ValueError(f"expected a stack of square matrices, got shape {a.shape}")
    count, n = a.shape[0], a.shape[1]
    check_size("Ryser permanent dimension", n)
    if n == 0:
        return np.ones(count, dtype=complex)

    # column j of every matrix as rows of (n, P) arrays
    col_re = np.ascontiguousarray(a.real.transpose(2, 1, 0))
    col_im = np.ascontiguousarray(a.imag.transpose(2, 1, 0))
    sum_re = np.zeros((n, count))
    sum_im = np.zeros((n, count))
    total_re = np.zeros(count)
    total_im = np.zeros(count)
    comp_re = np.zeros(count)
    comp_im = np.zeros(count)
    gray = 0
    for k in range(1, 1 << n):
        flip = (k & -k).bit_length() - 1
        gray ^= 1 << flip
        if gray & (1 << flip):
            sum_re += col_re[flip]
            sum_im += col_im[flip]
        else:
            sum_re -= col_re[flip]
            sum_im -= col_im[flip]
        term_re, term_im = sum_re[0], sum_im[0]
        for i in range(1, n):
            term_re, term_im = (
                term_re * sum_re[i] - term_im * sum_im[i],
                term_re * sum_im[i] + term_im * sum_re[i],
            )
        if gray.bit_count() & 1:
            term_re, term_im = -term_re, -term_im
        y_re = term_re - comp_re
        y_im = term_im - comp_im
        t_re = total_re + y_re
        t_im = total_im + y_im
        comp_re = (t_re - total_re) - y_re
        comp_im = (t_im - total_im) - y_im
        total_re, total_im = t_re, t_im
    if n & 1:
        total_re, total_im = -total_re, -total_im
    out = np.empty(count, dtype=complex)
    out.real = total_re
    out.imag = total_im
    return out

