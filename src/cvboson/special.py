"""Special functions used by the detector model.

Everything here is evaluated by stable recurrences and series rather than
library wrappers. The click response and the incomplete gamma function share
one Poisson tail: the detector formulas live at very small arguments, where
a difference of incomplete gamma values cancels catastrophically.
"""

import math
import sys

import numpy as np


def laguerre(n, m, x):
    """Generalized Laguerre polynomial L_n^m(x) by the three-term recurrence.

    The recurrence (i+1) L_{i+1}^m = (2i+1+m-x) L_i^m - (i+m) L_{i-1}^m is a
    polynomial identity in m, so negative integer superscripts (which arise
    for displaced-number matrix elements) are handled without special cases.
    The degree-one case L_1^{k-1}(x) = k - x is the form the single-photon
    detector response is built from. Accepts scalar or ndarray x.
    """
    if n < 0:
        raise ValueError(f"degree must be non-negative, got {n}")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + m - x
    for i in range(1, n):
        prev, cur = cur, ((2 * i + 1 + m - x) * cur - (i + m) * prev) / (i + 1)
    return cur if cur.ndim else float(cur)


def _poisson_tail(j, t):
    """Poisson tail P(j, t) = e^{-t} sum_{i>=j} t^i / i! = gamma(j, t) / (j-1)!.

    Returns P, the weight w[j-2] (None for j < 2) of w[i] = e^{-t} t^i / i!,
    and t, all as arrays of at least one dimension. NaN or negative t raises;
    inf becomes the largest float, where e^{-t} and so every weight is exactly
    0. Two regimes, chosen per element:

    * t < j + 1: the all-positive series w[j] sum_i t^i j! / (j+i)!, free of
      cancellation at small t (where the click probabilities live);
    * t >= j + 1: one minus the head w[0] + ... + w[j-1], by then the smaller
      part, with 1 - w[0] taken by expm1.

    The series stops once a term is <= 1e-17 of the sum. Later terms are below
    half an ulp, so no element's value depends on the rest of the array.
    """
    t = np.asarray(t, dtype=float)
    if not np.all(t >= 0):
        raise ValueError("t must be non-negative")
    t = np.minimum(np.atleast_1d(t), sys.float_info.max)
    weight, head, near = np.exp(-t), np.zeros_like(t), None
    for i in range(1, j):
        near, weight = weight, weight * t / i
        head += weight
    weight = weight * t / j
    tail = np.empty_like(t)
    low = t < j + 1
    if np.any(low):
        ts = t[low]
        term = np.ones_like(ts)
        total = term.copy()
        for i in range(1, 400):
            term = term * ts / (j + i)
            total += term
            if np.all(term <= 1e-17 * total):
                break
        tail[low] = weight[low] * total
    high = ~low
    if np.any(high):
        tail[high] = -np.expm1(-t[high]) - head[high]
    return tail, near, t


def lower_incomplete_gamma(k, t):
    """Lower incomplete gamma gamma(k, t) = int_0^t e^{-R} R^{k-1} dR, integer k >= 1.

    Evaluated as (k-1)! P(k, t) from the Poisson tail. Accepts scalar or
    ndarray t; t = inf returns (k-1)!.
    """
    if k < 1 or k != int(k):
        raise ValueError(f"order must be a positive integer, got {k}")
    value = math.factorial(int(k) - 1) * _poisson_tail(int(k), t)[0]
    return value if np.ndim(t) else float(value[0])


def g_function(t, k):
    """Click response G(t, k): probability that Fock level k lands in [0, t].

    G(t,k) = [k^2 gamma(k,t) - 2k gamma(k+1,t) + gamma(k+2,t)] / k!, evaluated
    as P(k+2, t) + k e^{-t} t^k (1 - t/(k+1)) / k!: one Poisson tail plus one
    closed-form term, both non-negative below t = k + 1. Non-decreasing in t,
    G(0,k) = 0 and G(inf,k) = 1. Accepts scalar or ndarray t.
    """
    if k < 0 or k != int(k):
        raise ValueError(f"Fock index must be a non-negative integer, got {k}")
    k = int(k)
    tail, weight, x = _poisson_tail(k + 2, t)
    value = tail + k * weight * (1.0 - x / (k + 1))
    return value if np.ndim(t) else float(value[0])


def detector_efficiency(t):
    """Click probability on a single photon: eta(t) = 1 - e^{-t} (1 + t^2)."""
    t = np.asarray(t, dtype=float)
    value = 1.0 - np.exp(-t) * (1.0 + t * t)
    return value if value.ndim else float(value)


def dark_count_probability(t):
    """Click probability on vacuum: p_D(t) = 1 - e^{-t} (1 + t)."""
    t = np.asarray(t, dtype=float)
    value = 1.0 - np.exp(-t) * (1.0 + t)
    return value if value.ndim else float(value)
