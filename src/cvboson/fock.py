"""Mode-space and Fock-space linear algebra for photonic networks.

Covers Haar-random unitaries from a documented deterministic stream,
occupation-pattern enumeration, submatrix extraction with column
multiplicity, transition amplitudes, and displaced-number matrix elements.
"""

import functools
import itertools
import math

import numpy as np

from .errors import InvalidPatternError, InvariantViolation, check_size
from .permanent import permanent_ryser
from .rng import gaussian_matrix
from .special import laguerre

UNITARITY_TOL = 1e-12


def check_unitary(u):
    """Validate and return U as a square complex array with U+U = I within UNITARITY_TOL."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1] or u.shape[0] < 1:
        raise ValueError(f"expected a square matrix of size >= 1, got shape {u.shape}")
    defect = np.abs(u.conj().T @ u - np.eye(u.shape[0])).max()
    if not defect <= UNITARITY_TOL:  # so a NaN entry fails too
        raise ValueError(
            f"matrix is not unitary: max |U+U - I| = {defect:.3e} > {UNITARITY_TOL:.0e}"
        )
    return u


def haar_unitary(modes, seed):
    """Haar-distributed random unitary, deterministic in the 64-bit seed.

    A complex-Gaussian matrix is drawn from the documented counter-based
    stream (see cvboson.rng) and orthonormalized column by column with two
    Gram-Schmidt passes. Real positive normalizers make this the unique QR
    factor with positive diagonal R, so the result is Haar-distributed.
    """
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    check_size("unitary modes", modes)
    a = gaussian_matrix(seed, modes, modes)
    q = np.zeros((modes, modes), dtype=complex)
    for j in range(modes):
        v = a[:, j].copy()
        for _ in range(2):  # second pass restores orthogonality lost to rounding
            if j:
                v -= q[:, :j] @ (q[:, :j].conj().T @ v)
        q[:, j] = v / np.linalg.norm(v)
    defect = np.abs(q.conj().T @ q - np.eye(modes)).max()
    if not defect <= UNITARITY_TOL:
        raise InvariantViolation(f"orthonormalization defect {defect:.3e} exceeds {UNITARITY_TOL:.0e}")
    return q


def check_pattern(pattern, modes):
    """Validate an occupation pattern over `modes` modes; return it as a tuple of ints."""
    pattern = tuple(int(n) for n in pattern)
    if any(n < 0 for n in pattern):
        raise InvalidPatternError(f"occupations must be non-negative, got {pattern}")
    if len(pattern) != modes:
        raise InvalidPatternError(f"pattern has {len(pattern)} modes, expected {modes}")
    return pattern


def check_photons(photons, modes):
    """Validate a photon count for `modes` modes, 0 <= N <= M; return it."""
    if not 0 <= photons <= modes:
        raise InvalidPatternError(f"photons must be >= 0 and <= M, got N={photons}, M={modes}")
    return photons


@functools.lru_cache(maxsize=256)
def enumerate_fock_patterns(modes, photons):
    """All C(modes + photons - 1, photons) occupation patterns, one per row of a
    read-only int array. Row i counts the photons per mode of the i-th sorted
    placement from combinations_with_replacement, so larger counts in earlier
    modes come first: (2, 1) gives [[1, 0], [0, 1]]."""
    if modes < 1:
        raise ValueError(f"modes must be >= 1, got {modes}")
    if photons < 0:
        raise ValueError(f"photons must be >= 0, got {photons}")
    placements = itertools.combinations_with_replacement(range(modes), photons)
    photon_modes = np.array(list(placements), dtype=int)  # (P, photons)
    occ = (photon_modes[:, :, None] == np.arange(modes)).sum(axis=1)
    occ.flags.writeable = False
    return occ


def submatrix_with_multiplicity(u, pattern):
    """First-N-rows submatrix of U with column j repeated pattern[j] times.

    Columns are ordered by ascending mode index with repeats adjacent.
    """
    u = np.asarray(u, dtype=complex)
    pattern = check_pattern(pattern, u.shape[1])
    n = sum(pattern)
    if n > u.shape[0]:
        raise InvalidPatternError(f"pattern has {n} photons but U has only {u.shape[0]} rows")
    cols = [j for j, nj in enumerate(pattern) for _ in range(nj)]
    return u[:n][:, cols]


def fock_amplitude(u, pattern):
    """Transition amplitude from the N-photon input (one photon in each of the
    first N modes) to the occupation `pattern`.

    Computed as Per(U[first N rows, columns with multiplicity]) normalized by
    sqrt(prod_j pattern[j]!), so that the squared amplitudes over all patterns
    sum to one. On collision-free patterns the normalizer is 1 and the
    amplitude is the bare submatrix permanent.
    """
    sub = submatrix_with_multiplicity(u, pattern)
    norm = math.sqrt(math.prod(math.factorial(nj) for nj in pattern))
    return complex(permanent_ryser(sub)) / norm


def displacement_element(n, k, alpha):
    """Matrix element <n|D(alpha)|k> of the single-mode displacement operator.

    For n >= k this is sqrt(k!/n!) e^{-|a|^2/2} a^{n-k} L_k^{n-k}(|a|^2); the
    n < k case is obtained from the adjoint relation
    <n|D(alpha)|k> = conj(<k|D(-alpha)|n>), so no negative powers of alpha
    appear and alpha = 0 is exact. Accepts scalar or ndarray alpha.
    """
    if n < 0 or k < 0:
        raise ValueError("Fock indices must be non-negative")
    if isinstance(alpha, np.ndarray) and alpha.ndim:
        alpha, exp = alpha.astype(complex), np.exp
    else:
        alpha, exp = complex(alpha), math.exp
    a2 = alpha.real * alpha.real + alpha.imag * alpha.imag
    if n >= k:
        ratio = math.sqrt(math.factorial(k) / math.factorial(n))
        return ratio * exp(-a2 / 2.0) * alpha ** (n - k) * laguerre(k, n - k, a2)
    ratio = math.sqrt(math.factorial(n) / math.factorial(k))
    return ratio * exp(-a2 / 2.0) * (-alpha.conjugate()) ** (k - n) * laguerre(n, k - n, a2)
