"""Exact output distributions of a photonic network under the CV detectors.

Given an M-mode unitary with one photon in each of the first N input modes,
this module evaluates the joint outcome density for CV-1 detection, the
radial density for phase-randomized detection, and the 2^M click-pattern
probabilities for the discretized detector, together with the small-threshold
leading-order structure of the click probabilities.

Pattern weights use normalized transition amplitudes (see fock_amplitude),
so every distribution here sums or integrates to one, including patterns
with multiply-occupied modes.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidPatternError, check_size, check_threshold
from .fock import check_pattern, check_photons, check_unitary
from .fock import displacement_element, enumerate_fock_patterns
from .permanent import permanent_ryser_batch
from .povm import prcv_povm_diag
from .special import g_function

def check_click_pattern(pattern, modes):
    """Validate a click pattern (an occupation pattern of 0s and 1s); return it as a tuple."""
    pattern = check_pattern(pattern, modes)
    if any(m > 1 for m in pattern):
        raise InvalidPatternError(f"click entries must be 0 or 1, got {pattern}")
    return pattern


def amplitude_table(u, photons):
    """All transition amplitudes for `photons` photons through U.

    Returns (occ, amplitudes): occ is the read-only (P, M) int array
    enumerate_fock_patterns(M, photons); the squared amplitudes sum to
    one. The submatrix of every pattern (first N rows, column j repeated n_j
    times) is stacked and all permanents come from one batched Ryser run; each
    amplitude equals fock_amplitude of its pattern bit for bit. Guarded on the
    pattern count C(M + N - 1, N), checked before any pattern is enumerated.
    """
    u = check_unitary(u)
    modes = u.shape[0]
    check_photons(photons, modes)
    check_size("amplitude table patterns", math.comb(modes + photons - 1, photons))
    occ = enumerate_fock_patterns(modes, photons)
    # column indices of each submatrix: mode j repeated n_j times, ascending
    cols = np.repeat(np.tile(np.arange(modes), len(occ)), occ.ravel())
    cols = cols.reshape(len(occ), photons)
    perms = permanent_ryser_batch(u[:photons][:, cols].transpose(1, 0, 2))
    factorials = np.array([math.factorial(k) for k in range(photons + 1)], dtype=float)
    norm = np.sqrt(factorials[occ].prod(axis=1))
    amps = np.empty(len(occ), dtype=complex)
    amps.real = perms.real / norm
    amps.imag = perms.imag / norm
    return occ, amps


def _contract(coeffs, occ, factors):
    """sum_n coeffs[n] prod_j factors[..., j, b_j, n_j] over the patterns n (rows
    of occ, in enumerate_fock_patterns order) for every branch word b, mode 0 the
    most significant digit: an array (..., B^M). Leading factor axes index a stack
    of outcomes. Modes are summed out last to first; rows sharing modes 0..j-1 are
    contiguous, so one reduceat per mode folds them. Each entry takes the same
    arithmetic path whatever B and the stack are, so it equals its one-branch,
    single-outcome contraction bit for bit."""
    modes = occ.shape[1]
    stack, branches = factors.shape[:-3], factors.shape[-2]
    # first mode in which each pattern differs from the one before it
    split = np.concatenate(([-1], np.argmax(occ[1:] != occ[:-1], axis=1)))
    values = coeffs[:, None]
    for j in range(modes - 1, -1, -1):
        rows = np.flatnonzero(split <= j)  # one per distinct prefix n_0..n_j
        level_factors = factors[..., j, :, :].swapaxes(-1, -2)[..., occ[rows, j], :]
        values = (level_factors[..., None] * values[..., None, :]).reshape(
            stack + (len(rows), branches * values.shape[-1])
        )
        values = np.add.reduceat(values, np.flatnonzero(split[rows] < j), axis=-2)
    return values.reshape(stack + (branches**modes,))


def density_cv(u, alphas, photons):
    """Joint outcome density of CV-1 detection on every output mode, at one
    outcome vector (M,) or at a stack of them (..., M), from one amplitude table.

    P(alpha) = |sum_n amp(n) prod_j <1|D+(alpha_j)|n_j>|^2 / (2 pi)^M, where
    the per-mode factor is e^{-|a|^2/2} (a*)^{n_j - 1} (n_j - |a|^2) / sqrt(n_j!)
    (with the n_j = 0 case evaluated as -a e^{-|a|^2/2}). Zero outcomes
    select n_j = 1: the density vanishes at alpha_j = 0 unless every
    contributing pattern has exactly one photon in mode j.

    Normalized over the per-mode outcome measure dR dtheta (R = |alpha|^2),
    the same convention under which the detector elements are complete;
    averaging over the phases gives density_prcv / (2 pi)^M. Returns a float
    for one outcome vector, else an array of the stack's shape.
    """
    u = check_unitary(u)
    modes = u.shape[0]
    check_size("density modes", modes)
    check_size("density photons", photons)
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.shape[-1:] != (modes,):
        raise ValueError(f"expected {modes} outcomes, got shape {alphas.shape}")
    occ, amps = amplitude_table(u, photons)
    factors = np.stack(
        [np.conj(displacement_element(v, 1, alphas)) for v in range(photons + 1)], axis=-1
    )
    total = _contract(amps, occ, factors[..., None, :])[..., 0]
    density = (total.real**2 + total.imag**2) / (2.0 * np.pi) ** modes
    return density if density.ndim else float(density)


def density_prcv(u, radii, photons):
    """Joint radial density of phase-randomized detection on every mode.

    P(R) = sum_n |amp(n)|^2 prod_j e^{-R_j} R_j^{n_j-1} (n_j - R_j)^2 / n_j!,
    i.e. the pattern-weighted product of the Fock-diagonal detector
    densities. Integrates to one over R in [0, inf)^M; a negative, NaN or
    infinite radius raises ValueError.
    """
    u = check_unitary(u)
    modes = u.shape[0]
    radii = np.asarray(radii, dtype=float)
    if radii.shape != (modes,):
        raise ValueError(f"expected {modes} radii, got shape {radii.shape}")
    if not np.all((radii >= 0) & (radii < np.inf)):
        raise ValueError("radii must be non-negative and finite")
    occ, amps = amplitude_table(u, photons)
    factors = np.array(
        [[prcv_povm_diag(1, r, v) for v in range(photons + 1)] for r in radii]
    )
    return float(_contract(np.abs(amps) ** 2, occ, factors[:, None])[0])


def _click_factors(t, photons):
    """No-click and click rows [1 - G(t, k), G(t, k)], shaped t.shape + (2, photons + 1)."""
    g_vals = np.stack([g_function(t, v) for v in range(photons + 1)], axis=-1)
    return np.stack([1.0 - g_vals, g_vals], axis=-2)


_STACK_VALUES = 1 << 16  # thresholds x patterns in one prob_dprcv contraction


def prob_dprcv(u, clicks, t, photons):
    """Probability of one click pattern under the discretized detector.

    P(m) = sum_n |amp(n)|^2 prod_{m_j=1} G(t, n_j) prod_{m_j=0} (1 - G(t, n_j)).
    Defined for any click count; the 2^M probabilities sum to one. t is a
    scalar (a float is returned) or an array of thresholds (an array of the
    same shape is returned); amplitudes and click responses G are computed once
    for all of them, contracted in stacks of max(1, _STACK_VALUES // P)
    thresholds, so memory does not grow with their number.
    """
    t_values = np.asarray(t, dtype=float)
    for x in t_values.flat:
        check_threshold(x)
    u = check_unitary(u)
    clicks = check_click_pattern(clicks, u.shape[0])
    occ, amps = amplitude_table(u, photons)
    probs = _click_probabilities(occ, amps, clicks, t_values)
    return float(probs) if t_values.ndim == 0 else probs


def _click_probabilities(occ, amps, clicks, t_values):
    """prob_dprcv of validated clicks at validated thresholds, from the
    amplitude table (occ, amps): an array of t_values' shape."""
    photons = int(occ[0].sum())  # every pattern holds all N photons
    weights = np.abs(amps) ** 2
    click_factors = _click_factors(t_values.ravel(), photons)[:, list(clicks), None]
    probs = np.empty(t_values.size)
    stack = max(1, _STACK_VALUES // len(occ))
    for first in range(0, t_values.size, stack):
        block = click_factors[first : first + stack]
        probs[first : first + stack] = _contract(weights, occ, block)[:, 0]
    return probs.reshape(t_values.shape)


def click_rows(index, modes):
    """The click table's layout: 0/1 int64 rows, one per table index, row i
    holding the M binary digits of i with mode 0 the most significant."""
    return (np.asarray(index, dtype=np.int64)[..., None] >> np.arange(modes - 1, -1, -1)) & 1


def click_index(rows):
    """Table index of each 0/1 click row (last axis, mode 0 first): the inverse
    of click_rows."""
    rows = np.asarray(rows, dtype=np.int64)
    return rows @ (1 << np.arange(rows.shape[-1] - 1, -1, -1))


@dataclass(frozen=True, eq=False)
class DistributionTable:
    """Full click-pattern distribution at click threshold t.

    probs[i] is the probability of the click pattern click_rows(i, M), so the
    patterns are in lexicographic order. The array is read-only. Tables
    compare by identity (an array field has no single truth value).
    """

    t: float
    probs: np.ndarray
    normalization_residual: float

    @property
    def modes(self):
        return self.probs.size.bit_length() - 1

    def probabilities(self):
        return self.probs


def distribution_table(u, photons, t):
    """Exact probabilities of all 2^M click patterns, in lexicographic order."""
    t = check_threshold(t)
    u = check_unitary(u)
    modes = u.shape[0]
    check_size("click table modes", modes)
    check_size("click table photons", photons)
    occ, amps = amplitude_table(u, photons)
    factors = np.broadcast_to(_click_factors(t, photons), (modes, 2, photons + 1))
    probs = _contract(np.abs(amps) ** 2, occ, factors)
    probs.flags.writeable = False
    residual = abs(math.fsum(probs) - 1.0)
    return DistributionTable(t=t, probs=probs, normalization_residual=residual)


def leading_order(u, clicks, t):
    """Small-threshold structure of a click-pattern probability.

    For a pattern with N clicks, returns (leading, neighbor_mass) where
    leading = |Per(U restricted to the clicked columns)|^2 t^N is the
    dominant term of prob_dprcv as t -> 0, and neighbor_mass is the summed
    squared permanent over all patterns obtained by interchanging one click
    and one non-click. The neighbor mass never exceeds one (the squared
    permanents form a probability distribution over patterns). One batched
    Ryser run gives all the permanents. Guarded on the neighbor count N(M - N),
    checked before any permanent.
    """
    u = check_unitary(u)
    modes = u.shape[0]
    clicks = check_click_pattern(clicks, modes)
    t = check_threshold(t)
    ones = [j for j, m in enumerate(clicks) if m == 1]
    zeros = [j for j, m in enumerate(clicks) if m == 0]
    check_size("leading order neighbors", len(ones) * len(zeros))
    # clicked columns of the pattern, then of each swap of click i and non-click j
    cols = np.array([ones] + [sorted(set(ones) - {i} | {j}) for i in ones for j in zeros], int)
    perms = permanent_ryser_batch(u[: len(ones)][:, cols].transpose(1, 0, 2)).tolist()
    # Python abs and a left-to-right sum keep the bits of a fock_amplitude loop
    leading = abs(perms[0]) ** 2 * t ** len(ones)
    neighbor_mass = 0.0
    for perm in perms[1:]:
        neighbor_mass += abs(perm) ** 2
    return leading, neighbor_mass


def radial_tail_cutoff(k):
    """Smallest grid radius R with 1 - G(R, k) <= 1e-12 (closed-form tail scan)."""
    for big_r in range(10, 1000, 5):
        if 1.0 - g_function(float(big_r), k) <= 1e-12:
            return float(big_r)
    raise RuntimeError(f"no cutoff below 1000 for level {k}")


def prcv_cell_integral(u, clicks, t, photons):
    """Click-pattern probability by per-mode quadrature of the radial density.

    Independent route to prob_dprcv: each mode's factor is integrated
    numerically over [0, t] (click) or [t, R_max] (no click), with R_max
    chosen per Fock level so the neglected tail is below 1e-12.
    """
    from scipy import integrate

    t = check_threshold(t)
    u = check_unitary(u)
    modes = u.shape[0]
    clicks = check_click_pattern(clicks, modes)
    occ, amps = amplitude_table(u, photons)
    cell = np.empty((photons + 1, 2))
    for v in range(photons + 1):
        in_cell, _ = integrate.quad(
            lambda r: prcv_povm_diag(1, r, v), 0.0, t, epsabs=1e-13, epsrel=1e-12
        )
        out_cell, _ = integrate.quad(
            lambda r: prcv_povm_diag(1, r, v),
            t,
            radial_tail_cutoff(v),
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
        )
        cell[v] = (out_cell, in_cell)
    # mode j's factor at level k is the in-cell mass if j clicked, else the out-cell mass
    factors = cell[:, clicks].T
    return float(_contract(np.abs(amps) ** 2, occ, factors[:, None])[0])
