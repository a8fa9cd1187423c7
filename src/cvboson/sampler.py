"""Exact seeded samplers: bare Fock patterns and the three detector variants.

Every sampler draws shot i from a counter-based stream keyed by (seed, i)
(see cvboson.rng), so batches are reproducible bit-for-bit however the shot
range is split into blocks and threads. All four share one draw: uniform 0
picks a table index, and the shot's other uniforms feed a per-mode response.
The discrete kinds (fock, dprcv1) have no response: a shot is its table
index, an entry of the batch's pattern table.
"""

import math
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distribution import amplitude_table, click_rows, distribution_table
from .errors import check_size
from .fock import check_unitary
from .povm import prcv_povm_diag
from .rng import shot_uniforms
from .special import g_function


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Reproducible batch of measurement outcomes, drawn on demand.

    patterns is the read-only (P, M) int64 table of a discrete kind's
    outcomes: the occupation patterns of the amplitude table (fock) or the
    2^M rows click_rows(i, M) (dprcv1); it is None for prcv1 and cv1. Each
    blocks() call draws the shots anew and yields (first shot, values) per
    block: the drawn pattern indices of a discrete kind, else outcome rows.
    outcomes holds one row per shot, drawn on first access and guarded by the
    "sample outcome values" size limit: occupation vectors (fock), 0/1 click
    vectors (dprcv1), non-negative radii (prcv1), or complex amplitudes (cv1).
    t is the click threshold of a dprcv1 batch and None otherwise.
    """

    seed: int
    t: float | None
    kind: str
    shots: int
    modes: int
    blocks: Callable
    patterns: np.ndarray | None = None

    @cached_property
    def outcomes(self):
        check_size("sample outcome values", self.shots * self.modes)
        values = np.concatenate([values for _, values in self.blocks()])
        return values if self.patterns is None else self.patterns[values]


def _check_counts(shots, threads):
    if not isinstance(shots, (int, np.integer)):
        raise ValueError(f"shots must be an integer, got {shots!r}")
    if shots < 0:
        raise ValueError("shots must be >= 0")
    if not isinstance(threads, (int, np.integer)) or threads < 1:
        raise ValueError(f"threads must be a positive integer, got {threads!r}")


def _thread_count(threads, shots):
    """Worker threads actually used: the request capped at the CPU count and
    the shot count, and at least one."""
    return max(1, min(int(threads), os.cpu_count() or 1, shots))


def _inverse_cdf_draw(cdf, u):
    """Indices of inverse-CDF draws; u is scaled by the total so float drift
    in the cumulative sum cannot push a draw out of range."""
    idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    return np.minimum(idx, len(cdf) - 1)


# Shots drawn per block: this bounds a batch's memory at any shot count.
_BLOCK_SHOTS = 1 << 14


def _draw(kind, weights, per_shot, respond, shots, seed, threads, modes, t=None, block=None,
          patterns=None):
    """The one sampler core. Shot i reads per_shot uniforms of stream (seed, i):
    uniform 0 picks an index into `weights` by inverse CDF, and respond(index,
    rest) maps the indices and the other uniforms to outcome rows of `modes`
    values; with respond None a block's values are the indices themselves,
    into `patterns` (row i the outcome of index i). The shots are walked in
    blocks of at most _BLOCK_SHOTS shots (and at most `block`, if given),
    shrunk so that every thread gets a block; a 0-shot batch is one empty
    block. Any split gives the same outcomes."""
    cdf = np.cumsum(weights)
    threads = _thread_count(threads, shots)
    block = max(1, min(_BLOCK_SHOTS, block or _BLOCK_SHOTS, -(-shots // threads)))
    starts = range(0, max(shots, 1), block)

    def draw(first):
        uniforms = shot_uniforms(seed, min(block, shots - first), per_shot, first)
        index = _inverse_cdf_draw(cdf, uniforms[:, 0])
        return first, index if respond is None else respond(index, uniforms[:, 1:])

    def blocks():
        if threads == 1:  # no pool: a worker thread's malloc arena costs memory
            yield from map(draw, starts)
            return
        # window k + 1 is drawn while the caller consumes window k
        with ThreadPoolExecutor(max_workers=threads) as pool:
            ahead = ()
            for window in range(0, len(starts), threads):
                current, ahead = ahead, pool.map(draw, starts[window : window + threads])
                yield from current
            yield from ahead

    return SampleBatch(seed, t, kind, shots, modes, blocks, patterns)


def _amplitudes(u, photons, shots, threads, kind):
    """Occupation patterns and amplitudes, once counts, unitary and size guards pass."""
    _check_counts(shots, threads)
    u = check_unitary(u)
    check_size(f"{kind} sampler modes", u.shape[0])
    check_size(f"{kind} sampler photons", photons)
    return amplitude_table(u, photons)


def sample_fock(u, photons, shots, seed, threads=1):
    """I.i.d. occupation patterns from the exact squared-amplitude table; the
    batch's patterns are the table's occupation rows."""
    patterns, amps = _amplitudes(u, photons, shots, threads, "fock")
    modes = patterns.shape[1]
    return _draw("fock", np.abs(amps) ** 2, 1, None, shots, seed, threads, modes,
                 patterns=patterns)


def sample_dprcv1(u, photons, t, shots, seed, threads=1):
    """I.i.d. click patterns from the exact 2^M discretized-detector table.

    The batch's patterns are the table's 2^M click rows, built once by
    click_rows, so a drawn table index is its row's index. Guarded by the
    click-table size limits.
    """
    _check_counts(shots, threads)
    table = distribution_table(u, photons, t)
    modes = table.modes
    patterns = click_rows(np.arange(table.probs.size), modes)
    patterns.flags.writeable = False
    return _draw("dprcv1", table.probs, 1, None, shots, seed, threads, modes, t=table.t,
                 patterns=patterns)


# Radius starts come from G on this fixed grid, dense at small R; G(64, k)
# rounds to 1 at every level the size guards allow, so [0, 64] brackets any
# u < 1. Solving _RADIUS_CHUNK radii at a time bounds the Newton temporaries.
_RADIUS_GRID = 64.0 * (np.arange(129) / 128.0) ** 2
_RADIUS_CHUNK = 8192


def _newton(response, targets, lo, hi, x):
    """Solve f(x) = targets elementwise, f non-decreasing, by Newton from x
    within brackets [lo, hi] (arrays updated in place) that shrink to each
    evaluated point; response(x, idx) gives f and f' at x for the elements
    idx. A step that is not finite or leaves the bracket becomes its midpoint.
    An element stops once its step or its bracket is <= 1e-13, so each root
    depends on its own target and start alone."""
    idx = np.arange(x.size)
    for _ in range(200):
        if not idx.size:
            return x
        xi = x[idx]
        value, slope = response(xi, idx)
        miss = value - targets[idx]
        a = lo[idx] = np.where(miss < 0, xi, lo[idx])
        b = hi[idx] = np.where(miss > 0, xi, hi[idx])
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(miss == 0, 0.0, miss / slope)
        new = xi - step
        keep = (np.abs(step) <= 1e-13) | ((a < new) & (new < b))
        x[idx] = new = np.where(keep, new, 0.5 * (a + b))
        idx = idx[(np.abs(new - xi) > 1e-13) & (b - a > 1e-13)]
    raise RuntimeError("root finder did not converge")


def _invert_click_cdf(u_values, levels):
    """The phase-randomized detector's radius response: R solving
    G(R, levels[i]) = u_values[i] by _newton, with slope prcv_povm_diag(1, R, k)
    at level k. Each R starts in its cell of the level's G on _RADIUS_GRID: by
    the small-R power law G ~ k R^k / k! (R^2 / 2 at k = 0) in the first cell,
    else by linear interpolation."""
    u_values = np.asarray(u_values, dtype=float)
    levels = np.broadcast_to(levels, u_values.shape)
    radii = np.empty(u_values.shape)
    for k in np.unique(levels).tolist():
        mask = levels == k
        grid_g = g_function(_RADIUS_GRID, k)
        if grid_g[-1] <= u_values[mask].max():
            raise RuntimeError(f"no bracket for click CDF inversion at level {k}")
        coeff, power = (0.5, 2) if k == 0 else (k / math.factorial(k), k)
        response = lambda r, _: (g_function(r, k), prcv_povm_diag(1, r, k))  # noqa: E731
        targets, roots = u_values[mask], []
        for first in range(0, targets.size, _RADIUS_CHUNK):
            u = targets[first : first + _RADIUS_CHUNK]
            cell = np.searchsorted(grid_g, u, side="right")
            lo, hi, g_lo = _RADIUS_GRID[cell - 1], _RADIUS_GRID[cell], grid_g[cell - 1]
            interpolated = lo + (u - g_lo) / (grid_g[cell] - g_lo) * (hi - lo)
            start = np.where(cell == 1, np.minimum((u / coeff) ** (1 / power), hi), interpolated)
            roots.append(_newton(response, u, lo, hi, start))
        radii[mask] = np.concatenate(roots)
    return radii


def sample_prcv1(u, photons, shots, seed, threads=1):
    """I.i.d. radius vectors from the joint phase-randomized density.

    Two-stage exact draw: the occupation pattern comes from the squared
    amplitudes, then each mode's radius inverts its Fock-level click CDF
    G(., n_j) by safeguarded Newton from a fixed radius grid, stopped once its
    step or its bracket is <= 1e-13, which leaves |G(R, n_j) - u| at rounding.
    """
    patterns, amps = _amplitudes(u, photons, shots, threads, "prcv1")

    def respond(index, rest):
        return _invert_click_cdf(rest, patterns[index])

    modes = patterns.shape[1]
    return _draw("prcv1", np.abs(amps) ** 2, 1 + modes, respond, shots, seed, threads, modes)


def _mode_overlap_columns(alphas, photons):
    """Matrix V[i, v] = <1|D+(alphas[i])|v> for v = 0..photons, vectorized."""
    alphas = np.asarray(alphas, dtype=complex)
    a2 = np.abs(alphas) ** 2
    envelope = np.exp(-a2 / 2.0)
    cols = np.empty((alphas.size, photons + 1), dtype=complex)
    cols[:, 0] = -alphas * envelope
    for v in range(1, photons + 1):
        cols[:, v] = envelope * np.conj(alphas) ** (v - 1) * (v - a2) / math.sqrt(math.factorial(v))
    return cols


def _angle_response(radii, gram, u_values, photons):
    """CV-1 angles in [0, 2 pi) at the given radii, inverting their conditional
    CDF by safeguarded Newton on [0, 2 pi] from theta = 2 pi u (stopped as
    the radii are); gram[i, a, b] = <T_a, T_b> over the level blocks of shot i's
    conditional tensor T.

    With <1|D+(sqrt(R) e^{i theta})|a> = r_a e^{-i (a-1) theta}, r_a real, the
    density is c_0 + 2 Re sum_{d>=1} c_d e^{-i d theta} with
    c_d = sum_a r_a r_{a+d} <T_a, T_{a+d}>, so its integral from 0 is
    c_0 theta + 2 Re sum_d c_d (1 - e^{-i d theta}) / (i d).
    """
    r = _mode_overlap_columns(np.sqrt(radii), photons).real
    weights = r[:, :, None] * r[:, None, :] * gram
    c = np.stack([np.trace(weights, d, 1, 2) for d in range(photons + 1)], axis=1)
    c0, ripples, steps = c[:, 0].real, c[:, 1:], np.arange(1, photons + 1)

    def response(theta, idx):
        phase = np.exp(-1j * theta[:, None] * steps)
        coeffs = ripples[idx]
        ripple = (coeffs * (1.0 - phase) / (1j * steps)).sum(axis=1).real
        density = c0[idx] + 2.0 * (coeffs * phase).sum(axis=1).real
        return c0[idx] * theta + 2.0 * ripple, density

    lo, hi = np.zeros(len(radii)), np.full(len(radii), 2.0 * np.pi)
    return _newton(response, u_values * hi * c0, lo, hi, u_values * hi)


# cv1 shot blocks hold this many complex values of conditional tensor
# ((N+1)^M per shot): this bounds their memory, while large blocks keep the
# per-call cost of the radius response small.
_CV1_BLOCK_VALUES = 1 << 21


def sample_cv1(u, photons, shots, seed, threads=1):
    """I.i.d. complex outcome vectors from the joint CV-1 density, drawn exactly
    mode by mode.

    Mode j's conditional state given the earlier outcomes is a tensor T over
    the Fock levels of modes j..M-1. Its radius R = |alpha|^2 is the mixture
    of the PRCV-1 level densities weighted by ||T_v||^2 over mode j's levels v:
    a level is drawn by those weights (mode 0's are the same for every shot)
    and R inverts that level's click CDF as in prcv1. The angle then inverts
    its conditional CDF given R, and T <- sum_v <1|D+(alpha)|v> T_v.
    """
    patterns, amps = _amplitudes(u, photons, shots, threads, "cv1")
    modes = patterns.shape[1]
    levels = photons + 1
    amp_tensor = np.zeros((levels,) * modes, dtype=complex)
    amp_tensor[tuple(patterns.T)] = amps
    first = amp_tensor.reshape(1, levels, -1)

    def respond(level, rest):
        count = len(level)
        out = np.empty((count, modes), dtype=complex)
        tensor = first  # shared by every shot until mode 0 is drawn
        for j in range(modes):
            gram = tensor.conj() @ tensor.transpose(0, 2, 1)
            gram = np.broadcast_to(gram, (count, levels, levels))
            if j:
                cdf = np.cumsum(np.diagonal(gram, 0, 1, 2).real, axis=1)
                below = cdf <= rest[:, 3 * j - 1, None] * cdf[:, -1:]
                level = np.minimum(below.sum(axis=1), photons)
            radii = _invert_click_cdf(rest[:, 3 * j], level)
            angles = _angle_response(radii, gram, rest[:, 3 * j + 1], photons)
            out[:, j] = alphas = np.sqrt(radii) * np.exp(1j * angles)
            if j < modes - 1:
                overlap = _mode_overlap_columns(alphas, photons)[:, None, :]
                tensor = (overlap @ tensor).reshape(count, levels, levels ** (modes - 2 - j))
        return out

    weights = (np.abs(first[0]) ** 2).sum(axis=1)
    block = max(1, _CV1_BLOCK_VALUES // levels**modes)
    return _draw("cv1", weights, 3 * modes, respond, shots, seed, threads, modes, block=block)
