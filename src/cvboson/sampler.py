"""Exact seeded samplers: bare Fock patterns and the three detector variants.

Every sampler draws shot i from a counter-based stream keyed by (seed, i)
(see cvboson.rng), so batches are reproducible bit-for-bit regardless of how
the shot range is chunked across threads. All four share one draw: uniform 0
picks a table index, and the shot's other uniforms feed a per-mode response.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distribution import amplitude_table, check_threshold, distribution_table
from .errors import check_size
from .fock import check_unitary
from .rng import shot_uniforms
from .special import g_function


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of measurement outcomes.

    outcomes holds one row per shot: occupation vectors (fock), 0/1 click
    vectors (dprcv1), non-negative radii (prcv1), or complex amplitudes (cv1).
    t is the click threshold of a dprcv1 batch and None otherwise.
    Regenerating with the same seed reproduces the batch exactly.
    """

    seed: int
    t: float | None
    outcomes: np.ndarray
    kind: str


def _check_shots(shots):
    if shots < 0:
        raise ValueError("shots must be >= 0")


def _thread_count(threads, shots):
    """Worker threads actually used: the request capped at the CPU count and
    the shot count, and at least one."""
    return max(1, min(int(threads), os.cpu_count() or 1, shots))


def _inverse_cdf_draw(cdf, u):
    """Indices of inverse-CDF draws; u is scaled by the total so float drift
    in the cumulative sum cannot push a draw out of range."""
    idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    return np.minimum(idx, len(cdf) - 1)


def _draw(kind, weights, per_shot, respond, shots, seed, threads, t=None):
    """The one sampler core. Shot i reads per_shot uniforms of stream (seed, i):
    uniform 0 picks an index into `weights` by inverse CDF, and respond(index,
    rest) maps the indices and the other uniforms to outcome rows. Any split of
    the shots over threads gives the same outcomes."""
    cdf = np.cumsum(weights)

    def worker(first, count):
        uniforms = shot_uniforms(seed, count, per_shot, first)
        return respond(_inverse_cdf_draw(cdf, uniforms[:, 0]), uniforms[:, 1:])

    threads = _thread_count(threads, shots)
    if threads == 1 or shots < 2 * threads:
        outcomes = worker(0, shots)
    else:
        bounds = np.linspace(0, shots, threads + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            chunks = list(pool.map(worker, bounds[:-1], np.diff(bounds)))
        outcomes = np.concatenate(chunks, axis=0)
    return SampleBatch(seed=seed, t=t, outcomes=outcomes, kind=kind)


def _amplitudes(u, photons, shots, kind):
    """Occupation patterns (one row each) and their amplitudes, after the shot
    count, the unitary and the `kind` sampler's size guards are checked."""
    _check_shots(shots)
    u = check_unitary(u)
    check_size(f"{kind} sampler modes", u.shape[0])
    check_size(f"{kind} sampler photons", photons)
    patterns, amps = amplitude_table(u, photons)
    return np.asarray(patterns, dtype=int), amps


def sample_fock(u, photons, shots, seed, threads=1):
    """I.i.d. occupation patterns from the exact squared-amplitude table."""
    patterns, amps = _amplitudes(u, photons, shots, "fock")
    return _draw(
        "fock", np.abs(amps) ** 2, 1, lambda index, _: patterns[index], shots, seed, threads
    )


def sample_dprcv1(u, photons, t, shots, seed, threads=1):
    """I.i.d. click patterns from the exact 2^M discretized-detector table.

    A drawn table index is decoded to its click bits directly (mode 0 is the
    most significant bit). Guarded by the click-table size limits.
    """
    _check_shots(shots)
    t = check_threshold(t)
    table = distribution_table(u, photons, t)
    shifts = np.arange(table.modes - 1, -1, -1)

    def respond(index, _):
        return (index[:, None] >> shifts) & 1

    return _draw("dprcv1", table.probabilities(), 1, respond, shots, seed, threads, t=t)


def _invert_click_cdf(u_values, k, tol=1e-12):
    """Solve G(R, k) = u by bracketed bisection, vectorized over u."""
    u_values = np.asarray(u_values, dtype=float)
    if u_values.size == 0:
        return np.empty(0)
    hi = 64.0
    while g_function(hi, k) <= u_values.max():
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError(f"no bracket for click CDF inversion at level {k}")
    lo = np.zeros_like(u_values)
    hi_v = np.full_like(u_values, hi)
    for _ in range(int(math.ceil(math.log2(hi / tol))) + 2):
        mid = 0.5 * (lo + hi_v)
        below = g_function(mid, k) < u_values
        lo = np.where(below, mid, lo)
        hi_v = np.where(below, hi_v, mid)
    return 0.5 * (lo + hi_v)


def sample_prcv1(u, photons, shots, seed, threads=1):
    """I.i.d. radius vectors from the joint phase-randomized density.

    Two-stage exact draw: the occupation pattern comes from the squared
    amplitudes, then each mode's radius inverts its Fock-level click CDF
    G(., n_j) by bracketed bisection (radius tolerance 1e-12).
    """
    patterns, amps = _amplitudes(u, photons, shots, "prcv1")

    def respond(index, rest):
        occ = patterns[index]
        radii = np.empty(occ.shape)
        for level in range(photons + 1):
            mask = occ == level
            radii[mask] = _invert_click_cdf(rest[mask], level)
        return radii

    per_shot = 1 + patterns.shape[1]
    return _draw("prcv1", np.abs(amps) ** 2, per_shot, respond, shots, seed, threads)


def _radial_grid(n_radial, max_level, tail_eps=1e-10):
    """Uniform midpoint grid in R = |alpha|^2, capped where every Fock level
    up to max_level has tail mass below tail_eps.

    Equal-mass (quantile) spacing is tempting here but fails: the reference
    response has an interior zero, so equal-mass cells become arbitrarily
    wide near it and in the tail, and midpoint weights then misstate the
    cell masses. A uniform grid keeps the midpoint rule O(width^2) accurate
    everywhere.
    """
    r_cap = 32.0
    while any(1.0 - g_function(r_cap, v) > tail_eps for v in range(max_level + 1)):
        r_cap *= 2.0
    width = r_cap / n_radial
    nodes = (np.arange(n_radial) + 0.5) * width
    return nodes, np.full(n_radial, width)


def _mode_overlap_columns(alphas, photons):
    """Matrix V[node, v] = <1|D+(alpha_node)|v> for v = 0..photons, vectorized."""
    alphas = np.asarray(alphas, dtype=complex)
    a2 = np.abs(alphas) ** 2
    envelope = np.exp(-a2 / 2.0)
    cols = np.empty((alphas.size, photons + 1), dtype=complex)
    cols[:, 0] = -alphas * envelope
    for v in range(1, photons + 1):
        cols[:, v] = (
            envelope
            * np.conj(alphas) ** (v - 1)
            * (v - a2)
            / math.sqrt(math.factorial(v))
        )
    return cols


def sample_cv1(u, photons, shots, seed, grid_radial=512, grid_angular=256, threads=1):
    """I.i.d. complex outcome vectors from the joint CV-1 density.

    Sequential per-mode sampling on a polar grid (uniform in R = |alpha|^2
    and in angle): each mode's conditional density given the previous
    outcomes is obtained by contracting the truncated amplitude tensor, and
    a cell is drawn by inverse CDF over the grid. Exact up to the grid
    discretization.
    """
    patterns, amps = _amplitudes(u, photons, shots, "cv1")
    modes = patterns.shape[1]
    amp_tensor = np.zeros((photons + 1,) * modes, dtype=complex)
    amp_tensor[tuple(patterns.T)] = amps

    r_nodes, r_widths = _radial_grid(grid_radial, photons)
    angles = 2.0 * np.pi * (np.arange(grid_angular) + 0.5) / grid_angular
    alpha_nodes = (np.sqrt(r_nodes)[:, None] * np.exp(1j * angles)[None, :]).ravel()
    # cell size under the outcome measure dR dtheta; constants cancel in the draw
    measure = np.repeat(r_widths * (2.0 * np.pi / grid_angular), grid_angular)
    overlap = _mode_overlap_columns(alpha_nodes, photons)

    # The first mode's cell weights do not depend on earlier outcomes: each is the
    # cell size times the quadratic form v+ (T T+) v of its node's overlap row v,
    # and T T+ is diagonal because every pattern holds all N photons. Later modes
    # are drawn per shot.
    first_rows = amp_tensor.reshape(photons + 1, -1)
    first_weights = (np.abs(overlap) ** 2 @ (np.abs(first_rows) ** 2).sum(axis=1)) * measure

    def respond(index, rest):
        out = np.empty((len(index), modes), dtype=complex)
        out[:, 0] = alpha_nodes[index]
        if modes == 1:
            return out
        for shot in range(len(index)):
            tensor = overlap[index[shot]] @ first_rows
            for j in range(1, modes):
                contract = overlap @ tensor.reshape(photons + 1, -1)
                weights = (np.abs(contract) ** 2).sum(axis=1) * measure
                cell = _inverse_cdf_draw(np.cumsum(weights), rest[shot, j - 1])
                out[shot, j] = alpha_nodes[cell]
                tensor = contract[cell]
        return out

    return _draw("cv1", first_weights, modes, respond, shots, seed, threads)
