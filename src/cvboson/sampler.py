"""Exact seeded samplers for the three detector variants.

Every sampler draws shot i from a counter-based stream keyed by (seed, i)
(see cvboson.rng), so batches are reproducible bit-for-bit regardless of how
the shot range is chunked across threads.
"""

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distribution import amplitude_table, check_threshold, distribution_table
from .errors import check_size
from .fock import check_unitary
from .povm import DetectorConfig
from .rng import shot_uniforms
from .special import g_function


@dataclass(frozen=True)
class SampleBatch:
    """Reproducible batch of measurement outcomes.

    outcomes holds one row per shot: occupation vectors (fock), 0/1 click
    vectors (dprcv1), non-negative radii (prcv1), or complex amplitudes (cv1).
    Regenerating with the same seed reproduces the batch exactly.
    """

    seed: int
    shots: int
    detector: DetectorConfig | None
    outcomes: np.ndarray
    kind: str = ""


def _check_shots(shots):
    if shots < 0:
        raise ValueError("shots must be >= 0")


def _thread_count(threads, shots):
    """Worker threads actually used: the request capped at the CPU count and
    the shot count, and at least one."""
    return max(1, min(int(threads), os.cpu_count() or 1, shots))


def _run_chunked(worker, shots, threads):
    """Assemble worker(first, count) chunks; identical output for any chunking."""
    threads = _thread_count(threads, shots)
    if threads == 1 or shots < 2 * threads:
        return worker(0, shots)
    bounds = np.linspace(0, shots, threads + 1, dtype=int)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        parts = list(
            pool.map(lambda se: worker(se[0], se[1] - se[0]), zip(bounds[:-1], bounds[1:]))
        )
    return np.concatenate(parts, axis=0)


def _inverse_cdf_draw(cdf, u):
    """Indices of inverse-CDF draws; u is scaled by the total so float drift
    in the cumulative sum cannot push a draw out of range."""
    idx = np.searchsorted(cdf, u * cdf[-1], side="right")
    return np.minimum(idx, len(cdf) - 1)


def sample_fock(u, photons, shots, seed, threads=1):
    """I.i.d. occupation patterns from the exact squared-amplitude table."""
    _check_shots(shots)
    u = check_unitary(u)
    modes = u.shape[0]
    check_size("fock sampler modes", modes)
    check_size("fock sampler photons", photons)
    patterns, amps = amplitude_table(u, photons)
    pattern_array = np.asarray(patterns, dtype=int)
    cdf = np.cumsum(np.abs(amps) ** 2)

    def worker(first, count):
        uniforms = shot_uniforms(seed, count, 1, first)[:, 0]
        return pattern_array[_inverse_cdf_draw(cdf, uniforms)]

    outcomes = _run_chunked(worker, shots, threads)
    return SampleBatch(seed=seed, shots=shots, detector=None, outcomes=outcomes, kind="fock")


def sample_dprcv1(u, photons, t, shots, seed, threads=1):
    """I.i.d. click patterns from the exact 2^M discretized-detector table.

    A drawn table index is decoded to its click bits directly (mode 0 is the
    most significant bit). Guarded by the click-table size limits.
    """
    _check_shots(shots)
    t = check_threshold(t)
    table = distribution_table(u, photons, t)
    cdf = np.cumsum(table.probabilities())
    shifts = np.arange(table.modes - 1, -1, -1)

    def worker(first, count):
        uniforms = shot_uniforms(seed, count, 1, first)[:, 0]
        return (_inverse_cdf_draw(cdf, uniforms)[:, None] >> shifts) & 1

    outcomes = _run_chunked(worker, shots, threads)
    return SampleBatch(
        seed=seed, shots=shots, detector=table.detector, outcomes=outcomes, kind="dprcv1"
    )


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
    _check_shots(shots)
    u = check_unitary(u)
    modes = u.shape[0]
    check_size("prcv1 sampler modes", modes)
    check_size("prcv1 sampler photons", photons)
    patterns, amps = amplitude_table(u, photons)
    pattern_array = np.asarray(patterns, dtype=int)
    cdf = np.cumsum(np.abs(amps) ** 2)

    def worker(first, count):
        uniforms = shot_uniforms(seed, count, 1 + modes, first)
        occ = pattern_array[_inverse_cdf_draw(cdf, uniforms[:, 0])]
        radii = np.empty((count, modes))
        for level in range(photons + 1):
            mask = occ == level
            radii[mask] = _invert_click_cdf(uniforms[:, 1:][mask], level)
        return radii

    outcomes = _run_chunked(worker, shots, threads)
    detector = DetectorConfig(ancilla_n=1)
    return SampleBatch(seed=seed, shots=shots, detector=detector, outcomes=outcomes, kind="prcv1")


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
    _check_shots(shots)
    u = check_unitary(u)
    modes = u.shape[0]
    check_size("cv1 sampler modes", modes)
    check_size("cv1 sampler photons", photons)
    patterns, amps = amplitude_table(u, photons)
    amp_tensor = np.zeros((photons + 1,) * modes, dtype=complex)
    amp_tensor[tuple(np.asarray(patterns).T)] = amps

    r_nodes, r_widths = _radial_grid(grid_radial, photons)
    angles = 2.0 * np.pi * (np.arange(grid_angular) + 0.5) / grid_angular
    alpha_nodes = (np.sqrt(r_nodes)[:, None] * np.exp(1j * angles)[None, :]).ravel()
    # cell size under the outcome measure dR dtheta; constants cancel in the draw
    measure = np.repeat(r_widths * (2.0 * np.pi / grid_angular), grid_angular)
    overlap = _mode_overlap_columns(alpha_nodes, photons)

    # The first mode's cell weights do not depend on earlier outcomes: each is the
    # quadratic form v+ (T T+) v of its node's overlap row v. Later modes are per shot.
    first_rows = amp_tensor.reshape(photons + 1, -1)
    gram = first_rows @ first_rows.conj().T
    first_weights = ((overlap @ gram) * overlap.conj()).sum(axis=1).real
    first_cdf = np.cumsum(first_weights * measure)

    def worker(first, count):
        uniforms = shot_uniforms(seed, count, modes, first)
        out = np.empty((count, modes), dtype=complex)
        idx0 = _inverse_cdf_draw(first_cdf, uniforms[:, 0])
        out[:, 0] = alpha_nodes[idx0]
        if modes == 1:
            return out
        for shot in range(count):
            tensor = (overlap[idx0[shot]] @ first_rows).reshape((photons + 1,) * (modes - 1))
            for j in range(1, modes):
                contract = overlap @ tensor.reshape(photons + 1, -1)
                weights = (np.abs(contract) ** 2).sum(axis=1) * measure
                cell = _inverse_cdf_draw(np.cumsum(weights), uniforms[shot, j])
                out[shot, j] = alpha_nodes[cell]
                tensor = contract[cell]
        return out

    outcomes = _run_chunked(worker, shots, threads)
    detector = DetectorConfig(ancilla_n=1)
    return SampleBatch(seed=seed, shots=shots, detector=detector, outcomes=outcomes, kind="cv1")
