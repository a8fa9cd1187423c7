"""Self-contained invariant suite behind the `verify` CLI command.

Each check re-derives an expected value through an independent route
(closed forms, naive permanent sums, grid averages, sampling statistics)
and compares it against the shipped implementation at a fixed tolerance.
The quick level runs in a few seconds. The full level enlarges sizes, seed
counts, and shot counts, and is the acceptance gate: tests/test_acceptance.py
runs it and asserts every check by name.
"""

import math
import time
from dataclasses import dataclass

import numpy as np

from .distribution import (
    click_index,
    density_cv,
    distribution_table,
    leading_order,
    prcv_cell_integral,
    prob_dprcv,
)
from .estimate import deviation_sweep, mult_bound_check
from .fock import enumerate_fock_patterns, fock_amplitude, haar_unitary, submatrix_with_multiplicity
from .permanent import permanent_naive, permanent_ryser
from .povm import (
    detector_curves,
    dprcv1_povm,
    prcv_completeness_residual,
    prcv_phase_average,
    prcv_povm_diag,
)
from .sampler import sample_cv1, sample_dprcv1, sample_fock, sample_prcv1
from .special import (
    dark_count_probability,
    detector_efficiency,
    g_function,
    laguerre,
    lower_incomplete_gamma,
)

# (modes, photons, seed) of the exactness checks at the full level: M = 4..6, N = 2..3
_EXACTNESS_CASES = [(4 + s % 3, 2 + s % 2, 300 + s) for s in range(20)]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def empirical_tv(outcomes, patterns, probabilities):
    """Total-variation distance between the empirical distribution of the
    outcome rows and `probabilities` over `patterns`. Rows that are not among
    `patterns` count in full."""
    rows, counts = np.unique(np.asarray(outcomes), axis=0, return_counts=True)
    observed = dict(zip(map(tuple, rows.tolist()), counts / len(outcomes)))
    listed = sum(abs(observed.pop(tuple(p), 0.0) - q) for p, q in zip(patterns, probabilities))
    return 0.5 * (listed + sum(observed.values()))


def _check_haar_unitarity(full):
    worst = 0.0
    for modes in (1, 2, 5, 8) + ((16,) if full else ()):
        for seed in range(5):
            u = haar_unitary(modes, seed)
            worst = max(worst, np.abs(u.conj().T @ u - np.eye(modes)).max())
    return worst <= 1e-12, f"max |U+U - I| = {worst:.2e}"


def _check_haar_determinism(full):
    same = np.array_equal(haar_unitary(6, 9), haar_unitary(6, 9))
    differ = not np.array_equal(haar_unitary(6, 9), haar_unitary(6, 10))
    return same and differ, "bitwise reproducible, seed-sensitive"


def _check_amplitude_normalization(full):
    worst = 0.0
    seeds = range(20 if full else 5)
    for seed in seeds:
        modes, photons = 3 + seed % 4, 1 + seed % 3
        u = haar_unitary(modes, seed)
        total = sum(
            abs(fock_amplitude(u, p)) ** 2 for p in enumerate_fock_patterns(modes, photons)
        )
        worst = max(worst, abs(total - 1))
    return worst <= 1e-10, f"max |sum - 1| = {worst:.2e}"


def _check_amplitude_against_naive_permanent(full):
    cases = [(4, 3, 40 + seed) for seed in range(4 if full else 2)]
    worst = 0.0
    for modes, photons, seed in cases + (_EXACTNESS_CASES if full else []):
        u = haar_unitary(modes, seed)
        for pattern in enumerate_fock_patterns(modes, photons):
            sub = submatrix_with_multiplicity(u, pattern)
            norm = math.sqrt(math.prod(math.factorial(n) for n in pattern))
            expected = permanent_naive(sub) / norm
            worst = max(worst, abs(fock_amplitude(u, pattern) - expected))
    return worst <= 1e-10, f"max amplitude defect = {worst:.2e}"


def _check_permanent_cross(full):
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000 if full else 100):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        expected = permanent_naive(a)
        worst = max(worst, abs(permanent_ryser(a) - expected) / abs(expected))
    factorials = all(
        permanent_ryser(np.ones((n, n))) == float(math.factorial(n)) for n in range(1, 11)
    )
    return worst <= 1e-9 and factorials, f"max rel defect = {worst:.2e}; all-ones exact"


def _check_special_closed_forms(full):
    checks = [
        abs(laguerre(1, 2, 0.7) - (3 - 0.7)),
        abs(lower_incomplete_gamma(1, 0.8) + math.expm1(-0.8)),
        abs(lower_incomplete_gamma(2, 1.0) - (1 - 2 / math.e)),
        abs(g_function(0.4, 1) - detector_efficiency(0.4)),
        abs(g_function(0.4, 0) - dark_count_probability(0.4)),
        abs(g_function(math.inf, 3) - 1.0),
    ]
    worst = max(checks)
    return worst <= 1e-12, f"max defect = {worst:.2e}"


def _check_click_series(full):
    # leading terms: k=0: t^2/2; k=1: t; k=2: t^2; k=3: t^3/2
    t = 1e-4
    targets = {0: (2, 0.5), 1: (1, 1.0), 2: (2, 1.0), 3: (3, 0.5)}
    worst = max(
        abs(g_function(t, k) / t**p / c - 1) for k, (p, c) in targets.items()
    )
    return worst <= 0.01, f"max rel coefficient error = {worst:.2e}"


def _check_detector_curves(full):
    crossing = abs(detector_efficiency(1.0) - dark_count_probability(1.0))
    t = np.linspace(0.0, 3.0, 601) if full else np.linspace(0.01, 0.99, 99)
    table = detector_curves(t)
    closed = np.column_stack([t, 1 - np.exp(-t) * (1 + t**2), 1 - np.exp(-t) * (1 + t)])
    interior = (t > 0) & (t < 1)
    ordered = np.all(table[interior, 1] > table[interior, 2])
    exact = np.allclose(table, closed, rtol=1e-15, atol=0)
    return crossing <= 1e-14 and bool(ordered) and exact, (
        f"|eta(1) - p_D(1)| = {crossing:.1e}; closed forms on {t.size} points"
    )


def _check_projection_at_zero(full):
    exact = all(
        prcv_povm_diag(1, 0.0, k) == (1.0 if k == 1 else 0.0) for k in range(21)
    )
    return exact, "radius-zero element projects on |1>"


def _check_phase_average(full):
    cutoff, n_theta = (20, 2048) if full else (12, 512)
    worst = 0.0
    for big_r in (0.3, 0.4, 1.3, 2.0, 5.0) if full else (0.3, 2.0):
        averaged = prcv_phase_average(1, big_r, cutoff, n_theta)
        off = np.abs(averaged - np.diag(np.diag(averaged))).max()
        levels = range(cutoff + 1)
        diag = max(abs(averaged[k, k].real - prcv_povm_diag(1, big_r, k)) for k in levels)
        worst = max(worst, off, diag)
    return worst <= 1e-8, f"max defect = {worst:.2e}"


def _check_completeness(full):
    ancillas = (0, 1, 2) if full else (0, 1)
    cutoff = 5 if full else 3
    worst = max(
        prcv_completeness_residual(n, cutoff, 50.0).max() for n in ancillas
    )
    return worst <= 1e-8, f"max residual = {worst:.2e}"


def _check_click_complement(full):
    click, no_click = dprcv1_povm(0.17, 10)
    exact = np.array_equal(click + no_click, np.eye(11).astype(complex))
    return exact, "click + no-click = identity exactly"


def _check_table_normalization(full):
    cases = [(6, 3, 1), (12, 4, 5)] + _EXACTNESS_CASES if full else [(6, 2, 1)]
    worst = max(
        distribution_table(haar_unitary(m, s), n, 0.05).normalization_residual
        for m, n, s in cases
    )
    return worst <= 1e-10, f"max residual = {worst:.2e}"


def _check_click_probability_by_quadrature(full):
    cases = [((1, 1), 2, 321), ((1, 0, 1), 2, 322), ((1, 1, 1), 3, 323), ((0, 1, 0), 1, 324)]
    worst = 0.0
    for clicks, photons, seed in cases if full else cases[:1]:
        u = haar_unitary(len(clicks), seed)
        direct = prob_dprcv(u, clicks, 0.3, photons)
        worst = max(worst, abs(direct - prcv_cell_integral(u, clicks, 0.3, photons)))
    return worst <= 1e-6, f"max |P - quadrature| = {worst:.2e}"


def _check_hom(full):
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    amp11 = abs(fock_amplitude(bs, (1, 1))) ** 2
    bunched = max(abs(abs(fock_amplitude(bs, p)) ** 2 - 0.5) for p in ((2, 0), (0, 2)))
    t = np.array([0.05, 0.07, 0.2, 0.7])
    coincidence = np.abs(
        prob_dprcv(bs, (1, 1), t, 2) - g_function(t, 0) * g_function(t, 2)
    ).max()
    return amp11 <= 1e-20 and bunched <= 1e-12 and coincidence <= 1e-12, (
        f"|amp(1,1)|^2 = {amp11:.1e}, |amp(2,0)|^2 - 1/2 = {bunched:.1e}, "
        f"coincidence defect = {coincidence:.1e}"
    )


def _check_leading_order(full):
    t_grid = np.geomspace(1e-4, 1e-2, 8)
    sweep = deviation_sweep(np.eye(1), 1, t_grid)
    slope_ok = abs(sweep.linear_coeff + 1.5) <= 0.015
    bound_ok = True
    for seed in range(20 if full else 5):
        _, mass = leading_order(haar_unitary(5, seed), (1, 1, 0, 0, 0), 1e-3)
        # |deviation| <= (|c_1| + C t_max) t, the fitted law on the sweep grid
        fit = deviation_sweep(haar_unitary(6, 400 + seed), 3, t_grid)
        c = abs(fit.linear_coeff) + fit.quadratic_bound * t_grid.max()
        within = fit.degenerate or np.all(np.abs(fit.deviations) <= c * t_grid + 1e-15)
        bound_ok = bound_ok and 0 <= mass <= 1 and bool(within)
    return slope_ok and bound_ok, (
        f"slope = {sweep.linear_coeff:.4f}, neighbor mass and deviations bounded"
    )


def _check_sampler_determinism(full):
    u = haar_unitary(4, 5)
    # (sampler, arguments, threads of the second run)
    cases = [(sample_dprcv1, (u, 2, 0.05, 3000, 9), 4)]
    if full:
        u6, u3 = haar_unitary(6, 500), haar_unitary(3, 510)
        cases += [
            (sample_fock, (u6, 3, 5000, 77), 4),
            (sample_dprcv1, (u6, 3, 0.3, 5000, 77), 3),
            (sample_prcv1, (u3, 2, 2000, 77), 5),
            (sample_cv1, (haar_unitary(2, 520), 1, 300, 77), 2),
            (sample_dprcv1, (u, 2, 0.05, 40_000, 9), 3),  # crosses a block edge
        ]
    runs = [
        (sampler(*args).outcomes, sampler(*args, threads=threads).outcomes)
        for sampler, args, threads in cases
    ]
    prefix = sample_dprcv1(u, 2, 0.05, 1000, 9).outcomes
    ok = all(np.array_equal(a, b) for a, b in runs) and np.array_equal(runs[0][0][:1000], prefix)
    return ok, "thread- and block-independent: " + ", ".join(c[0].__name__ for c in cases)


def _check_sampler_tv(full):
    modes, photons = (6, 3) if full else (4, 2)
    u = haar_unitary(modes, 33)
    patterns = enumerate_fock_patterns(modes, photons)
    probs = [abs(fock_amplitude(u, p)) ** 2 for p in patterns]
    tv = empirical_tv(sample_fock(u, photons, 100_000, 7).outcomes, patterns, probs)
    return tv <= 0.01, f"TV = {tv:.4f} at 100000 shots"


def _check_dprcv1_tv(full):
    modes, photons = (6, 3) if full else (4, 2)
    u = haar_unitary(modes, 500)
    probs = distribution_table(u, photons, 0.3).probabilities()
    clicks = sample_dprcv1(u, photons, 0.3, 100_000, 502).outcomes
    counts = np.bincount(click_index(clicks), minlength=probs.size)
    tv = 0.5 * np.abs(counts / 100_000 - probs).sum()
    return tv <= 0.01, f"TV = {tv:.4f} at 100000 shots"


def _chi_square_p(observed, expected):
    """Chi-square p-value of observed counts over the cells expecting >= 5."""
    from scipy import stats

    used = expected >= 5
    deviation = (observed[used] - expected[used]) ** 2 / expected[used]
    return stats.chi2.sf(float(deviation.sum()), max(1, expected.size - 1))


def _check_coarse_graining(full):
    u = haar_unitary(2, 27)
    t = 0.4
    shots = 30_000 if full else 10_000
    radial = sample_prcv1(u, 1, shots, 37)
    probs = distribution_table(u, 1, t).probabilities()
    counts = np.bincount(click_index(radial.outcomes <= t), minlength=probs.size)
    p_value = _chi_square_p(counts, probs * shots)
    return p_value > 0.001, f"chi-square p = {p_value:.4f}"


def _check_cv1_joint_density(full):
    # 8 sectors of (theta_1 - theta_0) mod 2 pi, each split by R_0 < 1 and R_1 < 1:
    # an error in a later mode's angle draw (a flipped sign, say) moves the
    # relative angle, which no radial or click statistic sees
    u = haar_unitary(2, 35)
    shots = 20_000 if full else 5_000
    alphas = sample_cv1(u, 1, shots, 71).outcomes
    sector = np.mod(np.angle(alphas[:, 1] / alphas[:, 0]), 2 * np.pi) // (np.pi / 4)
    index = 4 * np.minimum(sector, 7).astype(int) + (np.abs(alphas) ** 2 < 1) @ [2, 1]
    observed = np.bincount(index, minlength=32)
    # Gauss-Legendre quadrature of density_cv in s = sqrt(R) (dR = 2 s ds) on
    # [0, 1] and [1, 6] per mode, and in theta_1 over each sector; the density
    # depends on the angles only through theta_1 - theta_0, so theta_0 = 0 and
    # the integral over it is a factor 2 pi
    x, w = np.polynomial.legendre.leggauss(10)
    s = np.concatenate([0.5 + 0.5 * x, 3.5 + 2.5 * x])
    s_weights = np.concatenate([0.5 * w, 2.5 * w]) * 2 * s
    x, w = np.polynomial.legendre.leggauss(2)
    phis = (np.pi / 8) * (x + 1 + 2 * np.arange(8)[:, None]).ravel()
    s0, s1, phi = np.meshgrid(s, s, phis, indexing="ij")
    w0, w1, w_phi = np.meshgrid(s_weights, s_weights, np.tile((np.pi / 8) * w, 8), indexing="ij")
    density = density_cv(u, np.stack([s0, s1 * np.exp(1j * phi)], axis=-1), 1)
    cells = 4 * (phi // (np.pi / 4)).astype(int) + 2 * (s0 < 1) + (s1 < 1)
    masses = np.bincount(cells.ravel(), (2 * np.pi * w0 * w1 * w_phi * density).ravel(), 32)
    p_value = _chi_square_p(observed, masses * shots)
    return p_value > 0.001 and abs(masses.sum() - 1) <= 1e-4, (
        f"chi-square p = {p_value:.3g} over 32 bins; quadrature mass {masses.sum():.6f}"
    )


def _check_bound_chain(full):
    rng = np.random.default_rng(99)
    for _ in range(10_000 if full else 1000):
        lower = rng.uniform(0.01, 1.0)
        perm_sq = lower * rng.uniform(1.0, 10.0)
        error = rng.uniform(-0.499, 0.499) * lower
        g = 1.0 + rng.uniform(1e-6, 3.0)
        p_tilde = rng.uniform(
            (perm_sq + error) / g * (1 + 1e-12), (perm_sq + error) * g * (1 - 1e-12)
        )
        verdict = mult_bound_check(perm_sq, error, lower, g, p_tilde)
        if not verdict.passed:
            return False, f"violated at {(perm_sq, error, lower, g, p_tilde)}"
        rejected = mult_bound_check(perm_sq, rng.uniform(0.5, 3.0) * lower, lower, g, p_tilde)
        if rejected.applicable:
            return False, "failed to reject |E|/L >= 1/2"
    exact = mult_bound_check(1.0, 0.0, 0.5, 1.25, 1.0)
    if exact.g_prime != 1.25:
        return False, "E = 0 did not reduce g' to g"
    return True, "all premise-satisfying cases hold; large ratios rejected"


_CHECKS = [
    ("haar-unitarity", _check_haar_unitarity),
    ("haar-determinism", _check_haar_determinism),
    ("amplitude-normalization", _check_amplitude_normalization),
    ("amplitude-vs-naive-permanent", _check_amplitude_against_naive_permanent),
    ("permanent-cross-check", _check_permanent_cross),
    ("special-closed-forms", _check_special_closed_forms),
    ("click-series-coefficients", _check_click_series),
    ("detector-curves-crossing", _check_detector_curves),
    ("radius-zero-projection", _check_projection_at_zero),
    ("phase-average-identity", _check_phase_average),
    ("completeness-residuals", _check_completeness),
    ("click-complement-identity", _check_click_complement),
    ("table-normalization", _check_table_normalization),
    ("click-probability-by-quadrature", _check_click_probability_by_quadrature),
    ("hong-ou-mandel", _check_hom),
    ("leading-order", _check_leading_order),
    ("sampler-determinism", _check_sampler_determinism),
    ("sampler-total-variation", _check_sampler_tv),
    ("dprcv1-total-variation", _check_dprcv1_tv),
    ("coarse-graining-consistency", _check_coarse_graining),
    ("cv1-joint-density", _check_cv1_joint_density),
    ("bound-chain", _check_bound_chain),
]


def run_checks(level="quick"):
    """Run the invariant suite; returns a list of CheckResult."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown level {level!r}")
    full = level == "full"
    results = []
    for name, check in _CHECKS:
        start = time.perf_counter()
        try:
            passed, detail = check(full)
        except Exception as exc:  # a crash is a failed invariant, not a crash of verify
            passed, detail = False, f"exception: {exc!r}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
