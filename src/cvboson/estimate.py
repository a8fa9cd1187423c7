"""Permanent estimation from click statistics and the multiplicative-bound chain.

At small threshold t the probability of the all-first-N-clicks pattern is
|Per|^2 t^N up to an O(t) relative correction, so an empirical frequency
divided by t^N estimates the squared permanent. This module provides the
threshold <-> word-size map, an exact sweep that measures the correction,
the frequency estimator, and a verifier for the inequality chain that turns
an additive error term into a widened multiplicative factor.
"""

import math
from dataclasses import dataclass

import numpy as np

from .distribution import _click_probabilities, amplitude_table, click_index
from .fock import check_photons

DEGENERATE_PERM_SQ = 1e-12


def t_from_bits(bits_b):
    """Click threshold for a b-bit discretization: t = 2 / (2^b - 1).

    The outcomes in [0, 2] are split into 2^b - 1 equal cells (the top code
    collects everything above 2) and the click region is the lowest cell.
    Note b = 1 gives t = 2 by this formula; the word-size scaling O(2^-b)
    is what matters downstream. b = 1023 gives the smallest normal float; a
    larger b has no float threshold and raises ValueError.
    """
    if not 1 <= bits_b <= 1023 or bits_b != int(bits_b):
        raise ValueError(f"word size must be an integer in [1, 1023], got {bits_b}")
    return 2.0 / (2 ** int(bits_b) - 1)


def _target_pattern(modes, photons):
    return (1,) * photons + (0,) * (modes - photons)


def check_sweep_thresholds(t_values):
    """Raise ValueError unless every threshold lies in (0, 0.1], the sweep's range."""
    t = np.asarray(t_values, dtype=float)
    if not np.all((t > 0) & (t <= 0.1)):  # so a NaN fails too
        raise ValueError("thresholds must lie in (0, 0.1]")


@dataclass(frozen=True)
class SweepFit:
    """Deviation of P(clicks)/t^N from the squared permanent over a t grid.

    deviations[i] = prob/t^N - perm_sq_true at t_values[i]; linear_coeff is
    the fitted slope of that deviation and quadratic_bound the smallest C
    with |deviation - linear_coeff * t| <= C t^2 on the grid. degenerate
    marks instances whose permanent is numerically zero (no stable fit exists).
    """

    t_values: np.ndarray
    deviations: np.ndarray
    linear_coeff: float
    quadratic_bound: float
    perm_sq_true: float
    degenerate: bool


def deviation_sweep(u, photons, t_list):
    """Exact small-threshold sweep of the first-N-clicks probability.

    One amplitude table gives both the squared permanent of the target
    pattern (its table row) and prob_dprcv at every threshold. A threshold at
    which t^N or that probability is not a normal double raises ValueError.
    """
    t_values = np.asarray(t_list, dtype=float)
    if t_values.size < 4:
        raise ValueError("need at least 4 threshold points")
    check_sweep_thresholds(t_values)
    occ, amps = amplitude_table(u, photons)
    pattern = _target_pattern(occ.shape[1], photons)
    row = np.flatnonzero((occ == pattern).all(axis=1))[0]
    # Python abs keeps fock_amplitude's bits (np.abs differs in the last bit)
    perm_sq = abs(complex(amps[row])) ** 2
    probs = _click_probabilities(occ, amps, pattern, t_values)
    t_power = t_values**photons
    for name, values in ((f"t^{photons}", t_power), (f"P(first {photons} clicks)", probs)):
        i = np.argmin(values)
        if values[i] < np.finfo(float).tiny:
            raise ValueError(f"threshold t = {t_values[i]:.3g} is too small: {name} = "
                             f"{values[i]:.3g} is below the smallest normal double")
    deviations = probs / t_power - perm_sq

    if perm_sq < DEGENERATE_PERM_SQ:
        nan = float("nan")
        return SweepFit(t_values, deviations, nan, nan, perm_sq, True)

    design = np.column_stack([t_values, t_values**2])
    scale = np.abs(design).max(axis=0)
    if np.linalg.cond(design / scale) > 1e8:
        raise ValueError("threshold grid is too degenerate for a two-term fit")
    coef, *_ = np.linalg.lstsq(design / scale, deviations, rcond=None)
    linear, quad = coef / scale
    quadratic_bound = float(np.abs((deviations - linear * t_values) / t_values**2).max())
    return SweepFit(t_values, deviations, float(linear), quadratic_bound, perm_sq, False)


@dataclass(frozen=True)
class PermanentEstimate:
    """Frequency estimate of |Per|^2 with its binomial standard error."""

    value: float
    stderr: float
    hits: int
    shots: int
    one_sided_upper: float | None = None


def estimate_perm_from_samples(batch, photons):
    """Estimate |Per|^2 as (empirical frequency of the first-N-clicks pattern) / t^N.

    The batch must come from the discretized sampler; t is its threshold
    batch.t, and a hit is a drawn table index equal to the pattern's. With
    zero observed events the estimate is 0 with a one-sided 95% upper bound
    (rule of three); a batch with no shots is rejected.
    """
    if batch.kind != "dprcv1":
        raise ValueError(f"expected a dprcv1 batch, got {batch.kind!r}")
    shots = batch.shots
    if shots == 0:
        raise ValueError("batch has no shots")
    check_photons(photons, batch.modes)
    target = click_index(_target_pattern(batch.modes, photons))
    hits = sum(int(np.count_nonzero(index == target)) for _, index in batch.blocks())
    scale = batch.t**photons
    freq = hits / shots
    if hits == 0:
        return PermanentEstimate(0.0, 0.0, 0, shots, one_sided_upper=3.0 / shots / scale)
    stderr = math.sqrt(freq * (1.0 - freq) / shots) / scale
    return PermanentEstimate(freq / scale, stderr, hits, shots)


@dataclass(frozen=True)
class BoundCheck:
    """Verdict of the multiplicative-bound chain on one set of numbers.

    applicable is False when |E|/L >= 1/2 (the chain's premise fails and no
    conclusion is drawn). passed is True when every inequality of the chain
    holds: the assumed input bound, the absolute-value weakening, the
    lower-bound form, and the final multiplicative bound with widened factor
    g_prime = (1 + 2|E|/L) g.
    """

    applicable: bool
    g_prime: float | None
    passed: bool


def mult_bound_check(perm_sq, error_term, lower_bound, g, p_tilde):
    """Verify the chain turning an additive error into a multiplicative factor.

    Given (perm_sq + E)/g < p_tilde < (perm_sq + E) g with perm_sq >= L > 0
    and |E|/L < 1/2, the conclusion is
    perm_sq / ((1 + 2|E|/L) g) < p_tilde < perm_sq (1 + 2|E|/L) g.
    Every intermediate inequality is checked numerically.
    """
    if not 1 < g < math.inf:
        raise ValueError(f"multiplicative factor must exceed 1 and be finite, got {g}")
    if not lower_bound > 0:
        raise ValueError(f"lower bound must be positive, got {lower_bound}")
    if perm_sq < lower_bound:
        raise ValueError(f"perm_sq {perm_sq} is below its lower bound {lower_bound}")
    abs_e = abs(error_term)
    ratio = abs_e / lower_bound
    if ratio >= 0.5:
        return BoundCheck(applicable=False, g_prime=None, passed=False)
    g_prime = (1 + 2 * ratio) * g
    links = {
        "input_bound": (perm_sq + error_term) / g < p_tilde < (perm_sq + error_term) * g,
        "absolute_bound": (perm_sq - abs_e) / g < p_tilde < (perm_sq + abs_e) * g,
        "relative_bound": perm_sq * (1 - ratio) / g < p_tilde < perm_sq * (1 + ratio) * g,
        "multiplicative_bound": perm_sq / g_prime < p_tilde < perm_sq * g_prime,
    }
    return BoundCheck(applicable=True, g_prime=g_prime, passed=all(links.values()))


@dataclass(frozen=True)
class EstimateReport:
    """Summary record tying an estimate to the bound chain (JSON field names fixed)."""

    perm_sq_true: float
    perm_sq_estimate: float
    error_term_E: float
    lower_bound_L: float
    mult_factor_g: float
    effective_factor_g_prime: float


def build_estimate_report(u, photons, t, p_tilde, lower_bound=None, g=1.1):
    """Assemble an EstimateReport at working threshold t.

    The error term E is measured, not assumed: an exact sweep around t fits
    the linear part of the deviation and E is the remainder at t. The
    default lower bound is the true squared permanent itself. The widened
    factor g' comes from mult_bound_check and is infinite where the chain does
    not apply (|E|/L >= 1/2). Inputs that break the chain's premises (g <= 1
    or infinite, L <= 0, L > |Per|^2, and so a zero permanent with the
    default L) raise ValueError.
    """
    t_grid = np.geomspace(t, min(16 * t, 0.1), 6)
    sweep = deviation_sweep(u, photons, t_grid)
    perm_sq = sweep.perm_sq_true
    if sweep.degenerate:
        error_term = float(sweep.deviations[0])
    else:
        error_term = float(sweep.deviations[0] - sweep.linear_coeff * t)
    if lower_bound is None:
        lower_bound = perm_sq
    check = mult_bound_check(perm_sq, error_term, lower_bound, g, p_tilde)
    return EstimateReport(
        perm_sq_true=perm_sq,
        perm_sq_estimate=p_tilde,
        error_term_E=error_term,
        lower_bound_L=lower_bound,
        mult_factor_g=g,
        effective_factor_g_prime=check.g_prime if check.applicable else float("inf"),
    )
