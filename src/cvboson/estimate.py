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

from .distribution import prob_dprcv
from .fock import check_photons, check_unitary, fock_amplitude

DEGENERATE_PERM_SQ = 1e-12


def t_from_bits(bits_b):
    """Click threshold for a b-bit discretization: t = 2 / (2^b - 1).

    The outcomes in [0, 2] are split into 2^b - 1 equal cells (the top code
    collects everything above 2) and the click region is the lowest cell.
    Note b = 1 gives t = 2 by this formula; the word-size scaling O(2^-b)
    is what matters downstream.
    """
    if bits_b < 1 or bits_b != int(bits_b):
        raise ValueError(f"word size must be a positive integer, got {bits_b}")
    return 2.0 / (2 ** int(bits_b) - 1)


def _target_pattern(modes, photons):
    return (1,) * photons + (0,) * (modes - photons)


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
    """Exact small-threshold sweep of the first-N-clicks probability."""
    u = check_unitary(u)
    modes = u.shape[0]
    t_values = np.asarray(t_list, dtype=float)
    if t_values.size < 4:
        raise ValueError("need at least 4 threshold points")
    if np.any(t_values <= 0) or np.any(t_values > 0.1):
        raise ValueError("thresholds must lie in (0, 0.1]")
    pattern = _target_pattern(modes, check_photons(photons, modes))
    perm_sq = abs(fock_amplitude(u, pattern)) ** 2
    probs = prob_dprcv(u, pattern, t_values, photons)
    deviations = probs / t_values**photons - perm_sq

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


def estimate_perm_from_samples(batch, t, photons):
    """Estimate |Per|^2 as (empirical frequency of the first-N-clicks pattern) / t^N.

    The batch must come from the discretized sampler at the same threshold.
    With zero observed events the estimate is 0 with a one-sided 95% upper
    bound (rule of three); a batch with no shots is rejected.
    """
    if batch.kind != "dprcv1":
        raise ValueError(f"expected a dprcv1 batch, got {batch.kind!r}")
    if not math.isclose(batch.t, t, rel_tol=1e-12):
        raise ValueError("batch threshold does not match t")
    shots = batch.shots
    if shots == 0:
        raise ValueError("batch has no shots")
    target = np.asarray(_target_pattern(batch.modes, photons))
    hits = sum(int((rows == target).all(axis=1).sum()) for _, rows in batch.blocks())
    scale = t**photons
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
    if not g > 1:
        raise ValueError(f"multiplicative factor must exceed 1, got {g}")
    if not lower_bound > 0:
        raise ValueError(f"lower bound must be positive, got {lower_bound}")
    if perm_sq < lower_bound:
        raise ValueError(f"perm_sq {perm_sq} is below its lower bound {lower_bound}")
    ratio = abs(error_term) / lower_bound
    if ratio >= 0.5:
        return BoundCheck(applicable=False, g_prime=None, passed=False)
    abs_e = abs(error_term)
    links = {
        "input_bound": (perm_sq + error_term) / g < p_tilde < (perm_sq + error_term) * g,
        "absolute_bound": (perm_sq - abs_e) / g < p_tilde < (perm_sq + abs_e) * g,
        "relative_bound": perm_sq * (1 - ratio) / g < p_tilde < perm_sq * (1 + ratio) * g,
        "multiplicative_bound": perm_sq / ((1 + 2 * ratio) * g)
        < p_tilde
        < perm_sq * (1 + 2 * ratio) * g,
    }
    g_prime = (1 + 2 * ratio) * g
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
    not apply (|E|/L >= 1/2). Inputs that break the chain's premises (g <= 1,
    L <= 0, L > |Per|^2, and so a zero permanent with the default L) raise
    ValueError.
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
