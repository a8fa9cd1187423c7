"""Tests for the detector model: special functions, POVM elements, identities.

Oracles used here:
* explicit Laguerre series with generalized binomial coefficients;
* adaptive quadrature (scipy.integrate.quad) of the radial densities,
  entirely independent of the Poisson-tail incomplete-gamma route;
* a closed form for the click response rebuilt from exact polynomial
  coefficients and gamma terms, for general ancilla number;
* the three-gamma definition of the click response at 50 digits (mpmath);
* 2-D polar-grid quadrature for the CV element completeness.
"""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from cvboson.fock import displacement_element
from cvboson.povm import (
    cvn_povm_element,
    detector_curves,
    dprcv1_povm,
    prcv_completeness_residual,
    prcv_phase_average,
    prcv_povm_diag,
)
from cvboson.special import (
    dark_count_probability,
    detector_efficiency,
    g_function,
    laguerre,
    lower_incomplete_gamma,
)


def gen_binom(a, b):
    """Generalized binomial coefficient C(a, b) for integer a (may be negative)."""
    value = 1.0
    for i in range(b):
        value *= a - i
    return value / math.factorial(b)


def laguerre_series(n, m, x):
    """Oracle: explicit series sum_j (-1)^j C(n+m, n-j) x^j / j!."""
    return sum((-1) ** j * gen_binom(n + m, n - j) * x**j / math.factorial(j) for j in range(n + 1))


class TestLaguerre:
    def test_degree_zero_is_one(self):
        for m in (-3, 0, 4):
            assert laguerre(0, m, 2.7) == 1.0

    def test_degree_one_closed_form(self):
        # L_1^{k-1}(R) = k - R, including k = 0
        for k in range(5):
            for big_r in (0.0, 0.3, 2.0):
                assert laguerre(1, k - 1, big_r) == pytest.approx(k - big_r, abs=1e-14)

    def test_frozen_value_degree_two(self):
        # L_2^0(3) = 1 - 2*3 + 9/2 = -0.5 (explicit expansion)
        assert laguerre(2, 0, 3.0) == pytest.approx(-0.5, abs=1e-14)

    def test_matches_series_oracle(self):
        xs = np.array([0.0, 0.17, 1.0, 3.5, 9.0])
        for n in range(9):
            for m in range(-5, 6):
                expected = [laguerre_series(n, m, x) for x in xs]
                got = laguerre(n, m, xs)
                np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-10)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            laguerre(-1, 0, 1.0)


class TestIncompleteGamma:
    def test_order_one_closed_form(self):
        for t in (0.0, 1e-6, 0.5, 3.0, 40.0):
            assert lower_incomplete_gamma(1, t) == pytest.approx(-math.expm1(-t), rel=1e-14)

    def test_complete_limit_is_factorial(self):
        for k in range(1, 8):
            assert lower_incomplete_gamma(k, np.inf) == math.factorial(k - 1)
            assert lower_incomplete_gamma(k, 700.0) == pytest.approx(
                math.factorial(k - 1), rel=1e-12
            )

    def test_frozen_value_vs_quadrature(self):
        # quad oracle gives 0.26424111765711533 (= 1 - 2/e) for gamma(2, 1)
        oracle, _ = quad(lambda r: math.exp(-r) * r, 0, 1)
        assert oracle == pytest.approx(0.26424111765711533, abs=1e-14)
        assert lower_incomplete_gamma(2, 1.0) == pytest.approx(oracle, abs=1e-14)

    def test_matches_quadrature_oracle(self):
        for k in range(1, 9):
            for t in (1e-5, 1e-3, 0.1, 1.0, k + 0.5, 4 * k + 2.0):
                oracle, err = quad(
                    lambda r: math.exp(-r) * r ** (k - 1), 0, t, epsabs=1e-15, epsrel=1e-13
                )
                got = lower_incomplete_gamma(k, t)
                assert got == pytest.approx(oracle, rel=1e-11, abs=max(1e-14, 2 * err))

    def test_small_t_no_cancellation(self):
        # relative accuracy at tiny t where the naive recurrence would cancel
        for k in (2, 3, 4):
            t = 1e-6
            leading = t**k / k * (1 - k * t / (k + 1))
            assert lower_incomplete_gamma(k, t) == pytest.approx(leading, rel=1e-9)

    def test_vectorized_matches_scalar(self):
        ts = np.array([0.0, 1e-4, 0.3, 5.0, 80.0])
        got = lower_incomplete_gamma(3, ts)
        expected = [lower_incomplete_gamma(3, float(t)) for t in ts]
        np.testing.assert_allclose(got, expected, rtol=1e-14)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            lower_incomplete_gamma(0, 1.0)


def click_response_from_gamma(n, k, t):
    """Oracle: integral of the ancilla-n radial density over [0, t], rebuilt
    from exact squared-Laguerre polynomial coefficients and gamma terms.
    Uses the level-symmetric form, so k < n works as well."""
    lo, hi = min(n, k), max(n, k)
    m = hi - lo
    coeffs = [(-1) ** j * gen_binom(lo + m, lo - j) / math.factorial(j) for j in range(lo + 1)]
    squared = np.convolve(coeffs, coeffs)  # coefficients of (L_lo^m)^2
    total = 0.0
    for p, c in enumerate(squared):
        total += c * lower_incomplete_gamma(m + p + 1, t)
    return math.factorial(lo) / math.factorial(hi) * total


def g_three_gamma(t, k):
    """Oracle: G(t, k) = [k^2 gamma(k,t) - 2k gamma(k+1,t) + gamma(k+2,t)] / k!
    (gamma(2, t) at k = 0), evaluated at 50 digits."""
    with mpmath.workdps(50):
        t = mpmath.mpf(t)
        gamma = lambda a: mpmath.gammainc(a, 0, t)  # noqa: E731
        if k == 0:
            return float(gamma(2))
        value = k * k * gamma(k) - 2 * k * gamma(k + 1) + gamma(k + 2)
        return float(value / mpmath.factorial(k))


class TestClickResponse:
    def test_matches_efficiency_and_dark_count(self):
        for t in (1e-4, 0.1, 1.0, 5.0):
            assert g_function(t, 1) == pytest.approx(detector_efficiency(t), abs=1e-14)
            assert g_function(t, 0) == pytest.approx(dark_count_probability(t), abs=1e-14)

    def test_zero_threshold(self):
        for k in range(8):
            assert g_function(0.0, k) == 0.0

    def test_complete_limit(self):
        for k in range(8):
            assert g_function(np.inf, k) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_and_bounded(self):
        grid = np.linspace(0, 30, 400)
        for k in range(11):
            values = g_function(grid, k)
            assert np.all(values >= 0) and np.all(values <= 1 + 1e-12)
            assert np.all(np.diff(values) >= -1e-12)

    def test_matches_three_gamma_definition_at_50_digits(self):
        # small t, then a fine scan over the regime changes near t = k + 1
        ts = np.concatenate(
            [np.geomspace(1e-12, 1.0, 20), np.linspace(1.25, 8.0, 28), [12, 16, 24, 32, 48, 64]]
        )
        for k in range(5):
            expected = np.array([g_three_gamma(t, k) for t in ts])
            np.testing.assert_allclose(g_function(ts, k), expected, rtol=2e-15, atol=0)

    def test_non_decreasing_on_fine_grid(self):
        grid = np.linspace(0.0, 70.0, 200_001)
        for k in range(5):
            assert np.all(np.diff(g_function(grid, k)) >= 0), k

    def test_array_and_scalar_calls_give_equal_bits(self):
        # both regimes, their boundary, the far tail and inf in one batch
        ts = np.array([0.0, 1e-12, 1e-3, 0.7, 2.0, 3.0, 4.999, 5.0, 6.0, 9.5, 40.0, 800.0, np.inf])
        for k in range(6):
            scalar = [g_function(float(t), k) for t in ts]
            np.testing.assert_array_equal(g_function(ts, k), scalar)
            scalar = [lower_incomplete_gamma(k + 1, float(t)) for t in ts]
            np.testing.assert_array_equal(lower_incomplete_gamma(k + 1, ts), scalar)

    def test_nan_threshold_rejected(self):
        for t in (math.nan, np.array([0.1, math.nan])):
            with pytest.raises(ValueError):
                g_function(t, 2)
            with pytest.raises(ValueError):
                lower_incomplete_gamma(2, t)

    def test_integral_of_radial_density_general_ancilla(self):
        # three independent routes: quadrature, gamma-rebuilt closed form,
        # and (for ancilla 1) the shipped G function
        cases = [(n, k) for n in range(7) for k in (n, n + 1, n + 3)]
        cases += [(2, 0), (3, 1), (5, 2)]  # detector level below the ancilla
        done = 0
        for n, k in cases:
            for t in (0.3, 2.0):
                by_quad, err = quad(
                    lambda r: prcv_povm_diag(n, r, k), 0, t, epsabs=1e-14, epsrel=1e-12
                )
                by_gamma = click_response_from_gamma(n, k, t)
                assert by_quad == pytest.approx(by_gamma, abs=max(1e-10, 2 * err))
                if n == 1:
                    assert g_function(t, k) == pytest.approx(by_quad, abs=1e-10)
                done += 1
        assert done >= 20

    def test_small_t_series_coefficients(self):
        # finite differences recover the leading series coefficients:
        # k=0: t^2/2 - t^3/3; k=1: t - 3t^2/2 + 7t^3/6; k=2: t^2 - 4t^3/3; k=3: t^3/2
        leading = {0: (2, 0.5), 1: (1, 1.0), 2: (2, 1.0), 3: (3, 0.5)}
        second = {0: -1 / 3, 1: -3 / 2, 2: -4 / 3}
        for k, (power, coeff) in leading.items():
            t = 1e-4
            assert g_function(t, k) / t**power == pytest.approx(coeff, rel=0.01)
        for k, coeff in second.items():
            power = leading[k][0]
            t = 1e-3
            got = (g_function(t, k) - leading[k][1] * t**power) / t ** (power + 1)
            assert got == pytest.approx(coeff, rel=0.01)


class TestPrcvDiag:
    def test_zero_radius_projects_on_ancilla_level(self):
        for k in range(6):
            assert prcv_povm_diag(1, 0.0, k) == (1.0 if k == 1 else 0.0)

    @pytest.mark.parametrize("big_r", [math.nan, -0.5, np.array([0.2, math.nan]), math.inf])
    def test_rejects_nan_or_negative_radius(self, big_r):
        with pytest.raises(ValueError, match="R must be non-negative"):
            prcv_povm_diag(1, big_r, 2)

    def test_heterodyne_is_poisson(self):
        for k in range(6):
            for big_r in (0.0, 0.4, 2.5):
                expected = math.exp(-big_r) * big_r**k / math.factorial(k)
                assert prcv_povm_diag(0, big_r, k) == pytest.approx(expected, rel=1e-12)

    def test_ancilla_one_closed_form(self):
        for k in range(6):
            for big_r in (0.05, 1.0, 3.7):
                expected = math.exp(-big_r) * big_r ** (k - 1) * (k - big_r) ** 2 / math.factorial(k)
                assert prcv_povm_diag(1, big_r, k) == pytest.approx(expected, rel=1e-12)

    def test_matches_phase_average_of_cv_element(self):
        cutoff = 14
        for big_r in (0.3, 1.0, 4.2):
            averaged = prcv_phase_average(1, big_r, cutoff, n_theta=512)
            off_diagonal = averaged - np.diag(np.diag(averaged))
            assert np.abs(off_diagonal).max() <= 1e-8
            for k in range(cutoff + 1):
                assert averaged[k, k].real == pytest.approx(
                    prcv_povm_diag(1, big_r, k), abs=1e-8
                )

    def test_phase_average_is_the_mean_of_the_cv_element_stack(self):
        alphas = math.sqrt(1.3) * np.exp(2j * np.pi * np.arange(64) / 64)
        stack = cvn_povm_element(1, alphas, 9)
        np.testing.assert_allclose(prcv_phase_average(1, 1.3, 9, n_theta=64),
                                   2 * np.pi * stack.mean(axis=0), rtol=0, atol=1e-15)

    def test_phase_average_memory_does_not_hold_the_element_stack(self):
        # the 2048-angle stack at cutoff 20 is 14.5 MB and peaked at 28.9 MB
        # when built whole; blocks of angles keep one block's elements alive
        tracemalloc.start()
        try:
            prcv_phase_average(1, 2.0, 20, 2048)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6, peak


class TestCvElement:
    def test_zero_displacement_projects_on_ancilla(self):
        element = cvn_povm_element(1, 0, 6)
        expected = np.zeros((7, 7))
        expected[1, 1] = 1 / (2 * np.pi)
        np.testing.assert_allclose(element, expected, atol=1e-15)

    def test_hermitian_psd_rank_one(self):
        rng = np.random.default_rng(5)
        for n in (0, 1, 2):
            alpha = complex(rng.normal(), rng.normal())
            element = cvn_povm_element(n, alpha, 10)
            assert np.abs(element - element.conj().T).max() <= 1e-12
            assert np.linalg.eigvalsh((element + element.conj().T) / 2).min() >= -1e-10
            singular_values = np.linalg.svd(element, compute_uv=False)
            assert singular_values[1] <= 1e-14 * singular_values[0]

    def test_trace_is_displaced_level_norm(self):
        alpha = 0.6 - 0.2j
        element = cvn_povm_element(1, alpha, 25)
        norm = sum(abs(displacement_element(j, 1, alpha)) ** 2 for j in range(26))
        assert np.trace(element).real == pytest.approx(norm / (2 * np.pi), rel=1e-12)

    def test_completeness_by_polar_quadrature(self):
        # composite-Simpson radial integral x uniform angular sum of the CV-1
        # element approximates the identity on low Fock levels; the outcome
        # measure is dR dtheta
        cutoff = 12
        n_radial, n_theta, r_cap = 480, 32, 36.0
        h = r_cap / n_radial
        simpson = np.ones(n_radial + 1)
        simpson[1:-1:2] = 4.0
        simpson[2:-1:2] = 2.0
        simpson *= h / 3.0
        thetas = 2 * np.pi * np.arange(n_theta) / n_theta
        total = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
        for r_value, w_r in zip(np.arange(n_radial + 1) * h, simpson):
            # columns v[:, k] = <j|D(alpha_k)|1>: the element at alpha_k is
            # v v^+ / (2 pi), weighted by w_r * 2 pi / n_theta
            alphas = math.sqrt(r_value) * np.exp(1j * thetas)
            v = np.array([displacement_element(j, 1, alphas) for j in range(cutoff + 1)])
            total += (v @ v.conj().T) * (w_r / n_theta)
        element = cvn_povm_element(1, alphas[5], cutoff)
        np.testing.assert_allclose(element, np.outer(v[:, 5], v[:, 5].conj()) / (2 * np.pi),
                                   rtol=0, atol=1e-15)
        levels = cutoff // 2 + 1
        np.testing.assert_allclose(total[:levels, :levels], np.eye(levels), atol=1e-4)

    def test_cutoff_must_cover_ancilla(self):
        with pytest.raises(ValueError):
            cvn_povm_element(3, 0.1, 2)

    def test_array_of_alphas_gives_the_stack_of_elements(self):
        alphas = np.array([[0.0, 0.6 - 0.2j, -1.1j], [2.0, 0.3 + 0.3j, -0.05]])
        for n in (0, 1, 2):
            stack = cvn_povm_element(n, alphas, 8)
            assert stack.shape == (2, 3, 9, 9)
            for index in np.ndindex(alphas.shape):
                np.testing.assert_allclose(stack[index], cvn_povm_element(n, alphas[index], 8),
                                           rtol=0, atol=1e-15)


class TestDiscretizedPovm:
    def test_click_plus_no_click_is_identity(self):
        click, no_click = dprcv1_povm(0.2, 8)
        np.testing.assert_array_equal(
            click + no_click, np.eye(9).astype(complex)
        )

    def test_click_diagonal_is_g(self):
        click, _ = dprcv1_povm(0.37, 6)
        for k in range(7):
            assert click[k, k].real == pytest.approx(g_function(0.37, k), abs=1e-15)

    def test_small_threshold_series(self):
        t = 1e-3
        click, _ = dprcv1_povm(t, 4)
        assert click[1, 1].real == pytest.approx(
            t - 1.5 * t**2 + 7 / 6 * t**3, rel=1e-6
        )
        assert click[0, 0].real == pytest.approx(t**2 / 2 - t**3 / 3, rel=1e-6)

    def test_rejects_bad_threshold(self):
        for t in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                dprcv1_povm(t, 4)


class TestDetectorCurves:
    def test_origin(self):
        table = detector_curves(np.array([0.0]))
        assert table[0, 1] == 0.0 and table[0, 2] == 0.0

    def test_crossing_at_one(self):
        table = detector_curves(np.array([1.0]))
        assert abs(table[0, 1] - table[0, 2]) <= 1e-14
        assert table[0, 1] == pytest.approx(1 - 2 / math.e, abs=1e-15)

    def test_efficiency_dominates_below_one(self):
        t = np.linspace(0.01, 0.99, 99)
        table = detector_curves(t)
        assert np.all(table[:, 1] > table[:, 2])
        # the gap is e^{-t} t (1 - t)
        np.testing.assert_allclose(
            table[:, 1] - table[:, 2], np.exp(-t) * t * (1 - t), rtol=1e-10, atol=1e-15
        )

    def test_rejects_negative_grid(self):
        with pytest.raises(ValueError):
            detector_curves(np.array([-0.1, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="non-negative and finite"):
            detector_curves(np.array([0.5, bad]))

    def test_thresholds_where_the_exponential_underflows_give_one(self):
        # 1e200 squared overflows, and e^{-t} inf would be NaN
        table = detector_curves([0, 1e200, 1.7e308])
        assert np.isfinite(table).all()
        assert table[1:, 1:].tolist() == [[1.0, 1.0], [1.0, 1.0]]
        assert detector_efficiency(math.inf) == dark_count_probability(math.inf) == 1.0


class TestCompleteness:
    def test_ancilla_one_low_levels(self):
        residuals = prcv_completeness_residual(1, 5, 50.0)
        assert residuals.max() <= 1e-8

    def test_heterodyne_poisson_tail(self):
        residuals = prcv_completeness_residual(0, 5, 50.0)
        assert residuals.max() <= 1e-8

    def test_residual_decreases_with_cutoff_radius(self):
        near = prcv_completeness_residual(1, 3, 14.0)
        far = prcv_completeness_residual(1, 3, 40.0)
        assert far.max() <= near.max()
        assert prcv_completeness_residual(1, 1, 200.0)[1] <= 1e-12
