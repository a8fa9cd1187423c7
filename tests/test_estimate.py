"""Tests for threshold discretization, deviation sweeps, the frequency
estimator, and the multiplicative-bound chain."""

import collections
import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from cvboson.distribution import prob_dprcv
from cvboson.estimate import (
    EstimateReport,
    build_estimate_report,
    deviation_sweep,
    estimate_perm_from_samples,
    mult_bound_check,
    t_from_bits,
)
from cvboson.errors import InvalidPatternError
from cvboson.fock import fock_amplitude, haar_unitary
from cvboson.sampler import sample_dprcv1, sample_fock


class TestThresholdFromBits:
    def test_values(self):
        assert t_from_bits(2) == pytest.approx(2 / 3, rel=1e-15)
        assert t_from_bits(11) == pytest.approx(2 / 2047, rel=1e-15)
        assert t_from_bits(11) == pytest.approx(9.77e-4, rel=1e-3)

    def test_one_bit_edge_case(self):
        assert t_from_bits(1) == 2.0

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            t_from_bits(0)

    def test_largest_word_size_gives_smallest_normal_float(self):
        assert t_from_bits(1023) == 2.2250738585072014e-308 == sys.float_info.min

    @pytest.mark.parametrize("bits", [1024, 10**12])
    def test_rejects_word_sizes_without_a_float_threshold(self, bits):
        # checked before 2^b is built, so a huge b costs nothing
        with pytest.raises(ValueError, match=r"integer in \[1, 1023\]"):
            t_from_bits(bits)


class TestDeviationSweep:
    def test_single_mode_linear_coefficient(self):
        # eta(t)/t - 1 = -(3/2) t + (7/6) t^2 + ...
        sweep = deviation_sweep(np.eye(1), 1, np.geomspace(1e-4, 1e-2, 8))
        assert sweep.linear_coeff == pytest.approx(-1.5, rel=0.01)
        assert not sweep.degenerate
        assert sweep.perm_sq_true == pytest.approx(1.0, abs=1e-14)

    def test_two_independent_modes_slopes_add(self):
        sweep = deviation_sweep(np.eye(2), 2, np.geomspace(1e-4, 1e-2, 8))
        assert sweep.linear_coeff == pytest.approx(-3.0, rel=0.02)

    def test_quadratic_bound_controls_residual(self):
        u = haar_unitary(6, 51)
        t_grid = np.geomspace(1e-3, 1e-2, 8)
        sweep = deviation_sweep(u, 3, t_grid)
        residual = np.abs(sweep.deviations - sweep.linear_coeff * sweep.t_values)
        assert np.all(residual <= sweep.quadratic_bound * sweep.t_values**2 + 1e-18)
        assert np.isfinite(sweep.quadratic_bound)

    def test_deviation_vanishes_linearly(self):
        # |P/t^N - perm_sq| <= C t with one C per network across the sweep
        for seed in range(20):
            modes = 3 + seed % 4
            photons = 1 + seed % 3
            u = haar_unitary(modes, 100 + seed)
            t_grid = np.geomspace(1e-4, 1e-2, 6)
            sweep = deviation_sweep(u, photons, t_grid)
            if sweep.degenerate:
                continue
            c = abs(sweep.linear_coeff) + sweep.quadratic_bound * t_grid.max()
            assert np.all(np.abs(sweep.deviations) <= c * t_grid + 1e-15)

    def test_degenerate_permanent_flagged(self):
        bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        # the (1,1) pattern has vanishing permanent; build a network whose
        # first-N-clicks pattern is that suppressed one
        sweep = deviation_sweep(bs, 2, np.geomspace(1e-3, 1e-2, 5))
        assert sweep.degenerate
        assert math.isnan(sweep.linear_coeff)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            deviation_sweep(np.eye(1), 1, [1e-3, 2e-3, 3e-3])  # too few
        with pytest.raises(ValueError):
            deviation_sweep(np.eye(1), 1, [0.2, 0.3, 0.4, 0.5])  # out of range
        with pytest.raises(ValueError, match="thresholds must lie in"):
            deviation_sweep(np.eye(1), 1, [1e-3, 2e-3, math.nan, 4e-3])

    @pytest.mark.parametrize("photons", [-1, 5])
    def test_photon_count_checked_before_the_target_pattern(self, photons):
        grid = np.geomspace(1e-4, 1e-2, 5)
        with pytest.raises(InvalidPatternError, match="photons must be >= 0 and <= M"):
            deviation_sweep(haar_unitary(4, 5), photons, grid)

    def test_one_amplitude_table_and_no_single_permanent(self, monkeypatch):
        calls = collections.Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "cvboson"]
        for name in ("amplitude_table", "fock_amplitude", "permanent_ryser"):
            for module in modules:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        u, grid = haar_unitary(5, 3), np.geomspace(1e-4, 1e-2, 6)
        sweep = deviation_sweep(u, 3, grid)
        assert calls == {"amplitude_table": 1}
        monkeypatch.undo()
        # the table row and the shared evaluator keep the separate calls' bits
        perm_sq = abs(fock_amplitude(u, (1, 1, 1, 0, 0))) ** 2
        assert sweep.perm_sq_true == perm_sq
        expected = prob_dprcv(u, (1, 1, 1, 0, 0), grid, 3) / grid**3 - perm_sq
        assert sweep.deviations.tolist() == expected.tolist()


class TestFrequencyEstimator:
    def test_single_mode_identity(self):
        t = 0.01
        batch = sample_dprcv1(np.eye(1), 1, t, 1_000_000, 61)
        estimate = estimate_perm_from_samples(batch, t, 1)
        exact = prob_dprcv(np.eye(1), (1,), t, 1) / t
        # independent closed form: (1 - e^{-t}(1 + t^2)) / t at t = 0.01
        assert exact == pytest.approx(0.985116126745703, abs=1e-12)
        assert abs(estimate.value - exact) <= 5 * estimate.stderr

    def test_suppressed_pattern_estimates_zero(self):
        bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        t = 0.01
        batch = sample_dprcv1(bs, 2, t, 100_000, 67)
        estimate = estimate_perm_from_samples(batch, t, 2)
        assert estimate.value == 0.0
        assert estimate.hits == 0
        assert estimate.one_sided_upper == pytest.approx(3.0 / 100_000 / t**2)

    def test_random_network_within_5_sigma(self):
        u = haar_unitary(4, 71)
        t = 0.01
        batch = sample_dprcv1(u, 2, t, 1_000_000, 73)
        estimate = estimate_perm_from_samples(batch, t, 2)
        exact = prob_dprcv(u, (1, 1, 0, 0), t, 2) / t**2
        assert abs(estimate.value - exact) <= 5 * estimate.stderr

    def test_error_shrinks_with_shots(self):
        u = haar_unitary(3, 95)  # squared permanent ~ 0.47, enough hits at 1e4 shots
        t = 0.05
        exact = prob_dprcv(u, (1, 1, 0), t, 2) / t**2
        previous_bound = None
        for shots in (10_000, 100_000, 1_000_000):
            batch = sample_dprcv1(u, 2, t, shots, 83)
            estimate = estimate_perm_from_samples(batch, t, 2)
            assert estimate.hits > 0
            assert abs(estimate.value - exact) <= 5 * estimate.stderr
            if previous_bound is not None:
                assert estimate.stderr < previous_bound
            previous_bound = estimate.stderr

    def test_threshold_mismatch_rejected(self):
        batch = sample_dprcv1(np.eye(1), 1, 0.01, 100, 3)
        with pytest.raises(ValueError, match="does not match"):
            estimate_perm_from_samples(batch, 0.02, 1)

    def test_non_dprcv1_batch_rejected(self):
        batch = sample_fock(np.eye(1), 1, 100, 3)
        with pytest.raises(ValueError, match="expected a dprcv1 batch"):
            estimate_perm_from_samples(batch, 0.01, 1)

    def test_empty_batch_rejected(self):
        batch = sample_dprcv1(haar_unitary(3, 1), 2, 0.1, 0, 1)
        with pytest.raises(ValueError, match="no shots"):
            estimate_perm_from_samples(batch, 0.1, 2)

    @pytest.mark.parametrize("photons", [-1, 5])
    def test_photon_count_checked_before_the_target_pattern(self, photons):
        batch = sample_dprcv1(haar_unitary(4, 5), 2, 0.1, 100, 1)
        with pytest.raises(InvalidPatternError, match="photons must be >= 0 and <= M"):
            estimate_perm_from_samples(batch, 0.1, photons)


class TestBoundChain:
    def test_zero_error_reduces_to_input_factor(self):
        check = mult_bound_check(0.5, 0.0, 0.25, 1.3, 0.5)
        assert check.applicable
        assert check.g_prime == 1.3  # exactly
        assert check.passed

    def test_worked_example(self):
        # perm_sq = L = 1, E = 1/4, g = 1.1: g' = 1.5 * 1.1 = 1.65
        inner_low, inner_high = 1.25 / 1.1, 1.25 * 1.1
        for p_tilde in np.linspace(inner_low * 1.001, inner_high * 0.999, 7):
            check = mult_bound_check(1.0, 0.25, 1.0, 1.1, p_tilde)
            assert check.applicable
            assert check.g_prime == pytest.approx(1.65, rel=1e-12)
            assert check.passed

    def test_fuzz_premise_satisfying_cases_never_violate(self):
        rng = np.random.default_rng(2718)
        for _ in range(10_000):
            lower = rng.uniform(0.01, 1.0)
            perm_sq = lower * rng.uniform(1.0, 10.0)
            error = rng.uniform(-0.499, 0.499) * lower
            g = 1.0 + rng.uniform(1e-6, 3.0)
            low = (perm_sq + error) / g
            high = (perm_sq + error) * g
            p_tilde = rng.uniform(low * (1 + 1e-12), high * (1 - 1e-12))
            check = mult_bound_check(perm_sq, error, lower, g, p_tilde)
            assert check.applicable
            assert check.passed, (perm_sq, error, lower, g, p_tilde)

    def test_large_error_ratio_not_applicable(self):
        rng = np.random.default_rng(31415)
        for _ in range(1000):
            lower = rng.uniform(0.01, 1.0)
            perm_sq = lower * rng.uniform(1.0, 4.0)
            error = (0.5 + rng.uniform(0, 2)) * lower * rng.choice([-1, 1])
            check = mult_bound_check(perm_sq, error, lower, 1.5, perm_sq)
            assert not check.applicable
            assert check.g_prime is None

    def test_preconditions_raise(self):
        with pytest.raises(ValueError):
            mult_bound_check(1.0, 0.0, 1.0, 1.0, 1.0)  # g must exceed 1
        with pytest.raises(ValueError):
            mult_bound_check(1.0, 0.0, 0.0, 1.1, 1.0)  # L must be positive
        with pytest.raises(ValueError):
            mult_bound_check(0.5, 0.0, 1.0, 1.1, 0.5)  # perm_sq below L


class TestEndToEndMultiplicativeEstimate:
    def test_sampled_frequency_multiplicatively_brackets_permanent(self):
        # full pipeline: sample clicks, estimate |Per|^2, measure the error
        # term exactly, and confirm the widened multiplicative bound holds
        u = haar_unitary(3, 95)  # squared permanent ~ 0.47: ~1e3 hits at 1e6 shots
        photons, t = 2, 0.05
        perm_sq = abs(fock_amplitude(u, (1, 1, 0))) ** 2
        exact_ratio = prob_dprcv(u, (1, 1, 0), t, photons) / t**photons
        error_term = exact_ratio - perm_sq  # everything beyond |Per|^2 at this t

        batch = sample_dprcv1(u, photons, t, 1_000_000, 73)
        estimate = estimate_perm_from_samples(batch, t, photons)
        assert estimate.hits > 500
        p_tilde = estimate.value

        lower_bound = 0.9 * perm_sq
        g = 1.1
        # premise: the estimator is multiplicatively close to the exact ratio
        assert exact_ratio / g < p_tilde < exact_ratio * g
        verdict = mult_bound_check(perm_sq, error_term, lower_bound, g, p_tilde)
        assert verdict.applicable and verdict.passed
        # the conclusion the chain exists to deliver
        assert perm_sq / verdict.g_prime < p_tilde < perm_sq * verdict.g_prime
        # widening stays modest because |E|/L ~ 0.14 at this threshold
        assert verdict.g_prime < 1.5


class TestEstimateReport:
    def test_fields_and_invariant(self):
        report = build_estimate_report(np.eye(1), 1, 1e-3, p_tilde=0.9985)
        assert report.perm_sq_true == pytest.approx(1.0, abs=1e-14)
        ratio = abs(report.error_term_E) / report.lower_bound_L
        assert report.effective_factor_g_prime == pytest.approx(
            (1 + 2 * ratio) * report.mult_factor_g, rel=1e-12
        )
        # the measured error term at t = 1e-3 is quadratically small
        assert abs(report.error_term_E) < 1e-4

    def test_json_round_trip_field_names(self):
        report = EstimateReport(1.0, 0.99, 1e-6, 0.5, 1.1, 1.1000044)
        payload = json.loads(json.dumps(dataclasses.asdict(report)))
        assert set(payload) == {
            "perm_sq_true",
            "perm_sq_estimate",
            "error_term_E",
            "lower_bound_L",
            "mult_factor_g",
            "effective_factor_g_prime",
        }
