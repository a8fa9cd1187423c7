"""Tests for the exact output distributions.

Oracles: per-mode adaptive quadrature of the radial density (independent of
the recurrence-based click response), full 2-D quadrature for one small case,
phase-grid averaging of the CV density, and Richardson extrapolation for the
small-threshold limit.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad, quad

from cvboson import distribution
from cvboson.distribution import (
    DistributionTable,
    amplitude_table,
    click_index,
    click_rows,
    density_cv,
    density_prcv,
    distribution_table,
    leading_order,
    prcv_cell_integral,
    prob_dprcv,
    radial_tail_cutoff,
)
from cvboson.errors import SIZE_LIMITS, GuardLimitError, InvalidPatternError
from cvboson.fock import (
    displacement_element,
    enumerate_fock_patterns,
    fock_amplitude,
    haar_unitary,
)
from cvboson.permanent import permanent_naive
from cvboson.povm import prcv_povm_diag
from cvboson.special import detector_efficiency, g_function


class TestDensityCv:
    def test_all_zero_outcomes_give_squared_permanent(self):
        u = haar_unitary(3, 5)
        expected = abs(fock_amplitude(u, (1, 1, 1))) ** 2 / (2 * np.pi) ** 3
        assert density_cv(u, [0, 0, 0], 3) == pytest.approx(expected, rel=1e-12)

    def test_vacuum_single_mode(self):
        alpha = 0.8 - 0.3j
        expected = math.exp(-abs(alpha) ** 2) * abs(alpha) ** 2 / (2 * np.pi)
        assert density_cv(np.eye(1), [alpha], 0) == pytest.approx(expected, rel=1e-12)

    def test_partial_zero_outcomes_factorize(self):
        u = haar_unitary(4, 8)
        alphas = np.array([0, 0, 0.6 + 0.1j, -0.2 + 0.9j])
        perm_sq = abs(fock_amplitude(u, (1, 1, 0, 0))) ** 2
        tail = math.prod(
            math.exp(-abs(a) ** 2) * abs(a) ** 2 for a in alphas[2:]
        )
        expected = perm_sq * tail / (2 * np.pi) ** 4
        assert density_cv(u, alphas, 2) == pytest.approx(expected, rel=1e-10)

    def test_zero_outcome_selection_rule(self):
        # with alpha_1 = 0 only patterns with n_1 = 1 contribute
        u = haar_unitary(3, 13)
        alphas = np.array([0, 0.4 + 0.2j, -0.7j])
        full = density_cv(u, alphas, 2)
        from cvboson.fock import displacement_element

        restricted = 0j
        for pattern in enumerate_fock_patterns(3, 2):
            if pattern[0] != 1:
                continue
            amp = fock_amplitude(u, pattern)
            term = amp
            for a, nj in zip(alphas, pattern):
                term *= np.conj(displacement_element(nj, 1, a))
            restricted += term
        assert full == pytest.approx(abs(restricted) ** 2 / (2 * np.pi) ** 3, rel=1e-12)

    def test_non_negative(self):
        rng = np.random.default_rng(4)
        u = haar_unitary(3, 17)
        for _ in range(25):
            alphas = rng.normal(size=3) + 1j * rng.normal(size=3)
            assert density_cv(u, alphas, 2) >= 0

    def test_guard(self):
        with pytest.raises(GuardLimitError):
            density_cv(haar_unitary(11, 0), np.zeros(11), 2)

    def test_stacked_outcomes_match_single_calls(self, monkeypatch):
        u = haar_unitary(3, 21)
        rng = np.random.default_rng(21)
        alphas = rng.normal(size=(4, 5, 3)) + 1j * rng.normal(size=(4, 5, 3))
        expected = [[density_cv(u, a, 2) for a in row] for row in alphas]
        tables = []
        monkeypatch.setattr(
            distribution,
            "amplitude_table",
            lambda *args: tables.append(args) or amplitude_table(*args),
        )
        stacked = density_cv(u, alphas, 2)
        assert stacked.shape == (4, 5) and len(tables) == 1
        np.testing.assert_array_equal(stacked, expected)
        with pytest.raises(ValueError):
            density_cv(u, alphas[..., :2], 2)


class TestDensityPrcv:
    def test_single_mode_closed_form(self):
        for big_r in (0.0, 0.3, 1.0, 4.2):
            expected = math.exp(-big_r) * (1 - big_r) ** 2
            assert density_prcv(np.eye(1), [big_r], 1) == pytest.approx(expected, rel=1e-12)

    def test_single_mode_normalization(self):
        value, _ = quad(lambda r: density_prcv(np.eye(1), [r], 1), 0, 60, limit=200)
        assert value == pytest.approx(1, abs=1e-9)

    def test_zero_radii_select_squared_permanent(self):
        # zeros on the first N modes leave |Per|^2 times e^{-R_j} R_j on the rest
        u = haar_unitary(4, 16)
        radii = np.array([0.0, 0.0, 0.9, 2.4])
        perm_sq = abs(fock_amplitude(u, (1, 1, 0, 0))) ** 2
        tail = math.prod(math.exp(-r) * r for r in radii[2:])
        assert density_prcv(u, radii, 2) == pytest.approx(perm_sq * tail, rel=1e-10)

    def test_nan_radius_rejected(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="radii must be non-negative"):
                density_prcv(haar_unitary(2, 6), [0.5, bad], 1)

    def test_two_mode_normalization_by_2d_quadrature(self):
        u = haar_unitary(2, 6)
        value, err = dblquad(
            lambda r2, r1: density_prcv(u, [r1, r2], 1),
            0,
            30,
            0,
            30,
            epsabs=1e-8,
            epsrel=1e-8,
        )
        assert value == pytest.approx(1, abs=max(1e-6, 5 * err))

    def test_equals_phase_average_of_cv_density(self):
        # averaging the CV density over per-mode phases gives the radial
        # density up to the (2 pi)^M phase volume
        u = haar_unitary(2, 9)
        radii = np.array([0.7, 2.1])
        n_grid = 32
        acc = 0.0
        for i in range(n_grid):
            for j in range(n_grid):
                alphas = np.sqrt(radii) * np.exp(
                    2j * np.pi * np.array([i, j]) / n_grid
                )
                acc += density_cv(u, alphas, 2)
        average = acc / n_grid**2
        expected = density_prcv(u, radii, 2) / (2 * np.pi) ** 2
        assert average == pytest.approx(expected, abs=1e-6 * expected)


class TestProbDprcv:
    def test_single_mode_click_is_efficiency(self):
        for t in (0.01, 0.3, 1.5):
            assert prob_dprcv(np.eye(1), (1,), t, 1) == pytest.approx(
                detector_efficiency(t), rel=1e-12
            )

    def test_hong_ou_mandel_coincidence(self):
        bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        for t in (0.07, 0.4):
            expected = g_function(t, 0) * g_function(t, 2)
            assert abs(prob_dprcv(bs, (1, 1), t, 2) - expected) <= 1e-12

    @pytest.mark.parametrize("modes,photons,seed", [(3, 2, 1), (5, 3, 2), (6, 3, 3)])
    def test_patterns_sum_to_one(self, modes, photons, seed):
        u = haar_unitary(modes, seed)
        total = sum(
            prob_dprcv(u, clicks, 0.05, photons)
            for clicks in itertools.product((0, 1), repeat=modes)
        )
        assert total == pytest.approx(1, abs=1e-10)

    def test_permutation_covariance(self):
        u = haar_unitary(4, 30)
        rng = np.random.default_rng(0)
        clicks = (1, 0, 1, 0)
        reference = prob_dprcv(u, clicks, 0.2, 2)
        for _ in range(5):
            sigma = rng.permutation(4)
            permuted = prob_dprcv(
                u[:, sigma], tuple(np.asarray(clicks)[sigma]), 0.2, 2
            )
            assert permuted == pytest.approx(reference, abs=1e-12)

    def test_click_entries_validated(self):
        with pytest.raises(InvalidPatternError):
            prob_dprcv(np.eye(2), (2, 0), 0.1, 2)


class TestDistributionTable:
    def test_residual_small_at_full_scale(self):
        table = distribution_table(haar_unitary(12, 5), 4, 0.02)
        assert isinstance(table, DistributionTable)
        assert table.normalization_residual <= 1e-10
        probs = table.probabilities()
        assert np.all(probs >= 0) and np.all(probs <= 1)

    def test_guard(self):
        with pytest.raises(GuardLimitError):
            distribution_table(haar_unitary(13, 0), 1, 0.1)

    @pytest.mark.parametrize(
        "modes,photons,seed,t",
        [(1, 1, 0, 0.3), (2, 2, 1, 0.05), (3, 1, 2, 1.5), (5, 3, 3, 0.01), (7, 4, 4, 0.2),
         (8, 3, 5, 0.02), (8, 4, 6, 0.6)],
    )
    def test_every_entry_matches_prob_dprcv(self, modes, photons, seed, t):
        u = haar_unitary(modes, seed)
        probs = distribution_table(u, photons, t).probabilities()
        assert probs.shape == (2**modes,)
        expected = np.array(
            [prob_dprcv(u, m, t, photons) for m in itertools.product((0, 1), repeat=modes)]
        )
        np.testing.assert_array_equal(probs, expected)

    def test_probability_array_is_read_only(self):
        probs = distribution_table(haar_unitary(3, 1), 2, 0.1).probabilities()
        with pytest.raises(ValueError):
            probs[0] = 1.0

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan, 0.0, -0.1])
    def test_non_finite_or_non_positive_threshold_rejected(self, t):
        u = haar_unitary(3, 1)
        with pytest.raises(ValueError, match="positive and finite"):
            distribution_table(u, 1, t)
        with pytest.raises(ValueError, match="positive and finite"):
            prob_dprcv(u, (1, 0, 0), t, 1)
        with pytest.raises(ValueError, match="positive and finite"):
            prob_dprcv(u, (1, 0, 0), np.array([0.1, t]), 1)


@pytest.mark.parametrize("modes", [1, 5, 12])
def test_click_row_codec_round_trips_every_index(modes):
    index = np.arange(2**modes)
    rows = click_rows(index, modes)
    assert rows.dtype == np.int64 and rows.shape == (2**modes, modes)
    expected = [format(i, f"0{modes}b") for i in range(2**modes)]
    assert ["".join(map(str, row)) for row in rows.tolist()] == expected
    np.testing.assert_array_equal(click_index(rows), index)
    assert click_index(rows > 0).tolist() == index.tolist()  # boolean rows too


class TestCellIntegralConsistency:
    @pytest.mark.parametrize(
        "modes,photons,clicks,seed",
        [(2, 1, (1, 0), 4), (2, 2, (1, 1), 5), (3, 2, (0, 1, 1), 6), (3, 3, (1, 1, 1), 7)],
    )
    def test_quadrature_route_matches_click_response(self, modes, photons, clicks, seed):
        u = haar_unitary(modes, seed)
        t = 0.3
        direct = prob_dprcv(u, clicks, t, photons)
        by_quadrature = prcv_cell_integral(u, clicks, t, photons)
        assert by_quadrature == pytest.approx(direct, abs=1e-6)

    @pytest.mark.parametrize("t", [math.nan, 0.0, math.inf, -0.5])
    def test_threshold_checked_first(self, t):
        # NaN and 0 gave 0.0, inf gave 1.0, and -0.5 failed on the radius check
        with pytest.raises(ValueError, match="threshold must be positive and finite"):
            prcv_cell_integral(haar_unitary(2, 4), (1, 0), t, 1)

    def test_full_2d_quadrature_single_case(self):
        u = haar_unitary(2, 11)
        t = 0.5
        direct = prob_dprcv(u, (1, 0), t, 1)
        value, err = dblquad(
            lambda r2, r1: density_prcv(u, [r1, r2], 1),
            0,
            t,  # r1 in the click cell
            t,
            35.0,  # r2 outside
            epsabs=1e-9,
            epsrel=1e-9,
        )
        assert value == pytest.approx(direct, abs=max(1e-6, 5 * err))


class TestLeadingOrder:
    def test_identity_network_leading_term(self):
        t = 1e-3
        leading, _ = leading_order(np.eye(3), (1, 1, 1), t)
        assert leading == pytest.approx(t**3, rel=1e-12)

    def test_richardson_limit_of_click_probability(self):
        u = haar_unitary(4, 19)
        clicks = (1, 1, 0, 0)
        perm_sq = abs(fock_amplitude(u, clicks)) ** 2
        ratios = {}
        for t in (1e-4, 1e-5):
            ratios[t] = prob_dprcv(u, clicks, t, 2) / t**2
        richardson = (10 * ratios[1e-5] - ratios[1e-4]) / 9
        assert richardson == pytest.approx(perm_sq, rel=1e-6)
        leading, _ = leading_order(u, clicks, 1e-5)
        assert leading == pytest.approx(perm_sq * 1e-10, rel=1e-12)

    def test_neighbor_mass_bounded_by_one(self):
        for seed in range(100):
            u = haar_unitary(5, seed)
            _, neighbor_mass = leading_order(u, (1, 1, 0, 0, 0), 1e-3)
            assert 0 <= neighbor_mass <= 1

    def test_neighbor_count_guarded_before_any_permanent(self, monkeypatch):
        monkeypatch.setitem(SIZE_LIMITS, "leading order neighbors", 3)

        def no_permanents(*args):
            raise AssertionError("a permanent was evaluated before the guard")

        monkeypatch.setattr(distribution, "permanent_ryser_batch", no_permanents)
        with pytest.raises(GuardLimitError, match="leading order neighbors"):
            leading_order(np.eye(4), (1, 1, 0, 0), 1e-3)  # 2 * 2 = 4 neighbors

    @pytest.mark.parametrize(
        "modes,photons,seed", [(2, 1, 0), (5, 2, 1), (8, 3, 2), (12, 4, 3), (20, 5, 4), (30, 6, 5)]
    )
    def test_batched_permanents_equal_scalar_amplitude_loop(self, modes, photons, seed):
        u = haar_unitary(modes, seed)
        clicks = [1] * photons + [0] * (modes - photons)
        np.random.default_rng(seed).shuffle(clicks)
        t = 1e-3
        expected_leading = abs(fock_amplitude(u, clicks)) ** 2 * t**photons
        expected_mass = 0.0
        for i in [j for j, m in enumerate(clicks) if m == 1]:
            for j in [j for j, m in enumerate(clicks) if m == 0]:
                swapped = list(clicks)
                swapped[i], swapped[j] = 0, 1
                expected_mass += abs(fock_amplitude(u, swapped)) ** 2
        assert leading_order(u, clicks, t) == (expected_leading, expected_mass)

    def test_no_clicks(self):
        assert leading_order(haar_unitary(3, 1), (0, 0, 0), 1e-3) == (1.0, 0.0)


def test_amplitude_table_normalized():
    occ, amps = amplitude_table(haar_unitary(5, 23), 3)
    assert occ.shape == (35, 5) and len(amps) == 35
    assert np.sum(np.abs(amps) ** 2) == pytest.approx(1, abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_batched_amplitudes_match_single_pattern_oracles(modes, photons, seed):
    photons = min(photons, modes)
    u = haar_unitary(modes, seed)
    occ, amps = amplitude_table(u, photons)
    assert occ.dtype == int and not occ.flags.writeable
    assert occ is enumerate_fock_patterns(modes, photons)  # collisions included
    patterns = tuple(map(tuple, occ.tolist()))
    for pattern, amp in zip(patterns, amps):
        expected = fock_amplitude(u, pattern)
        assert abs(amp - expected) <= 1e-14 * abs(expected)
        cols = [j for j, n in enumerate(pattern) for _ in range(n)]
        norm = math.sqrt(math.prod(math.factorial(n) for n in pattern))
        naive = permanent_naive(u[:photons][:, cols]) / norm
        # the naive sum rounds differently; amplitudes of a unitary are at most 1
        assert abs(amp - naive) <= 1e-14


def test_amplitude_table_rejects_negative_photons():
    with pytest.raises(InvalidPatternError, match="photons must be >= 0"):
        amplitude_table(haar_unitary(3, 0), -1)


def test_click_probability_beyond_recursion_depth():
    # 600 modes hold 600 one-photon patterns, inside the size guards; the
    # pattern enumeration must not recurse once per mode
    modes, t = 600, 0.1
    clicks = (1,) + (0,) * (modes - 1)
    expected = g_function(t, 1) * (1 - g_function(t, 0)) ** (modes - 1)
    got = prob_dprcv(np.eye(modes), clicks, t, 1)
    assert abs(got - expected) <= 1e-13 * expected


def test_amplitude_table_guard_precedes_enumeration(monkeypatch):
    # 10 photons in 30 modes have C(39, 10) ~ 6.4e8 occupation patterns
    monkeypatch.setattr(
        distribution, "enumerate_fock_patterns", lambda *args: pytest.fail("enumerated")
    )
    with pytest.raises(GuardLimitError, match="patterns"):
        amplitude_table(haar_unitary(30, 0), 10)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 6),
    st.integers(0, 3),
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(1e-4, 3.0), max_size=6),
    st.booleans(),
)
def test_array_thresholds_match_scalar_calls(modes, photons, seed, ts, column):
    photons = min(photons, modes)
    u = haar_unitary(modes, seed)
    clicks = tuple((seed >> j) & 1 for j in range(modes))
    t = np.array(ts).reshape((-1, 1) if column else -1)
    probs = prob_dprcv(u, clicks, t, photons)
    assert isinstance(probs, np.ndarray) and probs.shape == t.shape
    scalars = [prob_dprcv(u, clicks, x, photons) for x in ts]
    assert all(isinstance(p, float) for p in scalars)
    assert np.array_equal(probs.ravel(), scalars)


def test_prob_dprcv_contracts_thresholds_in_bounded_stacks(monkeypatch):
    # thresholds are contracted a bounded stack at a time, so memory does not
    # grow with the sweep's length, and stacking leaves every value unchanged
    stacks = []
    contract = distribution._contract
    monkeypatch.setattr(
        distribution,
        "_contract",
        lambda c, o, f: stacks.append(math.prod(f.shape[:-3]) * len(o)) or contract(c, o, f),
    )
    u, clicks = haar_unitary(4, 1), (1, 0, 1, 0)
    ts = np.geomspace(1e-3, 3.0, 15).reshape(3, 5)
    probs = prob_dprcv(u, clicks, ts, 2)
    scalars = [[prob_dprcv(u, clicks, x, 2) for x in row] for row in ts]
    np.testing.assert_array_equal(probs, scalars)
    assert stacks == [15 * 10] + [10] * 15  # 10 patterns: one stack, then the scalar calls
    # 35 patterns of 4 photons in 4 modes: 64 thresholds per stack
    monkeypatch.setattr(distribution, "_STACK_VALUES", 35 * 64)
    stacks.clear()
    ts = np.geomspace(1e-4, 5.0, 200)
    probs = prob_dprcv(u, clicks, ts, 4)
    assert stacks == [35 * 64] * 3 + [35 * 8]
    np.testing.assert_array_equal(probs, [prob_dprcv(u, clicks, x, 4) for x in ts])


def _fsum_pattern_sum(amps, weight, factor):
    """sum_n weight(amps[n]) prod_j factor(j, n_j), one pattern at a time, with
    the real and imaginary parts of the terms summed by math.fsum."""
    terms = []
    for pattern, amp in amps.items():
        term = complex(weight(amp))
        for j, n in enumerate(pattern):
            term *= factor(j, n)
        terms.append(term)
    return complex(math.fsum(z.real for z in terms), math.fsum(z.imag for z in terms))


@pytest.mark.parametrize(
    "modes,photons,seed", [(1, 1, 0), (2, 2, 1), (3, 2, 2), (4, 3, 3), (5, 3, 4), (6, 4, 5)]
)
def test_pattern_sums_match_fsum_reference(modes, photons, seed):
    u = haar_unitary(modes, seed)
    rng = np.random.default_rng(seed)
    alphas = rng.normal(size=modes) + 1j * rng.normal(size=modes)
    radii = np.abs(alphas) ** 2
    clicks = tuple(int(m) for m in rng.integers(0, 2, modes))
    t = 0.3

    patterns = map(tuple, enumerate_fock_patterns(modes, photons).tolist())
    amps = {p: fock_amplitude(u, p) for p in patterns}

    def close(got, expected):
        return abs(got - expected) <= 1e-14 * abs(expected)

    total = _fsum_pattern_sum(
        amps, lambda a: a, lambda j, n: np.conj(displacement_element(n, 1, alphas[j]))
    )
    assert close(density_cv(u, alphas, photons), abs(total) ** 2 / (2 * np.pi) ** modes)

    expected = _fsum_pattern_sum(
        amps, lambda a: abs(a) ** 2, lambda j, n: prcv_povm_diag(1, radii[j], n)
    )
    assert close(density_prcv(u, radii, photons), expected.real)

    # per-level cell masses by the same quadrature prcv_cell_integral runs
    def cell(n, click):
        lo, hi = (0.0, t) if click else (t, radial_tail_cutoff(n))
        return quad(
            lambda r: prcv_povm_diag(1, r, n), lo, hi, epsabs=1e-13, epsrel=1e-12, limit=200
        )[0]

    expected = _fsum_pattern_sum(amps, lambda a: abs(a) ** 2, lambda j, n: cell(n, clicks[j]))
    assert close(prcv_cell_integral(u, clicks, t, photons), expected.real)

    def click_prob(m, x):
        g = [g_function(x, n) for n in range(photons + 1)]
        return _fsum_pattern_sum(
            amps, lambda a: abs(a) ** 2, lambda j, n: g[n] if m[j] else 1.0 - g[n]
        ).real

    table = distribution_table(u, photons, t).probabilities()
    for m, prob in zip(itertools.product((0, 1), repeat=modes), table):
        assert close(prob, click_prob(m, t))
    ts = np.array([[0.01, 0.3], [1.0, 2.5]])
    for x, prob in zip(ts.flat, prob_dprcv(u, clicks, ts, photons).flat):
        assert close(prob, click_prob(clicks, x))
