"""Tests for the seeded samplers: determinism, exactness, cross-consistency."""

import itertools
import math
import time
import tracemalloc
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from cvboson import sampler as sampler_module
from cvboson.distribution import distribution_table
from cvboson.errors import SIZE_LIMITS, GuardLimitError
from cvboson.fock import haar_unitary
from cvboson.povm import prcv_povm_diag
from cvboson.sampler import (
    _inverse_cdf_draw,
    _invert_click_cdf,
    _thread_count,
    sample_cv1,
    sample_dprcv1,
    sample_fock,
    sample_prcv1,
)
from cvboson.special import detector_efficiency, g_function


def chi_square_pvalue(counts, expected):
    """Chi-square p-value with low-expectation cells pooled (exp >= 5)."""
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    order = np.argsort(expected)[::-1]
    counts, expected = counts[order], expected[order]
    pooled_c, pooled_e = [], []
    spill_c = spill_e = 0.0
    for c, e in zip(counts, expected):
        if e >= 5:
            pooled_c.append(c)
            pooled_e.append(e)
        else:
            spill_c += c
            spill_e += e
    if spill_e > 0:
        pooled_c.append(spill_c)
        pooled_e.append(spill_e)
    pooled_c = np.asarray(pooled_c)
    pooled_e = np.asarray(pooled_e)
    pooled_e *= pooled_c.sum() / pooled_e.sum()
    statistic = ((pooled_c - pooled_e) ** 2 / pooled_e).sum()
    dof = len(pooled_c) - 1
    return stats.chi2.sf(statistic, dof) if dof > 0 else 1.0


def kuiper_pvalue(values):
    """Kuiper test of uniformity on [0, 1) (asymptotic tail probability)."""
    x = np.sort(np.asarray(values))
    n = x.size
    grid = np.arange(1, n + 1) / n
    v = (grid - x).max() + (x - (grid - 1 / n)).max()
    lam = (math.sqrt(n) + 0.155 + 0.24 / math.sqrt(n)) * v
    total = 0.0
    for j in range(1, 12):
        total += (4 * j**2 * lam**2 - 1) * math.exp(-2 * j**2 * lam**2)
    return min(1.0, 2 * total)


class TestDeterminism:
    def test_identical_batches_for_fixed_seed(self):
        u = haar_unitary(4, 2)
        two_mode = haar_unitary(2, 3)
        for sampler, args in [
            (sample_fock, (u, 2, 500, 11)),
            (sample_dprcv1, (u, 2, 0.1, 500, 11)),
            (sample_prcv1, (u, 2, 200, 11)),
            (sample_cv1, (two_mode, 1, 50, 11)),
        ]:
            first = sampler(*args)
            second = sampler(*args)
            assert np.array_equal(first.outcomes, second.outcomes)
            assert len(first.outcomes) == args[-2]
            assert first.seed == 11

    def test_thread_count_does_not_change_output(self):
        u = haar_unitary(4, 5)
        for threads in (2, 3, 7):
            serial = sample_dprcv1(u, 2, 0.05, 2000, 9, threads=1)
            parallel = sample_dprcv1(u, 2, 0.05, 2000, 9, threads=threads)
            assert np.array_equal(serial.outcomes, parallel.outcomes)
        assert np.array_equal(
            sample_fock(u, 2, 1000, 1).outcomes,
            sample_fock(u, 2, 1000, 1, threads=4).outcomes,
        )
        assert np.array_equal(
            sample_prcv1(u, 2, 400, 1).outcomes,
            sample_prcv1(u, 2, 400, 1, threads=4).outcomes,
        )
        base = haar_unitary(2, 3)
        assert np.array_equal(
            sample_cv1(base, 1, 80, 1).outcomes,
            sample_cv1(base, 1, 80, 1, threads=4).outcomes,
        )

    def test_chunking_beyond_cpu_count_does_not_change_output(self, monkeypatch):
        # the thread cap would fold 3 and 7 threads into the CPU count here
        monkeypatch.setattr(sampler_module.os, "cpu_count", lambda: 8)
        u = haar_unitary(4, 5)
        serial = sample_dprcv1(u, 2, 0.05, 700, 9)
        for threads in (3, 7):
            assert _thread_count(threads, 700) == threads
            parallel = sample_dprcv1(u, 2, 0.05, 700, 9, threads=threads)
            assert np.array_equal(serial.outcomes, parallel.outcomes)

    def test_prefix_property_of_shot_streams(self):
        u = haar_unitary(3, 8)
        long = sample_dprcv1(u, 2, 0.1, 300, 21)
        short = sample_dprcv1(u, 2, 0.1, 120, 21)
        assert np.array_equal(long.outcomes[:120], short.outcomes)


class TestFockSampler:
    def test_identity_network_is_deterministic_pattern(self):
        batch = sample_fock(np.eye(4), 2, 200, 3)
        assert np.all(batch.outcomes == np.array([1, 1, 0, 0]))

    def test_hong_ou_mandel_bunching(self):
        bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        batch = sample_fock(bs, 2, 5000, 17)
        rows = set(map(tuple, batch.outcomes))
        assert rows <= {(2, 0), (0, 2)}
        frac = np.mean([tuple(r) == (2, 0) for r in batch.outcomes])
        assert abs(frac - 0.5) < 5 * math.sqrt(0.25 / 5000)

    def test_guard(self):
        with pytest.raises(GuardLimitError):
            sample_fock(haar_unitary(11, 0), 2, 10, 0)


class TestDprcvSampler:
    def test_single_mode_click_rate_matches_efficiency(self):
        t = 0.1
        batch = sample_dprcv1(np.eye(1), 1, t, 100_000, 5)
        rate = batch.outcomes.mean()
        eta = detector_efficiency(t)  # = 0.08611420778368084 at t = 0.1
        assert eta == pytest.approx(0.08611420778368084, abs=1e-15)
        assert abs(rate - eta) <= 3 * math.sqrt(eta * (1 - eta) / 100_000)

    def test_large_threshold_all_click(self):
        batch = sample_dprcv1(haar_unitary(3, 1), 2, 25.0, 2000, 13)
        frac_all = np.mean(batch.outcomes.sum(axis=1) == 3)
        assert frac_all > 0.99

    def test_total_variation_against_exact_table(self):
        u = haar_unitary(5, 41)
        probs = distribution_table(u, 2, 0.3).probabilities()
        batch = sample_dprcv1(u, 2, 0.3, 100_000, 19)
        # table index of each outcome row: mode 0 is the high-order bit
        index = batch.outcomes @ (1 << np.arange(batch.modes - 1, -1, -1))
        tv = 0.5 * np.abs(np.bincount(index, minlength=probs.size) / 100_000 - probs).sum()
        assert tv <= 0.01

    def test_guard(self):
        with pytest.raises(GuardLimitError):
            sample_dprcv1(haar_unitary(13, 0), 2, 0.1, 10, 0)


class TestPrcvSampler:
    def test_radii_non_negative(self):
        batch = sample_prcv1(haar_unitary(3, 3), 2, 2000, 23)
        assert np.all(batch.outcomes >= 0)

    def test_single_mode_histogram_matches_density(self):
        # one photon into one mode: R ~ e^{-R}(1-R)^2, cell masses from G
        batch = sample_prcv1(np.eye(1), 1, 100_000, 29)
        radii = batch.outcomes[:, 0]
        edges = np.linspace(0, 8, 25)
        counts, _ = np.histogram(radii, bins=edges)
        cdf = np.array([g_function(e, 1) for e in edges])
        expected = np.diff(cdf) * radii.size
        # the overflow cell catches the tail
        counts = np.append(counts, (radii >= 8).sum())
        expected = np.append(expected, (1 - cdf[-1]) * radii.size)
        assert chi_square_pvalue(counts, expected) > 0.001

    def test_click_cell_fraction_matches_click_probability(self):
        u = haar_unitary(3, 14)
        t = 0.25
        batch = sample_prcv1(u, 2, 40_000, 31)
        clicks = (batch.outcomes <= t).astype(int)
        target = (1, 1, 0)
        frac = np.mean((clicks == np.array(target)).all(axis=1))
        from cvboson.distribution import prob_dprcv

        exact = prob_dprcv(u, target, t, 2)
        assert abs(frac - exact) <= 3 * math.sqrt(exact * (1 - exact) / 40_000)

    def test_coarse_graining_matches_dprcv_sampler(self):
        u = haar_unitary(3, 27)
        t = 0.4
        radial = sample_prcv1(u, 2, 30_000, 37)
        coarse = (radial.outcomes <= t).astype(int)
        direct = sample_dprcv1(u, 2, t, 30_000, 38)
        keys = list(itertools.product((0, 1), repeat=3))
        count_a = [np.sum((coarse == np.array(k)).all(axis=1)) for k in keys]
        count_b = [np.sum((direct.outcomes == np.array(k)).all(axis=1)) for k in keys]
        table = np.array([count_a, count_b], dtype=float)
        table = table[:, table.sum(axis=0) > 0]
        result = stats.chi2_contingency(table)
        assert result.pvalue > 0.001


class TestCvSampler:
    def test_radius_histogram_matches_radial_density(self):
        batch = sample_cv1(np.eye(1), 1, 50_000, 43)
        radii = np.abs(batch.outcomes[:, 0]) ** 2
        edges = np.linspace(0, 8, 17)
        counts, _ = np.histogram(radii, bins=edges)
        cdf = np.array([g_function(e, 1) for e in edges])
        expected = np.diff(cdf) * radii.size
        counts = np.append(counts, (radii >= 8).sum())
        expected = np.append(expected, (1 - cdf[-1]) * radii.size)
        assert chi_square_pvalue(counts, expected) > 0.001

    def test_phase_uniform_for_rotation_invariant_state(self):
        batch = sample_cv1(np.eye(1), 1, 5000, 47)
        phases = np.angle(batch.outcomes[:, 0]) / (2 * np.pi) + 0.5
        assert kuiper_pvalue(phases) > 0.001

    def test_radial_marginal_consistent_with_prcv_sampler(self):
        cv = sample_cv1(np.eye(1), 1, 20_000, 53)
        radial = sample_prcv1(np.eye(1), 1, 20_000, 54)
        edges = np.concatenate([np.linspace(0, 8, 17), [np.inf]])
        count_a, _ = np.histogram(np.abs(cv.outcomes[:, 0]) ** 2, bins=edges)
        count_b, _ = np.histogram(radial.outcomes[:, 0], bins=edges)
        table = np.array([count_a, count_b], dtype=float)
        table = table[:, table.sum(axis=0) > 0]
        assert stats.chi2_contingency(table).pvalue > 0.001

    def test_multimode_conditional_sampling_click_fractions(self):
        # joint click-region fractions must match the exact click table
        u = haar_unitary(2, 35)
        t = 0.5
        batch = sample_cv1(u, 1, 4000, 59)
        clicks = (np.abs(batch.outcomes) ** 2 <= t).astype(int)
        from cvboson.distribution import prob_dprcv

        for target in itertools.product((0, 1), repeat=2):
            frac = np.mean((clicks == np.array(target)).all(axis=1))
            exact = prob_dprcv(u, target, t, 1)
            margin = 4 * math.sqrt(exact * (1 - exact) / 4000)
            assert abs(frac - exact) <= margin

    def test_first_mode_weights_stay_small(self):
        # the first mode's weights are one per Fock level, and the response
        # walks its shots in blocks: held for all 20 000 shots at once, the
        # conditional tensors peak at 52 MB here, and grow with the shot count
        for shots in (2, 20_000):
            tracemalloc.start()
            try:
                sample_cv1(haar_unitary(4, 3), 3, shots, 1).outcomes
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 40e6, shots

    def test_guard(self):
        with pytest.raises(GuardLimitError):
            sample_cv1(haar_unitary(5, 0), 1, 10, 0)


_PREFIX_CASES = {
    "fock": (sample_fock, (haar_unitary(4, 2), 2)),
    "dprcv1": (sample_dprcv1, (haar_unitary(4, 2), 2, 0.1)),
    "prcv1": (sample_prcv1, (haar_unitary(3, 4), 2)),
    "cv1": (sample_cv1, (haar_unitary(3, 6), 2)),
}


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(sorted(_PREFIX_CASES)),
    sizes=st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, n))),
    threads=st.tuples(st.integers(1, 4), st.integers(1, 4)),
    block=st.integers(1, 5),
    seed=st.integers(0, 2**64 - 1),
)
def test_prefix_is_independent_of_threads_and_blocks(kind, sizes, threads, block, seed):
    # the first k shots of an n-shot run equal a k-shot run, however each run
    # is split over threads and into blocks of `block` shots (the cv1 case
    # holds (N+1)^M = 27 values of conditional tensor per shot)
    sampler, args = _PREFIX_CASES[kind]
    shots, prefix = sizes
    with mock.patch.object(sampler_module.os, "cpu_count", lambda: 8), mock.patch.object(
        sampler_module, "_CV1_BLOCK_VALUES", 27 * block
    ), mock.patch.object(sampler_module, "_BLOCK_SHOTS", block):
        full = sampler(*args, shots, seed, threads=threads[0]).outcomes
        head = sampler(*args, prefix, seed, threads=threads[1]).outcomes
    assert np.array_equal(full[:prefix], head)


_WEIGHT = st.one_of(
    st.just(0.0), st.floats(1e-300, 1e2), st.integers(-300, 2).map(lambda e: 10.0**e)
)
_UNIFORM = st.one_of(st.sampled_from([0.0, 1 - 2**-53]), st.floats(0.0, 1.0, exclude_max=True))


@settings(max_examples=200, deadline=None)
@given(
    weights=st.lists(_WEIGHT, min_size=1, max_size=30).filter(lambda w: sum(w) > 0),
    u=st.lists(_UNIFORM, min_size=1, max_size=20),
)
def test_inverse_cdf_draw_lands_in_its_cdf_step(weights, u):
    # index i is drawn only if cdf[i-1] <= u * cdf[-1] < cdf[i], so never at a zero weight
    cdf = np.cumsum(weights)
    u = np.array(u)
    idx = _inverse_cdf_draw(cdf, u)
    assert np.all(np.array(weights)[idx] > 0)
    assert np.all(np.concatenate(([0.0], cdf))[idx] <= u * cdf[-1])
    assert np.all(u * cdf[-1] < cdf[idx])


def test_invert_click_cdf_roundtrip():
    for level in range(4):
        u = np.linspace(0.001, 0.999, 57)
        radii = _invert_click_cdf(u, level)
        np.testing.assert_allclose(g_function(radii, level), u, atol=2e-15)


_RESPONSE_UNIFORMS = np.concatenate(
    [
        np.linspace(0.01, 0.99, 33),
        [0.0, 1e-300, 1e-15, 1e-9, 1e-4, 0.5, 1 - 1e-4, 1 - 1e-9, 1 - 1e-15, 1 - 2**-53],
    ]
)


@pytest.mark.parametrize("level", range(5))
def test_radius_response_residual_is_at_rounding_level(level):
    radii = _invert_click_cdf(_RESPONSE_UNIFORMS, level)
    assert np.all(np.abs(g_function(radii, level) - _RESPONSE_UNIFORMS) <= 2e-15)


def _root_at_30_digits(u, level, start):
    """R solving the three-gamma definition G(R, k) = u at 30 digits."""
    with mpmath.workdps(30):
        def miss(r):
            gamma = lambda a: mpmath.gammainc(a, 0, r)  # noqa: E731
            if level == 0:
                return gamma(2) - u
            value = level**2 * gamma(level) - 2 * level * gamma(level + 1) + gamma(level + 2)
            return value / mpmath.factorial(level) - u

        return float(mpmath.findroot(miss, mpmath.mpf(start)))


@pytest.mark.parametrize("level", range(5))
def test_radius_response_matches_mpmath_roots(level):
    # where the level density at the root is small, float G is flat over a
    # radius range wider than 1e-12, so only well-conditioned roots are compared
    u = np.linspace(0.02, 0.98, 9)
    radii = _invert_click_cdf(u, level)
    conditioned = prcv_povm_diag(1, radii, level) >= 1e-3
    assert conditioned.sum() >= 6
    for target, radius in zip(u[conditioned], radii[conditioned]):
        assert abs(radius - _root_at_30_digits(target, level, radius)) <= 1e-12


def test_radius_chunks_give_the_values_of_single_calls(monkeypatch):
    rng = np.random.default_rng(8)
    u = np.concatenate([rng.random(60), [0.0, 1 - 2**-53]])
    levels = rng.integers(0, 5, u.size)
    monkeypatch.setattr(sampler_module, "_RADIUS_CHUNK", 5)
    batch = _invert_click_cdf(u, levels)
    single = [_invert_click_cdf(u[i : i + 1], levels[i])[0] for i in range(u.size)]
    assert np.array_equal(batch, single)


def test_thread_count_is_capped_by_cpus_and_shots(monkeypatch):
    monkeypatch.setattr(sampler_module.os, "cpu_count", lambda: 4)
    assert _thread_count(10**12, 10**9) == 4
    assert _thread_count(10**12, 3) == 3
    assert _thread_count(2, 10**9) == 2
    assert _thread_count(0, 100) == 1
    assert _thread_count(-5, 100) == 1
    assert _thread_count(8, 0) == 1
    monkeypatch.setattr(sampler_module.os, "cpu_count", lambda: None)
    assert _thread_count(10**12, 10**9) == 1


@pytest.mark.parametrize(
    "sampler,args",
    [
        (sample_fock, (2, -1, 0)),
        (sample_dprcv1, (2, 0.1, -1, 0)),
        (sample_prcv1, (2, -1, 0)),
        (sample_cv1, (1, -1, 0)),
    ],
)
def test_negative_shots_rejected(sampler, args):
    with pytest.raises(ValueError, match="shots must be >= 0"):
        sampler(haar_unitary(3, 1), *args)


@pytest.mark.parametrize("t", [math.inf, math.nan, 0.0])
def test_dprcv1_threshold_must_be_positive_and_finite(t):
    with pytest.raises(ValueError, match="positive and finite"):
        sample_dprcv1(haar_unitary(3, 1), 1, t, 10, 0)


@pytest.mark.parametrize("shots", [2.5, 2.0, "3", None])
def test_non_integer_shots_rejected(shots):
    with pytest.raises(ValueError, match="shots must be an integer"):
        sample_fock(haar_unitary(3, 1), 2, shots, 0)


@pytest.mark.parametrize("threads", [0, -3, 2.5, 2.0, "2", None])
@pytest.mark.parametrize(
    "sampler,args",
    [
        (sample_fock, (2, 10, 0)),
        (sample_dprcv1, (2, 0.1, 10, 0)),
        (sample_prcv1, (2, 10, 0)),
        (sample_cv1, (1, 10, 0)),
    ],
)
def test_threads_must_be_a_positive_integer(sampler, args, threads):
    with pytest.raises(ValueError, match="threads must be a positive integer"):
        sampler(haar_unitary(3, 1), *args, threads=threads)


def test_outcomes_beyond_size_limit_fail_before_drawing(monkeypatch):
    monkeypatch.setitem(SIZE_LIMITS, "sample outcome values", 3 * 1000)
    u = haar_unitary(3, 1)
    assert sample_dprcv1(u, 2, 0.1, 1000, 0).outcomes.shape == (1000, 3)

    def no_draws(*args):
        raise AssertionError("drew shots past the outcome size limit")

    monkeypatch.setattr(sampler_module, "shot_uniforms", no_draws)
    batch = sample_dprcv1(u, 2, 0.1, 1001, 0)
    with pytest.raises(GuardLimitError, match="sample outcome values"):
        batch.outcomes
    with pytest.raises(AssertionError):
        next(batch.blocks())


def test_one_thread_draws_on_the_calling_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("built a thread pool for one thread")

    monkeypatch.setattr(sampler_module, "ThreadPoolExecutor", no_pool)
    monkeypatch.setattr(sampler_module, "_BLOCK_SHOTS", 7)
    monkeypatch.setattr(sampler_module.os, "cpu_count", lambda: 1)
    u = haar_unitary(3, 1)
    for batch in (
        sample_fock(u, 2, 50, 0, threads=4),
        sample_dprcv1(u, 2, 0.1, 50, 0),
        sample_prcv1(u, 2, 50, 0),
        sample_cv1(u, 1, 50, 0, threads=1),
    ):
        assert [first for first, _ in batch.blocks()] == list(range(0, 50, 7))
        assert batch.outcomes.shape == (50, 3)


def test_pool_draws_the_next_window_while_the_caller_holds_one(monkeypatch):
    # with 2 threads and 10-shot blocks a window is 20 shots: while the caller
    # holds block 0, window 1 (shots 20-39) is drawn and window 2 is not
    monkeypatch.setattr(sampler_module.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(sampler_module, "_BLOCK_SHOTS", 10)
    drawn = []
    uniforms = sampler_module.shot_uniforms

    def recorded(seed, shots, per_shot, first):
        drawn.append(first)
        return uniforms(seed, shots, per_shot, first)

    monkeypatch.setattr(sampler_module, "shot_uniforms", recorded)
    blocks = sample_fock(haar_unitary(3, 1), 2, 100, 0, threads=2).blocks()
    assert next(blocks)[0] == 0
    deadline = time.monotonic() + 10
    while len(drawn) < 4 and time.monotonic() < deadline:
        time.sleep(0.001)
    assert sorted(drawn) == [0, 10, 20, 30]
    assert [first for first, _ in blocks] == list(range(10, 100, 10))
    assert sorted(drawn) == list(range(0, 100, 10))


def test_zero_shots_give_empty_batches():
    u = haar_unitary(3, 1)
    assert sample_fock(u, 2, 0, 0).outcomes.shape == (0, 3)
    assert sample_dprcv1(u, 2, 0.1, 0, 0).outcomes.shape == (0, 3)
    assert sample_prcv1(u, 2, 0, 0).outcomes.shape == (0, 3)
    assert sample_cv1(u, 1, 0, 0).outcomes.shape == (0, 3)
