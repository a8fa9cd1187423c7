"""Tests for mode/Fock-space operations, with independent oracles.

Oracles used here:
* permutation-sum amplitude: explicit itertools sum over the submatrix,
  bypassing the permanent module entirely;
* dense state construction: apply the transformed creation operators photon
  by photon, tracking bosonic normalization, and read amplitudes off the
  resulting state;
* matrix exponential of the displacement generator for <n|D(alpha)|k>.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.linalg import expm

from cvboson import fock
from cvboson.errors import InvalidPatternError, InvariantViolation
from cvboson.fock import (
    check_photons,
    check_unitary,
    displacement_element,
    enumerate_fock_patterns,
    fock_amplitude,
    haar_unitary,
    submatrix_with_multiplicity,
)


def perm_sum_amplitude(u, pattern):
    """Oracle: brute-force permutation sum with multinomial normalization."""
    cols = [j for j, nj in enumerate(pattern) for _ in range(nj)]
    n = len(cols)
    total = 0j
    for sigma in itertools.permutations(range(n)):
        term = 1 + 0j
        for i in range(n):
            term *= u[i, cols[sigma[i]]]
        total += term
    return total / math.sqrt(math.prod(math.factorial(nj) for nj in pattern))


def dense_state_amplitudes(u, photons):
    """Oracle: build the output state photon by photon in the full Fock basis."""
    modes = u.shape[0]
    state = {(0,) * modes: 1 + 0j}
    for j in range(photons):
        new = {}
        for pattern, amp in state.items():
            for i in range(modes):
                lifted = list(pattern)
                lifted[i] += 1
                key = tuple(lifted)
                new[key] = new.get(key, 0j) + amp * u[j, i] * math.sqrt(pattern[i] + 1)
        state = new
    return state


def displacement_dense(alpha, cutoff):
    """Oracle: expm of the displacement generator alpha a+ - alpha* a."""
    lower = np.diag(np.sqrt(np.arange(1, cutoff + 1)), k=1)  # annihilation
    return expm(alpha * lower.conj().T - np.conj(alpha) * lower)


class TestHaarUnitary:
    def test_single_mode_is_a_phase(self):
        u = haar_unitary(1, 99)
        assert abs(abs(u[0, 0]) - 1) <= 1e-12

    def test_deterministic_in_seed(self):
        assert np.array_equal(haar_unitary(4, 5), haar_unitary(4, 5))
        assert not np.array_equal(haar_unitary(4, 5), haar_unitary(4, 6))

    @pytest.mark.parametrize("modes,seed", [(2, 0), (3, 1), (8, 123), (16, 2**63)])
    def test_unitarity(self, modes, seed):
        u = haar_unitary(modes, seed)
        defect = np.abs(u.conj().T @ u - np.eye(modes)).max()
        assert defect <= 1e-12

    def test_first_moment_matches_haar(self):
        # E|U_11|^2 = 1/M for Haar; Monte Carlo over seeds
        modes, n_seeds = 8, 10_000
        values = np.array([abs(haar_unitary(modes, s)[0, 0]) ** 2 for s in range(n_seeds)])
        se = values.std(ddof=1) / math.sqrt(n_seeds)
        assert abs(values.mean() - 1 / modes) <= 5 * se

    def test_second_moment_matches_haar(self):
        # |U_11|^2 ~ Beta(1, M-1) under Haar, so E|U_11|^4 = 2/(M(M+1))
        modes, n_seeds = 6, 4000
        values = np.array(
            [abs(haar_unitary(modes, s)[0, 0]) ** 4 for s in range(n_seeds)]
        )
        se = values.std(ddof=1) / math.sqrt(n_seeds)
        assert abs(values.mean() - 2 / (modes * (modes + 1))) <= 5 * se

    def test_rejects_bad_modes(self):
        with pytest.raises(ValueError):
            haar_unitary(0, 1)

    def test_nan_draw_fails_the_defect_check(self, monkeypatch):
        nan_matrix = lambda seed, rows, cols: np.full((rows, cols), np.nan + 0j)  # noqa: E731
        monkeypatch.setattr(fock, "gaussian_matrix", nan_matrix)
        with np.errstate(invalid="ignore"), pytest.raises(InvariantViolation, match="defect nan"):
            haar_unitary(3, 1)


def test_check_unitary_rejects_nan_entries():
    u = np.eye(2, dtype=complex)
    u[0, 0] = np.nan
    with pytest.raises(ValueError, match="not unitary"):
        check_unitary(u)


@pytest.mark.parametrize("photons", [-1, 5])
def test_check_photons_rejects_counts_outside_zero_to_modes(photons):
    with pytest.raises(InvalidPatternError, match="photons must be >= 0 and <= M"):
        check_photons(photons, 4)
    assert [check_photons(n, 4) for n in range(5)] == [0, 1, 2, 3, 4]


class TestPatternEnumeration:
    def test_two_modes_one_photon_order(self):
        assert enumerate_fock_patterns(2, 1).tolist() == [[1, 0], [0, 1]]

    def test_read_only_int_array_cached_per_size(self):
        patterns = enumerate_fock_patterns(4, 2)
        assert patterns.dtype == int and patterns.shape == (10, 4)
        assert not patterns.flags.writeable
        assert enumerate_fock_patterns(4, 2) is patterns
        assert enumerate_fock_patterns(3, 0).tolist() == [[0, 0, 0]]

    def test_counts(self):
        assert len(enumerate_fock_patterns(3, 2)) == 6
        assert len(enumerate_fock_patterns(6, 3)) == 56  # C(8, 5)

    def test_all_patterns_sum_to_photons(self):
        patterns = enumerate_fock_patterns(5, 3)
        assert all(sum(p) == 3 for p in patterns.tolist())
        assert len(set(map(tuple, patterns.tolist()))) == len(patterns)

    def test_order_puts_earlier_mode_occupation_first(self):
        patterns = enumerate_fock_patterns(3, 2)
        assert patterns[0].tolist() == [2, 0, 0]
        assert patterns[-1].tolist() == [0, 0, 2]
        # the exact contraction folds rows sharing a prefix, so the whole order counts
        for modes, photons in ((5, 3), (7, 4), (40, 3)):
            patterns = enumerate_fock_patterns(modes, photons).tolist()
            assert len(patterns) == math.comb(modes + photons - 1, photons)
            assert patterns == sorted(patterns, reverse=True)
            assert len(set(map(tuple, patterns))) == len(patterns)

    def test_cache_is_bounded(self):
        assert enumerate_fock_patterns.cache_info().maxsize is not None


class TestSubmatrix:
    def test_identity_collision_free(self):
        u = np.eye(5)
        sub = submatrix_with_multiplicity(u, (1, 1, 1, 0, 0))
        assert np.array_equal(sub, np.eye(3))

    def test_column_multiplicity(self):
        u = haar_unitary(2, 3)
        sub = submatrix_with_multiplicity(u, (2, 0))
        expected = np.array([[u[0, 0], u[0, 0]], [u[1, 0], u[1, 0]]])
        assert np.array_equal(sub, expected)

    def test_column_selection(self):
        u = haar_unitary(3, 4)
        sub = submatrix_with_multiplicity(u, (0, 1, 1))
        assert np.array_equal(sub, u[:2][:, [1, 2]])

    def test_pattern_overflow_rejected(self):
        u = haar_unitary(2, 3)
        with pytest.raises(InvalidPatternError):
            submatrix_with_multiplicity(u, (2, 1))  # 3 photons, 2 rows


class TestFockAmplitude:
    def test_identity_network(self):
        u = np.eye(4)
        assert fock_amplitude(u, (1, 1, 1, 0)) == pytest.approx(1)

    def test_hong_ou_mandel_suppression(self):
        bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
        assert fock_amplitude(bs, (1, 1)) == 0

    def test_matches_permutation_sum_oracle(self):
        u = haar_unitary(3, 21)
        for pattern in enumerate_fock_patterns(3, 2):
            expected = perm_sum_amplitude(u, pattern)
            assert fock_amplitude(u, pattern) == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("modes,photons,seed", [(2, 2, 0), (3, 3, 5), (4, 2, 9), (4, 3, 12)])
    def test_matches_dense_state_oracle(self, modes, photons, seed):
        u = haar_unitary(modes, seed)
        dense = dense_state_amplitudes(u, photons)
        for pattern in map(tuple, enumerate_fock_patterns(modes, photons).tolist()):
            assert fock_amplitude(u, pattern) == pytest.approx(
                dense.get(pattern, 0j), abs=1e-10
            )

    def test_normalization_over_patterns(self):
        for seed in range(100):
            modes = 3 + seed % 4  # 3..6
            photons = 1 + seed % 3  # 1..3
            u = haar_unitary(modes, seed)
            total = sum(
                abs(fock_amplitude(u, p)) ** 2
                for p in enumerate_fock_patterns(modes, photons)
            )
            assert total == pytest.approx(1, abs=1e-10)


class TestDisplacementElement:
    def test_zero_displacement_is_identity(self):
        for n in range(4):
            for k in range(4):
                assert displacement_element(n, k, 0) == (1 if n == k else 0)

    def test_vacuum_overlap(self):
        alpha = 0.7 - 0.3j
        assert displacement_element(0, 0, alpha) == pytest.approx(
            math.exp(-abs(alpha) ** 2 / 2)
        )

    def test_one_one_closed_form(self):
        alpha = 0.4 + 0.9j
        a2 = abs(alpha) ** 2
        assert displacement_element(1, 1, alpha) == pytest.approx(
            math.exp(-a2 / 2) * (1 - a2)
        )

    def test_matches_matrix_exponential(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            alpha = complex(rng.normal(), rng.normal()) * 0.8
            dense = displacement_dense(alpha, 40)
            for n in range(5):
                for k in range(5):
                    assert displacement_element(n, k, alpha) == pytest.approx(
                        dense[n, k], abs=1e-12
                    )

    def test_adjoint_relation(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            alpha = complex(rng.normal(), rng.normal())
            n, k = rng.integers(0, 6, size=2)
            lhs = displacement_element(int(n), int(k), alpha)
            rhs = np.conj(displacement_element(int(k), int(n), -alpha))
            assert lhs == pytest.approx(rhs, abs=1e-12)


def test_check_unitary_rejects_non_unitary():
    with pytest.raises(ValueError):
        check_unitary(np.ones((2, 2)))
