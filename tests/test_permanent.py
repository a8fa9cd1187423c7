"""Tests for the permanent engines (naive oracle vs Gray-code Ryser)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cvboson.errors import GuardLimitError
from cvboson.permanent import permanent_naive, permanent_ryser, permanent_ryser_batch


def test_one_by_one():
    assert permanent_naive([[1]]) == 1
    assert permanent_ryser([[3.5j]]) == 3.5j


def test_two_by_two_definition():
    assert permanent_naive([[1, 2], [3, 4]]) == 10  # 1*4 + 2*3
    assert permanent_ryser([[1, 2], [3, 4]]) == 10


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7])
def test_identity(n):
    assert permanent_naive(np.eye(n)) == pytest.approx(1)
    assert permanent_ryser(np.eye(n)) == pytest.approx(1)


@pytest.mark.parametrize("n", range(1, 11))
def test_all_ones_is_factorial(n):
    assert permanent_ryser(np.ones((n, n))) == float(math.factorial(n))


def test_empty_matrix_is_one():
    assert permanent_naive(np.zeros((0, 0))) == 1
    assert permanent_ryser(np.zeros((0, 0))) == 1


def test_ryser_matches_naive_on_random_complex():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        expected = permanent_naive(a)
        got = permanent_ryser(a)
        assert abs(got - expected) <= 1e-9 * abs(expected)


def test_ryser_matches_naive_at_seven():
    rng = np.random.default_rng(19)
    for _ in range(10):
        a = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        expected = permanent_naive(a)
        assert abs(permanent_ryser(a) - expected) <= 1e-9 * abs(expected)


def test_block_structure_cancellation_is_exact():
    # permanent of a block-diagonal matrix factorizes; three balanced
    # beamsplitter blocks give zero, a worst case for subset-sum cancellation
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    blocks = np.zeros((6, 6))
    for b in range(3):
        blocks[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = bs
    assert permanent_ryser(blocks) == 0
    assert permanent_naive(blocks) == 0


def test_row_and_column_permutation_invariance():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    reference = permanent_ryser(a)
    for _ in range(10):
        rp = rng.permutation(5)
        cp = rng.permutation(5)
        assert permanent_ryser(a[rp][:, cp]) == pytest.approx(reference, rel=1e-10)


def test_row_scaling():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    c = 0.37 - 2.1j
    scaled = a.copy()
    scaled[2] *= c
    assert permanent_ryser(scaled) == pytest.approx(c * permanent_ryser(a), rel=1e-12)


def test_near_cancellation_stays_accurate():
    # Hong-Ou-Mandel-like matrix: massive cancellation across subset terms
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    assert permanent_ryser(bs) == 0


def test_size_guards():
    with pytest.raises(GuardLimitError):
        permanent_naive(np.eye(11))
    with pytest.raises(GuardLimitError):
        permanent_ryser(np.eye(31))


def test_non_square_rejected():
    with pytest.raises(ValueError):
        permanent_naive(np.ones((2, 3)))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_batch_ryser_matches_scalar_and_naive(n, count, seed):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    got = permanent_ryser_batch(stack)
    assert got.shape == (count,)
    for a, value in zip(stack, got):
        assert value == permanent_ryser(a)  # same operations in the same order
        # every Ryser and naive term is bounded by the product of absolute row
        # sums, which stays a valid scale when the permanent itself cancels
        scale = np.prod(np.abs(a).sum(axis=1))
        assert abs(value - permanent_naive(a)) <= 1e-14 * scale


def test_batch_ryser_exact_cases():
    bs = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    ones = [np.ones((n, n)) for n in range(1, 8)]
    for a in ones:
        assert permanent_ryser_batch(a[None])[0] == math.factorial(a.shape[0])
    assert permanent_ryser_batch(np.stack([bs, np.eye(2)])).tolist() == [0, 1]
    assert permanent_ryser_batch(np.zeros((3, 0, 0))).tolist() == [1, 1, 1]
    assert permanent_ryser_batch(np.zeros((0, 4, 4))).shape == (0,)


def test_batch_ryser_validates_shape_and_size():
    with pytest.raises(ValueError):
        permanent_ryser_batch(np.ones((2, 3)))
    with pytest.raises(ValueError):
        permanent_ryser_batch(np.ones((2, 3, 4)))
    with pytest.raises(GuardLimitError):
        permanent_ryser_batch(np.ones((1, 31, 31)))
