"""Tests for the counter-based random streams."""

import numpy as np

from cvboson.rng import (
    GAUSSIAN_STREAM,
    gaussian_matrix,
    philox4x32,
    shot_uniforms,
)

PHILOX_M0 = 0xD2511F53
PHILOX_M1 = 0xCD9E8D57
PHILOX_W0 = 0x9E3779B9
PHILOX_W1 = 0xBB67AE85


def philox4x32_scalar(counter, key):
    """Independent scalar reference for one Philox-4x32-10 block."""
    c = list(counter)
    k = list(key)
    for _ in range(10):
        p0 = c[0] * PHILOX_M0
        p1 = c[2] * PHILOX_M1
        c = [
            ((p1 >> 32) ^ c[1] ^ k[0]) & 0xFFFFFFFF,
            p1 & 0xFFFFFFFF,
            ((p0 >> 32) ^ c[3] ^ k[1]) & 0xFFFFFFFF,
            p0 & 0xFFFFFFFF,
        ]
        k[0] = (k[0] + PHILOX_W0) & 0xFFFFFFFF
        k[1] = (k[1] + PHILOX_W1) & 0xFFFFFFFF
    return c


def test_philox_matches_scalar_reference():
    rng = np.random.default_rng(1)
    for _ in range(50):
        counter = [int(x) for x in rng.integers(0, 1 << 32, size=4)]
        key = [int(x) for x in rng.integers(0, 1 << 32, size=2)]
        expected = philox4x32_scalar(counter, key)
        got = philox4x32(*(np.uint64(c) for c in counter), key[0], key[1])
        assert [int(w) for w in got] == expected


def test_shot_uniforms_deterministic_and_keyed():
    u = shot_uniforms(123, 1, 40, 5)
    assert np.array_equal(u, shot_uniforms(123, 1, 40, 5))
    # a shorter row is a prefix of a longer one, odd widths included
    assert np.array_equal(u[:, :17], shot_uniforms(123, 1, 17, 5))
    assert not np.array_equal(u, shot_uniforms(124, 1, 40, 5))
    assert not np.array_equal(u, shot_uniforms(123, 1, 40, 6))


def test_shot_rows_depend_only_on_seed_and_shot():
    block = shot_uniforms(77, 10, 5)
    for i in range(10):
        row = shot_uniforms(77, 1, 5, first_shot=i)
        assert np.array_equal(block[i], row[0])
    # chunked generation reassembles the serial batch
    left = shot_uniforms(77, 4, 5, first_shot=0)
    right = shot_uniforms(77, 6, 5, first_shot=4)
    assert np.array_equal(block, np.vstack([left, right]))


def test_uniforms_statistics():
    u = shot_uniforms(2024, 1, 200_000)
    assert np.all(u >= 0) and np.all(u < 1)
    assert abs(u.mean() - 0.5) < 5 * np.sqrt(1 / 12 / u.size)
    assert abs(u.var() - 1 / 12) < 5e-3


def test_negative_and_large_seeds_are_valid():
    a = shot_uniforms(-1, 2, 8)
    b = shot_uniforms((1 << 64) - 1, 2, 8)
    assert np.array_equal(a, b)  # same 64-bit value


def test_gaussian_matrix_moments_and_determinism():
    z = gaussian_matrix(42, 200, 200)
    assert np.array_equal(z, gaussian_matrix(42, 200, 200))
    n = z.size
    assert abs(z.mean()) < 5 * np.sqrt(2 / n)
    assert abs((np.abs(z) ** 2).mean() - 2.0) < 5 * 2 / np.sqrt(n)
    # row-major consumption: the first entry uses the first uniform pair
    u = shot_uniforms(42, 1, 2, GAUSSIAN_STREAM)[0]
    r = np.sqrt(-2 * np.log1p(-u[0]))
    expected = r * np.cos(2 * np.pi * u[1]) + 1j * r * np.sin(2 * np.pi * u[1])
    assert z[0, 0] == expected
