"""Counter-based random streams for reproducible, order-independent sampling.

All randomness in the package comes from Philox-4x32 with 10 rounds, keyed by
the user seed. Each (seed, stream, index) triple maps to a fixed 64-bit
variate, so shot i of a sampling run depends only on (seed, i) and parallel
generation reproduces serial output exactly.

Stream layout (documented so results can be reproduced elsewhere):

* key   = (seed & 0xFFFFFFFF, (seed >> 32) & 0xFFFFFFFF)
* block = Philox4x32-10 counter words
  (block_index & 0xFFFFFFFF, block_index >> 32, stream & 0xFFFFFFFF, stream >> 32)
* each 128-bit output block yields two 64-bit variates
  v0 = w0 | (w1 << 32) and v1 = w2 | (w3 << 32); uniform j of a stream is
  variate j % 2 of block j // 2, mapped to [0, 1) as (v >> 11) * 2**-53.
* shot_uniforms reads uniforms 0 .. per_shot-1 of streams first_shot,
  first_shot+1, ...; samplers use stream = shot index, and the
  complex-Gaussian stream used for unitary generation is stream 2**64 - 1,
  consumed in row-major entry order, one Box-Muller pair of uniforms per
  matrix entry.
* per shot of an M-mode sampler, uniform 0 picks the table index by inverse
  CDF; fock and dprcv1 read uniform 0 only, and uniforms 1..M are the prcv1
  radii of modes 0..M-1. cv1 reads 3M uniforms: 3j, 3j+1 and 3j+2 are mode
  j's Fock level, radius and angle (uniform 0 is mode 0's level).
"""

import numpy as np

_M0 = np.uint64(0xD2511F53)
_M1 = np.uint64(0xCD9E8D57)
_W0 = np.uint64(0x9E3779B9)
_W1 = np.uint64(0xBB67AE85)
_MASK32 = np.uint64(0xFFFFFFFF)
_ROUNDS = 10

#: stream id reserved for the complex-Gaussian (unitary generation) stream
GAUSSIAN_STREAM = 0xFFFFFFFFFFFFFFFF


def _as_seed(seed):
    """Reduce any integer seed to its 64-bit value (any seed is valid)."""
    return int(seed) % (1 << 64)


def philox4x32(c0, c1, c2, c3, k0, k1):
    """Philox-4x32, 10 rounds, vectorized over counter arrays.

    Inputs are uint64 arrays (or scalars) holding 32-bit words; returns the
    four 32-bit output words of each block.
    """
    c0 = np.asarray(c0, dtype=np.uint64)
    c1 = np.asarray(c1, dtype=np.uint64)
    c2 = np.asarray(c2, dtype=np.uint64)
    c3 = np.asarray(c3, dtype=np.uint64)
    k0 = np.uint64(k0)
    k1 = np.uint64(k1)
    for _ in range(_ROUNDS):
        p0 = c0 * _M0  # 32x32 bit product, exact in uint64
        p1 = c2 * _M1
        c0, c1, c2, c3 = (
            (p1 >> np.uint64(32)) ^ c1 ^ k0,
            p1 & _MASK32,
            (p0 >> np.uint64(32)) ^ c3 ^ k1,
            p0 & _MASK32,
        )
        k0 = (k0 + _W0) & _MASK32
        k1 = (k1 + _W1) & _MASK32
    return c0, c1, c2, c3


def _blocks_to_uniforms(w0, w1, w2, w3):
    """Two [0,1) doubles per 128-bit block, interleaved (v0 of block 0, v1 of block 0, ...)."""
    v0 = w0 | (w1 << np.uint64(32))
    v1 = w2 | (w3 << np.uint64(32))
    out = np.empty(2 * v0.size, dtype=np.uint64)
    out[0::2] = v0.ravel()
    out[1::2] = v1.ravel()
    return (out >> np.uint64(11)).astype(np.float64) * (2.0 ** -53)


def shot_uniforms(seed, shots, per_shot, first_shot=0):
    """(shots, per_shot) uniforms; row i depends only on (seed, first_shot + i)."""
    if shots == 0:
        return np.empty((0, per_shot))
    seed = _as_seed(seed)
    n_blocks = (per_shot + 1) // 2
    streams = np.arange(first_shot, first_shot + shots, dtype=np.uint64)
    blocks = np.arange(n_blocks, dtype=np.uint64)
    c0 = np.broadcast_to(blocks & _MASK32, (shots, n_blocks))
    c1 = np.broadcast_to(blocks >> np.uint64(32), (shots, n_blocks))
    c2 = np.broadcast_to((streams & _MASK32)[:, None], (shots, n_blocks))
    c3 = np.broadcast_to((streams >> np.uint64(32))[:, None], (shots, n_blocks))
    w = philox4x32(c0, c1, c2, c3, seed & 0xFFFFFFFF, seed >> 32)
    u = _blocks_to_uniforms(*w).reshape(shots, 2 * n_blocks)
    return u[:, :per_shot]


def gaussian_matrix(seed, rows, cols):
    """Complex standard-normal matrix from the documented Gaussian stream.

    Entry (r, c) consumes uniforms (2e, 2e+1) of the Gaussian stream, where
    e = r * cols + c (row-major), converted by one Box-Muller transform:
    z = sqrt(-2 ln(1 - u1)) * (cos(2 pi u2) + i sin(2 pi u2)).
    """
    n = rows * cols
    u = shot_uniforms(seed, 1, 2 * n, GAUSSIAN_STREAM)[0]
    u1, u2 = u[0::2], u[1::2]
    r = np.sqrt(-2.0 * np.log1p(-u1))
    ang = 2.0 * np.pi * u2
    z = r * np.cos(ang) + 1j * r * np.sin(ang)
    return z.reshape(rows, cols)
