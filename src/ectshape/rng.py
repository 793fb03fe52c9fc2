"""Deterministic 64-bit random generator shared by every stochastic step.

All randomness in the library (fold shuffles, weight initialization,
synthetic noise) flows through :class:`SplitMix64` so that runs are
reproducible bit-for-bit from a single integer seed. The integer stream,
and every draw made from it by exact arithmetic, is the same on every
platform; normal draws use libm's log and cos and are not. The generator
is the splitmix64 sequence; the first three outputs for seed 0 are
0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, which the test
suite pins.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_STREAM_SALT = 0xD2B74407B1CE6E93  # odd constant decorrelating derived streams

# uint64 operands for the block form of next_u64; keeping every operand a
# uint64 keeps every result one (a Python int may promote to float64)
_U_GAMMA = np.uint64(_GAMMA)
_U_MUL1 = np.uint64(0xBF58476D1CE4E5B9)
_U_MUL2 = np.uint64(0x94D049BB133111EB)
_U_ZERO, _U_ONE = np.uint64(0), np.uint64(1)
_U_11, _U_27, _U_30, _U_31 = (np.uint64(s) for s in (11, 27, 30, 31))
_TWO_PI = 2.0 * math.pi


class SplitMix64:
    """splitmix64 stream with the few sampling helpers the library needs."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def _block(self, m: int) -> np.ndarray:
        """The next m outputs of next_u64 as a uint64 array.

        Output i is the finalizer applied to state + (i + 1) * gamma, so a
        block is computed at once and holds the scalar stream's exact bits.
        """
        start = self._state
        self._state = (start + m * _GAMMA) & _MASK64
        with np.errstate(over="ignore"):
            z = np.arange(1, m + 1, dtype=np.uint64)
            z *= _U_GAMMA
            z += np.uint64(start)
            z ^= z >> _U_30
            z *= _U_MUL1
            z ^= z >> _U_27
            z *= _U_MUL2
            z ^= z >> _U_31
        return z

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_in(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.uniform()

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % n

    def uniforms_in(self, lo: float, hi: float, m: int) -> np.ndarray:
        """m draws of uniform_in(lo, hi), bit for bit, as one array."""
        return lo + (hi - lo) * ((self._block(m) >> _U_11) * 2.0**-53)

    def shuffle(self, seq) -> None:
        """In-place Fisher-Yates shuffle of a list or a 1-d array.

        Takes one block of draws for the whole shuffle; only if one of them
        would be rejected by randbelow (odds about len(seq) / 2**64) is the
        shuffle redone one randbelow at a time, so the draws and the order
        are always those of the scalar loop.
        """
        n = len(seq)
        if n < 2:
            return
        start = self._state
        bounds = np.arange(n, 1, -1).astype(np.uint64)
        z = self._block(n - 1)
        with np.errstate(over="ignore"):
            # randbelow accepts r below 2**64 - rem, rem = 2**64 % bound
            rem = (_U_ZERO - bounds) % bounds
            accepted = ((rem == _U_ZERO) | (z < _U_ZERO - rem)).all()
        if accepted:
            picks = zip(range(n - 1, 0, -1), (z % bounds).tolist())
        else:
            self._state = start
            picks = ((i, self.randbelow(i + 1)) for i in range(n - 1, 0, -1))
        for i, j in picks:
            seq[i], seq[j] = seq[j], seq[i]

    def normal(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        """Gaussian draw via Box-Muller; consumes exactly two uniforms."""
        # u1 in (0, 1] so log never sees zero
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = self.uniform()
        z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
        return mu + sigma * z

    def normals(self, m: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """m draws of normal(mu, sigma), bit for bit, as one array.

        log and cos are math's, applied element by element: numpy's
        vectorised log rounds differently from libm on some inputs. The
        other operations (int to float, *, +, sqrt) are correctly rounded,
        so numpy gives the same bits as the scalar code.
        """
        z = self._block(2 * m).reshape(m, 2) >> _U_11
        u1 = (z[:, 0] + _U_ONE) * 2.0**-53
        u2 = z[:, 1] * 2.0**-53
        log_u1 = np.fromiter(map(math.log, u1.tolist()), np.float64, m)
        cos_u2 = np.fromiter(map(math.cos, (_TWO_PI * u2).tolist()), np.float64, m)
        return mu + sigma * (np.sqrt(-2.0 * log_u1) * cos_u2)


def derive_seed(seed: int, stream: int) -> int:
    """Fixed mixing of a master seed into an independent stream seed.

    Used to hand distinct deterministic seeds to fold assignment and to
    each per-fold classifier without correlating their sequences.
    """
    g = SplitMix64((seed ^ (stream * _STREAM_SALT)) & _MASK64)
    return g.next_u64()
