import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ectshape.rng import SplitMix64, derive_seed

_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15

# canonical splitmix64 outputs for seed 0
SEED0_FIRST3 = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)


def test_seed0_reference_sequence():
    g = SplitMix64(0)
    assert tuple(g.next_u64() for _ in range(3)) == SEED0_FIRST3


def test_same_seed_same_stream():
    a, b = SplitMix64(987654321), SplitMix64(987654321)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_uniform_matches_u64_mapping():
    assert SplitMix64(0).uniform() == (SEED0_FIRST3[0] >> 11) * 2.0**-53


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_uniform_in_unit_interval(seed):
    g = SplitMix64(seed)
    for _ in range(5):
        assert 0.0 <= g.uniform() < 1.0


def test_uniform_in_range():
    g = SplitMix64(3)
    for _ in range(100):
        v = g.uniform_in(-0.5, 0.5)
        assert -0.5 <= v < 0.5


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=1, max_value=1000))
def test_randbelow_bounds(seed, n):
    g = SplitMix64(seed)
    assert 0 <= g.randbelow(n) < n


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)


@given(st.lists(st.integers(), max_size=40), st.integers(min_value=0, max_value=2**32))
def test_shuffle_is_permutation(items, seed):
    shuffled = list(items)
    SplitMix64(seed).shuffle(shuffled)
    assert sorted(shuffled) == sorted(items)


def test_shuffle_deterministic():
    a = list(range(30))
    b = list(range(30))
    SplitMix64(11).shuffle(a)
    SplitMix64(11).shuffle(b)
    assert a == b
    c = list(range(30))
    SplitMix64(12).shuffle(c)
    assert a != c  # 30! makes a collision essentially impossible


def test_normal_moments():
    g = SplitMix64(2024)
    draws = [g.normal() for _ in range(4000)]
    mean = sum(draws) / len(draws)
    var = sum((d - mean) ** 2 for d in draws) / len(draws)
    assert abs(mean) < 0.06
    assert abs(var - 1.0) < 0.1
    assert all(math.isfinite(d) for d in draws)


def test_normal_consumes_exactly_two_draws():
    g = SplitMix64(5)
    g.normal()
    ref = SplitMix64(5)
    ref.next_u64()
    ref.next_u64()
    assert g.next_u64() == ref.next_u64()


def test_normal_location_scale():
    a = SplitMix64(7).normal()
    b = SplitMix64(7).normal(mu=10.0, sigma=2.0)
    assert b == pytest.approx(10.0 + 2.0 * a)


def test_derive_seed_deterministic():
    assert derive_seed(42, 3) == derive_seed(42, 3)
    streams = {derive_seed(42, s) for s in range(50)}
    assert len(streams) == 50
    assert derive_seed(41, 3) != derive_seed(42, 3)


def test_derive_seed_in_range():
    for s in range(10):
        assert 0 <= derive_seed(123, s) < 2**64


# --- block draws -------------------------------------------------------------

def scalar_shuffle(rng, seq):
    """The Fisher-Yates loop one randbelow at a time."""
    for i in range(len(seq) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        seq[i], seq[j] = seq[j], seq[i]


def _unxorshift(y, shift):
    x = y
    for _ in range(64 // shift + 1):
        x = y ^ (x >> shift)
    return x


def state_before_output(out):
    """A state whose next next_u64() is out: the finalizer run backwards."""
    z = _unxorshift(out, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 2**64)) & _MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 2**64)) & _MASK64
    z = _unxorshift(z, 30)
    return (z - _GAMMA) & _MASK64


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 5])
@pytest.mark.parametrize("m", [0, 1, 1000])
def test_block_equals_scalar_draws(seed, m):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    draws = block._block(m)
    assert draws.dtype == np.uint64 and draws.shape == (m,)
    assert draws.tolist() == [scalar.next_u64() for _ in range(m)]
    assert block._state == scalar._state
    assert block.next_u64() == scalar.next_u64()


@pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 216])
@pytest.mark.parametrize("as_array", [False, True])
def test_block_shuffle_equals_scalar_fisher_yates(n, as_array):
    for seed in (0, 7, 2**64 - 5, 123456789):
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        items = np.arange(n) * 10 if as_array else [f"r{i}" for i in range(n)]
        expected = list(items)
        block.shuffle(items)
        scalar_shuffle(scalar, expected)
        assert list(items) == expected
        assert block._state == scalar._state


def test_state_before_output_inverts_the_finalizer():
    for out in (0, 1, 2**63, 2**64 - 1, SEED0_FIRST3[1]):
        assert SplitMix64(state_before_output(out)).next_u64() == out


@pytest.mark.parametrize("n", [3, 17])
@pytest.mark.parametrize("as_array", [False, True])
def test_shuffle_falls_back_when_a_draw_is_rejected(n, as_array):
    # 2**64 % 3 == 1, so randbelow(3) rejects 2**64 - 1; bound 3 is the
    # shuffle's (n - 2)-th draw
    seed = (state_before_output(_MASK64) - (n - 3) * _GAMMA) & _MASK64
    probe = SplitMix64(seed)
    for _ in range(n - 3):
        probe.next_u64()
    assert probe.next_u64() == _MASK64
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    items = np.arange(n) if as_array else list(range(n))
    expected = list(range(n))
    block.shuffle(items)
    scalar_shuffle(scalar, expected)
    assert list(items) == expected
    assert block._state == scalar._state
    # the rejection cost randbelow one extra draw
    assert block._state == (seed + n * _GAMMA) & _MASK64


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 5])
def test_normals_equal_scalar_normal_bits(seed):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block.normals(2000, mu=0.0, sigma=1.0)
    want = np.array([scalar.normal() for _ in range(2000)])
    assert got.tobytes() == want.tobytes()
    assert block._state == scalar._state
    got = block.normals(300, mu=-1.5, sigma=0.25)
    want = np.array([scalar.normal(-1.5, 0.25) for _ in range(300)])
    assert got.tobytes() == want.tobytes()
    assert block.normals(0).shape == (0,)


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 5])
def test_uniforms_in_equal_scalar_uniform_in_bits(seed):
    block, scalar = SplitMix64(seed), SplitMix64(seed)
    got = block.uniforms_in(-0.5, 0.5, 1000)
    want = np.array([scalar.uniform_in(-0.5, 0.5) for _ in range(1000)])
    assert got.tobytes() == want.tobytes()
    assert block._state == scalar._state
