import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palmroi.rng import _FIELD_BLOCK, SplitMix64, mix, normal_field, stream_floats, stream_u64

# Published SplitMix64 outputs for seed 0; matching them pins the exact
# finalizer constants and state increment.
SEED0_REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# Frozen digest of the first 256 outputs for seed 0 (little-endian uint64 bytes).
STREAM0_SHA256 = "3843faf2c6540306294b486fda136f53cc592319b024ecb30987d6340908063b"


def test_reference_vector_seed0():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_REFERENCE


def test_vectorized_stream_matches_scalar():
    for seed in (0, 1, 42, 2**63 + 11):
        rng = SplitMix64(seed)
        scalar = np.array([rng.next_u64() for _ in range(100)], dtype=np.uint64)
        assert (stream_u64(seed, 100) == scalar).all()


def test_stream_golden_hash():
    digest = hashlib.sha256(stream_u64(0, 256).tobytes()).hexdigest()
    assert digest == STREAM0_SHA256


def test_floats_in_unit_interval():
    f = stream_floats(123, 10000)
    assert (f >= 0.0).all() and (f < 1.0).all()
    rng = SplitMix64(123)
    assert np.allclose(f[:5], [rng.next_float() for _ in range(5)], rtol=0, atol=0)


def test_randint_bounds_and_determinism():
    rng = SplitMix64(9)
    draws = [rng.randint(-6, 6) for _ in range(2000)]
    assert min(draws) == -6 and max(draws) == 6
    replay = SplitMix64(9)
    assert draws == [replay.randint(-6, 6) for _ in range(2000)]


def test_mix_is_order_sensitive():
    assert mix(1, 2) != mix(2, 1)
    assert mix(1, 2) == mix(1, 2)
    assert mix(1) != mix(1, 0)


def test_shuffle_deterministic_permutation():
    items = list(range(20))
    a, b = items[:], items[:]
    SplitMix64(5).shuffle(a)
    SplitMix64(5).shuffle(b)
    assert a == b
    assert sorted(a) == items
    c = items[:]
    SplitMix64(6).shuffle(c)
    assert c != a


def test_normal_field_deterministic_and_plausible():
    f1 = normal_field(77, (50, 40), sigma=3.0)
    f2 = normal_field(77, (50, 40), sigma=3.0)
    assert (f1 == f2).all()
    assert abs(f1.mean()) < 0.2
    assert abs(f1.std() - 3.0) < 0.2
    # scalar Box-Muller pairs agree with the vectorized field (libm vs numpy
    # transcendentals may differ in the last ulp, hence the tolerance)
    rng = SplitMix64(77)
    assert f1.ravel()[0] == pytest.approx(3.0 * oracles.box_muller_normal(rng), rel=1e-12)


FIELD_SHAPES = [
    (1, 1),
    (1, _FIELD_BLOCK - 1),
    (1, _FIELD_BLOCK),
    (1, _FIELD_BLOCK + 1),
    (1, 2 * _FIELD_BLOCK + 1),
    (224, 324),  # a default-frame ridge layer
    (284, 384),  # a default-frame sensor noise field
]


@pytest.mark.parametrize("shape", FIELD_SHAPES)
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**64 - 1), sigma=st.one_of(st.floats(0.0, 100.0), st.integers(0, 20)))
def test_blocked_field_is_bit_identical_to_whole_array(seed, shape, sigma):
    field = normal_field(seed, shape, sigma)
    assert field.shape == shape and field.dtype == np.float64
    assert field.tobytes() == oracles.normal_field_reference(seed, shape, sigma).tobytes()
