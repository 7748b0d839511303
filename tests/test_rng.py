import hashlib
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from palmroi.rng import _FIELD_BLOCK, SplitMix64, add_normal, mix

# Published SplitMix64 outputs for seed 0; matching them pins the exact
# finalizer constants and state increment.
SEED0_REFERENCE = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)

# Frozen digest of the first 256 outputs for seed 0 (little-endian uint64 bytes).
STREAM0_SHA256 = "3843faf2c6540306294b486fda136f53cc592319b024ecb30987d6340908063b"


def test_reference_vector_seed0():
    rng = SplitMix64(0)
    assert tuple(rng.next_u64() for _ in range(3)) == SEED0_REFERENCE


def test_stream_golden_hash():
    rng = SplitMix64(0)
    digest = hashlib.sha256(struct.pack("<256Q", *(rng.next_u64() for _ in range(256)))).hexdigest()
    assert digest == STREAM0_SHA256


def test_floats_in_unit_interval():
    rng = SplitMix64(123)
    f = np.array([rng.next_float() for _ in range(10000)])
    assert (f >= 0.0).all() and (f < 1.0).all()
    replay = SplitMix64(123)
    assert (f[:5] == [(replay.next_u64() >> 11) * 2.0**-53 for _ in range(5)]).all()


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
    f1, f2 = np.zeros((50, 40)), np.zeros((50, 40))
    add_normal(f1, 77, sigma=3.0)
    add_normal(f2, 77, sigma=3.0)
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
    # a random base, not zeros: 0.0 + (-0.0) is +0.0, so a zero base would hide the field's signed zeros
    base = np.random.default_rng(seed % 2**32).uniform(-50.0, 50.0, shape)
    field = base.copy()
    add_normal(field, seed, sigma)
    assert field.shape == shape and field.dtype == np.float64
    assert field.tobytes() == (base + oracles.normal_field_reference(seed, shape, sigma)).tobytes()


@pytest.mark.parametrize(
    "out",
    [np.zeros((30, 20)).T, np.zeros((30, 20), dtype=np.float32), np.zeros((30, 20), dtype=np.int64)],
    ids=["transposed", "float32", "int64"],
)
def test_add_normal_rejects_what_it_cannot_fill_in_place(out):
    before = out.copy()
    with pytest.raises(ValueError, match="C-contiguous float64"):
        add_normal(out, 1, 3.0)
    assert (out == before).all()
