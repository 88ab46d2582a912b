"""splitmix64 stream values frozen against an independent implementation."""
from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from navscribe.rng import SplitMix64

SEED42_U64 = (13679457532755275413, 2949826092126892291, 5139283748462763858)
SEED7_U64 = (7191089600892374487, 309689372594955804, 16616101746815609346)


def test_known_stream_seed_42():
    gen = SplitMix64(42)
    assert tuple(gen.next_u64() for _ in range(3)) == SEED42_U64


def test_known_stream_seed_7():
    gen = SplitMix64(7)
    assert tuple(gen.next_u64() for _ in range(3)) == SEED7_U64


def test_below_stream_seed_42():
    gen = SplitMix64(42)
    assert [gen.below(5) for _ in range(6)] == [3, 0, 1, 1, 0, 4]


def test_unit_seed_42():
    assert SplitMix64(42).unit() == 0.7415648787718233


def test_below_consumes_one_draw():
    a, b = SplitMix64(9), SplitMix64(9)
    a.below(17)
    b.next_u64()
    assert a.next_u64() == b.next_u64()


def test_below_rejects_nonpositive_bound():
    with pytest.raises(ValueError, match="bound must be positive"):
        SplitMix64(1).below(0)


def test_seed_is_masked_to_64_bits():
    assert SplitMix64(2 ** 64 + 5).next_u64() == SplitMix64(5).next_u64()


@given(st.integers(min_value=0, max_value=2 ** 64 - 1),
       st.integers(min_value=1, max_value=10 ** 12))
def test_below_in_range(seed, bound):
    assert 0 <= SplitMix64(seed).below(bound) < bound


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_unit_in_half_open_interval(seed):
    value = SplitMix64(seed).unit()
    assert 0.0 <= value < 1.0


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_streams_reproducible(seed):
    a, b = SplitMix64(seed), SplitMix64(seed)
    assert [a.next_u64() for _ in range(4)] == [b.next_u64() for _ in range(4)]
