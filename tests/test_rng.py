"""Deterministic generator: seeding, stream identity, and state handling."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qtextgen.numerics import Rng, derive_seed, splitmix64


def test_splitmix64_known_outputs():
    # first outputs of the reference splitmix64 stream seeded with 0
    expected = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F, 0xF88BB8A8724C81EC)
    x = 0
    for want in expected:
        out, x = splitmix64(x)
        assert out == want


def test_xoshiro_step_by_hand():
    # one update of the scramble/rotate recurrence from a hand-set state
    rng = Rng(0)
    rng._s = [1, 2, 3, 4]
    first = rng.next_uint64()
    assert first == ((10 << 7) * 9)  # rotl(s1*5, 7) * 9 with tiny values
    assert rng._s == [7, 0, 262146, 6 << 45]
    assert rng.next_uint64() == 0  # s1 became 0


def test_same_seed_same_stream():
    a, b = Rng(12345), Rng(12345)
    assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]


def test_different_seeds_differ():
    a, b = Rng(1), Rng(2)
    assert [a.next_uint64() for _ in range(8)] != [b.next_uint64() for _ in range(8)]


def test_random_in_unit_interval():
    rng = Rng(3)
    vals = [rng.random() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in vals)
    assert 0.4 < np.mean(vals) < 0.6


def test_uniform_bounds_and_shape():
    rng = Rng(5)
    arr = rng.uniform(-2.0, 3.0, (4, 5))
    assert arr.shape == (4, 5)
    assert np.all(arr >= -2.0) and np.all(arr < 3.0)


def test_normal_moments():
    rng = Rng(11)
    arr = rng.normal((4000,))
    assert abs(float(arr.mean())) < 0.1
    assert abs(float(arr.std()) - 1.0) < 0.1


def test_randrange_unbiased_support():
    rng = Rng(13)
    draws = {rng.randrange(7) for _ in range(500)}
    assert draws == set(range(7))
    with pytest.raises(ValueError):
        rng.randrange(0)


def test_shuffle_is_permutation_and_deterministic():
    a = Rng(21).shuffle(list(range(10)))
    b = Rng(21).shuffle(list(range(10)))
    assert a == b
    assert sorted(a) == list(range(10))


def test_choice_weighted_degenerate_and_spread():
    rng = Rng(9)
    assert rng.choice_weighted([0.0, 1.0, 0.0]) == 1
    counts = [0, 0]
    for _ in range(400):
        counts[rng.choice_weighted([1.0, 3.0])] += 1
    assert counts[1] > counts[0]


def test_derive_seed_is_stable_and_label_sensitive():
    assert derive_seed(42, "corpus") == derive_seed(42, "corpus")
    assert derive_seed(42, "corpus") != derive_seed(42, "split")
    assert derive_seed(42, "a", 1) != derive_seed(42, "a", 2)


@given(st.integers(min_value=0, max_value=2 ** 64 - 1))
def test_any_seed_streams_reproduce(seed):
    assert [Rng(seed).next_uint64() for _ in range(3)] == [Rng(seed).next_uint64() for _ in range(3)]
