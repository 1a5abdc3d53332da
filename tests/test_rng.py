import numpy as np
import pytest

from facekeys.rng import SplitMix64, permutation


def test_same_seed_same_stream():
    a = SplitMix64(42)
    b = SplitMix64(42)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_different_seeds_diverge():
    a = [SplitMix64(1).next_u64() for _ in range(4)]
    b = [SplitMix64(2).next_u64() for _ in range(4)]
    assert a != b


def test_outputs_are_64_bit():
    g = SplitMix64(7)
    for _ in range(100):
        v = g.next_u64()
        assert 0 <= v < 2**64


def test_below_respects_bound():
    g = SplitMix64(3)
    vals = [g.below(10) for _ in range(200)]
    assert all(0 <= v < 10 for v in vals)
    assert len(set(vals)) == 10  # all residues show up over 200 draws


def test_permutation_is_permutation():
    p = permutation(50, seed=9)
    assert sorted(p) == list(range(50))


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None], ids=repr)
def test_permutation_refuses_a_seed_that_is_not_an_integer_at_least_0(seed):
    # unchecked, -1 and True shuffled as 2**64 - 1 and 1, and 2.5 ended in a TypeError
    with pytest.raises(ValueError) as exc:
        permutation(10, seed)
    assert str(exc.value) == f"seed must be an integer >= 0, got {seed!r}"


def test_permutation_deterministic():
    assert np.array_equal(permutation(100, seed=5), permutation(100, seed=5))
    assert not np.array_equal(permutation(100, seed=5), permutation(100, seed=6))


def test_permutation_zero_and_one():
    assert permutation(0, seed=1) == []
    assert permutation(1, seed=1) == [0]
