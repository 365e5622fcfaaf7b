"""The in-package sample stream: numpy's ``default_rng(seed).random`` bit for
bit, memoised per seed, and the sample points drawn from it."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcskit import forms, pcg64
from lcskit.forms import ANGULAR
from oracle_utils import numpy_sample_points

seeds = st.integers(min_value=0, max_value=2**130 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=seeds, count=st.integers(min_value=0, max_value=3000))
def test_stream_equals_numpy_default_rng_bit_for_bit(seed, count):
    expected = np.random.default_rng(seed).random(count)
    assert pcg64.uniform(seed, count).tobytes() == expected.tobytes()


@pytest.mark.parametrize("seed", [0, 1, 7, 13, 21, 2**32 - 1, 2**32, 2**32 + 5, 2**64, 2**70 + 3, 2**128 + 1])
def test_stream_equals_numpy_at_word_boundaries(seed):
    # seeds of one to five 32-bit words take every branch of the entropy mixing
    assert pcg64.uniform(seed, 500).tobytes() == np.random.default_rng(seed).random(500).tobytes()


@settings(max_examples=30, deadline=None)
@given(seed=seeds, counts=st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=6))
def test_growing_the_memo_keeps_every_draw_already_handed_out(seed, counts):
    pcg64._streams.pop(seed, None)
    handed = [(pcg64.uniform(seed, n), pcg64.uniform(seed, n).copy()) for n in counts]
    reference = np.random.default_rng(seed).random(max(counts))
    for view, copy in handed:
        assert view.tobytes() == copy.tobytes() == reference[: len(copy)].tobytes()


def test_draws_are_read_only_and_negative_seeds_refused():
    with pytest.raises(ValueError):
        pcg64.uniform(3, 10)[0] = 0.5
    with pytest.raises(ValueError, match="seed must be an integer >= 0"):
        pcg64.uniform(-3, 10)


def test_memo_keeps_the_eight_most_recently_used_seeds():
    pcg64._streams.clear()
    for seed in range(20):
        pcg64.uniform(seed, 4)
        assert len(pcg64._streams) <= 8
    pcg64.uniform(12, 4)  # used again: kept past the next new seed
    pcg64.uniform(100, 4)
    assert list(pcg64._streams) == [14, 15, 16, 17, 18, 19, 12, 100]


MIXED = forms.make_domain("mixed", [("t", ANGULAR), ("x", "linear", -2.0, 3.0), ("s", ANGULAR), ("y", "linear", 0.5, 0.75)])


@pytest.mark.parametrize("samples, seed, margin", [(1, 0, 0.0), (37, 7, 0.0), (200, 21, 0.3), (50, 2**70, 0.9)])
def test_sample_points_equal_numpy_per_coordinate_draws(samples, seed, margin):
    got = MIXED.sample_points(samples, seed, margin)
    expected = numpy_sample_points(MIXED, samples, seed, margin)
    assert list(got) == list(expected)
    for name in expected:
        assert got[name].tobytes() == expected[name].tobytes(), name


def test_writing_into_sample_points_leaves_later_draws_unchanged():
    first = MIXED.sample_points(40, 5)
    for values in first.values():
        values[:] = 99.0
    again = MIXED.sample_points(40, 5)
    expected = numpy_sample_points(MIXED, 40, 5)
    assert all(again[name].tobytes() == expected[name].tobytes() for name in expected)
