"""The package's PCG64 stream is numpy's default_rng(SeedSequence(entropy))
bit for bit: the same bounded ints as Generator.integers, and a handed-over
Generator that continues exactly where the ids left off."""
import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from transmon_lattice.cliffords import TWO_QUBIT_GROUP_SIZE
from transmon_lattice.pcg64 import Stream

# the RB bounds, and two that reject often: at 2**31 + 1 about half the
# 32-bit candidates fall below the threshold
BOUNDS = (2, 24, TWO_QUBIT_GROUP_SIZE, 2**31 + 1, 2**32 - 1)

entropy_words = st.lists(
    st.one_of(
        st.just(0),
        st.integers(1, 2**32 - 1),
        st.integers(2**32, 2**64 - 1),  # two words
        st.integers(2**64, 2**160),  # three to six words
    ),
    max_size=8,
)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    entropy=entropy_words,
    draws=st.lists(st.tuples(st.sampled_from(BOUNDS), st.integers(0, 3000)),
                   min_size=1, max_size=4),
)
def test_stream_draws_numpys_integers_and_hands_over_its_state(entropy, draws):
    stream = Stream(entropy)
    reference = np.random.default_rng(np.random.SeedSequence(entropy))
    for n, count in draws:
        assert stream.integers(n, count) == reference.integers(0, n, count).tolist()
    generator = stream.generator()
    assert generator.binomial(100, 0.37, 5).tolist() == reference.binomial(100, 0.37, 5).tolist()
    assert generator.random(3).tolist() == reference.random(3).tolist()


def test_rb_streams_frozen_without_numpy():
    # SeedSequence([seed, 101, qubit, sequence, length]) of individual RB
    # and SeedSequence([seed, 303, sequence, length]) of two-qubit RB
    assert Stream([7, 101, 0, 0, 7]).integers(24, 16) == [
        21, 9, 16, 21, 11, 20, 15, 9, 14, 23, 7, 21, 12, 3, 21, 3,
    ]
    assert Stream([7, 303, 3, 7]).integers(TWO_QUBIT_GROUP_SIZE, 8) == [
        6838, 6849, 5832, 6965, 9161, 7075, 8507, 300,
    ]


def test_stream_refuses_entropy_seedsequence_refuses_and_bounds_it_cannot_draw():
    with pytest.raises(ValueError, match="non-negative"):
        Stream([7, -1])
    with pytest.raises(TypeError):
        Stream([7, 2.0])
    stream = Stream([7])
    for n in (0, 1, 2**32):
        with pytest.raises(ValueError, match="bound"):
            stream.integers(n, 3)
