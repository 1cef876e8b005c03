"""The pure-Python seeded stream against numpy's default_rng."""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ipsdm.shuffle import SeededStream, fisher_yates
from oracles import numpy_fisher_yates

_WORD = st.integers(0, 2**200 - 1)


@given(
    entropy=_WORD | st.lists(_WORD, min_size=1, max_size=6),
    n=st.integers(0, 5000),
    bounds=st.lists(st.integers(1, 2**32 - 1), max_size=12),
)
@example(entropy=[7, 0, 0], n=5000, bounds=[2**31 + 1, 3 * 2**30, 2**32 - 1, 1, 2])
@example(entropy=0, n=1, bounds=[])
def test_stream_draws_what_numpy_draws(entropy, n, bounds):
    """Draws below any bound up to 2**32 - 1 (large ones hit Lemire's
    rejection about half the time), then a shuffle, from one stream: the
    values and the order equal default_rng(entropy)'s. An odd number of
    draws before the shuffle also checks that the unused upper half of a
    64-bit draw carries over to the next call."""
    rng = np.random.default_rng(entropy)
    stream = SeededStream(entropy)
    assert [stream.below(b) for b in bounds] == [int(rng.integers(0, b)) for b in bounds]
    assert fisher_yates(n, stream) == numpy_fisher_yates(n, rng)
    assert stream.below(1000) == int(rng.integers(0, 1000))


def test_seed_sequence_entropy_matches_numpy():
    """make_batches seeds with a list; numpy's SeedSequence of that list and
    the list itself give one stream."""
    rng = np.random.default_rng(np.random.SeedSequence([3, 1, 0]))
    assert fisher_yates(300, SeededStream([3, 1, 0])) == numpy_fisher_yates(300, rng)


@pytest.mark.parametrize("bound", [0, -1, 2**32, 2**64])
def test_stream_rejects_bounds_outside_32_bits(bound):
    with pytest.raises(ValueError, match="bound"):
        SeededStream(0).below(bound)


def test_stream_rejects_negative_entropy():
    with pytest.raises(ValueError, match="non-negative"):
        SeededStream([1, -1])
