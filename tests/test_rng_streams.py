"""RngStream draws numpy's own SeedSequence streams, bit for bit."""

import pickle
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ppmetrics import processes
from ppmetrics.processes import RngStream

seed = st.one_of(st.integers(0, 2**40), st.integers(0, 3), st.integers(2**128, 2**140))
# key words above 2**32 take two 32-bit words in the SeedSequence entropy
key_word = st.one_of(st.integers(0, 2**33), st.integers(0, 3))
path = st.lists(key_word, max_size=6).map(tuple)


def numpy_generator(seed, key):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=key)))


@settings(max_examples=300, deadline=None)
@given(seed, key_word, path, st.integers(0, 4), st.integers(1, 20))
def test_stream_equals_numpy_seed_sequence(seed, index, path, split, k):
    key = (index,) + path
    expected = numpy_generator(seed, key).random(k)
    built = RngStream(seed, index, path)
    # the same stream reached through a chain of substreams
    chained = RngStream(seed, index, path[:split])
    for word in path[split:]:
        chained = chained.substream(word)
    assert chained == built
    for stream in (built, chained):
        assert stream.generator().random(k).tobytes() == expected.tobytes()
        # generator() starts from the beginning every time
        assert stream.generator().random(k).tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed, key_word, path, key_word)
def test_substream_of_a_fresh_stream_equals_numpy(seed, index, path, child):
    # the parent's pool is derived inside substream(), not beforehand
    stream = RngStream(seed, index, path).substream(child)
    expected = numpy_generator(seed, (index,) + path + (child,))
    assert stream.generator().integers(0, 2**63, 5).tolist() == expected.integers(0, 2**63, 5).tolist()


def test_generator_state_equals_numpy():
    stream = RngStream(2**70 + 5, 2**33 + 1).substream(7).substream(0)
    ours = stream.generator().bit_generator.state
    theirs = np.random.PCG64(
        np.random.SeedSequence(2**70 + 5, spawn_key=(2**33 + 1, 7, 0))).state
    assert ours == theirs


def test_equality_hash_and_repr_ignore_the_cached_pool():
    fresh = RngStream(11, 2, (3, 4))
    derived = RngStream(11, 2).substream(3).substream(4)
    used = RngStream(11, 2, (3, 4))
    used.generator()
    for stream in (derived, used):
        assert stream == fresh and hash(stream) == hash(fresh)
        assert repr(stream) == repr(fresh) == "RngStream(seed=11, stream_index=2, path=(3, 4))"
    assert len({fresh, derived, used}) == 1
    assert derived != RngStream(11, 2, (3, 5))
    back = pickle.loads(pickle.dumps(derived))
    assert back == fresh
    assert back.generator().random(4).tobytes() == fresh.generator().random(4).tobytes()


@pytest.mark.parametrize("make", [
    lambda: RngStream(-1).generator(),
    lambda: RngStream(1, -2).generator(),
    lambda: RngStream(1).substream(-3),
])
def test_negative_key_words_are_rejected(make):
    # numpy's SeedSequence rejects them too
    with pytest.raises(ValueError):
        make()


def test_constant_check_names_the_numpy_version(monkeypatch):
    processes._check_seed_constants()
    monkeypatch.setattr(processes, "_MULT_B", processes._MULT_B ^ 1)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        processes._check_seed_constants()


# 2**32 - 1 is the largest key the column fold takes; 2**32 and above have two
# words and send the grid down the per-child path
grid_key = st.one_of(st.integers(0, 3), st.integers(2**32 - 2, 2**32 - 1),
                     st.integers(0, 2**33))
root_key = st.one_of(st.integers(0, 3), st.integers(0, 2**70))


@settings(max_examples=200, deadline=None)
@given(seed, root_key, st.lists(root_key, max_size=3).map(tuple),
       st.lists(st.lists(grid_key, min_size=1, max_size=3), min_size=1, max_size=3))
def test_grid_children_draw_what_their_substream_chains_draw(seed, index, path, axes):
    rng = RngStream(seed, index, path)
    grid = processes._substream_grid(rng, *axes)
    assert grid.shape == tuple(len(keys) for keys in axes)
    for position in np.ndindex(grid.shape):
        keys = [axis[i] for axis, i in zip(axes, position)]
        chained = reduce(RngStream.substream, keys, rng)
        assert grid[position].generator().random(3).tobytes() == \
            chained.generator().random(3).tobytes()


def test_grid_folds_one_word_keys_as_columns_and_chains_longer_ones():
    rng = RngStream(2**70 + 5, 2**33 + 1, (7,))
    folded = processes._substream_grid(rng, (0, 2**32 - 1), range(3))
    assert all(type(child) is processes._PCG64Seed for child in folded.flat)
    assert folded[1, 2].generator().random(4).tobytes() == numpy_generator(
        2**70 + 5, (2**33 + 1, 7, 2**32 - 1, 2)).random(4).tobytes()
    chained = processes._substream_grid(rng, (0, 2**32), range(3))
    assert chained[1, 2] == rng.substream(2**32).substream(2)
    assert chained[0, 1] == rng.substream(0).substream(1)


def test_constant_check_covers_the_grid_fold(monkeypatch):
    # substream() rebuilt on numpy's own root pools leaves the grid's column
    # fold as the only part of the check that uses _MULT_A
    monkeypatch.setattr(RngStream, "substream", lambda self, k: RngStream(
        self.seed, self.stream_index, self.path + (k,)))
    processes._check_seed_constants()
    monkeypatch.setattr(processes, "_MULT_A", processes._MULT_A ^ 1)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
        processes._check_seed_constants()


def test_seed_shim_refuses_other_state_requests():
    seq = processes._substream_grid(RngStream(1), (2,))[0]
    assert seq.generate_state(4, np.uint64).tolist() == np.random.SeedSequence(
        1, spawn_key=(0, 2)).generate_state(4, np.uint64).tolist()
    for n_words, dtype in ((8, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError):
            seq.generate_state(n_words, dtype)
