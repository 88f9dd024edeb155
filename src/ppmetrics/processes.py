"""Seedable point-process samplers.

Every sampler is a pure function of an :class:`RngStream` value: calling it
twice with the same stream reproduces the identical pattern bit for bit,
and distinct stream indices (or substream paths) yield statistically
independent draws. Monte Carlo drivers allocate one substream per
replicate, so runs parallelize deterministically.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import product

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import check_count, check_real
from .geometry import as_pattern
from .metrics import CountDistribution, _Stack

__all__ = [
    "RngStream",
    "Window",
    "UNIT_SQUARE",
    "uniform_sampler",
    "sample_poisson_homogeneous",
    "sample_poisson_fkappa",
    "sample_bernoulli_process",
    "sample_binomial_process",
    "sample_iid_process",
    "sample_collection",
    "evolve_immigration_death",
]


# numpy's SeedSequence hash constants (numpy/random/bit_generator.pyx); the
# import-time check below fails if a numpy release changes them
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def _n_words(value):
    """Number of 32-bit words numpy splits a non-negative int into."""
    return max(1, -(-value.bit_length() // 32))


def _hashmix(value, hash_const):
    # not ``^=``, which would overwrite a key column in place
    value = value ^ hash_const
    hash_const = hash_const * _MULT_A & _MASK32
    value = value * hash_const & _MASK32
    return value ^ (value >> _XSHIFT), hash_const


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ (result >> _XSHIFT)


def _pcg64_words(pool):
    """``SeedSequence.generate_state(4, np.uint64)`` of a mixed pool: shape
    ``(4,)``, or ``(4, n)`` for a pool of length-``n`` columns."""
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ (value >> _XSHIFT))
    # numpy pairs the 32-bit words little-endian
    return np.array([lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])],
                    dtype=np.uint64)


class _PCG64Seed(ISeedSequence):
    """Hands ``PCG64`` the four ``uint64`` state words it asks for; a
    sampler takes it in place of the :class:`RngStream` they come from."""

    def __init__(self, words):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != np.uint64:
            raise ValueError("holds only the 4 uint64 words that seed PCG64")
        return self.words

    def generator(self):
        return np.random.Generator(np.random.PCG64(self))


@dataclass(frozen=True)
class RngStream:
    """Addressable randomness source: a seed plus a stream coordinate.

    ``substream(k)`` derives a child stream; children with distinct paths
    are independent. ``generator()`` always starts from the beginning of
    the stream, which is what makes samplers pure functions of the value.
    The stream is numpy's own ``PCG64(SeedSequence(seed, spawn_key=(
    stream_index, *path)))``; the value holds nothing else. ``seed``,
    ``stream_index`` and every path key, so every ``substream(k)``, must be
    an integer >= 0; any other value is refused by name.
    """

    seed: int
    stream_index: int = 0
    path: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "seed", check_count("seed", self.seed))
        object.__setattr__(self, "stream_index",
                           check_count("stream_index", self.stream_index))
        object.__setattr__(self, "path",
                           tuple(check_count("path key", k) for k in self.path))

    def substream(self, k):
        return RngStream(self.seed, self.stream_index,
                         self.path + (check_count("substream key", k),))

    def generator(self):
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
            self.seed, spawn_key=(self.stream_index, *self.path))))


def _substream_grid(rng, *axes):
    """Object array whose entry ``[i, j, ...]`` draws, as ``rng``, exactly
    what ``rng.substream(axes[0][i]).substream(axes[1][j])...`` draws.

    The fold starts from numpy's own pool of ``rng``. Each axis is then
    mixed in once, as a ``uint64`` column over the whole grid, the way
    ``SeedSequence.mix_entropy`` takes every entropy word past the pool
    size: keys of one word step the hash constant alike. A key of 2**32 or
    more does not, so a grid holding one is built child by child.
    """
    if any(key > _MASK32 for keys in axes for key in keys):
        children = [reduce(RngStream.substream, key, rng) for key in product(*axes)]
    else:
        key = (rng.stream_index, *rng.path)
        pool = np.random.SeedSequence(rng.seed, spawn_key=key).pool.tolist()
        # numpy pads the seed to the pool size, then hashes every word once
        # into each pool word, and each hash steps the constant by _MULT_A
        # whatever the word
        n_words = max(_n_words(rng.seed), _POOL_SIZE) + sum(map(_n_words, key))
        hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * n_words, _MASK32 + 1) & _MASK32
        for column in np.meshgrid(*(np.array(keys, dtype=np.uint64) for keys in axes),
                                  indexing="ij"):
            for i in range(_POOL_SIZE):
                value, hash_const = _hashmix(column.ravel(), hash_const)
                pool[i] = _mix(pool[i], value)
        # PCG64 reads a stream's four words from contiguous memory
        children = [_PCG64Seed(words) for words in _pcg64_words(pool).T.copy()]
    grid = np.empty([len(keys) for keys in axes], dtype=object)
    grid.flat = children
    return grid


def _check_seed_constants():
    """Fail on import if numpy's ``SeedSequence`` no longer mixes as the
    column fold of a grid and its state words do."""
    seed, key, axes = 2**70 + 12345, (3, 2**40 + 7), ((0, 2**32 - 1), (5, 6, 7))
    grid = _substream_grid(RngStream(seed, key[0], key[1:]), *axes)
    if not all(np.array_equal(child.words, np.random.SeedSequence(
            seed, spawn_key=key + keys).generate_state(4, np.uint64))
            for child, keys in zip(grid.flat, product(*axes))):
        raise RuntimeError(
            f"numpy {np.__version__} mixes SeedSequence entropy differently "
            "from ppmetrics.processes._substream_grid, so its streams would "
            "not be numpy's; the SeedSequence constants there need updating"
        )


_check_seed_constants()


@dataclass(frozen=True)
class Window:
    """Axis-aligned box in R^D, the carrier of the planar samplers."""

    lower: tuple = (0.0, 0.0)
    upper: tuple = (1.0, 1.0)

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float)
        hi = np.asarray(self.upper, dtype=float)
        if lo.shape != hi.shape or lo.ndim != 1 or lo.size == 0:
            raise ValueError("window corners must be matching coordinate vectors")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("window corners must be finite")
        if not (lo < hi).all():
            raise ValueError("window must satisfy lower < upper coordinatewise")
        object.__setattr__(self, "lower", tuple(float(v) for v in lo))
        object.__setattr__(self, "upper", tuple(float(v) for v in hi))

    @property
    def dimension(self):
        return len(self.lower)

    def sample_uniform(self, n, gen):
        return self._map(gen.random((n, self.dimension)))

    def _map(self, unit):  # (n, D) points of the unit cube into the window
        lower = np.asarray(self.lower)
        return lower + (np.asarray(self.upper) - lower) * unit


UNIT_SQUARE = Window((0.0, 0.0), (1.0, 1.0))


def uniform_sampler(window=UNIT_SQUARE):
    """Location sampler drawing i.i.d. uniform points from the window."""
    return window.sample_uniform


def sample_poisson_homogeneous(lambda_total, window=UNIT_SQUARE, rng=RngStream(0)):
    """Homogeneous Poisson process: Poisson(lambda_total) count, uniform points;
    the one-stream case of ``_poisson_stack``, which draws the null collections."""
    return _poisson_stack([rng], check_real("lambda_total", lambda_total, above=0),
                          window).points


def _poisson_stack(streams, lambda_total, window):
    """``_Stack`` of Poisson patterns of a positive float ``lambda_total``, pattern
    ``k`` drawn from ``streams[k]``; the stacked unit-cube draws are mapped into
    the window at once, bit for bit as if each pattern were mapped alone."""
    stack = _Stack([gen.random((int(gen.poisson(lambda_total)), window.dimension))
                    for gen in (stream.generator() for stream in streams)])
    stack.points = window._map(stack.points)
    return stack


def sample_poisson_fkappa(lambda_total, kappa, rng=RngStream(0)):
    """Poisson process on the unit square with a tilted first coordinate.

    The x-coordinates follow the normalized truncated-exponential density
    ``kappa * exp(-kappa x) / (1 - exp(-kappa))`` on [0, 1] (sampled by
    inverse CDF, stable for small kappa), the y-coordinates are uniform.
    """
    lambda_total = check_real("lambda_total", lambda_total, above=0)
    kappa = check_real("kappa", kappa, above=0)
    gen = rng.generator()
    n = int(gen.poisson(lambda_total))
    u = gen.random(n)
    # x = -log(1 - u * (1 - e^{-kappa})) / kappa via expm1/log1p
    x = -np.log1p(u * np.expm1(-kappa)) / kappa
    y = gen.random(n)
    return np.column_stack([x, y]) if n else np.empty((0, 2))


def sample_bernoulli_process(n, p, rng=RngStream(0)):
    """Independent coin flips on the grid {1/n, 2/n, ..., 1} (1-d pattern)."""
    n = check_count("n", n, at_least=1)
    p = check_real("p", p, at_least=0, at_most=1)
    gen = rng.generator()
    keep = gen.random(n) < p
    grid = np.arange(1, n + 1, dtype=float) / n
    return grid[keep].reshape(-1, 1)


def sample_binomial_process(n, p, rng=RngStream(0)):
    """Binomial(n, p) count with i.i.d. uniform locations on [0, 1] (1-d)."""
    n = check_count("n", n, at_least=1)
    p = check_real("p", p, at_least=0, at_most=1)
    gen = rng.generator()
    count = int(gen.binomial(n, p))
    return gen.random((count, 1))


def sample_iid_process(counts, location_sampler, rng=RngStream(0)):
    """Pattern with a drawn count and i.i.d. locations, drawn independently.

    ``counts`` is a :class:`~ppmetrics.metrics.CountDistribution`;
    ``location_sampler(n, gen)`` must return an ``(n, D)`` array.
    """
    if not isinstance(counts, CountDistribution):
        raise ValueError("counts must be a CountDistribution")
    gen = rng.generator()
    count = int(gen.choice(np.asarray(counts.support), p=np.asarray(counts.probs)))
    return as_pattern(location_sampler(count, gen))


def sample_collection(n_patterns, sampler, rng):
    """Draw ``n_patterns`` independent patterns, one substream each."""
    return [sampler(rng.substream(i))
            for i in range(check_count("n_patterns", n_patterns))]


def evolve_immigration_death(initial, lambda_total, window=UNIT_SQUARE, t=0.0,
                             rng=RngStream(0)):
    """Exact time-``t`` marginal of the spatial immigration-death process.

    The process has constant immigration intensity ``lambda_total`` (uniform
    over the window) and unit per-capita death rate, so the time-``t`` state
    decomposes into independent thinning of the initial pattern with
    retention ``exp(-t)`` plus a fresh Poisson pattern with mean count
    ``lambda_total * (1 - exp(-t))``. No event-by-event simulation is run;
    the marginal law is exact. ``t`` must be finite; the stationary law
    (``t -> inf``) is the Poisson process with intensity ``lambda_total``.
    """
    t = check_real("t", t, at_least=0)
    lambda_total = check_real("lambda_total", lambda_total, above=0)
    pts = as_pattern(initial, dim=window.dimension)
    gen = rng.generator()
    if t == 0:
        return pts.copy()
    keep = gen.random(len(pts)) < np.exp(-t)
    survivors = pts[keep]
    fresh_count = int(gen.poisson(lambda_total * -np.expm1(-t)))
    fresh = window.sample_uniform(fresh_count, gen)
    return np.vstack([survivors, fresh])
