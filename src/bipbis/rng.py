"""Seed management: explicit (seed, stream) pairs for reproducible parallel trials.

A trial owns one ``RandomSeed``. Independent purposes inside a trial (graph
edges, vertex labels, coordinate resamples, ...) draw from disjoint
counter-keyed substreams, so adding a new consumer never shifts the draws
seen by existing ones.

The generator of ``(seed, stream, purpose)`` is a Philox keyed by
``SeedSequence(seed, spawn_key=(stream, purpose))``. The keys are derived
here, many streams at a time, by the same uint32 mixing that numpy's
``SeedSequence`` runs word by word (NEP 19 keeps it fixed); a test ties the
two together.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ParameterError

# Purpose tags; one substream per independent consumer within a trial.
GRAPH_DRAW = 0
LABEL_DRAW = 1
RESAMPLE_DRAW = 2
POLY_DRAW = 3

# Trials run on streams base + i for i below this offset; streams from
# base + AUX_STREAM_OFFSET on are reserved for auxiliary estimates (norm
# moments) of the same run, so the two never overlap.
AUX_STREAM_OFFSET = 1 << 20
NORM_TRIALS = 30  # a norm estimate E||f||^2 takes a block of this many aux streams

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def check_trial_count(count: int) -> None:
    """Refuse a trial count below one."""
    if count < 1:
        raise ParameterError(f"trials must be >= 1, got {count}")


def check_trial_streams(count: int, what: str = "trials") -> None:
    """Refuse ``count`` trial streams from one base (base + 0, ..., base +
    count - 1) when they would reach the auxiliary streams of that base."""
    if count >= AUX_STREAM_OFFSET:
        raise ParameterError(f"{what} must be below {AUX_STREAM_OFFSET}, got {count}")


def _words(value: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence makes of a non-negative
    integer; 0 is the one word 0."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@functools.lru_cache(maxsize=16)
def _seed_pool(seed: int) -> np.ndarray:
    """SeedSequence's pool once the seed's words are mixed in, before any
    spawn key word. A seed below 2^64 has at most two words, and SeedSequence
    pads them with zeros to the pool size when a spawn key follows; hashing
    the missing words as zeros is what it does with no spawn key too, so
    ``SeedSequence(seed).pool`` is that pool, after 16 hashmix calls."""
    pool = np.random.SeedSequence(seed).pool
    pool.setflags(write=False)
    return pool


@functools.lru_cache(maxsize=16)
def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """(2, count) uint32: the xor and multiply constants of SeedSequence's
    hash calls number first, ..., first + count - 1. With h_i = init *
    mult^i mod 2^32, call i xors with h_i and multiplies by h_(i+1)."""
    h = np.array([init * pow(mult, i, 1 << 32) & _MASK32 for i in range(first, first + count + 1)],
                 dtype=np.uint32)
    out = np.stack((h[:-1], h[1:]))
    out.setflags(write=False)
    return out


def _mixed_keys(seed: int, rows: int, words: list) -> np.ndarray:
    """(rows, 2) uint64 Philox keys: SeedSequence's seed pool with the spawn
    key ``words`` mixed in, each word into every pool word, then
    ``generate_state(2, np.uint64)``. A word is an int shared by every row or
    a (rows, 1) uint32 column. uint32 arithmetic wraps mod 2^32 as
    SeedSequence's does."""
    xor, mul = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE ** 2, _POOL_SIZE * len(words))
    mixer = np.tile(_seed_pool(seed), (rows, 1))
    for j, word in enumerate(words):
        span = slice(_POOL_SIZE * j, _POOL_SIZE * (j + 1))
        hashed = word ^ xor[span]
        hashed *= mul[span]
        hashed ^= hashed >> 16
        hashed *= _MIX_MULT_R
        mixer *= _MIX_MULT_L
        mixer -= hashed
        mixer ^= mixer >> 16
    xor, mul = _hash_constants(_INIT_B, _MULT_B, 0, _POOL_SIZE)
    mixer ^= xor
    mixer *= mul
    mixer ^= mixer >> 16
    return mixer.astype("<u4", copy=False).view("<u8").astype(np.uint64)


def _philox_keys(seed: int, stream: int, count: int, purpose: int) -> np.ndarray:
    """(count, 2) uint64: row i is the Philox key of (seed, stream + i,
    purpose), ``SeedSequence(seed, spawn_key=(stream + i, purpose))
    .generate_state(2, np.uint64)``.

    The words of stream + i come from adding i into the words of stream with
    carries. A stream takes as many words as it needs (one from 0 up, two
    from 2^32, three from 2^64), and each word is one more mixing round, so
    the rows are mixed in groups of equal word count.
    """
    keys = np.empty((count, 2), dtype=np.uint64)
    if count == 0:
        return keys
    first = _words(stream)
    widest = len(_words(stream + count - 1))
    carry = np.arange(count, dtype=np.uint64)[:, None]
    columns = []
    for word in first + [0] * (widest - len(first)):
        total = carry + word
        columns.append((total & _MASK32).astype(np.uint32))
        carry = total >> 32
    tail = _words(purpose)
    start = 0
    for width in range(len(first), widest + 1):
        end = min(count, (1 << 32 * width) - stream)  # the rows below 2^(32 width)
        group = [column[start:end] for column in columns[:width]]
        keys[start:end] = _mixed_keys(seed, end - start, group + tail)
        start = end
    return keys


def _rekeyed(keys: np.ndarray) -> Iterator[np.random.Generator]:
    """One Philox generator, re-keyed in place to each of ``keys`` in turn:
    its state is set to the key, counter 0 and an empty buffer, which is the
    state of a Philox built with that key."""
    if len(keys) == 0:
        return
    bit_generator = np.random.Philox(key=keys[0])
    rng = np.random.Generator(bit_generator)
    fresh = bit_generator.state
    for key in keys:
        fresh["state"]["key"] = key
        bit_generator.state = fresh
        yield rng


@dataclass(frozen=True)
class RandomSeed:
    """A (seed, stream) pair that fully determines every random draw downstream.

    Streams partition the randomness of one base seed so that parallel trials
    never share generator state: trial ``i`` of an experiment runs on stream
    ``base_stream + i``.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not (0 <= int(self.seed) < 2**64):
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if int(self.stream) < 0:
            raise ParameterError(f"stream must be non-negative, got {self.stream}")

    def generator(self, purpose: int = 0) -> np.random.Generator:
        """Counter-based generator keyed by (seed, stream, purpose)."""
        ss = np.random.SeedSequence(entropy=int(self.seed), spawn_key=(int(self.stream), int(purpose)))
        return np.random.Generator(np.random.Philox(ss))

    def generators(self, purpose: int, count: int) -> Iterator[np.random.Generator]:
        """The generators of ``purpose`` on streams stream, ..., stream +
        count - 1, each drawing as ``self.shifted(i).generator(purpose)``
        does, with the keys derived in one pass.

        They are one generator, re-keyed for each stream in turn: a yielded
        generator is valid until the next one is pulled."""
        if count < 0 or int(purpose) < 0:
            raise ParameterError(f"purpose and count must be non-negative, got {purpose}, {count}")
        return _rekeyed(_philox_keys(int(self.seed), int(self.stream), count, int(purpose)))

    def shifted(self, offset: int) -> "RandomSeed":
        return RandomSeed(self.seed, self.stream + offset)

    def norm_block(self, index: int = 0) -> "RandomSeed":
        """The first seed of norm-estimate block ``index``: the NORM_TRIALS
        auxiliary streams from stream + AUX_STREAM_OFFSET + NORM_TRIALS * index
        on, disjoint from the trial streams and from every other block."""
        return self.shifted(AUX_STREAM_OFFSET + NORM_TRIALS * index)
