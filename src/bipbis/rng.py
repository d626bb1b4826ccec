"""Seed management: explicit (seed, stream) pairs for reproducible parallel trials.

A trial owns one ``RandomSeed``. Independent purposes inside a trial (graph
edges, vertex labels, coordinate resamples, ...) draw from disjoint
counter-keyed substreams, so adding a new consumer never shifts the draws
seen by existing ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Purpose tags; one substream per independent consumer within a trial.
GRAPH_DRAW = 0
LABEL_DRAW = 1
RESAMPLE_DRAW = 2
POLY_DRAW = 3
TREE_DRAW = 4

# Trials run on streams base + i for i below this offset; streams from
# base + AUX_STREAM_OFFSET on are reserved for auxiliary estimates (norm
# moments) of the same run, so the two never overlap.
AUX_STREAM_OFFSET = 1 << 20


def check_trial_streams(count: int, what: str = "trials") -> None:
    """Refuse ``count`` trial streams from one base (base + 0, ..., base +
    count - 1) when they would reach the auxiliary streams of that base."""
    if count >= AUX_STREAM_OFFSET:
        raise ParameterError(f"{what} must be below {AUX_STREAM_OFFSET}, got {count}")


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

    def with_stream(self, stream: int) -> "RandomSeed":
        return RandomSeed(self.seed, stream)

    def shifted(self, offset: int) -> "RandomSeed":
        return RandomSeed(self.seed, self.stream + offset)
