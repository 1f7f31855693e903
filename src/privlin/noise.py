"""(rows, cols) noise samplers for the two perturbation families used by every mechanism."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RngStream:
    """Seed specification for one reproducible random stream.

    Identical (seed, stream_id) pairs yield bit-identical sample sequences;
    distinct stream ids give statistically independent streams, so parallel
    trials stay order-independent.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        return np.random.default_rng(seq)


def as_generator(rng) -> np.random.Generator:
    """Accept an RngStream, a Generator, or an int seed."""
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngStream):
        return rng.generator()
    if isinstance(rng, (int, np.integer)):
        return RngStream(int(rng)).generator()
    raise TypeError(f"cannot build a random generator from {type(rng).__name__}")


def _as_shape(shape) -> tuple[int, int]:
    rows, cols = (int(n) for n in shape)
    if rows < 1 or cols < 1:
        raise ValueError(f"noise shape must be positive, got {shape}")
    return rows, cols


def sample_radial_exponential(shape, beta: float, rng, count: int = 1) -> np.ndarray:
    """Draw count (rows, cols) matrices B from the density proportional to
    exp(-beta * ||B||_F), stacked as (count * rows, cols).

    In n = rows * cols dimensions the radial density is proportional to
    r^(n-1) exp(-beta r), i.e. the norm is Gamma(n, rate beta); each sample is
    that radius times an independent uniformly random direction. The draws are
    made one after another into one buffer, so count = k returns what k calls
    with count = 1 return, stacked, and leaves rng where they leave it.
    """
    rows, cols = _as_shape(shape)
    if not beta > 0:
        raise ValueError(f"beta must be positive, got {beta}")
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count!r}")
    rng = as_generator(rng)
    n = rows * cols
    out = np.empty((count, n))
    for direction in out:
        rng.standard_normal(out=direction)
        norm = math.sqrt(direction @ direction)
        while norm == 0.0:
            rng.standard_normal(out=direction)
            norm = math.sqrt(direction @ direction)
        direction *= rng.gamma(shape=n, scale=1.0 / beta) / norm
    return out.reshape(count * rows, cols)


def sample_gaussian(shape, sigma: float, rng) -> np.ndarray:
    """Draw a (rows, cols) matrix of i.i.d. N(0, sigma^2) entries."""
    rows, cols = _as_shape(shape)
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    rng = as_generator(rng)
    return sigma * rng.standard_normal((rows, cols))
