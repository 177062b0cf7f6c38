"""Deterministic chunked Monte Carlo execution.

Replications are partitioned into fixed-size chunks. Chunk ``c`` of a run
with master seed ``s`` draws all of its randomness from a counter-based
Philox stream keyed by ``(s, c)``, and partial results are reduced in chunk
order. Output is therefore bit-identical for a given seed regardless of how
many worker threads execute the chunks (``PICKANDS_THREADS``).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "chunk_stream",
    "chunk_plan",
    "map_chunks",
    "MomentAccumulator",
    "resolve_threads",
]

# Target number of matrix entries (paths x grid points) held by one chunk.
# Fixed so that the chunk partition, and hence the stream assignment, never
# depends on memory pressure or thread count.
CHUNK_BUDGET = 1 << 22
MIN_CHUNK = 16
MAX_CHUNK = 65536


def chunk_stream(seed: int, chunk: int, salt: int = 0) -> np.random.Generator:
    """Independent generator for one work chunk of a seeded run.

    ``salt`` separates independent sub-runs (e.g. the two sides of a
    factorized probability) under one master seed.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), int(salt), int(chunk))))
    )


def chunk_plan(reps: int, n_cols: int) -> list[tuple[int, int, int]]:
    """Split ``reps`` replications into (chunk_index, start, count) triples.

    The split depends only on ``reps`` and ``n_cols`` (the per-replication
    row width), keeping the randomness assignment reproducible.
    """
    if reps <= 0:
        raise ValueError("reps must be positive")
    size = CHUNK_BUDGET // max(1, int(n_cols))
    size = int(min(MAX_CHUNK, max(MIN_CHUNK, size), reps))
    plan = []
    start = 0
    index = 0
    while start < reps:
        count = min(size, reps - start)
        plan.append((index, start, count))
        start += count
        index += 1
    return plan


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else PICKANDS_THREADS, else 1.

    A set PICKANDS_THREADS that is not a positive integer raises ValueError.
    """
    if threads is not None:
        return max(1, int(threads))
    env = os.environ.get("PICKANDS_THREADS", "").strip()
    if not env:
        return 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"PICKANDS_THREADS must be a positive integer, got {env!r}")
    return int(env)


def map_chunks(
    worker: Callable[[int, int, int, np.random.Generator], object],
    seed: int,
    reps: int,
    n_cols: int,
    threads: int | None = None,
    salt: int = 0,
) -> list[object]:
    """Run ``worker(chunk_index, start, count, rng)`` over every chunk.

    Results are returned in chunk order so that any reduction performed by
    the caller is independent of the execution schedule.
    """
    plan = chunk_plan(reps, n_cols)
    n_workers = resolve_threads(threads)

    def run(item: tuple[int, int, int]) -> object:
        index, start, count = item
        return worker(index, start, count, chunk_stream(seed, index, salt))

    if n_workers <= 1 or len(plan) <= 1:
        return [run(item) for item in plan]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(run, plan))


class MomentAccumulator:
    """Ordered accumulation of first and second moments per output column."""

    def __init__(self, n_cols: int):
        self.n = 0
        self.s1 = np.zeros(n_cols)
        self.s2 = np.zeros(n_cols)

    def add_counts(self, count: int, s1: np.ndarray, s2: np.ndarray) -> None:
        self.n += int(count)
        self.s1 += s1
        self.s2 += s2

    def mean(self) -> np.ndarray:
        return self.s1 / self.n

    def stderr(self) -> np.ndarray:
        """Sample standard deviation of the mean, sqrt(var / n)."""
        if self.n < 2:
            raise ValueError("need at least two replications to form a standard error")
        var = (self.s2 - np.square(self.s1) / self.n) / (self.n - 1)
        return np.sqrt(np.maximum(var, 0.0) / self.n)


def reduce_moments(partials: Sequence[tuple[int, np.ndarray, np.ndarray]], n_cols: int) -> MomentAccumulator:
    """Combine per-chunk (count, sum, sumsq) partials in chunk order."""
    acc = MomentAccumulator(n_cols)
    for count, s1, s2 in partials:
        acc.add_counts(count, s1, s2)
    return acc
