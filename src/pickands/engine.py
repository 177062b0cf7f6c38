"""Deterministic chunked Monte Carlo execution.

Replications are partitioned into fixed-size chunks. Chunk ``c`` of a run
with master seed ``s`` draws all of its randomness from a counter-based
Philox stream keyed by ``(s, c)``, and partial results are reduced in chunk
order. Output is therefore bit-identical for a given seed regardless of how
many worker threads execute the chunks (``PICKANDS_THREADS``, by default the
CPUs this process may run on).

Each thread holds one chunk at a time, so peak memory is about the thread
count times one chunk's working set. Samplers and value kernels keep that
working set small by walking a chunk in row blocks (``row_blocks``,
``by_row_blocks``) of a fixed byte size, which changes no value.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "by_row_blocks",
    "chunk_stream",
    "chunk_plan",
    "map_chunks",
    "reduce_moments",
    "resolve_threads",
    "row_blocks",
    "run",
    "select_level",
]

# Target number of matrix entries (paths x grid points) held by one chunk.
# Fixed so that the chunk partition, and hence the stream assignment, never
# depends on memory pressure or thread count.
CHUNK_BUDGET = 1 << 22
MIN_CHUNK = 16
MAX_CHUNK = 65536
# Bytes of input one row block holds (see row_blocks). Small enough that a
# block's temporaries stay in cache and a chunk's few full-size arrays set its
# peak memory.
ROW_BLOCK_BYTES = 1 << 20


def chunk_stream(seed: int, chunk: int) -> np.random.Generator:
    """Independent generator for one work chunk of a seeded run.

    The stream is keyed by ``(seed, 0, chunk)``: the constant middle entry
    keeps every seeded stream what it was when that key held a sub-run
    index, so seeded output does not change.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), 0, int(chunk))))
    )


def chunk_plan(reps: int, n_cols: int) -> list[int]:
    """Replication counts of the chunks that ``reps`` replications split into.

    The split depends only on ``reps`` and ``n_cols`` (the per-replication
    row width), keeping the randomness assignment reproducible.
    """
    if reps <= 0:
        raise ValueError("reps must be positive")
    size = CHUNK_BUDGET // max(1, int(n_cols))
    size = int(min(MAX_CHUNK, max(MIN_CHUNK, size), reps))
    return [min(size, reps - start) for start in range(0, reps, size)]


def resolve_threads(threads: int | None = None) -> int:
    """Worker count: explicit argument, else PICKANDS_THREADS, else the usable CPUs.

    The usable CPUs are those this process may run on (its affinity mask),
    or all CPUs where the platform does not report a mask. An argument or a
    set PICKANDS_THREADS that is not a positive integer raises ValueError.
    """
    if threads is not None:
        if int(threads) != threads or threads < 1:
            raise ValueError(f"threads must be a positive integer, got {threads!r}")
        return int(threads)
    env = os.environ.get("PICKANDS_THREADS", "").strip()
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"PICKANDS_THREADS must be a positive integer, got {env!r}")
    return int(env)


def map_chunks(
    worker: Callable[[np.random.Generator, int], object],
    seed: int,
    reps: int,
    n_cols: int,
    threads: int | None = None,
) -> list[object]:
    """Run ``worker(rng, count)`` over every chunk of the plan.

    Results are returned in chunk order so that any reduction performed by
    the caller is independent of the execution schedule.
    """
    counts = chunk_plan(reps, n_cols)
    n_workers = resolve_threads(threads)

    def chunk(index: int) -> object:
        return worker(chunk_stream(seed, index), counts[index])

    if n_workers <= 1 or len(counts) <= 1:
        return [chunk(index) for index in range(len(counts))]
    with ThreadPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(chunk, range(len(counts))))


def row_blocks(n_rows: int, row_bytes: int) -> list[slice]:
    """Consecutive slices that cover ``n_rows`` rows of ``row_bytes`` bytes each.

    Each slice holds ``step`` rows, about ROW_BLOCK_BYTES and at least two,
    and the last also takes the remainder, so no slice is shorter than
    ``step`` unless all rows are. That keeps results equal to one pass over
    all rows: NumPy picks the memory layout of some temporaries, and with it
    the order in which a row sum adds, from their size, and treats a one-row
    array as both C- and Fortran-ordered; blocks that are never small pick
    the layout the whole array would.
    """
    step = max(2, ROW_BLOCK_BYTES // max(1, row_bytes))
    edges = list(range(0, n_rows - step + 1, step)) or [0]
    return [slice(a, b) for a, b in zip(edges, edges[1:] + [n_rows])]


def by_row_blocks(kernel: Callable[..., np.ndarray]) -> Callable[..., np.ndarray]:
    """``kernel(a, *args)`` evaluated on the row blocks of ``a`` and stacked in row order.

    For kernels whose output row i depends only on input row i, by operations
    that treat every row alike; the result is then the same as one call on
    all of ``a``, with temporaries the size of one block.
    """

    @functools.wraps(kernel)
    def blocked(a: np.ndarray, *args) -> np.ndarray:
        return np.concatenate([kernel(a[rows], *args) for rows in row_blocks(len(a), a[:1].nbytes)])

    return blocked


def _chunk_sums(values: np.ndarray, count: int) -> tuple[int, np.ndarray, np.ndarray]:
    v = np.reshape(values, (count, -1))
    return count, v.sum(axis=0), np.square(v).sum(axis=0)


def reduce_moments(partials: Sequence[tuple[int, np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error per column from per-chunk (count, sum, sumsq), added in chunk order."""
    n, s1, s2 = 0, 0.0, 0.0
    for count, a, b in partials:
        n, s1, s2 = n + count, s1 + a, s2 + b
    if n < 2:
        raise ValueError("need at least two replications to form a standard error")
    var = (s2 - np.square(s1) / n) / (n - 1)
    return s1 / n, np.sqrt(np.maximum(var, 0.0) / n)


def run(
    worker: Callable[[np.random.Generator, int], np.ndarray | dict],
    seed: int,
    reps: int,
    n_cols: int,
    threads: int | None = None,
) -> tuple[np.ndarray, np.ndarray] | dict:
    """Mean and standard error per column of the values ``worker(rng, count)`` returns.

    ``worker`` returns the per-replication values of one chunk: a (count,) or
    (count, k) array, or, for runs whose estimators share paths, a dict of
    such arrays, in which case a dict of (mean, stderr) pairs is returned.
    Each chunk is reduced to its count, sum and sum of squares on the thread
    that ran it, so no more than one chunk of values is held per thread.
    """

    @functools.wraps(worker)  # keeps the caller's __module__, by which traces attribute chunk time
    def sums(rng: np.random.Generator, count: int):
        values = worker(rng, count)
        if isinstance(values, dict):
            return {key: _chunk_sums(v, count) for key, v in values.items()}
        return _chunk_sums(values, count)

    partials = map_chunks(sums, seed, reps, n_cols, threads)
    if isinstance(partials[0], dict):
        return {key: reduce_moments([p[key] for p in partials]) for key in partials[0]}
    return reduce_moments(partials)


def select_level(means: np.ndarray, ses: np.ndarray, rel_tol: float) -> tuple[int, bool]:
    """Doubling rule: the first level whose change from the previous one is at
    most ``rel_tol`` times its standard error, and True; else the last level, and False."""
    for lvl in range(1, means.size):
        if abs(means[lvl] - means[lvl - 1]) <= rel_tol * ses[lvl]:
            return lvl, True
    return means.size - 1, False
