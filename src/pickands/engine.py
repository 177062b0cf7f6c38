"""Deterministic chunked Monte Carlo execution.

Replications are partitioned into fixed-size chunks. Chunk ``c`` of a run
with master seed ``s`` draws all of its randomness from a counter-based
Philox stream keyed by ``(s, k, c)``, ``k`` the run's stream index (0 unless
one seeded estimate makes several runs, as a two-level horizon does), and
partial results are reduced in chunk order. Output is therefore
bit-identical for a given seed regardless of how many worker threads
execute the chunks. ``PICKANDS_THREADS`` is the one setting of that count
(by default the CPUs this process may run on), and ``chunk_plan`` is the
one check that a run has the two replications a standard error needs;
estimators do neither themselves.

The runs of one estimate that do not depend on each other, such as the
base and correction levels of a two-level horizon, map their chunks on one
pool (``run_all``, ``map_runs``), so that a run of fewer chunks than threads
does not leave a CPU idle; each run keeps its streams, chunk plan and
reduction order, so its result is the one it has alone.

Each thread holds one chunk at a time, whichever run it belongs to, so peak
memory is still about the thread count times one chunk's working set.
Samplers and value kernels keep that working set small by walking a chunk
in row blocks (``row_blocks``) of a fixed byte size, which changes no
value, and by reading running maxima and sums at a kernel's truncation
levels only (``running_at``) instead of over every column.
"""

from __future__ import annotations

import functools
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence

import numpy as np
import numpy.random  # numpy loads it lazily; every run draws from it, so load it with the package

__all__ = [
    "chunk_stream",
    "chunk_plan",
    "doubling_stable",
    "map_chunks",
    "map_runs",
    "reduce_moments",
    "resolve_threads",
    "row_blocks",
    "run",
    "run_all",
    "running_at",
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
# Widest side whose running maxima ``running_at`` combines a column at a
# time: on an 8192 x 16 block that is 5x faster than ``reduceat``, and the
# two cross between 64 and 96 columns.
NARROW_MAX_COLUMNS = 64
# How far, in standard errors of the deeper level, an estimate may move when
# its truncation level doubles and still count as converged (doubling_stable).
DOUBLING_TOL = 0.1


def chunk_stream(seed: int, chunk: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one work chunk of a seeded run.

    The stream is keyed by ``(seed, stream, chunk)``. Runs of stream 0 keep
    the streams they had when the middle entry was a constant 0; a second
    run of the same seed, such as the long paths of a two-level horizon,
    takes stream 1.
    """
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(seed), int(stream), int(chunk))))
    )


def chunk_plan(reps: int, n_cols: int) -> list[int]:
    """Replication counts of the chunks that ``reps`` replications split into.

    The split depends only on ``reps`` and ``n_cols`` (the per-replication
    row width), keeping the randomness assignment reproducible. Fewer than
    two replications raise ValueError before any chunk is drawn.
    """
    if reps < 2:
        raise ValueError("need at least two replications to form a standard error")
    size = CHUNK_BUDGET // max(1, int(n_cols))
    size = int(min(MAX_CHUNK, max(MIN_CHUNK, size), reps))
    return [min(size, reps - start) for start in range(0, reps, size)]


def resolve_threads() -> int:
    """Worker count: PICKANDS_THREADS, else the usable CPUs.

    The usable CPUs are those this process may run on (its affinity mask),
    or all CPUs where the platform does not report a mask. A set
    PICKANDS_THREADS that is not a positive integer raises ValueError.
    """
    env = os.environ.get("PICKANDS_THREADS", "").strip()
    if not env:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not env.isdecimal() or int(env) < 1:
        raise ValueError(f"PICKANDS_THREADS must be a positive integer, got {env!r}")
    return int(env)


def map_runs(runs: Sequence[tuple]) -> list[list[object]]:
    """Run every chunk of several seeded runs on one pool.

    Each run is a tuple ``(worker, seed, reps, n_cols, stream)``, and its
    chunk ``c`` is ``worker(chunk_stream(seed, c, stream), count)`` with
    ``count`` from ``chunk_plan(reps, n_cols)``. Every plan is checked
    before any chunk is drawn. The result holds, for each run, its chunks'
    results in chunk order, so that any reduction performed by the caller
    is independent of the execution schedule and of the other runs.
    """
    plans = [chunk_plan(reps, n_cols) for _, _, reps, n_cols, _ in runs]
    tasks = [(k, index) for k, plan in enumerate(plans) for index in range(len(plan))]
    n_workers = resolve_threads()

    def chunk(task: tuple[int, int]) -> object:
        k, index = task
        worker, seed, _, _, stream = runs[k]
        return worker(chunk_stream(seed, index, stream), plans[k][index])

    if n_workers <= 1:
        results = [chunk(task) for task in tasks]
    else:
        # A lone chunk runs on the pool too, so that its arrays come from a
        # pool thread's heap, which later runs reuse, and not the calling
        # thread's, which keeps them: run inline, the one-chunk levels of a
        # two-level crosscheck raised the next run's peak RSS by about 5 MB.
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            results = list(pool.map(chunk, tasks))
    ordered = iter(results)
    return [[next(ordered) for _ in plan] for plan in plans]


def map_chunks(
    worker: Callable[[np.random.Generator, int], object],
    seed: int,
    reps: int,
    n_cols: int,
    stream: int = 0,
) -> list[object]:
    """``map_runs`` of the one run ``(worker, seed, reps, n_cols, stream)``:
    ``worker(rng, count)`` over every chunk of the plan, chunk ``c`` on
    ``chunk_stream(seed, c, stream)``, results in chunk order."""
    return map_runs([(worker, seed, reps, n_cols, stream)])[0]


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


def running_at(ufunc: np.ufunc, side: np.ndarray, levels) -> np.ndarray:
    """``ufunc.accumulate(side, axis=1)`` read at ``levels`` only, for ``ufunc``
    np.maximum or np.add.

    Column j of the (rows, len(levels)) result reduces the first ``levels[j]``
    columns of each row of ``side`` (level k is column k - 1); the levels
    increase from 1. Columns past the last level are never read: one
    ``ufunc.reduceat`` over the segments between the levels, then a running
    combine over those few segments. A side with a negative column stride
    (the negative lags of a path, read outward from the origin) is reduced
    in memory order, its segments mirrored. Maxima equal the accumulate's
    exactly; sums add pairwise within a segment, so they may differ in the
    last bits.

    Maxima of a side at most NARROW_MAX_COLUMNS wide are combined a column
    at a time instead, on either stride sign; that is exact too.

    The result is Fortran-ordered, as ``accumulate(side, axis=1)[:, levels - 1]``
    is, so sums over its rows add in the same order.
    """
    width = int(levels[-1])
    if ufunc is np.maximum and width <= NARROW_MAX_COLUMNS:
        seg = np.empty((len(side), len(levels)), order="F")
        top, start = side[:, 0].copy(), 1
        for j, level in enumerate(levels):
            for k in range(start, level):
                np.maximum(top, side[:, k], out=top)
            seg[:, j] = top
            start = level
        return seg
    if side.strides[1] < 0:
        seg = ufunc.reduceat(side[:, width - 1::-1], [width - k for k in reversed(levels)], axis=1)[:, ::-1]
    else:
        seg = ufunc.reduceat(side[:, :width], [0, *levels[:-1]], axis=1)
    seg = np.asfortranarray(seg)
    # a column at a time: accumulate along a short axis pays a loop per row
    for j in range(1, len(levels)):
        ufunc(seg[:, j - 1], seg[:, j], out=seg[:, j])
    return seg


def _chunk_sums(values: np.ndarray, count: int) -> tuple[int, np.ndarray, np.ndarray]:
    v = np.reshape(values, (count, -1))
    return count, v.sum(axis=0), np.square(v).sum(axis=0)


def reduce_moments(partials: Sequence[tuple[int, np.ndarray, np.ndarray]]) -> tuple[np.ndarray, np.ndarray]:
    """Mean and standard error per column from per-chunk (count, sum, sumsq), added in chunk order."""
    n, s1, s2 = 0, 0.0, 0.0
    for count, a, b in partials:
        n, s1, s2 = n + count, s1 + a, s2 + b
    var = (s2 - np.square(s1) / n) / (n - 1)
    return s1 / n, np.sqrt(np.maximum(var, 0.0) / n)


def run_all(runs: Sequence[tuple]) -> list[tuple[np.ndarray, np.ndarray] | dict]:
    """``run`` of each of several seeded runs ``(worker, seed, reps, n_cols,
    stream)``, their chunks mapped on one pool (``map_runs``).

    Each run keeps its own streams and chunk plan and is reduced in its own
    chunk order, so its result is the one ``run`` gives it alone, for every
    thread count.
    """
    summed = [(_summed(worker), *rest) for worker, *rest in runs]
    # a single run maps through map_chunks, the one-run entry point that traces wrap
    partials = [map_chunks(*summed[0])] if len(summed) == 1 else map_runs(summed)
    return [_reduce(p) for p in partials]


def run(
    worker: Callable[[np.random.Generator, int], np.ndarray | dict],
    seed: int,
    reps: int,
    n_cols: int,
    stream: int = 0,
) -> tuple[np.ndarray, np.ndarray] | dict:
    """Mean and standard error per column of the values ``worker(rng, count)`` returns.

    ``worker`` returns the per-replication values of one chunk: a (count,) or
    (count, k) array, or, for runs whose estimators share paths, a dict of
    such arrays, in which case a dict of (mean, stderr) pairs is returned.
    Each chunk is reduced to its count, sum and sum of squares on the thread
    that ran it, so no more than one chunk of values is held per thread.
    ``stream`` selects the run's streams (``map_chunks``). This is the
    one-run case of ``run_all``.
    """
    return run_all([(worker, seed, reps, n_cols, stream)])[0]


def _summed(worker: Callable[[np.random.Generator, int], np.ndarray | dict]) -> Callable:
    """``worker`` with each chunk's values reduced to (count, sum, sumsq) per column."""

    @functools.wraps(worker)  # keeps the caller's __module__, by which traces attribute chunk time
    def sums(rng: np.random.Generator, count: int):
        values = worker(rng, count)
        if isinstance(values, dict):
            return {key: _chunk_sums(v, count) for key, v in values.items()}
        return _chunk_sums(values, count)

    return sums


def _reduce(partials: list) -> tuple[np.ndarray, np.ndarray] | dict:
    if isinstance(partials[0], dict):
        return {key: reduce_moments([p[key] for p in partials]) for key in partials[0]}
    return reduce_moments(partials)


def doubling_stable(means: np.ndarray, ses: np.ndarray) -> bool:
    """Doubling rule over estimates at two or more levels, each twice the one
    before: True when the last moved from the one before by at most
    DOUBLING_TOL of its standard error."""
    return bool(abs(means[-1] - means[-2]) <= DOUBLING_TOL * ses[-1])
