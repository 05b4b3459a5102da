"""Deterministic block Monte-Carlo engine.

Work is split into fixed-size chunks addressed by index. In chunk c, every
source (an ensemble spec) draws its rows from a generator seeded by
(seed, c, ensemble seed), as consecutive sub-blocks of at most SUB_BLOCK_AMPS
amplitudes, and every statistic of that source is read from the same
sub-block. Sources sharing an ensemble seed get identically seeded
generators, so identical specs draw identical rows (common random numbers: a
same-spec, same-seed gap is exactly 0) while distinct ensemble seeds
decorrelate.
Per-chunk means and squared deviations merge in chunk order, so an estimate
depends only on (seed, samples) and is byte-identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .randprims import RngSeed

__all__ = ["MeanAccumulator", "chunk_layout", "run_ordered", "paired_value_means"]

DEFAULT_CHUNK = 1024
# Amplitudes per drawn sub-block (64 KiB of float64 for the subset kinds, 128 KiB
# of complex128 for Haar and stabilizer rows). Each worker thread's
# allocator keeps its sub-block working set: 1 MiB sub-blocks raised a
# gap-and-sweep run's peak memory by ~10 MB and were no faster.
SUB_BLOCK_AMPS = 1 << 13


def chunk_layout(samples: int, chunk: int = DEFAULT_CHUNK) -> list[tuple[int, int, int]]:
    """(chunk_index, start_offset, size) triples covering ``samples`` draws."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    return [(idx, start, min(chunk, samples - start)) for idx, start in enumerate(range(0, samples, chunk))]


def run_ordered(worker, count: int, threads: int = 1) -> list:
    """Evaluate worker(0..count-1), merged in index order regardless of threads.

    The pool never has more workers than tasks or usable cores.
    """
    workers = min(threads, count, os.cpu_count() or 1)
    if workers <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, range(count)))


@dataclass
class MeanAccumulator:
    """Count, mean and sum of squared deviations (M2) of a scalar stream."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    @classmethod
    def of(cls, values: np.ndarray) -> "MeanAccumulator":
        v = np.asarray(values, dtype=float).reshape(-1)
        mean = float(v.mean()) if v.size else 0.0
        return cls(v.size, mean, float(np.sum((v - mean) ** 2)))

    def merge(self, other: "MeanAccumulator") -> None:
        """Chan et al.'s pairwise update; a constant stream keeps M2 exactly 0."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return float(np.sqrt(self.m2 / (self.count - 1) / self.count))


def paired_value_means(
    seed: RngSeed,
    samples: int,
    value_fns,
    threads: int = 1,
    chunk: int = DEFAULT_CHUNK,
    *,
    sources,
) -> list[MeanAccumulator]:
    """Per-stream means; stream k calls ``value_fns[k](block, n)`` on the
    (rows, 2^n) amplitude blocks of ensemble ``sources[k]``.

    Streams with equal sources read the same rows, drawn once.
    """
    from .ensembles import sample_block  # ensembles imports this module

    n_streams = len(value_fns)
    if len(sources) != n_streams:
        raise ValidationError("one source per value stream required")
    layout = chunk_layout(samples, chunk)
    groups: dict[tuple, list[int]] = {}
    for k, spec in enumerate(sources):
        groups.setdefault(spec, []).append(k)

    def worker(i: int) -> list[MeanAccumulator]:
        idx, _, size = layout[i]
        values = np.empty((n_streams, size))
        for spec, streams in groups.items():
            rng = seed.generator(idx, spec.seed.seed)
            rows = max(1, SUB_BLOCK_AMPS // spec.dim)
            for lo in range(0, size, rows):
                block = sample_block(spec, min(rows, size - lo), rng)
                for k in streams:
                    values[k, lo : lo + len(block)] = value_fns[k](block, spec.n)
        return [MeanAccumulator.of(v) for v in values]

    totals = [MeanAccumulator() for _ in range(n_streams)]
    for accs in run_ordered(worker, len(layout), threads):
        for total, acc in zip(totals, accs):
            total.merge(acc)
    return totals
