"""Deterministic block Monte-Carlo engine.

Work is split into fixed-size chunks addressed by index. In chunk c, every
source (an ensemble spec) draws its rows from a generator seeded by
(seed, c, ensemble seed), as consecutive sub-blocks of at most SUB_BLOCK_AMPS
amplitudes, and every statistic of that source is read from the same
sub-block. Each sub-block is one row-major generator call, so a chunk's rows
are the same bits however it is cut into sub-blocks. Sources sharing an
ensemble seed get identically seeded generators, so identical specs draw
identical rows (common random numbers: a same-spec, same-seed gap is exactly
0) while distinct ensemble seeds decorrelate.
Chunks are dealt round-robin to one worker per usable core (the CPU affinity
mask, read at each call): the calling process runs the first share and forked
children run the others, each returning only its chunks' accumulators.
Those merge in chunk index order, so an estimate depends only on
(seed, samples), bit for bit, whatever the worker count and the sub-block
size; ``taskset -c 0`` gives a serial run. Chunks whose declared work
(``chunk_cost``) is under FORK_MIN_MADDS multiply-adds run inline, and a chunk
whose declared peak bytes exceed the budget is refused before anything is drawn.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import check_budget
from .errors import ValidationError
from .forkmap import forked_map

if TYPE_CHECKING:
    from .randprims import RngSeed

__all__ = ["MeanAccumulator", "chunk_cost", "chunk_layout", "paired_value_means", "usable_cores"]

DEFAULT_CHUNK = 1024
# Amplitudes per drawn sub-block (256 KiB of float64 for the subset kinds, 512 KiB
# of complex128 for Haar and stabilizer rows). Each sub-block pays a fixed cost
# per draw and per measure call (tens of microseconds, hundreds for keyed
# rows), which 2^13 sub-blocks (8 rows at n = 10) left dominant on mc-resource;
# see BENCH_17.json. On a 2-core VM, 2^17 was at most 7% faster there than 2^15
# (0.450 and 0.433 s against 0.453 and 0.464 s, 15 s runs) and used 4.5 MB
# (+10%) more peak memory, the benchmark's bound on memory growth.
SUB_BLOCK_AMPS = 1 << 15
# Chunks fork only from this many declared multiply-adds (``chunk_cost``). A fork
# and its wait cost about 2 ms on a 2-core VM, where a 1024-row chunk of the n = 6
# prop-check (3.7e6) took 4 ms, of an n = 7 coherence gap (7.5e6) 7 ms, and of an
# n = 5 magic gap (8.9e7) 12 ms, 1.4x faster forked.
FORK_MIN_MADDS = 5_000_000


def chunk_layout(samples: int, chunk: int = DEFAULT_CHUNK) -> list[tuple[int, int, int]]:
    """(chunk_index, start_offset, size) triples covering ``samples`` draws."""
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    return [(idx, start, min(chunk, samples - start)) for idx, start in enumerate(range(0, samples, chunk))]


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


def usable_cores() -> int:
    """Cores this process may run on (its CPU affinity mask); 1 where unknown."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return 1


def _by_source(sources) -> dict:
    """Stream indices by source, in first-seen order."""
    groups: dict = {}
    for k, spec in enumerate(sources):
        groups.setdefault(spec, []).append(k)
    return groups


def chunk_cost(rows: int, costs, sources) -> tuple[int, int]:
    """Declared (peak bytes, multiply-adds) of a chunk of ``rows`` draws and the streams'
    statistics (``costs[k](rows, n)``): its values and largest sub-block, and all work."""
    from .ensembles import sample_block_cost  # ensembles imports this module

    peak = madds = 0
    for spec, streams in _by_source(sources).items():
        sub = min(rows, max(1, SUB_BLOCK_AMPS // spec.dim))
        draw = sample_block_cost(spec, sub)
        stats = [costs[k](sub, spec.n) for k in streams]
        peak = max(peak, draw[0] + max(b for b, _ in stats))
        madds += (draw[1] + sum(w for _, w in stats)) * rows // sub
    return peak + 8 * len(costs) * rows, madds


def paired_value_means(
    seed: RngSeed,
    samples: int,
    value_fns,
    chunk: int = DEFAULT_CHUNK,
    *,
    sources,
    costs,
) -> list[MeanAccumulator]:
    """Per-stream means; stream k calls ``value_fns[k](block, n)`` on the (rows, 2^n)
    amplitude blocks of ensemble ``sources[k]``, at a declared cost ``costs[k](rows, n)``.

    Streams with equal sources read the same rows, drawn once. Chunks of at
    least FORK_MIN_MADDS declared multiply-adds run on every usable core (see
    ``forked_map``); all merge in index order.
    """
    from .ensembles import sample_block  # ensembles imports this module

    n_streams = len(value_fns)
    if len(sources) != n_streams or len(costs) != n_streams:
        raise ValidationError("one source per value stream required, and one cost")
    groups = _by_source(sources)
    layout = chunk_layout(samples, chunk)
    peak, madds = chunk_cost(layout[0][2], costs, sources)
    check_budget("Monte-Carlo chunk", peak)

    def run_chunk(c: int) -> list[MeanAccumulator]:
        idx, _, size = layout[c]
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
    workers = usable_cores() if madds >= FORK_MIN_MADDS else 1
    for accs in forked_map(run_chunk, len(layout), workers):
        for total, acc in zip(totals, accs):
            total.merge(acc)
    return totals
