import json
import os
import signal
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab import ensembles, forkmap, sampling
from tprslab.bounds import empirical_prop_check
from tprslab.distinguishers import TRIANGLE_ALPHA, hybrid_experiment
from tprslab.ensembles import EnsembleSpec
from tprslab.errors import ValidationError
from tprslab.growth import GrowthClass
from tprslab.randprims import RngSeed
from tprslab.resources import ResourceMeasure, estimate_gap
from tprslab.sampling import MeanAccumulator, chunk_layout, paired_value_means


class TestMeanAccumulator:
    def test_chan_merge_matches_numpy(self):
        values = np.random.default_rng(0).normal(3.0, 2.0, size=5000)
        acc = MeanAccumulator()
        for part in np.split(values, [1, 7, 1024, 1025, 3000]):
            acc.merge(MeanAccumulator.of(part))
        assert acc.count == values.size
        assert abs(acc.mean - values.mean()) <= 1e-12
        assert abs(acc.stderr - values.std(ddof=1) / np.sqrt(values.size)) <= 1e-12

    def test_constant_stream_has_exactly_zero_stderr(self):
        acc = MeanAccumulator()
        for size in (1024, 1024, 333):
            acc.merge(MeanAccumulator.of(np.full(size, 4.0)))
        assert acc.mean == 4.0
        assert acc.stderr == 0.0

    def test_empty_merges_are_no_ops(self):
        acc = MeanAccumulator()
        acc.merge(MeanAccumulator())
        acc.merge(MeanAccumulator.of(np.array([])))
        assert acc.count == 0 and acc.stderr == 0.0


class TestLayout:
    def test_chunk_layout_rejects_no_samples(self):
        with pytest.raises(ValidationError):
            chunk_layout(0)

    def test_chunk_layout_covers_samples(self):
        assert chunk_layout(2500, 1024) == [(0, 0, 1024), (1, 1024, 1024), (2, 2048, 452)]


class TestPairedValueMeans:
    def _stat(self):
        return ResourceMeasure("coherence-hs").statistic

    def test_sources_must_match_streams(self):
        spec = EnsembleSpec("haar", 3)
        with pytest.raises(ValidationError):
            paired_value_means(RngSeed(1), 10, (self._stat(), self._stat()), sources=(spec,))

    def test_repeat_calls_give_identical_results(self):
        # the result depends only on (seed, samples, sources): chunks run in index order
        specs = (EnsembleSpec("haar", 5, seed=RngSeed(1)), EnsembleSpec("subset-phase-keyed", 5, m=4, seed=RngSeed(2)))
        stat = ResourceMeasure("coherence-re").statistic
        first, again = (paired_value_means(RngSeed(3), 2500, (stat, stat), sources=specs) for _ in range(2))
        assert again == first

    def test_shared_source_is_drawn_once(self, monkeypatch):
        calls = []
        original = ensembles.sample_block

        def spy(spec, count, rng):
            calls.append((spec.kind, count))
            return original(spec, count, rng)

        monkeypatch.setattr(ensembles, "sample_block", spy)
        spec = EnsembleSpec("haar", 3)
        a, b = paired_value_means(RngSeed(1), 100, (self._stat(), self._stat()), sources=(spec, spec))
        assert calls == [("haar", 100)]
        assert a == b

    def test_equal_ensemble_seeds_give_common_random_numbers(self):
        stat = self._stat()
        x = EnsembleSpec("haar", 3, seed=RngSeed(5))
        y = EnsembleSpec("haar", 3, t=2, seed=RngSeed(5))
        z = EnsembleSpec("haar", 3, seed=RngSeed(6))
        ax, ay, az = paired_value_means(RngSeed(1), 300, (stat, stat, stat), sources=(x, y, z))
        assert ax == ay
        assert ax.mean != az.mean

    def test_sub_blocks_cover_large_states(self):
        spec = EnsembleSpec("subset-phase-true-random", 14, m=16)
        (acc,) = paired_value_means(RngSeed(2), 5, (ResourceMeasure("coherence-re").statistic,), sources=(spec,))
        assert acc.count == 5 and acc.mean == 4.0 and acc.stderr == 0.0


class TestDrawOnce:
    def _count_draws(self, monkeypatch):
        calls = []
        original = ensembles.sample_block

        def spy(spec, count, rng):
            calls.append((spec.kind, spec.seed.seed))
            return original(spec, count, rng)

        monkeypatch.setattr(ensembles, "sample_block", spy)
        return calls

    def test_hybrid_draws_each_ensemble_once(self, monkeypatch):
        calls = self._count_draws(monkeypatch)
        rep = hybrid_experiment(3, 4, 2, seed=1, samples=200, names=("coherence", "swap"))
        # chained legs share ensemble seed 0; the direct leg draws afresh at seed 1
        chain = [("haar", 0), ("subset-phase-keyed", 0), ("subset-phase-true-random", 0)]
        assert sorted(calls) == sorted(chain + [("haar", 1), ("subset-phase-keyed", 1)])
        assert len(rep.legs) == 6

    def test_hybrid_triangle_check_catches_an_inconsistent_leg(self, monkeypatch):
        original = ensembles.sample_block

        def broken(spec, count, rng):
            # a faulty sampler for the direct leg's keyed ensemble: basis states
            block = original(spec, count, rng)
            if spec.kind == "subset-phase-keyed" and spec.seed.seed == 1:
                block = np.zeros_like(block)
                block[:, 0] = 1.0
            return block

        assert hybrid_experiment(3, 4, 2, seed=1, samples=400, names=("coherence",)).triangle_ok
        monkeypatch.setattr(ensembles, "sample_block", broken)
        assert not hybrid_experiment(3, 4, 2, seed=1, samples=400, names=("coherence",)).triangle_ok

    @pytest.mark.parametrize("excess, caught", [(6.0, True), (4.0, False)])
    def test_triangle_slack_is_set_by_alpha(self, excess, caught, monkeypatch):
        # legs keyed-vs-true 0, true-vs-haar 0.1 and keyed-vs-haar 0.1 + excess
        # summed stderrs; the slack is z_(1 - alpha) = 4.75 summed stderrs
        from tprslab import distinguishers

        assert TRIANGLE_ALPHA == 1e-6
        count, se = 1000, 0.002
        total_se = 3 * np.hypot(se, se)
        means = (0.5, 0.5, 0.4, 0.5 + excess * total_se, 0.4)  # keyed, true, haar, then the direct draws

        def stub(seed, samples, value_fns, chunk=sampling.DEFAULT_CHUNK, *, sources):
            return [MeanAccumulator(count, means[k % 5], se * se * count * (count - 1)) for k in range(len(sources))]

        monkeypatch.setattr(distinguishers, "paired_value_means", stub)
        rep = hybrid_experiment(3, 4, 2, samples=count, names=("coherence",))
        assert [leg.report.stderr for leg in rep.legs] == pytest.approx([np.hypot(se, se)] * 3)
        assert rep.triangle_ok is not caught

    def test_prop_check_draws_the_low_ensemble_once(self, monkeypatch):
        calls = self._count_draws(monkeypatch)
        empirical_prop_check(
            7,
            EnsembleSpec("haar", 3),
            EnsembleSpec("subset-phase-true-random", 3, m=4),
            GrowthClass.parse("log"),
            200,
            seed=1,
        )
        assert sorted(calls) == [("haar", 0), ("subset-phase-true-random", 0)]

    def test_m16_coherence_low_side_is_exact(self):
        rep = estimate_gap(
            ResourceMeasure("coherence-re"),
            EnsembleSpec("haar", 8),
            EnsembleSpec("subset-phase-keyed", 8, m=16),
            samples=2500,
            seed=RngSeed(11),
        )
        assert rep.e_low == (4.0, 0.0)


def _bits(accs):
    return [(a.count, a.mean.hex(), a.m2.hex()) for a in accs]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _pid_values(block, n):
    return np.full(len(block), float(os.getpid()))


class TestForkedChunks:
    """Chunk shares in forked workers: the same bits for any worker count."""

    @pytest.fixture(autouse=True)
    def fork_every_chunk(self, monkeypatch):
        monkeypatch.setattr(sampling, "FORK_MIN_READS", 0)
        self.monkeypatch = monkeypatch

    def _means(self, workers, samples, sources, chunk=sampling.DEFAULT_CHUNK, fns=None):
        self.monkeypatch.setattr(sampling, "usable_cores", lambda: workers)
        stat = ResourceMeasure("coherence-re").statistic
        fns = fns or (stat,) * len(sources)
        return paired_value_means(RngSeed(4), samples, fns, chunk, sources=sources)

    @pytest.mark.parametrize(
        "samples, chunk",
        [(700, 1024), (2500, 1024), (1500, 1024), (333, 40)],
        ids=["one-chunk", "partial-last-chunk", "more-workers-than-chunks", "many-chunks"],
    )
    def test_worker_count_never_changes_a_result(self, samples, chunk):
        haar = EnsembleSpec("haar", 4, seed=RngSeed(1))
        keyed = EnsembleSpec("subset-phase-keyed", 4, m=4, seed=RngSeed(2))
        sources = (haar, keyed, haar)  # streams 0 and 2 share a source
        serial = _bits(self._means(1, samples, sources, chunk))
        for workers in (2, 3):
            assert _bits(self._means(workers, samples, sources, chunk)) == serial
        _assert_no_child_left()

    @settings(max_examples=12, deadline=None)
    @given(samples=st.integers(1, 400), chunk=st.integers(1, 160), workers=st.integers(2, 3))
    def test_property_forked_equals_serial(self, samples, chunk, workers):
        sources = (EnsembleSpec("subset-phase-true-random", 3, m=2), EnsembleSpec("haar", 3))
        assert _bits(self._means(workers, samples, sources, chunk)) == _bits(self._means(1, samples, sources, chunk))

    def test_magic_stream_in_children_gives_the_serial_bits(self):
        # a magic stream's Pauli transforms are BLAS matmuls, here run in forked children
        magic = ResourceMeasure("stabilizer-renyi", alpha=3).statistic
        sources = (EnsembleSpec("haar", 7),)
        assert len(chunk_layout(256, 128)) == 2
        serial = _bits(self._means(1, 256, sources, 128, fns=(magic,)))
        assert _bits(self._means(2, 256, sources, 128, fns=(magic,))) == serial
        _assert_no_child_left()

    def test_chunks_run_in_children(self):
        parent = os.getpid()
        pids = forkmap.forked_map(lambda i: os.getpid(), 3, 2)
        assert pids[0] == pids[2] == parent != pids[1]
        _assert_no_child_left()

    def test_small_chunks_run_inline(self):
        self.monkeypatch.setattr(sampling, "FORK_MIN_READS", 1 << 18)
        parent = float(os.getpid())
        small = (EnsembleSpec("haar", 3),)  # 1024 rows x 8 amplitudes per chunk
        large = (EnsembleSpec("haar", 8),)  # 1024 rows x 256 amplitudes per chunk
        assert self._means(2, 2048, small, fns=(_pid_values,))[0].mean == parent
        assert self._means(2, 2048, large, fns=(_pid_values,))[0].mean != parent

    def test_another_thread_keeps_chunks_inline(self):
        release = threading.Event()
        helper = threading.Thread(target=release.wait, args=(30,))
        helper.start()
        try:
            (acc,) = self._means(2, 2048, (EnsembleSpec("haar", 3),), fns=(_pid_values,))
        finally:
            release.set()
            helper.join(timeout=30)
        assert not helper.is_alive()
        assert acc.mean == float(os.getpid())

    def test_error_raised_only_in_a_child_is_raised(self):
        parent = os.getpid()

        def fails_in_child(block, n):
            if os.getpid() != parent:
                raise ValidationError("child-only failure")
            return np.zeros(len(block))

        with pytest.raises(ValidationError, match="child-only") as info:
            self._means(2, 2048, (EnsembleSpec("haar", 3),), fns=(fails_in_child,))
        assert "fails_in_child" in str(info.value.__cause__)  # the child's traceback
        _assert_no_child_left()

    def test_child_killed_by_a_signal_gives_the_serial_result(self):
        parent = os.getpid()
        stat = ResourceMeasure("coherence-re").statistic

        def dies_in_child(block, n):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return stat(block, n)

        sources = (EnsembleSpec("haar", 3),)
        serial = _bits(self._means(1, 2500, sources))
        assert _bits(self._means(3, 2500, sources, fns=(dies_in_child,))) == serial
        _assert_no_child_left()

    def test_failed_fork_runs_the_share_inline(self):
        def no_fork():
            raise OSError("fork refused")

        sources = (EnsembleSpec("haar", 3),)
        serial = _bits(self._means(1, 2500, sources))
        self.monkeypatch.setattr(forkmap.os, "fork", no_fork)
        assert _bits(self._means(2, 2500, sources)) == serial

    def test_failure_in_the_callers_share_kills_the_children(self):
        parent = os.getpid()

        def fails_here_children_hang(block, n):
            if os.getpid() == parent:
                raise ValueError("caller's share failed")
            time.sleep(60)

        start = time.perf_counter()
        with pytest.raises(ValueError, match="caller's share"):
            self._means(3, 2500, (EnsembleSpec("haar", 3),), fns=(fails_here_children_hang,))
        assert time.perf_counter() - start < 30
        _assert_no_child_left()


# gaps that together draw every ensemble kind at n = 3 (the stabilizer orbit
# stops there), and every other kind at n = 8 and 10
_CUT_GAPS = {
    3: [("haar", "stabilizer-orbit"), ("subset-phase-keyed:m=4", "subset-keyed:m=3"),
        ("subset-phase-true-random:m=4", "subset-true-random:m=5")],
    8: [("haar", "subset-phase-keyed:m=16"), ("subset-keyed:m=16", "subset-phase-true-random:m=16"),
        ("subset-true-random:m=16", "haar")],
    10: [("haar", "subset-phase-keyed:m=32"), ("subset-keyed:m=32", "subset-phase-true-random:m=32"),
         ("subset-true-random:m=32", "haar")],
}


class TestSubBlockSize:
    """A result reads the same bits however chunks are cut into sub-blocks:
    every sampler draws a sub-block with one row-major generator call."""

    def _rows(self, argv, monkeypatch, capsys, sub_block=None, workers=None):
        from tprslab.cli import main

        with monkeypatch.context() as patch:
            if sub_block is not None:
                patch.setattr(sampling, "SUB_BLOCK_AMPS", sub_block)
            if workers is not None:  # forked on 2 workers, or inline on one
                patch.setattr(sampling, "FORK_MIN_READS", 0)
                patch.setattr(sampling, "usable_cores", lambda: workers)
            assert main([*argv, "--samples", "1100", "--seed", "3", "--format", "json"]) == 0
        return json.loads(capsys.readouterr().out)["rows"]

    @pytest.mark.parametrize("n", sorted(_CUT_GAPS))
    def test_gap_and_sweep_rows_do_not_depend_on_the_cut(self, n, monkeypatch, capsys):
        commands = [["gap", "--measure", "entanglement-entropy", "--n", str(n), "--e1", e1, "--e2", e2]
                    for e1, e2 in _CUT_GAPS[n]]
        # the sweep's table starts at n = 4
        commands.append(["sweep", "--measure", "entanglement-entropy", "--n", str(max(n, 4)), "--classes", "log,linear"])
        for argv in commands:
            default = self._rows(argv, monkeypatch, capsys)
            if argv[0] == "sweep":
                assert all(row["measured"] is not None for row in default)
            for sub_block in (1 << 9, 1 << 20):
                for workers in (1, 2):
                    assert self._rows(argv, monkeypatch, capsys, sub_block, workers) == default, (argv, sub_block)
        _assert_no_child_left()
