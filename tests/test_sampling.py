import numpy as np
import pytest

from tprslab import ensembles
from tprslab.bounds import empirical_prop_check
from tprslab.distinguishers import hybrid_experiment
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
