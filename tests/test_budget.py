"""Caps from declared costs: each route's declared peak bytes against what it
allocates (``tracemalloc``), refusal before allocation, and the fork rule that
reads the declared multiply-adds."""

import tracemalloc

import pytest

from tprslab import ensembles, linalg, sampling
from tprslab.cli import main
from tprslab.ensembles import EnsembleSpec, haar_moment, haar_moment_cost, mc_ensemble_moment, mc_moment_cost
from tprslab.errors import DimensionCapExceeded
from tprslab.growth import GrowthClass, advise_subset_size
from tprslab.linalg import PartitionSpec, gather_cost, symmetric_projector
from tprslab.randprims import RngSeed
from tprslab.resources import ResourceMeasure

# declared peak bytes lie between the traced peak and FACTOR times it
# (the largest ratio measured below is 3.3, for subset-kind moments)
FACTOR = 4.0


def traced_peak(call) -> int:
    """Peak bytes ``tracemalloc`` sees during ``call()``, with the basis and Haar caches empty."""
    linalg._symmetric_basis.cache_clear()
    ensembles._haar_moment.cache_clear()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_declared_bounds(declared: int, peak: int) -> None:
    assert peak <= declared <= FACTOR * peak, (declared, peak)


@pytest.mark.parametrize("n,t", [(3, 3), (5, 2)])
class TestDeclaredPeakBoundsTheTracedPeak:
    def test_haar_moment(self, n, t):
        assert_declared_bounds(haar_moment_cost(n, t)[0], traced_peak(lambda: haar_moment(n, t)))

    def test_symmetric_projector(self, n, t):
        assert_declared_bounds(gather_cost(n, t)[0], traced_peak(lambda: symmetric_projector(n, t)))

    @pytest.mark.parametrize("kind,m", [("haar", None), ("subset-phase-true-random", 4)])
    @pytest.mark.parametrize("samples", [250, 3000])
    def test_monte_carlo_moment_and_its_gather(self, n, t, kind, m, samples):
        spec = EnsembleSpec(kind, n, m=m, t=t, seed=RngSeed(1))
        est = []
        peak = traced_peak(lambda: est.append(mc_ensemble_moment(spec, samples)))
        assert_declared_bounds(mc_moment_cost(spec, samples)[0], peak)
        op = est[0].operator
        assert_declared_bounds(gather_cost(n, t, op.block.itemsize)[0], traced_peak(lambda: op.mat))


@pytest.mark.parametrize("n", [8, 12])
@pytest.mark.parametrize("kind", ["haar", "subset-phase-true-random", "subset-keyed"])
@pytest.mark.parametrize("name", ["coherence-re", "entanglement-entropy", "stabilizer-renyi"])
def test_sampled_chunk(name, kind, n, monkeypatch):
    # one inline chunk of 1024 rows: the values, a sub-block's draw and its statistic
    if name == "stabilizer-renyi":
        n -= 4  # the Pauli route's time grows as 4^n; its slices keep memory flat
    part = PartitionSpec(n // 2, n - n // 2) if name == "entanglement-entropy" else None
    measure = ResourceMeasure(name, partition=part, alpha=3 if name == "stabilizer-renyi" else None)
    spec = EnsembleSpec(kind, n, m=None if kind == "haar" else 16, seed=RngSeed(2))
    monkeypatch.setattr(sampling, "FORK_MIN_MADDS", 1 << 62)
    means = sampling.paired_value_means
    peak = traced_peak(lambda: means(RngSeed(1), 1024, (measure.statistic,), sources=(spec,), costs=(measure.cost,)))
    assert_declared_bounds(sampling.chunk_cost(1024, (measure.cost,), (spec,))[0], peak)


class TestRefusedBeforeAllocating:
    """Over the default budget a route raises (the CLI exits 3) having allocated
    almost nothing: less than 1 MB traced, the parser and argument checks included."""

    def test_distance_at_t7_exits_3(self, capsys):
        main(["distance", "--kind", "subset", "--n", "3", "--t", "2", "--m", "2"])  # imports, parser
        capsys.readouterr()
        codes = []
        argv = ["distance", "--kind", "subset", "--n", "20", "--t", "7", "--m", "64"]
        peak = traced_peak(lambda: codes.append(main(argv)))
        assert codes == [3] and peak < 1 << 20
        assert "resource limit: exact distance route needs" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "call",
        [lambda: mc_ensemble_moment(EnsembleSpec("haar", 8, t=4), 100), lambda: haar_moment(10, 4)],
        ids=["monte-carlo-moment", "haar-moment"],
    )
    def test_moments_raise(self, call):
        def raises():
            with pytest.raises(DimensionCapExceeded, match="over the TPRS_MEM_CAP budget"):
                call()

        assert traced_peak(raises) < 1 << 20


class _Decided(Exception):
    """Raised by the fork spy once the engine has chosen its worker count."""


def fork_decision(argv: list[str], monkeypatch) -> bool:
    """Whether the CLI run's Monte-Carlo call would fork on two cores; nothing is sampled."""
    decisions = []

    def spy(fn, count, workers):
        decisions.append(min(workers, count) > 1)
        raise _Decided

    monkeypatch.setattr(sampling, "usable_cores", lambda: 2)
    monkeypatch.setattr(sampling, "forked_map", spy)
    with pytest.raises(_Decided):
        main(argv)
    (decision,) = decisions
    return decision


# every Monte-Carlo command of the benchmark's mc-resource and hybrid-magic workloads
_COHERENCE_8 = ["gap", "--measure", "coherence-re", "--n", "8", "--e1", "haar", "--samples", "2000"]
BENCHMARK_FORKS = [
    (_COHERENCE_8 + ["--e2", "subset-phase-keyed:m=16"], True),
    (["gap", "--measure", "entanglement-entropy", "--n", "8", "--e1", "haar", "--e2", "subset-keyed:m=16",
      "--samples", "2000"], True),
    (_COHERENCE_8 + ["--e2", "subset-phase-true-random:m=16", "--threads", "1"], True),
    (_COHERENCE_8 + ["--e2", "subset-phase-true-random:m=16", "--threads", "2"], True),
    (["sweep", "--measure", "entanglement-entropy", "--n", "8..10", "--classes", "log,linear", "--samples", "2000"],
     True),
    (["hybrid", "--n", "3", "--m", "4", "--distinguishers", "coherence,swap", "--samples", "1000"], False),
    (["prop-check", "--prop", "7", "--n", "6", "--T", "log", "--e1", "haar", "--e2", "subset-phase-keyed:m=8",
      "--samples", "2000"], False),
    (["gap", "--measure", "magic", "--n", "4", "--e1", "haar", "--e2", "subset-phase-keyed:m=4", "--samples", "1000"],
     False),
    (["prop-check", "--prop", "9", "--n", "3", "--T", "log", "--e1", "haar", "--e2", "subset-phase-true-random:m=4",
      "--samples", "1000"], False),
]


@pytest.mark.parametrize("argv,forks", BENCHMARK_FORKS, ids=[" ".join(a[:4]) for a, _ in BENCHMARK_FORKS])
def test_benchmark_fork_decisions(argv, forks, monkeypatch):
    assert fork_decision(argv, monkeypatch) is forks


def test_two_chunk_magic_gap_forks(monkeypatch):
    # 2 chunks of n = 5 Pauli sums, 1.4x faster forked; the amplitude-read rule kept them inline
    argv = ["gap", "--measure", "magic", "--n", "5", "--e1", "haar", "--e2", "subset-phase-keyed:m=16",
            "--samples", "2048"]
    assert fork_decision(argv, monkeypatch)


def test_sweep_measures_every_row_past_n12(capsys):
    code = main(["sweep", "--measure", "entanglement-entropy", "--n", "12..14", "--classes", "log", "--samples", "200"])
    rows = capsys.readouterr().out.splitlines()[1:]
    assert code == 0 and [row.split(",")[2] for row in rows] == ["12", "13", "14"]
    assert all(row.split(",")[4] != "" for row in rows)


def test_sweep_over_budget_exits_3_naming_the_first_n(monkeypatch, capsys):
    def fail(*args):
        raise AssertionError("states drawn before every row was checked")

    # from n = 15 a sub-block is one row of 2^n amplitudes, so each row's chunk
    # declares more than the last: a budget one byte short of n = 16's admits n = 15
    def chunk_bytes(n):
        spec = EnsembleSpec("subset-phase-true-random", n, m=advise_subset_size(GrowthClass.parse("log"), n).m)
        return sampling.chunk_cost(200, (measure.cost,), (spec,))[0]

    measure = ResourceMeasure("coherence-re")
    assert chunk_bytes(15) < chunk_bytes(16) < chunk_bytes(17)
    monkeypatch.setattr(ensembles, "sample_block", fail)
    monkeypatch.setenv("TPRS_MEM_CAP", str(chunk_bytes(16) - 1))
    code = main(["sweep", "--measure", "coherence-re", "--n", "15..17", "--classes", "log", "--samples", "200"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.startswith(f"resource limit: sweep row n = 16: its Monte-Carlo chunk needs {chunk_bytes(16):,} bytes")
