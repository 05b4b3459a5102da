import json
import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest

from tprslab import ensembles
from tprslab.config import check_budget, mem_cap
from tprslab.ensembles import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    haar_moment,
    mc_ensemble_moment,
    sample_block,
    sample_block_cost,
)
from tprslab.errors import BadSubsetExponent, DimensionCapExceeded, DomainCapExceeded, ValidationError
from tprslab.growth import GrowthClass, advise_copies, advise_subset_size
from tprslab.randprims import KEY_BYTES, KeyedPermutation, RngSeed
from tprslab.resources import pauli_power_sums
from tprslab.sampling import SUB_BLOCK_AMPS
from tprslab.symmetry import route_cost

from .util import (
    PLUS,
    copy_transposition_operator,
    exact_subset_moment,
    exact_subset_phase_moment,
    feistel_apply_oracle,
    kron_all,
    mc_ensemble_moment_oracle,
    operator_from_json,
    operator_to_json,
    orbit_fit_z,
    phase_bit_oracle,
    stabilizer_orbit,
)


class TestEnsembleSpec:
    def test_state_vector_cap(self):
        assert EnsembleSpec("haar", 20).dim == 2**20  # at the cap
        with pytest.raises(DomainCapExceeded):
            EnsembleSpec("haar", 21)

    def test_phase_kind_power_of_two(self):
        with pytest.raises(BadSubsetExponent):
            EnsembleSpec("subset-phase-true-random", 3, m=3)

    def test_subset_kind_any_m(self):
        EnsembleSpec("subset-true-random", 3, m=3)

    def test_haar_takes_no_m(self):
        with pytest.raises(ValidationError):
            EnsembleSpec("haar", 2, m=2)

    def test_seed_is_an_int_or_an_rng_seed(self):
        spec = EnsembleSpec("haar", 2, seed=3)
        assert spec.seed == RngSeed(3) == spec.with_seed(RngSeed(3)).seed == spec.with_seed(3).seed


class TestStabilizerOrbit:
    """The breadth-first orbit in tests/util.py, the oracle of the stabilizer sampler."""

    def test_counts(self):
        assert len(stabilizer_orbit(1)) == 6
        assert len(stabilizer_orbit(2)) == 60
        assert len(stabilizer_orbit(3)) == 1080

    def test_normalized(self):
        for v in stabilizer_orbit(2):
            assert abs(np.linalg.norm(v) - 1) < 1e-10


def _fixed_support_dimension(monkeypatch, n):
    """Make the stabilizer sampler draw support dimension k = n on every row."""
    odds = ensembles._stabilizer_tables(n)[1]
    monkeypatch.setattr(ensembles, "_stabilizer_tables", lambda _: (np.where(np.arange(n + 1) < n, 0.0, 1.0), odds))


class TestStabilizerSampler:
    # one-sided 1e-6 tail of the Wilson-Hilferty z of Pearson's chi^2
    FIT_Z = 4.75

    def _fit_z(self, n, seed):
        draws = 300 * len(stabilizer_orbit(n))
        return orbit_fit_z(sample_block(EnsembleSpec("stabilizer-orbit", n), draws, RngSeed(seed).generator()), n)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_uniform_over_the_orbit(self, n):
        assert self._fit_z(n, 600 + n) < self.FIT_Z

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_the_fit_rejects_a_fixed_support_dimension(self, n, monkeypatch):
        # the negative control: full-support stabilizer states only, each in the orbit
        _fixed_support_dimension(monkeypatch, n)
        assert self._fit_z(n, 600 + n) > self.FIT_Z

    @pytest.mark.parametrize("n", range(4, 21))
    def test_unit_norm_past_the_orbit(self, n):
        block = sample_block(EnsembleSpec("stabilizer-orbit", n), 3 if n <= 16 else 1, RngSeed(n).generator())
        assert np.max(np.abs(np.linalg.norm(block, axis=1) - 1)) <= 1e-12

    @pytest.mark.parametrize("n", range(4, 13))
    def test_zero_magic(self, n):
        block = sample_block(EnsembleSpec("stabilizer-orbit", n), 3 if n <= 10 else 1, RngSeed(n).generator())
        for alpha in (2, 3):
            assert np.max(np.abs(pauli_power_sums(block, n, alpha) - 1)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 10, 16])
    @pytest.mark.parametrize("full", [False, True])
    def test_declared_peak_covers_the_traced_peak(self, n, full, monkeypatch):
        # the engine's sub-block, as drawn and with every row at the fullest support
        if full:
            _fixed_support_dimension(monkeypatch, n)
        spec, rows = EnsembleSpec("stabilizer-orbit", n), max(1, SUB_BLOCK_AMPS >> n)
        rng = RngSeed(n).generator()
        tracemalloc.start()
        try:
            sample_block(spec, rows, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= sample_block_cost(spec, rows)[0]


class TestMoments:
    def test_haar_moment_single_copy(self):
        assert np.allclose(haar_moment(1, 1).mat, np.eye(2) / 2)

    @pytest.mark.parametrize("n,t", [(1, 1), (1, 2), (2, 2), (1, 3)])
    def test_haar_moment_trace(self, n, t):
        assert np.trace(haar_moment(n, t).mat) == pytest.approx(1.0, abs=1e-10)

    def test_haar_moment_cached_and_read_only(self):
        op = haar_moment(2, 3)
        assert haar_moment(2, 3) is op
        with pytest.raises(ValueError):
            op.mat[0, 0] = 0

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: haar_moment(2, 2),
            lambda: exact_subset_moment(2, 3, 2),
            lambda: exact_subset_phase_moment(2, 4, 2),
            lambda: mc_ensemble_moment(EnsembleSpec("haar", 2, t=2, seed=RngSeed(3)), 2000).operator,
        ],
    )
    def test_moment_operators_are_valid_density_operators(self, maker):
        # construction checks Hermiticity and the trace; the block's spectrum is the dense one's nonzero part
        assert np.linalg.eigvalsh(maker().block)[0] >= -1e-9

    def test_subset_moment_single_subset(self):
        got = exact_subset_moment(1, 2, 1)
        assert np.allclose(got.mat, np.outer(PLUS, PLUS))

    def test_subset_moment_full_domain(self):
        got = exact_subset_moment(2, 4, 1)
        plus2 = kron_all(PLUS, PLUS)
        assert np.allclose(got.mat, np.outer(plus2, plus2))

    def test_subset_moment_against_direct_sum(self):
        # independent 6-term oracle at n=2, m=2, t=1
        acc = np.zeros((4, 4), dtype=complex)
        for pair in combinations(range(4), 2):
            v = np.zeros(4, dtype=complex)
            v[list(pair)] = 1 / math.sqrt(2)
            acc += np.outer(v, v.conj())
        acc /= 6
        got = exact_subset_moment(2, 2, 1)
        assert np.allclose(got.mat, acc, atol=1e-12)
        assert np.allclose(np.diag(got.mat).real, 0.25)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_phase_moment_single_copy_maximally_mixed(self, m):
        got = exact_subset_phase_moment(2, m, 1)
        assert np.allclose(got.mat, np.eye(4) / 4, atol=1e-12)

    def test_phase_moment_two_copies_valid(self):
        got = exact_subset_phase_moment(2, 2, 2)
        assert np.linalg.eigvalsh(got.block)[0] >= -1e-9

    @pytest.mark.parametrize(
        "maker",
        [
            lambda: haar_moment(1, 2),
            lambda: exact_subset_moment(2, 2, 2),
            lambda: exact_subset_phase_moment(2, 2, 2),
        ],
    )
    def test_copy_permutation_symmetry(self, maker):
        op = maker()
        n = op.n // 2
        w = copy_transposition_operator(n, 2, 0, 1)
        assert np.max(np.abs(w @ op.mat - op.mat @ w)) < 1e-9

    @pytest.mark.parametrize(
        "maker,n",
        [
            (lambda: haar_moment(1, 3), 1),
            (lambda: exact_subset_phase_moment(2, 2, 3), 2),
            (lambda: exact_subset_moment(2, 2, 3), 2),
        ],
    )
    def test_three_copy_transposition_symmetry(self, maker, n):
        op = maker()
        for i in range(3):
            for j in range(i + 1, 3):
                w = copy_transposition_operator(n, 3, i, j)
                assert np.max(np.abs(w @ op.mat - op.mat @ w)) < 1e-9


class TestMonteCarloMoment:
    def test_haar_two_copy_oracle(self):
        spec = EnsembleSpec("haar", 1, t=2, seed=RngSeed(5))
        est = mc_ensemble_moment(spec, 100000)
        assert np.max(np.abs(est.operator.mat - haar_moment(1, 2).mat)) <= 0.02

    def test_haar_three_copy_oracle(self):
        spec = EnsembleSpec("haar", 1, t=3, seed=RngSeed(55))
        est = mc_ensemble_moment(spec, 30000)
        assert np.max(np.abs(est.operator.mat - haar_moment(1, 3).mat)) <= 0.02

    def test_subset_true_random_oracle(self):
        spec = EnsembleSpec("subset-true-random", 2, m=2, t=2, seed=RngSeed(6))
        est = mc_ensemble_moment(spec, 100000)
        assert np.max(np.abs(est.operator.mat - exact_subset_moment(2, 2, 2).mat)) <= 0.02

    def test_determinism_same_seed(self):
        spec = EnsembleSpec("subset-phase-true-random", 2, m=2, t=2, seed=RngSeed(9))
        a = mc_ensemble_moment(spec, 3000)
        b = mc_ensemble_moment(spec, 3000)
        assert np.array_equal(a.operator.mat, b.operator.mat)

    def test_stabilizer_orbit_moment_against_orbit_average(self):
        # the orbit is finite, so its exact two-copy moment is a direct average
        orbit = stabilizer_orbit(2)  # the oracle in tests/util.py
        acc = np.zeros((16, 16), dtype=complex)
        for v in orbit:
            w = np.kron(v, v)
            acc += np.outer(w, w.conj())
        acc /= len(orbit)
        spec = EnsembleSpec("stabilizer-orbit", 2, t=2, seed=RngSeed(12))
        est = mc_ensemble_moment(spec, 60000)
        assert np.max(np.abs(est.operator.mat - acc)) <= 0.02

    @pytest.mark.parametrize(
        "kind,n,m,exact",
        [
            ("subset-phase-keyed", 2, 2, exact_subset_phase_moment),
            ("subset-phase-keyed", 3, 4, exact_subset_phase_moment),
            ("subset-keyed", 2, 2, exact_subset_moment),
            ("subset-keyed", 3, 3, exact_subset_moment),
        ],
    )
    def test_keyed_matches_true_random(self, kind, n, m, exact):
        spec = EnsembleSpec(kind, n, m=m, t=2, seed=RngSeed(1))
        est = mc_ensemble_moment(spec, 30000)
        dev = np.max(np.abs(est.operator.mat - exact(n, m, 2).mat))
        assert dev <= 3 * est.stderr

    def test_sampled_states_unit_norm(self):
        rng = RngSeed(2).generator()
        for kind, m in [
            ("haar", None),
            ("subset-true-random", 3),
            ("subset-phase-true-random", 4),
            ("subset-keyed", 5),
            ("subset-phase-keyed", 2),
            ("stabilizer-orbit", None),
        ]:
            spec = EnsembleSpec(kind, 3, m=m, t=1)
            for _ in range(20):
                amps = sample_block(spec, 1, rng)[0]
                assert abs(np.linalg.norm(amps) - 1) < 1e-12


SUBSET_KINDS = ("subset-phase-keyed", "subset-phase-true-random", "subset-keyed", "subset-true-random")


def _subset_m(kind, n):
    return 2 ** (n // 2) if "phase" in kind else n - 1


def _oracle_cases():
    """Four kinds at t = 1..3 with d^t <= 512."""
    out = []
    for n in (1, 2, 3, 4):
        for t in (1, 2, 3):
            if 2 ** (n * t) > 512:
                continue
            d = 2**n
            out += [
                ("haar", n, None, t),
                ("subset-keyed", n, max(1, d - 1), t),
                ("subset-phase-true-random", n, max(1, d // 2), t),
                ("stabilizer-orbit", n, None, t),
            ]
    return out


class TestMonteCarloMomentAgainstDenseOracle:
    """The type-basis accumulation against the dense (d^t, d^t) one, on the
    same chunks and draws; 1500 samples span two chunks."""

    @pytest.mark.parametrize("kind,n,m,t", _oracle_cases())
    def test_operator_and_stderr(self, kind, n, m, t):
        spec = EnsembleSpec(kind, n, m=m, t=t, seed=RngSeed(40 + n * t))
        got = mc_ensemble_moment(spec, 1500)
        want, want_stderr = mc_ensemble_moment_oracle(spec, 1500)
        assert got.operator.n == n * t and got.samples == 1500
        assert np.max(np.abs(got.operator.mat - want)) <= 1e-12
        assert got.stderr == pytest.approx(want_stderr, abs=1e-12)
        assert np.array_equal(got.operator.mat, got.operator.mat.conj().T)

    @pytest.mark.parametrize(
        "kind,n,m,t",
        [
            ("haar", 2, None, 2),
            ("subset-keyed", 3, 5, 2),
            ("subset-phase-true-random", 2, 2, 3),
            ("stabilizer-orbit", 2, None, 2),
        ],
    )
    def test_byte_identical_on_repeat_calls(self, kind, n, m, t):
        spec = EnsembleSpec(kind, n, m=m, t=t, seed=RngSeed(77))
        first, again = (mc_ensemble_moment(spec, 3500) for _ in range(2))
        assert again.operator.block.tobytes() == first.operator.block.tobytes()
        assert again.stderr == first.stderr


class TestSampleBlock:
    @pytest.mark.parametrize("n", range(3, 11))
    @pytest.mark.parametrize("kind", SUBSET_KINDS)
    def test_rows_unit_norm_with_m_distinct_members(self, kind, n):
        m = _subset_m(kind, n)
        block = sample_block(EnsembleSpec(kind, n, m=m), 40, RngSeed(n).generator())
        assert block.shape == (40, 2**n)
        assert np.max(np.abs(np.linalg.norm(block, axis=1) - 1)) <= 1e-12
        assert np.all(np.count_nonzero(block, axis=1) == m)
        assert np.allclose(np.abs(block[block != 0]), 1 / math.sqrt(m), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("kind,n", [("haar", 3), ("haar", 10), ("stabilizer-orbit", 3)])
    def test_dense_kinds_unit_norm(self, kind, n):
        block = sample_block(EnsembleSpec(kind, n), 50, RngSeed(7).generator())
        assert np.max(np.abs(np.linalg.norm(block, axis=1) - 1)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 5, 8, 10])
    @pytest.mark.parametrize("kind", ("subset-phase-keyed", "subset-keyed"))
    def test_keyed_rows_equal_scalar_primitives(self, kind, n):
        """One rng.bytes call holds every row's keys in row order: row i's
        permutation key, then, for the phase kind, row i's phase key."""
        count, m = 12, _subset_m(kind, n)
        spec = EnsembleSpec(kind, n, m=m)
        block = sample_block(spec, count, RngSeed(50 + n).generator())
        per_row = 2 if kind == "subset-phase-keyed" else 1
        raw = RngSeed(50 + n).generator().bytes(KEY_BYTES * per_row * count)
        keys = [raw[j * KEY_BYTES : (j + 1) * KEY_BYTES] for j in range(per_row * count)]
        rounds = KeyedPermutation.default_rounds(n)
        for i, row in enumerate(block):
            key = keys[per_row * i]
            want = np.zeros(2**n, dtype=complex)
            if per_row == 1:
                want[[feistel_apply_oracle(key, n, rounds, x) for x in range(m)]] = 1 / math.sqrt(m)
            else:
                for x in range(m):
                    y = feistel_apply_oracle(key, n, rounds, x << (n - spec.m_exp))
                    want[y] = 1 / math.sqrt(m) * (1.0 - 2.0 * phase_bit_oracle(keys[per_row * i + 1], y))
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_haar_rows_are_interleaved_gaussian_pairs(self, n):
        """Row i is the i-th 2^(n+1) slice of one standard_normal call, read as
        (real, imaginary) pairs and normalised."""
        count, d = 12, 2**n
        block = sample_block(EnsembleSpec("haar", n), count, RngSeed(60 + n).generator())
        gauss = RngSeed(60 + n).generator().standard_normal(count * 2 * d)
        for i, row in enumerate(block):
            x = gauss[i * 2 * d : (i + 1) * 2 * d]
            x = x / np.sqrt(np.add.reduce(x * x))
            assert np.array_equal(row, x[0::2] + 1j * x[1::2])

    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("kind", ("subset-phase-true-random", "subset-true-random"))
    def test_true_random_rows_read_their_own_uniforms(self, kind, n):
        """Row i is the i-th slice of one rng.random call: its first 2^n
        uniforms choose the m members (the m smallest) and, for the phase
        kind, the last m give the signs of the members in ascending order,
        minus where u < 0.5."""
        count, d, m = 12, 2**n, _subset_m(kind, n)
        width = d + m if kind == "subset-phase-true-random" else d
        block = sample_block(EnsembleSpec(kind, n, m=m), count, RngSeed(70 + n).generator())
        uniforms = RngSeed(70 + n).generator().random(count * width)
        for i, row in enumerate(block):
            u = uniforms[i * width : (i + 1) * width]
            members = sorted(np.argsort(u[:d], kind="stable")[:m])
            want = np.zeros(d)
            want[members] = (np.where(u[d:] < 0.5, -1.0, 1.0) if width > d else 1.0) / math.sqrt(m)
            assert np.array_equal(row, want)

    @pytest.mark.parametrize("kind", ("subset-phase-true-random", "subset-true-random"))
    def test_true_random_rows_ignore_the_partition_order(self, kind, monkeypatch):
        """numpy leaves the order within each side of an argpartition open (it
        follows the SIMD dispatch); any valid order gives the same rows."""
        spec = EnsembleSpec(kind, 6, m=8)
        want = sample_block(spec, 40, RngSeed(90).generator())
        argpartition = np.argpartition

        def reordered(a, kth, axis=-1, **kwargs):
            out = argpartition(a, kth, axis=axis, **kwargs)
            # reverse both sides of the kth position: still a valid partition
            return np.concatenate([out[..., kth::-1], out[..., : kth : -1]], axis=-1)

        monkeypatch.setattr(np, "argpartition", reordered)
        rng = RngSeed(90).generator()
        u = rng.random((3, 64))
        check = reordered(u, 7, axis=1)
        assert not np.array_equal(check, argpartition(u, 7, axis=1))
        assert np.all(np.take_along_axis(u, check[:, :8], 1).max(1) < np.take_along_axis(u, check[:, 8:], 1).min(1))
        assert sample_block(spec, 40, RngSeed(90).generator()).tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_rows_do_not_depend_on_the_block_cut(self, kind):
        """Rows drawn as one block equal the same rows drawn as several."""
        for n in (3, 8) if kind == "stabilizer-orbit" else (6,):
            spec = EnsembleSpec(kind, n, m=_subset_m(kind, n) if kind in SUBSET_KINDS else None)
            whole = sample_block(spec, 40, RngSeed(80).generator())
            rng = RngSeed(80).generator()
            parts = [sample_block(spec, size, rng) for size in (1, 3, 7, 29)]
            assert np.concatenate(parts).tobytes() == whole.tobytes()

    def test_one_row_block_is_one_state(self):
        # callers read a single state as sample_block(spec, 1, rng)[0]
        for kind in ENSEMBLE_KINDS:
            spec = EnsembleSpec(kind, 3, m=4 if kind in SUBSET_KINDS else None)
            (one,) = sample_block(spec, 1, RngSeed(3).generator())
            assert one.shape == (8,) and abs(np.linalg.norm(one) - 1) <= 1e-12
            assert one.dtype == (np.float64 if kind in SUBSET_KINDS else np.complex128)
            assert np.array_equal(one, sample_block(spec, 1, RngSeed(3).generator())[0])


class TestTrueSubsetSampling:
    """The true-random kinds draw a uniform m-subset, and uniform signs, per row."""

    def test_single_member_frequencies(self):
        block = sample_block(EnsembleSpec("subset-true-random", 1, m=1), 10000, RngSeed(8).generator())
        assert abs(np.mean(block[:, 0] != 0) - 0.5) <= 0.02

    def test_two_member_coverage(self):
        block = sample_block(EnsembleSpec("subset-true-random", 2, m=2), 12000, RngSeed(9).generator())
        support = [tuple(np.flatnonzero(row)) for row in block]
        counts = {pair: support.count(pair) for pair in combinations(range(4), 2)}
        assert sum(counts.values()) == len(block)
        for pair, count in counts.items():
            assert abs(count / len(block) - 1 / 6) <= 0.02, pair

    def test_phase_signs_unbiased(self):
        block = sample_block(EnsembleSpec("subset-phase-true-random", 2, m=4), 10000, RngSeed(10).generator())
        assert np.all(block != 0)
        assert np.max(np.abs(np.mean(block < 0, axis=0) - 0.5)) <= 0.02

    def test_same_seed_identical(self):
        for kind, m in (("subset-true-random", 3), ("subset-phase-true-random", 4)):
            spec = EnsembleSpec(kind, 4, m=m)
            a = sample_block(spec, 20, RngSeed(11).generator())
            assert np.array_equal(a, sample_block(spec, 20, RngSeed(11).generator()))
            assert not np.array_equal(a, sample_block(spec, 20, RngSeed(12).generator()))


class TestAdvisors:
    def test_log_at_16(self):
        advice = advise_subset_size(GrowthClass.parse("log"), 16)
        assert advice.m == 16 and advice.m_exp == 4

    def test_linear_at_8(self):
        advice = advise_subset_size(GrowthClass.parse("linear"), 8)
        assert advice.m == 32

    def test_monotone_in_n(self):
        for cls in ("log", "linear", "nlogn", "polylog"):
            T = GrowthClass.parse(cls)
            sizes = [advise_subset_size(T, n).m for n in range(2, 21)]
            assert all(a <= b for a, b in zip(sizes, sizes[1:]))
            # advised sizes always stay strictly below the full domain
            for n, m in zip(range(2, 21), sizes):
                assert 1 <= m <= 2 ** (n - 1)
                assert m & (m - 1) == 0

    def test_copies_plain(self):
        # the two-copy minimum: its exact distance route fits the default budget at every n
        for n in (4, 8, 16, 64):
            assert advise_copies(GrowthClass.parse("log"), n) == 2

    def test_copies_polylog(self, monkeypatch):
        monkeypatch.setenv("TPRS_MEM_CAP", str(2**80))
        assert advise_copies(GrowthClass.parse("polylog"), 16) == 4

    def test_copies_follow_the_budget(self, monkeypatch):
        # polylog at n = 16 asks for ceil(log2 16) = 4 copies; the exact distance
        # route declares 12,536, 182,096 and 2,775,792 bytes at t = 2, 3 and 4
        polylog = GrowthClass.parse("polylog")
        assert [route_cost(16, t)[0] for t in (2, 3, 4)] == [12536, 182096, 2775792]
        for cap, want in ((2**80, 4), (2775792, 4), (2775791, 3), (182096, 3), (182095, 2), (12536, 2)):
            monkeypatch.setenv("TPRS_MEM_CAP", str(cap))
            assert advise_copies(polylog, 16) == want
        monkeypatch.setenv("TPRS_MEM_CAP", "12535")
        for cls in ("log", "polylog"):
            with pytest.raises(DimensionCapExceeded):
                advise_copies(GrowthClass.parse(cls), 16)

    def test_copy_clipping(self, monkeypatch):
        # the largest count up to ceil(f(n)) that the distance gate admits, never below
        # two; under a budget of the t = 4 route, n >= 17 asks for 5 and gets 4
        monkeypatch.setenv("TPRS_MEM_CAP", str(route_cost(20, 4)[0]))
        polylog = GrowthClass.parse("polylog")
        for n in range(2, 21):
            t = advise_copies(polylog, n)
            want = max(2, math.ceil(math.log2(n)))
            assert 2 <= t <= want
            check_budget("route", route_cost(n, t)[0])
            if t < want:
                assert route_cost(n, t + 1)[0] > mem_cap()
        assert t == 4 < want


class TestJsonExport:
    def test_round_trip(self):
        op = exact_subset_phase_moment(2, 2, 2)
        data = json.loads(json.dumps(operator_to_json(op)))
        assert np.allclose(operator_from_json(data), op.mat, atol=1e-15)
