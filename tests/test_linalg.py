import math

import numpy as np
import pytest

from tprslab.ensembles import haar_moment
from tprslab.errors import DimensionCapExceeded, DimensionMismatch, PartitionMismatch, ValidationError
from tprslab.config import EIG_FLOOR
from tprslab.linalg import PartitionSpec, PureState, shannon_bits, symmetric_projector, trace_distance
from tprslab.resources import collision_entanglement, entanglement_entropy, reduced_purity

from .util import (
    KET0,
    KET1,
    PLUS,
    copy_transposition_operator,
    density,
    kron_all,
    loop_partial_trace,
    masked_log_shannon_bits,
    one_copy,
    pure,
    pure_trace_distance,
    purity,
    random_density,
    random_pure,
    von_neumann_entropy,
)


class TestConstructors:
    def test_pure_state_valid(self):
        s = pure([1, 0, 0, 1] / np.sqrt(2))
        assert s.n == 2
        assert abs(np.linalg.norm(s.amps) - 1) < 1e-12

    def test_pure_state_bad_length(self):
        with pytest.raises(ValidationError):
            PureState(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "amps",
        [[1.0, 1.0], [np.nan, 0.0], [1.0, np.nan], [np.inf, 0.0], [-np.inf, 0.0], [1.0, complex(0, np.inf)]],
    )
    def test_pure_state_bad_norm(self, amps):
        with pytest.raises(ValidationError, match="norm"):
            PureState(1, np.array(amps))

    # a density matrix enters the library as a one-copy moment (tests/util.one_copy)

    def test_density_valid(self):
        rho = one_copy(np.eye(2) / 2)
        assert rho.n == 1 and rho.t == 1 and rho.validate_full() is rho
        assert np.array_equal(rho.mat, np.eye(2) / 2)

    def test_density_not_hermitian(self):
        with pytest.raises(ValidationError, match="Hermiticity"):
            one_copy(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            one_copy(np.eye(2))

    def test_density_not_psd(self):
        with pytest.raises(ValidationError, match="minimum eigenvalue"):
            one_copy(np.diag([1.5, -0.5])).validate_full()

    def test_partition_convention(self):
        with pytest.raises(ValidationError):
            PartitionSpec(2, 1)
        with pytest.raises(ValidationError):
            PartitionSpec(0, 2)

    def test_partition_mismatch(self):
        with pytest.raises(PartitionMismatch):
            PartitionSpec(1, 1).check(1)


class TestLoopPartialTrace:
    def test_bell_reduction(self):
        bell = density(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert np.allclose(loop_partial_trace(bell, 1, 1, "A"), np.eye(2) / 2, atol=1e-12)

    def test_product_keep_b(self):
        psi = pure(kron_all(KET0, PLUS))
        red = loop_partial_trace(density(psi.amps), 1, 1, "B")
        assert np.allclose(red, np.outer(PLUS, PLUS.conj()), atol=1e-12)

    def test_schmidt_symmetry(self):
        rng = np.random.default_rng(42)
        for _ in range(25):
            rho = density(random_pure(3, rng).amps)
            ha = von_neumann_entropy(loop_partial_trace(rho, 1, 2, "A"))
            hb = von_neumann_entropy(loop_partial_trace(rho, 1, 2, "B"))
            assert abs(ha - hb) < 1e-9


class TestPartialTrace:
    """The library's smaller-side Gram reductions against the loop partial trace."""

    @pytest.mark.parametrize("n_a,n_b,keep", [(1, 1, "A"), (1, 2, "B"), (2, 2, "A"), (1, 3, "B")])
    def test_against_loop_oracle(self, n_a, n_b, keep):
        rng = np.random.default_rng(n_a * 10 + n_b + ord(keep))
        part = PartitionSpec(n_a, n_b)
        for _ in range(5):
            psi = random_pure(n_a + n_b, rng)
            red = loop_partial_trace(density(psi.amps), n_a, n_b, keep)
            assert np.trace(red).real == pytest.approx(1.0, abs=1e-12)
            # either reduction of a pure state has the same nonzero spectrum
            assert entanglement_entropy(psi, part) == pytest.approx(von_neumann_entropy(red), abs=1e-10)
            assert reduced_purity(psi, part) == pytest.approx(purity(red), abs=1e-12)

    def test_mismatch(self):
        psi = random_pure(3, np.random.default_rng(0))
        with pytest.raises(PartitionMismatch):
            entanglement_entropy(psi, PartitionSpec(1, 1))


class TestEntropies:
    def test_pure_zero(self):
        assert von_neumann_entropy(density(KET0)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_collision_pure(self):
        part = PartitionSpec(1, 1)
        assert collision_entanglement(pure(kron_all(KET0, PLUS)), part) == pytest.approx(0.0, abs=1e-12)
        bell = pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert collision_entanglement(bell, part) == pytest.approx(1.0, abs=1e-12)

    def test_collision_mixed(self):
        # Schmidt probabilities (3/4, 1/4): either reduction is diag(p)
        p = np.array([0.75, 0.25])
        want = -np.log2(float(p @ p))
        psi = pure(np.array([np.sqrt(p[0]), 0, 0, np.sqrt(p[1])]))
        assert collision_entanglement(psi, PartitionSpec(1, 1)) == pytest.approx(want, abs=1e-12)
        assert -np.log2(purity(np.diag(p))) == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(0.678, abs=5e-4)

    def test_renyi_below_von_neumann(self):
        rng = np.random.default_rng(7)
        for i in range(1000):
            n = 1 + i % 3
            rho = random_density(n, rng, rank=1 + i % (2**n))
            assert von_neumann_entropy(rho) + np.log2(purity(rho)) >= -1e-9


class TestShannonBits:
    @pytest.mark.parametrize("shape", [(7,), (32, 16), (32, 256), (3, 5, 64)])
    def test_bit_identical_to_the_masked_log(self, shape):
        # probabilities with exact zeros, entries at and below the floor and tiny negatives
        rng = np.random.default_rng(sum(shape))
        p = rng.dirichlet(np.full(shape[-1], 0.3), size=shape[:-1])
        special = np.array([0.0, -0.0, EIG_FLOOR, EIG_FLOOR / 2, np.nextafter(EIG_FLOOR, 1.0), -1e-17, -EIG_FLOOR])
        mask = rng.random(shape) < 0.4
        p[mask] = rng.choice(special, size=int(mask.sum()))
        got, want = shannon_bits(p), masked_log_shannon_bits(p)
        assert got.shape == want.shape == shape[:-1]
        assert got.tobytes() == want.tobytes()

    def test_floor_entries_contribute_zero(self):
        assert shannon_bits(np.array([0.5, 0.5, 0.0, EIG_FLOOR, -1e-17])) == 1.0
        assert shannon_bits(np.array([[1.0, 0.0], [0.25, 0.75]])).tolist() == [0.0, -0.25 * -2 - 0.75 * np.log2(0.75)]


class TestTraceDistance:
    """On one-copy moments, whose blocks are the density matrices themselves."""

    def test_self_zero(self):
        rho = one_copy(random_density(2, np.random.default_rng(0)))
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal(self):
        assert trace_distance(one_copy(density(KET0)), one_copy(density(KET1))) == pytest.approx(1.0)

    def test_pure_formula_oracle(self):
        got = trace_distance(one_copy(density(KET0)), one_copy(density(PLUS)))
        assert got == pytest.approx(pure_trace_distance(KET0, PLUS), abs=1e-12)
        assert got == pytest.approx(math.sqrt(0.5), abs=1e-9)

    def test_symmetry_and_triangle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a, b, c = (one_copy(random_density(2, rng)) for _ in range(3))
            dab, dba = trace_distance(a, b), trace_distance(b, a)
            assert dab == pytest.approx(dba, abs=1e-12)
            assert trace_distance(a, c) <= dab + trace_distance(b, c) + 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            trace_distance(one_copy(np.eye(2) / 2), one_copy(np.eye(4) / 4))
        with pytest.raises(DimensionMismatch):
            trace_distance(haar_moment(2, 2), haar_moment(3, 2))


class TestSymmetricProjector:
    def test_single_copy_identity(self):
        p = symmetric_projector(1, 1)
        assert np.allclose(p, np.eye(2))
        assert np.trace(p) == pytest.approx(2.0)

    def test_two_copies_of_qubit(self):
        p = symmetric_projector(1, 2)
        swap = np.zeros((4, 4))
        for i, j in [(0, 0), (1, 2), (2, 1), (3, 3)]:
            swap[i, j] = 1.0
        assert np.allclose(p, (np.eye(4) + swap) / 2, atol=1e-12)
        assert np.trace(p) == pytest.approx(3.0)

    @pytest.mark.parametrize("n,t", [(1, 2), (1, 3), (2, 2), (1, 4)])
    def test_trace_binomial_and_idempotent(self, n, t):
        p = symmetric_projector(n, t)
        assert np.trace(p) == pytest.approx(math.comb(2**n + t - 1, t), abs=1e-9)
        assert np.max(np.abs(p @ p - p)) < 1e-9

    def test_commutes_with_transpositions(self):
        p = symmetric_projector(1, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                w = copy_transposition_operator(1, 3, i, j)
                assert np.max(np.abs(w @ p - p @ w)) < 1e-9

    def test_cap(self, monkeypatch):
        monkeypatch.setenv("TPRS_DIM_CAP", "64")
        with pytest.raises(DimensionCapExceeded):
            symmetric_projector(2, 4)
