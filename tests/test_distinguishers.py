import functools
import math

import numpy as np
import pytest

from tprslab.distinguishers import (
    estimate_advantage,
    hybrid_experiment,
    make_coherence_distinguisher,
    make_hadamard_distinguisher,
    make_swap_distinguisher,
)
from tprslab.ensembles import EnsembleSpec
from tprslab.errors import CopyMismatch, DimensionCapExceeded, ValidationError
from tprslab.growth import GrowthClass
from tprslab.linalg import PartitionSpec
from tprslab.randprims import RngSeed
from tprslab.resources import MAGIC_MAX_QUBITS
from tprslab.bounds import verify_distance_bound

from .util import (
    KET0,
    PLUS,
    TKET,
    coherence_hs,
    coherence_projector_operator,
    coherence_projector_prob,
    density,
    kron_all,
    loop_partial_trace,
    measure,
    pauli_power_sum,
    pauli_replica_operator,
    pauli_trace_power_sum,
    pure,
    purity,
    random_density,
    random_pure,
    replica_test_prob_oracle,
    swap_on_a_operator,
)

LOG = GrowthClass.parse("log")


def hadamard_accept(psi, alpha=3):
    """The Pauli-replica descriptor's acceptance of one pure state."""
    return make_hadamard_distinguisher(alpha).accept_prob_pure(psi, int(np.log2(len(psi))))


class TestSwapTest:
    """The partition SWAP test accepts with (1 + Tr rho_A^2) / 2."""

    def test_pure(self):
        # a product state across the cut has a pure reduction
        dist = make_swap_distinguisher(PartitionSpec(1, 1))
        assert dist.accept_prob_pure(kron_all(PLUS, KET0), 2) == pytest.approx(1.0, abs=1e-12)
        dist = make_swap_distinguisher(PartitionSpec(1, 2))
        assert dist.accept_prob_pure(kron_all(KET0, PLUS, TKET), 3) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        # one and two Bell pairs across the cut reduce to I/2 and I/4
        for n_a, want in ((1, 0.75), (2, 0.625)):
            d = 2**n_a
            amps = np.zeros(d * d)
            amps[np.arange(d) * (d + 1)] = 1 / math.sqrt(d)
            got = make_swap_distinguisher(PartitionSpec(n_a, n_a)).accept_prob_pure(amps, 2 * n_a)
            assert got == pytest.approx(want, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(1)
        for i in range(100):
            n_a, n_b = ((1, 1), (1, 2), (2, 2), (1, 3))[i % 4]
            psi = random_pure(n_a + n_b, rng)
            p = make_swap_distinguisher(PartitionSpec(n_a, n_b)).accept_prob_pure(psi, n_a + n_b)
            assert 0.5 - 1e-9 <= p <= 1.0 + 1e-9
            red = loop_partial_trace(density(psi), n_a, n_b, "A")
            assert p == pytest.approx(0.5 * (1.0 + purity(red)), abs=1e-12)

    def test_two_copy_operator_route(self):
        rng = np.random.default_rng(2)
        part = PartitionSpec(1, 1)
        dist = make_swap_distinguisher(part)
        for _ in range(10):
            psi = random_pure(2, rng)
            omega = np.kron(density(psi), density(psi))
            via_op = 0.5 * (1.0 + float(np.einsum("ij,ji->", swap_on_a_operator(2, part), omega).real))
            via_pure = dist.accept_prob_pure(psi, 2)
            assert via_op == pytest.approx(via_pure, abs=1e-10)


class TestCoherenceProjector:
    def test_basis_state(self):
        accept = make_coherence_distinguisher().accept_prob_pure
        assert accept(kron_all(KET0, KET0), 2) == pytest.approx(1.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_plus_state(self, n):
        amps = kron_all(*([PLUS] * n)) if n > 1 else PLUS
        assert make_coherence_distinguisher().accept_prob_pure(amps, n) == pytest.approx(2.0**-n)

    def test_maximally_mixed(self):
        rho = np.eye(4) / 4
        assert coherence_projector_prob(rho) == pytest.approx(0.25, abs=1e-12)
        via_op = float(np.einsum("ij,ji->", coherence_projector_operator(2), np.kron(rho, rho)).real)
        assert via_op == pytest.approx(0.25, abs=1e-12)

    def test_complements_hs_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            rho = random_density(2, rng)
            assert coherence_projector_prob(rho) + coherence_hs(rho) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_projector_operator_route(self):
        rng = np.random.default_rng(4)
        dist = make_coherence_distinguisher()
        op = coherence_projector_operator(2)
        for _ in range(10):
            rho = random_density(2, rng)
            want = float(np.einsum("ij,ji->", op, np.kron(rho, rho)).real)
            assert coherence_projector_prob(rho) == pytest.approx(want, abs=1e-12)
            psi = random_pure(2, rng)
            want = float(np.einsum("ij,ji->", op, np.kron(density(psi), density(psi))).real)
            assert dist.accept_prob_pure(psi, 2) == pytest.approx(want, abs=1e-12)

    def test_swap_operator_is_permutation(self):
        op = swap_on_a_operator(2, PartitionSpec(1, 1))
        assert np.allclose(op @ op, np.eye(16))


class TestPauliReplicaOperator:
    def test_hermitian(self):
        op = pauli_replica_operator(1, 3)
        assert np.max(np.abs(op - op.conj().T)) < 1e-12

    def test_eigenvalue_range(self):
        op = pauli_replica_operator(1, 3)
        w = np.linalg.eigvalsh(op)
        assert w.min() >= -2 - 1e-9 and w.max() <= 2 + 1e-9
        # only the identity string has a nonzero trace: Tr Q = 2^(2 alpha n) / 2^n
        assert np.trace(op).real == pytest.approx(2.0**6 / 2, abs=1e-12)

    def test_stabilizer_state_trace_one(self):
        omega = functools.reduce(np.kron, [density(KET0)] * 6)
        assert np.einsum("ij,ji->", pauli_replica_operator(1, 3), omega).real == pytest.approx(1.0, abs=1e-10)

    def test_consistent_with_magic(self):
        rng = np.random.default_rng(5)
        proj = pauli_replica_operator(1, 3)
        for _ in range(10):
            psi = random_pure(1, rng)
            omega = functools.reduce(np.kron, [density(psi)] * 6)
            tr = float(np.einsum("ij,ji->", proj, omega).real)
            m3 = measure("stabilizer-renyi", psi, alpha=3)
            assert tr == pytest.approx(2.0 ** ((1 - 3) * m3), abs=1e-9)
            # the phased-permutation oracle against the dense replica operator
            assert replica_test_prob_oracle(density(psi), 3) == pytest.approx(0.5 * (1.0 + tr), abs=1e-12)


class TestHadamardTest:
    def test_stabilizer_state(self):
        assert hadamard_accept(pure(KET0)) == pytest.approx(1.0, abs=1e-12)

    def test_t_state(self):
        assert hadamard_accept(pure(TKET)) == pytest.approx(0.8125, abs=1e-12)

    def test_maximally_mixed_by_enumeration(self):
        rho = np.eye(2) / 2
        # enumeration oracle: only the identity Pauli contributes
        want = 0.5 * (1.0 + pauli_power_sum(np.array([0.0, 0.0]), 1, 3))
        got = replica_test_prob_oracle(rho, 3)
        direct = 0.5 * (1.0 + (1.0) / 2)
        assert got == pytest.approx(direct, abs=1e-12)
        assert got == pytest.approx(0.5 * (1.0 + pauli_trace_power_sum(rho, 1, 3) / 2), abs=1e-12)
        assert got == pytest.approx(0.75, abs=1e-12)
        assert want == pytest.approx(0.5)  # zero operator has no Pauli weight

    def test_projector_route_cross_validation(self):
        rng = np.random.default_rng(6)
        for n in (1, 2):
            for _ in range(5):
                psi = random_pure(n, rng)
                assert abs(hadamard_accept(psi) - replica_test_prob_oracle(density(psi), 3)) <= 1e-12

    def test_alpha_validation(self):
        for alpha in (1, 2, 4):
            with pytest.raises(ValidationError):
                make_hadamard_distinguisher(alpha)

    def test_cap(self):
        n = MAGIC_MAX_QUBITS + 1
        amps = np.zeros(2**n, dtype=complex)
        amps[0] = 1.0
        with pytest.raises(DimensionCapExceeded):
            make_hadamard_distinguisher(3).accept_prob_pure(amps, n)

    def test_identity_with_magic(self):
        # 200 random pure states at n in {1, 2}: the replica-test acceptance
        # and the magic monotone determine each other
        rng = np.random.default_rng(7)
        for i in range(200):
            n = 1 + i % 2
            psi = random_pure(n, rng)
            p = hadamard_accept(psi)
            m_from_p = math.log2(2 * p - 1) / (1 - 3)
            assert m_from_p == pytest.approx(measure("stabilizer-renyi", psi, alpha=3), abs=1e-8)


class TestEstimateAdvantage:
    def test_same_spec_zero(self):
        dist = make_coherence_distinguisher()
        e = EnsembleSpec("subset-phase-true-random", 3, m=4, t=2)
        rep = estimate_advantage(dist, e, e, 500, LOG, seed=1)
        assert rep.adv == 0.0

    def test_haar_vs_haar_statistically_zero(self):
        dist = make_swap_distinguisher(PartitionSpec(1, 2))
        e1 = EnsembleSpec("haar", 3, t=2, seed=RngSeed(1))
        e2 = EnsembleSpec("haar", 3, t=2, seed=RngSeed(2))
        rep = estimate_advantage(dist, e1, e2, 2000, LOG, seed=3)
        assert rep.adv <= max(3 * rep.stderr, 1e-12)

    def test_self_advantage_zero_over_ten_seeds(self):
        for name, dist in (
            ("swap", make_swap_distinguisher(PartitionSpec(1, 1))),
            ("coherence", make_coherence_distinguisher()),
        ):
            e = EnsembleSpec("subset-phase-true-random", 2, m=2, t=2)
            for seed in range(10):
                rep = estimate_advantage(dist, e, e.with_seed(seed + 100), 600, LOG, seed=seed)
                assert rep.adv <= max(3 * rep.stderr, 1e-12), (name, seed)

    def test_basis_vs_haar_coherence(self):
        dist = make_coherence_distinguisher()
        e1 = EnsembleSpec("subset-true-random", 3, m=1, t=2)
        e2 = EnsembleSpec("haar", 3, t=2)
        rep = estimate_advantage(dist, e1, e2, 4000, LOG, seed=4)
        want = 1.0 - 2.0 / (2**3 + 1)
        assert abs(rep.adv - want) <= 3 * rep.stderr

    def test_copy_mismatch(self):
        dist = make_coherence_distinguisher()
        with pytest.raises(CopyMismatch):
            estimate_advantage(
                dist, EnsembleSpec("haar", 2, t=3), EnsembleSpec("haar", 2, t=3), 10, LOG
            )

    def test_budget_flags(self):
        swap = make_swap_distinguisher(PartitionSpec(1, 7))
        e = EnsembleSpec("haar", 8, t=2)
        rep = estimate_advantage(swap, e, e, 10, GrowthClass.parse("linear"), seed=0)
        assert rep.budget_ok  # cost n+1 = 9 <= 10 * 8
        heavy = make_hadamard_distinguisher(5)
        e2 = EnsembleSpec("haar", 2, t=10)
        rep2 = estimate_advantage(heavy, e2, e2, 10, GrowthClass.parse("log"), seed=0)
        assert not rep2.budget_ok  # cost 30 > 10 * log2(2)

    def test_threshold_field(self):
        dist = make_coherence_distinguisher()
        e = EnsembleSpec("haar", 4, t=2)
        rep = estimate_advantage(dist, e, e, 10, GrowthClass.parse("linear"), seed=0)
        assert rep.threshold == pytest.approx(0.25)


class TestHybridExperiment:
    def test_full_run(self):
        rep = hybrid_experiment(3, 4, 2, seed=7, samples=3000)
        assert rep.triangle_ok
        phase_bound = verify_distance_bound("subset-phase", 3, [2, 4], 2)
        c = phase_bound.constants["c"]
        analytic = c * 4 / 4  # c t^2 / m at m = 4
        for leg in rep.legs:
            assert leg.report.adv <= max(analytic, 3 * leg.report.stderr) + 1e-9

    def test_deterministic(self):
        a = hybrid_experiment(2, 2, 2, seed=5, samples=600)
        b = hybrid_experiment(2, 2, 2, seed=5, samples=600)
        assert [l.report.adv for l in a.legs] == [l.report.adv for l in b.legs]

    def test_copy_count_guard(self):
        with pytest.raises(CopyMismatch):
            hybrid_experiment(2, 2, 3, seed=0, samples=10)


class TestDescriptorInvariants:
    @pytest.mark.parametrize(
        "dist",
        [
            make_coherence_distinguisher(),
            make_swap_distinguisher(PartitionSpec(1, 1)),
        ],
    )
    def test_accept_prob_in_unit_interval(self, dist):
        rng = np.random.default_rng(8)
        for _ in range(50):
            amps = random_pure(2, rng)
            p = dist.accept_prob_pure(amps, 2)
            assert -1e-9 <= p <= 1 + 1e-9

    def test_declared_cost_monotone(self):
        dist = make_hadamard_distinguisher(3)
        costs = [dist.declared_cost(n, 6) for n in range(1, 8)]
        assert all(a < b for a, b in zip(costs, costs[1:]))
        assert all(c > 0 for c in costs)
