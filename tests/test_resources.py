import math

import numpy as np
import pytest

from tprslab.ensembles import EnsembleSpec
from tprslab.errors import DimensionCapExceeded, PartitionMismatch, ValidationError
from tprslab.linalg import PartitionSpec, symmetric_projector
from tprslab.randprims import RngSeed, sample_haar_block
from tprslab.resources import (
    MEASURE_NAMES,
    ResourceMeasure,
    _harmonic_tail,
    estimate_gap,
    haar_expected,
    haar_magic_proxy,
    measure_pure_amps,
    pauli_power_sums,
)

from .util import (
    KET0, PLUS, TKET, coherence_hs, coherence_re, density, kron_all, measure, pauli_power_sum, pure, random_pure,
    stabilizer_orbit,
)

COHERENCE_RE, COHERENCE_HS = ResourceMeasure("coherence-re"), ResourceMeasure("coherence-hs")


def _measure(measure, amps):
    """The library's pure-state kernel, beside the density-matrix oracle of the same quantity."""
    amps = np.asarray(amps)
    n = int(np.log2(len(amps)))
    oracle = coherence_re if measure is COHERENCE_RE else coherence_hs
    got = measure_pure_amps(measure, amps, n)
    assert got == pytest.approx(oracle(density(amps)), abs=1e-12)
    return got


class TestCoherence:
    def test_basis_state(self):
        assert _measure(COHERENCE_RE, KET0) == pytest.approx(0.0, abs=1e-10)

    def test_maximally_coherent(self):
        assert _measure(COHERENCE_RE, kron_all(PLUS, PLUS)) == pytest.approx(2.0, abs=1e-10)

    def test_maximally_mixed(self):
        # a mixed-state value, which only the density-matrix oracle reaches
        assert coherence_re(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-10)

    def test_hs_basis_state(self):
        assert _measure(COHERENCE_HS, KET0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_hs_plus_states(self, n):
        amps = kron_all(*([PLUS] * n)) if n > 1 else PLUS
        # diagonal-purity oracle: 2^n entries of (2^-n)^2
        assert _measure(COHERENCE_HS, amps) == pytest.approx(1 - 2.0**-n, abs=1e-12)

    def test_hs_mixed(self):
        assert coherence_hs(np.diag([0.5, 0.5])) == pytest.approx(0.5, abs=1e-12)


class TestEntanglement:
    def test_bell(self):
        bell = pure(np.array([1, 0, 0, 1]) / np.sqrt(2))
        assert measure("entanglement-entropy", bell, partition=PartitionSpec(1, 1)) == pytest.approx(1.0, abs=1e-10)

    def test_product(self):
        psi = pure(kron_all(KET0, PLUS))
        assert measure("entanglement-entropy", psi, partition=PartitionSpec(1, 1)) == pytest.approx(0.0, abs=1e-10)

    def test_von_neumann_above_renyi_on_reductions(self):
        rng = np.random.default_rng(13)
        part = PartitionSpec(1, 2)
        for _ in range(200):
            psi = random_pure(3, rng)
            collision = -np.log2(measure("collision-entanglement", psi, partition=part))
            assert measure("entanglement-entropy", psi, partition=part) - collision >= -1e-9


class TestStabilizerRenyi:
    def test_basis_state_zero(self):
        for alpha in (2, 3):
            assert measure("stabilizer-renyi", pure(KET0), alpha=alpha) == pytest.approx(0.0, abs=1e-12)

    def test_t_state_alpha2(self):
        got = measure("stabilizer-renyi", pure(TKET), alpha=2)
        # Pauli expectations 1, 1/sqrt2, 1/sqrt2, 0 -> fourth powers 1, 1/4, 1/4, 0
        want = -math.log2((1 + 0.25 + 0.25) / 2)
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(math.log2(4 / 3), abs=1e-12)

    def test_t_state_alpha3(self):
        got = measure("stabilizer-renyi", pure(TKET), alpha=3)
        want = 0.5 * math.log2(8 / 5)
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            for alpha in (2, 3):
                psi = random_pure(n, rng)
                want = math.log2(pauli_power_sum(psi, n, alpha) / 2**n) / (1 - alpha)
                assert measure("stabilizer-renyi", psi, alpha=alpha) == pytest.approx(want, abs=1e-10)

    def test_same_bits_as_the_power_sum_formula(self):
        # the pure-state route through measure_pure_amps keeps the bits of
        # log2(power sum) / (1 - alpha) evaluated on the one state
        rng = np.random.default_rng(11)
        for n in range(1, 7):
            psi = random_pure(n, rng)
            for alpha in (2, 3):
                want = float(np.log2(pauli_power_sums(psi, n, alpha)[0]) / (1 - alpha))
                assert measure("stabilizer-renyi", psi, alpha=alpha) == want

    def test_all_two_qubit_stabilizer_states_zero(self):
        for v in stabilizer_orbit(2):
            for alpha in (2, 3):
                assert abs(measure("stabilizer-renyi", pure(v), alpha=alpha)) <= 1e-9

    def test_clifford_invariance(self):
        from .util import H as HAD

        s_gate = np.array([[1, 0], [0, 1j]], dtype=complex)
        cnot = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        gates = [np.kron(HAD, eye), np.kron(eye, s_gate), cnot]
        rng = np.random.default_rng(17)
        for _ in range(20):
            psi = random_pure(2, rng)
            base = measure("stabilizer-renyi", psi, alpha=2)
            for g in gates:
                moved = pure(g @ psi)
                assert abs(measure("stabilizer-renyi", moved, alpha=2) - base) <= 1e-9

    def test_nonnegative(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            assert measure("stabilizer-renyi", random_pure(2, rng), alpha=3) >= -1e-9


class TestHaarExpected:
    def test_coherence_re_n2(self):
        ref = haar_expected("coherence-re", 2)
        assert ref.value == pytest.approx(13 / 12 / math.log(2), abs=1e-12)
        assert ref.units == "bits"

    def test_coherence_re_in_bits_bit_for_bit(self):
        # the harmonic sum in nats, divided by ln 2 once, as the sweep converted it
        for n in range(1, 21):
            nats = float(sum(1.0 / k for k in range(2, 2**n + 1)))
            assert haar_expected("coherence-re", n).value == nats / math.log(2)

    def test_coherence_re_large_n_closed_form(self):
        # Euler-Maclaurin branch against direct summation at the crossover
        direct = sum(1.0 / k for k in range(2, 2**20 + 1)) / math.log(2)
        assert haar_expected("coherence-re", 20).value == pytest.approx(direct, rel=1e-12)
        assert np.isfinite(haar_expected("coherence-re", 64).value)

    def test_coherence_re_sums_once_per_dimension(self):
        _harmonic_tail.cache_clear()
        values = {haar_expected("coherence-re", 20).value for _ in range(3)}
        assert len(values) == 1
        info = _harmonic_tail.cache_info()
        assert (info.misses, info.hits) == (1, 2)

    def test_coherence_hs_n2(self):
        assert haar_expected("coherence-hs", 2).value == pytest.approx(0.6, abs=1e-12)

    def test_collision_entanglement_n2(self):
        ref = haar_expected("collision-entanglement", 2, part=PartitionSpec(1, 1))
        assert ref.value == pytest.approx(math.log2(5 / 4), abs=1e-12)

    def test_entanglement_band(self):
        ref = haar_expected("entanglement-entropy", 4, part=PartitionSpec(2, 2))
        assert not ref.exact
        assert ref.band == (1.0, 2.0)

    def test_magic_band_contains_proxy(self):
        ref = haar_expected("stabilizer-renyi", 3, alpha=2)
        assert ref.band[0] <= haar_magic_proxy(3, 2) <= ref.band[1]

    def test_no_analytic_form(self):
        with pytest.raises(ValidationError, match="unknown measure 'not-a-measure'"):
            haar_expected("not-a-measure", 2)

    def test_measure_rules_of_the_constructor(self):
        with pytest.raises(ValidationError, match="requires a partition"):
            haar_expected("entanglement-entropy", 4)
        with pytest.raises(ValidationError, match="alpha >= 2"):
            haar_expected("stabilizer-renyi", 4, alpha=1)
        with pytest.raises(PartitionMismatch, match="does not cover 5 qubits"):
            haar_expected("collision-entanglement", 5, part=PartitionSpec(2, 2))

    def test_closed_form_has_no_magic_cap(self):
        ref = haar_expected("stabilizer-renyi", 13, alpha=3)
        assert ref.value == 6.5 and ref.band[0] <= haar_magic_proxy(13, 3) <= ref.band[1]

    def test_units(self):
        part = PartitionSpec(2, 2)
        for name in ("coherence-re", "entanglement-entropy", "collision-entanglement", "stabilizer-renyi"):
            assert haar_expected(name, 4, part=part if "entanglement" in name else None, alpha=3).units == "bits"
        assert haar_expected("coherence-hs", 4).units == "dimensionless"

    @pytest.mark.parametrize("n,alpha", [(1, 2), (2, 2), (1, 3)])
    def test_magic_proxy_against_projector_integration(self, n, alpha):
        # brute-force Haar average of the Pauli power sum via the symmetric
        # subspace: E[<P>^{2a}] = Tr(P replica * Proj) / Tr(Proj)
        d = 2**n
        t = 2 * alpha
        proj = symmetric_projector(n, t)
        denom = np.trace(proj).real
        from .util import pauli_strings

        total = 0.0
        for p in pauli_strings(n):
            rep = np.array([[1.0 + 0j]])
            for _ in range(t):
                rep = np.kron(rep, p)
            total += float(np.einsum("ij,ji->", rep, proj).real) / denom
        zeta = total / d
        assert haar_magic_proxy(n, alpha) == pytest.approx(-math.log2(zeta) / (alpha - 1), abs=1e-10)


class TestRelations:
    def test_coherence_relation_on_pure_states(self):
        # the relation C >= -log2(1 - C2) holds exactly on pure states, where
        # it reduces to Shannon >= collision entropy of the measurement
        # distribution
        rng = np.random.default_rng(29)
        for i in range(1000):
            n = 1 + i % 3
            amps = random_pure(n, rng)
            c = measure_pure_amps(COHERENCE_RE, amps, n)
            c2 = measure_pure_amps(COHERENCE_HS, amps, n)
            assert c + math.log2(1 - c2) >= -1e-9

    def test_coherence_relation_has_mixed_counterexample(self):
        # the inequality is a pure-state statement: the maximally mixed state
        # has zero coherence but 1 - C2 = 2^-n, so it fails by n bits
        rho = np.eye(4) / 4
        lhs = coherence_re(rho) + math.log2(1 - coherence_hs(rho))
        assert lhs < -1.9

    @pytest.mark.parametrize("n", [2, 3])
    def test_mc_convergence_to_closed_forms(self, n):
        block = sample_haar_block(n, 10000, RngSeed(31 + n).generator())
        p = np.abs(block) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            c_bits = -(np.where(p > 0, p * np.log2(p), 0.0)).sum(axis=1)
        ref = haar_expected("coherence-re", n).value
        se = c_bits.std(ddof=1) / math.sqrt(len(c_bits))
        assert abs(c_bits.mean() - ref) <= 3 * se

        c2 = 1 - (p**2).sum(axis=1)
        ref2 = haar_expected("coherence-hs", n).value
        se2 = c2.std(ddof=1) / math.sqrt(len(c2))
        assert abs(c2.mean() - ref2) <= 3 * se2

        part = PartitionSpec(1, n - 1)
        mats = block.reshape(-1, 2, 2 ** (n - 1))
        red = np.einsum("sij,skj->sik", mats, mats.conj())
        pur = np.einsum("sij,sji->s", red, red).real
        ref3 = haar_expected("collision-entanglement", n, part=part).value
        mean_h2 = -math.log2(pur.mean())
        se3 = (pur.std(ddof=1) / math.sqrt(len(pur))) / (pur.mean() * math.log(2))
        assert abs(mean_h2 - ref3) <= 3 * se3

    @pytest.mark.parametrize("na,nb", [(1, 3), (2, 2)])
    def test_page_band(self, na, nb):
        n = na + nb
        block = sample_haar_block(n, 2000, RngSeed(37).generator())
        part = PartitionSpec(na, nb)
        mean = float(np.mean(measure_pure_amps(ResourceMeasure("entanglement-entropy", partition=part), block, n)))
        assert na - 1 <= mean <= na


class TestEstimateGap:
    def test_same_ensemble_exact_zero(self):
        m = ResourceMeasure("coherence-re")
        rep = estimate_gap(m, EnsembleSpec("haar", 2), EnsembleSpec("haar", 2), 400, seed=3)
        assert rep.delta == 0.0

    def test_haar_vs_basis_coherence(self):
        m = ResourceMeasure("coherence-re")
        rep = estimate_gap(
            m,
            EnsembleSpec("haar", 2),
            EnsembleSpec("subset-true-random", 2, m=1),
            10000,
            seed=5,
        )
        assert abs(rep.delta - haar_expected("coherence-re", 2).value) <= 3 * rep.stderr
        assert rep.e_low[0] == pytest.approx(0.0, abs=1e-12)

    def test_haar_vs_haar_entanglement(self):
        m = ResourceMeasure("entanglement-entropy", partition=PartitionSpec(1, 1))
        rep = estimate_gap(
            m,
            EnsembleSpec("haar", 2, seed=RngSeed(1)),
            EnsembleSpec("haar", 2, seed=RngSeed(2)),
            3000,
            seed=11,
        )
        assert rep.delta <= max(3 * rep.stderr, 1e-12)

    def test_magic_gap_haar_vs_stabilizer(self):
        m = ResourceMeasure("stabilizer-renyi", alpha=3)
        rep = estimate_gap(
            m, EnsembleSpec("haar", 2), EnsembleSpec("stabilizer-orbit", 2), 3000, seed=13
        )
        assert rep.e_low[0] == pytest.approx(0.0, abs=1e-9)
        assert rep.delta > 0.3

    def test_collision_estimator_semantics(self):
        # the aggregated estimate must be -log2(mean purity), not mean(-log2 purity)
        m = ResourceMeasure("collision-entanglement", partition=PartitionSpec(1, 1))
        rep = estimate_gap(
            m,
            EnsembleSpec("haar", 2),
            EnsembleSpec("subset-true-random", 2, m=1),
            10000,
            seed=7,
        )
        ref = haar_expected("collision-entanglement", 2, part=PartitionSpec(1, 1)).value
        assert abs(rep.e_high[0] - ref) <= 3 * rep.e_high[1]

    def test_measure_validation(self):
        with pytest.raises(ValidationError):
            ResourceMeasure("entanglement-entropy")
        with pytest.raises(ValidationError):
            ResourceMeasure("stabilizer-renyi", alpha=1)

    @pytest.mark.parametrize("name,alpha", [("coherence-re", None), ("coherence-hs", None), ("stabilizer-renyi", 3)])
    def test_partition_refused_where_the_measure_takes_none(self, name, alpha):
        with pytest.raises(ValidationError, match="takes no partition"):
            ResourceMeasure(name, partition=PartitionSpec(1, 1), alpha=alpha)
        with pytest.raises(ValidationError, match="takes no partition"):
            haar_expected(name, 2, part=PartitionSpec(1, 1), alpha=alpha)


class TestChecksBeforeDraw:
    """Each stream's range check runs in the engine's pass over costs, before its first draw."""

    @pytest.fixture
    def draws(self, monkeypatch):
        from tprslab import ensembles

        seen = []
        original = ensembles.sample_block

        def spy(spec, count, rng):
            seen.append((spec.kind, spec.n, count))
            return original(spec, count, rng)

        monkeypatch.setattr(ensembles, "sample_block", spy)
        return seen

    def test_growth_table_rows(self):
        part = PartitionSpec(1, 1)
        rows = {
            name: ResourceMeasure(name, partition=part if "entanglement" in name else None, alpha=3).resource
            for name in MEASURE_NAMES
        }
        assert rows == {
            "coherence-re": "coherence", "coherence-hs": "coherence", "entanglement-entropy": "entanglement",
            "collision-entanglement": "entanglement", "stabilizer-renyi": "magic",
        }

    def test_cost_refuses_what_check_refuses(self):
        magic = ResourceMeasure("stabilizer-renyi", alpha=3)
        assert magic.cost(1, 12)[0] > 0
        with pytest.raises(DimensionCapExceeded, match="capped at n <= 12, got n = 13"):
            magic.cost(1, 13)
        with pytest.raises(PartitionMismatch, match="does not cover 5 qubits"):
            ResourceMeasure("entanglement-entropy", partition=PartitionSpec(2, 2)).cost(1, 5)

    def test_estimate_gap_partition_not_covering_n(self, draws):
        m = ResourceMeasure("entanglement-entropy", partition=PartitionSpec(2, 2))
        with pytest.raises(PartitionMismatch, match="does not cover 5 qubits"):
            estimate_gap(m, EnsembleSpec("haar", 5), EnsembleSpec("haar", 5), 10)
        assert draws == []
        estimate_gap(m, EnsembleSpec("haar", 4), EnsembleSpec("haar", 4), 10)
        assert draws == [("haar", 4, 10)]

    def test_estimate_advantage_replica_test_beyond_the_cap(self, draws):
        from tprslab.distinguishers import estimate_advantage, make_hadamard_distinguisher
        from tprslab.growth import GrowthClass

        spec = EnsembleSpec("haar", 13, t=6)
        with pytest.raises(DimensionCapExceeded, match="got n = 13"):
            estimate_advantage(make_hadamard_distinguisher(3), spec, spec, 8, GrowthClass("log"))
        assert draws == []
