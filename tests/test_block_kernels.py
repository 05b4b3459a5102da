"""Batched measure and acceptance kernels against the per-state routes.

Every block statistic the sampling engine evaluates must agree row by row,
to 1e-12, with the single-state library function of the same quantity and
with the independent oracles in tests/util.py.
"""

import numpy as np
import pytest

from tprslab.distinguishers import (
    coherence_projector_prob,
    hadamard_test_prob,
    make_coherence_distinguisher,
    make_hadamard_distinguisher,
    make_swap_distinguisher,
)
from tprslab.ensembles import ENSEMBLE_KINDS, EnsembleSpec, sample_block
from tprslab.linalg import PartitionSpec, PureState, partial_trace
from tprslab.randprims import RngSeed
from tprslab.resources import (
    ResourceMeasure,
    coherence_hs_distance,
    coherence_relative_entropy,
    entanglement_entropy,
    measure_pure_amps,
    reduced_purity,
    stabilizer_renyi_entropy,
)

from .util import entropy_bits, pauli_power_sum, schmidt_probs_oracle

TOL = 1e-12
ROWS = 6


def _cases():
    for kind in ENSEMBLE_KINDS:
        for n in range(3, 11):
            if kind == "stabilizer-orbit" and n > 3:
                continue
            yield kind, n


def _block(kind, n):
    if kind.startswith("subset"):
        m = 2 ** (n // 2) if "phase" in kind else n - 1
    else:
        m = None
    return sample_block(EnsembleSpec(kind, n, m=m), ROWS, RngSeed(1000 + n).generator())


def _partitions(n):
    return sorted({PartitionSpec(1, n - 1), PartitionSpec(n // 2, n - n // 2)}, key=lambda p: p.n_a)


@pytest.mark.parametrize("kind,n", list(_cases()))
class TestBlockKernels:
    def test_coherence(self, kind, n):
        block = _block(kind, n)
        re = measure_pure_amps(ResourceMeasure("coherence-re"), block, n)
        hs = measure_pure_amps(ResourceMeasure("coherence-hs"), block, n)
        assert re.shape == hs.shape == (ROWS,)
        for i, row in enumerate(block):
            p = np.abs(row) ** 2
            assert abs(re[i] - entropy_bits(p)) <= TOL
            assert abs(hs[i] - (1 - np.sum(p**2))) <= TOL
            if n <= 6:
                rho = PureState(n, row).density()
                assert abs(re[i] - coherence_relative_entropy(rho)) <= TOL
                assert abs(hs[i] - coherence_hs_distance(rho)) <= TOL

    def test_entanglement(self, kind, n):
        block = _block(kind, n)
        for part in _partitions(n):
            ent = measure_pure_amps(ResourceMeasure("entanglement-entropy", partition=part), block, n)
            pur = measure_pure_amps(ResourceMeasure("collision-entanglement", partition=part), block, n)
            for i, row in enumerate(block):
                psi = PureState(n, row)
                assert abs(ent[i] - entanglement_entropy(psi, part)) <= TOL
                assert abs(pur[i] - reduced_purity(psi, part)) <= TOL
                if n <= 6:
                    lam = schmidt_probs_oracle(row, part.n_a, part.n_b)
                    assert abs(ent[i] - entropy_bits(lam)) <= TOL
                    assert abs(pur[i] - np.sum(lam**2)) <= TOL

    def test_acceptance(self, kind, n):
        block = _block(kind, n)
        coh = make_coherence_distinguisher().accept_prob_pure(block, n)
        for i, row in enumerate(block):
            assert abs(coh[i] - coherence_projector_prob(PureState(n, row).density())) <= TOL
        for part in _partitions(n):
            swap = make_swap_distinguisher(part).accept_prob_pure(block, n)
            for i, row in enumerate(block):
                assert abs(swap[i] - 0.5 * (1 + reduced_purity(PureState(n, row), part))) <= TOL
                if n <= 8:
                    red = partial_trace(PureState(n, row).density(), part, "A")
                    assert abs(swap[i] - 0.5 * (1 + red.purity())) <= TOL
        if n <= 4:
            had = make_hadamard_distinguisher(3).accept_prob_pure(block, n)
            for i, row in enumerate(block):
                assert abs(had[i] - hadamard_test_prob(PureState(n, row), 3)) <= TOL


@pytest.mark.parametrize("kind,n", [(kind, n) for kind, n in _cases() if n <= 4])  # per-row enumeration oracle; n = 5, 6 in test_pauli_spectrum.py
def test_magic(kind, n):
    block = _block(kind, n)
    for alpha in (2, 3):
        magic = measure_pure_amps(ResourceMeasure("stabilizer-renyi", alpha=alpha), block, n)
        for i, row in enumerate(block):
            assert abs(magic[i] - stabilizer_renyi_entropy(PureState(n, row), alpha)) <= TOL
            oracle = np.log2(pauli_power_sum(row, n, alpha) / 2**n) / (1 - alpha)
            assert abs(magic[i] - oracle) <= 1e-10


def test_single_vector_gives_a_float():
    psi = _block("haar", 4)[0]
    for measure in (
        ResourceMeasure("coherence-re"),
        ResourceMeasure("entanglement-entropy", partition=PartitionSpec(2, 2)),
        ResourceMeasure("stabilizer-renyi", alpha=2),
    ):
        one = measure_pure_amps(measure, psi, 4)
        assert isinstance(one, float)
        assert one == measure_pure_amps(measure, psi[None, :], 4)[0]
    assert isinstance(make_coherence_distinguisher().accept_prob_pure(psi, 4), float)
    assert isinstance(make_hadamard_distinguisher(3).accept_prob_pure(psi, 4), float)
