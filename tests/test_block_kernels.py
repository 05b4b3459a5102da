"""Batched measure and acceptance kernels against the per-state routes.

Every block statistic the sampling engine evaluates must agree row by row,
to 1e-12, with the single-state library function of the same quantity and
with the independent oracles in tests/util.py. Real rows stay float64 through
every kernel and agree with their complex128 cast.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.distinguishers import (
    make_coherence_distinguisher,
    make_hadamard_distinguisher,
    make_swap_distinguisher,
)
from tprslab.ensembles import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    exact_subset_moment,
    exact_subset_phase_moment,
    haar_moment,
    mc_ensemble_moment,
    sample_block,
)
from tprslab.linalg import PartitionSpec, PureState, SymmetricOperator
from tprslab.randprims import RngSeed
from tprslab.resources import (
    ResourceMeasure,
    entanglement_entropy,
    measure_pure_amps,
    reduced_purity,
    stabilizer_renyi_entropy,
)

from .util import (
    coherence_hs,
    coherence_projector_prob,
    coherence_re,
    density,
    entropy_bits,
    loop_partial_trace,
    pauli_power_sum,
    schmidt_probs_oracle,
)

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
                rho = density(row)
                assert abs(re[i] - coherence_re(rho)) <= TOL
                assert abs(hs[i] - coherence_hs(rho)) <= TOL

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
            assert abs(coh[i] - coherence_projector_prob(density(row))) <= TOL
        for part in _partitions(n):
            swap = make_swap_distinguisher(part).accept_prob_pure(block, n)
            for i, row in enumerate(block):
                assert abs(swap[i] - 0.5 * (1 + reduced_purity(PureState(n, row), part))) <= TOL
                if n <= 8:
                    red = loop_partial_trace(np.outer(row, row.conj()), part.n_a, part.n_b, "A")
                    assert abs(swap[i] - 0.5 * (1 + np.vdot(red, red).real)) <= TOL
        if n <= 4:
            had = make_hadamard_distinguisher(3).accept_prob_pure(block, n)
            for i, row in enumerate(block):
                assert abs(had[i] - 0.5 * (1 + pauli_power_sum(row, n, 3) / 2**n)) <= TOL


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


# ---------------------------------------------------------------------------
# Dtype contract: real states and operators stay float64, complex ones complex128

REAL, COMPLEX = np.dtype(np.float64), np.dtype(np.complex128)


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_sample_block_dtype(kind):
    assert _block(kind, 3).dtype == (REAL if kind.startswith("subset") else COMPLEX)


def test_state_and_operator_keep_the_input_dtype():
    real = np.full(4, 0.5)
    assert PureState(2, real).amps.dtype == REAL
    assert PureState(2, real.astype(complex)).amps.dtype == COMPLEX
    assert SymmetricOperator(1, 1, np.eye(2, dtype=np.float32) / 2).mat.dtype == REAL
    assert SymmetricOperator(1, 1, np.array([[0.5, 0.5j], [-0.5j, 0.5]])).mat.dtype == COMPLEX


def test_moment_operator_dtype():
    for op in (exact_subset_moment(3, 3, 2), exact_subset_phase_moment(3, 4, 2), haar_moment(3, 2)):
        assert op.mat.dtype == REAL
    phase = EnsembleSpec("subset-phase-true-random", 3, m=4, t=2, seed=RngSeed(5))
    assert mc_ensemble_moment(phase, 40).operator.mat.dtype == REAL
    assert mc_ensemble_moment(EnsembleSpec("haar", 3, t=2, seed=RngSeed(5)), 40).operator.mat.dtype == COMPLEX


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_entanglement_gram_dtype(kind, monkeypatch):
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append(a.dtype)
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    measure_pure_amps(ResourceMeasure("entanglement-entropy", partition=PartitionSpec(1, 2)), _block(kind, 3), 3)
    assert seen == [REAL if kind.startswith("subset") else COMPLEX]


def test_purity_needs_no_eigen_solve(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    part = PartitionSpec(2, 2)
    block = _block("haar", 4)
    measure_pure_amps(ResourceMeasure("collision-entanglement", partition=part), block, 4)
    make_swap_distinguisher(part).accept_prob_pure(block, 4)
    reduced_purity(PureState(4, block[0]), part)


def _kernels(n, n_a):
    """Every block kernel of the sampling engine at n qubits, as (label, fn(block))."""
    measures = [ResourceMeasure("coherence-re"), ResourceMeasure("coherence-hs")]
    measures += [ResourceMeasure("stabilizer-renyi", alpha=alpha) for alpha in (2, 3)]
    dists = [make_coherence_distinguisher(), make_hadamard_distinguisher(3)]
    if n >= 2:
        part = PartitionSpec(n_a, n - n_a)
        measures += [ResourceMeasure(name, partition=part) for name in ("entanglement-entropy", "collision-entanglement")]
        dists.append(make_swap_distinguisher(part))
    return [(m.label(), lambda b, m=m: measure_pure_amps(m, b, n)) for m in measures] + [
        (d.name, lambda b, d=d: d.accept_prob_pure(b, n)) for d in dists
    ]


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 6), seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 5), sparse=st.booleans(), data=st.data())
def test_real_rows_match_their_complex_cast(n, seed, rows, sparse, data):
    rng = np.random.default_rng(seed)
    block = rng.standard_normal((rows, 2**n))
    if sparse:  # subset-like rows: most amplitudes exactly zero
        block *= rng.random(block.shape) < 0.3
        block[:, 0] += 1.0
    block /= np.linalg.norm(block, axis=1, keepdims=True)
    n_a = data.draw(st.integers(1, max(1, n // 2)))
    for name, kernel in _kernels(n, n_a):
        real, cplx = kernel(block), kernel(block.astype(complex))
        assert np.asarray(real).dtype == REAL, name
        np.testing.assert_allclose(real, cplx, rtol=0, atol=TOL, err_msg=name)
