"""The X-part Walsh-Hadamard power sums against the signed-spectrum and enumeration oracles.

``pauli_power_sums`` is the library's route to Pauli power sums; magic and the
Pauli-replica test read it. The signed spectra in tests/util.py (phase and
``pauli_basis`` order applied), of pure states and of density matrices, are
checked against the dense Pauli stack and enumeration, and the library against
them at 1e-12 relative up to n = 10.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.ensembles import ENSEMBLE_KINDS, EnsembleSpec, sample_block
from tprslab.errors import DimensionCapExceeded
from tprslab.linalg import PureState
from tprslab.randprims import RngSeed
from tprslab.resources import (
    MAGIC_MAX_QUBITS,
    PAULI_SLICE_ENTRIES,
    pauli_basis,
    pauli_power_sums,
    stabilizer_renyi_entropy,
)

from .util import (
    density,
    pauli_basis_expectations,
    pauli_expectation_values,
    pauli_expectations_mixed,
    pauli_expectations_pure,
    pauli_power_sum,
    pauli_trace_power_sum,
    random_density,
    random_pure,
)

TOL = 1e-12


def _kind_rows(kind, n, rows, rng):
    if kind == "stabilizer-orbit" and n > 3:
        return np.empty((0, 2**n), dtype=complex)
    if kind.startswith("subset"):
        m = 2 ** (n // 2) if "phase" in kind else max(1, n - 1)
    else:
        m = None
    return sample_block(EnsembleSpec(kind, n, m=m), rows, rng)


def _oracle_power_sums(ev, n, alpha):
    return np.sum(ev ** (2 * alpha), axis=-1) / 2**n


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_signed_vector_matches_dense_stack(n):
    rng = np.random.default_rng(300 + n)
    states = [random_pure(n, rng).amps for _ in range(5)]
    states += [np.eye(2**n, dtype=complex)[x] for x in range(2**n)]
    for psi in states:
        got = pauli_expectations_pure(psi, n)
        assert got.shape == (4**n,)
        assert np.max(np.abs(got - pauli_basis_expectations(psi, n))) <= TOL
    block = np.array(states)
    rows = pauli_expectations_pure(block, n)
    assert rows.shape == (len(states), 4**n)
    for psi, row in zip(states, rows):
        assert np.max(np.abs(row - pauli_basis_expectations(psi, n))) <= TOL
    rho = random_density(n, rng)
    want = np.einsum("pij,ji->p", pauli_basis(n), rho).real
    assert np.max(np.abs(pauli_expectations_mixed(rho, n) - want)) <= TOL


@pytest.mark.parametrize("n", range(1, 11))
def test_power_sums_match_signed_oracle(n):
    # complex (Haar) and real (subset-phase) rows, several per block at n <= 8
    count = 3 if n <= 8 else 1
    rng = RngSeed(340 + n).generator()
    blocks = [sample_block(EnsembleSpec("haar", n), count, rng)]
    if n >= 2:
        blocks.append(sample_block(EnsembleSpec("subset-phase-true-random", n, m=2 ** (n // 2)), count, rng))
    for block in blocks:
        ev = pauli_expectations_pure(block, n)
        for alpha in (2, 3):
            want = _oracle_power_sums(ev, n, alpha)
            assert np.max(np.abs(pauli_power_sums(block, n, alpha) / want - 1.0)) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_block_power_sums_match_enumeration(n):
    rng = RngSeed(310 + n).generator()
    block = np.concatenate([_kind_rows(kind, n, 2 if n < 5 else 4, rng) for kind in ENSEMBLE_KINDS])
    if n >= 5:
        assert len(block) > PAULI_SLICE_ENTRIES // 4**n  # the block spans several row slices
    for alpha in (2, 3):
        want = pauli_power_sum(block, n, alpha) / 2**n
        assert np.max(np.abs(pauli_power_sums(block, n, alpha) - want)) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mixed_signed_oracle_matches_enumeration(n):
    # the two oracles that cover the power trace of a density matrix
    rng = np.random.default_rng(320 + n)
    for rank in (1, 2, 2**n):
        rho = random_density(n, rng, rank=rank)
        for alpha in (2, 3):
            want = pauli_trace_power_sum(rho, n, alpha) / 2**n
            assert abs(_oracle_power_sums(pauli_expectations_mixed(rho, n), n, alpha) - want) <= TOL


@pytest.mark.parametrize("n", range(1, 11))
def test_pure_route_matches_the_mixed_oracle(n):
    # the library's pure-state route, and the magic read from it, against the
    # signed oracle of |psi><psi|, for complex and for real amplitudes
    psi = random_pure(n, np.random.default_rng(330 + n))
    real = PureState(n, psi.amps.real / np.linalg.norm(psi.amps.real))
    for state in (psi, real):
        ev = pauli_expectations_mixed(density(state.amps), n)
        for alpha in (2, 3):
            want = _oracle_power_sums(ev, n, alpha)
            assert abs(pauli_power_sums(state.amps, n, alpha)[0] / want - 1.0) <= TOL
            magic = np.log2(want) / (1 - alpha)
            assert abs(stabilizer_renyi_entropy(state, alpha) - magic) <= TOL * max(1.0, magic)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 5), support=st.integers(1, 32), seed=st.integers(0, 2**32 - 1))
def test_spectrum_property(n, support, seed):
    # random amplitudes on a random support: dense, sparse and basis states
    rng = np.random.default_rng(seed)
    d = 2**n
    psi = np.zeros(d, dtype=complex)
    members = rng.choice(d, size=min(support, d), replace=False)
    psi[members] = rng.standard_normal(len(members)) + 1j * rng.standard_normal(len(members))
    psi /= np.linalg.norm(psi)
    want = pauli_expectation_values(psi, n)
    assert np.max(np.abs(np.sort(pauli_expectations_pure(psi, n)) - np.sort(want))) <= TOL
    for alpha in (2, 3):
        assert abs(pauli_power_sums(psi, n, alpha)[0] - np.sum(want ** (2 * alpha)) / d) <= TOL


def test_one_state_at_n10_stays_within_2_mib():
    psi = random_pure(10, np.random.default_rng(360)).amps
    pauli_power_sums(psi, 10, 2)  # warm the Hadamard-block cache
    tracemalloc.start()
    try:
        pauli_power_sums(psi, 10, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_caps():
    n = MAGIC_MAX_QUBITS + 1
    assert n == 13
    with pytest.raises(DimensionCapExceeded):
        pauli_power_sums(np.zeros(2**n, dtype=complex), n, 2)
    with pytest.raises(DimensionCapExceeded):
        pauli_basis(5)
