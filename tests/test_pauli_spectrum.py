"""The Walsh-Hadamard Pauli spectrum against the dense-stack and enumeration oracles.

``pauli_expectations_pure`` is the one library route to Pauli expectations;
magic, the Pauli-replica test and the mixed-state power trace all read it.
Every comparison here is against tests/util.py at 1e-12.
"""

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
    pauli_basis,
    pauli_expectations_pure,
    pauli_power_sums,
    pauli_power_trace,
)
from tprslab.sampling import SUB_BLOCK_AMPS

from .util import (
    pauli_basis_expectations,
    pauli_expectation_values,
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


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_block_power_sums_match_enumeration(n):
    rng = RngSeed(310 + n).generator()
    block = np.concatenate([_kind_rows(kind, n, 2, rng) for kind in ENSEMBLE_KINDS])
    if n >= 5:
        assert len(block) > SUB_BLOCK_AMPS // 4**n  # the block spans several row slices
    for alpha in (2, 3):
        want = pauli_power_sum(block, n, alpha) / 2**n
        assert np.max(np.abs(pauli_power_sums(block, n, alpha) - want)) <= TOL


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_mixed_power_trace_matches_enumeration(n):
    rng = np.random.default_rng(320 + n)
    for rank in (1, 2, 2**n):
        rho = random_density(n, rng, rank=rank)
        for alpha in (2, 3):
            want = pauli_trace_power_sum(rho.mat, n, alpha) / 2**n
            assert abs(pauli_power_trace(rho, alpha) - want) <= TOL


def test_pure_and_mixed_routes_agree_at_n6():
    psi = random_pure(6, np.random.default_rng(330))
    for alpha in (2, 3):
        assert abs(pauli_power_trace(psi, alpha) - pauli_power_trace(psi.density(), alpha)) <= TOL


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
        assert abs(pauli_power_trace(PureState(n, psi), alpha) - np.sum(want ** (2 * alpha)) / d) <= TOL


def test_caps():
    with pytest.raises(DimensionCapExceeded):
        pauli_expectations_pure(np.zeros(2 ** (MAGIC_MAX_QUBITS + 1), dtype=complex), MAGIC_MAX_QUBITS + 1)
    with pytest.raises(DimensionCapExceeded):
        pauli_basis(5)
