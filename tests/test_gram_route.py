"""The N x N Gram route of trace_distance: a Monte-Carlo moment of N < D samples
against a multiple of the identity, checked against the D x D block route and
the dense oracle, and the rules that decide which route runs."""

import dataclasses
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.ensembles import EnsembleSpec, exact_subset_moment, haar_moment, mc_ensemble_moment
from tprslab.errors import ValidationError
from tprslab.linalg import SymmetricOperator, symmetric_dimension, trace_distance
from tprslab.randprims import RngSeed

from .util import trace_distance_oracle

TOL = 1e-12

# (n, t) with D = symmetric_dimension(n, t) of 4 to 36 and a dense 2^(n t) of at most 64
SHAPES = [(1, 3), (2, 2), (2, 3), (3, 2)]


@contextmanager
def eig_shapes():
    """Records the shape of every eigvalsh input."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        seen.append(a.shape)
        return eigvalsh(a)

    with mock.patch.object(np.linalg, "eigvalsh", spy):
        yield seen


def _block_route(rho, sigma):
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(rho.block - sigma.block))))


def _spec(kind, n, t, seed, full):
    """``full`` picks the rank-deficient cases: subset-keyed with m = 2^n draws one
    state over and over, subset-phase-true-random with m = 1 only the 2^n basis states."""
    if kind == "haar":
        m = None
    elif kind == "subset-keyed":
        m = 2**n if full else max(1, 2**n - 1)
    else:
        m = 1 if full else 2 ** (n - 1)
    return EnsembleSpec(kind, n, m=m, t=t, seed=RngSeed(seed))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["haar", "subset-keyed", "subset-phase-true-random"]),
    shape=st.sampled_from(SHAPES),
    which=st.sampled_from(["one", "small", "D-1"]),
    full=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_route_matches_the_block_route_and_the_dense_oracle(kind, shape, which, full, seed):
    n, t = shape
    size = symmetric_dimension(n, t)
    samples = {"one": 1, "small": 1 + seed % 3, "D-1": size - 1}[which]
    op = mc_ensemble_moment(_spec(kind, n, t, seed, full), samples).operator
    haar = haar_moment(n, t)
    assert op.factor.shape == (samples, size)
    want = _block_route(op, haar)
    for pair in ((op, haar), (haar, op)):
        with eig_shapes() as seen:
            got = trace_distance(*pair)
        assert seen == [(samples, samples)]
        assert got == pytest.approx(want, abs=TOL)
    assert got == pytest.approx(trace_distance_oracle(op.mat, haar.mat), abs=TOL)


@pytest.mark.parametrize("kind", ["subset-keyed", "subset-phase-true-random"])
def test_rank_deficient_factor(kind):
    # 19 < D = 20 rows (3 copies of 2 qubits) of at most 4 distinct states
    op = mc_ensemble_moment(_spec(kind, 2, 3, 5, True), 19).operator
    assert np.linalg.matrix_rank(op.factor) <= 4 < 19
    haar = haar_moment(2, 3)
    for pair in ((op, haar), (haar, op)):
        assert trace_distance(*pair) == pytest.approx(_block_route(op, haar), abs=TOL)


def test_factor_reproduces_the_block():
    op = mc_ensemble_moment(EnsembleSpec("haar", 3, t=2, seed=RngSeed(3)), 30).operator
    a = op.factor
    assert a.shape == (30, 36) and not a.flags.writeable
    assert np.max(np.abs(a.T @ a.conj() - op.block)) <= TOL


@pytest.mark.parametrize("samples", [36, 37, 400])
def test_no_factor_from_d_samples_on(samples):
    # N >= D: the block is no larger than the rows, so they are not kept
    op = mc_ensemble_moment(EnsembleSpec("haar", 3, t=2, seed=RngSeed(4)), samples).operator
    assert op.factor is None
    with eig_shapes() as seen:
        trace_distance(op, haar_moment(3, 2))
    assert seen == [(36, 36)]


def test_factor_kept_across_chunks(monkeypatch):
    # 5 copies of 3 qubits: 2^22 / 2^15 = 128 rows per chunk, so 300 < D = 792 rows span three chunks
    monkeypatch.setenv("TPRS_DIM_CAP", str(2**15))
    spec = EnsembleSpec("subset-phase-true-random", 3, m=4, t=5, seed=RngSeed(6))
    op = mc_ensemble_moment(spec, 300).operator
    assert op.factor.shape == (300, symmetric_dimension(3, 5))
    assert np.max(np.abs(op.factor.T @ op.factor - op.block)) <= TOL
    haar = haar_moment(3, 5)
    assert trace_distance(op, haar) == pytest.approx(_block_route(op, haar), abs=TOL)


def test_other_side_not_a_multiple_of_the_identity_takes_the_block_route():
    mc = mc_ensemble_moment(EnsembleSpec("haar", 3, t=2, seed=RngSeed(7)), 20).operator
    other = mc_ensemble_moment(EnsembleSpec("haar", 3, t=2, seed=RngSeed(8)), 20).operator
    for sigma in (exact_subset_moment(3, 5, 2), other):
        assert sigma.scalar is None
        for pair in ((mc, sigma), (sigma, mc)):
            with eig_shapes() as seen:
                got = trace_distance(*pair)
            assert seen == [(36, 36)]
            assert got == pytest.approx(trace_distance_oracle(pair[0].mat, pair[1].mat), abs=TOL)


def test_scalar_is_exact():
    assert haar_moment(2, 2).scalar == 1 / 10
    diag = np.diag([0.2, 0.2, 0.2, 0.2, 0.1, 0.1, 0.0, 0.0, 0.0, 0.0])
    assert SymmetricOperator(4, 2, diag).scalar is None
    near = np.eye(10) / 10
    near[0, 1] = near[1, 0] = 1e-17
    assert SymmetricOperator(4, 2, near).scalar is None


def test_only_from_rows_attaches_a_factor():
    op = mc_ensemble_moment(EnsembleSpec("haar", 2, t=2, seed=RngSeed(9)), 5).operator
    with pytest.raises(TypeError):
        SymmetricOperator(4, 2, op.block, op.factor)
    with pytest.raises(TypeError):
        SymmetricOperator(4, 2, op.block, factor=op.factor)
    with pytest.raises(ValueError):
        dataclasses.replace(op, factor=None)
    # a copy with another block leaves the factor behind
    assert dataclasses.replace(op, block=haar_moment(2, 2).block).factor is None
    with pytest.raises(ValidationError):
        SymmetricOperator.from_rows(4, 2, iter(()))
