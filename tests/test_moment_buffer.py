"""The Monte-Carlo moment's one D x D buffer: an exactly Hermitian accumulation,
an operator that owns the buffer ``from_rows`` summed into, agreement with the
complex-product oracle (``tests/util.type_basis_moment_oracle``), the block
route's scalar shift and the number of D x D arrays alive at once."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest

from tprslab import linalg
from tprslab.ensembles import EnsembleSpec, haar_moment, mc_ensemble_moment
from tprslab.errors import ValidationError
from tprslab.linalg import SymmetricOperator, symmetric_dimension, trace_distance
from tprslab.randprims import RngSeed

from .util import from_rows_oracle, trace_distance_oracle, type_basis_moment_oracle

TOL = 1e-12

# 5 copies of 3 qubits: 2^22 / 2^15 = 128 rows per chunk and D = 792, so 300 rows
# span 3 chunks with N < D and 900 rows span 8 with N >= D
CHUNKED = {"n": 3, "t": 5}
KINDS = [
    ("haar", None),
    ("stabilizer-orbit", None),
    ("subset-phase-true-random", 4),
    ("subset-keyed", 5),
]


@pytest.mark.parametrize("samples", [300, 900])
@pytest.mark.parametrize("kind,m", KINDS)
def test_chunked_block_is_exactly_hermitian_and_matches_the_oracle(kind, m, samples):
    spec = EnsembleSpec(kind, m=m, seed=RngSeed(11), **CHUNKED)
    est = mc_ensemble_moment(spec, samples)
    block = est.operator.block
    assert block.dtype == (np.complex128 if kind in ("haar", "stabilizer-orbit") else np.float64)
    assert np.array_equal(block, block.conj().T)
    want, want_stderr = type_basis_moment_oracle(spec, samples)
    assert np.max(np.abs(block - want)) <= TOL
    assert est.stderr == pytest.approx(want_stderr, abs=TOL)
    assert (est.operator.factor is None) == (samples >= len(block))


@pytest.mark.parametrize("complex_rows", [False, True])
@pytest.mark.parametrize("chunks", [(4, 4, 4), (10, 10, 10, 6)])
def test_from_rows_is_exactly_hermitian(complex_rows, chunks):
    # D = 10 (2 copies of 2 qubits): 12 rows are past D, 36 well past it
    rng = np.random.default_rng(sum(chunks))
    rows = []
    for k in chunks:
        v = rng.standard_normal((k, 10))
        if complex_rows:
            v = v + 1j * rng.standard_normal((k, 10))
        rows.append(v / np.linalg.norm(v, axis=1, keepdims=True))
    op = SymmetricOperator.from_rows(4, 2, iter(rows))
    assert np.array_equal(op.block, op.block.conj().T)
    assert np.max(np.abs(op.block - from_rows_oracle(rows))) <= TOL


def test_operator_owns_the_summed_buffer(monkeypatch):
    grams = []
    gram = linalg.hermitian_gram
    monkeypatch.setattr(linalg, "hermitian_gram", lambda v: grams.append(gram(v)) or grams[-1])
    spec = EnsembleSpec("haar", 3, t=2, seed=RngSeed(12))
    op = mc_ensemble_moment(spec, 50).operator
    assert len(grams) == 1 and op.block is grams[0]
    assert not op.block.flags.writeable
    # the public constructor copies, a read-only block too
    for source in (op.block, np.array(op.block)):
        copy = SymmetricOperator(op.n, op.t, source)
        assert copy.block is not source and not np.shares_memory(copy.block, source)
        assert np.array_equal(copy.block, source)


def test_from_rows_rejects_non_finite_rows():
    row = np.full((1, 10), np.nan)
    with pytest.raises(ValidationError, match="Hermiticity"):
        SymmetricOperator.from_rows(4, 2, iter([row]))


@pytest.mark.parametrize("samples", [36, 400])
def test_block_route_against_a_multiple_of_the_identity_shifts_the_spectrum(samples):
    # N >= D = 36: the block route; eigvalsh gets the estimate's own block, no difference
    op = mc_ensemble_moment(EnsembleSpec("subset-phase-true-random", 3, m=4, t=2, seed=RngSeed(13)), samples).operator
    haar = haar_moment(3, 2)
    want = trace_distance_oracle(op.mat, haar.mat)
    eigvalsh = np.linalg.eigvalsh
    for pair in ((op, haar), (haar, op)):
        seen = []
        with mock.patch.object(np.linalg, "eigvalsh", lambda a: seen.append(a) or eigvalsh(a)):
            got = trace_distance(*pair)
        assert len(seen) == 1 and seen[0] is op.block
        assert got == pytest.approx(want, abs=TOL)


def _peak_units(spec, samples):
    """tracemalloc peak of one estimate and its distance to the Haar moment, in D x D
    blocks of the estimate's dtype. Caches (basis, Haar moment) are filled first."""
    haar = haar_moment(spec.n, spec.t)
    mc_ensemble_moment(spec, samples)
    tracemalloc.start()
    try:
        est = mc_ensemble_moment(spec, samples)
        trace_distance(est.operator, haar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = symmetric_dimension(spec.n, spec.t)
    return peak / (size * size * est.operator.block.itemsize)


@pytest.mark.parametrize(
    "kind,n,m,t,samples,units",
    [
        # D = 528, real: the 250 or 600 rows, the block, the squared-entry sum and one
        # D x D temporary (the variance step's |mean|^2)
        ("subset-phase-true-random", 5, 8, 2, 250, 3.51),
        ("subset-phase-true-random", 5, 8, 2, 600, 3.35),
        # D = 120, complex: 1000 rows are 8.3 blocks, so the row arrays dominate
        ("haar", 3, None, 3, 1000, 19.53),
    ],
)
def test_d_by_d_arrays_alive_at_once(kind, n, m, t, samples, units):
    got = _peak_units(EnsembleSpec(kind, n, m=m, t=t, seed=RngSeed(14)), samples)
    # one more D x D array alive at once would add 1 (0.5 for a real one beside a complex block)
    assert got <= units + 0.25
