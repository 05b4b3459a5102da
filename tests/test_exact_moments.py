"""Closed-form exact moments on the symmetric subspace against enumeration,
the type-basis SymmetricOperator against its dense gather, and the trace
distance's block route against the nuclear norm and dense eigvalsh."""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab import ensembles, linalg
from tprslab.bounds import verify_distance_bound
from tprslab.config import HERM_TOL
from tprslab.ensembles import EnsembleSpec, haar_moment, haar_moment_cost, mc_ensemble_moment, mc_moment_cost
from tprslab.errors import DimensionCapExceeded, DimensionMismatch, ValidationError
from tprslab.linalg import (
    SymmetricOperator,
    gather_cost,
    symmetric_basis,
    symmetric_dimension,
    symmetric_projector,
    trace_distance,
)
from tprslab.randprims import RngSeed
from tprslab.symmetry import exact_distance

from .util import (
    exact_moment_block,
    exact_subset_moment,
    exact_subset_moment_oracle,
    exact_subset_phase_moment,
    exact_subset_phase_moment_oracle,
    one_copy,
    random_density,
    symmetric_projector_oracle,
    trace_distance_oracle,
)

TOL = 1e-12

DENSE = {"subset": exact_subset_moment, "subset-phase": exact_subset_phase_moment}
ORACLE = {"subset": exact_subset_moment_oracle, "subset-phase": exact_subset_phase_moment_oracle}


def _cases():
    """Every m for n <= 3; a spread of m at n = 4; t = 1..3 with d^t <= 512."""
    out = []
    for n in (1, 2, 3, 4):
        d = 2**n
        for t in (1, 2, 3):
            if d**t > 512:
                continue
            for kind in ("subset", "subset-phase"):
                if n <= 3:
                    sizes = range(1, d + 1)
                else:
                    # phase enumeration holds 2^m sign rows of d^t amplitudes
                    sizes = (1, 2, 3, 4) if kind == "subset-phase" else (1, 2, 3, 4, 8, 15, 16)
                out += [(kind, n, m, t) for m in sizes]
    return out


def _basis_matrix(n, t):
    """(d^t, D) matrix whose columns are the type basis vectors."""
    basis = symmetric_basis(n, t)
    v = np.zeros((len(basis.index), len(basis.orbit)))
    v[np.arange(len(basis.index)), basis.index] = 1.0 / np.sqrt(basis.orbit[basis.index])
    return v


def _check_against_oracle(kind, n, m, t):
    oracle = ORACLE[kind](n, m, t)
    dense = DENSE[kind](n, m, t).mat
    assert np.max(np.abs(dense - oracle)) <= TOL
    v = _basis_matrix(n, t)
    block = exact_moment_block(kind, n, m, t)
    assert block.dtype == np.float64
    assert np.max(np.abs(block - v.T @ oracle @ v)) <= TOL


class TestBlockAgainstEnumeration:
    @pytest.mark.parametrize("kind,n,m,t", _cases())
    def test_block_and_dense_match_oracle(self, kind, n, m, t):
        _check_against_oracle(kind, n, m, t)

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["subset", "subset-phase"]), n=st.integers(1, 4), data=st.data())
    def test_property(self, kind, n, data):
        d = 2**n
        t = data.draw(st.integers(1, 3 if n < 4 else 2), label="t")
        # sizes whose enumeration stays small: few terms, few sign rows
        sizes = [
            m
            for m in range(1, d + 1)
            if math.comb(d, m) * (2**m if kind == "subset-phase" else 1) <= 5000 and 2**m * d**t <= 2**16
        ]
        m = data.draw(st.sampled_from(sizes), label="m")
        _check_against_oracle(kind, n, m, t)

    @pytest.mark.parametrize(
        "kind,n,t,sizes",
        [
            ("subset", 3, 2, range(1, 9)),
            ("subset-phase", 3, 2, range(1, 9)),
            ("subset", 2, 3, range(1, 5)),
            ("subset-phase", 2, 3, range(1, 5)),
            ("subset", 4, 2, (3, 4)),
            ("subset-phase", 4, 2, (2, 4)),
        ],
    )
    def test_block_distance_matches_dense_trace_distance(self, kind, n, t, sizes):
        for m in sizes:
            lhs = exact_distance(kind, n, m, t)
            want = trace_distance_oracle(ORACLE[kind](n, m, t), haar_moment(n, t).mat)
            assert lhs == pytest.approx(want, abs=TOL)

    def test_block_is_a_density_operator_on_the_subspace(self):
        for kind in ("subset", "subset-phase"):
            block = exact_moment_block(kind, 3, 4, 3)
            assert block.shape == (symmetric_dimension(3, 3),) * 2
            assert np.trace(block) == pytest.approx(1.0, abs=TOL)
            assert np.max(np.abs(block - block.T)) == 0.0
            assert np.linalg.eigvalsh(block)[0] >= -TOL


class TestPins:
    def test_phase_n4_m4_t2(self):
        assert verify_distance_bound("subset-phase", 4, [4], 2).rows[0].lhs == pytest.approx(9 / 68, abs=TOL)

    # n = 6, t = 2 (33/1040) is pinned through the CLI in tests/test_cli.py

    @pytest.mark.parametrize("n,m", [(3, 2), (5, 7), (8, 4)])
    def test_single_copy_subset_distance(self, n, m):
        # one copy: eigenvalue m/d on the uniform vector, so the distance is (m-1)/d
        assert verify_distance_bound("subset", n, [m], 1).rows[0].lhs == pytest.approx((m - 1) / 2**n, abs=TOL)


class TestValidation:
    @pytest.mark.parametrize(
        "args",
        [
            ("subset", 2, 0, 2), ("subset", 2, 5, 2), ("subset-phase", 0, 1, 2), ("subset", 2, 2, 0), ("haar", 2, 2, 2),
            ("subset", 3, 2.5, 2),
        ],
    )
    def test_bad_parameters(self, args):
        kind, n, m, t = args
        with pytest.raises(ValidationError):
            verify_distance_bound(kind, n, [m], t)

    def test_budget_checked_before_the_basis_is_built(self, monkeypatch):
        def fail(*args):
            raise AssertionError("basis built before the budget check")

        spec = EnsembleSpec("haar", 2, t=4)
        for call, need in (
            (lambda: symmetric_projector(2, 4), gather_cost(2, 4)[0]),
            (lambda: haar_moment(2, 4), haar_moment_cost(2, 4)[0]),
            (lambda: mc_ensemble_moment(spec, 10), mc_moment_cost(spec, 10)[0]),
        ):
            # refused a byte below its declared peak, before anything is built; run at it
            with monkeypatch.context() as patch:
                patch.setattr(linalg, "_symmetric_basis", fail)
                patch.setattr(ensembles, "_haar_moment", fail)
                patch.setenv("TPRS_MEM_CAP", str(need - 1))
                with pytest.raises(DimensionCapExceeded, match=rf"needs {need:,} bytes, over the TPRS_MEM_CAP"):
                    call()
            monkeypatch.setenv("TPRS_MEM_CAP", str(need))
            call()

    def test_lowered_budget_applies_to_a_cached_haar_moment(self, monkeypatch):
        haar_moment(3, 2)  # cached at the default budget
        monkeypatch.setenv("TPRS_MEM_CAP", str(haar_moment_cost(3, 2)[0] - 1))
        with pytest.raises(DimensionCapExceeded, match=r"over the TPRS_MEM_CAP budget"):
            haar_moment(3, 2)
        monkeypatch.delenv("TPRS_MEM_CAP")
        assert haar_moment(3, 2) is haar_moment(3, 2)


class TestSymmetricBasis:
    @pytest.mark.parametrize("n,t", [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 2), (3, 3), (1, 6)])
    def test_gathered_projector_matches_permutation_sum(self, n, t):
        assert np.max(np.abs(symmetric_projector(n, t) - symmetric_projector_oracle(n, t))) <= TOL

    @pytest.mark.parametrize("n,t", [(1, 3), (2, 2), (3, 3), (6, 2)])
    def test_types_orbits_and_index(self, n, t):
        basis = symmetric_basis(n, t)
        d = 2**n
        assert len(basis.types) == len(basis.orbit) == symmetric_dimension(n, t)
        assert basis.orbit.sum() == d**t
        assert np.all(np.diff(basis.types, axis=1) >= 0)
        codes = basis.types @ (d ** np.arange(t - 1, -1, -1))
        assert np.all(np.diff(codes) > 0)  # lexicographic, no repeats
        for mu, types in enumerate(basis.types):
            counts = np.unique(types, return_counts=True)[1]
            assert basis.orbit[mu] == math.factorial(t) // math.prod(math.factorial(c) for c in counts)
        digits = (np.arange(d**t)[:, None] // d ** np.arange(t - 1, -1, -1)) % d
        assert np.array_equal(basis.types[basis.index], np.sort(digits, axis=1))

    def test_cached_and_read_only(self):
        basis = symmetric_basis(2, 3)
        assert symmetric_basis(2, 3) is basis
        for a in basis:
            with pytest.raises(ValueError):
                a[0] = 0


def _hermitian_pair(rng, n, real):
    """Two one-copy moments: at t = 1 the block is the dense density matrix."""
    if real:
        mats = []
        for _ in range(2):
            g = rng.standard_normal((2**n, 2**n))
            mat = g @ g.T
            mats.append(one_copy(mat / np.trace(mat)))
        return mats
    return [one_copy(random_density(n, rng)), one_copy(random_density(n, rng))]


class TestTraceDistanceRoutes:
    @pytest.mark.parametrize("real", [True, False])
    def test_routes_match_singular_value_oracle(self, real, monkeypatch):
        rng = np.random.default_rng(7 if real else 8)
        pairs = [_hermitian_pair(rng, n, real) for n in (1, 2, 3, 5)]
        seen = []
        eigvalsh = np.linalg.eigvalsh

        def spy(a):
            seen.append(a.dtype)
            shapes.append(a.shape)
            return eigvalsh(a)

        shapes = []
        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for rho, sigma in pairs:
            want = 0.5 * np.linalg.norm(rho.mat - sigma.mat, "nuc")
            assert trace_distance(rho, sigma) == pytest.approx(want, abs=TOL)
        assert set(seen) == {np.dtype(np.float64 if real else np.complex128)}
        # one copy: the block is the whole space
        assert shapes == [(rho.dim, rho.dim) for rho, _ in pairs]

    def test_real_route_on_the_moment_pair(self):
        rho = exact_subset_phase_moment(3, 4, 2)
        want = 0.5 * np.linalg.norm(rho.mat - haar_moment(3, 2).mat, "nuc")
        assert trace_distance(rho, haar_moment(3, 2)) == pytest.approx(want, abs=TOL)

    @pytest.mark.parametrize(
        "kind,n,m,t", [("haar", 3, None, 3), ("subset-phase-true-random", 3, 4, 2), ("haar", 2, None, 2)]
    )
    def test_mc_moment_against_haar_moment(self, kind, n, m, t):
        est = mc_ensemble_moment(EnsembleSpec(kind, n, m=m, t=t, seed=RngSeed(5)), 600)
        with eig_shapes() as seen:
            got = trace_distance(est.operator, haar_moment(n, t))
        assert got == pytest.approx(trace_distance_oracle(est.operator.mat, haar_moment(n, t).mat), abs=TOL)
        assert seen == [(symmetric_dimension(n, t),) * 2]


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


def _fresh_pairs():
    """Symmetric pairs, none of whose dense matrices has been gathered."""
    haar = ensembles._haar_moment.__wrapped__  # uncached, so no earlier test gathered it
    mc = mc_ensemble_moment(EnsembleSpec("subset-keyed", 2, m=3, t=3, seed=RngSeed(9)), 400).operator
    mc_haar = mc_ensemble_moment(EnsembleSpec("haar", 3, t=2, seed=RngSeed(10)), 400).operator
    return [
        (exact_subset_phase_moment(3, 4, 2), haar(3, 2)),
        (exact_subset_moment(2, 3, 3), exact_subset_phase_moment(2, 2, 3)),
        (mc, haar(2, 3)),
        (mc_haar, exact_subset_moment(3, 5, 2)),
    ]


class TestSymmetricOperator:
    @pytest.mark.parametrize("n,t", [(1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)])
    def test_haar_mat_matches_permutation_sum(self, n, t):
        # the exact and Monte-Carlo moments' .mat are checked against their
        # enumeration oracles in _check_against_oracle and in
        # test_ensembles.TestMonteCarloMomentAgainstDenseOracle
        op = haar_moment(n, t)
        want = symmetric_projector_oracle(n, t) / symmetric_dimension(n, t)
        assert op.n == n * t and op.dim == 2 ** (n * t)
        assert op.mat.dtype == np.float64
        assert np.max(np.abs(op.mat - want)) <= TOL

    def test_symmetric_pairs_match_nuclear_norm_without_gathering(self):
        pairs = _fresh_pairs()
        got = []
        for rho, sigma in pairs:
            with eig_shapes() as seen:
                got.append(trace_distance(rho, sigma))
            assert seen == [(len(rho.block),) * 2]
            assert "mat" not in vars(rho) and "mat" not in vars(sigma)
        for (rho, sigma), value in zip(pairs, got):
            assert value == pytest.approx(0.5 * np.linalg.norm(rho.mat - sigma.mat, "nuc"), abs=TOL)

    def test_pairs_on_different_subspaces_solve_nothing(self):
        # 2 copies of 3 qubits and 3 copies of 2 qubits share 2^6 dense dimensions
        rho, sigma = exact_subset_moment(3, 2, 2), exact_subset_phase_moment(2, 2, 3)
        for pair in ((rho, sigma), (sigma, rho), (rho, haar_moment(2, 2))):
            with eig_shapes() as seen, pytest.raises(DimensionMismatch):
                trace_distance(*pair)
            assert seen == []

    @pytest.mark.parametrize(
        "n,t,block",
        [
            (2, 2, np.array([[0.5, 0.1, 0], [0, 0.25, 0], [0, 0, 0.25]])),  # not Hermitian
            (2, 2, 2 * np.eye(3) / 3),  # trace 2
            (2, 2, np.eye(4) / 4),  # D = 3
            (4, 2, np.eye(16) / 16),  # the dense shape, not (10, 10)
            (3, 2, np.eye(3) / 3),  # n not a multiple of t
            (0, 2, np.eye(1)),
            (2, 0, np.eye(1)),
        ],
    )
    def test_invalid_blocks(self, n, t, block):
        with pytest.raises(ValidationError):
            SymmetricOperator(n, t, block)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan), complex(0, np.inf)])
    @pytest.mark.parametrize(
        "entries",
        [
            [(0, 1)],  # one off-diagonal entry
            [(0, 1), (1, 0)],  # a conjugate pair
            [(1, 1)],  # a diagonal entry, so also the trace
            [(i, j) for i in range(3) for j in range(3)],  # every entry
        ],
    )
    def test_non_finite_entries(self, entries, bad):
        block = np.eye(3, dtype=complex) / 3
        for i, j in entries:
            block[i, j] = bad if i <= j else np.conj(bad)
        for candidate in (block, block.real.copy()) if np.isreal(bad) else (block,):
            with pytest.raises(ValidationError, match="Hermiticity"):
                SymmetricOperator(2, 2, candidate)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_overflowing_trace(self, sign, dtype):
        # finite, exactly Hermitian entries whose sum overflows: the trace is +-inf
        block = np.diag([sign * 1e308, sign * 1e308, 1.0]).astype(dtype)
        with pytest.raises(ValidationError, match="trace"), np.errstate(over="ignore"):
            SymmetricOperator(2, 2, block)

    def test_hermitian_within_tolerance_is_accepted(self):
        block = np.eye(3, dtype=complex) / 3
        block[0, 1] = 0.4 * HERM_TOL * 1j
        assert SymmetricOperator(2, 2, block).block.dtype == np.complex128

    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("offset,accepted", [(1e-12, True), (1e-9, False)])
    def test_asymmetry_against_the_tolerance(self, dtype, offset, accepted):
        block = exact_moment_block("subset", 2, 2, 2).astype(dtype)
        block[0, 1] += offset
        if accepted:
            assert np.array_equal(SymmetricOperator(4, 2, block).block, block)
        else:
            with pytest.raises(ValidationError, match="Hermiticity"):
                SymmetricOperator(4, 2, block)

    def test_read_only_and_gathered_once(self, monkeypatch):
        source = exact_moment_block("subset", 2, 2, 2)
        op = SymmetricOperator(4, 2, source)
        source[0, 0] = 7.0  # the operator holds its own copy
        assert op.block[0, 0] != 7.0
        with pytest.raises(ValueError):
            op.block[0, 0] = 0.0
        calls = []
        basis = linalg.symmetric_basis
        monkeypatch.setattr(linalg, "symmetric_basis", lambda *a, **k: calls.append(a) or basis(*a, **k))
        mat = op.mat
        assert op.mat is mat and len(calls) == 1
        with pytest.raises(ValueError):
            mat[0, 0] = 0.0

    def test_gather_keeps_the_budget(self, monkeypatch):
        op = SymmetricOperator(8, 4, np.eye(35) / 35)
        need = gather_cost(2, 4, 8)[0]
        monkeypatch.setenv("TPRS_MEM_CAP", str(need - 1))
        with pytest.raises(DimensionCapExceeded):
            op.mat
        assert op.dim == 256 and "mat" not in vars(op)
        monkeypatch.setenv("TPRS_MEM_CAP", str(need))
        assert op.mat.shape == (256, 256)
