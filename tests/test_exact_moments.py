"""Closed-form exact moments on the symmetric subspace against enumeration,
and the trace distance's distinct-row reduction and real and complex routes
against dense eigvalsh."""

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tprslab.bounds import _exact_lhs, verify_distance_bound
from tprslab.config import HERM_TOL
from tprslab.ensembles import (
    EnsembleSpec,
    exact_moment_block,
    exact_subset_moment,
    exact_subset_phase_moment,
    haar_moment,
    mc_ensemble_moment,
)
from tprslab.errors import DimensionCapExceeded, ValidationError
from tprslab.linalg import DensityOperator, symmetric_basis, symmetric_dimension, symmetric_projector, trace_distance
from tprslab.randprims import RngSeed

from .util import (
    exact_subset_moment_oracle,
    exact_subset_phase_moment_oracle,
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
    oracle = ORACLE[kind](n, m, t).mat
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
            lhs = _exact_lhs(kind, n, m, t, None)
            want = trace_distance(ORACLE[kind](n, m, t), haar_moment(n, t))
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
        [("subset", 2, 0, 2), ("subset", 2, 5, 2), ("subset-phase", 0, 1, 2), ("subset", 2, 2, 0), ("haar", 2, 2, 2)],
    )
    def test_bad_parameters(self, args):
        with pytest.raises(ValidationError):
            exact_moment_block(*args)

    def test_cap_checked_before_the_basis_is_built(self, monkeypatch):
        from tprslab import linalg

        def fail(*args):
            raise AssertionError("basis built before the cap check")

        monkeypatch.setattr(linalg, "_symmetric_basis", fail)
        for call in (
            lambda: exact_moment_block("subset-phase", 7, 16, 2),
            lambda: exact_subset_moment(2, 2, 4, cap=64),
            lambda: symmetric_projector(2, 4, cap=64),
            lambda: haar_moment(2, 4, cap=64),
            lambda: mc_ensemble_moment(EnsembleSpec("haar", 2, t=4), 10, cap=64),
        ):
            with pytest.raises(DimensionCapExceeded, match=r"exceeds dimension cap"):
                call()


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
    if real:
        mats = []
        for _ in range(2):
            g = rng.standard_normal((2**n, 2**n))
            mat = g @ g.T
            mats.append(DensityOperator(n, mat / np.trace(mat)))
        return mats
    return [random_density(n, rng), random_density(n, rng)]


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
        # all rows distinct: the dense eigen-problem
        assert shapes == [(rho.dim, rho.dim) for rho, _ in pairs]

    def test_real_route_on_the_moment_pair(self):
        rho = exact_subset_phase_moment(3, 4, 2)
        want = 0.5 * np.linalg.norm(rho.mat - haar_moment(3, 2).mat, "nuc")
        assert trace_distance(rho, haar_moment(3, 2)) == pytest.approx(want, abs=TOL)


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


def _grouped_pair(rng, n, groups, real):
    """rho = Q A Q^T and sigma = Q B Q^T for random density matrices A, B on
    ``groups`` groups and a random assignment of the 2^n rows to them (every
    group nonempty), both exactly Hermitian; returns the pair and the
    assignment."""
    dim = 2**n
    label = rng.permutation(np.concatenate([np.arange(groups), rng.integers(groups, size=dim - groups)]))
    mats = []
    for _ in range(2):
        g = rng.standard_normal((groups, groups))
        if not real:
            g = g + 1j * rng.standard_normal((groups, groups))
        a = g @ g.conj().T
        dense = ((a + a.conj().T) / 2)[np.ix_(label, label)]
        mats.append(DensityOperator(n, dense / np.trace(dense).real, validate=False))
    return mats, label


class TestDistinctRowReduction:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 5), real=st.booleans(), seed=st.integers(0, 2**32 - 1), groups=st.integers(1, 32))
    # the two groups' rows differ in the signs of two entries: a 64-bit-word hash collides
    @example(n=2, real=False, seed=3858, groups=2)
    def test_grouped_pairs_match_dense_eigvalsh(self, n, real, seed, groups):
        groups = min(groups, 2**n)
        (rho, sigma), _ = _grouped_pair(np.random.default_rng(seed), n, groups, real)
        with eig_shapes() as seen:
            got = trace_distance(rho, sigma)
        assert got == pytest.approx(trace_distance_oracle(rho, sigma), abs=TOL)
        assert seen == [(groups, groups)]

    @pytest.mark.parametrize("real", [True, False])
    def test_rows_one_ulp_apart_are_not_merged(self, real):
        rng = np.random.default_rng(21)
        (rho, sigma), label = _grouped_pair(rng, 4, 5, real)
        x, y = np.flatnonzero(label == label[0])[:2]  # two rows of one group
        mat = rho.mat.copy()
        mat[x, y] = np.nextafter(mat[x, y].real, np.inf) + 1j * mat[x, y].imag
        mat[y, x] = np.conj(mat[x, y])
        rho = DensityOperator(4, mat, validate=False)
        with eig_shapes() as seen:
            got = trace_distance(rho, sigma)
        assert got == pytest.approx(trace_distance_oracle(rho, sigma), abs=TOL)
        assert seen == [(7, 7)]  # x and y leave their group; its other rows stay

    def test_negative_zero_rows_are_not_merged(self):
        rng = np.random.default_rng(22)
        (rho, sigma), label = _grouped_pair(rng, 3, 3, True)
        y = np.flatnonzero(label == label[0])[1]
        z = int(np.flatnonzero(label != label[0])[0])
        mats = []
        for op in (rho, sigma):
            mat = op.mat.copy()
            mat[label == label[0], z] = mat[z, label == label[0]] = 0.0
            mats.append(mat)
        mats[0][y, z] = mats[0][z, y] = -0.0  # -0.0 - 0.0 = -0.0 in the difference
        rho, sigma = (DensityOperator(3, m / np.trace(m).real, validate=False) for m in mats)
        with eig_shapes() as seen:
            got = trace_distance(rho, sigma)
        assert got == pytest.approx(trace_distance_oracle(rho, sigma), abs=TOL)
        assert seen[0][0] > 3  # the -0.0 rows and columns split their groups

    @pytest.mark.parametrize("repeat", ["rows and columns", "rows", "none"])
    def test_inputs_hermitian_only_within_tolerance(self, repeat):
        rng = np.random.default_rng(23)
        (rho, sigma), label = _grouped_pair(rng, 4, 5, False)
        # a perturbation whose rows (and columns) repeat keeps the grouping
        # of rho's rows, but not the Hermitian reduced matrix
        e = {
            "rows and columns": lambda: rng.uniform(-1, 1, (5, 5))[np.ix_(label, label)],
            "rows": lambda: rng.uniform(-1, 1, (5, 16))[label],
            "none": lambda: rng.uniform(-1, 1, (16, 16)),
        }[repeat]()
        mat = rho.mat + 0.4 * HERM_TOL * e
        rho = DensityOperator(4, mat / np.trace(mat).real)
        assert np.max(np.abs(rho.mat - rho.mat.conj().T)) > 0
        with eig_shapes() as seen:
            got = trace_distance(rho, sigma)
        assert got == pytest.approx(trace_distance_oracle(rho, sigma), abs=TOL)
        assert seen == [(16, 16)]  # every row is its own group

    @pytest.mark.parametrize(
        "kind,n,m,t", [("haar", 3, None, 3), ("subset-phase-true-random", 3, 4, 2), ("haar", 2, None, 2)]
    )
    def test_mc_moment_against_haar_moment(self, kind, n, m, t):
        est = mc_ensemble_moment(EnsembleSpec(kind, n, m=m, t=t, seed=RngSeed(5)), 600)
        with eig_shapes() as seen:
            got = trace_distance(est.operator, haar_moment(n, t))
        assert got == pytest.approx(trace_distance_oracle(est.operator, haar_moment(n, t)), abs=TOL)
        assert seen == [(symmetric_dimension(n, t),) * 2]
