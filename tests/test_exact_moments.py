"""Closed-form exact moments on the symmetric subspace against enumeration,
and the real and complex routes of the trace distance."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.bounds import _exact_lhs, verify_distance_bound
from tprslab.ensembles import exact_moment_block, exact_subset_moment, exact_subset_phase_moment, haar_moment
from tprslab.errors import DimensionCapExceeded, ValidationError
from tprslab.linalg import DensityOperator, symmetric_basis, symmetric_dimension, symmetric_projector, trace_distance

from .util import (
    exact_subset_moment_oracle,
    exact_subset_phase_moment_oracle,
    random_density,
    symmetric_projector_oracle,
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
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for rho, sigma in pairs:
            want = 0.5 * np.linalg.norm(rho.mat - sigma.mat, "nuc")
            assert trace_distance(rho, sigma) == pytest.approx(want, abs=TOL)
        assert set(seen) == {np.dtype(np.float64 if real else np.complex128)}

    def test_real_route_on_the_moment_pair(self):
        rho = exact_subset_phase_moment(3, 4, 2)
        want = 0.5 * np.linalg.norm(rho.mat - haar_moment(3, 2).mat, "nuc")
        assert trace_distance(rho, haar_moment(3, 2)) == pytest.approx(want, abs=TOL)
