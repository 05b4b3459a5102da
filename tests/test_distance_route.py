"""The exact distance route through the relabelling symmetry: against the
D x D block eigen-problem, and at sizes no block reaches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.bounds import _exact_lhs, verify_distance_bound
from tprslab.config import DEFAULT_DIM_CAP, check_reduced_dim
from tprslab.errors import DimensionCapExceeded
from tprslab.symmetry import _moment_coefficients, isotypic_blocks

from .util import block_distance_oracle

KINDS = ("subset", "subset-phase")


def _sizes(kind, n):
    d = 2**n
    return range(1, d + 1) if kind == "subset" else [2**e for e in range(n + 1)]


def _block_cases():
    """Every (n <= 4, t) whose dense dimension 2^(n t) is at most 4096."""
    return [(kind, n, t) for n in (1, 2, 3, 4) for t in range(1, 13) if 2 ** (n * t) <= 4096 for kind in KINDS]


def _assert_matches_block(kind, n, m, t):
    want = block_distance_oracle(kind, n, m, t)
    assert _exact_lhs(kind, n, m, t) == pytest.approx(want, rel=1e-12, abs=1e-15)


class TestAgainstTheBlockRoute:
    @pytest.mark.parametrize("kind,n,t", _block_cases())
    def test_every_size(self, kind, n, t):
        for m in _sizes(kind, n):
            _assert_matches_block(kind, n, m, t)

    @pytest.mark.parametrize("kind,n,m", [("subset", 5, 6), ("subset-phase", 5, 8), ("subset", 6, 11), ("subset-phase", 6, 16)])
    def test_n5_and_n6_at_t2(self, kind, n, m):
        _assert_matches_block(kind, n, m, 2)

    @settings(max_examples=25, deadline=None)
    @given(kind=st.sampled_from(KINDS), n=st.integers(1, 5), data=st.data())
    def test_property(self, kind, n, data):
        t = data.draw(st.integers(1, 10 // n), label="t")
        m = data.draw(st.sampled_from(list(_sizes(kind, n))), label="m")
        _assert_matches_block(kind, n, m, t)


class TestBeyondTheBlock:
    @pytest.mark.parametrize("m", [1, 64, 1448, 2**20])
    def test_one_copy_at_n20(self, m):
        # subset: eigenvalue m/d on the uniform vector, (d - m) / (d (d - 1)) on the rest;
        # subset-phase: one copy averages to I/d
        assert _exact_lhs("subset", 20, m, 1) == pytest.approx((m - 1) / 2**20, rel=1e-12, abs=1e-15)
        if m & (m - 1) == 0:
            assert _exact_lhs("subset-phase", 20, m, 1) == pytest.approx(0.0, abs=1e-15)

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("n,t", [(7, 2), (20, 2), (7, 3), (20, 3)])
    def test_blocks_cover_the_symmetric_subspace(self, kind, n, t):
        d = 2**n
        iso = isotypic_blocks(kind, n, t)
        assert sum(dim * size for dim, size in zip(iso.dims, iso.sizes)) == math.comb(d + t - 1, t)
        for m in (2, 64, min(1024, d), d):
            blocks = np.einsum("k,lkrs->lrs", _moment_coefficients(d, m, t), iso.blocks)
            trace = float(iso.weights @ np.trace(blocks, axis1=1, axis2=2))
            assert trace == pytest.approx(1.0, abs=1e-12)

    def test_subset_slopes_fit_at_n20(self):
        # drift term t m / 2^n against t^2 / m: both slopes show over a decade each side of sqrt(t 2^n)
        rep = verify_distance_bound("subset", 20, [64, 1448, 8192], 2)
        assert rep.all_passed
        assert rep.pairwise_slopes[0] < -0.4 and rep.pairwise_slopes[1] > 0.4


class TestReducedCap:
    def test_accepts_every_size_the_dense_cap_accepted(self):
        for n in range(1, 13):
            for t in range(1, 13):
                if 2 ** (n * t) <= DEFAULT_DIM_CAP:
                    check_reduced_dim(n, t)

    @pytest.mark.parametrize("n,t", [(20, 4), (3, 4)])
    def test_t4_fits_the_default_cap(self, n, t):
        assert check_reduced_dim(n, t) == 4096

    @pytest.mark.parametrize("n,t", [(4, 5), (20, 5), (2, 7)])
    def test_refuses_past_the_default_cap(self, n, t):
        with pytest.raises(DimensionCapExceeded, match="exceeds dimension cap 4096"):
            check_reduced_dim(n, t)
