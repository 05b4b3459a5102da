"""The exact distance route through the relabelling symmetry: against the
D x D block eigen-problem, and at sizes no block reaches."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tprslab.bounds import _exact_lhs, verify_distance_bound
import tracemalloc

from tprslab import symmetry
from tprslab.config import DEFAULT_MEM_CAP
from tprslab.errors import DimensionCapExceeded
from tprslab.symmetry import _level, _level_sizes, _moment_coefficients, exact_distance, isotypic_blocks, route_cost

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


class TestRouteCost:
    @pytest.mark.parametrize("t", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_level_sizes_count_the_levels_built(self, n, t):
        # |V_i| exactly; the moment patterns from below, a route's total short by parity splits only
        d, counted, built = 2**n, 0, 0
        for i in range(min(t, d - 1) + 1):
            level = _level(t, i, min(t, d - i))
            size, patterns = _level_sizes(t, i, min(t, d - i))
            assert size == len(level.parts)
            assert patterns <= len(level.moment[0])
            counted, built = counted + patterns, built + len(level.moment[0])
        assert counted >= 0.85 * built

    def test_top_level_sizes(self):
        assert [_level_sizes(t, t, t)[0] for t in (4, 5, 6, 7)] == [92, 343, 1292, 4902]

    def test_accepts_every_size_the_dense_cap_accepted(self):
        # every (n, t) with 2^(n t) <= 4096, the sizes the retired dimension cap admitted
        for n in range(1, 13):
            for t in range(1, 13):
                if 2 ** (n * t) <= 4096:
                    assert route_cost(n, t)[0] <= DEFAULT_MEM_CAP

    @pytest.mark.parametrize("n", [8, 20])
    def test_default_budget_admits_t5_and_refuses_t6(self, n):
        assert route_cost(n, 5)[0] <= DEFAULT_MEM_CAP < route_cost(n, 6)[0]

    @pytest.mark.parametrize("n,t", [(20, 4), (2, 5)])
    def test_declared_bytes_bound_the_traced_peak(self, n, t):
        # within a factor of 2.5 (1.6 and 2.0 measured)
        exact_distance("subset", 3, 2, 2)  # numpy and the small levels, outside the trace
        for cached in (_level, isotypic_blocks, symmetry._placements):
            cached.cache_clear()
        tracemalloc.start()
        try:
            exact_distance("subset-phase", n, 2, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= route_cost(n, t)[0] <= 2.5 * peak


@pytest.mark.parametrize(
    "args",
    [("haar", 3, 4, 2), ("subset", 3, 9, 2), ("subset", 3, 0, 2), ("subset-phase", 3, 2, 0)],
    ids=["unknown-kind", "m-above-2^n", "m-zero", "t-zero"],
)
def test_exact_distance_rejects_bad_input_before_any_work(args, monkeypatch):
    def fail(*a):
        raise AssertionError("work began before the input check")

    monkeypatch.setattr(symmetry, "isotypic_blocks", fail)
    with pytest.raises(ValueError):
        exact_distance(*args)
