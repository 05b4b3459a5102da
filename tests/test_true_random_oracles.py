"""Closed-form means of the true-random subset kinds (``tests/util.py``): the
reduced purity, the coherence test's and the swap test's acceptance. Each is
checked against full enumeration at n <= 4, then against Monte-Carlo means of
``sample_block`` rows at n = 8 and 9."""

import math

import numpy as np
import pytest

from tprslab.distinguishers import make_coherence_distinguisher, make_swap_distinguisher
from tprslab.ensembles import EnsembleSpec, haar_moment, sample_block
from tprslab.linalg import PartitionSpec
from tprslab.randprims import RngSeed
from tprslab.resources import ResourceMeasure, measure_pure_amps

from .util import (
    coherence_accept_mean,
    coherence_projector_operator,
    enumerated_states,
    exact_subset_moment_oracle,
    exact_subset_phase_moment_oracle,
    swap_accept_mean,
    swap_on_a_operator,
    true_random_purity,
)

KINDS = ("subset-true-random", "subset-phase-true-random")
MOMENT_ORACLE = {
    "subset-true-random": exact_subset_moment_oracle,
    "subset-phase-true-random": exact_subset_phase_moment_oracle,
}


def _sizes(kind):
    """(n, n_a, m) cases at n <= 4; the subset kind also takes sizes that are not powers of two."""
    cases = [(2, 1, 2), (3, 1, 4), (4, 2, 4), (4, 1, 4)]
    if kind == "subset-true-random":
        cases += [(3, 1, 3), (4, 2, 5), (4, 1, 8), (4, 2, 8)]
    return cases


class TestAgainstEnumeration:
    @pytest.mark.parametrize("kind,n,n_a,m", [(k, *c) for k in KINDS for c in _sizes(k)])
    def test_purity_and_coherence(self, kind, n, n_a, m):
        rows = enumerated_states(kind, n, m)
        mats = rows.reshape(len(rows), 2**n_a, 2 ** (n - n_a))
        gram = mats @ mats.transpose(0, 2, 1)
        assert np.mean(np.sum(gram**2, axis=(1, 2))) == pytest.approx(
            true_random_purity(kind, n_a, n - n_a, m), abs=1e-12
        )
        assert np.mean(np.sum(rows**4, axis=1)) == pytest.approx(coherence_accept_mean(kind, n, m), abs=1e-12)

    @pytest.mark.parametrize("kind,n,n_a,m", [(k, *c) for k in KINDS for c in [(3, 1, 4), (4, 2, 4), (4, 1, 2)]])
    def test_two_copy_tests_on_the_enumerated_moment(self, kind, n, n_a, m):
        moment = MOMENT_ORACLE[kind](n, m, 2).real
        swap = swap_on_a_operator(n, PartitionSpec(n_a, n - n_a))
        # the swap test accepts with (1 + tr(SWAP_A M)) / 2
        accept = (1 + np.sum(swap * moment.T)) / 2
        assert accept == pytest.approx(swap_accept_mean(kind, n_a, n - n_a, m), abs=1e-12)
        coherence = np.sum(coherence_projector_operator(n) * moment.T)
        assert coherence == pytest.approx(coherence_accept_mean(kind, n, m), abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_haar_coherence_on_the_haar_moment(self, n):
        accept = np.sum(coherence_projector_operator(n) * haar_moment(n, 2).mat)
        assert accept == pytest.approx(coherence_accept_mean("haar", n), abs=1e-12)


# 16,000 rows in blocks of 4,000: 8 MB per block at n = 8, 16 MB at n = 9
ROWS, BLOCK = 16000, 4000


def _within_4_stderr(values, want):
    values = np.concatenate(values)
    stderr = np.std(values, ddof=1) / math.sqrt(len(values))
    assert abs(values.mean() - want) <= 4 * stderr, (values.mean(), want, stderr)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,n_a,m,seed", [(8, 4, 16, 71), (9, 2, 32, 72)], ids=["even-4:4", "uneven-2:7"])
def test_monte_carlo_means(kind, n, n_a, m, seed):
    part = PartitionSpec(n_a, n - n_a)
    purity = ResourceMeasure("collision-entanglement", partition=part)
    swap, coherence = make_swap_distinguisher(part), make_coherence_distinguisher()
    rng = RngSeed(seed).generator()
    purities, swaps = [], []
    for _ in range(ROWS // BLOCK):
        block = sample_block(EnsembleSpec(kind, n, m=m), BLOCK, rng)
        purities.append(measure_pure_amps(purity, block, n))
        swaps.append(swap.accept_prob_pure(block, n))
        # every subset-kind state accepts with 1/m exactly
        np.testing.assert_allclose(coherence.accept_prob_pure(block, n), 1 / m, rtol=0, atol=1e-12)
    _within_4_stderr(purities, true_random_purity(kind, n_a, n - n_a, m))
    _within_4_stderr(swaps, swap_accept_mean(kind, n_a, n - n_a, m))


@pytest.mark.parametrize("n,seed", [(8, 73), (9, 74)])
def test_monte_carlo_haar_coherence(n, seed):
    block = sample_block(EnsembleSpec("haar", n), ROWS // 4, RngSeed(seed).generator())
    _within_4_stderr([make_coherence_distinguisher().accept_prob_pure(block, n)], coherence_accept_mean("haar", n))
