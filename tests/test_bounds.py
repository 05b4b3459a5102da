import math

import numpy as np
import pytest

from tprslab.bounds import (
    coherence_bound_check,
    empirical_prop_check,
    entanglement_bound_check,
    magic_bound_check,
    subset_distance_bound,
    subset_phase_distance_bound,
    verify_distance_bound,
)
from tprslab.ensembles import EnsembleSpec
from tprslab.errors import BoundDegenerate, DimensionCapExceeded, ParameterOrderViolated, ValidationError
from tprslab.growth import Const, Growth, GrowthClass, Mul, advise_subset_size
from tprslab.randprims import RngSeed
from tprslab.symmetry import route_cost

from .util import recip

LOG = GrowthClass.parse("log")

# frozen exact trace distances at n=3, t=2, from independent enumeration
PHASE_LHS = {2: 0.277778, 4: 0.097222, 6: 0.152778}
SUBSET_LHS = {2: 0.420635, 4: 0.563492, 6: 0.738095}


class TestBoundEvaluators:
    def test_phase_bound_values(self):
        assert subset_phase_distance_bound(4, 2, 2, 1.0) == pytest.approx(1.0)
        assert subset_phase_distance_bound(4, 3, 2, 1.0) == pytest.approx(0.5)

    def test_phase_bound_window(self):
        with pytest.raises(ParameterOrderViolated):
            subset_phase_distance_bound(4, 2, 4, 1.0)

    def test_subset_bound_values(self):
        assert subset_distance_bound(4, 4, 2, 1.0, 1.0) == pytest.approx(1.5)
        assert subset_distance_bound(4, 16, 1, 1.0, 1.0) == pytest.approx(1.0 + 1 / 16)

    def test_coherence_bound_example(self):
        gamma = Growth(GrowthClass.parse("linear"))
        eta = recip(Mul(Growth(GrowthClass.parse("linear")), Growth(LOG)))
        assert coherence_bound_check(gamma, eta, 8) == pytest.approx(4.456, abs=2e-3)

    def test_coherence_bound_zero_eta(self):
        assert coherence_bound_check(Growth(GrowthClass.parse("linear")), Const(0.0), 8) == pytest.approx(8.0)

    def test_coherence_bound_degenerate(self):
        with pytest.raises(BoundDegenerate):
            coherence_bound_check(Const(1.0), Const(0.5), 4)

    def test_entanglement_bound_example(self):
        assert entanglement_bound_check(Const(2.0), Const(1 / 16), 4) == pytest.approx(
            -math.log2(0.25 + 1 / 16), abs=1e-12
        )
        assert -math.log2(0.25 + 1 / 16) == pytest.approx(1.678, abs=1e-3)

    def test_magic_bound_example(self):
        eta = recip(Mul(Growth(GrowthClass.parse("linear")), Growth(LOG)))
        got = magic_bound_check(Growth(GrowthClass.parse("linear")), eta, 3, 8)
        want = -(math.log2(1 / 24) + 2**-16 * 24) / 2
        assert got == pytest.approx(want, abs=1e-12)
        assert want == pytest.approx(2.292, abs=1e-3)

    def test_magic_bound_nonbinding_at_large_eta(self):
        val = magic_bound_check(Const(8.0), Const(0.9), 3, 8)
        assert val <= 0.1

    def test_magic_bound_alpha_loosening(self):
        # grid evaluation: larger alpha loosens the bound once the -log2 eta
        # term dominates (small tau flips the comparison, where the fast-decaying
        # 2^{-(alpha-1) tau} term still matters at alpha=3)
        for tau in (4.0, 6.0, 8.0):
            for eta in (0.01, 0.1, 0.4):
                assert magic_bound_check(Const(tau), Const(eta), 5, 8) <= magic_bound_check(
                    Const(tau), Const(eta), 3, 8
                ) + 1e-12
        # the small-tau counter-direction, pinned so the caveat stays documented
        assert magic_bound_check(Const(2.0), Const(0.01), 5, 8) > magic_bound_check(
            Const(2.0), Const(0.01), 3, 8
        )

    def test_monotone_in_eta(self):
        etas = np.linspace(1e-6, 0.4, 50)
        vals = [coherence_bound_check(Const(6.0), Const(e), 8) for e in etas]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == pytest.approx(6.0, abs=1e-3)


class TestVerifyDistanceBound:
    def test_phase_kind_frozen_values(self):
        rep = verify_distance_bound("subset-phase", 3, [2, 4], 2)
        for row in rep.rows:
            assert row.lhs == pytest.approx(PHASE_LHS[row.size], abs=1e-6)
            assert row.margin == row.rhs - row.lhs
        assert rep.rows[0].lhs > rep.rows[1].lhs  # strictly decreasing
        assert rep.all_passed
        assert rep.constants["c"] == pytest.approx(PHASE_LHS[2] * 2 / 4, abs=1e-6)

    def test_phase_kind_held_constant(self):
        fit = verify_distance_bound("subset-phase", 3, [2], 2)
        held = verify_distance_bound("subset-phase", 3, [2, 4], 2, constants=fit.constants)
        assert held.all_passed

    def test_phase_full_domain_single_copy(self):
        # with t=1 the all-size phase moment is maximally mixed, equal to the
        # Haar single-copy moment
        rep = verify_distance_bound("subset-phase", 3, [8], 1)
        assert rep.rows[0].lhs == pytest.approx(0.0, abs=1e-12)

    def test_subset_kind_frozen_values_and_fit(self):
        rep = verify_distance_bound("subset", 3, [2, 4, 6], 2)
        for row in rep.rows:
            assert row.lhs == pytest.approx(SUBSET_LHS[row.size], abs=1e-6)
        assert rep.all_passed
        # joint fit at the two smallest sizes is exact there
        assert rep.rows[0].fitted and rep.rows[1].fitted and not rep.rows[2].fitted
        assert rep.rows[0].margin == pytest.approx(0.0, abs=1e-12)
        assert rep.rows[1].margin == pytest.approx(0.0, abs=1e-12)
        assert rep.rows[2].margin > 0

    def test_subset_dominated_segment_empty_at_n3(self):
        # the fitted drift constant c1 dominates at every tested size here, so
        # the t^2/m-dominated segment has no points and no slope
        rep = verify_distance_bound("subset", 3, [2, 4, 6], 2)
        assert rep.dominated_sizes == ()
        assert rep.dominated_slope is None
        assert rep.overall_slope == pytest.approx(0.502, abs=2e-3)

    def test_phase_dominated_slope(self):
        rep = verify_distance_bound("subset-phase", 3, [2, 4], 2)
        assert rep.dominated_slope == pytest.approx(-1.515, abs=2e-3)

    def test_phase_sizes_checked_before_any_distance(self, monkeypatch):
        from tprslab import bounds

        def fail(*args, **kwargs):
            raise AssertionError("distance computed before the size check")

        monkeypatch.setattr(bounds, "_exact_lhs", fail)
        with pytest.raises(ValidationError, match="powers of two"):
            verify_distance_bound("subset-phase", 6, [16, 3], 2)
        with pytest.raises(ValidationError, match="need 1 <= m <= 2"):
            verify_distance_bound("subset-phase", 6, [16, 128], 2)

    def test_budget_is_the_env_knob(self, monkeypatch):
        # the exact distance route at n = 3, t = 2 declares its peak bytes: allowed at that budget, refused a byte below
        need = route_cost(3, 2)[0]
        monkeypatch.setenv("TPRS_MEM_CAP", str(need))
        assert verify_distance_bound("subset-phase", 3, [2], 2).rows[0].lhs == pytest.approx(PHASE_LHS[2], abs=1e-6)
        monkeypatch.setenv("TPRS_MEM_CAP", str(need - 1))
        with pytest.raises(DimensionCapExceeded, match=f"^exact distance route needs {need:,} bytes, over the TPRS_MEM_CAP"):
            verify_distance_bound("subset-phase", 3, [2], 2)

    def test_cross_size_drift_is_real(self):
        # Constants held across sizes only work at fixed n: the exact distance
        # at fixed (m, t) grows with n toward its large-n envelope, so a
        # constant fitted at n=3 undershoots at n=4. Pin the measured drift so
        # it stays a documented property of the quantities, not a hidden one.
        fit = verify_distance_bound("subset-phase", 3, [4], 2)
        held = verify_distance_bound("subset-phase", 4, [4], 2, constants=fit.constants)
        assert not held.all_passed
        assert held.rows[0].lhs == pytest.approx(0.132353, abs=1e-5)
        assert held.rows[0].lhs / held.rows[0].rhs == pytest.approx(1.36, abs=0.01)


class TestEmpiricalPropChecks:
    def setup_method(self):
        self.advice = advise_subset_size(LOG, 3)
        self.e_high = EnsembleSpec("haar", 3)
        self.e_low = EnsembleSpec("subset-phase-true-random", 3, m=self.advice.m)

    def test_prop7_pipeline_passes(self):
        rep = empirical_prop_check(7, self.e_high, self.e_low, LOG, 4000, seed=11)
        assert rep.verdict == "passed"
        assert rep.measured == pytest.approx(2.0, abs=1e-9)  # log2 m for phase states
        assert rep.bound == coherence_bound_check(rep.sandwich, rep.eta_hat, 3)
        assert rep.bound < rep.measured

    def test_prop8_pipeline_passes(self):
        rep = empirical_prop_check(8, self.e_high, self.e_low, LOG, 4000, seed=12)
        assert rep.verdict == "passed"
        assert rep.bound == entanglement_bound_check(rep.sandwich, rep.eta_hat, 3)
        assert rep.measured >= rep.bound - 3 * rep.measured_stderr

    def test_prop8_haar_vs_haar_trivially_passes(self):
        rep = empirical_prop_check(
            8, EnsembleSpec("haar", 3, seed=RngSeed(1)), EnsembleSpec("haar", 3, seed=RngSeed(2)), LOG, 2000, seed=13
        )
        assert rep.verdict == "passed"

    def test_prop9_stabilizer_orbit_nonbinding(self):
        rep = empirical_prop_check(
            9, EnsembleSpec("haar", 2), EnsembleSpec("stabilizer-orbit", 2), LOG, 2000, seed=14
        )
        assert rep.verdict == "non-binding"
        # the evaluated bound is negative, and is written as 0.0
        assert magic_bound_check(rep.sandwich, rep.eta_hat, 3, 2) < 0
        assert rep.bound == 0.0 and rep.margin == rep.measured
        assert rep.eta_hat > 0.1  # far from negligible: the expected failure mode
        assert rep.measured == pytest.approx(0.0, abs=1e-9)

    def test_prop9_pipeline_passes(self):
        rep = empirical_prop_check(
            9, EnsembleSpec("haar", 5), EnsembleSpec("subset-phase-keyed", 5, m=4), LOG, 500, seed=3
        )
        assert rep.verdict == "passed"
        assert rep.bound == magic_bound_check(rep.sandwich, rep.eta_hat, 3, 5) > 0
        assert rep.margin == rep.measured - rep.bound

    def test_degenerate_bound_is_non_binding(self):
        # a basis state accepts with probability 1, so 2^-gamma + eta >= 1
        basis = EnsembleSpec("subset-phase-true-random", 3, m=1)
        rep = empirical_prop_check(7, self.e_high, basis, LOG, 1000, seed=17)
        with pytest.raises(BoundDegenerate):
            coherence_bound_check(rep.sandwich, rep.eta_hat, 3)
        assert rep.verdict == "non-binding"
        assert rep.bound == 0.0 and rep.margin == rep.measured

    @pytest.mark.parametrize(
        "prop,low",
        [
            (7, EnsembleSpec("subset-phase-true-random", 3, m=1)),  # degenerate: 2^-gamma + eta >= 1
            (8, EnsembleSpec("subset-keyed", 3, m=1)),  # degenerate: 2^-xi + eta >= 1
            (9, EnsembleSpec("stabilizer-orbit", 3)),  # evaluated, and negative
        ],
    )
    def test_non_binding_bound_is_written_as_zero(self, prop, low):
        rep = empirical_prop_check(prop, EnsembleSpec("haar", 3), low, LOG, 1000, seed=18)
        assert rep.verdict == "non-binding"
        assert rep.bound == 0.0 and math.copysign(1.0, rep.bound) == 1.0
        assert rep.margin == rep.measured

    def test_premise_violation_reported(self):
        # swap the roles: the "high" ensemble has higher acceptance, breaking
        # the sandwich premise
        rep = empirical_prop_check(7, self.e_low, self.e_high, LOG, 2000, seed=15)
        assert rep.verdict == "premise-violated"

    def test_keyed_low_ensemble_passes_too(self):
        # the full keyed pipeline mirrors the true-random one
        keyed = EnsembleSpec("subset-phase-keyed", 3, m=self.advice.m)
        rep = empirical_prop_check(7, self.e_high, keyed, LOG, 2000, seed=16)
        assert rep.verdict == "passed"
        assert rep.measured == pytest.approx(2.0, abs=1e-9)

    def test_pipeline_at_n4(self):
        advice = advise_subset_size(LOG, 4)
        e_high = EnsembleSpec("haar", 4)
        e_low = EnsembleSpec("subset-phase-true-random", 4, m=advice.m)
        r7 = empirical_prop_check(7, e_high, e_low, LOG, 3000, seed=21)
        r8 = empirical_prop_check(8, e_high, e_low, LOG, 3000, seed=22)
        assert r7.verdict == "passed" and r8.verdict == "passed"
        assert r7.measured == pytest.approx(math.log2(advice.m), abs=1e-9)
