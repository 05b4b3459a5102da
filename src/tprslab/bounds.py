"""Quantitative bound evaluators and their empirical consistency checks.

The distance-bound verifier fits big-O constants once, at the smallest tested
sizes, then holds them fixed for every other size: a constant valid at one
size must keep working, and drift indicates a wrong implementation. The
resource-bound claims are checked in their contrapositive-safe direction
only: given a measured advantage, the implied resource inequality is
verified; indistinguishability itself is never claimed from finite data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .config import check_domain
from .errors import BoundDegenerate, ParameterOrderViolated, ValidationError
from .growth import Expr
from .linalg import PartitionSpec
from .resources import (
    MEASURE_COHERENCE_RE,
    MEASURE_ENTANGLEMENT,
    MEASURE_MAGIC,
    ResourceMeasure,
    aggregate_measure,
)
from .distinguishers import make_coherence_distinguisher, make_hadamard_distinguisher, make_swap_distinguisher
from .sampling import paired_value_means

if TYPE_CHECKING:
    from .ensembles import EnsembleSpec
    from .growth import GrowthClass
    from .randprims import RngSeed

__all__ = [
    "subset_phase_distance_bound",
    "subset_distance_bound",
    "verify_distance_bound",
    "DistanceBoundReport",
    "DistanceBoundRow",
    "coherence_bound_check",
    "entanglement_bound_check",
    "magic_bound_check",
    "empirical_prop_check",
    "PropCheckReport",
]


def subset_phase_distance_bound(n: int, m_exp: int, t: int, c: float = 1.0) -> float:
    """c * t^2 / 2^{m_exp}, valid in the window t < 2^{m_exp} < 2^n."""
    if not (t < 2**m_exp < 2**n):
        raise ParameterOrderViolated(f"need t < 2^m_exp < 2^n, got t={t}, m_exp={m_exp}, n={n}")
    return c * t * t / 2**m_exp


def subset_distance_bound(n: int, m: int, t: int, c1: float = 1.0, c2: float = 1.0) -> float:
    """c1 * t m / 2^n + c2 * t^2 / m."""
    if not (1 <= m <= 2**n):
        raise ValidationError("need 1 <= m <= 2^n")
    return c1 * t * m / 2**n + c2 * t * t / m


@dataclass(frozen=True)
class DistanceBoundRow:
    """One size of an exact distance check: lhs has no stderr."""

    size: int  # subset size m (phase kind rows use m = 2^{m_exp})
    lhs: float
    rhs: float
    margin: float
    passed: bool
    fitted: bool


@dataclass(frozen=True)
class DistanceBoundReport:
    kind: str
    n: int
    t: int
    rows: tuple[DistanceBoundRow, ...]
    constants: dict
    pairwise_slopes: "tuple[float | None, ...]"
    overall_slope: float | None
    dominated_sizes: tuple[int, ...]
    dominated_slope: float | None

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    @property
    def lhs_values(self) -> tuple[float, ...]:
        return tuple(r.lhs for r in self.rows)


def _ls_slope(xs, ys) -> float | None:
    ys = np.asarray(ys, float)
    if np.any(ys <= 0):
        return None  # exact zeros (e.g. single-copy phase moments) have no log slope
    # least-squares slope of log y on log x in closed form: sum dx dy / sum dx^2
    dx, dy = np.log(np.asarray(xs, float)), np.log(ys)
    dx -= dx.mean()
    dy -= dy.mean()
    return float(dx @ dy / (dx @ dx))


def verify_distance_bound(
    kind: str,
    n: int,
    sizes,
    t: int,
    constants: dict | None = None,
) -> DistanceBoundReport:
    """Exact moment-to-Haar trace distances (``symmetry.exact_distance``) checked against the fitted bound.

    For the phase kind a single constant c is fitted by equality at the
    smallest size. The subset kind has two structural constants (c1, c2);
    a single size cannot determine both, so they are fitted jointly by
    equality at the two smallest sizes (clamped at zero and refitted on one
    size if the joint solution goes negative). Fitted constants are then held
    fixed for every remaining size; given ``constants`` are held at every size.

    The log-log slope is reported for the segment where the fitted c2 t^2 / m
    term dominates; the slope is only meaningful there, and at sizes where the
    drift term c1 t m / 2^n rules, the segment may be empty.

    Every input is checked before any distance: the size list here, n against
    the 2^n table cap (``config.check_domain``), and each size through the
    route's own gate (``symmetry.check_route``: kind, n, m, t and the byte budget).
    """
    # imported on first use: `import tprslab` does not compile the route
    from .symmetry import check_route, exact_distance

    sizes = sorted(sizes)
    if not sizes:
        raise ValidationError("at least one size required")
    if len(set(sizes)) != len(sizes):
        raise ValidationError("sizes must be distinct")
    check_domain(n)
    for s in sizes:
        check_route(kind, n, t, m=s)
    if kind == "subset-phase" and any(s & (s - 1) for s in sizes):
        raise ValidationError("phase kind sizes must be powers of two")
    lhs = {s: exact_distance(kind, n, s, t) for s in sizes}

    s0 = sizes[0]
    single = lhs[s0] * s0 / (t * t)  # the t^2/m term's constant fitted at the smallest size
    fitted_sizes = {s0} if constants is None else set()
    if kind == "subset-phase":
        constants = {"c": single} if constants is None else constants
        # evaluate the bound formula directly: the fit point may sit on the
        # boundary of the strict t < 2^m window the standalone evaluator enforces
        rhs = {s: constants["c"] * t * t / s for s in sizes}
        dominated = tuple(sizes)  # single-term bound: every size is in the t^2/m regime
    else:
        if constants is None:
            c1, c2 = 0.0, single
            if len(sizes) >= 2:
                s1 = sizes[1]
                a = np.array([[t * s0 / 2**n, t * t / s0], [t * s1 / 2**n, t * t / s1]])
                joint = np.linalg.solve(a, np.array([lhs[s0], lhs[s1]]))
                # degenerate data for the joint fit keeps the dominant single term at the smallest size
                if not (joint[0] < 0 or joint[1] < 0):
                    (c1, c2), fitted_sizes = joint, {s0, s1}
            constants = {"c1": float(c1), "c2": float(c2)}
        rhs = {s: subset_distance_bound(n, s, t, constants["c1"], constants["c2"]) for s in sizes}
        c1, c2 = constants["c1"], constants["c2"]
        dominated = tuple(s for s in sizes if c2 * t * t / s >= c1 * t * s / 2**n)

    rows = tuple(
        DistanceBoundRow(
            size=s,
            lhs=lhs[s],
            rhs=rhs[s],
            margin=rhs[s] - lhs[s],
            passed=bool(rhs[s] - lhs[s] >= -1e-12),
            fitted=s in fitted_sizes,
        )
        for s in sizes
    )
    pairwise = tuple(_ls_slope(pair, [lhs[s] for s in pair]) for pair in zip(sizes, sizes[1:]))
    overall = _ls_slope(sizes, [lhs[s] for s in sizes]) if len(sizes) >= 2 else None
    dom_slope = _ls_slope(dominated, [lhs[s] for s in dominated]) if len(dominated) >= 2 else None
    return DistanceBoundReport(
        kind=kind,
        n=n,
        t=t,
        rows=rows,
        constants=dict(constants),
        pairwise_slopes=pairwise,
        overall_slope=overall,
        dominated_sizes=dominated,
        dominated_slope=dom_slope,
    )


# ---------------------------------------------------------------------------
# Resource-bound evaluators


def _eval_eta(eta: "Expr | float", n: int) -> float:
    if isinstance(eta, Expr):
        return float(eta.eval(n))
    return float(eta)


def coherence_bound_check(gamma: "Expr | float", eta: "Expr | float", n: int) -> float:
    """-log2(2^-gamma(n) + eta(n)); degenerate when the argument reaches 1."""
    g = _eval_eta(gamma, n)
    e = _eval_eta(eta, n)
    arg = 2.0**-g + e
    if arg >= 1.0:
        raise BoundDegenerate(f"2^-gamma + eta = {arg} >= 1")
    if arg <= 0.0:
        raise BoundDegenerate("bound argument must be positive")
    return float(-np.log2(arg))


def entanglement_bound_check(xi: "Expr | float", eta: "Expr | float", n: int) -> float:
    """Same shape as the coherence bound with xi in place of gamma."""
    return coherence_bound_check(xi, eta, n)


def magic_bound_check(tau: "Expr | float", eta: "Expr | float", alpha: int, n: int) -> float:
    """-(log2 eta + 2^{-(alpha-1) tau} / eta) / (alpha - 1).

    May be negative (non-binding) when eta is large; callers decide how to
    report that.
    """
    if alpha < 3 or alpha % 2 == 0:
        raise ValidationError("alpha must be an odd integer >= 3")
    e = _eval_eta(eta, n)
    if not (0.0 < e < 1.0):
        raise BoundDegenerate(f"eta must lie in (0, 1), got {e}")
    tau_v = _eval_eta(tau, n)
    return float(-(np.log2(e) + 2.0 ** (-(alpha - 1) * tau_v) / e) / (alpha - 1))


# ---------------------------------------------------------------------------
# Empirical pipeline checks


@dataclass(frozen=True)
class PropCheckReport:
    """Outcome of a resource-bound pipeline run.

    verdict: "passed" (measured low resource clears the bound),
    "failed" (it does not), "premise-violated" (the high/low acceptance
    ordering assumed by the claim does not hold empirically), or
    "non-binding" (the evaluated bound is not positive or is degenerate,
    e.g. when the measured advantage is far from negligible; ``bound`` is
    then 0.0 and ``margin`` the measured value, for every prop).
    """

    prop: int
    measure: str
    eta_hat: float
    eta_stderr: float
    sandwich: float  # gamma, xi, or tau inferred from the low ensemble
    bound: float
    measured: float
    measured_stderr: float
    margin: float
    verdict: str
    threshold: float
    samples: int

    @property
    def passed(self) -> bool:
        return self.verdict == "passed"


def _prop_statistics(prop: int, part: PartitionSpec | None, alpha: int, n: int):
    """(resource measure, distinguisher) of one pipeline check; a given partition goes to
    every measure, whose rule refuses it where the measure takes none."""
    if prop == 7:
        return ResourceMeasure(MEASURE_COHERENCE_RE, partition=part), make_coherence_distinguisher()
    if prop == 8:
        part = part or PartitionSpec(1, n - 1)
        return ResourceMeasure(MEASURE_ENTANGLEMENT, partition=part), make_swap_distinguisher(part)
    if prop == 9:
        return ResourceMeasure(MEASURE_MAGIC, partition=part, alpha=alpha), make_hadamard_distinguisher(alpha)
    raise ValidationError("prop must be 7, 8, or 9")


def empirical_prop_check(
    prop: int,
    e_high: EnsembleSpec,
    e_low: EnsembleSpec,
    T: GrowthClass,
    samples: int,
    seed: RngSeed | int = 0,
    part: PartitionSpec | None = None,
    alpha: int = 3,
) -> PropCheckReport:
    """Run the check's own distinguisher, plug the measured advantage into
    the bound evaluator, and verify the measured low-ensemble resource clears it.

    prop selects the pipeline: 7 couples the basis-pairing test to relative
    entropy of coherence, 8 the reduced swap test to entanglement entropy,
    9 the Pauli-replica test to the magic monotone. The sandwich parameter
    (gamma / xi / tau) is inferred from the measured low side; the high side
    must then sit on the correct side of it or the premise is reported as
    violated.
    """
    if e_high.n != e_low.n:
        raise ValidationError("ensembles must share the qubit count")
    n = e_high.n
    measure, dist = _prop_statistics(prop, part, alpha, n)
    accept = dist.accept_prob_pure
    # the low ensemble is drawn once for its acceptance and resource streams
    acc_high, acc_low, res_low = paired_value_means(
        seed,
        samples,
        (accept, accept, measure.statistic),
        sources=(e_high, e_low, e_low),
        costs=(dist.kernel.cost, dist.kernel.cost, measure.cost),
    )
    eta_hat = abs(acc_low.mean - acc_high.mean)
    eta_se = float(math.hypot(acc_low.stderr, acc_high.stderr))
    measured, measured_se = aggregate_measure(measure, res_low)
    threshold = 1.0 / T.eval(n)

    # acceptance is anti-monotone in the resource: high resource -> low accept
    premise_ok = acc_high.mean <= acc_low.mean + 3.0 * eta_se
    # the low side's acceptance (7) or swap/replica power (8, 9) fixes the sandwich
    power = max(acc_low.mean if prop == 7 else 2.0 * acc_low.mean - 1.0, 1e-300)
    try:
        if prop == 9:
            sandwich = float(-np.log2(power) / (alpha - 1))
            bound = magic_bound_check(sandwich, eta_hat, alpha, n)
        else:
            sandwich = float(-np.log2(power))
            evaluate = coherence_bound_check if prop == 7 else entanglement_bound_check
            bound = evaluate(sandwich, eta_hat, n)
    except BoundDegenerate:
        bound = 0.0
    if bound <= 0.0:
        # every measure is >= 0, so such a bound binds nothing: written as 0.0, margin = measured
        bound, verdict = 0.0, "non-binding"
    else:
        verdict = "passed" if measured >= bound - 3.0 * measured_se else "failed"
    if not premise_ok:
        verdict = "premise-violated"
    return PropCheckReport(
        prop=prop,
        measure=measure.label(),
        eta_hat=eta_hat,
        eta_stderr=eta_se,
        sandwich=sandwich,
        bound=bound,
        measured=measured,
        measured_stderr=measured_se,
        margin=measured - bound,
        verdict=verdict,
        threshold=threshold,
        samples=samples,
    )
