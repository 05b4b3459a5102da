"""Concrete distinguisher statistics and advantage estimation.

Acceptance probabilities are computed analytically from the state (no shot
noise); ensemble averaging is the only Monte-Carlo layer. Each distinguisher
carries a declared abstract gate cost that is compared against c * T(n), with
c = config.DEFAULT_BUDGET_CONSTANT = 10, to flag whether the test respects a
runtime budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .config import DEFAULT_BUDGET_CONSTANT
from .errors import CopyMismatch, ValidationError
from .ensembles import EnsembleSpec
from .growth import GrowthClass
from .linalg import PartitionSpec, abs2
from .randprims import as_seed
from .resources import (
    MEASURE_COHERENCE_HS,
    MEASURE_COLLISION_ENT,
    MEASURE_MAGIC,
    ResourceMeasure,
    measure_pure_amps,
    pauli_power_sums,
)
from .sampling import paired_value_means

if TYPE_CHECKING:
    from .randprims import RngSeed
    from .sampling import MeanAccumulator

__all__ = [
    "DistinguisherDescriptor",
    "AdvantageReport",
    "make_swap_distinguisher",
    "make_coherence_distinguisher",
    "make_hadamard_distinguisher",
    "estimate_advantage",
    "hybrid_experiment",
    "HybridReport",
]


# ---------------------------------------------------------------------------
# Distinguisher descriptors


@dataclass(frozen=True)
class DistinguisherDescriptor:
    """A budgeted t-copy acceptance test.

    ``accept_prob_pure(amps, n)`` is its acceptance probability on t copies of
    a pure state, read from single-copy amplitudes: a float for one (2^n,)
    vector, one value per row for a (rows, 2^n) block. ``kernel`` is the measure
    whose block kernel it reads, so ``kernel.cost`` declares its work.
    """

    name: str
    copies_required: int
    declared_cost: Callable[[int, int], float]
    accept_prob_pure: Callable[[np.ndarray, int], float]
    kernel: ResourceMeasure


def make_swap_distinguisher(part: PartitionSpec) -> DistinguisherDescriptor:
    """SWAP test on the A-side reductions of two copies."""
    purity = ResourceMeasure(MEASURE_COLLISION_ENT, partition=part)

    def accept_pure(amps: np.ndarray, n: int):
        return 0.5 * (1.0 + measure_pure_amps(purity, amps, n))

    return DistinguisherDescriptor(
        name=f"swap[{part.n_a}:{part.n_b}]",
        copies_required=2,
        declared_cost=lambda n, t: float(n + 1),
        accept_prob_pure=accept_pure,
        kernel=purity,
    )


def make_coherence_distinguisher() -> DistinguisherDescriptor:
    """Basis-pairing projector test on two copies."""

    def accept_pure(amps: np.ndarray, n: int):
        p = abs2(np.asarray(amps))
        return np.sum(p * p, axis=-1)  # a float64 scalar for one vector

    return DistinguisherDescriptor(
        name="coherence-projector",
        copies_required=2,
        declared_cost=lambda n, t: float(2 * n + 1),
        accept_prob_pure=accept_pure,
        kernel=ResourceMeasure(MEASURE_COHERENCE_HS),
    )


def make_hadamard_distinguisher(alpha: int) -> DistinguisherDescriptor:
    """Pauli-replica test on 2*alpha copies: accepts with probability
    (1 + (1/2^n) sum_P <psi|P|psi>^{2 alpha}) / 2, read from the X-part
    Walsh-Hadamard power sums, so it reaches n <= MAGIC_MAX_QUBITS without the
    dense Pauli stack or the 2^{2 alpha n} operator."""
    if alpha < 3 or alpha % 2 == 0:
        raise ValidationError("alpha must be an odd integer >= 3")

    def accept_pure(amps: np.ndarray, n: int):
        values = 0.5 * (1.0 + pauli_power_sums(amps, n, alpha))
        return float(values[0]) if np.ndim(amps) == 1 else values

    return DistinguisherDescriptor(
        name=f"hadamard(alpha={alpha})",
        copies_required=2 * alpha,
        declared_cost=lambda n, t: float(2 * alpha * (n + 1)),
        accept_prob_pure=accept_pure,
        kernel=ResourceMeasure(MEASURE_MAGIC, alpha=alpha),
    )


def registry(n: int, alpha: int = 3) -> dict[str, DistinguisherDescriptor]:
    """Distinguishers addressable by short name (CLI surface)."""
    out = {"coherence": make_coherence_distinguisher()}
    if n >= 2:
        out["swap"] = make_swap_distinguisher(PartitionSpec(1, n - 1))
    out["hadamard"] = make_hadamard_distinguisher(alpha)
    return out


# ---------------------------------------------------------------------------
# Advantage estimation


@dataclass(frozen=True)
class AdvantageReport:
    """Absolute acceptance gap between two ensembles under one distinguisher."""

    distinguisher: str
    adv: float
    stderr: float
    budget_ok: bool
    threshold: float  # negligibility reference 1/T(n)
    p1: float
    p2: float
    se1: float
    se2: float
    samples: int

    def __post_init__(self):
        if not (-1e-9 <= self.adv <= 1.0 + 1e-9):
            raise ValidationError("advantage outside [0, 1]")
        if self.stderr < 0:
            raise ValidationError("stderr must be nonnegative")


def _advantage_report(
    dist: DistinguisherDescriptor, acc1: MeanAccumulator, acc2: MeanAccumulator, n: int, T: GrowthClass
) -> AdvantageReport:
    cost = dist.declared_cost(n, dist.copies_required)
    t_val = T.eval(n)
    return AdvantageReport(
        distinguisher=dist.name,
        adv=abs(acc1.mean - acc2.mean),
        stderr=float(math.hypot(acc1.stderr, acc2.stderr)),
        budget_ok=bool(cost <= DEFAULT_BUDGET_CONSTANT * t_val),
        threshold=1.0 / t_val,
        p1=acc1.mean,
        p2=acc2.mean,
        se1=acc1.stderr,
        se2=acc2.stderr,
        samples=acc1.count,
    )


def estimate_advantage(
    dist: DistinguisherDescriptor,
    e1: EnsembleSpec,
    e2: EnsembleSpec,
    samples: int,
    T: GrowthClass,
    seed: RngSeed | int = 0,
) -> AdvantageReport:
    """Monte-Carlo advantage |E_1[accept] - E_2[accept]| with paired generators."""
    if e1.n != e2.n:
        raise ValidationError("ensembles must share the qubit count")
    if e1.t != dist.copies_required or e2.t != dist.copies_required:
        raise CopyMismatch(
            f"{dist.name} needs t={dist.copies_required}, got {e1.t} and {e2.t}"
        )
    accept = dist.accept_prob_pure
    cost = dist.kernel.cost
    acc1, acc2 = paired_value_means(as_seed(seed), samples, (accept, accept), sources=(e1, e2), costs=(cost, cost))
    return _advantage_report(dist, acc1, acc2, e1.n, T)


# ---------------------------------------------------------------------------
# Hybrid experiment

# One-sided false-alarm rate of the hybrid triangle check, per distinguisher.
TRIANGLE_ALPHA = 1e-6


@dataclass(frozen=True)
class HybridLeg:
    pair: str
    report: AdvantageReport


@dataclass(frozen=True)
class HybridReport:
    n: int
    m: int
    t: int
    legs: tuple[HybridLeg, ...]
    triangle_ok: bool


def hybrid_experiment(
    n: int,
    m: int,
    t: int,
    seed: RngSeed | int = 0,
    samples: int = 4000,
    names: "tuple[str, ...] | None" = None,
) -> HybridReport:
    """Pairwise advantages along keyed -> true-random -> Haar.

    The chained legs read one draw of keyed, true-random and Haar; the direct
    keyed-vs-haar leg reads an independent draw (ensemble seed 1), so the
    check adv(keyed, haar) <= adv(keyed, true) + adv(true, haar) + noise
    slack tests the legs' consistency within their errors (on shared draws
    it would hold identically); correct code fails it with probability
    about TRIANGLE_ALPHA per distinguisher. Every distinguisher reads the
    same draws.
    """
    from statistics import NormalDist  # its import costs ~20 ms of every CLI start

    if t != 2:
        raise CopyMismatch("the registered hybrid distinguishers are two-copy tests")
    T = GrowthClass("log")
    keyed = EnsembleSpec("subset-phase-keyed", n, m=m, t=t)
    haar = EnsembleSpec("haar", n, t=t)
    specs = {
        "keyed": keyed,
        "true": EnsembleSpec("subset-phase-true-random", n, m=m, t=t),
        "haar": haar,
        "keyed-direct": keyed.with_seed(1),
        "haar-direct": haar.with_seed(1),
    }
    table = registry(n)
    if names is None:
        names = tuple(k for k, d in table.items() if d.copies_required == t)
    missing = [nm for nm in names if nm not in table]
    if missing:
        raise ValidationError(f"unknown distinguisher names {missing}; registry has {sorted(table)}")
    wrong_t = [nm for nm in names if table[nm].copies_required != t]
    if wrong_t:
        raise CopyMismatch(f"distinguishers {wrong_t} need t != {t}")
    distinguishers = tuple(table[nm] for nm in names)
    accs = paired_value_means(
        as_seed(seed),
        samples,
        tuple(dist.accept_prob_pure for dist in distinguishers for _ in specs),
        sources=tuple(specs.values()) * len(distinguishers),
        costs=tuple(dist.kernel.cost for dist in distinguishers for _ in specs),
    )
    pairs = (
        ("keyed-vs-true", "keyed", "true"),
        ("true-vs-haar", "true", "haar"),
        ("keyed-vs-haar", "keyed-direct", "haar-direct"),
    )
    # When the true advantages obey the triangle inequality, lhs - rhs (slack
    # aside) is positive only through the legs' estimation errors, and is at
    # most a signed sum of them, each near-normal with sd the leg's stderr (a
    # chained leg's |.| can only lower it; a direct leg whose true advantage
    # is 0 can double the rate). The chained legs share the true-random draw,
    # so their errors correlate, but each covariance is at most the product
    # of the two sds, so sd(X + Y + Z) <= sd(X) + sd(Y) + sd(Z) for any
    # correlation: z_(1 - alpha) summed stderrs hold the false-alarm rate
    # near alpha.
    z = NormalDist().inv_cdf(1.0 - TRIANGLE_ALPHA)
    legs = []
    triangle_ok = True
    for i, dist in enumerate(distinguishers):
        acc = dict(zip(specs, accs[len(specs) * i : len(specs) * (i + 1)]))
        reports = {pair: _advantage_report(dist, acc[a], acc[b], n, T) for pair, a, b in pairs}
        legs.extend(HybridLeg(pair, rep) for pair, rep in reports.items())
        slack = z * sum(rep.stderr for rep in reports.values())
        lhs = reports["keyed-vs-haar"].adv
        rhs = reports["keyed-vs-true"].adv + reports["true-vs-haar"].adv + slack
        if lhs > rhs:
            triangle_ok = False
    return HybridReport(n=n, m=m, t=t, legs=tuple(legs), triangle_ok=triangle_ok)
