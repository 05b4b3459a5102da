"""Concrete distinguisher statistics and advantage estimation.

Acceptance probabilities are computed analytically from the state (no shot
noise); ensemble averaging is the only Monte-Carlo layer. Each distinguisher
carries a declared abstract gate cost that is compared against c * T(n) to
flag whether the test respects a runtime budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .config import DEFAULT_BUDGET_CONSTANT, check_dim
from .errors import CopyMismatch, ValidationError
from .ensembles import EnsembleSpec
from .growth import GrowthClass
from .linalg import DensityOperator, PartitionSpec
from .randprims import RngSeed, as_seed
from .resources import (
    MEASURE_COLLISION_ENT,
    ResourceMeasure,
    abs2,
    measure_pure_amps,
    pauli_basis,
    pauli_power_sums,
    pauli_power_trace,
)
from .sampling import MeanAccumulator, paired_value_means

__all__ = [
    "DistinguisherDescriptor",
    "AdvantageReport",
    "swap_test_prob",
    "coherence_projector_prob",
    "swap_on_a_operator",
    "pauli_projector",
    "hadamard_test_prob",
    "hadamard_test_prob_projector",
    "make_swap_distinguisher",
    "make_coherence_distinguisher",
    "make_hadamard_distinguisher",
    "estimate_advantage",
    "hybrid_experiment",
    "HybridReport",
]


def swap_test_prob(rho: DensityOperator) -> float:
    """Two copies of rho accept with probability (1 + Tr rho^2) / 2."""
    return 0.5 * (1.0 + rho.purity())


def coherence_projector_prob(rho: DensityOperator) -> float:
    """Acceptance of the basis-pairing projector on two copies: sum_x <x|rho|x>^2."""
    diag = np.real(np.diag(rho.mat))
    return float(np.sum(diag**2))


def swap_on_a_operator(n: int, part: PartitionSpec) -> np.ndarray:
    """Operator swapping the A factors of two n-qubit copies."""
    part.check(n)
    da, db = 2**part.n_a, 2**part.n_b
    d = da * db
    dim = d * d
    op = np.zeros((dim, dim))
    cols = np.arange(dim)
    a1, b1 = (cols // d) // db, (cols // d) % db
    a2, b2 = (cols % d) // db, (cols % d) % db
    rows = ((a2 * db + b1) * d) + (a1 * db + b2)
    op[rows, cols] = 1.0
    return op


@lru_cache(maxsize=16)
def _pauli_projector_cached(n: int, alpha: int) -> np.ndarray:
    d = 2**n
    dim = d ** (2 * alpha)
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for pauli in pauli_basis(n):
        term = np.array([[1.0 + 0j]])
        for _ in range(2 * alpha):
            term = np.kron(term, pauli)
        acc += term
    acc /= d
    acc.setflags(write=False)
    return acc


def pauli_projector(n: int, alpha: int, cap: int | None = None) -> np.ndarray:
    """Pauli-replica operator: average of P^{x 2 alpha} over all 4^n Paulis."""
    if alpha < 3 or alpha % 2 == 0:
        raise ValidationError("alpha must be an odd integer >= 3")
    check_dim(n, 2 * alpha, cap)
    return _pauli_projector_cached(n, alpha)


def hadamard_test_prob(rho, alpha: int) -> float:
    """Acceptance of the 2*alpha-copy replica test: (1 + power trace) / 2.

    Reads the Walsh-Hadamard Pauli spectrum, so it reaches n <= MAGIC_MAX_QUBITS
    without the dense Pauli stack or the 2^{2 alpha n} operator.
    """
    if alpha < 3 or alpha % 2 == 0:
        raise ValidationError("alpha must be an odd integer >= 3")
    return 0.5 * (1.0 + pauli_power_trace(rho, alpha))


def hadamard_test_prob_projector(rho: DensityOperator, alpha: int, cap: int | None = None) -> float:
    """Cross-validation route via the dense replica operator."""
    proj = pauli_projector(rho.n, alpha, cap=cap)
    copies = rho.mat
    for _ in range(2 * alpha - 1):
        copies = np.kron(copies, rho.mat)
    return 0.5 * (1.0 + float(np.einsum("ij,ji->", proj, copies).real))


# ---------------------------------------------------------------------------
# Distinguisher descriptors


@dataclass(frozen=True)
class DistinguisherDescriptor:
    """A budgeted t-copy acceptance test.

    ``accept_prob`` consumes the t-copy density operator (the contractual
    surface); ``accept_prob_pure(amps, n)`` is the equivalent fast path on
    single-copy amplitudes used by the estimators and cross-checked in tests:
    a float for one (2^n,) vector, one value per row for a (rows, 2^n) block.
    """

    name: str
    copies_required: int
    declared_cost: Callable[[int, int], float]
    accept_prob: Callable[[DensityOperator], float]
    accept_prob_pure: Callable[[np.ndarray, int], float]


def make_swap_distinguisher(part: PartitionSpec) -> DistinguisherDescriptor:
    """SWAP test on the A-side reductions of two copies."""

    def accept(omega: DensityOperator) -> float:
        n = omega.n // 2
        op = swap_on_a_operator(n, part)
        return 0.5 * (1.0 + float(np.einsum("ij,ji->", op, omega.mat).real))

    purity = ResourceMeasure(MEASURE_COLLISION_ENT, partition=part)

    def accept_pure(amps: np.ndarray, n: int):
        return 0.5 * (1.0 + measure_pure_amps(purity, amps, n))

    return DistinguisherDescriptor(
        name=f"swap[{part.n_a}:{part.n_b}]",
        copies_required=2,
        declared_cost=lambda n, t: float(n + 1),
        accept_prob=accept,
        accept_prob_pure=accept_pure,
    )


def make_coherence_distinguisher() -> DistinguisherDescriptor:
    """Basis-pairing projector test on two copies."""

    def accept(omega: DensityOperator) -> float:
        n = omega.n // 2
        d = 2**n
        diag = np.real(np.diag(omega.mat))
        idx = np.arange(d)
        return float(diag[idx * d + idx].sum())

    def accept_pure(amps: np.ndarray, n: int):
        p = abs2(np.asarray(amps))
        return np.sum(p * p, axis=-1)  # a float64 scalar for one vector

    return DistinguisherDescriptor(
        name="coherence-projector",
        copies_required=2,
        declared_cost=lambda n, t: float(2 * n + 1),
        accept_prob=accept,
        accept_prob_pure=accept_pure,
    )


def make_hadamard_distinguisher(alpha: int) -> DistinguisherDescriptor:
    """Pauli-replica test on 2*alpha copies."""
    if alpha < 3 or alpha % 2 == 0:
        raise ValidationError("alpha must be an odd integer >= 3")

    def accept(omega: DensityOperator) -> float:
        n = omega.n // (2 * alpha)
        proj = pauli_projector(n, alpha)
        return 0.5 * (1.0 + float(np.einsum("ij,ji->", proj, omega.mat).real))

    def accept_pure(amps: np.ndarray, n: int):
        values = 0.5 * (1.0 + pauli_power_sums(amps, n, alpha))
        return float(values[0]) if np.ndim(amps) == 1 else values

    return DistinguisherDescriptor(
        name=f"hadamard(alpha={alpha})",
        copies_required=2 * alpha,
        declared_cost=lambda n, t: float(2 * alpha * (n + 1)),
        accept_prob=accept,
        accept_prob_pure=accept_pure,
    )


def registry(n: int, alpha: int = 3) -> dict[str, DistinguisherDescriptor]:
    """Distinguishers addressable by short name (CLI surface)."""
    out = {"coherence": make_coherence_distinguisher()}
    if n >= 2:
        out["swap"] = make_swap_distinguisher(PartitionSpec(1, n - 1))
    out["hadamard"] = make_hadamard_distinguisher(alpha)
    return out


def budget_ratio_sweep(
    dist: DistinguisherDescriptor,
    T: GrowthClass,
    n_values,
    budget_constant: float = DEFAULT_BUDGET_CONSTANT,
) -> tuple[tuple[int, float, float, float], ...]:
    """(n, declared cost, c * T(n), ratio) across sizes.

    An asymptotic runtime condition cannot be decided at one size, so the
    ratio trajectory is recorded instead of a single verdict; a bounded ratio
    across the sweep is the finite-size evidence.
    """
    rows = []
    for n in n_values:
        cost = dist.declared_cost(n, dist.copies_required)
        allowance = budget_constant * T.eval(n)
        rows.append((int(n), float(cost), float(allowance), float(cost / allowance)))
    return tuple(rows)


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
    dist: DistinguisherDescriptor, acc1: MeanAccumulator, acc2: MeanAccumulator, n: int, T: GrowthClass, budget: float
) -> AdvantageReport:
    cost = dist.declared_cost(n, dist.copies_required)
    t_val = T.eval(n)
    return AdvantageReport(
        distinguisher=dist.name,
        adv=abs(acc1.mean - acc2.mean),
        stderr=float(math.hypot(acc1.stderr, acc2.stderr)),
        budget_ok=bool(cost <= budget * t_val),
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
    threads: int = 1,
    budget_constant: float = DEFAULT_BUDGET_CONSTANT,
) -> AdvantageReport:
    """Monte-Carlo advantage |E_1[accept] - E_2[accept]| with paired generators."""
    if e1.n != e2.n:
        raise ValidationError("ensembles must share the qubit count")
    if e1.t != dist.copies_required or e2.t != dist.copies_required:
        raise CopyMismatch(
            f"{dist.name} needs t={dist.copies_required}, got {e1.t} and {e2.t}"
        )
    accept = dist.accept_prob_pure
    acc1, acc2 = paired_value_means(as_seed(seed), samples, (accept, accept), threads=threads, sources=(e1, e2))
    return _advantage_report(dist, acc1, acc2, e1.n, T, budget_constant)


# ---------------------------------------------------------------------------
# Hybrid experiment


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
    T: GrowthClass | None = None,
    distinguishers: tuple[DistinguisherDescriptor, ...] | None = None,
    names: "tuple[str, ...] | None" = None,
    threads: int = 1,
) -> HybridReport:
    """Pairwise advantages along keyed -> true-random -> Haar.

    The chained legs read one draw of keyed, true-random and Haar; the direct
    keyed-vs-haar leg reads an independent draw (ensemble seed 1), so the
    check adv(keyed, haar) <= adv(keyed, true) + adv(true, haar) + noise
    slack tests the legs' consistency within their errors (on shared draws
    it would hold identically). Every distinguisher reads the same draws.
    """
    if t != 2:
        raise CopyMismatch("the registered hybrid distinguishers are two-copy tests")
    T = T or GrowthClass("log")
    keyed = EnsembleSpec("subset-phase-keyed", n, m=m, t=t)
    haar = EnsembleSpec("haar", n, t=t)
    specs = {
        "keyed": keyed,
        "true": EnsembleSpec("subset-phase-true-random", n, m=m, t=t),
        "haar": haar,
        "keyed-direct": keyed.with_seed(1),
        "haar-direct": haar.with_seed(1),
    }
    if distinguishers is None:
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
        threads=threads,
        sources=tuple(specs.values()) * len(distinguishers),
    )
    pairs = (
        ("keyed-vs-true", "keyed", "true"),
        ("true-vs-haar", "true", "haar"),
        ("keyed-vs-haar", "keyed-direct", "haar-direct"),
    )
    legs = []
    triangle_ok = True
    for i, dist in enumerate(distinguishers):
        acc = dict(zip(specs, accs[len(specs) * i : len(specs) * (i + 1)]))
        reports = {
            pair: _advantage_report(dist, acc[a], acc[b], n, T, DEFAULT_BUDGET_CONSTANT) for pair, a, b in pairs
        }
        legs.extend(HybridLeg(pair, rep) for pair, rep in reports.items())
        slack = 3.0 * sum(rep.stderr for rep in reports.values())
        lhs = reports["keyed-vs-haar"].adv
        rhs = reports["keyed-vs-true"].adv + reports["true-vs-haar"].adv + slack
        if lhs > rhs:
            triangle_ok = False
    return HybridReport(n=n, m=m, t=t, legs=tuple(legs), triangle_ok=triangle_ok)
